//! Order statistics shared by the run and compare commands.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `pct` percent of all samples at or below it.
pub fn nearest_rank(sorted: &[f64], pct: usize) -> Option<f64> {
    let rank = rank_of(sorted.len(), pct)?;
    Some(sorted[rank - 1])
}

/// [`nearest_rank`], but only when at least `min_beyond` samples lie
/// strictly beyond the percentile's rank; a tail read off fewer samples is
/// one or two outliers, not a percentile.
pub fn tail_percentile(sorted: &[f64], pct: usize, min_beyond: usize) -> Option<f64> {
    let rank = rank_of(sorted.len(), pct)?;
    (sorted.len() - rank >= min_beyond).then(|| sorted[rank - 1])
}

/// 1-based nearest rank, in integer arithmetic so `90 %` of 100 is
/// exactly rank 90.
fn rank_of(n: usize, pct: usize) -> Option<usize> {
    (n > 0 && pct <= 100).then(|| ((pct * n).div_ceil(100)).max(1))
}

/// Ascending copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for an even count), as Python's
/// `statistics.median` computes it.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default exclusive method), so spreads printed here match
/// the ones Python computes from the same numbers.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50), Some(50.0));
        assert_eq!(nearest_rank(&v, 90), Some(90.0));
        assert_eq!(nearest_rank(&v, 99), Some(99.0));
        assert_eq!(nearest_rank(&v, 100), Some(100.0));
        assert_eq!(nearest_rank(&v, 0), Some(1.0));
        // Rank = ceil(p·n): p50 of 5 samples is the 3rd, p90 the 5th.
        let five = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&five, 50), Some(30.0));
        assert_eq!(nearest_rank(&five, 90), Some(50.0));
        assert_eq!(nearest_rank(&five, 41), Some(30.0));
        assert_eq!(nearest_rank(&[], 50), None);
        assert_eq!(nearest_rank(&[7.0], 99), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 leaves exactly 10 beyond; p91 leaves 9.
        assert_eq!(tail_percentile(&v, 90, TAIL_MIN_BEYOND), Some(90.0));
        assert_eq!(tail_percentile(&v, 91, TAIL_MIN_BEYOND), None);
        assert_eq!(tail_percentile(&v[..99], 90, TAIL_MIN_BEYOND), None);
        // p80 needs 50 samples: rank 40 of 50 leaves 10 beyond.
        assert_eq!(tail_percentile(&v[..50], 80, TAIL_MIN_BEYOND), Some(40.0));
        assert_eq!(tail_percentile(&v[..49], 80, TAIL_MIN_BEYOND), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big, 99, TAIL_MIN_BEYOND), Some(990.0));
        assert_eq!(tail_percentile(&big[..999], 99, TAIL_MIN_BEYOND), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn geomean_of_positive_values() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }
}
