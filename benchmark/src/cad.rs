//! The CAD workloads: the untraced flow that end-to-end numbers time, the
//! traced re-composition of the same flow from public calls that the
//! per-layer numbers come from, and the output checks both share.

use std::time::Instant;

use nemfpga::flow::{evaluate, Evaluation, EvaluationConfig, VariantEvaluation};
use nemfpga::sweep::{tradeoff_sweep, TradeoffCurve, PAPER_DIVISORS};
use nemfpga::{ElectricalModel, FpgaVariant, ModelContext};
use nemfpga_arch::grid::Grid;
use nemfpga_arch::store::shared_rr_graph;
use nemfpga_bench::experiments::{benchmark_suite, scaled};
use nemfpga_netlist::netlist::Netlist;
use nemfpga_netlist::synth::{preset_by_name, SynthConfig};
use nemfpga_pnr::channel::find_min_channel_width;
use nemfpga_pnr::flow::WidthPolicy;
use nemfpga_pnr::pack::pack;
use nemfpga_pnr::place::{check_legal, place};
use nemfpga_pnr::route::{check_routing, route_with_scratch, RouterScratch};
use nemfpga_pnr::timing::analyze_timing;
use nemfpga_power::activity::compute_activities;
use nemfpga_power::breakdown::PowerReport;
use nemfpga_power::dynamic::dynamic_power;
use nemfpga_power::leakage::leakage_power;
use nemfpga_power::usage::{FabricInventory, FabricUsage};
use nemfpga_runtime::mix_seed;
use nemfpga_tech::units::Hertz;

use crate::report::RoundReport;
use crate::trace::Tracer;

/// Netlist scale of both CAD workloads (the `repro` default).
pub const SCALE: f64 = 0.05;

/// The Fig. 9 circuit (`frisc`, as `repro fig9` uses) at `scale`.
pub fn fig9_netlist(scale: f64) -> Result<Netlist, String> {
    let preset = preset_by_name("frisc").ok_or("no frisc preset")?;
    scaled(preset, scale).generate().map_err(|e| e.to_string())
}

/// The MCNC-20 suite at [`SCALE`], cut to the first `limit` circuits.
pub fn fig12_suite(limit: usize) -> Vec<SynthConfig> {
    benchmark_suite(SCALE, limit.min(20))
}

/// The baseline-only variant list of a Fig. 9 evaluation.
pub fn fig9_variants(config: &EvaluationConfig) -> Vec<FpgaVariant> {
    vec![FpgaVariant::cmos_baseline(&config.node)]
}

/// The variant list `tradeoff_sweep` evaluates: baseline plus one
/// CMOS-NEM variant per paper divisor.
pub fn fig12_variants(config: &EvaluationConfig) -> Vec<FpgaVariant> {
    let mut variants = fig9_variants(config);
    variants.extend(PAPER_DIVISORS.iter().map(|&d| FpgaVariant::cmos_nem(d)));
    variants
}

/// Seed of the reference stream of placement seeds: the same in every run.
const REFERENCE_SEED: u64 = 0x9e3779b97f4a7c15;

/// Whether op `op` of `workload` places on the reference stream of seeds,
/// the same in every run. Only these ops count toward `qor_*`, so result
/// quality does not move with `--seed` and any change to it shows
/// exactly.
///
/// Every other Fig. 9 op follows the workload seed, so a change tuned to
/// the reference stream still meets fresh placements. Fig. 12 stays on
/// the reference stream: its op percentiles fall on single circuits,
/// whose sweep time swings by up to 18% with the placement seed, so two
/// seeded passes in eight moved `op_p50_ms` by 5% from seed to seed.
fn is_reference(workload: &CadWorkload, op: u64) -> bool {
    match workload {
        CadWorkload::Fig9 => op.is_multiple_of(2),
        CadWorkload::Fig12 => true,
    }
}

/// W_min, routed wirelength (tiles) and baseline clock frequency (MHz,
/// the inverse of the critical path).
pub fn qor_of(eval: &Evaluation) -> Result<[f64; 3], String> {
    let w_min = eval.w_min.ok_or("evaluation ran no W_min search")?;
    let cpd = eval.variants.first().ok_or("evaluation has no variants")?.critical_path;
    Ok([w_min as f64, eval.wirelength_tiles as f64, 1e-6 / cpd.value()])
}

/// Fig. 9 output check: both fraction arrays lie in [0,1] and sum to 1,
/// and the search never reports a W_min above the operating width.
pub fn check_fig9(eval: &Evaluation) -> Result<(), String> {
    let base = eval.variants.first().ok_or("no baseline variant")?;
    for (what, fractions) in
        [("dynamic", base.power.dynamic.fractions()), ("leakage", base.power.leakage.fractions())]
    {
        let sum: f64 = fractions.iter().sum();
        if fractions.iter().any(|f| !(0.0..=1.0).contains(f)) || (sum - 1.0).abs() > 1e-9 {
            return Err(format!("{what} fractions {fractions:?} are not a distribution"));
        }
    }
    match eval.w_min {
        Some(w) if w <= eval.channel_width => Ok(()),
        w => Err(format!("W_min {w:?} vs operating width {}", eval.channel_width)),
    }
}

/// Fig. 12 output check: one finite, positive point per paper divisor.
pub fn check_fig12(curve: &TradeoffCurve) -> Result<(), String> {
    if curve.points.len() != PAPER_DIVISORS.len() {
        return Err(format!("{} curve has {} points", curve.benchmark, curve.points.len()));
    }
    for p in &curve.points {
        let values = [p.speedup, p.dynamic_reduction, p.leakage_reduction, p.area_reduction];
        if values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
            return Err(format!(
                "{} curve point {p:?} is not finite and positive",
                curve.benchmark
            ));
        }
    }
    Ok(())
}

/// A traced evaluation plus the layer facts its `Evaluation` omits.
struct Traced {
    /// The evaluation, equal to what `evaluate` returns on the same input.
    eval: Evaluation,
    /// Final simulated-annealing cost of the placement.
    place_cost: f64,
    /// Channel widths the W_min search routed.
    wmin_attempts: usize,
}

/// `nemfpga::evaluate` rebuilt from the layers' public calls, each wrapped
/// in a span of `op` under one `flow.op` root. Mirrors the flow for
/// wirelength-driven placement and the low-stress width policy (the paper
/// defaults every workload uses), including `implement`'s +0/2/4/8 width
/// walk-up. `check_legal` and `check_routing` run after the root span
/// closes, so they count toward no layer.
fn traced_evaluate(
    t: &mut Tracer,
    op: u64,
    netlist: Netlist,
    config: &EvaluationConfig,
    variants: &[FpgaVariant],
) -> Result<Traced, String> {
    let WidthPolicy::LowStress { hint, max } = config.width else {
        return Err("the traced flow follows the low-stress width policy only".to_owned());
    };
    let params = &config.params;
    let root = t.open(op, 0, "flow.op");
    let r = root.id();
    let benchmark = netlist.name().to_owned();
    let activities = t
        .time(op, r, "power.activities_ms", || compute_activities(&netlist, config.input_activity))
        .map_err(|e| e.to_string())?;
    let design =
        t.time(op, r, "pnr.pack_ms", || pack(netlist, params)).map_err(|e| e.to_string())?;
    let grid = Grid::for_design(design.num_logic_blocks(), design.num_pads(), params.io_rate)
        .map_err(|e| e.to_string())?;
    let placement = t
        .time(op, r, "pnr.place_ms", || place(&design, grid, &config.place))
        .map_err(|e| e.to_string())?;
    let search = t
        .time(op, r, "pnr.wmin_search_ms", || {
            find_min_channel_width(params, &design, &placement, &config.route, hint, max)
        })
        .map_err(|e| e.to_string())?;
    let (rr, routing) = t.time(op, r, "pnr.route_final_ms", || {
        // Routability is not monotone in W: walk up from 1.2 x W_min, then
        // fall back to the search's own routing, exactly as `implement`.
        let mut scratch = RouterScratch::new();
        for w in [0usize, 2, 4, 8].map(|d| search.low_stress_width() + d) {
            if let Ok(rr) = shared_rr_graph(params, grid, w) {
                if let Ok(routing) =
                    route_with_scratch(&rr, &design, &placement, &config.route, &mut scratch)
                {
                    return Ok((rr, routing));
                }
            }
        }
        shared_rr_graph(params, grid, search.w_min)
            .map(|rr| (rr, search.routing.clone()))
            .map_err(|e| e.to_string())
    })?;
    let (ctx, models) = t.time(op, r, "core.model_build_ms", || {
        let ctx =
            ModelContext::from_rr_graph(config.node.clone(), config.interconnect.clone(), &rr);
        let models: Vec<ElectricalModel> =
            variants.iter().map(|v| ElectricalModel::build(&ctx, v)).collect();
        (ctx, models)
    });
    let critical_paths = t
        .time(op, r, "pnr.sta_ms", || {
            models
                .iter()
                .map(|m| {
                    analyze_timing(&rr, &design, &placement, &routing, &m.timing)
                        .map(|report| report.critical_path)
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| e.to_string())?;
    let clock = config.clock.unwrap_or_else(|| Hertz::new(1.0 / critical_paths[0].value()));
    let evaluations = t.time(op, r, "power.estimate_ms", || {
        let usage = FabricUsage::from_routing(&rr, &design, &routing);
        let lb_tiles = (placement.grid.width * placement.grid.height) as f64;
        models
            .iter()
            .zip(&critical_paths)
            .map(|(model, cp)| {
                let inventory =
                    FabricInventory::from_rr_graph(&rr, model.variant.sram_per_switch());
                VariantEvaluation {
                    variant: model.variant.clone(),
                    critical_path: *cp,
                    power: PowerReport {
                        dynamic: dynamic_power(
                            &usage,
                            &activities,
                            &model.dynamic_costs,
                            ctx.node.vdd,
                            clock,
                        ),
                        leakage: leakage_power(&inventory, &model.leakage_costs),
                    },
                    tile: model.tile,
                    total_area: model.tile.footprint() * lb_tiles,
                }
            })
            .collect::<Vec<_>>()
    });
    t.close(root);

    check_legal(&design, &placement).map_err(|e| e.to_string())?;
    check_routing(&rr, &design, &placement, &routing).map_err(|e| e.to_string())?;
    Ok(Traced {
        eval: Evaluation {
            benchmark,
            w_min: Some(search.w_min),
            channel_width: rr.channel_width,
            grid: (placement.grid.width, placement.grid.height),
            wirelength_tiles: routing.wirelength_tiles,
            clock,
            variants: evaluations,
        },
        place_cost: placement.cost,
        wmin_attempts: search.attempts.len(),
    })
}

/// Runs [`traced_evaluate`] as op `op` and records its per-layer samples:
/// the layer spans, the op's total and unattributed time, and the
/// engine counters' deltas.
pub fn trace_op(
    t: &mut Tracer,
    report: &mut RoundReport,
    op: u64,
    netlist: Netlist,
    config: &EvaluationConfig,
    variants: &[FpgaVariant],
) -> Result<Evaluation, String> {
    let before = engine_counters();
    let traced = traced_evaluate(t, op, netlist, config, variants)?;
    for ((_, metric), (now, then)) in
        ENGINE_COUNTERS.iter().zip(engine_counters().iter().zip(before))
    {
        report.sample(metric, (now - then) as f64);
    }
    sample_layers(report, t, op, &traced);
    Ok(traced.eval)
}

fn sample_layers(report: &mut RoundReport, t: &Tracer, op: u64, traced: &Traced) {
    let op_ms = t.op_total_ms(op, "flow.op");
    let mut attributed = 0.0;
    for name in LAYER_SPANS {
        let ms = t.op_total_ms(op, name);
        attributed += ms;
        report.sample(name, ms);
    }
    report.sample("flow.op_ms", op_ms);
    report.sample("flow.unattributed_ms", (op_ms - attributed).max(0.0));
    report.sample("pnr.place_cost", traced.place_cost);
    report.sample("pnr.wmin_attempts", traced.wmin_attempts as f64);
}

/// The spans [`traced_evaluate`] opens under its root, one per layer call.
const LAYER_SPANS: [&str; 8] = [
    "power.activities_ms",
    "pnr.pack_ms",
    "pnr.place_ms",
    "pnr.wmin_search_ms",
    "pnr.route_final_ms",
    "core.model_build_ms",
    "pnr.sta_ms",
    "power.estimate_ms",
];

/// Engine counters (router effort, graph store) that the per-layer
/// metrics report as per-op deltas, with their metric names.
const ENGINE_COUNTERS: [(&str, &str); 6] = [
    ("route_calls", "pnr.route_calls"),
    ("route_iterations", "pnr.route_iterations"),
    ("route_reroutes", "pnr.route_reroutes"),
    ("route_heap_pushes", "pnr.route_heap_pushes"),
    ("graph_builds", "arch.graph_builds"),
    ("graph_store_hits", "arch.graph_store_hits"),
];

/// Current values of [`ENGINE_COUNTERS`].
fn engine_counters() -> [u64; 6] {
    let registry = nemfpga_obs::engine_registry();
    ENGINE_COUNTERS.map(|(name, _)| registry.counter(name).get())
}

/// What the CAD round measures.
pub enum CadWorkload {
    /// `frisc` at 0.05 on the CMOS baseline, one placement seed per op.
    Fig9,
    /// One MCNC-20 circuit through `tradeoff_sweep` per op.
    Fig12,
}

/// Parameters of one CAD round.
pub struct CadRound {
    /// Which flow.
    pub workload: CadWorkload,
    /// Workload seed.
    pub seed: u64,
    /// Global index of this round's first op (Fig. 12: divided by
    /// `suite_len`, the pass index that seeds the pass's placements).
    pub first_op: u64,
    /// Fig. 9: keep issuing ops until this much time has passed...
    pub window_s: f64,
    /// ...and this round has issued at least this many ops.
    pub min_ops: u64,
    /// Reference ops with a global index below this count toward `qor_*`.
    pub qor_ops: u64,
    /// Circuits per Fig. 12 pass.
    pub suite_len: usize,
    /// Run the traced composition in place of the timed flow.
    pub trace: bool,
}

/// Runs one CAD round: set-up (inputs generated, warm-up ops), the
/// `ready` signal, then the timed ops.
pub fn run_round(spec: &CadRound, ready: impl FnOnce(), t: &mut Tracer) -> RoundReport {
    let mut report = RoundReport::default();
    if let Err(e) = run_round_inner(spec, ready, t, &mut report) {
        report.fail(e);
    }
    report.rss_mb = crate::report::peak_rss_mb();
    report
}

fn run_round_inner(
    spec: &CadRound,
    ready: impl FnOnce(),
    t: &mut Tracer,
    report: &mut RoundReport,
) -> Result<(), String> {
    // Set-up generates every input, so ops time only the flow itself.
    let mut generate = |make: &dyn Fn() -> Result<Netlist, String>| {
        let started = Instant::now();
        let netlist = make()?;
        if spec.trace {
            report.sample("netlist.generate_ms", started.elapsed().as_secs_f64() * 1e3);
        }
        Ok::<_, String>(netlist)
    };
    let netlists: Vec<Netlist> = match spec.workload {
        CadWorkload::Fig9 => vec![generate(&|| fig9_netlist(SCALE))?],
        CadWorkload::Fig12 => fig12_suite(spec.suite_len)
            .iter()
            .map(|b| generate(&|| b.generate().map_err(|e| e.to_string())))
            .collect::<Result<_, _>>()?,
    };
    match spec.workload {
        // Two warm-up evaluations on fixed seeds, so every round sets up
        // the same work.
        CadWorkload::Fig9 => {
            for seed in 1..=2 {
                let config = EvaluationConfig::paper_defaults(seed);
                evaluate(netlists[0].clone(), &config, &fig9_variants(&config))
                    .map_err(|e| e.to_string())?;
            }
        }
        // Each pass is cold, as one `repro fig12` process is: the warm-up
        // sweep uses another segment length, so it shares no routing graph
        // with the pass and only pays first-touch costs.
        CadWorkload::Fig12 => {
            let mut config = EvaluationConfig::paper_defaults(1);
            config.params.segment_length = 1;
            let netlist =
                SynthConfig::tiny("warmup", 30, 1).generate().map_err(|e| e.to_string())?;
            tradeoff_sweep(netlist, &config, &PAPER_DIVISORS).map_err(|e| e.to_string())?;
        }
    }
    ready();

    let window_start = Instant::now();
    for issued in 0u64.. {
        let op = spec.first_op + issued;
        let (netlist, seed_index) = match spec.workload {
            CadWorkload::Fig9 => {
                if window_start.elapsed().as_secs_f64() >= spec.window_s && issued >= spec.min_ops {
                    break;
                }
                (&netlists[0], op)
            }
            // One placement seed per pass, as `repro fig12 --seed` uses.
            CadWorkload::Fig12 => match netlists.get(issued as usize) {
                Some(netlist) => (netlist, spec.first_op / spec.suite_len as u64),
                None => break,
            },
        };
        let reference = is_reference(&spec.workload, op);
        let stream = if reference { REFERENCE_SEED } else { spec.seed };
        let config = EvaluationConfig::paper_defaults(mix_seed(stream, seed_index));
        report.attempted += 1;
        let outcome = if spec.trace {
            traced_op(spec, op, netlist, &config, t, report)
        } else {
            timed_op(spec, netlist, &config, reference && op < spec.qor_ops, report)
        };
        if let Err(e) = outcome {
            report.fail(format!("op {op}: {e}"));
        }
    }
    report.window_s = window_start.elapsed().as_secs_f64();
    Ok(())
}

/// The library's own flow for one op: `evaluate`, or `tradeoff_sweep`
/// whose curve comes back for the output check.
fn library_flow(
    workload: &CadWorkload,
    netlist: Netlist,
    config: &EvaluationConfig,
) -> Result<(Evaluation, Option<TradeoffCurve>), String> {
    match workload {
        CadWorkload::Fig9 => evaluate(netlist, config, &fig9_variants(config)).map(|e| (e, None)),
        CadWorkload::Fig12 => {
            tradeoff_sweep(netlist, config, &PAPER_DIVISORS).map(|(c, e)| (e, Some(c)))
        }
    }
    .map_err(|e| e.to_string())
}

/// Output checks of one op's [`library_flow`].
fn check_op(eval: &Evaluation, curve: Option<&TradeoffCurve>) -> Result<(), String> {
    match curve {
        None => check_fig9(eval),
        Some(curve) => check_fig12(curve),
    }
}

/// The op the end-to-end numbers time, with its output checked untimed;
/// `qor` adds its result quality to `qor_*`.
fn timed_op(
    spec: &CadRound,
    netlist: &Netlist,
    config: &EvaluationConfig,
    qor: bool,
    report: &mut RoundReport,
) -> Result<(), String> {
    let netlist = netlist.clone();
    let started = Instant::now();
    let outcome = library_flow(&spec.workload, netlist, config);
    report.ops_ms.push(started.elapsed().as_secs_f64() * 1e3);
    let (eval, curve) = outcome?;
    check_op(&eval, curve.as_ref())?;
    if qor {
        report.qor.push(qor_of(&eval)?);
    }
    Ok(())
}

/// A traced round's op: the traced composition first, in the state an
/// untraced op would meet, then the library flow on the same input,
/// untimed, for the output checks and the drift check. Spans carry
/// `op + 1`, so span op 0 never names a real op.
fn traced_op(
    spec: &CadRound,
    op: u64,
    netlist: &Netlist,
    config: &EvaluationConfig,
    t: &mut Tracer,
    report: &mut RoundReport,
) -> Result<(), String> {
    let variants = match spec.workload {
        CadWorkload::Fig9 => fig9_variants(config),
        CadWorkload::Fig12 => fig12_variants(config),
    };
    let traced = trace_op(t, report, op + 1, netlist.clone(), config, &variants)?;
    report.traced_ops_ms.push(t.op_total_ms(op + 1, "flow.op"));
    let (eval, curve) = library_flow(&spec.workload, netlist.clone(), config)?;
    check_op(&eval, curve.as_ref())?;
    if traced != eval {
        return Err("traced composition drifted from the library flow".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_matches_evaluate(
        netlist: Netlist,
        config: &EvaluationConfig,
        variants: &[FpgaVariant],
    ) {
        let (mut t, mut report) = (Tracer::new(0), RoundReport::default());
        let traced = trace_op(&mut t, &mut report, 1, netlist.clone(), config, variants).unwrap();
        assert_eq!(traced, evaluate(netlist, config, variants).unwrap());
        let op_ms = report.samples["flow.op_ms"][0];
        let unattributed = report.samples["flow.unattributed_ms"][0];
        assert!(op_ms > 0.0 && unattributed <= 0.05 * op_ms, "{unattributed} of {op_ms} ms");
    }

    #[test]
    fn traced_composition_equals_evaluate_on_a_small_netlist() {
        let netlist = SynthConfig::tiny("small", 60, 3).generate().unwrap();
        let config = EvaluationConfig::paper_defaults(3);
        traced_matches_evaluate(netlist, &config, &fig12_variants(&config));
    }

    #[test]
    fn traced_composition_equals_evaluate_on_frisc() {
        let config = EvaluationConfig::paper_defaults(mix_seed(11, 0));
        traced_matches_evaluate(fig9_netlist(SCALE).unwrap(), &config, &fig9_variants(&config));
    }

    #[test]
    fn fig9_check_rejects_a_broken_distribution() {
        let config = EvaluationConfig::paper_defaults(5);
        let netlist = SynthConfig::tiny("t", 40, 5).generate().unwrap();
        let mut eval = evaluate(netlist, &config, &fig9_variants(&config)).unwrap();
        check_fig9(&eval).unwrap();
        eval.w_min = Some(eval.channel_width + 1);
        assert!(check_fig9(&eval).is_err());
    }
}
