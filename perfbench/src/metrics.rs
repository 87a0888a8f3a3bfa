//! Metric definitions and the statistics that produce them.
//!
//! The tables here are the single source of the names, units and
//! directions the benchmark prints; the self-test checks them against
//! `BENCHMARK.json`, and `--describe` prints the per-layer table with
//! the end-to-end metric each layer should move and where it is heavy.

use crate::trace::{Counts, SOLVERS};
use std::collections::BTreeMap;
use std::time::Duration;

/// One printed metric's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Def {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The end-to-end metric(s) a change in this layer should move.
    pub moves: &'static str,
    /// Workload where the layer does most work.
    pub heavy_in: &'static str,
    /// Workload(s) where it does little.
    pub light_in: &'static str,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    heavy_in: &'static str,
    light_in: &'static str,
) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        moves,
        heavy_in,
        light_in,
    }
}

/// The end-to-end metrics, printed by untraced runs (`--trace 0`).
pub fn end_to_end() -> Vec<Def> {
    let e = |name: &str, unit, better| def(name, unit, better, "", "", "");
    vec![
        e("throughput_rps", "req/s", "higher"),
        e("latency_p50_ms", "ms", "lower"),
        e("latency_tail_ms", "ms", "lower"),
        e("success_rate", "share", "higher"),
        e("makespan_over_lp", "ratio", "lower"),
        e("peak_rss_mb", "MB", "lower"),
        e("setup_s", "s", "lower"),
    ]
}

/// The per-layer metrics, printed by traced runs (`--trace 1`).
pub fn per_layer() -> Vec<Def> {
    const SETUP: &str = "setup_s";
    let mut out = vec![
        def("cli.json.ms", "ms", "lower", SETUP, "redundant", "sweep"),
        def(
            "cli.json.bytes",
            "bytes",
            "lower",
            SETUP,
            "redundant",
            "sweep",
        ),
        def("cli.spec.ms", "ms", "lower", SETUP, "redundant", "sweep"),
        def(
            "core.fingerprint.ms",
            "ms",
            "lower",
            SETUP,
            "redundant",
            "sweep",
        ),
        def(
            "core.fingerprint.calls",
            "count",
            "lower",
            SETUP,
            "redundant",
            "sweep",
        ),
        def(
            "engine.prep.ms",
            "ms",
            "lower",
            "setup_s,throughput_rps",
            "redundant",
            "fanout",
        ),
        def(
            "engine.prep.hit_ratio",
            "ratio",
            "higher",
            "setup_s,throughput_rps",
            "redundant",
            "fanout",
        ),
        def(
            "engine.prep.artifact_reuse_ratio",
            "ratio",
            "higher",
            "setup_s,throughput_rps",
            "redundant",
            "fanout",
        ),
        def("engine.admission.ms", "ms", "lower", SETUP, "all", "all"),
        def(
            "engine.admission.diagnostics",
            "count",
            "lower",
            SETUP,
            "all",
            "all",
        ),
        def(
            "engine.reuse.ms",
            "ms",
            "lower",
            "throughput_rps",
            "redundant",
            "fanout,sweep",
        ),
        def(
            "engine.reuse.hit_ratio",
            "ratio",
            "higher",
            "throughput_rps",
            "redundant",
            "fanout,sweep",
        ),
        def(
            "engine.reuse.pivots_saved",
            "count",
            "higher",
            "throughput_rps",
            "redundant",
            "fanout,sweep",
        ),
    ];
    for (name, _) in SOLVERS {
        let lat = "latency_p50_ms,latency_tail_ms";
        out.push(def(
            format!("engine.solver.{name}.ms"),
            "ms",
            "lower",
            lat,
            "fanout",
            "redundant",
        ));
        out.push(def(
            format!("engine.solver.{name}.work"),
            "count",
            "lower",
            lat,
            "fanout",
            "redundant",
        ));
    }
    let lp = "latency_tail_ms,throughput_rps";
    // the stall cases are timed on their own: the corpora skip them
    const STALLED: &str = "none (cases skipped by every corpus)";
    out.extend([
        def(
            "core.lp_build.ms",
            "ms",
            "lower",
            "throughput_rps",
            "sweep",
            "redundant",
        ),
        def(
            "core.lp_build.rows",
            "count",
            "lower",
            "throughput_rps",
            "sweep",
            "redundant",
        ),
        def(
            "core.lp_build.cols",
            "count",
            "lower",
            "throughput_rps",
            "sweep",
            "redundant",
        ),
        def("lp.simplex.ms", "ms", "lower", lp, "sweep", "redundant"),
        def(
            "lp.simplex.pivots",
            "count",
            "lower",
            lp,
            "sweep",
            "redundant",
        ),
        def(
            "lp.simplex.phase1_pivots",
            "count",
            "lower",
            lp,
            "sweep",
            "redundant",
        ),
        def(
            "lp.simplex.refactorizations",
            "count",
            "lower",
            lp,
            "sweep",
            "redundant",
        ),
        def(
            "lp.simplex.bound_flips",
            "count",
            "lower",
            lp,
            "sweep",
            "redundant",
        ),
        def(
            "lp.simplex.us_per_pivot",
            "us",
            "lower",
            lp,
            "sweep",
            "redundant",
        ),
        def(
            "lp.stalled_chain.ms",
            "ms",
            "lower",
            STALLED,
            "sweep",
            "fanout,redundant",
        ),
        def(
            "lp.stalled_chain.pivots",
            "count",
            "lower",
            STALLED,
            "sweep",
            "fanout,redundant",
        ),
        def(
            "core.rounding.ms",
            "ms",
            "lower",
            "latency_p50_ms",
            "fanout",
            "sweep",
        ),
        def(
            "core.sp_dp.ms",
            "ms",
            "lower",
            "latency_p50_ms",
            "fanout",
            "sweep",
        ),
        def(
            "core.sp_dp.cells",
            "count",
            "lower",
            "latency_p50_ms",
            "fanout",
            "sweep",
        ),
        def(
            "core.sp_dp.merge_steps",
            "count",
            "lower",
            "latency_p50_ms",
            "fanout",
            "sweep",
        ),
        def(
            "engine.curve.ms",
            "ms",
            "lower",
            "throughput_rps",
            "sweep",
            "fanout",
        ),
        def(
            "engine.curve.points",
            "count",
            "lower",
            "throughput_rps",
            "sweep",
            "fanout",
        ),
        def(
            "engine.certify.ms",
            "ms",
            "lower",
            "throughput_rps",
            "redundant",
            "sweep",
        ),
        def(
            "engine.certify.expanded_nodes",
            "count",
            "lower",
            "throughput_rps",
            "redundant",
            "sweep",
        ),
        def(
            "sim.replay.ms",
            "ms",
            "lower",
            "throughput_rps",
            "redundant",
            "sweep",
        ),
        def(
            "sim.replay.events",
            "count",
            "lower",
            "throughput_rps",
            "redundant",
            "sweep",
        ),
        def(
            "cli.render.ms",
            "ms",
            "lower",
            "throughput_rps",
            "redundant",
            "sweep",
        ),
        def(
            "cli.render.bytes",
            "bytes",
            "lower",
            "throughput_rps",
            "redundant",
            "sweep",
        ),
        def("trace.coverage", "ratio", "higher", "none", "all", "all"),
        def(
            "trace.overhead_ratio",
            "ratio",
            "lower",
            "none",
            "all",
            "all",
        ),
    ]);
    out
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of a fixed ladder with at least ten samples
/// beyond it among `n`. Callers take it over one round's latencies and
/// pass the number of *distinct* requests in a round: each request
/// appears once per round, so ten samples beyond are ten different
/// requests, and the percentile stays the same in every run of a
/// workload whatever its round count.
pub fn tail_percentile(n: usize) -> f64 {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    LADDER
        .into_iter()
        .find(|p| (n as f64 * (1.0 - p / 100.0)).floor() >= 10.0)
        .unwrap_or(50.0)
}

/// Resets this process's peak resident set size (`VmHWM`) to its
/// current resident set size, so [`peak_rss_mb`] reports the peak from
/// here on. Where the kernel refuses, the peak stays the whole
/// process's.
pub fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("rtt-perfbench: cannot reset the peak RSS: {e}");
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One traced pass's figures.
pub struct TracedRound {
    /// Self time per span name, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Work counts.
    pub counts: Counts,
    /// Wall of the whole traced pass.
    pub wall: Duration,
}

/// Per-layer values from traced passes, the untraced single-client
/// passes they are compared against, and the stalled-chain probes
/// (wall, warm-point pivots). Times are medians over passes; counts
/// come from the first pass (a single client makes them deterministic).
pub fn per_layer_values(
    traced: &[TracedRound],
    untraced_walls: &[f64],
    stalled: &[(Duration, u64)],
) -> Vec<(String, f64)> {
    let ms = |span: &str| -> f64 {
        let per: Vec<f64> = traced
            .iter()
            .map(|t| t.self_ns.get(span).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        median(&per)
    };
    let c = &traced[0].counts;
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let simplex_ms = ms("lp.simplex");
    let coverage: Vec<f64> = traced
        .iter()
        .map(|t| {
            let layers: u64 = t
                .self_ns
                .iter()
                .filter(|(name, _)| !crate::trace::ROOTS.contains(name))
                .map(|(_, ns)| *ns)
                .sum();
            layers as f64 / t.wall.as_nanos().max(1) as f64
        })
        .collect();
    let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall.as_secs_f64()).collect();
    let mut v: Vec<(String, f64)> = vec![
        ("cli.json.ms".into(), ms("cli.json")),
        ("cli.json.bytes".into(), c.json_bytes as f64),
        ("cli.spec.ms".into(), ms("cli.spec")),
        ("core.fingerprint.ms".into(), ms("core.fingerprint")),
        ("core.fingerprint.calls".into(), c.fingerprint_calls as f64),
        ("engine.prep.ms".into(), ms("engine.prep")),
        ("engine.prep.hit_ratio".into(), c.prep_hit_ratio),
        (
            "engine.prep.artifact_reuse_ratio".into(),
            c.prep_artifact_reuse_ratio,
        ),
        ("engine.admission.ms".into(), ms("engine.admission")),
        ("engine.admission.diagnostics".into(), c.diagnostics as f64),
        ("engine.reuse.ms".into(), ms("engine.reuse")),
        (
            "engine.reuse.hit_ratio".into(),
            ratio(c.reuse_hits, c.reuse_misses),
        ),
        ("engine.reuse.pivots_saved".into(), c.pivots_saved as f64),
    ];
    for (name, span) in SOLVERS {
        v.push((format!("engine.solver.{name}.ms"), ms(span)));
        let work = c.solver_work.get(span).copied().unwrap_or(0);
        v.push((format!("engine.solver.{name}.work"), work as f64));
    }
    v.extend([
        ("core.lp_build.ms".into(), ms("core.lp_build")),
        ("core.lp_build.rows".into(), c.lp_rows as f64),
        ("core.lp_build.cols".into(), c.lp_cols as f64),
        ("lp.simplex.ms".into(), simplex_ms),
        ("lp.simplex.pivots".into(), c.pivots as f64),
        ("lp.simplex.phase1_pivots".into(), c.phase1_pivots as f64),
        (
            "lp.simplex.refactorizations".into(),
            c.refactorizations as f64,
        ),
        ("lp.simplex.bound_flips".into(), c.bound_flips as f64),
        (
            "lp.simplex.us_per_pivot".into(),
            if c.pivots == 0 {
                0.0
            } else {
                simplex_ms * 1e3 / c.pivots as f64
            },
        ),
        (
            "lp.stalled_chain.ms".into(),
            median(
                &stalled
                    .iter()
                    .map(|(d, _)| d.as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "lp.stalled_chain.pivots".into(),
            stalled.first().map_or(0.0, |(_, p)| *p as f64),
        ),
        ("core.rounding.ms".into(), ms("core.rounding")),
        ("core.sp_dp.ms".into(), ms("core.sp_dp")),
        ("core.sp_dp.cells".into(), c.sp_cells as f64),
        ("core.sp_dp.merge_steps".into(), c.sp_merge_steps as f64),
        ("engine.curve.ms".into(), ms("engine.curve")),
        ("engine.curve.points".into(), c.curve_points as f64),
        ("engine.certify.ms".into(), ms("engine.certify")),
        (
            "engine.certify.expanded_nodes".into(),
            c.expanded_nodes as f64,
        ),
        ("sim.replay.ms".into(), ms("sim.replay")),
        ("sim.replay.events".into(), c.sim_events as f64),
        ("cli.render.ms".into(), ms("cli.render")),
        ("cli.render.bytes".into(), c.render_bytes as f64),
        ("trace.coverage".into(), median(&coverage)),
        (
            "trace.overhead_ratio".into(),
            median(&traced_walls) / median(untraced_walls).max(f64::MIN_POSITIVE),
        ),
    ]);
    v
}

/// Renders the result line: `correct`, `attempted`, `failed` and every
/// metric with its unit, in `defs` order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[Def],
    values: &[(String, f64)],
) -> String {
    let body: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .map_or(f64::NAN, |(_, v)| *v);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", d.name, d.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}
