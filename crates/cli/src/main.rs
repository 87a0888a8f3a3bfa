//! `rtt` — solve resource-time tradeoff instances from the shell.
//!
//! Solver dispatch is registry-driven: `solve`, `min-resource`, and
//! `batch` all resolve `--solver` through [`rtt_engine::Registry`], so
//! the CLI has no per-algorithm match of its own and new solvers appear
//! here the moment they are registered.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtt_analyze::lint::Severity;
use rtt_cli::args::{parse_args, Args};
use rtt_cli::InstanceSpec;
use rtt_core::regimes::compare_regimes;
use rtt_core::{routing_plan, validate, ArcInstance};
use rtt_dag::gen;
use rtt_duration::Duration;
use rtt_engine::{
    execute_one, run_batch_cached, Objective, PrepCache, PreparedInstance, Registry, SolveReport,
    SolveRequest, SolverSelection, Status,
};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "\
rtt — the discrete resource-time tradeoff with resource reuse over paths

USAGE:
  rtt gen --kind <race|layered|sp|chain> [--nodes N] [--seed S] [--family <recbinary|kway>]
  rtt gen --kind race-mm [--n N] [--family F]
  rtt gen --kind race-forkjoin [--seed S] [--stages K] [--width W] [--contention C] [--family F]
  rtt info <instance.json>
  rtt solve <instance.json> --budget B [--solver <name>] [--alpha A] [--plan]
  rtt min-resource <instance.json> --target T [--solver <name>] [--alpha A]
  rtt curve <instance.json> --budgets a:b:step|a,b,c [--alpha A] [--out PATH]
  rtt batch <corpus.ndjson> [--threads N] [--solver all|<name>] [--out PATH]
            [--reuse-cache] [--cache-capacity N] [--cache-save PATH] [--cache-load PATH]
  rtt lint <corpus.ndjson|instance.json> [--format human|ndjson]
  rtt analyze race --kind race-mm [--n N]
  rtt analyze race --kind race-forkjoin [--seed S] [--stages K] [--width W] [--contention C]
  rtt solvers
  rtt regimes <instance.json> --budget B
  rtt dot <instance.json>

`rtt solvers` lists the registry (plus aliases `improved`, `sp`) with
each solver's certified output: the solution form its reports carry
(routed / noreuse / schedule) and the simulation certificate every
solved report ships (`sim_makespan`).
Instances are JSON (see rtt-cli docs); batch corpora are NDJSON, one
request per line (see the rtt_cli::batch docs). `gen` writes an
instance to stdout.

`--reuse-cache` turns on the cross-request solution cache: duplicate
and relabeled requests (single solves and sweep lines alike) replay
the first request's certified reports instead of re-solving. Caches
change cost, never bytes — batch stdout is byte-identical with the
cache on or off, at any thread count and any `--cache-capacity` (the
LRU bound, default 1024, shared with the always-on preprocessing
cache). Cache statistics go to stderr. `--cache-save PATH` spills the
solution tier to a `rtt-cache-v1` file after the batch; `--cache-load
PATH` pre-populates it before the batch (both imply --reuse-cache).
Loaded entries are untrusted until served: full key comparison plus
fresh analytic + simulation re-certification, and a corrupt or
version-mismatched file fails the command without loading anything
(see the rtt_cli::batch docs).

Batch `--threads` (inter-request workers) defaults to the host's
available parallelism clamped to [1, 8]. It is a cost knob only:
output is byte-identical at every setting, and worker counts print to
stderr, never to the wire.

Resource budgets are per line: a corpus line's `max_*` and
`on_exhaustion` fields (see the rtt_cli::batch docs).
Setting RTT_FAULT_SOLVERS=1 additionally registers the fault-injection
fixtures (fixture-panic, fixture-exhaust) for exercising the
executor's panic isolation and budget enforcement; they only run when
a line names them.

The race-* kinds derive instances from actual racy programs: `race-mm`
is the Figure 3 Parallel-MM with the k-loop parallelized (n updates
race on every output cell), `race-forkjoin` a seeded random fork-join
program. Both flow through solve/batch/curve unchanged.

`rtt lint` is the no-solve static checker: it reports every
diagnosable line of a corpus (or a standalone instance file) as
compiler-style RTT0xx diagnostics and exits nonzero iff an error was
found. `rtt batch` admits requests through the same per-line checker,
so errors are exactly the lines it would reject; warnings are
admitted-but-vacuous fields (see the rtt_cli::batch docs under
\"Diagnostics\" for the code table and the NDJSON shape). A corpus
with an error line fails `rtt batch` before any request runs.

`rtt analyze race` runs the static race analyzer on a generated racy
program: per-strand access footprints intersected under the
English-Hebrew may-happen-in-parallel relation, reporting
interval-compressed racing summaries without materializing
per-location access lists.";

/// The one stdout writer: every command's output goes through it. A
/// reader that closes the pipe early (`rtt gen … | head -c 1`) has taken
/// all it wants, so the command ends there, with exit 0 and nothing on
/// stderr; any other write error fails the command.
fn emit(text: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        written => written.map_err(|e| format!("writing stdout: {e}")),
    }
}

/// `println!` through [`emit`], returning its error from the caller.
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(&format!("{}\n", format_args!($($arg)*)))?
    };
}

fn load(path: &str) -> Result<ArcInstance, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let spec = InstanceSpec::from_json_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    spec.build().map_err(|e| format!("building {path}: {e}"))
}

fn instance_path(args: &Args) -> Result<String, String> {
    Ok(args
        .positional
        .get(1)
        .ok_or("missing instance path")?
        .clone())
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    args.accept_only(
        &[
            "kind",
            "nodes",
            "seed",
            "family",
            "n",
            "stages",
            "width",
            "contention",
        ],
        &[],
    )?;
    let kind: String = args.require("kind")?;
    let nodes: usize = args.flag("nodes")?.unwrap_or(8);
    let seed: u64 = args.flag("seed")?.unwrap_or(42);
    let family: rtt_core::ReducerFamily = args
        .flag::<String>("family")?
        .unwrap_or_else(|| "recbinary".into())
        .parse()?;
    // a flag another gen kind uses but this kind ignores must fail
    // loudly, not silently produce a default-sized instance
    let reject = |flag: &str, hint: &str| -> Result<(), String> {
        if args.flags.contains_key(flag) || args.switch(flag) {
            Err(format!("--{flag} does not apply to --kind {kind}; {hint}"))
        } else {
            Ok(())
        }
    };
    // the race-* kinds go program → race DAG → instance (the paper's
    // §1 pipeline); the remaining kinds synthesize bare DAGs
    match kind.as_str() {
        "race-mm" => {
            reject("nodes", "the size is --n (the matrix dimension)")?;
            reject("seed", "the Figure 3 program is deterministic")?;
            let n: u64 = args.flag("n")?.unwrap_or(4);
            let spec = rtt_cli::race_mm_spec(n, family).map_err(|e| e.to_string())?;
            outln!("{}", spec.to_json_string());
            return Ok(());
        }
        "race-forkjoin" => {
            reject("nodes", "the size is --stages and --width")?;
            let stages: usize = args.flag("stages")?.unwrap_or(3);
            let width: usize = args.flag("width")?.unwrap_or(4);
            let contention: usize = args.flag("contention")?.unwrap_or(8);
            let spec = rtt_cli::race_forkjoin_spec(seed, stages, width, contention, family)
                .map_err(|e| e.to_string())?;
            outln!("{}", spec.to_json_string());
            return Ok(());
        }
        _ => {}
    }
    let fam: fn(u64) -> Duration = match family {
        rtt_core::ReducerFamily::RecursiveBinary => Duration::recursive_binary,
        rtt_core::ReducerFamily::KWay => Duration::kway,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let tt = match kind.as_str() {
        "race" | "layered" | "sp" | "chain" if nodes == 0 => {
            return Err(format!("invalid instance: {kind} needs --nodes ≥ 1"))
        }
        "race" => gen::random_race_dag(&mut rng, nodes, nodes),
        "layered" => gen::layered(&mut rng, 4, nodes.div_ceil(4), 0.4),
        "sp" => gen::random_sp(&mut rng, nodes).tt,
        "chain" => gen::chain(nodes),
        other => return Err(format!("unknown kind {other}")),
    };
    // duplicate edges to create real contention, then attach durations
    let inst = rtt_core::Instance::race_dag(&tt.dag, fam)
        .map_err(|e| format!("generated graph rejected: {e}"))?;
    let (arc, _) = rtt_core::to_arc_form(&inst);
    let spec = InstanceSpec::from_arc(&arc);
    outln!("{}", spec.to_json_string());
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    args.accept_only(&[], &[])?;
    let arc = load(&instance_path(args)?)?;
    let d = arc.dag();
    outln!("nodes:            {}", d.node_count());
    outln!("arcs:             {}", d.edge_count());
    outln!("improvable jobs:  {}", arc.improvable_edges().len());
    outln!("base makespan:    {}", arc.base_makespan());
    outln!("ideal makespan:   {}", arc.ideal_makespan());
    outln!("saturation budget:{}", arc.saturation_budget());
    match arc.dominant_kind() {
        Some(k) => outln!("duration family:  {k:?}"),
        None => outln!("duration family:  mixed"),
    }
    Ok(())
}

/// The engine's request-level admission lint on a single-request
/// command (`--alpha` range, empty grid): the first error aborts the
/// command with its message, as it would reject a batch line.
fn admit(registry: &Registry, req: &SolveRequest) -> Result<(), String> {
    match rtt_engine::lint_request(registry, req, 1, 1)
        .into_iter()
        .find(|d| d.severity == Severity::Error)
    {
        Some(d) => Err(d.message),
        None => Ok(()),
    }
}

/// Runs one registry solver on one instance and prints the report — the
/// single dispatch path behind `solve` and `min-resource`.
fn solve_via_registry(
    args: &Args,
    arc: ArcInstance,
    objective: Objective,
    solver_name: &str,
) -> Result<SolveReport, String> {
    let registry = Registry::standard();
    if registry.resolve(solver_name).is_none() {
        return Err(format!(
            "unknown solver {solver_name}; available: {} (aliases: improved, sp)",
            registry.names().join(", ")
        ));
    }
    let req = SolveRequest {
        id: "cli".into(),
        prepared: Arc::new(PreparedInstance::new(arc)),
        objective,
        alpha: args.flag("alpha")?.unwrap_or(0.5),
        solver: SolverSelection::Named(solver_name.to_string()),
        deadline: None,
        seed: 0,
        budget: None,
        intra_threads: None,
    };
    admit(&registry, &req)?;
    let mut reports = execute_one(&registry, &req, Instant::now());
    let report = reports.pop().expect("named selection yields one report");
    match report.status {
        Status::Solved => Ok(report),
        Status::Unsupported => Err(format!("solver {solver_name}: {}", report.detail)),
        // only a genuinely unreachable objective gets the
        // "target unreachable" framing — usage errors stay usage errors
        Status::Infeasible => Err(format!("target unreachable: {}", report.detail)),
        Status::DeadlineExpired => Err("deadline expired".into()),
        // the detail already reads "budget exhausted: <dim> …"
        Status::BudgetExhausted => Err(report.detail),
        Status::Failed => Err(format!("solver {solver_name} failed: {}", report.detail)),
    }
}

fn cmd_solve(args: &Args) -> Result<(), String> {
    args.accept_only(&["budget", "solver", "alpha"], &["plan"])?;
    let arc = load(&instance_path(args)?)?;
    let budget: u64 = args.require("budget")?;
    let solver: String = args.flag("solver")?.unwrap_or_else(|| "bicriteria".into());
    let report = solve_via_registry(
        args,
        arc.clone(),
        Objective::MinMakespan { budget },
        &solver,
    )?;
    if let Some(lp) = report.lp_makespan {
        outln!("LP lower bound:   {lp:.3}");
    }
    let makespan = report.makespan.expect("solved report has a makespan");
    outln!("makespan:         {makespan}");
    outln!("budget used:      {}", report.budget_used.expect("solved"));
    if let Some(sim) = &report.sim {
        outln!(
            "simulated:        {} ≤ {} (Observation 1.1 certificate, {} updates)",
            sim.simulated,
            sim.bound,
            sim.expanded_updates
        );
    }
    if args.switch("plan") {
        match &report.solution {
            Some(sol) => {
                validate(&arc, sol).map_err(|e| format!("internal: invalid solution: {e}"))?;
                let plan = routing_plan(&arc, sol).map_err(|e| e.to_string())?;
                outln!("{}", plan.render(&arc));
            }
            None => outln!("(solver {solver} reports no routed flow to plan)"),
        }
    }
    Ok(())
}

fn cmd_min_resource(args: &Args) -> Result<(), String> {
    args.accept_only(&["target", "solver", "alpha"], &[])?;
    let arc = load(&instance_path(args)?)?;
    let target: u64 = args.require("target")?;
    let solver: String = args.flag("solver")?.unwrap_or_else(|| "bicriteria".into());
    let report = solve_via_registry(args, arc, Objective::MinResource { target }, &solver)?;
    if let Some(lp) = report.lp_budget {
        outln!("LP lower bound:   {lp:.3} units");
    }
    outln!(
        "budget needed:    {} (makespan ≤ {})",
        report.budget_used.expect("solved"),
        target
    );
    // the makespan guarantee is the solver's certificate: exact solvers
    // meet the target itself, bi-criteria ones overshoot by their factor
    let guarantee = match report.makespan_factor {
        Some(f) if f > 1.0 => format!(" (guarantee: ≤ {:.1} = {:.4}·target)", f * target as f64, f),
        Some(_) => " (meets the target exactly)".to_string(),
        None => String::new(),
    };
    outln!(
        "achieved makespan:{}{guarantee}",
        report.makespan.expect("solved")
    );
    Ok(())
}

/// `rtt curve`: the resource-time tradeoff curve over a budget grid,
/// solved as one warm-started LP chain and emitted as NDJSON (one point
/// per line, grid order — see `rtt_cli::batch::curve_line` for the wire
/// format). Timing stays on stderr, like `rtt batch`.
fn cmd_curve(args: &Args) -> Result<(), String> {
    args.accept_only(&["budgets", "alpha", "out"], &[])?;
    let arc = load(&instance_path(args)?)?;
    let budgets = rtt_cli::args::parse_budgets(&args.require::<String>("budgets")?)?;
    let registry = Registry::standard();
    let mut req = SolveRequest::sweep(
        "curve",
        Arc::new(PreparedInstance::new(arc)),
        budgets.clone(),
    );
    req.alpha = args.flag("alpha")?.unwrap_or(0.5);
    admit(&registry, &req)?;
    let started = Instant::now();
    let reports = execute_one(&registry, &req, Instant::now());
    let wall = started.elapsed();
    // a whole-curve failure yields one non-solved report; check status,
    // not count, so a one-point grid fails the same way as a long one
    if let Some(bad) = reports.iter().find(|r| r.status != Status::Solved) {
        return Err(format!("curve failed: {}", bad.detail));
    }
    debug_assert_eq!(reports.len(), budgets.len(), "one solved report per budget");
    let mut rendered = String::new();
    for (b, report) in budgets.iter().zip(&reports) {
        rendered.push_str(&rtt_cli::batch::curve_line(*b, report));
        rendered.push('\n');
    }
    match args.flag::<String>("out")? {
        Some(dest) => {
            std::fs::write(&dest, &rendered).map_err(|e| format!("writing {dest}: {e}"))?
        }
        None => emit(&rendered)?,
    }
    let pivots: u64 = reports.iter().map(|r| r.work).sum();
    eprintln!(
        "curve: {} points in {:.1} ms ({} simplex pivots; {} on the cold first point)",
        budgets.len(),
        wall.as_secs_f64() * 1e3,
        pivots,
        reports.first().map_or(0, |r| r.work),
    );
    Ok(())
}

/// The registry `rtt batch` and `rtt lint` judge a corpus against: the
/// standard one, plus the fault-injection fixtures (`fixture-panic`,
/// `fixture-exhaust`) when `RTT_FAULT_SOLVERS=1`. The fixtures decline
/// supports(), so even when registered they never join the `all`
/// fan-out — a corpus line must name them.
fn corpus_registry() -> Registry {
    let mut registry = Registry::standard();
    if std::env::var("RTT_FAULT_SOLVERS").as_deref() == Ok("1") {
        registry.register(Box::new(rtt_engine::fixtures::AlwaysPanicSolver));
        registry.register(Box::new(rtt_engine::fixtures::AlwaysExhaustSolver));
    }
    registry
}

fn cmd_batch(args: &Args) -> Result<(), String> {
    args.accept_only(
        &[
            "threads",
            "solver",
            "out",
            "cache-capacity",
            "cache-save",
            "cache-load",
        ],
        &["reuse-cache"],
    )?;
    let path = args
        .positional
        .get(1)
        .ok_or("missing corpus path (NDJSON, one request per line)")?;
    let corpus = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    // default batch width: the host's available parallelism, clamped to
    // [1, 8] — enough to saturate small boxes without oversubscribing
    // big ones by default; `--threads N` overrides. Worker counts are
    // cost knobs: they print to stderr only and never reach the wire.
    let threads: usize = args
        .flag("threads")?
        .unwrap_or_else(|| rtt_par::available().clamp(1, 8));
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let solver: String = args.flag("solver")?.unwrap_or_else(|| "all".into());
    let registry = corpus_registry();
    let default_solver = match solver.as_str() {
        "all" => None,
        name => {
            if registry.resolve(name).is_none() {
                return Err(format!(
                    "unknown solver {name}; available: all, {}",
                    registry.names().join(", ")
                ));
            }
            Some(name.to_string())
        }
    };
    let capacity = rtt_cli::args::parse_cache_capacity(args)?;
    let cache_save: Option<String> = args.flag("cache-save")?;
    let cache_load: Option<String> = args.flag("cache-load")?;
    // the preprocessing cache is always bounded; the cross-request
    // solution cache is opt-in — persistence flags imply it. Neither
    // can change stdout: caches trade cost, never bytes (see the
    // rtt_cli::batch docs)
    let cache = PrepCache::with_capacity(capacity);
    let reuse = (args.switch("reuse-cache") || cache_save.is_some() || cache_load.is_some())
        .then(|| rtt_engine::ReuseCache::new(capacity));
    if let (Some(path), Some(reuse)) = (&cache_load, &reuse) {
        // all-or-nothing: a bad file fails the whole command loudly
        let loaded = rtt_engine::persist::load(reuse, std::path::Path::new(path), &registry)
            .map_err(|e| format!("--cache-load {path}: {e}"))?;
        eprintln!("cache loaded: {loaded} entries from {path}");
    }
    let requests =
        rtt_cli::batch::build_requests(&corpus, &cache, default_solver.as_deref(), &registry)?;
    if requests.is_empty() {
        return Err(format!("{path}: no requests (empty corpus)"));
    }
    let out = run_batch_cached(&registry, requests, threads, reuse.as_ref());
    let mut rendered = String::new();
    for report in &out.reports {
        rendered.push_str(&rtt_cli::batch::report_line(report));
        rendered.push('\n');
    }
    match args.flag::<String>("out")? {
        Some(dest) => {
            std::fs::write(&dest, &rendered).map_err(|e| format!("writing {dest}: {e}"))?
        }
        None => emit(&rendered)?,
    }
    // timing and cache telemetry go to stderr: the stdout stream is the
    // byte-stable wire format
    let stats = cache.stats();
    eprintln!(
        "batch: {} requests -> {} reports ({} solved, {} expired, {} rejected, {} degraded, \
         {} warned, {} panicked) in {:.1} ms on {} thread(s); \
         {:.1} req/s; prep cache: {}/{} instance hits ({:.0}%), {}/{} artifact reuses ({:.0}%), \
         {} evicted",
        out.stats.requests,
        out.stats.reports,
        out.stats.solved,
        out.stats.expired,
        out.stats.rejected,
        out.stats.degraded,
        out.stats.warned,
        out.stats.panicked,
        out.wall.as_secs_f64() * 1e3,
        out.stats.threads,
        out.stats.requests as f64 / out.wall.as_secs_f64().max(1e-9),
        stats.instance_hits,
        stats.instance_hits + stats.instance_misses,
        stats.instance_hit_rate() * 100.0,
        stats.artifact_reuses,
        stats.artifact_reuses + stats.artifact_computes,
        stats.artifact_reuse_rate() * 100.0,
        stats.evicted,
    );
    if let Some(reuse) = &reuse {
        let r = reuse.stats();
        eprintln!(
            "reuse cache: {}/{} solution hits, {} pivots saved; {} evictions",
            r.solution_hits,
            r.solution_hits + r.solution_misses,
            r.pivots_saved,
            r.evictions,
        );
    }
    if let (Some(path), Some(reuse)) = (&cache_save, &reuse) {
        let saved = rtt_engine::persist::save(reuse, std::path::Path::new(path))
            .map_err(|e| format!("--cache-save {path}: {e}"))?;
        eprintln!("cache spilled: {saved} entries -> {path}");
    }
    Ok(())
}

/// `rtt lint`: the no-solve static checker over a batch corpus
/// (`.ndjson`) or a standalone instance document (anything else).
/// Diagnostics go to stdout in deterministic `(line, code, message)`
/// order; the summary goes to stderr; the exit code is nonzero iff an
/// error-severity diagnostic was found.
fn cmd_lint(args: &Args) -> Result<(), String> {
    args.accept_only(&["format"], &[])?;
    let path = args
        .positional
        .get(1)
        .ok_or("missing lint target (corpus.ndjson or instance.json)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let format: String = args.flag("format")?.unwrap_or_else(|| "human".into());
    if !matches!(format.as_str(), "human" | "ndjson") {
        return Err(format!(
            "unknown --format {format}; available: human, ndjson"
        ));
    }
    // same registry the batch admission uses, fixtures included, so the
    // unknown-solver check (RTT008) agrees with what batch would accept
    let registry = corpus_registry();
    let diags = if path.ends_with(".ndjson") {
        rtt_cli::lint::lint_corpus(&text, &registry)
    } else {
        rtt_cli::lint::lint_spec(&text)
    };
    let mut rendered = String::new();
    for d in &diags {
        match format.as_str() {
            "ndjson" => rendered.push_str(&d.ndjson()),
            _ => rendered.push_str(&d.human(path)),
        }
        rendered.push('\n');
    }
    emit(&rendered)?;
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    eprintln!("lint: {path}: {errors} error(s), {warnings} warning(s)");
    if errors > 0 {
        return Err(format!("{path}: lint found {errors} error(s)"));
    }
    Ok(())
}

/// `rtt analyze race`: the static race analyzer over a generated racy
/// program — footprint summaries intersected under the English-Hebrew
/// order, one NDJSON line per interval-compressed racing summary.
/// Timing goes to stderr.
fn cmd_analyze(args: &Args) -> Result<(), String> {
    args.accept_only(&["kind", "n", "seed", "stages", "width", "contention"], &[])?;
    match args.positional.get(1).map(String::as_str) {
        Some("race") => {}
        other => {
            return Err(format!(
                "unknown analyze pass {}; available: race",
                other.unwrap_or("(none)")
            ))
        }
    }
    let kind: String = args.require("kind")?;
    let prog = match kind.as_str() {
        "race-mm" => {
            let n: u64 = args.flag("n")?.unwrap_or(4);
            if n == 0 {
                return Err("--n must be ≥ 1".into());
            }
            rtt_race::mm::parallel_mm_racy(n).0
        }
        "race-forkjoin" => {
            let seed: u64 = args.flag("seed")?.unwrap_or(42);
            let stages: usize = args.flag("stages")?.unwrap_or(3);
            let width: usize = args.flag("width")?.unwrap_or(4);
            let contention: usize = args.flag("contention")?.unwrap_or(8);
            if stages == 0 || width == 0 || contention == 0 {
                return Err("--stages, --width, and --contention must be ≥ 1".into());
            }
            let mut rng = StdRng::seed_from_u64(seed);
            rtt_race::gen::random_fork_join(&mut rng, stages, width, contention)
        }
        other => {
            return Err(format!(
                "unknown kind {other}; available: race-mm, race-forkjoin"
            ))
        }
    };
    let started = Instant::now();
    let sums = rtt_analyze::race::analyze_races(&prog);
    let wall = started.elapsed();
    let mut rendered = String::new();
    for s in &sums {
        rendered.push_str(&format!(
            "{{\"lo\":{},\"hi\":{},\"a\":{},\"b\":{},\"write_write\":{}}}\n",
            s.lo, s.hi, s.a, s.b, s.write_write
        ));
    }
    emit(&rendered)?;
    eprintln!(
        "analyze race: {} summaries covering {} witnesses in {:.2} ms",
        sums.len(),
        rtt_analyze::race::witness_count(&sums),
        wall.as_secs_f64() * 1e3
    );
    Ok(())
}

fn cmd_solvers(args: &Args) -> Result<(), String> {
    args.accept_only(&[], &[])?;
    let registry = Registry::standard();
    // name + certified-output columns: which solution object each
    // solver's solved reports carry, and the certificate every one of
    // them ships with (the engine replays all three forms, so the
    // certificate column is uniformly sim_makespan — that uniformity is
    // the point, and a registry-wide test enforces it)
    for solver in registry.iter() {
        outln!(
            "{:<20} {:<10} sim_makespan",
            solver.name(),
            solver.solution_form().as_str()
        );
    }
    Ok(())
}

fn cmd_regimes(args: &Args) -> Result<(), String> {
    args.accept_only(&["budget"], &[])?;
    let arc = load(&instance_path(args)?)?;
    let budget: u64 = args.require("budget")?;
    let c = compare_regimes(&arc, budget);
    outln!("budget {budget}:");
    outln!("  no reuse (Q1.1, exact):        {}", c.noreuse);
    outln!("  reuse over paths (Q1.3, exact):{}", c.path_reuse);
    outln!("  global pool (Q1.2, greedy):    {}", c.global_best());
    Ok(())
}

fn cmd_dot(args: &Args) -> Result<(), String> {
    args.accept_only(&[], &[])?;
    let arc = load(&instance_path(args)?)?;
    let dot = rtt_dag::dot::to_dot(
        arc.dag(),
        "instance",
        |_, _| String::new(),
        |_, a| {
            if a.label.is_empty() {
                a.duration.to_string()
            } else {
                format!("{}: {}", a.label, a.duration)
            }
        },
    );
    outln!("{dot}");
    Ok(())
}

fn run() -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        return Err(USAGE.to_string());
    }
    let args = parse_args(&raw)?;
    match args.positional.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args),
        Some("info") => cmd_info(&args),
        Some("solve") => cmd_solve(&args),
        Some("min-resource") => cmd_min_resource(&args),
        Some("curve") => cmd_curve(&args),
        Some("batch") => cmd_batch(&args),
        Some("lint") => cmd_lint(&args),
        Some("analyze") => cmd_analyze(&args),
        Some("solvers") => cmd_solvers(&args),
        Some("regimes") => cmd_regimes(&args),
        Some("dot") => cmd_dot(&args),
        Some(other) => Err(format!("unknown command {other}\n\n{USAGE}")),
        None => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
