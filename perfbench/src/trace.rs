//! The traced run: the same corpus re-driven through each layer's
//! public functions on one client, every call wrapped in a span taken
//! from this file — nothing inside the program is instrumented.
//!
//! The pass mirrors the executor's request path (`build_requests`,
//! `lint_requests`, `execute_one_cached_at`, `report_line`) call for
//! call, splitting the calls the executor makes internally into their
//! own spans: JSON parse, spec build, fingerprint and prep-cache insert
//! per line; reuse lookup/store, solver, certification expansion and
//! simulation replay per (request, solver). Its report lines must equal
//! the reference, which keeps the mirror honest.
//!
//! Three layers sit *inside* a single executor call and cannot be split
//! from outside: LP build, simplex and rounding run inside `bicriteria`
//! solves and sweeps, the series-parallel DP inside `sp-dp` solves. The
//! pass re-runs those on the same inputs as separate probe spans after
//! each freshly solved min-makespan `bicriteria` / `sp-dp` report and
//! each sweep, so their figures are real timings of the same work. The
//! probes are extra work; `trace.overhead_ratio` includes them.
//! The no-reuse LP inside `noreuse-bicriteria` is probed the same way.
//! Requests that declare `max_*` limits run whole through
//! `execute_one_cached_at` under their solver's span, because the
//! metered path's budget block is assembled inside the executor.
//!
//! A solver's `work` is the report's own `work` field where the solver
//! sets one. Three solvers do not, so the pass counts theirs:
//! `noreuse-exact` runs under a meter that counts its search nodes and
//! never trips (metered requests read the same counter from their
//! budget block), `noreuse-bicriteria` counts the pivots of its LP
//! probe, and `global-greedy` counts the arcs its list scheduler places
//! (each arc once under each of its two policies; the scheduler keeps no
//! counter of its own).
//!
//! A span's **self time** is its duration minus the time its child
//! spans cover (the pass is single-threaded, so children never
//! overlap).

use rtt_cli::json::Json;
use rtt_cli::InstanceSpec;
use rtt_core::{expand_two_tuples, ArcInstance, MakespanLp};
use rtt_engine::{
    execute_one_cached_at, execute_sweep_wire, expand_levels, lint_requests, BudgetContext,
    BudgetLimits, BudgetPolicies, BudgetSpec, ExhaustionPolicy, Objective, PrepCache, Registry,
    ReuseCache, SimCertificate, SolveReport, SolveRequest, Solver, SolverSelection, Status,
    SIM_EVENT_GUARD,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Registry names and their solver span names, in registry order.
pub const SOLVERS: [(&str, &str); 9] = [
    ("exact", "engine.solver.exact"),
    ("bicriteria", "engine.solver.bicriteria"),
    ("kway", "engine.solver.kway"),
    ("recbinary", "engine.solver.recbinary"),
    ("recbinary-improved", "engine.solver.recbinary-improved"),
    ("sp-dp", "engine.solver.sp-dp"),
    ("noreuse-exact", "engine.solver.noreuse-exact"),
    ("noreuse-bicriteria", "engine.solver.noreuse-bicriteria"),
    ("global-greedy", "engine.solver.global-greedy"),
];

/// Root spans: their self time is the pass's own glue, not a layer's.
pub const ROOTS: [&str; 2] = ["setup", "request"];

fn solver_span(name: &str) -> &'static str {
    SOLVERS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| *s)
        .expect("the standard registry names only these solvers")
}

/// One recorded span. Times are nanoseconds since the pass began.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`<module>.<what>`) or a root name.
    pub name: &'static str,
    /// Start, ns since the pass began.
    pub start: u64,
    /// End, ns since the pass began.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request index (corpus order); `None` during set-up.
    pub req: Option<usize>,
}

/// Work counts recorded at the same boundaries as the spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Request-line bytes parsed.
    pub json_bytes: u64,
    /// `canonical_form` calls.
    pub fingerprint_calls: u64,
    /// Admission-lint diagnostics.
    pub diagnostics: u64,
    /// Prep-cache instance hit rate.
    pub prep_hit_ratio: f64,
    /// Prep-artifact reuse rate.
    pub prep_artifact_reuse_ratio: f64,
    /// Solution-tier hits.
    pub reuse_hits: u64,
    /// Solution-tier misses.
    pub reuse_misses: u64,
    /// Pivots the solution tier did not execute.
    pub pivots_saved: u64,
    /// Per-solver summed `work` of freshly solved reports.
    pub solver_work: BTreeMap<&'static str, u64>,
    /// Rows of the LPs built by the probes.
    pub lp_rows: u64,
    /// Columns of the LPs built by the probes.
    pub lp_cols: u64,
    /// Simplex pivots.
    pub pivots: u64,
    /// Phase-1 pivots.
    pub phase1_pivots: u64,
    /// Basis refactorizations.
    pub refactorizations: u64,
    /// Bound flips.
    pub bound_flips: u64,
    /// SP-DP table cells written.
    pub sp_cells: u64,
    /// SP-DP merge steps.
    pub sp_merge_steps: u64,
    /// Curve points produced by freshly run sweeps.
    pub curve_points: u64,
    /// Nodes of certification expansions.
    pub expanded_nodes: u64,
    /// Simulation events replayed.
    pub sim_events: u64,
    /// Report-line bytes rendered.
    pub render_bytes: u64,
}

/// Span recorder.
pub struct Tracer {
    origin: Instant,
    /// Every span, in start order.
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    req: Option<usize>,
    /// Work counts.
    pub counts: Counts,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: None,
            counts: Counts::default(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the current one.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Summed self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(c);
        }
        out
    }

    /// The spans as a JSON array (`name`, `start_ns`, `end_ns`,
    /// `parent`, `req`).
    pub fn spans_json(&self) -> String {
        let opt = |v: Option<usize>| v.map_or(Json::Null, |x| Json::UInt(x as u64));
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.into())),
                        ("start_ns".into(), Json::UInt(s.start)),
                        ("end_ns".into(), Json::UInt(s.end)),
                        ("parent".into(), opt(s.parent)),
                        ("req".into(), opt(s.req)),
                    ])
                })
                .collect(),
        )
        .compact()
    }
}

/// One traced pass over a corpus.
pub struct TracedPass {
    /// Spans and counts.
    pub tracer: Tracer,
    /// Report lines per request, for the output check.
    pub lines: Vec<Vec<String>>,
    /// Wall time of the whole pass (set-up and serve).
    pub wall: Duration,
}

/// Runs set-up and serve over `corpus` on one client, tracing each
/// layer call.
pub fn traced_pass(corpus: &str) -> Result<TracedPass, String> {
    let started = Instant::now();
    let mut tr = Tracer::new();
    let registry = Registry::standard();
    let prep = PrepCache::new();
    let reuse = ReuseCache::new(crate::serve::REUSE_CAPACITY);
    let requests = tr.span("setup", |tr| -> Result<Vec<SolveRequest>, String> {
        let mut reqs = Vec::new();
        for (idx, line) in corpus.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let req = traced_request(tr, line, idx + 1, &prep)
                .map_err(|e| format!("line {}: {e}", idx + 1))?;
            reqs.push(req);
        }
        let diags = tr.span("engine.admission", |_| lint_requests(&registry, &reqs));
        tr.counts.diagnostics += diags.len() as u64;
        Ok(reqs)
    })?;
    let mut lines = Vec::with_capacity(requests.len());
    for (i, req) in requests.iter().enumerate() {
        tr.req = Some(i);
        lines.push(tr.span("request", |tr| serve_one(tr, &registry, &reuse, req, i)));
    }
    tr.req = None;
    let wall = started.elapsed();
    let ps = prep.stats();
    tr.counts.prep_hit_ratio = ps.instance_hit_rate();
    tr.counts.prep_artifact_reuse_ratio = ps.artifact_reuse_rate();
    let rs = reuse.stats();
    tr.counts.reuse_hits = rs.solution_hits;
    tr.counts.reuse_misses = rs.solution_misses;
    tr.counts.pivots_saved = rs.pivots_saved;
    Ok(TracedPass {
        tracer: tr,
        lines,
        wall,
    })
}

/// `build_requests`' per-line work, one span per layer, for the request
/// fields the benchmark corpora use.
fn traced_request(
    tr: &mut Tracer,
    line: &str,
    lineno: usize,
    prep: &PrepCache,
) -> Result<SolveRequest, String> {
    tr.counts.json_bytes += line.len() as u64;
    let doc = tr
        .span("cli.json", |_| Json::parse(line))
        .map_err(|e| e.to_string())?;
    let arc = tr.span("cli.spec", |_| -> Result<ArcInstance, String> {
        let inst = doc.require("instance").map_err(|e| e.to_string())?;
        InstanceSpec::from_json(inst)
            .and_then(|s| s.build())
            .map_err(|e| e.to_string())
    })?;
    tr.counts.fingerprint_calls += 1;
    let key = tr.span("core.fingerprint", |_| rtt_core::canonical_form(&arc).key);
    let prepared = tr.span("engine.prep", |_| prep.get_or_insert(&key, move || arc));

    let field = |name: &str| -> Result<Option<u64>, String> {
        doc.get(name)
            .map(|v| v.as_u64().map_err(|e| e.to_string()))
            .transpose()
    };
    for unsupported in ["objective", "deadline_ms"] {
        if doc.get(unsupported).is_some() {
            return Err(format!(
                "field {unsupported:?} is not used by benchmark corpora"
            ));
        }
    }
    let id = match doc.get("id") {
        Some(v) => v.as_str().map_err(|e| e.to_string())?.to_string(),
        None => format!("line-{lineno}"),
    };
    let objective = match (doc.get("budgets"), field("budget")?, field("target")?) {
        (Some(Json::Arr(items)), None, None) => Objective::MakespanSweep {
            budgets: items
                .iter()
                .map(|v| v.as_u64().map_err(|e| e.to_string()))
                .collect::<Result<_, _>>()?,
        },
        (None, Some(budget), None) => Objective::MinMakespan { budget },
        (None, None, Some(target)) => Objective::MinResource { target },
        _ => return Err("expected exactly one of budget, target or a budgets array".into()),
    };
    let alpha = match doc.get("alpha") {
        Some(v) => v.as_f64().map_err(|e| e.to_string())?,
        None => 0.5,
    };
    let solver = match (&objective, doc.get("solver")) {
        (Objective::MakespanSweep { .. }, _) => SolverSelection::Named("bicriteria".into()),
        (_, Some(v)) => SolverSelection::Named(v.as_str().map_err(|e| e.to_string())?.into()),
        (_, None) => SolverSelection::All,
    };
    let limits = BudgetLimits {
        lp_pivots: field("max_pivots")?,
        dp_merge_steps: field("max_merge_steps")?,
        sim_events: field("max_sim_events")?,
        queue_depth: field("max_queue_depth")?,
    };
    let policy = match doc.get("on_exhaustion") {
        Some(v) => ExhaustionPolicy::parse(v.as_str().map_err(|e| e.to_string())?)?,
        None => ExhaustionPolicy::default(),
    };
    Ok(SolveRequest {
        id,
        prepared,
        objective,
        alpha,
        solver,
        deadline: None,
        seed: field("seed")?.unwrap_or(0),
        budget: (!limits.is_empty()).then(|| BudgetSpec {
            limits,
            policies: BudgetPolicies::uniform(policy),
        }),
        intra_threads: None,
    })
}

/// `execute_one_cached_at` + `report_line` for one request, one span
/// per layer call.
fn serve_one(
    tr: &mut Tracer,
    registry: &Registry,
    reuse: &ReuseCache,
    req: &SolveRequest,
    i: usize,
) -> Vec<String> {
    let reports: Vec<SolveReport> = if let Objective::MakespanSweep { budgets } = &req.objective {
        sweep_reports(tr, registry, reuse, req, i, budgets)
    } else {
        let selected: Vec<&dyn Solver> = match &req.solver {
            SolverSelection::Named(name) => registry.resolve(name).into_iter().collect(),
            SolverSelection::All => registry.supporting_prepared(&req.prepared),
        };
        selected
            .into_iter()
            .map(|s| solver_report(tr, registry, reuse, req, i, s))
            .collect()
    };
    let lines: Vec<String> = tr.span("cli.render", |_| {
        reports.iter().map(rtt_cli::report_line).collect()
    });
    tr.counts.render_bytes += lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
    lines
}

fn sweep_reports(
    tr: &mut Tracer,
    registry: &Registry,
    reuse: &ReuseCache,
    req: &SolveRequest,
    i: usize,
    budgets: &[u64],
) -> Vec<SolveReport> {
    if req.budget.is_some() {
        return tr.span("engine.curve", |_| {
            execute_one_cached_at(registry, req, Instant::now(), i, None)
        });
    }
    let key = ReuseCache::solution_key(req, "bicriteria");
    if let Some(k) = &key {
        if let Some(hits) = tr.span("engine.reuse", |_| reuse.lookup_solution(k, req)) {
            return hits.into_iter().map(|h| replay(tr, req, h)).collect();
        }
    }
    let reports = tr.span("engine.curve", |_| {
        execute_sweep_wire(req, budgets, &BudgetContext::unbudgeted())
    });
    if let Some(k) = key {
        tr.span("engine.reuse", |_| reuse.store_solution(k, req, &reports));
    }
    tr.counts.curve_points += reports.len() as u64;
    probe_sweep(tr, req, budgets);
    reports
}

fn solver_report(
    tr: &mut Tracer,
    registry: &Registry,
    reuse: &ReuseCache,
    req: &SolveRequest,
    i: usize,
    s: &dyn Solver,
) -> SolveReport {
    let name = s.name();
    let span = solver_span(name);
    if req.budget.is_some() {
        // the metered path (budget block, degrade fallback) lives inside
        // the executor: run it whole for this one solver
        let one = SolveRequest {
            solver: SolverSelection::Named(name.into()),
            ..req.clone()
        };
        let mut out = tr.span(span, |_| {
            execute_one_cached_at(registry, &one, Instant::now(), i, None)
        });
        let r = out.pop().expect("a named solver yields one report");
        let counted = r.budget.as_ref().map_or(0, |b| b.consumed.dp_merge_steps);
        count_work(tr, req, name, &r, counted);
        probe_single(tr, req, name);
        return r;
    }
    let key = ReuseCache::solution_key(req, name);
    if let Some(k) = &key {
        if let Some(mut hits) = tr.span("engine.reuse", |_| reuse.lookup_solution(k, req)) {
            let hit = hits
                .pop()
                .expect("the solution tier never stores empty vectors");
            return replay(tr, req, hit);
        }
    }
    let ctx = if name == "noreuse-exact" {
        counting_context(req)
    } else {
        BudgetContext::unbudgeted()
    };
    let mut r = tr.span(span, |_| s.solve(req, &ctx));
    count_work(tr, req, name, &r, ctx.consumed().dp_merge_steps);
    certify(tr, req.prepared.arc(), &mut r);
    if let Some(k) = key {
        tr.span("engine.reuse", |_| {
            reuse.store_solution(k, req, std::slice::from_ref(&r))
        });
    }
    probe_single(tr, req, name);
    r
}

/// Policies `global-greedy` runs, each placing every arc once.
const GREEDY_POLICIES: u64 = 2;

/// A context for `req` whose meter counts search nodes and never trips.
fn counting_context(req: &SolveRequest) -> BudgetContext {
    let limits = BudgetLimits {
        dp_merge_steps: Some(u64::MAX),
        ..BudgetLimits::default()
    };
    let counted = SolveRequest {
        budget: Some(BudgetSpec::with_limits(limits)),
        ..req.clone()
    };
    BudgetContext::for_request(&counted, Instant::now())
}

/// Adds a freshly solved report's work to its solver's count.
/// `merge_steps` is what a counting meter saw (`noreuse-exact`'s search
/// nodes); `noreuse-bicriteria`'s work is added by its LP probe.
fn count_work(tr: &mut Tracer, req: &SolveRequest, name: &str, r: &SolveReport, merge_steps: u64) {
    let work = match name {
        "noreuse-exact" => merge_steps,
        "global-greedy" if r.status == Status::Solved => {
            GREEDY_POLICIES * req.prepared.arc().dag().edge_count() as u64
        }
        _ => r.work,
    };
    *tr.counts.solver_work.entry(solver_span(name)).or_default() += work;
}

/// A solution-tier hit: re-validate the cached form, then re-certify.
fn replay(tr: &mut Tracer, req: &SolveRequest, mut hit: SolveReport) -> SolveReport {
    hit.id = req.id.clone();
    let arc = req.prepared.arc();
    let valid = tr.span("engine.certify", |_| -> Result<(), String> {
        if let Some(sol) = &hit.solution {
            rtt_core::validate(arc, sol).map_err(|e| format!("{e:?}"))
        } else if let Some(nr) = &hit.noreuse {
            rtt_core::regimes::validate_noreuse(arc, nr).map_err(|e| format!("{e:?}"))
        } else if let Some(s) = &hit.schedule {
            let budget = match req.objective {
                Objective::MinMakespan { budget } => budget,
                _ => s.peak_in_use,
            };
            rtt_core::verify_global_schedule(arc, budget, s).map_err(|e| format!("{e:?}"))
        } else {
            Ok(())
        }
    });
    if let Err(e) = valid {
        return SolveReport::new(req.id.clone(), hit.solver, Status::Failed, e);
    }
    hit.sim = None;
    certify(tr, arc, &mut hit);
    hit
}

/// The Observation 1.1 certificate: expansion, then event replay.
fn certify(tr: &mut Tracer, arc: &ArcInstance, r: &mut SolveReport) {
    if r.status != Status::Solved {
        return;
    }
    let expanded = tr.span("engine.certify", |_| {
        let (times, levels, bound) = if let Some(sol) = &r.solution {
            (sol.edge_times.clone(), sol.arc_flows.clone(), sol.makespan)
        } else if let Some(nr) = &r.noreuse {
            (nr.edge_times.clone(), nr.levels.clone(), nr.makespan)
        } else if let Some(s) = &r.schedule {
            let times = arc
                .dag()
                .edge_ids()
                .map(|e| arc.arc_time(e, s.level[e.index()]))
                .collect::<Vec<_>>();
            (times, s.level.clone(), s.makespan)
        } else {
            return None;
        };
        if rtt_duration::is_infinite(bound) || times.iter().any(|&t| rtt_duration::is_infinite(t)) {
            return None;
        }
        let (g, works) = expand_levels(arc, &times, &levels);
        Some((g, works, bound))
    });
    let Some((g, works, bound)) = expanded else {
        return;
    };
    tr.counts.expanded_nodes += g.node_count() as u64;
    let replayed = tr.span("sim.replay", |_| {
        let model = rtt_sim::ExecModel::from_works(&g, &works);
        let events = model.event_count();
        (events <= SIM_EVENT_GUARD).then(|| (events, model.run_event()))
    });
    if let Some((events, res)) = replayed {
        tr.counts.sim_events += events;
        r.sim = Some(SimCertificate {
            simulated: res.finish,
            bound,
            expanded_nodes: g.node_count(),
            expanded_updates: res.updates_applied,
            peak_parallelism: res.peak_parallelism,
        });
    }
}

fn count_lp(c: &mut Counts, frac: &rtt_core::lp_build::FractionalSolution, built: bool) {
    if built {
        c.lp_rows += frac.stats.rows as u64;
        c.lp_cols += frac.stats.cols as u64;
    }
    c.pivots += frac.pivots as u64;
    c.phase1_pivots += frac.stats.phase1_pivots as u64;
    c.refactorizations += frac.stats.refactorizations as u64;
    c.bound_flips += frac.stats.bound_flips as u64;
}

/// Layer probes under a freshly solved min-makespan `bicriteria`
/// (LP build, simplex, rounding), `noreuse-bicriteria` (its LP, build
/// and simplex in one call) or `sp-dp` (the DP) report.
fn probe_single(tr: &mut Tracer, req: &SolveRequest, solver: &str) {
    let Objective::MinMakespan { budget } = req.objective else {
        return;
    };
    let arc = req.prepared.arc();
    let tt = req.prepared.tt();
    match solver {
        "bicriteria" => {
            let mut lp = tr.span("core.lp_build", |_| MakespanLp::new(tt));
            lp.set_budget(budget);
            if let Ok(frac) = tr.span("lp.simplex", |_| lp.solve_with(tt, rtt_lp::Engine::Revised))
            {
                count_lp(&mut tr.counts, &frac, true);
                tr.span("core.rounding", |_| {
                    black_box(rtt_core::bicriteria_round_prepped(arc, tt, frac, req.alpha));
                });
            }
        }
        "noreuse-bicriteria" => {
            if let Ok(frac) = tr.span("lp.simplex", |_| {
                rtt_core::regimes::solve_noreuse_lp(tt, budget)
            }) {
                count_lp(&mut tr.counts, &frac, false);
                *tr.counts
                    .solver_work
                    .entry(solver_span(solver))
                    .or_default() += frac.pivots as u64;
            }
        }
        "sp-dp" => {
            if let Some(tree) = req.prepared.sp_tree() {
                let (_, _, stats) = tr.span("core.sp_dp", |_| {
                    black_box(rtt_core::sp_dp::solve_sp_tree_with_stats(
                        tree,
                        |e| arc.dag().edge(e).duration.clone(),
                        budget,
                    ))
                });
                tr.counts.sp_cells += stats.cells;
                tr.counts.sp_merge_steps += stats.merge_steps;
            }
        }
        _ => {}
    }
}

/// Layer probes under a freshly run sweep: template build, the chained
/// simplex session over the grid, and per-point rounding.
fn probe_sweep(tr: &mut Tracer, req: &SolveRequest, budgets: &[u64]) {
    let arc = req.prepared.arc();
    let tt = req.prepared.tt();
    let lp = tr.span("core.lp_build", |_| MakespanLp::new(tt));
    let Ok((points, _)) = tr.span("lp.simplex", |_| lp.solve_sweep(tt, budgets, None)) else {
        return;
    };
    for (k, p) in points.iter().enumerate() {
        count_lp(&mut tr.counts, p, k == 0);
    }
    tr.span("core.rounding", |_| {
        for p in points {
            black_box(rtt_core::bicriteria_round_prepped(arc, tt, p, req.alpha));
        }
    });
}

/// Runs the warm chains of the stalled sweep cases the corpora skip
/// ([`crate::gen::stalled_cases`]): their wall, and the pivots of their
/// warm points.
pub fn stalled_chains(cases: &[(ArcInstance, Vec<u64>)]) -> (Duration, u64) {
    let started = Instant::now();
    let mut pivots = 0;
    for (arc, grid) in cases {
        let tt = expand_two_tuples(arc);
        if let Ok((points, _)) = MakespanLp::new(&tt).solve_sweep(&tt, grid, None) {
            pivots += points.iter().skip(1).map(|p| p.pivots as u64).sum::<u64>();
        }
    }
    (started.elapsed(), pivots)
}
