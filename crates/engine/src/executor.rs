//! The parallel batch executor: a fixed worker pool draining a queue of
//! [`SolveRequest`]s through a shared [`Registry`].
//!
//! Work distribution runs over the `crossbeam` channel shim: one
//! MPMC job channel feeds every worker, one result channel collects
//! `(index, reports)` pairs, and the caller reassembles them in request
//! order — so the emitted report sequence is **independent of the
//! thread count and of scheduling**, which is what makes `rtt batch`
//! byte-stable (timing fields aside, which the wire format therefore
//! omits).
//!
//! Per-request deadlines are enforced at dequeue: a request still
//! queued when its deadline passes is reported as
//! [`Status::DeadlineExpired`] without touching a solver. Running
//! solvers are not preempted — solver granularity is the preemption
//! granularity, as in any cooperative pool — but a request that
//! declares a [`crate::budget::BudgetSpec`] *is* interruptible
//! mid-solve: its deadline and counter limits ride a
//! [`rtt_budget::BudgetMeter`] the compute loops check cooperatively.
//!
//! Faults are isolated per (request, solver): every solver call runs
//! under [`std::panic::catch_unwind`], so a panicking solver yields one
//! [`Status::Failed`] report carrying the panic payload while the rest
//! of the batch completes normally.
//!
//! # Panic-site audit (what the isolation boundary covers)
//!
//! The engine deliberately `expect`s/`assert`s its internal
//! correctness contracts — `validate(..)` on every produced solution,
//! `cert.holds()` on every simulation certificate, lazily computed
//! prep artifacts — rather than threading `Result`s through paths that
//! are bugs if they fail. The audit of those sites splits them into:
//!
//! * **request-reachable** (solver adapters, certification, curve
//!   rounding, lazy prep): all execute inside the per-(request, solver)
//!   `catch_unwind` in `run_solver_isolated` or the sweep dispatch,
//!   so a violation surfaces as one [`Status::Failed`] report with the
//!   assertion message as payload — the conversion the isolation
//!   boundary exists for;
//! * **infrastructure** (channel sends/receives, slot reassembly,
//!   registry duplicate-name registration): outside the boundary by
//!   design — they guard the executor's own plumbing, cannot be
//!   triggered by request *content*, and a failure there means the
//!   batch itself is broken, which must abort loudly;
//! * **statically unreachable** (`expect("an unmetered X cannot
//!   exhaust")` wrappers): a `None` meter never charges, so the error
//!   arm cannot construct.
//!
//! Prep-cache mutex `expect("poisoned")` sites deserve a note: solver
//! panics cannot poison them because the LP template is moved out of
//! its lock before any solve runs — the critical sections contain no
//! solver code.

use crate::budget::{BudgetContext, BudgetReport, ExhaustionPolicy};
use crate::registry::Registry;
use crate::request::{SolveRequest, SolveReport, SolverSelection, Status};
use rtt_budget::{Dimension, Exhausted};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration as StdDuration, Instant};

/// Aggregate counters of one [`run_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Requests consumed.
    pub requests: usize,
    /// Reports produced (≥ requests under `--solver all`).
    pub reports: usize,
    /// Reports with [`Status::Solved`].
    pub solved: usize,
    /// Reports with [`Status::DeadlineExpired`].
    pub expired: usize,
    /// Reports with [`Status::BudgetExhausted`] (hard-rejected, or
    /// degrade with no fallback left).
    pub rejected: usize,
    /// Reports answered by a degrade fallback, or solved with a
    /// degraded (analytic-only) certificate.
    pub degraded: usize,
    /// Reports carrying soft-warn budget flags.
    pub warned: usize,
    /// Reports from isolated solver panics ([`Status::Failed`]).
    pub panicked: usize,
    /// Worker threads used.
    pub threads: usize,
}

/// Reports (in request order) plus statistics.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One entry per (request, selected solver), flattened in request
    /// order then registry order — deterministic for a fixed input.
    pub reports: Vec<SolveReport>,
    /// Aggregate counters.
    pub stats: BatchStats,
    /// Wall-clock time of the whole batch.
    pub wall: StdDuration,
}

/// The single wire-visible reason for a deadline expiring at dequeue.
/// One constant, one construction path ([`expired_at_dequeue`]), so the
/// text cannot drift between the sweep and the solver-fan-out paths.
const DEADLINE_AT_DEQUEUE: &str = "deadline passed while queued";

/// The report emitted when a request's deadline passed while it was
/// still queued — used by every dispatch path in [`execute_one`].
fn expired_at_dequeue(
    req: &SolveRequest,
    solver: &'static str,
    queue_wait: StdDuration,
) -> SolveReport {
    let mut r = SolveReport::new(
        req.id.clone(),
        solver,
        Status::DeadlineExpired,
        DEADLINE_AT_DEQUEUE,
    );
    r.queue_wait = queue_wait;
    r
}

/// Whether the request's deadline already passed after `queue_wait` in
/// the queue.
///
/// The boundary is **closed** (`>=`): a wait of exactly the deadline
/// counts as expired. The choice matters only for the degenerate
/// `Duration::ZERO` deadline — under the old strict `>`, whether a
/// zero-deadline request ran depended on the clock having ticked
/// between enqueue and dequeue (a coarse timer can observe
/// `queue_wait == 0`), i.e. on timer resolution rather than policy.
/// Closed at zero means "a zero deadline always expires", which is the
/// only resolution-independent reading; `zero_deadline_always_expires`
/// pins it.
fn deadline_expired(req: &SolveRequest, queue_wait: StdDuration) -> bool {
    req.deadline.is_some_and(|deadline| queue_wait >= deadline)
}

/// The exhaustion policy `req` declares for `dim` (hard-reject when the
/// request carries no budget — unreachable in practice, since only
/// budgeted requests can exhaust).
fn policy_for(req: &SolveRequest, dim: Dimension) -> ExhaustionPolicy {
    req.budget
        .map(|s| s.policies.for_dimension(dim))
        .unwrap_or_default()
}

/// The declared degradation chain: which solver answers when `solver`
/// exhausts its budget under [`ExhaustionPolicy::Degrade`]. One level
/// deep by construction — every fallback is an LP-rounding pipeline
/// with no fallback of its own.
fn degrade_target(solver: &str) -> Option<&'static str> {
    match solver {
        // exact search and the SP DP degrade to the Theorem 3.4
        // bi-criteria rounding (same regime, certified factors)
        "exact" | "sp-dp" => Some("bicriteria"),
        // the no-reuse regime degrades within itself
        "noreuse-exact" => Some("noreuse-bicriteria"),
        _ => None,
    }
}

/// The queue-depth admission check: `Some(exhausted)` when the request
/// declares a queue-depth bound and `queue_position` requests were
/// enqueued ahead of it beyond that bound.
fn queue_overflow(req: &SolveRequest, queue_position: usize) -> Option<Exhausted> {
    let limit = req.budget?.limits.queue_depth?;
    if (queue_position as u64) >= limit {
        Some(Exhausted {
            dimension: Dimension::QueueDepth,
            limit,
            consumed: queue_position as u64 + 1,
        })
    } else {
        None
    }
}

/// The [`Status::Failed`] report for an isolated solver panic.
fn panic_report(
    req: &SolveRequest,
    solver: &'static str,
    payload: Box<dyn std::any::Any + Send>,
) -> SolveReport {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    let mut r = SolveReport::new(
        req.id.clone(),
        solver,
        Status::Failed,
        format!("solver panicked: {msg}"),
    );
    r.panicked = true;
    r
}

/// Runs one solver under panic isolation and budget enforcement:
/// builds the request's [`BudgetContext`], catches panics into
/// [`Status::Failed`], and applies the certificate-degradation policy
/// when the Observation 1.1 replay exhausts `sim_events`. Returns the
/// report, any certificate-degradation notes, and the context (for the
/// wire-visible budget block).
fn run_solver_isolated(
    s: &dyn crate::Solver,
    req: &SolveRequest,
    queued_at: Instant,
) -> (SolveReport, Vec<String>, BudgetContext) {
    let ctx = BudgetContext::for_request(req, queued_at);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut report = s.solve(req, &ctx);
        let mut notes = Vec::new();
        // every solved report gets an Observation 1.1 simulation
        // certificate before it leaves the engine; under a sim_events
        // budget the replay itself is metered
        if let Err(e) = crate::certify::attach(req.prepared.arc(), &mut report, ctx.meter()) {
            match policy_for(req, e.dimension) {
                ExhaustionPolicy::Degrade => {
                    // the solution stands on its analytic certification
                    // alone; the report stays solved, flagged
                    report.sim = None;
                    notes.push(format!("certificate degraded to analytic-only: {e}"));
                }
                _ => report = crate::solver::report_exhausted(req, report.solver, e),
            }
        }
        (report, notes)
    }));
    match outcome {
        Ok((report, notes)) => (report, notes, ctx),
        Err(payload) => (panic_report(req, s.name(), payload), Vec::new(), ctx),
    }
}

/// Stamps the wire-visible budget block onto a report of a budgeted
/// request: consumption from `ctx`, soft-warn flags, degradation notes,
/// and (when admitted past a soft queue-depth bound) the queue warning.
fn finalize_budget(
    report: &mut SolveReport,
    ctx: &BudgetContext,
    degraded: Vec<String>,
    queue_warning: Option<&Exhausted>,
) {
    let Some(mut block) = BudgetReport::from_context(ctx) else {
        return;
    };
    block.degraded = degraded;
    if let Some(e) = queue_warning {
        block
            .warnings
            .push(format!("{} {} > limit {}", e.dimension, e.consumed, e.limit));
    }
    report.budget = Some(block);
}

/// Executes one request against the registry, in the calling thread.
/// `queued_at` feeds the deadline check and the `queue_wait` counters;
/// pass `Instant::now()` for an interactive solve.
pub fn execute_one(
    registry: &Registry,
    req: &SolveRequest,
    queued_at: Instant,
) -> Vec<SolveReport> {
    execute_one_at(registry, req, queued_at, 0)
}

/// [`execute_one`] with an explicit queue position (requests enqueued
/// ahead of this one — the batch index), which feeds the queue-depth
/// admission dimension. Deterministic: the position is assigned at
/// enqueue, not observed from live queue state.
pub fn execute_one_at(
    registry: &Registry,
    req: &SolveRequest,
    queued_at: Instant,
    queue_position: usize,
) -> Vec<SolveReport> {
    execute_one_cached_at(registry, req, queued_at, queue_position, None)
}

/// Replays a solution-tier hit: overwrites the donor's id with the
/// requesting id, re-runs the **analytic validation** of whatever
/// solution form the report carries, then re-runs the full Observation
/// 1.1 certify replay against the requesting instance — a reused
/// report is exactly as certified as a fresh one, and the recomputed
/// `sim_makespan` is byte-identical because certification is
/// deterministic. The analytic step is what makes donor-less entries
/// (loaded from a `rtt-cache-v1` spill) safe to serve: a tampered or
/// stale solution fails it here, under the same panic isolation as a
/// live solve, and surfaces as one [`Status::Failed`] report.
fn replay_cached(req: &SolveRequest, mut hit: SolveReport) -> SolveReport {
    hit.id = req.id.clone();
    let solver = hit.solver;
    match catch_unwind(AssertUnwindSafe(move || {
        let arc = req.prepared.arc();
        if let Some(sol) = &hit.solution {
            rtt_core::validate(arc, sol)
                .expect("cached solution failed analytic re-validation");
        } else if let Some(nr) = &hit.noreuse {
            rtt_core::regimes::validate_noreuse(arc, nr)
                .expect("cached no-reuse solution failed analytic re-validation");
        } else if let Some(s) = &hit.schedule {
            let budget = match req.objective {
                crate::Objective::MinMakespan { budget } => budget,
                _ => s.peak_in_use,
            };
            rtt_core::verify_global_schedule(arc, budget, s)
                .expect("cached schedule failed analytic re-validation");
        }
        hit.sim = None;
        crate::certify::attach(arc, &mut hit, None)
            .expect("an unmetered certify replay cannot exhaust");
        hit
    })) {
        Ok(replayed) => replayed,
        Err(payload) => panic_report(req, solver, payload),
    }
}

/// [`execute_one_at`] with an optional cross-request [`crate::ReuseCache`]:
/// eligible requests — single solves *and* wire sweeps — probe the
/// solution tier before solving and park their report vector after
/// (see [`crate::reuse`] for the byte-identity contract). A sweep that
/// misses runs a self-contained crash-started chain
/// ([`crate::curve::execute_sweep_wire`]), so its on-wire pivot counts
/// cannot depend on cache state.
///
/// This is also where [`SolveRequest::intra_threads`] takes effect:
/// the whole execution runs inside an `rtt_par::with_threads` scope
/// (the scope is thread-local and panic-safe, so a batch worker can
/// carry different knobs for consecutive requests without leakage).
/// The knob never changes report bytes — `rtt_par` paths are
/// bit-identical at every thread count.
pub fn execute_one_cached_at(
    registry: &Registry,
    req: &SolveRequest,
    queued_at: Instant,
    queue_position: usize,
    reuse: Option<&crate::reuse::ReuseCache>,
) -> Vec<SolveReport> {
    rtt_par::with_threads_opt(req.intra_threads, || {
        execute_one_cached_inner(registry, req, queued_at, queue_position, reuse)
    })
}

fn execute_one_cached_inner(
    registry: &Registry,
    req: &SolveRequest,
    queued_at: Instant,
    queue_position: usize,
    reuse: Option<&crate::reuse::ReuseCache>,
) -> Vec<SolveReport> {
    let queue_wait = queued_at.elapsed();
    let overflow = queue_overflow(req, queue_position);
    let soft_overflow = overflow
        .as_ref()
        .filter(|_| policy_for(req, Dimension::QueueDepth) == ExhaustionPolicy::SoftWarn);
    let hard_overflow = if soft_overflow.is_none() { overflow } else { None };
    // Sweeps are a whole-request service (one LP chain → one report
    // per budget), dispatched before solver fan-out. Budgeted or
    // deadlined sweeps degrade to per-point cold solves and skip the
    // cache entirely — their wire-visible `consumed` counters must
    // describe this run's metered work, never a replay's.
    if let crate::Objective::MakespanSweep { budgets } = &req.objective {
        if deadline_expired(req, queue_wait) {
            return vec![expired_at_dequeue(req, "bicriteria", queue_wait)];
        }
        let started = Instant::now();
        let ctx = BudgetContext::for_request(req, queued_at);
        let mut reports = if let Some(e) = hard_overflow {
            vec![crate::solver::report_exhausted(req, "bicriteria", e)]
        } else if req.budget.is_some() || req.deadline.is_some() {
            match catch_unwind(AssertUnwindSafe(|| {
                crate::curve::execute_sweep_pointwise(req, budgets, &ctx)
            })) {
                Ok(reports) => reports,
                Err(payload) => vec![panic_report(req, "bicriteria", payload)],
            }
        } else {
            // solution-tier probe: a hit replays the whole cached
            // per-point vector (each report re-validated and
            // re-certified) instead of re-running the chain
            let cache_key = reuse.and_then(|c| {
                let key = crate::reuse::ReuseCache::solution_key(req, "bicriteria")?;
                if let Some(hits) = c.lookup_solution(&key, req) {
                    return Some(Err(hits));
                }
                Some(Ok(key))
            });
            if let Some(Err(hits)) = cache_key {
                hits.into_iter().map(|h| replay_cached(req, h)).collect()
            } else {
                let reports = match catch_unwind(AssertUnwindSafe(|| {
                    crate::curve::execute_sweep_wire(req, budgets, &ctx)
                })) {
                    Ok(reports) => reports,
                    Err(payload) => vec![panic_report(req, "bicriteria", payload)],
                };
                if let (Some(cache), Some(Ok(key))) = (reuse, cache_key) {
                    cache.store_solution(key, req, &reports);
                }
                reports
            }
        };
        let wall = started.elapsed();
        for r in &mut reports {
            finalize_budget(r, &ctx, Vec::new(), soft_overflow);
            r.wall = wall;
            r.queue_wait = queue_wait;
        }
        return reports;
    }
    // resolve the selection to concrete solvers first, so deadline
    // expiry yields the same report multiset a live run would
    let selected: Vec<&dyn crate::Solver> = match &req.solver {
        SolverSelection::Named(name) => match registry.resolve(name) {
            Some(s) => vec![s],
            None => {
                return vec![SolveReport::new(
                    req.id.clone(),
                    "registry",
                    Status::Unsupported,
                    format!("unknown solver {name:?}"),
                )]
            }
        },
        SolverSelection::All => registry.supporting_prepared(&req.prepared),
    };
    if deadline_expired(req, queue_wait) {
        return selected
            .iter()
            .map(|s| expired_at_dequeue(req, s.name(), queue_wait))
            .collect();
    }
    selected
        .iter()
        .map(|s| {
            let started = Instant::now();
            if let Some(e) = hard_overflow {
                // rejected at admission: no solver ran, no meter to read
                let mut r = crate::solver::report_exhausted(req, s.name(), e);
                finalize_budget(&mut r, &BudgetContext::for_request(req, queued_at), Vec::new(), None);
                r.queue_wait = queue_wait;
                return r;
            }
            // solution-tier probe: an eligible hit replays the cached
            // report (re-certified) instead of solving — byte-identical
            // by solver determinism, see crate::reuse
            let cache_key = reuse.and_then(|c| {
                let key = crate::reuse::ReuseCache::solution_key(req, s.name())?;
                if let Some(hits) = c.lookup_solution(&key, req) {
                    return Some(Err(hits));
                }
                Some(Ok(key))
            });
            if let Some(Err(mut hits)) = cache_key {
                // a non-sweep key maps to exactly one report (the store
                // below writes one; persist::load enforces the arity)
                let hit = hits.pop().expect("solution tier never stores empty vectors");
                debug_assert!(hits.is_empty(), "non-sweep entry held multiple reports");
                let mut report = replay_cached(req, hit);
                report.wall = started.elapsed();
                report.queue_wait = queue_wait;
                return report;
            }
            let (mut report, mut notes, mut ctx) = run_solver_isolated(*s, req, queued_at);
            // degrade dispatch: one level along the declared chain,
            // with a fresh meter (the exhausted one is saturated)
            if report.status == Status::BudgetExhausted {
                if let Some(e) = report.exhausted {
                    if policy_for(req, e.dimension) == ExhaustionPolicy::Degrade {
                        if let Some(fb) =
                            degrade_target(report.solver).and_then(|n| registry.resolve(n))
                        {
                            let original = report.solver;
                            let (fb_report, fb_notes, fb_ctx) =
                                run_solver_isolated(fb, req, queued_at);
                            report = fb_report;
                            report.degraded_from = Some(original);
                            notes = fb_notes;
                            notes.insert(0, format!("degraded from {original}: {e}"));
                            ctx = fb_ctx;
                        }
                    }
                }
            }
            finalize_budget(&mut report, &ctx, notes, soft_overflow);
            report.wall = started.elapsed();
            report.queue_wait = queue_wait;
            if let (Some(cache), Some(Ok(key))) = (reuse, cache_key) {
                cache.store_solution(key, req, std::slice::from_ref(&report));
            }
            report
        })
        .collect()
}

/// Drains `requests` through a pool of `threads` workers and returns
/// the reports in request order. `threads` is clamped to ≥ 1; the pool
/// is torn down before returning.
pub fn run_batch(
    registry: &Registry,
    requests: Vec<SolveRequest>,
    threads: usize,
) -> BatchOutcome {
    run_batch_cached(registry, requests, threads, None)
}

/// [`run_batch`] with an optional [`crate::reuse::ReuseCache`] shared
/// by every worker. The cache changes which reports are *computed*
/// versus *replayed* — never their bytes: for any fixed request
/// sequence, `run_batch_cached(.., Some(cache))` produces the same
/// report sequence as `run_batch(..)` at any thread count (the
/// differential proptests pin this).
pub fn run_batch_cached(
    registry: &Registry,
    requests: Vec<SolveRequest>,
    threads: usize,
    reuse: Option<&crate::reuse::ReuseCache>,
) -> BatchOutcome {
    let started = Instant::now();
    let threads = threads.max(1);
    let n = requests.len();
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<(usize, SolveRequest, Instant)>();
    let (res_tx, res_rx) = crossbeam::channel::unbounded::<(usize, Vec<SolveReport>)>();

    let enqueued = Instant::now();
    for (i, req) in requests.into_iter().enumerate() {
        job_tx.send((i, req, enqueued)).expect("receiver alive");
    }
    drop(job_tx); // workers drain to disconnect

    let mut slots: Vec<Option<Vec<SolveReport>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let job_rx = job_rx.clone();
            let res_tx = res_tx.clone();
            scope.spawn(move || {
                for (i, req, queued_at) in job_rx.iter() {
                    // the batch index doubles as the queue position: it
                    // is assigned at enqueue, so queue-depth admission
                    // stays deterministic across thread counts
                    let reports = execute_one_cached_at(registry, &req, queued_at, i, reuse);
                    if res_tx.send((i, reports)).is_err() {
                        break; // collector gone: nothing left to do
                    }
                }
            });
        }
        drop(res_tx);
        for (i, reports) in res_rx.iter() {
            slots[i] = Some(reports);
        }
    });

    let reports: Vec<SolveReport> = slots
        .into_iter()
        .flat_map(|s| s.expect("every request produces reports"))
        .collect();
    let stats = BatchStats {
        requests: n,
        reports: reports.len(),
        solved: reports
            .iter()
            .filter(|r| r.status == Status::Solved)
            .count(),
        expired: reports
            .iter()
            .filter(|r| r.status == Status::DeadlineExpired)
            .count(),
        rejected: reports
            .iter()
            .filter(|r| r.status == Status::BudgetExhausted)
            .count(),
        degraded: reports
            .iter()
            .filter(|r| {
                r.degraded_from.is_some()
                    || r.budget.as_ref().is_some_and(|b| !b.degraded.is_empty())
            })
            .count(),
        warned: reports
            .iter()
            .filter(|r| r.budget.as_ref().is_some_and(|b| !b.warnings.is_empty()))
            .count(),
        panicked: reports.iter().filter(|r| r.panicked).count(),
        threads,
    };
    BatchOutcome {
        reports,
        stats,
        wall: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::PreparedInstance;
    use crate::request::Objective;
    use rtt_core::instance::Activity;
    use rtt_core::ArcInstance;
    use rtt_dag::Dag;
    use rtt_duration::Duration;
    use std::sync::Arc;

    fn chain_instance(len: usize) -> ArcInstance {
        let mut g: Dag<(), Activity> = Dag::new();
        let mut prev = g.add_node(());
        for i in 0..len {
            let next = g.add_node(());
            g.add_edge(
                prev,
                next,
                Activity::new(Duration::two_point(10 + i as u64, 4, 1)),
            )
            .unwrap();
            prev = next;
        }
        ArcInstance::new(g).unwrap()
    }

    fn requests(k: usize) -> Vec<SolveRequest> {
        (0..k)
            .map(|i| {
                let prep = Arc::new(PreparedInstance::new(chain_instance(2 + i % 3)));
                SolveRequest::min_makespan(format!("r{i}"), prep, 4 + (i % 5) as u64)
            })
            .collect()
    }

    /// The deterministic projection of a report (timing stripped).
    fn key(r: &SolveReport) -> (String, String, String, Option<u64>, Option<u64>) {
        (
            r.id.clone(),
            r.solver.to_string(),
            r.status.as_str().to_string(),
            r.makespan,
            r.budget_used,
        )
    }

    #[test]
    fn batch_order_is_independent_of_thread_count() {
        let registry = Registry::standard();
        let baseline: Vec<_> = run_batch(&registry, requests(12), 1)
            .reports
            .iter()
            .map(key)
            .collect();
        assert!(!baseline.is_empty());
        for threads in [2, 4, 8] {
            let got: Vec<_> = run_batch(&registry, requests(12), threads)
                .reports
                .iter()
                .map(key)
                .collect();
            assert_eq!(baseline, got, "thread count {threads} changed the output");
        }
    }

    #[test]
    fn all_selection_reports_every_supporting_solver() {
        let registry = Registry::standard();
        let out = run_batch(&registry, requests(1), 2);
        let solvers: Vec<_> = out.reports.iter().map(|r| r.solver).collect();
        // chain instances are SP with step durations: the family
        // solvers drop out via supports(), the rest all answer
        assert!(solvers.contains(&"exact"));
        assert!(solvers.contains(&"bicriteria"));
        assert!(solvers.contains(&"sp-dp"));
        assert!(solvers.contains(&"noreuse-exact"));
        assert!(solvers.contains(&"global-greedy"));
        assert!(!solvers.contains(&"kway"));
        assert_eq!(out.stats.requests, 1);
        assert_eq!(out.stats.reports, out.reports.len());
        assert_eq!(out.stats.solved, out.reports.len(), "all must solve");
    }

    #[test]
    fn named_selection_and_unknown_name() {
        let registry = Registry::standard();
        let mut reqs = requests(2);
        reqs[0].solver = SolverSelection::Named("bicriteria".into());
        reqs[1].solver = SolverSelection::Named("no-such".into());
        let out = run_batch(&registry, reqs, 2);
        assert_eq!(out.reports.len(), 2);
        assert_eq!(out.reports[0].solver, "bicriteria");
        assert_eq!(out.reports[0].status, Status::Solved);
        assert_eq!(out.reports[1].status, Status::Unsupported);
        assert!(out.reports[1].detail.contains("unknown solver"));
    }

    #[test]
    fn expired_deadline_skips_the_solve() {
        let registry = Registry::standard();
        let prep = Arc::new(PreparedInstance::new(chain_instance(2)));
        let mut req = SolveRequest::min_makespan("late", prep, 4);
        req.solver = SolverSelection::Named("bicriteria".into());
        req.deadline = Some(StdDuration::ZERO);
        // queued "long ago": any positive wait exceeds a zero deadline
        let queued = Instant::now() - StdDuration::from_millis(50);
        let reports = execute_one(&registry, &req, queued);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].status, Status::DeadlineExpired);
        assert!(reports[0].makespan.is_none());
    }

    #[test]
    fn named_exact_runs_past_the_fanout_cap() {
        // 12 improvable jobs: above EXACT_JOB_CAP, so `all` skips the
        // exact solvers — but an explicitly named request still runs
        // (the old CLI behavior, kept)
        let registry = Registry::standard();
        let prep = Arc::new(PreparedInstance::new(chain_instance(12)));
        assert!(!registry
            .supporting_prepared(&prep)
            .iter()
            .any(|s| s.name() == "exact"));
        let req = SolveRequest::min_makespan("big", prep, 4).with_solver("exact");
        let reports = execute_one(&registry, &req, Instant::now());
        assert_eq!(reports[0].status, Status::Solved);
        assert!(reports[0].makespan.is_some());
    }

    #[test]
    fn min_resource_objective_flows_through() {
        let registry = Registry::standard();
        let prep = Arc::new(PreparedInstance::new(chain_instance(2)));
        let mut req = SolveRequest::min_resource("mr", prep, 6);
        req.solver = SolverSelection::Named("exact".into());
        let reports = execute_one(&registry, &req, Instant::now());
        assert_eq!(reports[0].status, Status::Solved);
        assert!(reports[0].makespan.unwrap() <= 6);
        let _ = Objective::MinResource { target: 6 };
    }

    // ---- budget enforcement and fault isolation -----------------

    use crate::budget::{BudgetLimits, BudgetPolicies, BudgetSpec, ExhaustionPolicy};

    /// A standard registry plus both fault-injection fixtures.
    fn faulty_registry() -> Registry {
        let mut r = Registry::standard();
        r.register(Box::new(crate::fixtures::AlwaysPanicSolver));
        r.register(Box::new(crate::fixtures::AlwaysExhaustSolver));
        r
    }

    fn spec_with(
        limits: BudgetLimits,
        policy: ExhaustionPolicy,
    ) -> Option<BudgetSpec> {
        Some(BudgetSpec {
            limits,
            policies: BudgetPolicies::uniform(policy),
        })
    }

    /// Satellite 1: the deadline boundary is closed. A zero deadline
    /// expires even when the clock has not ticked between enqueue and
    /// dequeue — expiry is policy, not timer resolution.
    #[test]
    fn zero_deadline_always_expires() {
        let registry = Registry::standard();
        let prep = Arc::new(PreparedInstance::new(chain_instance(2)));
        let mut req = SolveRequest::min_makespan("now", prep, 4);
        req.solver = SolverSelection::Named("bicriteria".into());
        req.deadline = Some(StdDuration::ZERO);
        // enqueue *now*: queue_wait may well be observed as exactly 0
        let reports = execute_one(&registry, &req, Instant::now());
        assert_eq!(reports[0].status, Status::DeadlineExpired);
        assert!(reports[0].makespan.is_none());
    }

    #[test]
    fn panicking_solver_is_isolated_and_the_batch_completes() {
        let registry = faulty_registry();
        let prep = Arc::new(PreparedInstance::new(chain_instance(2)));
        let mut reqs = vec![
            SolveRequest::min_makespan("boom", Arc::clone(&prep), 4)
                .with_solver("fixture-panic"),
        ];
        reqs.extend(requests(4));
        let out = run_batch(&registry, reqs, 2);
        let boom = &out.reports[0];
        assert_eq!(boom.status, Status::Failed);
        assert!(boom.panicked);
        assert!(
            boom.detail.contains("solver panicked")
                && boom.detail.contains("request boom"),
            "payload must survive: {}",
            boom.detail
        );
        assert_eq!(out.stats.panicked, 1);
        // every healthy request still answers in full
        assert!(out.reports[1..].iter().all(|r| r.status == Status::Solved));
    }

    #[test]
    fn pivot_exhaustion_hard_rejects_with_a_structured_reason() {
        let registry = faulty_registry();
        let prep = Arc::new(PreparedInstance::new(chain_instance(2)));
        let mut req = SolveRequest::min_makespan("cap", prep, 4)
            .with_solver("fixture-exhaust");
        req.budget = spec_with(
            BudgetLimits {
                lp_pivots: Some(10_000),
                ..Default::default()
            },
            ExhaustionPolicy::HardReject,
        );
        let reports = execute_one(&registry, &req, Instant::now());
        let r = &reports[0];
        assert_eq!(r.status, Status::BudgetExhausted);
        let e = r.exhausted.expect("structured reason");
        assert_eq!(e.dimension, Dimension::LpPivots);
        assert_eq!(e.limit, 10_000);
        assert!(e.consumed > e.limit);
        let block = r.budget.as_ref().expect("budgeted request has a block");
        assert_eq!(block.consumed.lp_pivots, e.consumed);
        assert!(block.warnings.is_empty() && block.degraded.is_empty());
    }

    #[test]
    fn merge_step_exhaustion_degrades_exact_to_bicriteria() {
        let registry = Registry::standard();
        let prep = Arc::new(PreparedInstance::new(chain_instance(3)));
        let mut req =
            SolveRequest::min_makespan("deg", Arc::clone(&prep), 4).with_solver("exact");
        req.budget = spec_with(
            BudgetLimits {
                dp_merge_steps: Some(1),
                ..Default::default()
            },
            ExhaustionPolicy::Degrade,
        );
        let reports = execute_one(&registry, &req, Instant::now());
        let r = &reports[0];
        assert_eq!(r.status, Status::Solved, "{}", r.detail);
        assert_eq!(r.solver, "bicriteria", "fallback answers");
        assert_eq!(r.degraded_from, Some("exact"));
        // the fallback's answer is a real certified bicriteria solve
        assert!(r.makespan.is_some());
        assert_eq!(r.makespan_factor, Some(2.0));
        assert_eq!(r.resource_factor, Some(2.0));
        assert!(r.sim.is_some(), "fallback report keeps its certificate");
        let block = r.budget.as_ref().expect("budget block");
        assert!(
            block.degraded.iter().any(|d| d.starts_with("degraded from exact:")),
            "degradation recorded: {:?}",
            block.degraded
        );
    }

    #[test]
    fn soft_warn_completes_at_full_fidelity_and_flags() {
        let registry = Registry::standard();
        let prep = Arc::new(PreparedInstance::new(chain_instance(3)));
        let mut req =
            SolveRequest::min_makespan("warn", Arc::clone(&prep), 4).with_solver("exact");
        req.budget = spec_with(
            BudgetLimits {
                dp_merge_steps: Some(1),
                ..Default::default()
            },
            ExhaustionPolicy::SoftWarn,
        );
        let reports = execute_one(&registry, &req, Instant::now());
        let r = &reports[0];
        assert_eq!(r.status, Status::Solved, "{}", r.detail);
        assert_eq!(r.solver, "exact", "no fallback under soft-warn");
        let block = r.budget.as_ref().expect("budget block");
        assert!(
            block
                .warnings
                .iter()
                .any(|w| w.starts_with("dp_merge_steps") && w.contains("> limit 1")),
            "overage flagged: {:?}",
            block.warnings
        );
        // the answer itself matches the unbudgeted solve
        let mut plain = SolveRequest::min_makespan("plain", prep, 4).with_solver("exact");
        plain.solver = SolverSelection::Named("exact".into());
        let baseline = execute_one(&registry, &plain, Instant::now());
        assert_eq!(r.makespan, baseline[0].makespan);
        assert_eq!(r.budget_used, baseline[0].budget_used);
    }

    #[test]
    fn queue_depth_bound_rejects_and_soft_warns_by_position() {
        let registry = Registry::standard();
        let prep = Arc::new(PreparedInstance::new(chain_instance(2)));
        let limits = BudgetLimits {
            queue_depth: Some(2),
            ..Default::default()
        };
        let mut req = SolveRequest::min_makespan("deep", Arc::clone(&prep), 4)
            .with_solver("bicriteria");
        req.budget = spec_with(limits, ExhaustionPolicy::HardReject);
        // position 1 (one request ahead): admitted
        let ok = execute_one_at(&registry, &req, Instant::now(), 1);
        assert_eq!(ok[0].status, Status::Solved);
        // position 2 (two ahead = at the bound): rejected at admission
        let rejected = execute_one_at(&registry, &req, Instant::now(), 2);
        assert_eq!(rejected[0].status, Status::BudgetExhausted);
        let e = rejected[0].exhausted.unwrap();
        assert_eq!(e.dimension, Dimension::QueueDepth);
        assert_eq!((e.limit, e.consumed), (2, 3));
        // same bound under soft-warn: admitted, flagged
        req.budget = spec_with(limits, ExhaustionPolicy::SoftWarn);
        let warned = execute_one_at(&registry, &req, Instant::now(), 2);
        assert_eq!(warned[0].status, Status::Solved);
        let block = warned[0].budget.as_ref().unwrap();
        assert_eq!(block.warnings, vec!["queue_depth 3 > limit 2".to_string()]);
    }

    /// Satellite 3: a batch mixing panicking, exhausting (under every
    /// policy), and healthy requests completes with report order — and
    /// the budget/fault fields — independent of the thread count.
    #[test]
    fn faulty_batch_is_thread_count_independent() {
        let registry = faulty_registry();

        fn faulty_requests() -> Vec<SolveRequest> {
            let prep = Arc::new(PreparedInstance::new(chain_instance(3)));
            let pivot_limits = BudgetLimits {
                lp_pivots: Some(2048),
                ..Default::default()
            };
            let merge_limits = BudgetLimits {
                dp_merge_steps: Some(1),
                ..Default::default()
            };
            let mut reqs = Vec::new();
            let mut push = |req: SolveRequest| reqs.push(req);
            push(
                SolveRequest::min_makespan("panic", Arc::clone(&prep), 4)
                    .with_solver("fixture-panic"),
            );
            let mut hard = SolveRequest::min_makespan("hard", Arc::clone(&prep), 4)
                .with_solver("fixture-exhaust");
            hard.budget = spec_with(pivot_limits, ExhaustionPolicy::HardReject);
            push(hard);
            let mut deg = SolveRequest::min_makespan("deg", Arc::clone(&prep), 4)
                .with_solver("exact");
            deg.budget = spec_with(merge_limits, ExhaustionPolicy::Degrade);
            push(deg);
            let mut warn = SolveRequest::min_makespan("warn", Arc::clone(&prep), 4)
                .with_solver("exact");
            warn.budget = spec_with(merge_limits, ExhaustionPolicy::SoftWarn);
            push(warn);
            for i in 0..4 {
                push(
                    SolveRequest::min_makespan(format!("ok{i}"), Arc::clone(&prep), 4)
                        .with_solver("bicriteria"),
                );
            }
            reqs
        }

        /// Deterministic projection including the new wire fields.
        fn fkey(r: &SolveReport) -> String {
            format!(
                "{}|{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}",
                r.id,
                r.solver,
                r.status.as_str(),
                r.makespan,
                r.degraded_from,
                r.exhausted.map(|e| (e.dimension.as_str(), e.limit, e.consumed)),
                r.budget.as_ref().map(|b| (
                    b.consumed.lp_pivots,
                    b.consumed.dp_merge_steps,
                    b.consumed.sim_events,
                    b.warnings.clone(),
                    b.degraded.clone(),
                )),
                r.panicked,
                r.detail,
            )
        }

        let base_out = run_batch(&registry, faulty_requests(), 1);
        assert_eq!(base_out.stats.panicked, 1);
        assert_eq!(base_out.stats.rejected, 1);
        assert_eq!(base_out.stats.degraded, 1);
        assert_eq!(base_out.stats.warned, 1);
        assert_eq!(base_out.stats.solved, 6, "deg + warn + 4 healthy");
        let baseline: Vec<String> = base_out.reports.iter().map(fkey).collect();
        for threads in [2, 4, 8] {
            let out = run_batch(&registry, faulty_requests(), threads);
            let got: Vec<String> = out.reports.iter().map(fkey).collect();
            assert_eq!(baseline, got, "thread count {threads} changed the output");
            assert_eq!(out.stats.panicked, 1);
            assert_eq!(out.stats.rejected, 1);
            assert_eq!(out.stats.degraded, 1);
            assert_eq!(out.stats.warned, 1);
        }
    }

    #[test]
    fn unbudgeted_requests_carry_no_budget_block() {
        // golden stability: the wire-visible budget machinery must be
        // invisible unless a request opts in
        let registry = Registry::standard();
        let out = run_batch(&registry, requests(3), 2);
        assert!(out
            .reports
            .iter()
            .all(|r| r.budget.is_none() && r.degraded_from.is_none() && !r.panicked));
        assert_eq!(out.stats.rejected, 0);
        assert_eq!(out.stats.degraded, 0);
        assert_eq!(out.stats.warned, 0);
        assert_eq!(out.stats.panicked, 0);
    }
}
