//! Simulation-backed certification of solved reports (Observation 1.1)
//! — for **every** pipeline in the registry.
//!
//! Analytic makespans in this repo are longest-path formulas over
//! duration functions. Observation 1.1 says the *actual* §1 execution —
//! memory cells applying one update per tick behind their locks — never
//! takes longer than that bound. This module closes the loop: every
//! solved report is **physically expanded** into an update-granular DAG
//! (each job becomes the reducer gadget its allocation buys) and
//! executed by [`rtt_sim`]'s event-heap engine with unbounded
//! processors. The simulated finish must be `≤` the reported makespan;
//! a violation is an engine bug and panics, like every other
//! certification failure in [`crate::solver`].
//!
//! The three solution forms the registry produces all replay through
//! the same per-arc-level expansion ([`expand_levels`]):
//!
//! * **routed** [`Solution`]s (the paper's reuse-over-paths regime):
//!   each arc runs at the gadget its routed flow buys —
//!   [`certify_solution`];
//! * **no-reuse** [`NoReuseSolution`]s (Q1.1): each arc runs at its
//!   dedicated level — [`certify_noreuse`];
//! * **global-pool** [`GlobalSchedule`]s (Q1.2): schedule-granular
//!   replay — each arc runs at the level it *held while scheduled*,
//!   whose duration it covered on the timeline, so the expansion's
//!   longest path (and hence the simulated finish) is within the
//!   schedule's makespan — [`certify_schedule`].
//!
//! # The expansion
//!
//! Arc-instance nodes become zero-work junctions (pure precedence);
//! each activity arc `e` with claimed duration `t_e` and resource level
//! `r_e` becomes a gadget whose longest path is at most `t_e`. The
//! gadget is the reducer the level buys: the duration's
//! [`level`](rtt_duration::Duration::level) of `r_e`, the canonical
//! breakpoint whose time `t_e(r_e)` is:
//!
//! * **recursive binary** (Eq. 3): a nonzero level `2^h` is the §1
//!   sibling reducer of height `h` —
//!   [`add_reducer_cells`], `2^h` leaf cells splitting the updates,
//!   `h` one-update sibling merges, one final root update
//!   (`⌈n/2^h⌉ + h + 1`);
//! * **k-way** (Eq. 2): a nonzero level `k` is `k` parallel cells
//!   feeding `k` serial merge updates into the shared variable
//!   (`⌈n/k⌉ + k`);
//! * **general step / constant, or level 0**: one serialized cell
//!   applying `t_e` updates (the claimed duration taken literally).
//!
//! Per-gadget paths are `≤ t_e` (validation guarantees
//! `t_e ≥ t_e(r_e)`), so every expanded source→sink path is `≤` the
//! claimed makespan — and the simulation can only *pipeline below*
//! that, which is exactly what the certificate records.
//!
//! # Cost
//!
//! Replay runs on the event-heap engine ([`rtt_sim::ExecModel`]), whose
//! cost is `O((V + E) log V)` in the *expansion's* nodes and arcs —
//! independent of the makespan and of the update counts, so a job of
//! `10^12` updates certifies as cheaply as one of 10. The PR-4
//! `SIM_COST_CAP` (updates × nodes, the tick loop's worst case) is
//! therefore gone; what remains is [`SIM_EVENT_GUARD`], a soft guard on
//! the event count that only pathological expansions (more arcs than
//! any instance this repo serves) can reach.

use crate::budget::ExhaustionPolicy;
use rtt_budget::{BudgetMeter, Exhausted};
use rtt_core::{ArcInstance, GlobalSchedule, NoReuseSolution, Solution};
use rtt_dag::{Dag, NodeId};
use rtt_duration::expand::{add_reducer_cells, ReducerVariant};
use rtt_duration::{is_infinite, DurationKind, Resource, Time};
use rtt_sim::ExecModel;

/// Soft guard on certification cost: expansions with more than this
/// many simulation *events* (expanded cells + update arcs — exactly
/// what one [`ExecModel::run_event`] call processes) skip the
/// certificate rather than risk unbounded serving latency. This is an
/// event-count bound, not the PR-4 update-count cap: makespan and
/// per-cell work no longer matter, only expansion size, and at ~50M
/// events the guard sits far above every workload the repo generates
/// (the `BENCH_pr5.json` coverage counts document that nothing real
/// skips). The count comes from the per-arc gadget plans before
/// anything is allocated, so an oversized expansion is never built.
pub const SIM_EVENT_GUARD: u64 = 50_000_000;

/// The result of simulating a reducer-expanded solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCertificate {
    /// Simulated finish tick with unbounded processors.
    pub simulated: Time,
    /// The reported (analytic) makespan the simulation must not exceed.
    pub bound: Time,
    /// Nodes of the expanded update-granular DAG.
    pub expanded_nodes: usize,
    /// Total updates the simulation applied.
    pub expanded_updates: u64,
    /// Peak simultaneously busy cells.
    pub peak_parallelism: usize,
}

impl SimCertificate {
    /// Whether Observation 1.1 held (always true for certificates the
    /// engine emits — a violation panics instead).
    pub fn holds(&self) -> bool {
        self.simulated <= self.bound
    }
}

/// How a gadget's entry cells receive their updates.
#[derive(Clone, Copy)]
enum Entry {
    /// All updates release when the source junction completes — the
    /// conservative gate, used whenever update provenance is unknown.
    Junction,
    /// One in-edge per incoming update of the source junction, wired
    /// round-robin across the entry cells — the §1 semantics: a cell
    /// drains updates as individual predecessors complete, so staggered
    /// updates pipeline (this is what lets the simulation run strictly
    /// below the makespan bound).
    PerUpdate,
}

/// Which gadget an arc expands into (see the module docs).
#[derive(Clone, Copy)]
enum Gadget {
    /// Sibling reducer at height `h` on `n` updates.
    Recbinary { n: Time, h: u32 },
    /// `k`-way split on `n` updates.
    Kway { n: Time, k: u64 },
    /// Serialized cell at the claimed duration (or a direct edge).
    Serial,
}

/// The gadget and entry wiring of every arc at its level `levels[e]`
/// and claimed duration `edge_times[e]`, and the events of the
/// expansion they build: its cells plus its arcs, exactly
/// [`ExecModel::event_count`] of the built model (saturating at
/// `u64::MAX`). Counted here, before anything of the expansion is
/// allocated, so an oversized one can be refused unbuilt; decided once
/// for both the count and the build, so the two cannot drift. Entry
/// cells take one update per in-arc when their total work equals the
/// source junction's in-degree (each in-arc is then exactly one update,
/// the race-DAG convention), the junction gate otherwise.
fn plan_arcs(
    arc: &ArcInstance,
    edge_times: &[Time],
    levels: &[Resource],
) -> (Vec<(Gadget, Entry)>, u64) {
    let d = arc.dag();
    let mut events = d.node_count() as u64;
    let plans = d
        .edge_refs()
        .map(|e| {
            let (t, r) = (edge_times[e.id.index()], levels[e.id.index()]);
            let in_deg = d.in_degree(e.src) as u64;
            let duration = &e.weight.duration;
            let gadget = match (duration.kind(), duration.level(r)) {
                (_, 0) | (DurationKind::Step, _) => Gadget::Serial,
                (DurationKind::RecursiveBinary { base: n }, cells) => Gadget::Recbinary {
                    n,
                    h: cells.trailing_zeros(),
                },
                (DurationKind::KWay { base: n }, k) => Gadget::Kway { n, k },
            };
            let work = match gadget {
                Gadget::Recbinary { n, .. } | Gadget::Kway { n, .. } => n,
                Gadget::Serial => t,
            };
            let entry = if work == in_deg && work > 0 {
                Entry::PerUpdate
            } else {
                Entry::Junction
            };
            // (cells, internal and exit arcs, entry cells)
            let (cells, arcs, entry_cells) = match gadget {
                Gadget::Recbinary { h, .. } => {
                    let leaves = 1u64 << h;
                    (leaves.saturating_mul(2), leaves.saturating_mul(2), leaves)
                }
                Gadget::Kway { k, .. } => (k + 1, k + 1, k),
                Gadget::Serial if t == 0 => (0, 1, 0),
                Gadget::Serial => (1, 1, 1),
            };
            let entry_arcs = match entry {
                Entry::PerUpdate => in_deg,
                Entry::Junction => entry_cells,
            };
            events = events
                .saturating_add(cells)
                .saturating_add(arcs)
                .saturating_add(entry_arcs);
            (gadget, entry)
        })
        .collect();
    (plans, events)
}

/// Physically expands per-arc claimed durations and resource levels
/// into an update-granular DAG plus its per-node work vector (see the
/// module docs for the gadgets). This is the one expansion all three
/// solution forms replay through: `levels[e]` is whatever the regime
/// says arc `e` runs at (routed flow, dedicated level, or the level
/// held on the schedule), and `edge_times[e]` the duration it claims —
/// which must be achievable at that level (`t_e ≥ t_e(levels[e])`) for
/// the gadget path to stay within the claim.
///
/// Two passes: gadget construction first (recording, per arc, the
/// *tail* node whose completion signals the activity's completion),
/// then entry wiring — pipelined per-update edges from the predecessor
/// arcs' tails when the entry cells' total work equals the source
/// junction's in-degree (each in-arc is then exactly one update, the
/// race-DAG convention), the junction gate otherwise.
pub fn expand_levels(
    arc: &ArcInstance,
    edge_times: &[Time],
    levels: &[Resource],
) -> (Dag<(), ()>, Vec<Time>) {
    let (plans, events) = plan_arcs(arc, edge_times, levels);
    let (g, works) = expand_planned(arc, edge_times, &plans);
    debug_assert_eq!((g.node_count() + g.edge_count()) as u64, events);
    (g, works)
}

/// [`expand_levels`] from the arcs' plans ([`plan_arcs`]).
fn expand_planned(
    arc: &ArcInstance,
    edge_times: &[Time],
    plans: &[(Gadget, Entry)],
) -> (Dag<(), ()>, Vec<Time>) {
    let d = arc.dag();
    let mut g: Dag<(), ()> = Dag::with_capacity(d.node_count(), d.edge_count());
    // junctions, one per original node, ids preserved, zero work
    let mut works: Vec<Time> = vec![0; d.node_count()];
    for _ in d.node_ids() {
        g.add_node(());
    }
    let cell = |g: &mut Dag<(), ()>, works: &mut Vec<Time>, w: Time| -> NodeId {
        let v = g.add_node(());
        works.push(w);
        v
    };
    // pass 1: gadgets (internal structure + exit into the dst junction)
    let mut tail: Vec<NodeId> = Vec::with_capacity(d.edge_count());
    let mut entries: Vec<(Entry, Vec<NodeId>)> = Vec::with_capacity(d.edge_count());
    for e in d.edge_refs() {
        let t = edge_times[e.id.index()];
        let (u, v) = (e.src, e.dst);
        let (gadget, mode) = plans[e.id.index()];
        match gadget {
            Gadget::Recbinary { n, h } => {
                let cells =
                    add_reducer_cells(&mut g, n, h, ReducerVariant::Sibling, |_, w| works.push(w));
                // the survivor's final update of the shared variable
                let root = cell(&mut g, &mut works, 1);
                g.add_edge(cells.survivors[0], root, ())
                    .expect("fresh node");
                g.add_edge(root, v, ()).expect("junction exists");
                tail.push(root);
                entries.push((mode, cells.leaves));
            }
            Gadget::Kway { n, k } => {
                // the shared variable absorbs one merge update per cell
                let hub = cell(&mut g, &mut works, k);
                let cells: Vec<NodeId> = (0..k)
                    .map(|i| {
                        let share = n / k + u64::from(i < n % k);
                        let c = cell(&mut g, &mut works, share);
                        g.add_edge(c, hub, ()).expect("fresh node");
                        c
                    })
                    .collect();
                g.add_edge(hub, v, ()).expect("junction exists");
                tail.push(hub);
                entries.push((mode, cells));
            }
            Gadget::Serial => {
                if t == 0 {
                    // pure precedence (dummy arcs): completes with u
                    g.add_edge(u, v, ()).expect("junctions exist");
                    tail.push(u);
                    entries.push((mode, Vec::new()));
                } else {
                    // lock-serialized cell at the claimed duration;
                    // per-update wiring applies when the claim equals
                    // the update count (no reducer engaged)
                    let c = cell(&mut g, &mut works, t);
                    g.add_edge(c, v, ()).expect("junction exists");
                    tail.push(c);
                    entries.push((mode, vec![c]));
                }
            }
        }
    }
    // pass 2: entry wiring
    for e in d.edge_refs() {
        let (mode, targets) = &entries[e.id.index()];
        if targets.is_empty() {
            continue; // direct edge, fully wired
        }
        match mode {
            Entry::Junction => {
                for &c in targets {
                    g.add_edge(e.src, c, ()).expect("nodes exist");
                }
            }
            Entry::PerUpdate => {
                // one edge per incoming update, round-robin over the
                // entry cells (index j lands on cell j mod L, which is
                // how the ceil-split shares were assigned)
                for (j, &in_arc) in d.in_edges(e.src).iter().enumerate() {
                    let c = targets[j % targets.len()];
                    g.add_edge(tail[in_arc.index()], c, ())
                        .expect("nodes exist");
                }
            }
        }
    }
    (g, works)
}

/// Expands, replays on the event engine, and wraps the result — shared
/// by the three per-form certifiers. `Ok(None)` when the claimed
/// durations are infinite or the expansion exceeds [`SIM_EVENT_GUARD`]
/// (the soft guard predates budgets and stays as the absolute
/// backstop); `Err` when a metered replay exhausts its `sim_events`
/// budget mid-simulation.
fn certify_expansion(
    arc: &ArcInstance,
    edge_times: &[Time],
    levels: &[Resource],
    bound: Time,
    meter: Option<&BudgetMeter>,
) -> Result<Option<SimCertificate>, Exhausted> {
    if is_infinite(bound) || edge_times.iter().any(|&t| is_infinite(t)) {
        return Ok(None);
    }
    // count first: an expansion past the guard is never allocated
    let (plans, events) = plan_arcs(arc, edge_times, levels);
    if events > SIM_EVENT_GUARD {
        return Ok(None);
    }
    let (g, works) = expand_planned(arc, edge_times, &plans);
    let model = ExecModel::from_works(&g, &works);
    debug_assert_eq!(
        model.event_count(),
        events,
        "the pre-count must match the model"
    );
    let res = model.run_event_metered(meter)?;
    Ok(Some(SimCertificate {
        simulated: res.finish,
        bound,
        expanded_nodes: g.node_count(),
        expanded_updates: res.updates_applied,
        peak_parallelism: res.peak_parallelism,
    }))
}

/// Simulates the reducer expansion of a routed `sol` (each arc at its
/// routed flow) and returns the Observation 1.1 certificate, or `None`
/// when the solution cannot be simulated (infinite durations, or an
/// expansion past [`SIM_EVENT_GUARD`]). Under a cooperative budget
/// `meter` the replay charges `sim_events` (one per heap pop plus its
/// released successors) and bails out with a typed [`Exhausted`] when
/// the request's event budget trips; without one it cannot fail.
pub fn certify_solution(
    arc: &ArcInstance,
    sol: &Solution,
    meter: Option<&BudgetMeter>,
) -> Result<Option<SimCertificate>, Exhausted> {
    certify_expansion(arc, &sol.edge_times, &sol.arc_flows, sol.makespan, meter)
}

/// Simulates the reducer expansion of a no-reuse solution (Q1.1): each
/// arc runs at its *dedicated* level. The claimed `edge_times` are
/// achievable at those levels ([`rtt_core::regimes::validate_noreuse`]
/// checks exactly that), so every expanded path is within the claimed
/// makespan and the replay can only pipeline below it. `meter` as in
/// [`certify_solution`].
pub fn certify_noreuse(
    arc: &ArcInstance,
    sol: &NoReuseSolution,
    meter: Option<&BudgetMeter>,
) -> Result<Option<SimCertificate>, Exhausted> {
    certify_expansion(arc, &sol.edge_times, &sol.levels, sol.makespan, meter)
}

/// Schedule-granular replay of a global-pool schedule (Q1.2): each arc
/// expands into the gadget of the level it **held while running**, at
/// the duration that level buys (`t_e(level)` — which the schedule
/// covered on the timeline, per
/// [`rtt_core::verify_global_schedule`]'s duration check). Since every
/// arc started after its predecessors finished, the expansion's
/// longest path is at most the last finish, hence at most the
/// schedule's makespan — the replayed finish certifies it under
/// Observation 1.1. (The pool constraint itself is the *analytic*
/// verifier's job; the replay certifies the physical execution.)
/// `meter` as in [`certify_solution`].
pub fn certify_schedule(
    arc: &ArcInstance,
    s: &GlobalSchedule,
    meter: Option<&BudgetMeter>,
) -> Result<Option<SimCertificate>, Exhausted> {
    let d = arc.dag();
    let times: Vec<Time> = d
        .edge_ids()
        .map(|e| arc.arc_time(e, s.level[e.index()]))
        .collect();
    certify_expansion(arc, &times, &s.level, s.makespan, meter)
}

/// Attaches the simulation certificate to a solved report of `req` —
/// whichever solution form it carries (routed flow, no-reuse levels, or
/// a global schedule) — panicking if Observation 1.1 fails (an engine
/// bug, treated like every other certification failure). This is the
/// one Observation 1.1 entry for reports: the executor calls it on
/// every solver's answer and every solution-tier replay, the curve
/// service on every sweep point.
///
/// A metered replay that exhausts its budget leaves `report.sim`
/// `None` and applies the request's exhaustion policy. Under `degrade`
/// the solution stands on its analytic certification alone: the report
/// stays solved and a note naming the exhaustion joins its budget
/// block's `degraded` list (the executor completes the block). Under
/// any other policy the typed error is returned, and the caller fails
/// the report.
pub(crate) fn attach(
    req: &crate::SolveRequest,
    report: &mut crate::SolveReport,
    meter: Option<&BudgetMeter>,
) -> Result<(), Exhausted> {
    if report.status != crate::Status::Solved {
        return Ok(());
    }
    let arc = req.prepared.arc();
    let cert = if let Some(sol) = &report.solution {
        certify_solution(arc, sol, meter)
    } else if let Some(nr) = &report.noreuse {
        certify_noreuse(arc, nr, meter)
    } else if let Some(s) = &report.schedule {
        certify_schedule(arc, s, meter)
    } else {
        Ok(None)
    };
    match cert {
        Ok(Some(cert)) => {
            assert!(
                cert.holds(),
                "Observation 1.1 violated: simulated {} > reported makespan {} \
                 (solver {}, request {})",
                cert.simulated,
                cert.bound,
                report.solver,
                report.id,
            );
            report.sim = Some(cert);
        }
        Ok(None) => {}
        Err(e) if crate::budget::policy_for(req, e.dimension) == ExhaustionPolicy::Degrade => {
            let block = report.budget.get_or_insert_with(Default::default);
            block
                .degraded
                .push(format!("certificate degraded to analytic-only: {e}"));
        }
        Err(e) => return Err(e),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_core::instance::{Activity, Job};
    use rtt_core::{to_arc_form, Instance};
    use rtt_duration::Duration;

    /// A star of `n` updates into one recbinary cell, via node form.
    fn recbinary_star(n: u64) -> ArcInstance {
        let mut g: Dag<(), ()> = Dag::new();
        let s = g.add_node(());
        let x = g.add_node(());
        let t = g.add_node(());
        g.add_parallel_edges(s, x, (), n as usize).unwrap();
        g.add_edge(x, t, ()).unwrap();
        let inst = Instance::race_dag(&g, Duration::recursive_binary).unwrap();
        to_arc_form(&inst).0
    }

    #[test]
    fn exact_solutions_certify_on_reducer_instances() {
        let arc = recbinary_star(64);
        for budget in [0u64, 2, 4, 8, 16] {
            let ex = rtt_core::exact::solve_exact(&arc, budget);
            let cert = certify_solution(&arc, &ex.solution, None)
                .unwrap()
                .expect("finite instance");
            assert!(
                cert.holds(),
                "budget {budget}: simulated {} > bound {}",
                cert.simulated,
                cert.bound
            );
            assert_eq!(cert.bound, ex.solution.makespan);
        }
    }

    #[test]
    fn zero_budget_expansion_is_the_raw_race_dag() {
        let arc = recbinary_star(16);
        let ex = rtt_core::exact::solve_exact(&arc, 0);
        let cert = certify_solution(&arc, &ex.solution, None).unwrap().unwrap();
        // no reducers: the hub cell serializes all 16 updates, plus the
        // single update of the sink job
        assert_eq!(cert.bound, 16 + 1);
        assert_eq!(cert.simulated, cert.bound, "chains cannot pipeline");
    }

    #[test]
    fn reducer_gadget_path_matches_eq3() {
        let arc = recbinary_star(64);
        // budget 8 buys height 3: ⌈64/8⌉ + 3 + 1 = 12 on the hub
        let ex = rtt_core::exact::solve_exact(&arc, 8);
        let cert = certify_solution(&arc, &ex.solution, None).unwrap().unwrap();
        assert_eq!(ex.solution.makespan, 12 + 1);
        assert!(cert.simulated <= cert.bound);
        assert!(
            cert.peak_parallelism >= 8,
            "leaf cells must run in parallel"
        );
    }

    #[test]
    fn staggered_updates_pipeline_strictly_below_the_bound() {
        // race DAG: input i0 feeds a (3 updates) and b (1 update); z
        // applies one update from each. Analytically z starts after a:
        // bound = 3 + 2 = 5. In the §1 execution z drains b's update
        // while a is still running and finishes at 4.
        let mut g: Dag<(), ()> = Dag::new();
        let i0 = g.add_node(());
        let a = g.add_node(());
        let b = g.add_node(());
        let z = g.add_node(());
        g.add_parallel_edges(i0, a, (), 3).unwrap();
        g.add_edge(i0, b, ()).unwrap();
        g.add_edge(a, z, ()).unwrap();
        g.add_edge(b, z, ()).unwrap();
        let inst = Instance::race_dag_normalized(&g, Duration::recursive_binary).unwrap();
        let arc = to_arc_form(&inst).0;
        let ex = rtt_core::exact::solve_exact(&arc, 0);
        assert_eq!(ex.solution.makespan, 5);
        let cert = certify_solution(&arc, &ex.solution, None).unwrap().unwrap();
        assert_eq!(
            cert.simulated, 4,
            "per-update wiring must let z pipeline below the bound"
        );
    }

    #[test]
    fn kway_gadget_certifies() {
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::labeled("s", Duration::zero()));
        let x = g.add_node(Job::labeled("x", Duration::kway(100)));
        let t = g.add_node(Job::labeled("t", Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(x, t, ()).unwrap();
        let arc = to_arc_form(&Instance::new(g).unwrap()).0;
        for budget in [0u64, 2, 5, 10, 100] {
            let ex = rtt_core::exact::solve_exact(&arc, budget);
            let cert = certify_solution(&arc, &ex.solution, None).unwrap().unwrap();
            assert!(cert.holds(), "budget {budget}: {cert:?}");
        }
    }

    #[test]
    fn infinite_durations_skip_certification() {
        let mut g: Dag<(), Activity> = Dag::new();
        let s = g.add_node(());
        let t = g.add_node(());
        g.add_edge(s, t, Activity::new(Duration::constant(rtt_duration::INF)))
            .unwrap();
        let arc = ArcInstance::new(g).unwrap();
        let sol = Solution {
            arc_flows: vec![0],
            edge_times: vec![rtt_duration::INF],
            makespan: rtt_duration::INF,
            budget_used: 0,
        };
        assert!(certify_solution(&arc, &sol, None).unwrap().is_none());
    }

    #[test]
    fn noreuse_solutions_certify_at_their_levels() {
        let arc = recbinary_star(64);
        for budget in [0u64, 2, 4, 8, 16] {
            let sol = rtt_core::solve_noreuse_exact(&arc, budget);
            rtt_core::regimes::validate_noreuse(&arc, &sol).unwrap();
            let cert = certify_noreuse(&arc, &sol, None)
                .unwrap()
                .expect("finite instance");
            assert!(
                cert.holds(),
                "budget {budget}: simulated {} > bound {}",
                cert.simulated,
                cert.bound
            );
            assert_eq!(cert.bound, sol.makespan);
        }
        // budget 0 anchors the curve: the replay is the raw race DAG
        let sol0 = rtt_core::solve_noreuse_exact(&arc, 0);
        let cert0 = certify_noreuse(&arc, &sol0, None).unwrap().unwrap();
        assert_eq!(cert0.bound, arc.base_makespan());
        assert_eq!(cert0.simulated, cert0.bound, "chains cannot pipeline");
    }

    #[test]
    fn global_schedules_certify_schedule_granularly() {
        let arc = recbinary_star(64);
        for budget in [0u64, 2, 4, 8, 16] {
            for policy in [
                rtt_core::GlobalPolicy::Eager,
                rtt_core::GlobalPolicy::Patient,
            ] {
                let s = rtt_core::global_reuse_schedule(&arc, budget, policy);
                rtt_core::verify_global_schedule(&arc, budget, &s).unwrap();
                let cert = certify_schedule(&arc, &s, None)
                    .unwrap()
                    .expect("finite instance");
                assert!(
                    cert.holds(),
                    "budget {budget} {policy:?}: simulated {} > bound {}",
                    cert.simulated,
                    cert.bound
                );
                assert_eq!(cert.bound, s.makespan);
            }
        }
    }

    #[test]
    fn event_guard_skips_oversized_expansions_only() {
        // the certify path itself never builds a 50M-event expansion
        // from the repo's workloads; the guard is exercised by shrinking
        // it conceptually — here we just pin that a normal expansion is
        // orders of magnitude below it
        let arc = recbinary_star(64);
        let ex = rtt_core::exact::solve_exact(&arc, 8);
        let (g, works) = expand_levels(&arc, &ex.solution.edge_times, &ex.solution.arc_flows);
        // the guard's own metric, not a re-derivation of it
        let events = ExecModel::from_works(&g, &works).event_count();
        assert!(
            events < SIM_EVENT_GUARD / 1000,
            "expansion events: {events}"
        );
    }

    #[test]
    fn event_precount_matches_every_fixture_expansion() {
        let mut cases: Vec<(ArcInstance, Solution)> = Vec::new();
        for n in [16u64, 64] {
            let arc = recbinary_star(n);
            for budget in [0u64, 2, 4, 8, 16] {
                let sol = rtt_core::exact::solve_exact(&arc, budget).solution;
                cases.push((arc.clone(), sol));
            }
        }
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::labeled("s", Duration::zero()));
        let x = g.add_node(Job::labeled("x", Duration::kway(100)));
        let t = g.add_node(Job::labeled("t", Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(x, t, ()).unwrap();
        let kway = to_arc_form(&Instance::new(g).unwrap()).0;
        for budget in [0u64, 2, 5, 10, 100] {
            let sol = rtt_core::exact::solve_exact(&kway, budget).solution;
            cases.push((kway.clone(), sol));
        }
        for (arc, sol) in &cases {
            let (g, works) = expand_levels(arc, &sol.edge_times, &sol.arc_flows);
            assert_eq!(
                plan_arcs(arc, &sol.edge_times, &sol.arc_flows).1,
                ExecModel::from_works(&g, &works).event_count(),
                "flows {:?}",
                sol.arc_flows
            );
        }
    }

    #[test]
    fn oversized_expansions_get_no_certificate() {
        // one recursive-binary job of 10^12 updates routed 2^40 units:
        // its gadget has height 40, so 2^41 cells — far past the guard,
        // and refused before any of it is allocated
        let mut g: Dag<Job, ()> = Dag::new();
        let s = g.add_node(Job::labeled("s", Duration::zero()));
        let x = g.add_node(Job::labeled(
            "x",
            Duration::recursive_binary(1_000_000_000_000),
        ));
        let t = g.add_node(Job::labeled("t", Duration::zero()));
        g.add_edge(s, x, ()).unwrap();
        g.add_edge(x, t, ()).unwrap();
        let arc = to_arc_form(&Instance::new(g).unwrap()).0;
        let flow = 1u64 << 40;
        let d = arc.dag();
        let edge_times: Vec<Time> = d.edge_ids().map(|e| arc.arc_time(e, flow)).collect();
        let makespan = rtt_dag::longest_path_edges(d, |e| edge_times[e.index()])
            .unwrap()
            .weight;
        let sol = Solution {
            arc_flows: vec![flow; d.edge_count()],
            edge_times,
            makespan,
            budget_used: flow,
        };
        rtt_core::validate(&arc, &sol).unwrap();
        assert!(plan_arcs(&arc, &sol.edge_times, &sol.arc_flows).1 > SIM_EVENT_GUARD);
        assert!(certify_solution(&arc, &sol, None).unwrap().is_none());
    }

    #[test]
    fn single_arc_expansion_critical_path_is_the_duration_time() {
        // one arc s → t claiming its zero-resource time: at level r the
        // expansion's longest path of works must be exactly what r buys,
        // which only the reducer that level names reaches (a serialized
        // cell would keep the claim)
        for n in [1u64, 2, 6, 8, 17, 64, 100, 1000] {
            for duration in [Duration::recursive_binary(n), Duration::kway(n)] {
                let mut g: Dag<(), Activity> = Dag::new();
                let s = g.add_node(());
                let t = g.add_node(());
                g.add_edge(s, t, Activity::new(duration.clone())).unwrap();
                let arc = ArcInstance::new(g).unwrap();
                for r in (0..=40u64).chain([64, 1 << 20]) {
                    let (g, works) = expand_levels(&arc, &[duration.base_time()], &[r]);
                    let critical = rtt_dag::longest_path_nodes(&g, |v| works[v.index()])
                        .unwrap()
                        .weight;
                    assert_eq!(critical, duration.time(r), "{duration} r={r}");
                }
            }
        }
    }
}
