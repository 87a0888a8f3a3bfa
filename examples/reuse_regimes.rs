//! The three reuse regimes of §1, measured side by side.
//!
//! The paper asks three questions about a budget of extra space:
//! Question 1.1 (no reuse — dedicated allocations), Question 1.2
//! (global reuse — a central pool), and Question 1.3 (reuse over
//! source→sink paths — the paper's subject). This example builds
//! instances that separate the three and prints the measured makespans,
//! reproducing the hierarchy the introduction argues qualitatively:
//!
//! * serial structure: path reuse matches global reuse, both beat
//!   dedicated allocations;
//! * parallel structure: only the global pool can recycle units across
//!   branches — the gap path-reuse accepts in exchange for avoiding a
//!   central allocator bottleneck.
//!
//! Run with: `cargo run --release --example reuse_regimes`

use resource_time_tradeoff::core::regimes::{
    compare_regimes, global_reuse_schedule, solve_noreuse_exact, sp_noreuse_curve, GlobalPolicy,
};
use resource_time_tradeoff::core::sp_dp::solve_sp_exact;
use resource_time_tradeoff::core::transform::to_arc_form;
use resource_time_tradeoff::core::{ArcInstance, Instance, Job};
use resource_time_tradeoff::dag::Dag;
use resource_time_tradeoff::duration::Duration;

/// A pipeline of `depth` stages, each an improvable job (10 → 0 for 4
/// units): the friendliest case for reuse over paths.
fn pipeline(depth: usize) -> ArcInstance {
    let mut g: Dag<Job, ()> = Dag::new();
    let s = g.add_node(Job::labeled("s", Duration::zero()));
    let mut prev = s;
    for i in 0..depth {
        let v = g.add_node(Job::labeled(
            format!("stage{i}"),
            Duration::two_point(10, 4, 0),
        ));
        g.add_edge(prev, v, ()).unwrap();
        prev = v;
    }
    let t = g.add_node(Job::labeled("t", Duration::zero()));
    g.add_edge(prev, t, ()).unwrap();
    to_arc_form(&Instance::new(g).unwrap()).0
}

/// `width` parallel branches (10 → 1 for 4 units each): the case where
/// paths cannot share but a global pool can.
fn fan(width: usize) -> ArcInstance {
    let mut g: Dag<Job, ()> = Dag::new();
    let s = g.add_node(Job::labeled("s", Duration::zero()));
    let t = g.add_node(Job::labeled("t", Duration::zero()));
    for i in 0..width {
        let v = g.add_node(Job::labeled(
            format!("branch{i}"),
            Duration::two_point(10, 4, 1),
        ));
        g.add_edge(s, v, ()).unwrap();
        g.add_edge(v, t, ()).unwrap();
    }
    to_arc_form(&Instance::new(g).unwrap()).0
}

fn show(name: &str, arc: &ArcInstance, budgets: &[u64]) {
    println!("\n== {name} (base makespan {}) ==", arc.base_makespan());
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>16}",
        "B", "no-reuse (1.1)", "paths (1.3)", "global-eager", "global-patient"
    );
    for &b in budgets {
        let c = compare_regimes(arc, b);
        println!(
            "{:>6} {:>14} {:>14} {:>14} {:>16}",
            b, c.noreuse, c.path_reuse, c.global_eager, c.global_patient
        );
    }
}

fn main() {
    // ---- serial pipeline: reuse over the path is all you need ---------
    let pipe = pipeline(4);
    show("pipeline of 4 stages", &pipe, &[0, 4, 8, 16]);
    println!(
        "note: at B = 4 path reuse already reaches the floor — the same\n\
         4 units expedite all four stages as they flow down the chain;\n\
         no-reuse needs 16."
    );

    // ---- parallel fan: paths cannot share, the pool can ----------------
    let f = fan(4);
    show("fan of 4 branches", &f, &[0, 4, 8, 16]);
    println!(
        "note: at B = 4 the global pool runs branches back to back while\n\
         path reuse must leave three branches unimproved: the cost of\n\
         avoiding a central allocator (the paper's §1 motivation)."
    );

    // ---- the whole tradeoff curve on a series-parallel instance -------
    let (sp, _) = solve_sp_exact(&pipe, 16).expect("pipeline is series-parallel");
    let nr = sp_noreuse_curve(&pipe, 16).expect("series-parallel");
    println!("\n== pipeline tradeoff curves (makespan per budget) ==");
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "B", "no-reuse", "path-reuse", "advantage"
    );
    for b in (0..=16).step_by(2) {
        let advantage = nr[b] as i64 - sp.curve[b] as i64;
        println!(
            "{:>6} {:>12} {:>12} {:>12}",
            b, nr[b], sp.curve[b], advantage
        );
    }

    // ---- one concrete schedule, for intuition ---------------------------
    let sched = global_reuse_schedule(&f, 4, GlobalPolicy::Patient);
    println!(
        "\nglobal-patient on the fan at B = 4: makespan {}, peak in use {}",
        sched.makespan, sched.peak_in_use
    );
    let nr = solve_noreuse_exact(&f, 4);
    println!(
        "no-reuse exact at B = 4: makespan {} with {} unit(s) spent",
        nr.makespan, nr.budget_used
    );
}
