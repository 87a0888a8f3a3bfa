//! Bit-exact LP oracle: one FNV-1a digest over the complete output of a
//! fixed, seeded set of revised-simplex solves.
//!
//! The batch wire carries pivot counts (`work`) and LP objectives in
//! shortest round-trip form, so a change to the simplex kernel (eta
//! file layout, refactorization, pricing plumbing) must leave every
//! solve **bit-identical**, not merely within tolerance. This test folds
//! each solve's objective bits, every bit pattern of its primal vector,
//! its pivot count and every [`LpStats`] counter into one digest and
//! compares it with the committed value.
//!
//! The set covers every LP path the pipeline takes, and more:
//!
//! * crash-started `MakespanLp` solves (phase 2 only);
//! * `solve_sweep` chains (dual reoptimization from point to point);
//! * warm solves from a foreign basis: a donor's optimal basis
//!   installed into its `perturb_durations` sibling (same LP layout,
//!   other coefficients), then a budget step. No pipeline path does
//!   this; it stays as kernel coverage of installing a basis the
//!   problem did not produce;
//! * `regimes::solve_noreuse_lp`, the cold two-phase path that spends
//!   the most pivots in phase 1;
//! * `solve_min_resource_lp`;
//! * `revised::solve_rhs_sweep` and cold/warm solves on random
//!   `Problem`s, whose dense rows give refactorizations a
//!   non-triangular kernel.
//!
//! A mismatch means a solve changed bits. If that is intended, the
//! change is a wire change: re-measure, update the goldens and the
//! digest together, and say so in the change description.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtt_bench::fixtures::{perturb_durations, race_instance, sp_instance};
use rtt_core::lp_build::{solve_min_resource_lp, FractionalSolution, LpError, MakespanLp};
use rtt_core::regimes::solve_noreuse_lp;
use rtt_core::{expand_two_tuples, ArcInstance};
use rtt_lp::revised::{crash_basis, solve_rhs_sweep, CrashVar};
use rtt_lp::{Basis, Cmp, Engine, LpStats, Outcome, PivotRule, Problem, Solution};

/// The digest measured on the commit that introduced this test.
const LP_DIGEST: u64 = 0x07d4_8d55_59b9_ff71;

/// FNV-1a 64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn stats(&mut self, s: &LpStats) {
        for c in [
            s.rows,
            s.cols,
            s.bound_rows,
            s.bound_cols,
            s.phase1_pivots,
            s.phase2_pivots,
            s.bound_flips,
            s.refactorizations,
        ] {
            self.word(c as u64);
        }
        self.word(s.warm as u64);
    }

    fn solution(&mut self, s: &Solution) {
        self.word(s.objective.to_bits());
        self.f64s(&s.x);
        self.word(s.pivots as u64);
        self.stats(&s.stats);
    }

    fn outcome(&mut self, o: &Outcome) {
        match o {
            Outcome::Optimal(s) => {
                self.word(0);
                self.solution(s);
            }
            Outcome::Infeasible => self.word(1),
            Outcome::Unbounded => self.word(2),
            Outcome::Exhausted(_) => self.word(3),
        }
    }

    /// A pipeline-level LP answer: the objective (`makespan`), the
    /// primal vector split into flows and event times, and the counters.
    fn fractional(&mut self, r: &Result<FractionalSolution, LpError>) {
        match r {
            Ok(f) => {
                self.word(0);
                self.word(f.makespan.to_bits());
                self.word(f.budget_used.to_bits());
                self.f64s(&f.flows);
                self.f64s(&f.times);
                self.word(f.pivots as u64);
                self.stats(&f.stats);
            }
            Err(LpError::Infeasible) => self.word(1),
            Err(LpError::Unbounded) => self.word(2),
            Err(LpError::Exhausted(_)) => self.word(3),
        }
    }
}

/// The pipeline instances: seeded race DAGs (recursive-binary durations)
/// and series-parallel DAGs, a few sizes each.
fn instances() -> Vec<ArcInstance> {
    let mut out = Vec::new();
    for seed in 1..=2u64 {
        for nodes in [8usize, 14] {
            out.push(race_instance(seed * 100 + nodes as u64, nodes));
        }
        for leaves in [12usize, 24] {
            out.push(sp_instance(seed * 100 + leaves as u64, leaves));
        }
    }
    out
}

fn pipeline_digest(fnv: &mut Fnv) -> usize {
    let mut solves = 0;
    for arc in instances() {
        let tt = expand_two_tuples(&arc);
        let mut lp = MakespanLp::new(&tt);

        // crash-started solves
        for budget in [0u64, 4, 12] {
            lp.set_budget(budget);
            fnv.fractional(&lp.solve_with(&tt, Engine::Revised));
            solves += 1;
        }

        // warm sweep chains, from the budget-0 anchor and from above it
        for grid in [(0..10).collect::<Vec<u64>>(), vec![4, 9, 2, 14]] {
            match lp.solve_sweep(&tt, &grid, None) {
                Ok((points, _)) => {
                    for p in &points {
                        fnv.fractional(&Ok(p.clone()));
                    }
                    solves += points.len();
                }
                Err(e) => {
                    fnv.fractional(&Err(e));
                    solves += 1;
                }
            }
        }

        // foreign-basis installs: the donor's optimal basis reoptimizes
        // its duration-perturbed sibling (same layout, so it always
        // fits), then a budget step follows
        let sibling = perturb_durations(&arc);
        let stt = expand_two_tuples(&sibling);
        let mut slp = MakespanLp::new(&stt);
        lp.set_budget(8);
        let donor = lp.solve_warm(&tt, None);
        let offered = donor.as_ref().ok().and_then(|(_, b)| b.clone());
        fnv.fractional(&donor.map(|(f, _)| f));
        slp.set_budget(8);
        let delta = slp.solve_warm(&stt, offered.as_ref());
        let next = delta.as_ref().ok().and_then(|(_, b)| b.clone());
        fnv.fractional(&delta.map(|(f, _)| f));
        slp.set_budget(9);
        fnv.fractional(&slp.solve_warm(&stt, next.as_ref()).map(|(f, _)| f));
        solves += 3;

        // the no-reuse LP: cold two-phase, phase 1 heavy
        for budget in [0u64, 8] {
            fnv.fractional(&solve_noreuse_lp(&tt, budget));
            solves += 1;
        }

        // min-resource at targets between the ideal and base makespan
        lp.set_budget(0);
        let base = lp
            .solve_with(&tt, Engine::Revised)
            .expect("budget-0 LP is feasible")
            .makespan;
        for frac in [0.75, 0.4] {
            fnv.fractional(&solve_min_resource_lp(&tt, (base * frac) as u64));
            solves += 1;
        }
    }
    solves
}

fn random_problem(rng: &mut StdRng, n: usize, rows: usize) -> Problem {
    let mut p = Problem::minimize(n);
    for j in 0..n {
        p.set_objective(j, rng.random_range(-4..5i32) as f64);
        if rng.random_bool(0.5) {
            p.set_upper_bound(j, rng.random_range(0..8i32) as f64);
        }
    }
    for _ in 0..rows {
        let mut coeffs: Vec<(usize, f64)> = Vec::new();
        for j in 0..n {
            if rng.random_bool(0.6) {
                coeffs.push((j, rng.random_range(-3..4i32) as f64));
            }
        }
        let cmp = match rng.random_range(0..3u8) {
            0 => Cmp::Le,
            1 => Cmp::Eq,
            _ => Cmp::Ge,
        };
        p.add_row(&coeffs, cmp, rng.random_range(-6..10i32) as f64);
    }
    p
}

/// `min T` subject to `T + (t_j / r_j) f_j ≥ t_j`, `f_j ≤ r_j`, and a
/// budget row `Σ f_j ≤ B` last: the makespan LP in miniature.
fn budget_shaped(rng: &mut StdRng, n_jobs: usize) -> Problem {
    let mut p = Problem::minimize(n_jobs + 1);
    p.set_objective(n_jobs, 1.0);
    for j in 0..n_jobs {
        let t = rng.random_range(1..20i32) as f64;
        let r = rng.random_range(1..5i32) as f64;
        p.add_ge(&[(n_jobs, 1.0), (j, t / r)], t);
        p.set_upper_bound(j, r);
    }
    let coeffs: Vec<(usize, f64)> = (0..n_jobs).map(|j| (j, 1.0)).collect();
    p.add_le(&coeffs, 0.0);
    p
}

fn random_digest(fnv: &mut Fnv) -> usize {
    let mut solves = 0;
    let mut rng = StdRng::seed_from_u64(0x01D1_6E57);
    for _ in 0..120 {
        let n = rng.random_range(2..14usize);
        let rows = rng.random_range(1..12usize);
        let mut p = random_problem(&mut rng, n, rows);
        let (out, basis) = p.solve_revised_warm(None);
        fnv.outcome(&out);
        solves += 1;
        // a warm re-solve after an RHS change on a random row
        let row = rng.random_range(0..rows);
        p.set_rhs(row, rng.random_range(0..10i32) as f64);
        let (out, _) = p.solve_revised_warm(basis.as_ref());
        fnv.outcome(&out);
        solves += 1;
    }
    for _ in 0..40 {
        let n_jobs = rng.random_range(2..12usize);
        let p = budget_shaped(&mut rng, n_jobs);
        let rhs: Vec<f64> = (0..8).map(|_| rng.random_range(0..14i32) as f64).collect();
        let (outs, basis): (Vec<Outcome>, Option<Basis>) =
            solve_rhs_sweep(&p, n_jobs, &rhs, PivotRule::Dantzig, None, None);
        for o in &outs {
            fnv.outcome(o);
        }
        fnv.word(u64::from(basis.is_some()));
        solves += outs.len();
    }
    // random crash bases, some over a near-zero coefficient: many
    // install singular (through a rejected peel pivot or a failed
    // kernel pivot) and fall back to the cold solve
    for _ in 0..120 {
        let n = rng.random_range(2..10usize);
        let rows = rng.random_range(1..9usize);
        let mut p = random_problem(&mut rng, n, rows);
        if rng.random_bool(0.5) {
            let j = rng.random_range(0..n);
            p.add_row(&[(j, 1e-12)], Cmp::Ge, 0.0);
        }
        let choice: Vec<CrashVar> = (0..p.n_rows())
            .map(|_| {
                if rng.random_bool(0.6) {
                    CrashVar::Structural(rng.random_range(0..n))
                } else {
                    CrashVar::Logical
                }
            })
            .collect();
        let crash = crash_basis(&p, &choice);
        let (out, _) = p.solve_revised_warm(Some(&crash));
        fnv.outcome(&out);
        solves += 1;
    }
    solves
}

#[test]
fn revised_simplex_output_is_bit_identical() {
    let mut pipeline = Fnv::new();
    let pipeline_solves = pipeline_digest(&mut pipeline);
    let mut random = Fnv::new();
    let random_solves = random_digest(&mut random);

    let mut all = Fnv::new();
    for v in [
        pipeline.0,
        pipeline_solves as u64,
        random.0,
        random_solves as u64,
    ] {
        all.word(v);
    }
    assert_eq!(
        all.0, LP_DIGEST,
        "LP output changed: digest {:#018x} (pipeline {:#018x} over {pipeline_solves} solves, \
         random {:#018x} over {random_solves} solves), committed {LP_DIGEST:#018x}",
        all.0, pipeline.0, random.0
    );
}
