//! The original row-of-rows two-phase simplex, frozen as a baseline.
//!
//! This is the solver the crate shipped before the flat-tableau rewrite
//! in `simplex.rs` (one `Vec<f64>` per row, split-borrow pivot
//! updates, no post-phase-1 column shrink). It is retained verbatim for
//! two jobs:
//!
//! * **differential testing** — `tests/flat_vs_reference.rs` asserts the
//!   flat solver reproduces these objectives on the edge-case corpus and
//!   on random LPs;
//! * **benchmark baselining** — the speedups in the frozen
//!   `BENCH_pr1.json` record were measured against this engine in the
//!   same binary.
//!
//! Do not optimize this module; its value is that it does not change.

use crate::problem::{Cmp, Problem};
use crate::simplex::{Outcome, Solution};
use crate::TOL;

struct Tableau {
    /// m rows × n_cols coefficient matrix (dense, one `Vec` per row).
    a: Vec<Vec<f64>>,
    /// Right-hand sides (kept ≥ 0 up to tolerance).
    b: Vec<f64>,
    /// Reduced-cost row.
    rc: Vec<f64>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Columns that may never enter (artificials in phase 2).
    banned: Vec<bool>,
    pivots: usize,
}

impl Tableau {
    fn pivot(&mut self, r: usize, c: usize) {
        let m = self.a.len();
        let piv = self.a[r][c];
        debug_assert!(piv.abs() > TOL);
        let inv = 1.0 / piv;
        for v in self.a[r].iter_mut() {
            *v *= inv;
        }
        self.b[r] *= inv;
        // Re-normalize the pivot entry exactly.
        self.a[r][c] = 1.0;
        for i in 0..m {
            if i == r {
                continue;
            }
            let factor = self.a[i][c];
            if factor.abs() <= TOL * 1e-3 {
                self.a[i][c] = 0.0;
                continue;
            }
            let (head, tail) = self.a.split_at_mut(r.max(i));
            let (row_i, row_r) = if i < r {
                (&mut head[i], &tail[0])
            } else {
                (&mut tail[0], &head[r])
            };
            for (vi, vr) in row_i.iter_mut().zip(row_r.iter()) {
                *vi -= factor * *vr;
            }
            row_i[c] = 0.0;
            self.b[i] -= factor * self.b[r];
            if self.b[i].abs() < TOL * 1e-3 {
                self.b[i] = 0.0;
            }
        }
        let factor = self.rc[c];
        if factor.abs() > 0.0 {
            for (j, v) in self.rc.iter_mut().enumerate() {
                *v -= factor * self.a[r][j];
            }
            self.rc[c] = 0.0;
        }
        self.basis[r] = c;
        self.pivots += 1;
    }

    /// Runs the simplex loop on the current (feasible) tableau.
    /// Returns `false` on unboundedness.
    fn optimize(&mut self) -> bool {
        let n = self.rc.len();
        let m = self.a.len();
        // Switch to Bland's rule after a generous number of Dantzig steps.
        let bland_after = 20 * (m + n) + 1000;
        let hard_cap = 2_000 * (m + n) + 100_000;
        let mut iters = 0usize;
        loop {
            iters += 1;
            assert!(
                iters < hard_cap,
                "simplex exceeded {hard_cap} iterations; numerical cycling?"
            );
            let bland = iters > bland_after;
            // --- pricing
            let mut enter: Option<usize> = None;
            let mut best = -TOL;
            for j in 0..n {
                if self.banned[j] {
                    continue;
                }
                let r = self.rc[j];
                if r < best {
                    enter = Some(j);
                    if bland {
                        break; // smallest index with negative rc
                    }
                    best = r;
                }
            }
            let Some(c) = enter else {
                return true; // optimal
            };
            // --- ratio test
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                let a = self.a[i][c];
                if a > TOL {
                    let ratio = self.b[i] / a;
                    let better = ratio < best_ratio - TOL
                        || (ratio < best_ratio + TOL
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]));
                    if leave.is_none() || better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(r) = leave else {
                return false; // unbounded
            };
            self.pivot(r, c);
        }
    }
}

/// Solves `p` with the pre-rewrite row-of-rows simplex.
pub fn solve_reference(p: &Problem) -> Outcome {
    // Collect all rows: user rows + upper-bound rows.
    #[derive(Clone)]
    struct NRow {
        coeffs: Vec<(usize, f64)>,
        cmp: Cmp,
        rhs: f64,
    }
    let mut rows: Vec<NRow> = p
        .rows
        .iter()
        .map(|r| NRow {
            coeffs: r.coeffs.clone(),
            cmp: r.cmp,
            rhs: r.rhs,
        })
        .collect();
    for (j, ub) in p.upper.iter().enumerate() {
        if let Some(ub) = ub {
            rows.push(NRow {
                coeffs: vec![(j, 1.0)],
                cmp: Cmp::Le,
                rhs: *ub,
            });
        }
    }
    // Normalize to rhs >= 0.
    for r in rows.iter_mut() {
        if r.rhs < 0.0 {
            r.rhs = -r.rhs;
            for c in r.coeffs.iter_mut() {
                c.1 = -c.1;
            }
            r.cmp = match r.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Eq => Cmp::Eq,
                Cmp::Ge => Cmp::Le,
            };
        }
    }

    let m = rows.len();
    let n0 = p.n_vars;
    // Column layout: [original | slacks/surplus | artificials]
    let n_slack = rows.len(); // at most one per row (Le slack or Ge surplus)
    let mut n_art = 0usize;
    for r in &rows {
        if !matches!(r.cmp, Cmp::Le) {
            n_art += 1;
        }
    }
    let n_cols = n0 + n_slack + n_art;

    let mut a = vec![vec![0.0; n_cols]; m];
    let mut b = vec![0.0; m];
    let mut basis = vec![usize::MAX; m];
    let mut art_cols: Vec<usize> = Vec::with_capacity(n_art);
    let mut next_art = n0 + n_slack;
    for (i, r) in rows.iter().enumerate() {
        for &(j, v) in &r.coeffs {
            a[i][j] += v;
        }
        b[i] = r.rhs;
        match r.cmp {
            Cmp::Le => {
                a[i][n0 + i] = 1.0;
                basis[i] = n0 + i;
            }
            Cmp::Ge => {
                a[i][n0 + i] = -1.0;
                a[i][next_art] = 1.0;
                basis[i] = next_art;
                art_cols.push(next_art);
                next_art += 1;
            }
            Cmp::Eq => {
                a[i][next_art] = 1.0;
                basis[i] = next_art;
                art_cols.push(next_art);
                next_art += 1;
            }
        }
    }

    // ---- Phase 1: minimize sum of artificials.
    let mut t = Tableau {
        a,
        b,
        rc: vec![0.0; n_cols],
        basis,
        banned: vec![false; n_cols],
        pivots: 0,
    };
    if !art_cols.is_empty() {
        // rc_j = c_j − Σ_{rows with artificial basic} a[i][j]
        let art_set: Vec<bool> = {
            let mut v = vec![false; n_cols];
            for &c in &art_cols {
                v[c] = true;
            }
            v
        };
        for j in 0..n_cols {
            let mut rc = if art_set[j] { 1.0 } else { 0.0 };
            for i in 0..m {
                if art_set[t.basis[i]] {
                    rc -= t.a[i][j];
                }
            }
            t.rc[j] = rc;
        }
        let bounded = t.optimize();
        debug_assert!(bounded, "phase 1 objective is bounded below by 0");
        let phase1: f64 = (0..m)
            .filter(|&i| art_set[t.basis[i]])
            .map(|i| t.b[i])
            .sum();
        if phase1 > 1e-6 {
            return Outcome::Infeasible;
        }
        // Ban artificials from re-entering.
        for &c in &art_cols {
            t.banned[c] = true;
        }
        // Drive artificials that are still basic (at value ~0) OUT of the
        // basis: a later pivot on another column could otherwise raise a
        // basic artificial's value and silently violate its constraint.
        // Degenerate pivot on any non-artificial column with a nonzero
        // coefficient; a row with none is redundant (all-zero row) and
        // its artificial can never change value again.
        for i in 0..m {
            if art_set[t.basis[i]] {
                t.b[i] = 0.0; // clamp the ~0 residual exactly
                if let Some(j) =
                    (0..n_cols).find(|&j| !art_set[j] && t.a[i][j].abs() > 1e-7)
                {
                    t.pivot(i, j);
                }
            }
        }
    }

    // ---- Phase 2: original objective.
    for j in 0..n_cols {
        let cj = if j < n0 { p.objective[j] } else { 0.0 };
        t.rc[j] = cj;
    }
    // rc_j = c_j − c_B B^-1 A_j: subtract basic costs via current rows.
    for i in 0..m {
        let cb = if t.basis[i] < n0 {
            p.objective[t.basis[i]]
        } else {
            0.0
        };
        if cb != 0.0 {
            for j in 0..n_cols {
                t.rc[j] -= cb * t.a[i][j];
            }
        }
    }
    // Basic columns must have zero reduced cost (clean up numerics).
    for i in 0..m {
        t.rc[t.basis[i]] = 0.0;
    }
    if !t.optimize() {
        return Outcome::Unbounded;
    }

    let mut x = vec![0.0; n0];
    for i in 0..m {
        if t.basis[i] < n0 {
            x[t.basis[i]] = t.b[i].max(0.0);
        }
    }
    let objective = p.objective_at(&x);
    // Dimension stats only (no phase split: the frozen baseline is not
    // instrumented beyond what it always reported).
    let n_bound_rows = p.upper.iter().filter(|u| u.is_some()).count();
    Outcome::Optimal(Solution {
        objective,
        x,
        pivots: t.pivots,
        stats: crate::LpStats {
            rows: m,
            cols: n_cols,
            bound_rows: n_bound_rows,
            bound_cols: n_bound_rows,
            phase2_pivots: t.pivots,
            ..Default::default()
        },
    })
}
