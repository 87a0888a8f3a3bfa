//! Dense two-phase primal simplex over a **flat** tableau.
//!
//! # Tableau layout
//!
//! The `m × n_cols` coefficient matrix lives in one contiguous row-major
//! `Vec<f64>` (a single allocation for the whole solve); row `i` is the
//! slice `a[i*n_cols .. (i+1)*n_cols]`. Columns are laid out as
//! `[original variables | slacks/surplus | artificials]`, with the
//! artificials last on purpose: once phase 1 ends they can never re-enter
//! the basis, so phase 2 simply shrinks the *active* column count
//! (`active`) and every subsequent pricing pass, pivot update, and
//! reduced-cost update runs over the shorter prefix. Rows that keep an
//! artificial basic (redundant all-zero rows) are harmless — their stale
//! artificial columns are never read again.
//!
//! # Pivot structure
//!
//! A pivot on `(r, c)` normalizes row `r` in place, copies it once into a
//! reusable scratch buffer, and then updates every other row with an
//! AXPY-style loop over two disjoint flat slices
//! (`row_i[j] -= factor * scratch[j]`) — no index arithmetic, no split
//! borrows, exactly the shape LLVM auto-vectorizes. Rows whose
//! pivot-column factor is below tolerance are skipped before their cache
//! lines are ever touched. The scratch row's nonzero columns are indexed
//! once per pivot; while the pivot row is sparse (the common case for
//! the LP 6–10 network matrices this crate serves — rows start with ~3
//! structural nonzeros) each row update walks only those indices, and
//! the dense vectorized loop takes over automatically once fill-in
//! passes 50%. On the `bicriteria_thm34` pipeline this was worth ~2.7×
//! end-to-end over the row-of-rows tableau it replaced (see
//! `BENCH_pr1.json`).
//!
//! # Pivot rules
//!
//! [`PivotRule::Dantzig`] prices the most-negative reduced cost and
//! falls back to Bland's rule automatically after a stall threshold
//! (`20·(m+n) + 1000` iterations) to guarantee termination on degenerate
//! tableaus; [`PivotRule::Bland`] runs the anti-cycling rule from the
//! first iteration — the mode the revised engine's numerical fallback
//! restarts in.
//!
//! # Role
//!
//! This is the crate's one dense engine: the oracle the differential
//! tests (`tests/revised_differential.rs`) hold the revised simplex to,
//! the metered Bland-rule restart of the revised engine's fallback, and
//! the source of the bound-row [`crate::LpStats`] the perf envelopes
//! compare against.

use crate::problem::{Cmp, Problem};
use crate::TOL;
use rtt_budget::{BudgetMeter, Exhausted};

/// Entering-column selection rule for the simplex loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PivotRule {
    /// Most-negative reduced cost, with an automatic switch to Bland's
    /// rule if the solve stalls (the default).
    #[default]
    Dantzig,
    /// Bland's anti-cycling rule (smallest eligible index) from the
    /// start. Slower but cycle-free by construction.
    Bland,
}

/// Which solver implementation to run (see [`Problem::solve_with`]).
///
/// **`Revised`** (the default) is the sparse revised simplex with
/// implicit upper bounds and warm-start support — use it unless you
/// have a reason not to. **`Flat`** is the dense flat-tableau solver:
/// the differential-test oracle, and the engine the revised simplex
/// restarts into when a refactorization goes singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The sparse revised simplex ([`crate::revised`]): CSC columns,
    /// implicit upper bounds, eta-file basis updates.
    #[default]
    Revised,
    /// The dense flat-tableau solver of this module.
    Flat,
}

/// Result of solving an LP.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// An optimal basic solution was found.
    Optimal(Solution),
    /// The constraints are inconsistent (phase-1 optimum > 0).
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// A cooperative budget check tripped mid-solve (pivot cap or
    /// deadline — see [`rtt_budget::BudgetMeter`]).
    /// Only the metered entry points can return this; the engine, not
    /// this crate, decides what to do about it.
    Exhausted(Exhausted),
}

impl Outcome {
    /// Unwraps the optimal solution, panicking otherwise.
    pub fn expect_optimal(self, msg: &str) -> Solution {
        match self {
            Outcome::Optimal(s) => s,
            other => panic!("{msg}: {other:?}"),
        }
    }

    /// The optimal solution, if any.
    pub fn optimal(self) -> Option<Solution> {
        match self {
            Outcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// An optimal LP solution.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Objective value.
    pub objective: f64,
    /// Values of the original problem variables.
    pub x: Vec<f64>,
    /// Simplex pivot count (diagnostics / benches).
    pub pivots: usize,
    /// Dimension and phase counters (see [`crate::LpStats`]).
    pub stats: crate::LpStats,
}

/// Entries with `|factor| ≤ SKIP_TOL` are treated as an exact zero when
/// deciding whether a row participates in a pivot update.
const SKIP_TOL: f64 = TOL * 1e-3;

/// Relative drop tolerance for pivot-row normalization: entries below
/// `DROP_REL · max|row|` are snapped to exact zero so cancellation dust
/// cannot densify the nonzero index. Set a small factor above machine
/// epsilon (2⁻⁵² ≈ 2.2e-16): a surviving entry this small relative to
/// its own row is indistinguishable from the roundoff the dense AXPY
/// path commits anyway, so dropping it perturbs nothing the dense
/// computation could have preserved — even in rows mixing unit and
/// `LP_BIG`-scale coefficients, where any *looser* relative (or any
/// absolute) cutoff would delete genuine small entries.
const DROP_REL: f64 = 1e-15;

struct Tableau {
    /// Number of rows.
    m: usize,
    /// Allocated columns (row stride).
    n_cols: usize,
    /// Columns eligible for pricing and updates; shrinks to exclude the
    /// trailing artificials after phase 1.
    active: usize,
    /// Flat row-major `m × n_cols` coefficient matrix.
    a: Vec<f64>,
    /// Right-hand sides (kept ≥ 0 up to tolerance).
    b: Vec<f64>,
    /// Reduced-cost row.
    rc: Vec<f64>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Columns that may never enter (artificials in phase 2; only
    /// consulted while `active` still covers them).
    banned: Vec<bool>,
    /// Reusable copy of the normalized pivot row (AXPY source).
    scratch: Vec<f64>,
    /// Reusable index list of `scratch`'s nonzero columns.
    scratch_nz: Vec<u32>,
    pivots: usize,
}

impl Tableau {
    fn pivot(&mut self, r: usize, c: usize) {
        let n = self.n_cols;
        let w = self.active;
        let start = r * n;
        let piv = self.a[start + c];
        debug_assert!(piv.abs() > TOL);
        let inv = 1.0 / piv;
        {
            let row_r = &mut self.a[start..start + w];
            let mut scale = 0.0f64;
            for v in row_r.iter_mut() {
                *v *= inv;
                scale = scale.max(v.abs());
            }
            // Re-normalize the pivot entry exactly.
            row_r[c] = 1.0;
            let drop = scale.max(1.0) * DROP_REL;
            for v in row_r.iter_mut() {
                if v.abs() <= drop {
                    *v = 0.0;
                }
            }
            self.scratch[..w].copy_from_slice(row_r);
        }
        self.b[r] *= inv;
        let br = self.b[r];
        let scratch = &self.scratch[..w];
        // The LPs this crate serves (LP 6–10 network matrices) keep
        // pivot rows sparse for most of the solve: index the nonzeros
        // once and update only those columns per row, falling back to
        // the dense AXPY when fill-in makes indexing pointless. Only
        // exact structural zeros may be skipped — the pipeline's LPs mix
        // unit coefficients with `LP_BIG`-scale ones, so any magnitude
        // threshold here would drop updates that still matter.
        self.scratch_nz.clear();
        for (j, &v) in scratch.iter().enumerate() {
            if v != 0.0 {
                self.scratch_nz.push(j as u32);
            }
        }
        let sparse = self.scratch_nz.len() * 2 < w;
        for i in 0..self.m {
            if i == r {
                continue;
            }
            let istart = i * n;
            let factor = self.a[istart + c];
            // Skip rows the pivot column does not touch before reading
            // the rest of the row.
            if factor.abs() <= SKIP_TOL {
                self.a[istart + c] = 0.0;
                continue;
            }
            let row_i = &mut self.a[istart..istart + w];
            if sparse {
                for &j in &self.scratch_nz {
                    let j = j as usize;
                    row_i[j] -= factor * scratch[j];
                }
            } else {
                for (vi, vr) in row_i.iter_mut().zip(scratch) {
                    *vi -= factor * *vr;
                }
            }
            row_i[c] = 0.0;
            self.b[i] -= factor * br;
            if self.b[i].abs() < SKIP_TOL {
                self.b[i] = 0.0;
            }
        }
        let factor = self.rc[c];
        if factor != 0.0 {
            if sparse {
                let rc = &mut self.rc[..w];
                for &j in &self.scratch_nz {
                    let j = j as usize;
                    rc[j] -= factor * scratch[j];
                }
            } else {
                for (v, vr) in self.rc[..w].iter_mut().zip(scratch) {
                    *v -= factor * *vr;
                }
            }
            self.rc[c] = 0.0;
        }
        self.basis[r] = c;
        self.pivots += 1;
    }

    /// Runs the simplex loop on the current (feasible) tableau.
    /// Returns `Ok(false)` on unboundedness; `Err` when the meter's
    /// pivot budget (or deadline) trips — one charge per
    /// pivot, checked before the pivot is applied.
    fn optimize(
        &mut self,
        rule: PivotRule,
        meter: Option<&BudgetMeter>,
    ) -> Result<bool, Exhausted> {
        let n = self.n_cols;
        let m = self.m;
        // Switch to Bland's rule after a generous number of Dantzig steps.
        let bland_after = match rule {
            PivotRule::Dantzig => 20 * (m + n) + 1000,
            PivotRule::Bland => 0,
        };
        let hard_cap = 2_000 * (m + n) + 100_000;
        let mut iters = 0usize;
        loop {
            iters += 1;
            assert!(
                iters < hard_cap,
                "simplex exceeded {hard_cap} iterations; numerical cycling?"
            );
            let bland = iters > bland_after;
            // --- pricing (over the active column prefix only)
            let mut enter: Option<usize> = None;
            let mut best = -TOL;
            for (j, (&r, &ban)) in self.rc[..self.active]
                .iter()
                .zip(&self.banned[..self.active])
                .enumerate()
            {
                if ban {
                    continue;
                }
                if r < best {
                    enter = Some(j);
                    if bland {
                        break; // smallest index with negative rc
                    }
                    best = r;
                }
            }
            let Some(c) = enter else {
                return Ok(true); // optimal
            };
            // --- ratio test (strided column walk)
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                let a = self.a[i * n + c];
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
                return Ok(false); // unbounded
            };
            if let Some(m) = meter {
                m.charge_lp_pivots(1)?;
            }
            self.pivot(r, c);
        }
    }
}

/// Builds the standard-form flat tableau and runs both phases. A
/// meter, when given, is charged one `lp_pivots` unit per pivot.
pub(crate) fn solve_standard(p: &Problem, rule: PivotRule, meter: Option<&BudgetMeter>) -> Outcome {
    // Collect all rows: user rows + upper-bound rows.
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
    // Column layout: [original | slacks/surplus | artificials]; the
    // artificials trail so phase 2 can drop them by shrinking `active`.
    let n_slack = rows.len(); // at most one per row (Le slack or Ge surplus)
    let n_art = rows.iter().filter(|r| !matches!(r.cmp, Cmp::Le)).count();
    let n_cols = n0 + n_slack + n_art;
    let n_real = n0 + n_slack;

    let mut t = Tableau {
        m,
        n_cols,
        active: n_cols,
        a: vec![0.0; m * n_cols],
        b: vec![0.0; m],
        rc: vec![0.0; n_cols],
        basis: vec![usize::MAX; m],
        banned: vec![false; n_cols],
        scratch: vec![0.0; n_cols],
        scratch_nz: Vec::with_capacity(n_cols),
        pivots: 0,
    };
    let mut next_art = n_real;
    for (i, r) in rows.iter().enumerate() {
        let row = &mut t.a[i * n_cols..(i + 1) * n_cols];
        for &(j, v) in &r.coeffs {
            row[j] += v;
        }
        t.b[i] = r.rhs;
        match r.cmp {
            Cmp::Le => {
                row[n0 + i] = 1.0;
                t.basis[i] = n0 + i;
            }
            Cmp::Ge => {
                row[n0 + i] = -1.0;
                row[next_art] = 1.0;
                t.basis[i] = next_art;
                next_art += 1;
            }
            Cmp::Eq => {
                row[next_art] = 1.0;
                t.basis[i] = next_art;
                next_art += 1;
            }
        }
    }

    let n_bound_rows = p.upper.iter().filter(|u| u.is_some()).count();
    let mut stats = crate::LpStats {
        rows: m,
        cols: n_cols,
        bound_rows: n_bound_rows,
        bound_cols: n_bound_rows,
        ..Default::default()
    };

    // ---- Phase 1: minimize sum of artificials.
    if n_art > 0 {
        let is_art = |col: usize| col >= n_real;
        // rc_j = c_j − Σ_{rows with artificial basic} a[i][j]
        for j in 0..n_cols {
            t.rc[j] = if is_art(j) { 1.0 } else { 0.0 };
        }
        for i in 0..m {
            if is_art(t.basis[i]) {
                let row = &t.a[i * n_cols..(i + 1) * n_cols];
                for (rc, &v) in t.rc.iter_mut().zip(row) {
                    *rc -= v;
                }
            }
        }
        let bounded = match t.optimize(rule, meter) {
            Ok(b) => b,
            Err(e) => return Outcome::Exhausted(e),
        };
        debug_assert!(bounded, "phase 1 objective is bounded below by 0");
        let phase1: f64 = (0..m).filter(|&i| is_art(t.basis[i])).map(|i| t.b[i]).sum();
        if phase1 > 1e-6 {
            return Outcome::Infeasible;
        }
        // Ban artificials from re-entering.
        for j in n_real..n_cols {
            t.banned[j] = true;
        }
        // Drive artificials that are still basic (at value ~0) OUT of the
        // basis: a later pivot on another column could otherwise raise a
        // basic artificial's value and silently violate its constraint.
        // Degenerate pivot on any non-artificial column with a nonzero
        // coefficient; a row with none is redundant (all-zero row) and
        // its artificial can never change value again.
        for i in 0..m {
            if is_art(t.basis[i]) {
                t.b[i] = 0.0; // clamp the ~0 residual exactly
                let row = &t.a[i * n_cols..i * n_cols + n_real];
                if let Some(j) = (0..n_real).find(|&j| row[j].abs() > 1e-7) {
                    t.pivot(i, j);
                }
            }
        }
        // The artificial columns are dead from here on: pricing, pivot
        // updates, and rc maintenance all stop at `active`. Rows whose
        // basis is still an artificial (redundant rows) keep b = 0 and
        // are never extracted.
        t.active = n_real;
    }
    stats.phase1_pivots = t.pivots;

    // ---- Phase 2: original objective.
    for j in 0..t.active {
        t.rc[j] = if j < n0 { p.objective[j] } else { 0.0 };
    }
    // rc_j = c_j − c_B B^-1 A_j: subtract basic costs via current rows.
    for i in 0..m {
        let cb = if t.basis[i] < n0 {
            p.objective[t.basis[i]]
        } else {
            0.0
        };
        if cb != 0.0 {
            let row = &t.a[i * n_cols..i * n_cols + t.active];
            for (rc, &v) in t.rc[..t.active].iter_mut().zip(row) {
                *rc -= cb * v;
            }
        }
    }
    // Basic columns must have zero reduced cost (clean up numerics).
    for i in 0..m {
        if t.basis[i] < t.active {
            t.rc[t.basis[i]] = 0.0;
        }
    }
    match t.optimize(rule, meter) {
        Ok(true) => {}
        Ok(false) => return Outcome::Unbounded,
        Err(e) => return Outcome::Exhausted(e),
    }

    let mut x = vec![0.0; n0];
    for i in 0..m {
        if t.basis[i] < n0 {
            x[t.basis[i]] = t.b[i].max(0.0);
        }
    }
    let objective = p.objective_at(&x);
    stats.phase2_pivots = t.pivots - stats.phase1_pivots;
    Outcome::Optimal(Solution {
        objective,
        x,
        pivots: t.pivots,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Problem;

    /// These are the *flat* engine's unit tests: pin the engine
    /// explicitly, since `Problem::solve()` now defaults to Revised.
    fn opt(p: &Problem) -> Solution {
        p.solve_with(Engine::Flat)
            .expect_optimal("expected optimal")
    }

    #[test]
    fn trivial_no_constraints() {
        let mut p = Problem::minimize(2);
        p.set_objective(0, 3.0);
        p.set_objective(1, 5.0);
        let s = opt(&p);
        assert_eq!(s.objective, 0.0);
        assert_eq!(s.x, vec![0.0, 0.0]);
    }

    #[test]
    fn simple_ge() {
        // min x + 2y s.t. x + y >= 2, y <= 1
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 2.0);
        p.add_ge(&[(0, 1.0), (1, 1.0)], 2.0);
        p.set_upper_bound(1, 1.0);
        let s = opt(&p);
        assert!((s.objective - 2.0).abs() < 1e-7, "{}", s.objective);
        assert!((s.x[0] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn classic_max_as_min() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (Dantzig's ex.)
        // == min -3x - 5y; optimum x=2, y=6, obj = -36.
        let mut p = Problem::minimize(2);
        p.set_objective(0, -3.0);
        p.set_objective(1, -5.0);
        p.add_le(&[(0, 1.0)], 4.0);
        p.add_le(&[(1, 2.0)], 12.0);
        p.add_le(&[(0, 3.0), (1, 2.0)], 18.0);
        let s = opt(&p);
        assert!((s.objective + 36.0).abs() < 1e-7);
        assert!((s.x[0] - 2.0).abs() < 1e-7);
        assert!((s.x[1] - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, x - y = 1 -> x = 2, y = 1
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        p.add_eq(&[(0, 1.0), (1, 2.0)], 4.0);
        p.add_eq(&[(0, 1.0), (1, -1.0)], 1.0);
        let s = opt(&p);
        assert!((s.x[0] - 2.0).abs() < 1e-7);
        assert!((s.x[1] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::minimize(1);
        p.add_ge(&[(0, 1.0)], 5.0);
        p.set_upper_bound(0, 1.0);
        assert!(matches!(p.solve_with(Engine::Flat), Outcome::Infeasible));
    }

    #[test]
    fn infeasible_equalities() {
        let mut p = Problem::minimize(2);
        p.add_eq(&[(0, 1.0), (1, 1.0)], 1.0);
        p.add_eq(&[(0, 1.0), (1, 1.0)], 2.0);
        assert!(matches!(p.solve_with(Engine::Flat), Outcome::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        // min -x with x >= 1 unbounded above.
        let mut p = Problem::minimize(1);
        p.set_objective(0, -1.0);
        p.add_ge(&[(0, 1.0)], 1.0);
        assert!(matches!(p.solve_with(Engine::Flat), Outcome::Unbounded));
    }

    #[test]
    fn negative_rhs_normalized() {
        // x - y <= -2  ==  y - x >= 2; min y -> y = 2, x = 0.
        let mut p = Problem::minimize(2);
        p.set_objective(1, 1.0);
        p.add_le(&[(0, 1.0), (1, -1.0)], -2.0);
        let s = opt(&p);
        assert!((s.x[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn duplicate_coefficients_summed() {
        // (x + x) >= 4 -> x >= 2.
        let mut p = Problem::minimize(1);
        p.set_objective(0, 1.0);
        p.add_ge(&[(0, 1.0), (0, 1.0)], 4.0);
        let s = opt(&p);
        assert!((s.x[0] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_redundant_rows() {
        // Same constraint three times + an equality that makes one
        // artificial stick around at zero.
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        for _ in 0..3 {
            p.add_ge(&[(0, 1.0), (1, 1.0)], 2.0);
        }
        p.add_eq(&[(0, 2.0), (1, 2.0)], 4.0);
        let s = opt(&p);
        assert!((s.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn mini_flow_lp() {
        // A 2-path flow LP shaped like LP 6-10: route 1 unit from s to t
        // over edges e0 (s->a), e1 (a->t), e2 (s->t); conservation at a.
        // Times: Ta >= t_e0(f0) with t(f) = 4(1 - f); Tt >= Ta + 3(1-f1);
        // Tt >= 5(1 - f2). Budget f0 + f2 <= 1.
        // Vars: f0, f1, f2, Ta, Tt.
        let mut p = Problem::minimize(5);
        p.set_objective(4, 1.0);
        // conservation at a: f0 = f1
        p.add_eq(&[(0, 1.0), (1, -1.0)], 0.0);
        // Ta >= 4 - 4 f0  ->  Ta + 4 f0 >= 4
        p.add_ge(&[(3, 1.0), (0, 4.0)], 4.0);
        // Tt >= Ta + 3 - 3 f1
        p.add_ge(&[(4, 1.0), (3, -1.0), (1, 3.0)], 3.0);
        // Tt >= 5 - 5 f2
        p.add_ge(&[(4, 1.0), (2, 5.0)], 5.0);
        // budget
        p.add_le(&[(0, 1.0), (2, 1.0)], 1.0);
        for j in 0..3 {
            p.set_upper_bound(j, 1.0);
        }
        let s = opt(&p);
        // Optimum: split resources; the LP can push Tt down to where both
        // paths cost the same. With f0=f1=x, f2=1-x: path1 = 7(1-x),
        // path2 = 5x; equal at x = 7/12 -> Tt = 35/12.
        assert!(p.is_feasible(&s.x, 1e-6));
        assert!((s.objective - 35.0 / 12.0).abs() < 1e-6, "{}", s.objective);
    }

    #[test]
    fn solution_always_feasible_when_optimal() {
        let mut p = Problem::minimize(3);
        p.set_objective(0, 2.0);
        p.set_objective(1, -1.0);
        p.set_objective(2, 0.5);
        p.add_le(&[(0, 1.0), (1, 2.0), (2, 1.0)], 10.0);
        p.add_ge(&[(0, 1.0), (1, -1.0)], -3.0);
        p.add_eq(&[(1, 1.0), (2, 1.0)], 4.0);
        p.set_upper_bound(1, 3.5);
        let s = opt(&p);
        assert!(p.is_feasible(&s.x, 1e-6));
    }

    #[test]
    fn bland_rule_from_start_agrees() {
        // The same optimum must fall out under the pure anti-cycling rule.
        let mut p = Problem::minimize(3);
        p.set_objective(0, -0.75);
        p.set_objective(1, 150.0);
        p.set_objective(2, -0.02);
        p.add_le(&[(0, 0.25), (1, -60.0), (2, -0.04)], 0.0);
        p.add_le(&[(0, 0.5), (1, -90.0), (2, -0.02)], 0.0);
        p.add_le(&[(2, 1.0)], 1.0);
        let d = p.solve_with(Engine::Flat).expect_optimal("dantzig");
        let b = solve_standard(&p, PivotRule::Bland, None).expect_optimal("bland");
        assert!((d.objective - b.objective).abs() < 1e-7);
    }

    #[test]
    fn bland_from_start_matches_dantzig_on_random_lps() {
        // Bland from the first pivot is the revised engine's fallback
        // mode: it must reach Dantzig's verdict and objective.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5117_F1A7);
        for case in 0..400 {
            let n = rng.random_range(1..6usize);
            let mut p = Problem::minimize(n);
            for j in 0..n {
                p.set_objective(j, rng.random_range(-4..5i32) as f64);
                if rng.random_bool(0.4) {
                    p.set_upper_bound(j, rng.random_range(0..8i32) as f64);
                }
            }
            for _ in 0..rng.random_range(0..7usize) {
                let coeffs: Vec<(usize, f64)> = (0..n)
                    .map(|j| (j, rng.random_range(-3..4i32) as f64))
                    .collect();
                let cmp = match rng.random_range(0..3u8) {
                    0 => Cmp::Le,
                    1 => Cmp::Eq,
                    _ => Cmp::Ge,
                };
                p.add_row(&coeffs, cmp, rng.random_range(-6..10i32) as f64);
            }
            let dantzig = solve_standard(&p, PivotRule::Dantzig, None);
            let bland = solve_standard(&p, PivotRule::Bland, None);
            match (&dantzig, &bland) {
                (Outcome::Optimal(d), Outcome::Optimal(b)) => {
                    assert!(
                        (d.objective - b.objective).abs() <= 1e-6 * (1.0 + d.objective.abs()),
                        "case {case}: Dantzig {} vs Bland {}",
                        d.objective,
                        b.objective
                    );
                    for (rule, x) in [("Dantzig", &d.x), ("Bland", &b.x)] {
                        assert!(
                            p.is_feasible(x, 1e-5),
                            "case {case}: {rule} optimum infeasible"
                        );
                    }
                }
                (Outcome::Infeasible, Outcome::Infeasible) => {}
                (Outcome::Unbounded, Outcome::Unbounded) => {}
                (d, b) => panic!("case {case}: Dantzig says {d:?}, Bland says {b:?}"),
            }
        }
    }
}
