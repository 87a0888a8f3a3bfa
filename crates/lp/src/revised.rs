//! Sparse **revised simplex** with implicit upper bounds and warm starts.
//!
//! # Why a second engine
//!
//! The flat tableau ([`crate::Engine::Flat`]) materializes every variable
//! upper bound `x_j ≤ u_j` as an explicit `≤` row plus a slack column.
//! For the LP 6–10 network matrices this crate serves, that roughly
//! doubles the row count (one bound per two-tuple arc) and the dense
//! tableau pays for those rows on **every** pivot. This engine keeps the
//! constraint matrix in CSC column form, treats bounds *implicitly*
//! (nonbasic variables rest at either bound; a **bound flip** moves one
//! between its bounds without touching the basis), and represents the
//! basis inverse as an **eta file** (product form of the inverse):
//!
//! * the file is one flat arena: a `(row, 1/pivot, lo, hi)` head per
//!   eta plus one shared `(row, value)` entry vector, both cleared and
//!   refilled in place by every rebuild, so the file never allocates
//!   per eta;
//! * `FTRAN`/`BTRAN` apply the eta list forward/backward in
//!   `O(Σ nnz(eta))`, skipping etas whose pivot entry is zero;
//! * each pivot appends one eta (the entering column's FTRAN image);
//! * the file is rebuilt from scratch (**refactorization**) whenever it
//!   grows past a size trigger: a triangular peel orders the basis
//!   columns, each column's image is computed by a **sparse FTRAN**
//!   that visits only the etas it reaches and clears only the entries
//!   it touched, and only the small non-triangular kernel pays for
//!   partial pivoting — a rebuild costs about the nonzeros of the
//!   column images, not `O(m²)`. Unit slack/artificial columns yield
//!   identity etas (no off-pivot entries, pivot 1), exact no-ops in
//!   FTRAN and BTRAN, so the rebuild drops them;
//! * on optimality the basis is refactorized once more and the basic
//!   values get one step of iterative refinement, so extracted
//!   objectives agree with the dense engines to ~1e-10 on the
//!   pipeline's LPs.
//!
//! # Bit identity
//!
//! Pivot counts and objectives reach the batch wire, so the eta file's
//! layout may change what a solve costs, never its bits. Two orders are
//! part of every value: etas are applied in increasing eta index (the
//! order of each entry's subtractions), and an eta's entries are stored
//! ascending by row (BTRAN's dot-product order). The sparse rebuild
//! keeps both — it drains the etas a column reaches from a min-heap
//! and sorts the image's pattern before emitting it — and the growth
//! triggers count pivots and nonzeros since the last rebuild, so
//! dropping identity etas does not move the rebuild schedule.
//! `tests/lp_digest.rs` in `rtt_bench` pins the whole output bit for
//! bit.
//!
//! # Warm starts
//!
//! A solve starts in one place and ends in one place: a private seed
//! brings a fresh engine to a primal-feasible phase-2 basis, and a
//! private finish runs phase 2, extracts the solution and snapshots the
//! basis. [`solve_warm`] is that pair once; [`solve_rhs_sweep`] seeds
//! once and finishes at every point.
//!
//! The seed accepts a [`Basis`] returned by a previous solve of a
//! problem with the **same shape** (identical rows/columns/sense; only
//! right-hand sides may differ — e.g. LP 6–10 at a new resource
//! budget). Changing `b` never changes reduced costs, so an old optimal
//! basis installs *dual feasible* and a bounded **dual simplex** loop
//! repairs primal feasibility, which for a small RHS step typically
//! takes 0–3 pivots instead of a full cold solve. A structural crash
//! (see [`crash_basis`]) enters either way: LP 6–10's longest-path
//! crash is primal feasible for the makespan objective (straight to
//! phase 2) and dual feasible for the min-resource one. With no basis,
//! the seed runs phase 1 from the all-logical basis and retires the
//! artificials.
//!
//! Every suspicious situation of a warm solve (shape mismatch, singular
//! install, a basis neither primal- nor dual-feasible, a stalled loop,
//! even an unbounded verdict) restarts it cold, and the solution
//! records [`WarmStart::Rejected`]. A cold solve that fails numerically
//! (iteration cap, singular refactorization) restarts in the flat
//! engine under Bland's rule — so the guarantees are exactly the flat
//! engine's, and warm starting is purely an optimization.
//!
//! The two-phase structure, Dantzig-with-Bland-fallback pricing, and
//! termination caps mirror the flat engine; differential tests pin the
//! two engines to each other on random LPs (`tests/revised_differential.rs`).

use crate::problem::{Cmp, Problem};
use crate::simplex::{solve_standard, Outcome, PivotRule, Solution};
use crate::{LpStats, WarmStart, TOL};
use rtt_budget::{BudgetMeter, Exhausted};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A simplex basis snapshot: which column is basic in each row, and
/// which nonbasic columns rest at their upper bound. Opaque outside the
/// crate; obtain one from [`solve_warm`] and feed it back to a later
/// [`solve_warm`] call on a problem of identical shape.
#[derive(Debug, Clone)]
pub struct Basis {
    basic: Vec<u32>,
    at_upper: Vec<bool>,
    rows: u32,
    cols: u32,
}

impl Basis {
    /// Number of constraint rows the basis was built for.
    pub fn n_rows(&self) -> usize {
        self.rows as usize
    }

    /// Number of columns (structural + logical + artificial).
    pub fn n_cols(&self) -> usize {
        self.cols as usize
    }
}

/// Per-row basic-variable choice for a caller-constructed **crash
/// basis** (see [`crash_basis`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashVar {
    /// Make structural variable `j` basic in this row.
    Structural(usize),
    /// Make the row's own logical variable basic (slack/surplus; for an
    /// equality row, which has no logical, its artificial at value 0).
    Logical,
}

/// Builds a [`Basis`] from a caller's per-row basic-variable choice,
/// with every unmentioned variable nonbasic at its lower bound. Callers
/// that know their problem's structure (e.g. LP 6–10, where the
/// longest-path times at zero flow are primal feasible) can hand the
/// result to [`solve_warm`] and skip phase 1 outright. The choice is
/// *trusted but verified*: a singular, infeasible, or otherwise unusable
/// crash is detected at install time and quietly falls back to a cold
/// two-phase solve, so a wrong crash costs time, never correctness.
pub fn crash_basis(p: &Problem, choice: &[CrashVar]) -> Basis {
    assert_eq!(choice.len(), p.rows.len(), "one choice per row");
    let (layout, cols) = row_layout(p);
    let basic = choice
        .iter()
        .zip(&layout)
        .enumerate()
        .map(|(i, (&var, &(cmp, art)))| match var {
            CrashVar::Structural(j) => {
                assert!(j < p.n_vars, "structural index {j} out of range");
                j as u32
            }
            CrashVar::Logical if cmp == Cmp::Eq => art.expect("Eq rows have an artificial") as u32,
            CrashVar::Logical => (p.n_vars + i) as u32,
        })
        .collect();
    Basis {
        basic,
        at_upper: vec![false; cols],
        rows: p.rows.len() as u32,
        cols: cols as u32,
    }
}

/// The engine's row layout, decided once for [`crash_basis`] and
/// `Rev::build`: each row's sense after a negative right-hand side has
/// flipped it (`≤` ↔ `≥`), and the artificial column of each `≥`/`=`
/// row, numbered in row order from `n_vars + rows`. Returns the layout
/// and the total column count.
fn row_layout(p: &Problem) -> (Vec<(Cmp, Option<usize>)>, usize) {
    let mut next_art = p.n_vars + p.rows.len();
    let layout = p
        .rows
        .iter()
        .map(|row| {
            let cmp = match (row.cmp, row.rhs < 0.0) {
                (Cmp::Le, true) => Cmp::Ge,
                (Cmp::Ge, true) => Cmp::Le,
                (c, _) => c,
            };
            let art = (cmp != Cmp::Le).then(|| {
                next_art += 1;
                next_art - 1
            });
            (cmp, art)
        })
        .collect();
    (layout, next_art)
}

/// Where a variable currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VStat {
    Basic(u32),
    Lower,
    Upper,
}

/// One elementary (eta) matrix: pivoting row `r` on a direction vector
/// `d` maps `B⁻¹ ← E·B⁻¹` with `E` the identity except column `r`. The
/// direction's nonzeros off the pivot row, `(row, d_row)` ascending by
/// row, are `Rev::eta_ent[lo..hi]`.
#[derive(Clone, Copy)]
struct Eta {
    r: u32,
    inv_piv: f64,
    lo: usize,
    hi: usize,
}

/// `eta_of_row` entry of a row no rebuild eta pivots on.
const NO_ETA: u32 = u32::MAX;

/// Workspace of the rebuild's sparse FTRAN ([`Rev::image`]): a dense
/// accumulator that is all zeros between columns, the rows the current
/// image touched, and the min-heap of etas it has reached.
struct Image {
    v: Vec<f64>,
    seen: Vec<bool>,
    pattern: Vec<u32>,
    reached: BinaryHeap<Reverse<u32>>,
}

impl Image {
    fn new(m: usize) -> Image {
        Image {
            v: vec![0.0; m],
            seen: vec![false; m],
            pattern: Vec::new(),
            reached: BinaryHeap::new(),
        }
    }

    /// Adds row `i` to the pattern on its first touch and queues the
    /// eta pivoting on it if that eta's turn (index `>= next`) is still
    /// to come. A row first touched after its eta's turn needs nothing:
    /// a dense sweep found a zero there and skipped that eta.
    fn touch(&mut self, i: u32, eta_of_row: &[u32], next: u32) {
        if !self.seen[i as usize] {
            self.seen[i as usize] = true;
            self.pattern.push(i);
            let e = eta_of_row[i as usize];
            if e != NO_ETA && e >= next {
                self.reached.push(Reverse(e));
            }
        }
    }

    /// Zeroes what the last image touched.
    fn clear(&mut self) {
        for &i in &self.pattern {
            self.v[i as usize] = 0.0;
            self.seen[i as usize] = false;
        }
        self.pattern.clear();
    }
}

/// The triangular peel's bookkeeping over the basis slots (see
/// [`Rev::refactorize`]).
struct Peel {
    /// Row → the slots whose columns touch it, as CSR: `row_slot[
    /// row_start[i]..row_start[i + 1]]`, slots ascending within a row.
    row_start: Vec<usize>,
    row_slot: Vec<u32>,
    /// Active slots still touching each row.
    row_cnt: Vec<u32>,
    /// Active rows still touched by each slot's column.
    col_cnt: Vec<u32>,
    slot_done: Vec<bool>,
    row_taken: Vec<bool>,
    col_stack: Vec<usize>,
    row_stack: Vec<usize>,
    /// `(slot, row)` in the order the peel took them.
    order: Vec<(usize, usize)>,
}

impl Peel {
    fn slots(&self, r: usize) -> &[u32] {
        &self.row_slot[self.row_start[r]..self.row_start[r + 1]]
    }

    /// Takes slot `s` (whose column's rows are `rows`) on row `r`.
    fn take(&mut self, s: usize, r: usize, rows: &[u32]) {
        self.slot_done[s] = true;
        self.row_taken[r] = true;
        self.order.push((s, r));
        // column s leaves: its other active rows lose a column
        for &i in rows {
            let i = i as usize;
            if !self.row_taken[i] {
                self.row_cnt[i] -= 1;
                if self.row_cnt[i] == 1 {
                    self.row_stack.push(i);
                }
            }
        }
        // row r leaves: every other active column through r shrinks
        for k in self.row_start[r]..self.row_start[r + 1] {
            let s2 = self.row_slot[k] as usize;
            if !self.slot_done[s2] {
                self.col_cnt[s2] -= 1;
                if self.col_cnt[s2] == 1 {
                    self.col_stack.push(s2);
                }
            }
        }
    }
}

/// Relative drop tolerance when recording eta nonzeros (mirrors the
/// flat engine's `DROP_REL` rationale).
const DROP_REL: f64 = 1e-15;
/// Pivot magnitudes below this are numerically unusable.
const PIV_TOL: f64 = 1e-9;
/// Primal/dual feasibility tolerance for the warm-start path.
const DTOL: f64 = 1e-7;
/// Rebuild the eta file after this many pivots since the last rebuild…
const REFACTOR_EVERY: usize = 192;
/// …or once it has *grown* by this many nonzeros per row since then
/// (every FTRAN/BTRAN walks the whole file, so growth is the per-pivot
/// cost knob; the triangular-peel rebuild is near-O(nnz) and cheap).
const REFACTOR_NNZ_PER_ROW: usize = 32;

/// Why a simplex loop, a seed or a finish stopped short of its goal.
enum Stop {
    /// Phase 1 ended with artificial mass left: the rows are
    /// inconsistent.
    Infeasible,
    /// Phase 2 found an improving ray.
    Unbounded,
    /// An offered basis that does not install or is neither primal- nor
    /// dual-feasible, a stalled dual repair, the iteration cap, or a
    /// singular refactorization: restart colder.
    Fail,
    /// A cooperative budget check tripped. Unlike [`Stop::Fail`], this
    /// must NOT restart colder — the caller surfaces it as
    /// [`Outcome::Exhausted`] and stops doing work.
    Exhausted(Exhausted),
}

impl From<Exhausted> for Stop {
    fn from(e: Exhausted) -> Stop {
        Stop::Exhausted(e)
    }
}

struct Rev<'a> {
    p: &'a Problem,
    m: usize,
    n0: usize,
    /// First artificial column (`n0 + m`).
    n_real: usize,
    n_cols: usize,
    // CSC over all columns.
    colp: Vec<usize>,
    rowi: Vec<u32>,
    vals: Vec<f64>,
    upper: Vec<f64>,
    banned: Vec<bool>,
    /// Normalized right-hand sides (`≥ 0`).
    b: Vec<f64>,
    /// `b` minus the at-upper columns' contribution (`x_B = B⁻¹ b_eff`).
    b_eff: Vec<f64>,
    basis: Vec<usize>,
    status: Vec<VStat>,
    x_b: Vec<f64>,
    /// The eta file, in application order (entries in `eta_ent`).
    etas: Vec<Eta>,
    /// Every eta's off-pivot entries, back to back.
    eta_ent: Vec<(u32, f64)>,
    /// `(etas.len(), eta_nnz())` right after the last refactorization —
    /// the growth triggers compare against this base, not zero (a
    /// refactorization itself emits up to m etas).
    eta_base: (usize, usize),
    stats: LpStats,
    phase2: bool,
    /// Cooperative budget meter; one `lp_pivots` charge per pivot or
    /// bound flip, checked *before* the step is applied.
    meter: Option<&'a BudgetMeter>,
}

impl<'a> Rev<'a> {
    /// Builds the CSC matrix, logical/artificial columns, and the
    /// all-logical starting basis (`B = I`, no etas), charging `meter`
    /// for every pivot the solve will make.
    fn build(p: &'a Problem, meter: Option<&'a BudgetMeter>) -> Rev<'a> {
        let m = p.rows.len();
        let n0 = p.n_vars;
        let n_real = n0 + m;
        let (layout, n_cols) = row_layout(p);
        // Normalize rows to rhs ≥ 0 (negating a flipped row), summing
        // repeated variable indices per row.
        let mut acc: Vec<f64> = vec![0.0; n0];
        let rows: Vec<Vec<(usize, f64)>> = p
            .rows
            .iter()
            .map(|r| {
                let mut touched: Vec<usize> = Vec::with_capacity(r.coeffs.len());
                for &(j, v) in &r.coeffs {
                    if acc[j] == 0.0 {
                        touched.push(j);
                    }
                    acc[j] += v;
                }
                touched.sort_unstable();
                let sign = if r.rhs < 0.0 { -1.0 } else { 1.0 };
                touched
                    .iter()
                    .map(|&j| {
                        let v = acc[j] * sign;
                        acc[j] = 0.0;
                        (j, v)
                    })
                    .filter(|&(_, v)| v != 0.0)
                    .collect()
            })
            .collect();

        // CSC: structural columns from the rows, then one logical column
        // per row (slack +1 / surplus −1 / banned zero for Eq), then one
        // artificial (+1) per Ge/Eq row.
        let mut count = vec![0usize; n_cols];
        for (i, (coeffs, &(cmp, art))) in rows.iter().zip(&layout).enumerate() {
            for &(j, _) in coeffs {
                count[j] += 1;
            }
            if cmp != Cmp::Eq {
                count[n0 + i] += 1;
            }
            if let Some(a) = art {
                count[a] += 1;
            }
        }
        let mut colp = vec![0usize; n_cols + 1];
        for j in 0..n_cols {
            colp[j + 1] = colp[j] + count[j];
        }
        let nnz = colp[n_cols];
        let mut rowi = vec![0u32; nnz];
        let mut vals = vec![0.0f64; nnz];
        let mut cursor = colp.clone();
        let mut push = |j: usize, i: usize, v: f64| {
            let k = cursor[j];
            rowi[k] = i as u32;
            vals[k] = v;
            cursor[j] = k + 1;
        };
        for (i, (coeffs, &(cmp, art))) in rows.iter().zip(&layout).enumerate() {
            for &(j, v) in coeffs {
                push(j, i, v);
            }
            match cmp {
                Cmp::Le => push(n0 + i, i, 1.0),
                Cmp::Ge => push(n0 + i, i, -1.0),
                Cmp::Eq => {}
            }
            if let Some(a) = art {
                push(a, i, 1.0);
            }
        }

        let mut upper = vec![f64::INFINITY; n_cols];
        for (j, u) in p.upper.iter().enumerate() {
            if let Some(u) = u {
                upper[j] = *u;
            }
        }
        let mut banned = vec![false; n_cols];
        let b: Vec<f64> = p.rows.iter().map(|r| r.rhs.abs()).collect();

        // Starting basis: the logical/artificial identity.
        let mut basis = vec![usize::MAX; m];
        let mut status = vec![VStat::Lower; n_cols];
        for (i, &(cmp, art)) in layout.iter().enumerate() {
            let col = art.unwrap_or(n0 + i);
            basis[i] = col;
            status[col] = VStat::Basic(i as u32);
            if cmp == Cmp::Eq {
                // the unused Eq logical column is an all-zero column
                banned[n0 + i] = true;
                upper[n0 + i] = 0.0;
            }
        }

        let n_bounded = p.upper.iter().filter(|u| u.is_some()).count();
        Rev {
            p,
            m,
            n0,
            n_real,
            n_cols,
            colp,
            rowi,
            vals,
            upper,
            banned,
            b_eff: b.clone(),
            x_b: b.clone(),
            b,
            basis,
            status,
            etas: Vec::new(),
            eta_ent: Vec::new(),
            eta_base: (0, 0),
            stats: LpStats {
                rows: m,
                cols: n_cols,
                bound_rows: 0,
                bound_cols: n_bounded,
                ..Default::default()
            },
            phase2: false,
            meter,
        }
    }

    /// Charges one pivot to the meter, if any.
    #[inline]
    fn charge_pivot(&self) -> Result<(), Exhausted> {
        match self.meter {
            Some(m) => m.charge_lp_pivots(1),
            None => Ok(()),
        }
    }

    #[inline]
    fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.colp[j], self.colp[j + 1]);
        (&self.rowi[lo..hi], &self.vals[lo..hi])
    }

    /// `v += f · A_j` (sparse column into a dense vector).
    fn add_col(v: &mut [f64], rows: &[u32], vals: &[f64], f: f64) {
        for (&i, &a) in rows.iter().zip(vals) {
            v[i as usize] += f * a;
        }
    }

    #[inline]
    fn ent(&self, e: &Eta) -> &[(u32, f64)] {
        &self.eta_ent[e.lo..e.hi]
    }

    /// Nonzeros in the eta file (pivots included).
    fn eta_nnz(&self) -> usize {
        self.etas.len() + self.eta_ent.len()
    }

    /// Applies `B⁻¹` to `v` in place (forward through the eta file).
    fn ftran(&self, v: &mut [f64]) {
        for e in &self.etas {
            let t = v[e.r as usize];
            if t != 0.0 {
                let s = t * e.inv_piv;
                v[e.r as usize] = s;
                for &(i, d) in self.ent(e) {
                    v[i as usize] -= d * s;
                }
            }
        }
    }

    /// Applies `(B⁻¹)ᵀ` to `v` in place (backward through the eta file).
    fn btran(&self, v: &mut [f64]) {
        for e in self.etas.iter().rev() {
            let mut s = v[e.r as usize];
            for &(i, d) in self.ent(e) {
                s -= d * v[i as usize];
            }
            v[e.r as usize] = s * e.inv_piv;
        }
    }

    /// Sparse `B⁻¹ A_j` over the etas rebuilt so far, into the clear
    /// workspace `w`, leaving `w.pattern` ascending. Only the etas the
    /// column reaches are visited — `eta_of_row` names the rebuild eta
    /// pivoting on each row — and they are applied in increasing eta
    /// index, each still skipped when its pivot entry is exactly zero,
    /// so every value has the bits of a dense [`Rev::ftran`].
    fn image(&self, j: usize, eta_of_row: &[u32], w: &mut Image) {
        let (rows, vals) = self.col(j);
        for (&i, &a) in rows.iter().zip(vals) {
            w.touch(i, eta_of_row, 0);
            w.v[i as usize] = a;
        }
        while let Some(Reverse(k)) = w.reached.pop() {
            let e = self.etas[k as usize];
            let t = w.v[e.r as usize];
            if t != 0.0 {
                let s = t * e.inv_piv;
                w.v[e.r as usize] = s;
                for &(i, d) in self.ent(&e) {
                    w.touch(i, eta_of_row, k + 1);
                    w.v[i as usize] -= d * s;
                }
            }
        }
        w.pattern.sort_unstable();
    }

    /// Dense scratch holding `B⁻¹ A_j`.
    fn direction(&self, j: usize, scratch: &mut Vec<f64>) {
        scratch.clear();
        scratch.resize(self.m, 0.0);
        let (rows, vals) = self.col(j);
        for (&i, &a) in rows.iter().zip(vals) {
            scratch[i as usize] = a;
        }
        self.ftran(scratch);
    }

    /// Appends the eta pivoting row `r` on the direction `d`, read at
    /// `rows` — ascending, and covering every nonzero of `d`. Entries
    /// below the relative drop tolerance are not stored.
    fn push_eta(&mut self, r: usize, d: &[f64], rows: impl Iterator<Item = usize> + Clone) {
        let scale = rows.clone().fold(0.0f64, |s, i| s.max(d[i].abs()));
        let drop = scale.max(1.0) * DROP_REL;
        let lo = self.eta_ent.len();
        self.eta_ent.extend(
            rows.filter(|&i| i != r && d[i].abs() > drop)
                .map(|i| (i as u32, d[i])),
        );
        self.etas.push(Eta {
            r: r as u32,
            inv_piv: 1.0 / d[r],
            lo,
            hi: self.eta_ent.len(),
        });
    }

    /// Emits the rebuild eta for the image in `w` pivoting on row `r`,
    /// unless it is the identity (no off-pivot entries, pivot exactly
    /// 1: a unit slack or artificial column on its own row), which is
    /// an exact no-op in FTRAN and BTRAN.
    fn push_rebuild_eta(&mut self, r: usize, w: &Image, eta_of_row: &mut [u32]) {
        let k = self.etas.len();
        self.push_eta(r, &w.v, w.pattern.iter().map(|&i| i as usize));
        let e = self.etas[k];
        if e.lo == e.hi && e.inv_piv == 1.0 {
            self.etas.pop();
        } else {
            eta_of_row[r] = k as u32;
        }
    }

    /// The combined triangular peel (Suhl-style) over the basis columns
    /// `cols`: repeatedly take either a *column singleton* (a column
    /// with one nonzero left in active rows — unit slack/artificial
    /// columns all qualify immediately) or a *row singleton* (a row
    /// only one active column still touches). Each take opens further
    /// singletons; what survives is the genuinely non-triangular
    /// kernel.
    fn peel(&self, cols: &[usize]) -> Peel {
        let m = self.m;
        let mut row_start = vec![0usize; m + 1];
        let mut col_cnt = vec![0u32; m];
        for (s, &c) in cols.iter().enumerate() {
            let rows = self.col(c).0;
            col_cnt[s] = rows.len() as u32;
            for &i in rows {
                row_start[i as usize + 1] += 1;
            }
        }
        let row_cnt: Vec<u32> = (0..m).map(|i| row_start[i + 1] as u32).collect();
        for i in 0..m {
            row_start[i + 1] += row_start[i];
        }
        let mut fill = row_start.clone();
        let mut row_slot = vec![0u32; row_start[m]];
        for (s, &c) in cols.iter().enumerate() {
            for &i in self.col(c).0 {
                row_slot[fill[i as usize]] = s as u32;
                fill[i as usize] += 1;
            }
        }
        let mut p = Peel {
            col_stack: (0..m).filter(|&s| col_cnt[s] == 1).collect(),
            row_stack: (0..m).filter(|&i| row_cnt[i] == 1).collect(),
            row_start,
            row_slot,
            row_cnt,
            col_cnt,
            slot_done: vec![false; m],
            row_taken: vec![false; m],
            order: Vec::with_capacity(m),
        };
        loop {
            if let Some(s) = p.col_stack.pop() {
                if p.slot_done[s] || p.col_cnt[s] != 1 {
                    continue;
                }
                let rows = self.col(cols[s]).0;
                let Some(&r) = rows.iter().find(|&&i| !p.row_taken[i as usize]) else {
                    continue;
                };
                p.take(s, r as usize, rows);
            } else if let Some(r) = p.row_stack.pop() {
                if p.row_taken[r] || p.row_cnt[r] != 1 {
                    continue;
                }
                let Some(&s) = p.slots(r).iter().find(|&&s| !p.slot_done[s as usize]) else {
                    continue;
                };
                p.take(s as usize, r, self.col(cols[s as usize]).0);
            } else {
                break;
            }
        }
        p
    }

    /// Rebuilds the eta file from the current basis columns (sparse
    /// Gauss–Jordan; rows may be reassigned). Pivot order matters
    /// enormously: network bases are near-triangular, and processing a
    /// permuted-lower-triangular prefix in diagonal order produces etas
    /// that are exactly the original sparse columns (the FTRAN skip on
    /// a zero pivot entry then never materializes fill-in). The
    /// [`Rev::peel`] finds that order in `O(nnz)`; only the small
    /// non-triangular kernel falls back to partial pivoting.
    ///
    /// The rebuild refills the eta arena in place and computes each
    /// column's image with the sparse [`Rev::image`], so it costs about
    /// the nonzeros of the images instead of a dense `m`-vector and a
    /// whole-file FTRAN per column. Its etas are bit-identical to those
    /// of a dense Gauss–Jordan over the same order: images carry dense
    /// FTRAN's bits, the pattern is sorted before an eta is emitted
    /// (`ent` ascending by row), the kernel's partial pivot scans that
    /// pattern in ascending row order under the same strict `>`, and
    /// the only etas left out are identities (see
    /// [`Rev::push_rebuild_eta`]). The growth triggers count from the
    /// post-rebuild `eta_base`, so dropping those changes no schedule.
    ///
    /// A peel pivot is the basis entry itself (the peeled order is
    /// triangular), so a peel row whose entry is `≤ PIV_TOL` is
    /// rejected and its column retried in the kernel, which then fails
    /// as well: the triangular order leaves no other pivot for that row
    /// or that column. Recomputes `x_B`; returns `false` on a singular
    /// basis.
    fn refactorize(&mut self) -> bool {
        self.etas.clear();
        self.eta_ent.clear();
        let m = self.m;
        let cols: Vec<usize> = self.basis.clone();
        let Peel {
            mut slot_done,
            mut row_taken,
            order,
            ..
        } = self.peel(&cols);
        let mut eta_of_row = vec![NO_ETA; m];
        let mut w = Image::new(m);
        let mut new_basis = vec![usize::MAX; m];
        for &(s, r) in &order {
            self.image(cols[s], &eta_of_row, &mut w);
            if w.v[r].abs() <= PIV_TOL {
                // numerically degenerate on its peel row: retry below
                slot_done[s] = false;
                row_taken[r] = false;
            } else {
                new_basis[r] = cols[s];
                self.push_rebuild_eta(r, &w, &mut eta_of_row);
            }
            w.clear();
        }
        // --- non-triangular kernel (and peel rejects): partial pivoting
        for s in 0..m {
            if slot_done[s] {
                continue;
            }
            self.image(cols[s], &eta_of_row, &mut w);
            let mut r_best = usize::MAX;
            let mut best = PIV_TOL;
            for &i in &w.pattern {
                let i = i as usize;
                if !row_taken[i] && w.v[i].abs() > best {
                    best = w.v[i].abs();
                    r_best = i;
                }
            }
            if r_best == usize::MAX {
                return false;
            }
            row_taken[r_best] = true;
            new_basis[r_best] = cols[s];
            self.push_rebuild_eta(r_best, &w, &mut eta_of_row);
            w.clear();
        }
        self.basis = new_basis;
        for (r, &c) in self.basis.iter().enumerate() {
            self.status[c] = VStat::Basic(r as u32);
        }
        self.stats.refactorizations += 1;
        self.eta_base = (self.etas.len(), self.eta_nnz());
        self.recompute_x_b();
        true
    }

    fn recompute_x_b(&mut self) {
        let mut v = self.b_eff.clone();
        self.ftran(&mut v);
        self.x_b = v;
    }

    fn needs_refactor(&self) -> bool {
        let (base_len, base_nnz) = self.eta_base;
        self.etas.len() - base_len >= REFACTOR_EVERY
            || self.eta_nnz() - base_nnz > REFACTOR_NNZ_PER_ROW * self.m + 1024
    }

    /// Phase cost of column `j`.
    #[inline]
    fn cost(&self, j: usize) -> f64 {
        if self.phase2 {
            if j < self.n0 {
                self.p.objective[j]
            } else {
                0.0
            }
        } else if j >= self.n_real {
            1.0
        } else {
            0.0
        }
    }

    /// Simplex multipliers `y = (B⁻¹)ᵀ c_B` for the current phase.
    fn multipliers(&self, y: &mut Vec<f64>) {
        y.clear();
        y.resize(self.m, 0.0);
        for (r, &c) in self.basis.iter().enumerate() {
            let cb = self.cost(c);
            if cb != 0.0 {
                y[r] = cb;
            }
        }
        self.btran(y);
    }

    #[inline]
    fn rc(&self, j: usize, y: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        let mut dot = 0.0;
        for (&i, &a) in rows.iter().zip(vals) {
            dot += y[i as usize] * a;
        }
        self.cost(j) - dot
    }

    /// A nonbasic column is a pricing candidate unless banned or fixed.
    #[inline]
    fn priceable(&self, j: usize) -> bool {
        !self.banned[j] && !matches!(self.status[j], VStat::Basic(_)) && self.upper[j] > 0.0
    }

    /// The bound-violation a pricing candidate would repair: positive
    /// iff entering `j` improves the current phase objective.
    #[inline]
    fn violation(&self, j: usize, y: &[f64]) -> f64 {
        let rc = self.rc(j, y);
        match self.status[j] {
            VStat::Lower => -rc,
            VStat::Upper => rc,
            VStat::Basic(_) => unreachable!("basic columns are not priced"),
        }
    }

    /// Pricing: picks the entering column. Dantzig picks the first
    /// column attaining the maximum violation (strict `>`, so the lowest
    /// index wins ties); Bland returns at the first violating column.
    // Out of line on purpose: inlined into `primal`, the scan made cold
    // LP 6–10 solves measurably slower (about 3–6% on race instances).
    #[inline(never)]
    fn price(&self, y: &[f64], bland: bool) -> Option<usize> {
        let mut enter: Option<usize> = None;
        let mut best = TOL;
        for j in 0..self.n_cols {
            if !self.priceable(j) {
                continue;
            }
            let viol = self.violation(j, y);
            if viol > best {
                enter = Some(j);
                if bland {
                    break;
                }
                best = viol;
            }
        }
        enter
    }

    /// Moves nonbasic `j` to its opposite bound (`d = B⁻¹ A_j`).
    fn apply_flip(&mut self, j: usize, d: &[f64]) {
        let u = self.upper[j];
        let (sigma, to_upper) = match self.status[j] {
            VStat::Lower => (1.0, true),
            VStat::Upper => (-1.0, false),
            VStat::Basic(_) => unreachable!("flip of a basic column"),
        };
        for (xb, &di) in self.x_b.iter_mut().zip(d) {
            *xb -= sigma * u * di;
        }
        self.status[j] = if to_upper { VStat::Upper } else { VStat::Lower };
        let f = if to_upper { -u } else { u };
        let (lo, hi) = (self.colp[j], self.colp[j + 1]);
        for k in lo..hi {
            self.b_eff[self.rowi[k] as usize] += f * self.vals[k];
        }
        self.stats.bound_flips += 1;
    }

    /// Pivots entering column `j` (moving `t` from its current bound,
    /// direction `d = B⁻¹ A_j`) against row `r`; the leaving variable
    /// settles at `leave_upper ? upper : lower`.
    fn apply_pivot(&mut self, r: usize, j: usize, t: f64, d: &[f64], leave_upper: bool) {
        let from_upper = matches!(self.status[j], VStat::Upper);
        let sigma = if from_upper { -1.0 } else { 1.0 };
        for (i, (xb, &di)) in self.x_b.iter_mut().zip(d).enumerate() {
            if i != r {
                *xb -= sigma * t * di;
            }
        }
        let l = self.basis[r];
        if leave_upper {
            self.status[l] = VStat::Upper;
            let u = self.upper[l];
            let (lo, hi) = (self.colp[l], self.colp[l + 1]);
            for k in lo..hi {
                self.b_eff[self.rowi[k] as usize] -= u * self.vals[k];
            }
        } else {
            self.status[l] = VStat::Lower;
        }
        if from_upper {
            let u = self.upper[j];
            let (lo, hi) = (self.colp[j], self.colp[j + 1]);
            for k in lo..hi {
                self.b_eff[self.rowi[k] as usize] += u * self.vals[k];
            }
        }
        self.basis[r] = j;
        self.status[j] = VStat::Basic(r as u32);
        self.x_b[r] = if from_upper { self.upper[j] - t } else { t };
        self.push_eta(r, d, 0..d.len());
        if self.phase2 {
            self.stats.phase2_pivots += 1;
        } else {
            self.stats.phase1_pivots += 1;
        }
    }

    /// The primal simplex loop for the current phase: Dantzig pricing,
    /// switching to Bland's rule once it stalls.
    fn primal(&mut self) -> Result<(), Stop> {
        let (m, n) = (self.m, self.n_cols);
        let bland_after = 20 * (m + n) + 1000;
        let hard_cap = 2_000 * (m + n) + 100_000;
        let mut y = Vec::new();
        let mut d = Vec::new();
        let mut iters = 0usize;
        loop {
            iters += 1;
            if iters >= hard_cap {
                return Err(Stop::Fail);
            }
            let bland = iters > bland_after;
            // --- pricing
            self.multipliers(&mut y);
            let Some(q) = self.price(&y, bland) else {
                return Ok(());
            };
            let from_upper = matches!(self.status[q], VStat::Upper);
            let sigma = if from_upper { -1.0 } else { 1.0 };
            self.direction(q, &mut d);
            // --- ratio test over the basic variables' bound windows
            let mut leave: Option<(usize, bool)> = None; // (row, leaves at upper)
            let mut best_ratio = f64::INFINITY;
            for (i, &di) in d.iter().enumerate() {
                let sd = sigma * di;
                let (ratio, at_upper) = if sd > TOL {
                    (self.x_b[i].max(0.0) / sd, false)
                } else if sd < -TOL && self.upper[self.basis[i]].is_finite() {
                    let room = (self.upper[self.basis[i]] - self.x_b[i]).max(0.0);
                    (room / -sd, true)
                } else {
                    continue;
                };
                let better = ratio < best_ratio - TOL
                    || (ratio < best_ratio + TOL
                        && leave.is_some_and(|(l, _)| self.basis[i] < self.basis[l]));
                if leave.is_none() || better {
                    best_ratio = ratio;
                    leave = Some((i, at_upper));
                }
            }
            // with no leaving row the ratio stays ∞, so a finite upper
            // bound always flips
            let flip_cap = self.upper[q];
            if flip_cap.is_finite() && flip_cap < best_ratio - TOL {
                self.charge_pivot()?;
                self.apply_flip(q, &d);
                continue;
            }
            let Some((r, leave_upper)) = leave else {
                return Err(Stop::Unbounded);
            };
            // the ratio test admits only |d_r| > TOL, above PIV_TOL, so
            // the pivot is always usable here (unlike the dual loop's)
            self.charge_pivot()?;
            self.apply_pivot(r, q, best_ratio.max(0.0), &d, leave_upper);
            if self.needs_refactor() && !self.refactorize() {
                return Err(Stop::Fail);
            }
        }
    }

    /// Bounded dual simplex: restores primal feasibility while keeping
    /// dual feasibility (warm starts after an RHS change, dual-feasible
    /// crashes). An entering column that passes its own far bound still
    /// enters (never flips), and a later iteration repairs it. No repair
    /// possible, or none within the cap, is [`Stop::Fail`].
    fn dual(&mut self) -> Result<(), Stop> {
        let cap = 20 * (self.m + self.n_cols) + 1000;
        let mut y = Vec::new();
        let mut rho = Vec::new();
        let mut d = Vec::new();
        for _ in 0..cap {
            // --- most-violated basic variable
            let mut leave: Option<(usize, bool)> = None; // (row, violates upper)
            let mut worst = DTOL;
            for (i, &xb) in self.x_b.iter().enumerate() {
                let u = self.upper[self.basis[i]];
                if xb < -worst {
                    worst = -xb;
                    leave = Some((i, false));
                } else if xb > u + worst {
                    worst = xb - u;
                    leave = Some((i, true));
                }
            }
            let Some((r, over_upper)) = leave else {
                return Ok(());
            };
            // --- row r of B⁻¹A and the reduced costs
            rho.clear();
            rho.resize(self.m, 0.0);
            rho[r] = 1.0;
            self.btran(&mut rho);
            self.multipliers(&mut y);
            let mut enter: Option<usize> = None;
            let mut best_theta = f64::INFINITY;
            for j in 0..self.n_cols {
                if !self.priceable(j) {
                    continue;
                }
                let (rows, vals) = self.col(j);
                let mut alpha = 0.0;
                for (&i, &a) in rows.iter().zip(vals) {
                    alpha += rho[i as usize] * a;
                }
                let at_lower = matches!(self.status[j], VStat::Lower);
                // eligibility: the pivot must move x_B[r] toward its bound
                let ok = if over_upper {
                    (at_lower && alpha > DTOL) || (!at_lower && alpha < -DTOL)
                } else {
                    (at_lower && alpha < -DTOL) || (!at_lower && alpha > DTOL)
                };
                if !ok {
                    continue;
                }
                let theta = (self.rc(j, &y) / alpha).abs();
                if theta < best_theta - TOL
                    || (theta < best_theta + TOL && enter.is_some_and(|e| j < e))
                    || enter.is_none()
                {
                    best_theta = theta;
                    enter = Some(j);
                }
            }
            let Some(q) = enter else {
                return Err(Stop::Fail);
            };
            self.direction(q, &mut d);
            if d[r].abs() <= PIV_TOL {
                return Err(Stop::Fail);
            }
            let sigma = if matches!(self.status[q], VStat::Upper) {
                -1.0
            } else {
                1.0
            };
            let target = if over_upper {
                self.upper[self.basis[r]]
            } else {
                0.0
            };
            let t = ((self.x_b[r] - target) / (sigma * d[r])).max(0.0);
            self.charge_pivot()?;
            self.apply_pivot(r, q, t, &d, over_upper);
            if self.needs_refactor() && !self.refactorize() {
                return Err(Stop::Fail);
            }
        }
        Err(Stop::Fail)
    }

    /// Sum of the artificial variables (the phase-1 objective).
    fn artificial_residual(&self) -> f64 {
        self.basis
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= self.n_real)
            .map(|(r, _)| self.x_b[r].max(0.0))
            .sum()
    }

    /// Bans artificials and pivots still-basic ones out (degenerate
    /// pivots); redundant rows keep their artificial harmlessly basic.
    fn retire_artificials(&mut self) {
        for j in self.n_real..self.n_cols {
            self.banned[j] = true;
            // a retired artificial is fixed at zero; the dual loop's
            // bound checks then police redundant rows under RHS changes
            self.upper[j] = 0.0;
        }
        let mut rho = Vec::new();
        let mut d = Vec::new();
        for r in 0..self.m {
            if self.basis[r] < self.n_real {
                continue;
            }
            self.x_b[r] = 0.0;
            rho.clear();
            rho.resize(self.m, 0.0);
            rho[r] = 1.0;
            self.btran(&mut rho);
            let found = (0..self.n_real).find(|&j| {
                if self.banned[j] || matches!(self.status[j], VStat::Basic(_)) {
                    return false;
                }
                let (rows, vals) = self.col(j);
                let mut alpha = 0.0;
                for (&i, &a) in rows.iter().zip(vals) {
                    alpha += rho[i as usize] * a;
                }
                alpha.abs() > 1e-7
            });
            if let Some(j) = found {
                self.direction(j, &mut d);
                if d[r].abs() > PIV_TOL {
                    self.apply_pivot(r, j, 0.0, &d, false);
                }
            }
        }
    }

    /// Final cleanup plus one step of iterative refinement on
    /// `B x_B = b_eff`, then the solution extraction. A fresh eta file
    /// (≤ 16 pivots since the last rebuild — the steady state of a
    /// warm-sweep point) skips the refactorization and only re-solves
    /// `x_B`; refinement bounds the drift either way.
    fn extract(&mut self) -> Result<Solution, Stop> {
        if self.etas.len() - self.eta_base.0 > 16 {
            if !self.refactorize() {
                return Err(Stop::Fail);
            }
        } else {
            self.recompute_x_b();
        }
        let mut resid = self.b_eff.clone();
        for (r, &c) in self.basis.iter().enumerate() {
            let xb = self.x_b[r];
            if xb != 0.0 {
                let (rows, vals) = self.col(c);
                Self::add_col(&mut resid, rows, vals, -xb);
            }
        }
        self.ftran(&mut resid);
        for (xb, dx) in self.x_b.iter_mut().zip(&resid) {
            *xb += dx;
        }
        let mut x = vec![0.0; self.n0];
        for (j, xv) in x.iter_mut().enumerate() {
            *xv = match self.status[j] {
                VStat::Lower => 0.0,
                VStat::Upper => self.upper[j],
                VStat::Basic(r) => {
                    let v = self.x_b[r as usize];
                    let u = self.upper[j];
                    if u.is_finite() {
                        v.clamp(0.0, u)
                    } else {
                        v.max(0.0)
                    }
                }
            };
        }
        let objective = self.p.objective_at(&x);
        let pivots = self.stats.phase1_pivots + self.stats.phase2_pivots + self.stats.bound_flips;
        Ok(Solution {
            objective,
            x,
            pivots,
            stats: self.stats,
        })
    }

    /// Brings a freshly built engine to a primal-feasible phase-2
    /// basis: the one way a solve starts. An offered `start` is
    /// installed and either repaired by the dual simplex (it installs
    /// dual-feasible: an old optimum after an RHS change) or accepted
    /// as it stands (primal-feasible: a structural crash); the entry
    /// used is recorded in `stats.warm`, and a start that does neither
    /// is [`Stop::Fail`]. With no start, phase 1 runs from the
    /// all-logical basis and the artificials retire.
    fn seed(&mut self, start: Option<&Basis>) -> Result<(), Stop> {
        let Some(warm) = start else {
            if self.n_cols > self.n_real {
                match self.primal() {
                    // phase 1 is bounded below by 0: Unbounded means numerics
                    Err(Stop::Unbounded) => return Err(Stop::Fail),
                    phase1 => phase1?,
                }
                if self.artificial_residual() > 1e-6 {
                    return Err(Stop::Infeasible);
                }
                self.retire_artificials();
            }
            self.phase2 = true;
            return Ok(());
        };
        if !self.install(warm) {
            return Err(Stop::Fail);
        }
        if self.is_dual_feasible() {
            self.dual()?;
            self.stats.warm = WarmStart::Dual;
        } else if self.is_primal_feasible() {
            self.stats.warm = WarmStart::Primal;
        } else {
            return Err(Stop::Fail);
        }
        Ok(())
    }

    /// Runs phase 2 from a seeded basis, extracts the solution, and
    /// snapshots the optimal basis for the next warm start: the one way
    /// a solve ends.
    fn finish(&mut self) -> Result<(Solution, Basis), Stop> {
        self.primal()?;
        let sol = self.extract()?;
        let basis = Basis {
            basic: self.basis.iter().map(|&c| c as u32).collect(),
            at_upper: self
                .status
                .iter()
                .map(|s| matches!(s, VStat::Upper))
                .collect(),
            rows: self.m as u32,
            cols: self.n_cols as u32,
        };
        Ok((sol, basis))
    }

    /// Installs a previously returned basis: reassigns statuses,
    /// rebuilds `b_eff`, and refactorizes. `false` when the basis does
    /// not fit this problem or is singular.
    fn install(&mut self, warm: &Basis) -> bool {
        if warm.rows as usize != self.m || warm.cols as usize != self.n_cols {
            return false;
        }
        // phase 2 from the start: artificials stay banned and fixed at 0
        // (do this first so the at-upper validation below sees their
        // finite bound — a dual pivot can legitimately park one "at
        // upper", i.e. at 0)
        self.phase2 = true;
        for j in self.n_real..self.n_cols {
            self.banned[j] = true;
            self.upper[j] = 0.0;
        }
        let mut status = vec![VStat::Lower; self.n_cols];
        for (r, &c) in warm.basic.iter().enumerate() {
            let c = c as usize;
            if c >= self.n_cols || matches!(status[c], VStat::Basic(_)) {
                return false;
            }
            status[c] = VStat::Basic(r as u32);
        }
        for (j, &up) in warm.at_upper.iter().enumerate() {
            if up {
                if matches!(status[j], VStat::Basic(_)) || !self.upper[j].is_finite() {
                    return false;
                }
                status[j] = VStat::Upper;
            }
        }
        self.status = status;
        self.basis = warm.basic.iter().map(|&c| c as usize).collect();
        self.b_eff = self.b.clone();
        for j in 0..self.n_cols {
            if matches!(self.status[j], VStat::Upper) {
                let u = self.upper[j];
                let (lo, hi) = (self.colp[j], self.colp[j + 1]);
                for k in lo..hi {
                    self.b_eff[self.rowi[k] as usize] -= u * self.vals[k];
                }
            }
        }
        self.refactorize()
    }

    /// Whether the installed basic values respect their bounds (the
    /// zero upper bound on retired artificials makes this also check
    /// that no basic artificial carries value).
    fn is_primal_feasible(&self) -> bool {
        self.basis.iter().zip(&self.x_b).all(|(&c, &v)| {
            let u = self.upper[c];
            v >= -DTOL && (u.is_infinite() || v <= u + DTOL)
        })
    }

    /// Whether the phase-2 reduced costs are sign-feasible.
    fn is_dual_feasible(&self) -> bool {
        let mut y = Vec::new();
        self.multipliers(&mut y);
        (0..self.n_cols).all(|j| {
            if !self.priceable(j) {
                return true;
            }
            let rc = self.rc(j, &y);
            match self.status[j] {
                VStat::Lower => rc >= -DTOL,
                VStat::Upper => rc <= DTOL,
                VStat::Basic(_) => true,
            }
        })
    }
}

/// Solves `p` with the revised engine — the one single-solve entry.
/// With a `start` [`Basis`] from a previous solve of an
/// identically-shaped problem (only right-hand sides may differ), the
/// solve warm-starts from it; with none, it runs the two-phase cold
/// solve. Returns the outcome plus the optimal basis for the next warm
/// start; the basis is `None` unless the solve ended
/// [`Outcome::Optimal`].
///
/// A warm start that fails in any way is re-solved cold, and its
/// solution records [`WarmStart::Rejected`]; a cold solve that fails
/// numerically restarts in the flat engine under Bland's rule. A
/// `meter`, when given, is charged one `lp_pivots` unit per pivot or
/// bound flip across every stage (warm repair, cold restart, flat
/// restart); exhaustion surfaces as [`Outcome::Exhausted`] and never
/// falls back to more work.
pub fn solve_warm(
    p: &Problem,
    start: Option<&Basis>,
    meter: Option<&BudgetMeter>,
) -> (Outcome, Option<Basis>) {
    let mut rev = Rev::build(p, meter);
    let run = rev.seed(start).and_then(|()| rev.finish());
    settle(p, start, meter, run)
}

/// Turns the seed-and-finish result `run` of a [`solve_warm`] call into
/// its outcome: an optimum and its basis as they stand, exhaustion as
/// it stands, any other stop after a warm `start` re-solved cold, and
/// a cold numerical failure restarted in the flat engine under Bland's
/// rule, still charging `meter`.
fn settle(
    p: &Problem,
    start: Option<&Basis>,
    meter: Option<&BudgetMeter>,
    run: Result<(Solution, Basis), Stop>,
) -> (Outcome, Option<Basis>) {
    match run {
        Ok((sol, basis)) => (Outcome::Optimal(sol), Some(basis)),
        Err(Stop::Exhausted(e)) => (Outcome::Exhausted(e), None),
        // never trust a warm start's verdicts beyond optimality:
        // unboundedness could be eta-file drift, so re-derive it cold
        Err(_) if start.is_some() => {
            let (mut out, basis) = solve_warm(p, None, meter);
            if let Outcome::Optimal(ref mut sol) = out {
                sol.stats.warm = WarmStart::Rejected;
            }
            (out, basis)
        }
        Err(Stop::Infeasible) => (Outcome::Infeasible, None),
        Err(Stop::Unbounded) => (Outcome::Unbounded, None),
        // the revised engine's worst case matches the flat engine's
        // guarantees; the meter keeps counting across the restart —
        // the budget bounds the request's total pivot work
        Err(Stop::Fail) => (solve_standard(p, PivotRule::Bland, meter), None),
    }
}

/// Solves `p` at every value of `rhs_values` for row `row`'s right-hand
/// side, in **one chained solver session**: the CSC matrix, eta file,
/// and basis survive from point to point, so each point after the first
/// pays only its dual-reoptimization pivots — no rebuild, no install
/// refactorization. Outcomes are returned in input order (each optimal
/// outcome's [`Solution`] counters are per-point, not cumulative),
/// plus the final basis.
///
/// `start` seeds the first point, exactly as in [`solve_warm`].
/// Any hiccup — negative RHS (which would flip the row's normalized
/// sense), a failed seed, a stalled loop — degrades the remaining
/// points to independent [`solve_warm`] calls; the chain is an
/// optimization, never a correctness dependency.
///
/// A `meter` bounds the *whole sweep*: once it trips, the current and
/// every remaining point come back as [`Outcome::Exhausted`] (the
/// counters are cumulative, so restarting per point cannot evade the
/// budget) and no reusable basis is returned.
///
/// # Panics
///
/// If `row` is out of range, or if a value of `rhs_values` is not
/// finite ("rhs must be finite", as in [`Problem::set_rhs`]).
pub fn solve_rhs_sweep(
    p: &Problem,
    row: usize,
    rhs_values: &[f64],
    start: Option<&Basis>,
    meter: Option<&BudgetMeter>,
) -> (Vec<Outcome>, Option<Basis>) {
    assert!(row < p.rows.len(), "row {row} out of range");
    assert!(
        rhs_values.iter().all(|v| v.is_finite()),
        "rhs must be finite"
    );
    // ends the chain at point `from`: exhaustion gives every remaining
    // point the same verdict and drops the basis; any other stop
    // degrades the remaining points to independent solves from `basis`
    let end = |from: usize, stop: Stop, mut out: Vec<Outcome>, mut basis: Option<Basis>| {
        if let Stop::Exhausted(e) = stop {
            out.extend(rhs_values[from..].iter().map(|_| Outcome::Exhausted(e)));
            return (out, None);
        }
        let mut q = p.clone();
        for &v in &rhs_values[from..] {
            q.set_rhs(row, v);
            let (o, b) = solve_warm(&q, basis.as_ref(), meter);
            if b.is_some() {
                basis = b;
            }
            out.push(o);
        }
        (out, basis)
    };
    let mut out = Vec::with_capacity(rhs_values.len());
    if rhs_values.is_empty() {
        return (out, start.cloned());
    }
    if rhs_values.iter().any(|&v| v < 0.0) {
        return end(0, Stop::Fail, out, start.cloned());
    }
    let mut q = p.clone();
    q.set_rhs(row, rhs_values[0]);
    let mut rev = Rev::build(&q, meter);
    // the first point's counter baseline predates seeding, so a cold
    // seed's phase-1 pivots are charged to the point that caused them
    let seed_base = rev.stats;
    // a failed seed degrades from the same start; once seeded, a failed
    // point degrades from the last point's basis (none at point 0)
    if let Err(stop) = rev.seed(start) {
        return end(0, stop, out, start.cloned());
    }
    let mut basis = None;
    for (k, &v) in rhs_values.iter().enumerate() {
        // the baseline for this point's counters — taken before the
        // dual repair so a warm point's reported pivots are exactly
        // its dual-reoptimization cost plus the primal polish (and
        // point 0 additionally owns the seeding work)
        let base = if k == 0 { seed_base } else { rev.stats };
        let repaired = if k == 0 {
            Ok(())
        } else {
            // only the RHS moves: dual feasibility is preserved, the
            // dual loop repairs the (usually tiny) primal violation
            rev.b[row] = v;
            rev.b_eff[row] += v - rhs_values[k - 1];
            rev.recompute_x_b();
            rev.dual()
        };
        // a chained session trusts nothing suspicious: genuine
        // unboundedness survives the cold re-verify in `end`, while
        // eta-drift artifacts get corrected
        let (mut sol, b) = match repaired.and_then(|()| rev.finish()) {
            Ok(point) => point,
            Err(stop) => return end(k, stop, out, basis),
        };
        // per-point counters: subtract the chain's running totals
        sol.stats.phase1_pivots -= base.phase1_pivots;
        sol.stats.phase2_pivots -= base.phase2_pivots;
        sol.stats.bound_flips -= base.bound_flips;
        sol.stats.refactorizations -= base.refactorizations;
        if k > 0 {
            // chained points reoptimize from the previous point's basis
            sol.stats.warm = WarmStart::Dual;
        }
        sol.pivots = sol.stats.phase1_pivots + sol.stats.phase2_pivots + sol.stats.bound_flips;
        basis = Some(b);
        out.push(Outcome::Optimal(sol));
    }
    (out, basis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Problem};

    fn opt(p: &Problem) -> Solution {
        solve_warm(p, None, None)
            .0
            .expect_optimal("expected optimal")
    }

    /// A `Rev` over `p` with `cols[r]` basic in row `r` and every other
    /// column nonbasic at its lower bound, ready for a direct rebuild.
    fn with_basis<'p>(p: &'p Problem, cols: &[usize]) -> Rev<'p> {
        let mut rev = Rev::build(p, None);
        rev.status.fill(VStat::Lower);
        for (r, &c) in cols.iter().enumerate() {
            rev.status[c] = VStat::Basic(r as u32);
        }
        rev.basis = cols.to_vec();
        rev
    }

    /// After a successful rebuild, `B⁻¹ A_c` is the unit vector of each
    /// basic column's row, and no identity eta is left in the file.
    fn assert_factor(rev: &Rev) {
        let mut d = Vec::new();
        for (r, &c) in rev.basis.iter().enumerate() {
            rev.direction(c, &mut d);
            for (i, &v) in d.iter().enumerate() {
                let want = if i == r { 1.0 } else { 0.0 };
                assert!(
                    (v - want).abs() <= 1e-9,
                    "column {c} in row {r}: entry {i} is {v}"
                );
            }
        }
        for e in &rev.etas {
            assert!(
                e.lo != e.hi || e.inv_piv != 1.0,
                "identity eta on row {}",
                e.r
            );
        }
    }

    #[test]
    fn rebuild_pivots_a_dense_kernel_and_drops_identity_etas() {
        // rows 0-2: a dense block in x0..x2 with no row or column
        // singleton, left to partial pivoting; row 3: x3 alone (its
        // unit slack is basic); row 4: x0 + 2 x4
        let mut p = Problem::minimize(5);
        p.add_le(&[(0, 2.0), (1, 1.0), (2, 1.0)], 4.0);
        p.add_le(&[(0, 1.0), (1, 3.0), (2, 1.0)], 5.0);
        p.add_le(&[(0, 1.0), (1, 1.0), (2, 4.0)], 6.0);
        p.add_le(&[(3, 1.0)], 1.0);
        p.add_le(&[(0, 1.0), (4, 2.0)], 2.0);
        let slack3 = 5 + 3;
        let cols = [0, 1, 2, slack3, 4];
        let mut rev = with_basis(&p, &cols);
        assert_eq!(
            rev.peel(&cols).order,
            vec![(4, 4), (3, 3)],
            "only x4 and the slack peel"
        );
        assert!(rev.refactorize());
        assert_factor(&rev);
        // x4's eta and the three kernel pivots; the slack left none
        assert_eq!(rev.etas.len(), 4);
        assert_eq!(rev.stats.refactorizations, 1);
    }

    #[test]
    fn rejected_peel_pivot_is_retried_in_the_kernel() {
        // x0 = e_0 peels first (an identity eta, dropped); x1 then peels
        // as a column singleton on row 1, where its image is exactly its
        // entry there, because a peeled order is triangular
        let build = |entry: f64| {
            let mut p = Problem::minimize(2);
            p.add_le(&[(0, 1.0), (1, 1.0)], 1.0);
            p.add_le(&[(1, entry)], 1.0);
            p
        };
        let usable = build(1e-6);
        let mut rev = with_basis(&usable, &[0, 1]);
        assert_eq!(rev.peel(&[0, 1]).order, vec![(0, 0), (1, 1)]);
        assert!(rev.refactorize());
        assert_factor(&rev);
        assert_eq!(rev.etas.len(), 1, "x0's identity eta is dropped");

        // at PIV_TOL the peel rejects x1 on row 1 and retries it in the
        // kernel, which finds no other free row: a triangular basis with
        // an unusable diagonal entry is numerically singular
        let tiny = build(PIV_TOL);
        let mut rev = with_basis(&tiny, &[0, 1]);
        assert!(!rev.refactorize());
        assert_eq!(rev.stats.refactorizations, 0);
    }

    #[test]
    fn singular_basis_fails_the_rebuild_and_the_solve_goes_cold() {
        // two equal columns: no singleton to peel, and once the first
        // takes a row the second's image is zero on the other
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        p.add_ge(&[(0, 1.0), (1, 1.0)], 1.0);
        p.add_ge(&[(0, 1.0), (1, 1.0)], 1.0);
        let mut rev = with_basis(&p, &[0, 1]);
        assert!(!rev.refactorize());

        let crash = crash_basis(&p, &[CrashVar::Structural(0), CrashVar::Structural(1)]);
        let (out, _) = solve_warm(&p, Some(&crash), None);
        let s = out.expect_optimal("cold fallback");
        assert_eq!(s.stats.warm, WarmStart::Rejected);
        assert!((s.objective - 1.0).abs() < 1e-9);
    }

    #[test]
    fn matches_flat_on_bounded_lp() {
        // min x + 2y s.t. x + y >= 2, y <= 1
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 2.0);
        p.add_ge(&[(0, 1.0), (1, 1.0)], 2.0);
        p.set_upper_bound(1, 1.0);
        let s = opt(&p);
        assert!((s.objective - 2.0).abs() < 1e-9, "{}", s.objective);
        // implicit bounds: no bound rows materialized
        assert_eq!(s.stats.rows, 1);
        assert_eq!(s.stats.bound_rows, 0);
        assert_eq!(s.stats.bound_cols, 1);
        let f = p.solve_with(Engine::Flat).expect_optimal("flat");
        assert_eq!(f.stats.rows, 2, "flat materializes the bound row");
        assert_eq!(f.stats.bound_rows, 1);
    }

    #[test]
    fn detects_infeasible_and_unbounded() {
        let mut p = Problem::minimize(1);
        p.add_ge(&[(0, 1.0)], 5.0);
        p.set_upper_bound(0, 1.0);
        assert!(matches!(solve_warm(&p, None, None).0, Outcome::Infeasible));

        let mut p = Problem::minimize(1);
        p.set_objective(0, -1.0);
        p.add_ge(&[(0, 1.0)], 1.0);
        assert!(matches!(solve_warm(&p, None, None).0, Outcome::Unbounded));
    }

    #[test]
    fn bounded_objective_uses_bound_flip() {
        // min -x with x <= 3: optimum x = 3 via a bound flip, no pivot.
        let mut p = Problem::minimize(1);
        p.set_objective(0, -1.0);
        p.set_upper_bound(0, 3.0);
        let s = opt(&p);
        assert!((s.objective + 3.0).abs() < 1e-9);
        assert!(s.stats.bound_flips >= 1, "{:?}", s.stats);
    }

    #[test]
    fn warm_start_agrees_with_cold_across_rhs_changes() {
        // A tiny budgeted flow shape: re-solve at several budgets,
        // warm-chaining, and compare against cold solves.
        let build = |budget: f64| {
            let mut p = Problem::minimize(3);
            p.set_objective(2, 1.0); // minimize T
            p.add_ge(&[(2, 1.0), (0, 4.0)], 4.0); // T + 4 f0 >= 4
            p.add_ge(&[(2, 1.0), (1, 5.0)], 5.0); // T + 5 f1 >= 5
            p.add_le(&[(0, 1.0), (1, 1.0)], budget);
            p.set_upper_bound(0, 1.0);
            p.set_upper_bound(1, 1.0);
            p
        };
        let mut warm: Option<Basis> = None;
        for b in [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 1.0, 0.5] {
            let p = build(b);
            let (out, basis) = solve_warm(&p, warm.as_ref(), None);
            let w = out.expect_optimal("warm");
            let c = solve_warm(&p, None, None).0.expect_optimal("cold");
            assert!(
                (w.objective - c.objective).abs() < 1e-9,
                "budget {b}: warm {} vs cold {}",
                w.objective,
                c.objective
            );
            assert!(p.is_feasible(&w.x, 1e-7), "budget {b}: {:?}", w.x);
            warm = basis;
        }
    }

    #[test]
    fn warm_start_rejects_wrong_shape() {
        let mut p1 = Problem::minimize(2);
        p1.set_objective(0, 1.0);
        p1.add_ge(&[(0, 1.0), (1, 1.0)], 2.0);
        let (_, basis) = solve_warm(&p1, None, None);
        let basis = basis.expect("optimal basis");
        let mut p2 = Problem::minimize(3);
        p2.set_objective(0, 1.0);
        p2.add_ge(&[(0, 1.0), (1, 1.0), (2, 1.0)], 2.0);
        p2.add_le(&[(2, 1.0)], 1.0);
        // shape mismatch must quietly fall back to a cold solve
        let (out, _) = solve_warm(&p2, Some(&basis), None);
        let s = out.expect_optimal("cold fallback");
        assert!((s.objective - 0.0).abs() < 1e-9);
    }

    #[test]
    fn pivot_budget_trips_mid_solve_and_an_ample_one_does_not() {
        use rtt_budget::{BudgetMeter, Dimension};
        // non-trivial enough to need several pivots
        let mut p = Problem::minimize(4);
        for j in 0..4 {
            p.set_objective(j, 1.0 + j as f64);
        }
        p.add_ge(&[(0, 1.0), (1, 1.0)], 2.0);
        p.add_ge(&[(1, 1.0), (2, 1.0)], 3.0);
        p.add_ge(&[(2, 1.0), (3, 1.0)], 4.0);
        p.add_eq(&[(0, 1.0), (3, 1.0)], 1.0);

        let tight = BudgetMeter::with_limits(Some(1), None, None, None);
        match solve_warm(&p, None, Some(&tight)).0 {
            Outcome::Exhausted(e) => {
                assert_eq!(e.dimension, Dimension::LpPivots);
                assert_eq!(e.limit, 1);
                assert!(e.consumed > e.limit);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        // the meter recorded the work that was attempted
        assert!(tight.consumed().lp_pivots >= 2);

        let ample = BudgetMeter::with_limits(Some(1_000_000), None, None, None);
        let s = solve_warm(&p, None, Some(&ample))
            .0
            .expect_optimal("ample budget");
        let cold = solve_warm(&p, None, None).0.expect_optimal("unmetered");
        assert!((s.objective - cold.objective).abs() < 1e-9);
        assert!(ample.consumed().lp_pivots > 0);
    }

    /// Minimize `T` s.t. `T + 4 f0 ≥ 4`, `T + 5 f1 ≥ 5`, `f ≤ 1`, and
    /// the budget row 2, `f0 + f1 ≤ 0`.
    fn budget_row_problem() -> Problem {
        let mut p = Problem::minimize(3);
        p.set_objective(2, 1.0);
        p.add_ge(&[(2, 1.0), (0, 4.0)], 4.0);
        p.add_ge(&[(2, 1.0), (1, 5.0)], 5.0);
        p.add_le(&[(0, 1.0), (1, 1.0)], 0.0);
        p.set_upper_bound(0, 1.0);
        p.set_upper_bound(1, 1.0);
        p
    }

    #[test]
    fn a_failed_cold_solve_settles_in_the_flat_engine() {
        let p = budget_row_problem();
        let (out, basis) = settle(&p, None, None, Err(Stop::Fail));
        let flat = solve_standard(&p, PivotRule::Bland, None).expect_optimal("flat");
        let sol = out.expect_optimal("the flat restart answers");
        assert_eq!(sol.objective.to_bits(), flat.objective.to_bits());
        assert_eq!(sol.x, flat.x);
        assert_eq!(sol.pivots, flat.pivots);
        assert_eq!(
            sol.stats.bound_rows, 2,
            "the flat tableau materializes f ≤ 1"
        );
        assert!(basis.is_none(), "a flat answer carries no revised basis");
    }

    #[test]
    fn the_flat_restart_keeps_charging_the_meter() {
        use rtt_budget::BudgetMeter;
        let meter = BudgetMeter::with_limits(Some(0), None, None, None);
        let (out, basis) = settle(&budget_row_problem(), None, Some(&meter), Err(Stop::Fail));
        assert!(matches!(out, Outcome::Exhausted(_)), "{out:?}");
        assert!(basis.is_none());
    }

    #[test]
    fn sweep_fills_remaining_points_on_exhaustion() {
        use rtt_budget::BudgetMeter;
        let p = budget_row_problem();
        let meter = BudgetMeter::with_limits(Some(1), None, None, None);
        let (outs, basis) = solve_rhs_sweep(&p, 2, &[0.0, 0.5, 1.0, 2.0], None, Some(&meter));
        assert_eq!(outs.len(), 4, "one outcome per requested point");
        assert!(basis.is_none(), "no reusable basis after exhaustion");
        assert!(
            outs.iter().any(|o| matches!(o, Outcome::Exhausted(_))),
            "{outs:?}"
        );
        // once tripped, every later point is exhausted too
        let first = outs
            .iter()
            .position(|o| matches!(o, Outcome::Exhausted(_)))
            .unwrap();
        assert!(outs[first..]
            .iter()
            .all(|o| matches!(o, Outcome::Exhausted(_))));
    }

    #[test]
    fn sweep_degrades_a_negative_rhs_to_independent_solves() {
        let p = budget_row_problem();
        let (outs, basis) = solve_rhs_sweep(&p, 2, &[0.5, -1.0], None, None);
        assert_eq!(outs.len(), 2, "one outcome per requested point");
        // T = 4 − 4 f0 = 5 − 5 f1 with f0 + f1 = 0.5
        let first = outs[0].clone().expect_optimal("budget 0.5");
        assert!((first.objective - 10.0 / 3.0).abs() < 1e-9, "{first:?}");
        // a negative budget flips the row's sense, which no chained
        // point can carry: it is solved on its own, and no nonnegative
        // flow meets it
        assert!(matches!(outs[1], Outcome::Infeasible), "{:?}", outs[1]);
        assert!(basis.is_some(), "the last optimal basis is returned");
    }

    #[test]
    #[should_panic(expected = "rhs must be finite")]
    fn sweep_rejects_a_non_finite_rhs() {
        solve_rhs_sweep(&budget_row_problem(), 2, &[0.5, f64::NAN], None, None);
    }

    #[test]
    fn equality_and_degenerate_rows() {
        let mut p = Problem::minimize(2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        for _ in 0..3 {
            p.add_ge(&[(0, 1.0), (1, 1.0)], 2.0);
        }
        p.add_eq(&[(0, 2.0), (1, 2.0)], 4.0);
        let s = opt(&p);
        assert!((s.objective - 2.0).abs() < 1e-9);
    }
}
