//! Solve statistics: tableau/matrix dimensions and pivot breakdowns.
//!
//! Every engine fills an [`LpStats`] into its [`crate::Solution`], so
//! callers (and benches) can demonstrate structural claims — most
//! importantly that the revised engine's **implicit bounds** delete one
//! row per bounded variable: for the same [`crate::Problem`],
//! `flat.stats.rows == revised.stats.rows + revised.stats.bound_cols`.

/// How a revised-engine solve entered its simplex loop — the
/// warm-start **provenance** of the solution. Diagnostics only (like
/// every other [`LpStats`] field it stays off the batch wire format),
/// but it is what lets callers and tests assert that an offered basis
/// was actually *used* rather than silently rejected into a cold
/// solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum WarmStart {
    /// No basis was offered (or the engine has no warm path): the
    /// ordinary two-phase cold solve.
    #[default]
    Cold,
    /// An offered basis installed **dual-feasible** (the signature of
    /// an old optimum after an RHS change) and was repaired by the dual
    /// simplex.
    Dual,
    /// An offered basis installed **primal-feasible** (a structural
    /// crash) and went straight to phase 2.
    Primal,
    /// A basis was offered but rejected (shape mismatch, singular
    /// install, neither primal- nor dual-feasible, or a stalled warm
    /// loop); the solve fell back cold. Cost, never correctness.
    Rejected,
}

impl WarmStart {
    /// Stable lowercase name, for logs and bench documents.
    pub fn as_str(&self) -> &'static str {
        match self {
            WarmStart::Cold => "cold",
            WarmStart::Dual => "dual",
            WarmStart::Primal => "primal",
            WarmStart::Rejected => "rejected",
        }
    }
}

/// Dimension and work counters of one LP solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpStats {
    /// Constraint rows the engine materialized. The flat/reference
    /// engines add one row per upper-bounded variable; the revised
    /// engine handles bounds implicitly and materializes none.
    pub rows: usize,
    /// Total columns (structural + logical + artificial).
    pub cols: usize,
    /// Upper-bound rows materialized (flat/reference) — always 0 for
    /// the revised engine.
    pub bound_rows: usize,
    /// Variables with a finite upper bound (identical across engines;
    /// for the revised engine these are handled by bound flips).
    pub bound_cols: usize,
    /// Pivots spent reaching feasibility (phase 1).
    pub phase1_pivots: usize,
    /// Pivots spent optimizing (phase 2, including any warm-start dual
    /// pivots).
    pub phase2_pivots: usize,
    /// Bound flips (revised engine only): nonbasic variables moved
    /// between their bounds without a basis change.
    pub bound_flips: usize,
    /// Basis refactorizations (revised engine only).
    pub refactorizations: usize,
    /// Warm-start provenance (revised engine only; always
    /// [`WarmStart::Cold`] for the dense engines).
    pub warm: WarmStart,
}
