//! LP model builder.

use crate::simplex::{solve_standard, Engine, Outcome, PivotRule};

/// Row sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ a_j x_j ≤ b`
    Le,
    /// `Σ a_j x_j = b`
    Eq,
    /// `Σ a_j x_j ≥ b`
    Ge,
}

/// One constraint row in sparse form.
#[derive(Debug, Clone)]
pub struct Row {
    /// `(variable index, coefficient)` pairs. Repeated indices are summed.
    pub coeffs: Vec<(usize, f64)>,
    /// Sense.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A minimization LP over variables `x_j ≥ 0` with optional upper bounds.
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) n_vars: usize,
    pub(crate) objective: Vec<f64>,
    pub(crate) rows: Vec<Row>,
    pub(crate) upper: Vec<Option<f64>>,
}

impl Problem {
    /// New minimization problem with `n_vars` variables (all `≥ 0`,
    /// initially unbounded above, zero objective coefficient).
    pub fn minimize(n_vars: usize) -> Self {
        Problem {
            n_vars,
            objective: vec![0.0; n_vars],
            rows: Vec::new(),
            upper: vec![None; n_vars],
        }
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Number of constraint rows (upper bounds not included).
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Sets the objective coefficient of variable `j`.
    pub fn set_objective(&mut self, j: usize, c: f64) {
        assert!(j < self.n_vars, "variable {j} out of range");
        self.objective[j] = c;
    }

    /// Sets an upper bound `x_j ≤ ub` (pass through for `None`-like ∞ via
    /// not calling this). `ub` must be non-negative.
    pub fn set_upper_bound(&mut self, j: usize, ub: f64) {
        assert!(j < self.n_vars, "variable {j} out of range");
        assert!(
            ub >= 0.0 && ub.is_finite(),
            "upper bound must be finite ≥ 0"
        );
        self.upper[j] = Some(ub);
    }

    /// Adds a general row.
    pub fn add_row(&mut self, coeffs: &[(usize, f64)], cmp: Cmp, rhs: f64) {
        for &(j, _) in coeffs {
            assert!(j < self.n_vars, "variable {j} out of range");
        }
        assert!(rhs.is_finite(), "rhs must be finite");
        self.rows.push(Row {
            coeffs: coeffs.to_vec(),
            cmp,
            rhs,
        });
    }

    /// Adds `Σ a_j x_j ≤ b`.
    pub fn add_le(&mut self, coeffs: &[(usize, f64)], rhs: f64) {
        self.add_row(coeffs, Cmp::Le, rhs);
    }

    /// Adds `Σ a_j x_j = b`.
    pub fn add_eq(&mut self, coeffs: &[(usize, f64)], rhs: f64) {
        self.add_row(coeffs, Cmp::Eq, rhs);
    }

    /// Adds `Σ a_j x_j ≥ b`.
    pub fn add_ge(&mut self, coeffs: &[(usize, f64)], rhs: f64) {
        self.add_row(coeffs, Cmp::Ge, rhs);
    }

    /// Solves the problem cold with the default engine — the sparse
    /// revised simplex ([`crate::revised`], Dantzig pricing with
    /// automatic Bland fallback). Warm-started and metered solves call
    /// [`crate::revised::solve_warm`], which takes a [`crate::Basis`]
    /// and a [`rtt_budget::BudgetMeter`].
    pub fn solve(&self) -> Outcome {
        self.solve_with(Engine::Revised)
    }

    /// Solves cold with an explicit engine: the revised simplex
    /// (default) or the dense flat tableau (the differential-test
    /// oracle).
    pub fn solve_with(&self, engine: Engine) -> Outcome {
        match engine {
            Engine::Revised => crate::revised::solve_warm(self, None, None).0,
            Engine::Flat => solve_standard(self, PivotRule::Dantzig, None),
        }
    }

    /// Overwrites the right-hand side of row `index` (for warm-started
    /// re-solves where only one RHS changes, e.g. a budget sweep).
    pub fn set_rhs(&mut self, index: usize, rhs: f64) {
        assert!(index < self.rows.len(), "row {index} out of range");
        assert!(rhs.is_finite(), "rhs must be finite");
        self.rows[index].rhs = rhs;
    }

    /// Checks whether `x` satisfies every constraint (and bound) within
    /// tolerance `tol`. Used by validation and property tests.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.n_vars {
            return false;
        }
        for (j, &v) in x.iter().enumerate() {
            if v < -tol {
                return false;
            }
            if let Some(ub) = self.upper[j] {
                if v > ub + tol {
                    return false;
                }
            }
        }
        for row in &self.rows {
            let lhs: f64 = row.coeffs.iter().map(|&(j, a)| a * x[j]).sum();
            let ok = match row.cmp {
                Cmp::Le => lhs <= row.rhs + tol,
                Cmp::Eq => (lhs - row.rhs).abs() <= tol,
                Cmp::Ge => lhs >= row.rhs - tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }

    /// Objective value at `x`.
    pub fn objective_at(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }
}
