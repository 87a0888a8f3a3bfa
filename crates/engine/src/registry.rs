//! The solver registry: every algorithm in the repo, enumerable and
//! addressable by name. The CLI's `--solver` dispatch, the batch
//! executor's `all` fan-out, and the registry-wide property tests all
//! walk this one list — there is no other dispatch table.

use crate::solver::{
    BicriteriaSolver, Capability, ExactSolver, FamilySolver, GlobalGreedySolver,
    NoReuseBicriteriaSolver, Solver, SpDpSolver,
};
use rtt_core::ArcInstance;

/// An ordered collection of registered solvers.
pub struct Registry {
    solvers: Vec<Box<dyn Solver>>,
}

impl Registry {
    /// An empty registry (for embedding custom solver sets).
    pub fn new() -> Self {
        Registry {
            solvers: Vec::new(),
        }
    }

    /// The standard registry: every solver the repo ships, in the order
    /// reports are emitted by `--solver all`.
    pub fn standard() -> Self {
        let mut r = Registry::new();
        r.register(Box::new(ExactSolver::ROUTED));
        r.register(Box::new(BicriteriaSolver));
        r.register(Box::new(FamilySolver::KWAY));
        r.register(Box::new(FamilySolver::RECBINARY));
        r.register(Box::new(FamilySolver::RECBINARY_IMPROVED));
        r.register(Box::new(SpDpSolver));
        r.register(Box::new(ExactSolver::NO_REUSE));
        r.register(Box::new(NoReuseBicriteriaSolver));
        r.register(Box::new(GlobalGreedySolver));
        r
    }

    /// Appends a solver. Panics on a duplicate name: names are the
    /// dispatch keys, so a collision is a programming error.
    pub fn register(&mut self, solver: Box<dyn Solver>) {
        assert!(
            self.get(solver.name()).is_none(),
            "duplicate solver name {:?}",
            solver.name()
        );
        self.solvers.push(solver);
    }

    /// Looks a solver up by canonical name (aliases are *not* applied;
    /// see [`Registry::resolve`]).
    pub fn get(&self, name: &str) -> Option<&dyn Solver> {
        self.solvers
            .iter()
            .map(|s| s.as_ref())
            .find(|s| s.name() == name)
    }

    /// Looks a solver up by canonical name or historical CLI alias
    /// (`improved` → `recbinary-improved`, `sp` → `sp-dp`).
    pub fn resolve(&self, name: &str) -> Option<&dyn Solver> {
        self.get(canonical_name(name))
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.solvers.iter().map(|s| s.name()).collect()
    }

    /// Iterates over the registered solvers in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Solver> {
        self.solvers.iter().map(|s| s.as_ref())
    }

    /// The solvers that support `arc`, in registration order.
    pub fn supporting<'a>(&'a self, arc: &ArcInstance) -> Vec<&'a dyn Solver> {
        self.iter()
            .filter(|s| matches!(s.supports(arc), Capability::Supported))
            .collect()
    }

    /// [`Registry::supporting`] through the shared preprocessing, so
    /// capability checks hit cached artifacts (the batch executor's
    /// `all` fan-out uses this).
    pub fn supporting_prepared<'a>(
        &'a self,
        prep: &crate::PreparedInstance,
    ) -> Vec<&'a dyn Solver> {
        self.iter()
            .filter(|s| matches!(s.supports_prepared(prep), Capability::Supported))
            .collect()
    }

    /// Number of registered solvers.
    pub fn len(&self) -> usize {
        self.solvers.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// Maps historical CLI solver names onto registry names; canonical
/// names pass through unchanged.
pub fn canonical_name(name: &str) -> &str {
    match name {
        "improved" => "recbinary-improved",
        "sp" => "sp-dp",
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_has_every_pipeline() {
        let r = Registry::standard();
        assert_eq!(
            r.names(),
            vec![
                "exact",
                "bicriteria",
                "kway",
                "recbinary",
                "recbinary-improved",
                "sp-dp",
                "noreuse-exact",
                "noreuse-bicriteria",
                "global-greedy",
            ]
        );
        assert_eq!(r.len(), 9);
    }

    #[test]
    fn aliases_resolve() {
        let r = Registry::standard();
        assert_eq!(r.resolve("improved").unwrap().name(), "recbinary-improved");
        assert_eq!(r.resolve("sp").unwrap().name(), "sp-dp");
        assert_eq!(r.resolve("exact").unwrap().name(), "exact");
        assert!(r.resolve("nonsense").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate solver name")]
    fn duplicate_names_rejected() {
        let mut r = Registry::standard();
        r.register(Box::new(crate::solver::ExactSolver::ROUTED));
    }
}
