//! Fault-injection fixtures: solvers that fail on purpose.
//!
//! Neither is part of [`crate::Registry::standard`]. Tests and the CI
//! fault-injection smoke register them explicitly (the `rtt` CLI gates
//! them behind `RTT_FAULT_SOLVERS=1`) to exercise the executor's panic
//! isolation and budget enforcement. Both decline
//! [`Solver::supports`], so they never join an `all` fan-out: a request
//! must name them.

use crate::budget::{BudgetContext, ExhaustionPolicy};
use crate::prep::PreparedInstance;
use crate::request::{SolveReport, SolveRequest, Status};
use crate::solver::{report_exhausted, Capability, Solver};

/// Panics on every solve: the batch must report this solver as
/// [`Status::Failed`] and finish every other request untouched.
pub struct AlwaysPanicSolver;

impl Solver for AlwaysPanicSolver {
    fn name(&self) -> &'static str {
        "fixture-panic"
    }

    // declines the `all` fan-out so healthy requests never touch it;
    // named selection bypasses supports(), which is how tests and the
    // fault corpus invoke it
    fn supports(&self, _prep: &PreparedInstance) -> Capability {
        Capability::Unsupported("fault-injection fixture: select by name")
    }

    fn solve(&self, req: &SolveRequest, _ctx: &BudgetContext) -> SolveReport {
        panic!("fixture solver panicked on request {}", req.id);
    }
}

/// Charges `lp_pivots` in deterministic 1024-unit slabs until the
/// request's pivot budget trips, then reports the exhaustion. Without
/// an enforced pivot limit it declines instead of spinning — the
/// fixture exists to exhaust, not to stall.
pub struct AlwaysExhaustSolver;

impl Solver for AlwaysExhaustSolver {
    fn name(&self) -> &'static str {
        "fixture-exhaust"
    }

    // like the panic fixture: reachable by name only
    fn supports(&self, _prep: &PreparedInstance) -> Capability {
        Capability::Unsupported("fault-injection fixture: select by name")
    }

    fn solve(&self, req: &SolveRequest, ctx: &BudgetContext) -> SolveReport {
        let enforced = ctx.spec().is_some_and(|s| {
            s.limits.lp_pivots.is_some() && s.policies.policy != ExhaustionPolicy::SoftWarn
        });
        let meter = match ctx.meter() {
            Some(m) if enforced => m,
            _ => {
                return SolveReport::new(
                    req.id.clone(),
                    self.name(),
                    Status::Unsupported,
                    "fixture requires an enforced max_pivots budget",
                )
            }
        };
        // bounded: 2^20 slab charges outlast any limit the meter can
        // hold below 2^30 pivots, and the fixture never loops past them
        for _ in 0..(1u64 << 20) {
            if let Err(e) = meter.charge_lp_pivots(1024) {
                return report_exhausted(req, self.name(), e);
            }
        }
        SolveReport::new(
            req.id.clone(),
            self.name(),
            Status::Unsupported,
            "fixture pivot budget too large to exhaust (≥ 2^30)",
        )
    }
}
