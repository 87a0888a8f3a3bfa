//! Request-level budget policy: limits, exhaustion policies, and the
//! per-request [`BudgetContext`] the executor threads into every solve.
//!
//! The metering mechanism lives in `rtt_budget` (below every solver
//! crate); *policy* lives here. A [`SolveRequest`](crate::SolveRequest)
//! may carry a [`BudgetSpec`]: hard limits per dimension plus one
//! [`ExhaustionPolicy`] for the whole request, saying what the engine
//! does when any of its limits trips mid-solve:
//!
//! * [`ExhaustionPolicy::HardReject`] — the report fails with
//!   [`Status::BudgetExhausted`](crate::Status::BudgetExhausted) and a
//!   structured reason (dimension, limit, consumed);
//! * [`ExhaustionPolicy::Degrade`] — the executor falls back along a
//!   declared chain (`exact` → `bicriteria`, `sp-dp` → `bicriteria`,
//!   `noreuse-exact` → `noreuse-bicriteria`; a full simulation
//!   certificate degrades to analytic-only) and marks the report
//!   `degraded_from`;
//! * [`ExhaustionPolicy::SoftWarn`] — the solve runs to completion
//!   (the limit is *not* installed on the meter) and the report is
//!   flagged when consumption exceeded the declared limit.
//!
//! Counter dimensions charge at deterministic points, so rejection,
//! degradation, and warnings are all byte-stable across thread counts.
//! The wall-clock deadline is the one intentionally non-deterministic
//! dimension and stays off the wire, like `deadline_ms` today.

use rtt_budget::{BudgetMeter, Consumed, Dimension};
use std::time::Instant;

/// Per-dimension hard limits a request declares. `None` = unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetLimits {
    /// Cap on simplex pivots + bound flips across every LP the request
    /// solves.
    pub lp_pivots: Option<u64>,
    /// Cap on combinatorial solver work (SP-DP merge steps and
    /// exact-search nodes — the unified `work` dimension).
    pub dp_merge_steps: Option<u64>,
    /// Cap on Observation 1.1 certification simulation events.
    pub sim_events: Option<u64>,
    /// Admission bound: reject if this many requests were enqueued
    /// ahead of this one (checked once at dispatch, never mid-solve).
    pub queue_depth: Option<u64>,
}

impl BudgetLimits {
    /// Whether no limit is set on any dimension.
    pub fn is_empty(&self) -> bool {
        self.lp_pivots.is_none()
            && self.dp_merge_steps.is_none()
            && self.sim_events.is_none()
            && self.queue_depth.is_none()
    }

    /// The declared limit for a dimension (`None` for unlimited or for
    /// the limitless wall-clock dimension).
    pub fn for_dimension(&self, dim: Dimension) -> Option<u64> {
        match dim {
            Dimension::LpPivots => self.lp_pivots,
            Dimension::DpMergeSteps => self.dp_merge_steps,
            Dimension::SimEvents => self.sim_events,
            Dimension::QueueDepth => self.queue_depth,
            Dimension::WallClock => None,
        }
    }
}

/// What the engine does when a budget dimension runs out mid-solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExhaustionPolicy {
    /// Fail the report with [`crate::Status::BudgetExhausted`] and the
    /// structured reason.
    #[default]
    HardReject,
    /// Fall back along the solver's declared degradation chain (or
    /// reject if it has none); certificate exhaustion degrades the
    /// report to analytic-only instead of failing it.
    Degrade,
    /// Complete the solve at full fidelity and flag the report when the
    /// declared limit was exceeded. The limit is advisory: it is *not*
    /// installed on the meter, so the solver never trips.
    SoftWarn,
}

impl ExhaustionPolicy {
    /// Stable lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ExhaustionPolicy::HardReject => "hard-reject",
            ExhaustionPolicy::Degrade => "degrade",
            ExhaustionPolicy::SoftWarn => "soft-warn",
        }
    }

    /// Parses a wire name (see [`ExhaustionPolicy::as_str`]).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "hard-reject" => Ok(ExhaustionPolicy::HardReject),
            "degrade" => Ok(ExhaustionPolicy::Degrade),
            "soft-warn" => Ok(ExhaustionPolicy::SoftWarn),
            other => Err(format!(
                "unknown exhaustion policy {other:?} (expected hard-reject, degrade, or soft-warn)"
            )),
        }
    }
}

/// The exhaustion policy a request declares: one for every limit it
/// sets, as the wire's one `on_exhaustion` field states it. Wall-clock
/// is always hard (it reuses the deadline machinery and cannot be
/// degraded around).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetPolicies {
    /// Policy when any counter limit or the queue-depth bound trips.
    pub policy: ExhaustionPolicy,
}

impl BudgetPolicies {
    /// `p` on every limit the request declares.
    pub fn uniform(p: ExhaustionPolicy) -> Self {
        BudgetPolicies { policy: p }
    }

    /// The policy governing a dimension: the declared one, except that
    /// wall-clock always hard-rejects (mapped onto the deadline
    /// machinery).
    pub fn for_dimension(&self, dim: Dimension) -> ExhaustionPolicy {
        match dim {
            Dimension::WallClock => ExhaustionPolicy::HardReject,
            _ => self.policy,
        }
    }
}

/// The exhaustion policy `req` declares for `dim` (hard-reject when the
/// request carries no budget — unreachable in practice, since only
/// budgeted requests can exhaust).
pub(crate) fn policy_for(req: &crate::SolveRequest, dim: Dimension) -> ExhaustionPolicy {
    req.budget
        .map(|s| s.policies.for_dimension(dim))
        .unwrap_or_default()
}

/// The budget a request declares: per-dimension limits plus one
/// exhaustion policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    /// Per-dimension hard limits.
    pub limits: BudgetLimits,
    /// The exhaustion policy for every declared limit.
    pub policies: BudgetPolicies,
}

impl BudgetSpec {
    /// A spec with the given limits under
    /// [`ExhaustionPolicy::HardReject`].
    pub fn with_limits(limits: BudgetLimits) -> Self {
        BudgetSpec {
            limits,
            policies: BudgetPolicies::default(),
        }
    }
}

/// The per-(request, solver) enforcement state the executor builds:
/// the meter (if the request declared any enforceable limit) plus the
/// spec the report is judged against afterwards.
#[derive(Debug, Default)]
pub struct BudgetContext {
    meter: Option<BudgetMeter>,
    spec: Option<BudgetSpec>,
}

impl BudgetContext {
    /// A context with no budget: solvers see no meter, reports carry no
    /// budget block — the pre-budget engine behavior, byte for byte.
    pub fn unbudgeted() -> Self {
        Self::default()
    }

    /// Builds the context for a request. A meter is created only when
    /// the request declares a budget; its limits are installed on the
    /// meter only under `HardReject`/`Degrade` (`SoftWarn` limits are
    /// advisory and judged post-solve, so the solver must not trip on
    /// them). The request deadline becomes the meter's mid-solve
    /// wall-clock deadline only when a budget is declared — deadline-
    /// only requests keep the legacy at-dequeue-only enforcement.
    pub fn for_request(req: &crate::SolveRequest, queued_at: Instant) -> Self {
        let Some(spec) = req.budget else {
            return Self::unbudgeted();
        };
        let limits = match spec.policies.policy {
            ExhaustionPolicy::SoftWarn => BudgetLimits::default(),
            _ => spec.limits,
        };
        let meter = BudgetMeter::with_limits(
            limits.lp_pivots,
            limits.dp_merge_steps,
            limits.sim_events,
            req.deadline.map(|d| queued_at + d),
        );
        BudgetContext {
            meter: Some(meter),
            spec: Some(spec),
        }
    }

    /// The meter to thread into solvers (`None` when unbudgeted).
    pub fn meter(&self) -> Option<&BudgetMeter> {
        self.meter.as_ref()
    }

    /// The declared spec (`None` when unbudgeted).
    pub fn spec(&self) -> Option<&BudgetSpec> {
        self.spec.as_ref()
    }

    /// Consumption so far (zeros when unbudgeted).
    pub fn consumed(&self) -> Consumed {
        self.meter
            .as_ref()
            .map(BudgetMeter::consumed)
            .unwrap_or_default()
    }
}

/// The wire-visible budget block of a report: what was consumed, what
/// was declared, and any soft-warn/degradation flags. Present exactly
/// when the request declared a [`BudgetSpec`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetReport {
    /// Consumption counters at report time (cumulative across the
    /// request's whole solve, fallback included).
    pub consumed: Consumed,
    /// The limits the request declared.
    pub limits: BudgetLimits,
    /// Soft-warn flags: one `"<dimension> <consumed> > limit <limit>"`
    /// entry per advisory limit the solve exceeded.
    pub warnings: Vec<String>,
    /// Degradations applied while still reporting `solved` (e.g.
    /// `"certificate degraded to analytic-only: sim_events … > limit …"`).
    pub degraded: Vec<String>,
}

impl BudgetReport {
    /// Builds the block from the context after the solve, computing
    /// soft-warn flags by comparing consumption against the advisory
    /// limits. `degraded` notes are the executor's to add: those
    /// recorded on the report while it was made (a fallback, a
    /// certificate degraded to analytic-only).
    pub fn from_context(ctx: &BudgetContext) -> Option<Self> {
        let spec = ctx.spec?;
        let consumed = ctx.consumed();
        let mut warnings = Vec::new();
        if spec.policies.policy == ExhaustionPolicy::SoftWarn {
            for (dim, used) in [
                (Dimension::LpPivots, consumed.lp_pivots),
                (Dimension::DpMergeSteps, consumed.dp_merge_steps),
                (Dimension::SimEvents, consumed.sim_events),
            ] {
                if let Some(limit) = spec.limits.for_dimension(dim).filter(|&l| used > l) {
                    warnings.push(format!("{dim} {used} > limit {limit}"));
                }
            }
        }
        Some(BudgetReport {
            consumed,
            limits: spec.limits,
            warnings,
            degraded: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_budget::Exhausted;

    #[test]
    fn policy_wire_names_round_trip() {
        for p in [
            ExhaustionPolicy::HardReject,
            ExhaustionPolicy::Degrade,
            ExhaustionPolicy::SoftWarn,
        ] {
            assert_eq!(ExhaustionPolicy::parse(p.as_str()), Ok(p));
        }
        assert!(ExhaustionPolicy::parse("never").is_err());
    }

    #[test]
    fn soft_warn_limits_stay_off_the_meter() {
        use crate::{PreparedInstance, SolveRequest};
        use rtt_core::instance::Activity;
        use rtt_core::ArcInstance;
        use rtt_dag::Dag;
        use rtt_duration::Duration;
        use std::sync::Arc;

        let mut g: Dag<(), Activity> = Dag::new();
        let (s, t) = (g.add_node(()), g.add_node(()));
        g.add_edge(s, t, Activity::new(Duration::two_point(5, 2, 1)))
            .unwrap();
        let prep = Arc::new(PreparedInstance::new(ArcInstance::new(g).unwrap()));
        let mut req = SolveRequest::min_makespan("q", prep, 1);
        let limits = BudgetLimits {
            lp_pivots: Some(5),
            ..Default::default()
        };
        let meter_limit = |req: &SolveRequest| {
            BudgetContext::for_request(req, Instant::now())
                .meter()
                .expect("a budgeted request gets a meter")
                .limit(Dimension::LpPivots)
        };
        req.budget = Some(BudgetSpec {
            limits,
            policies: BudgetPolicies::uniform(ExhaustionPolicy::SoftWarn),
        });
        assert_eq!(
            req.budget.unwrap().policies.policy,
            ExhaustionPolicy::SoftWarn
        );
        assert_eq!(meter_limit(&req), None);
        req.budget = Some(BudgetSpec::with_limits(limits));
        assert_eq!(meter_limit(&req), Some(5));
        // wall-clock hard-rejects under every declared policy
        for p in [ExhaustionPolicy::Degrade, ExhaustionPolicy::SoftWarn] {
            assert_eq!(
                BudgetPolicies::uniform(p).for_dimension(Dimension::WallClock),
                ExhaustionPolicy::HardReject
            );
        }
    }

    #[test]
    fn budget_report_flags_soft_warn_overage() {
        let _ = Exhausted {
            dimension: Dimension::LpPivots,
            limit: 1,
            consumed: 2,
        };
        let spec = BudgetSpec {
            limits: BudgetLimits {
                lp_pivots: Some(3),
                ..Default::default()
            },
            policies: BudgetPolicies::uniform(ExhaustionPolicy::SoftWarn),
        };
        let ctx = BudgetContext {
            meter: Some(BudgetMeter::unlimited()),
            spec: Some(spec),
        };
        ctx.meter().unwrap().charge_lp_pivots(7).unwrap();
        let block = BudgetReport::from_context(&ctx).unwrap();
        assert_eq!(block.warnings, vec!["lp_pivots 7 > limit 3".to_string()]);
        assert_eq!(block.consumed.lp_pivots, 7);
    }
}
