//! Request-admission lint: the one owner of the request-level checks.
//!
//! [`lint_request`] judges one **built** [`SolveRequest`] — the form an
//! embedding (or ROADMAP open item 1's resident gateway) submits
//! directly, skipping the NDJSON front end. It is the only place these
//! rules are written: [`lint_requests`] drives it over a batch, the
//! `rtt_cli` line checker runs it on every request line that parses
//! (so `rtt lint` and `rtt batch` admission are one checker with two
//! callers), and `rtt solve` / `min-resource` / `curve` run it on their
//! single request. Findings are [`rtt_analyze::lint::Diagnostic`]s with
//! the shared `RTT0xx` codes.
//!
//! Errors flag requests the executor would *answer degenerately
//! without running a solver* (an empty sweep grid, an out-of-range
//! alpha); warnings flag admitted-but-vacuous declarations: a zero
//! deadline always expires at dequeue ([`crate::executor`]'s closed
//! boundary), a queue-depth bound at least the batch size can never
//! trip (positions are assigned at enqueue), and a named solver that
//! does not support its instance answers `unsupported` instead of
//! solving (family-tag mismatch).

use crate::registry::Registry;
use crate::request::{Objective, SolveRequest, SolverSelection};
use rtt_analyze::lint::{sort_diagnostics, Diagnostic};

/// Lints one request against `registry`: RTT010 (alpha outside
/// (0, 1)), RTT007 (empty sweep grid), and the RTT011–RTT013 warnings.
/// `line` anchors the diagnostics; `batch_size` is the size of the
/// batch the request is admitted in, itself included (the RTT012
/// queue-depth check compares against it). Diagnostics come back in
/// check order.
pub fn lint_request(
    registry: &Registry,
    req: &SolveRequest,
    line: usize,
    batch_size: usize,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if !(req.alpha > 0.0 && req.alpha < 1.0) {
        diags.push(Diagnostic::error(
            "RTT010",
            line,
            format!("alpha must be in (0, 1), got {}", req.alpha),
        ));
    }
    if let Objective::MakespanSweep { budgets } = &req.objective {
        if budgets.is_empty() {
            diags.push(Diagnostic::error(
                "RTT007",
                line,
                "`budgets` must name at least one grid point",
            ));
        }
    }
    if req.deadline == Some(std::time::Duration::ZERO) {
        diags.push(Diagnostic::warning(
            "RTT011",
            line,
            "deadline_ms 0: the request always expires at dequeue",
        ));
    }
    if let Some(limit) = req.budget.and_then(|spec| spec.limits.queue_depth) {
        if limit >= batch_size as u64 {
            diags.push(Diagnostic::warning(
                "RTT012",
                line,
                format!("max_queue_depth {limit} can never trip in a batch of {batch_size}"),
            ));
        }
    }
    if let SolverSelection::Named(name) = &req.solver {
        // fixture solvers decline every instance by design; a
        // mismatch warning for them would flag the fault corpora
        if !name.starts_with("fixture-") {
            if let Some(s) = registry.resolve(name) {
                if let crate::solver::Capability::Unsupported(reason) =
                    s.supports_prepared(&req.prepared)
                {
                    diags.push(Diagnostic::warning(
                        "RTT013",
                        line,
                        format!("solver {name:?} does not support this instance: {reason}"),
                    ));
                }
            }
        }
    }
    diags
}

/// Lints built requests against `registry` through [`lint_request`].
/// `line` in each diagnostic is the request's 1-based position in
/// `requests` (matching the corpus line only for blank-line-free
/// corpora; the CLI linter keeps true line numbers). Diagnostics come
/// back sorted by `(line, code, message)`.
pub fn lint_requests(registry: &Registry, requests: &[SolveRequest]) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = requests
        .iter()
        .enumerate()
        .flat_map(|(i, req)| lint_request(registry, req, i + 1, requests.len()))
        .collect();
    sort_diagnostics(&mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::{BudgetLimits, BudgetPolicies, BudgetSpec};
    use crate::prep::PreparedInstance;
    use rtt_analyze::lint::{has_errors, Severity};
    use rtt_core::instance::Activity;
    use rtt_core::ArcInstance;
    use rtt_dag::Dag;
    use rtt_duration::Duration;
    use std::sync::Arc;

    fn chain_prep() -> Arc<PreparedInstance> {
        let mut g: Dag<(), Activity> = Dag::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, Activity::new(Duration::two_point(10, 4, 1)))
            .unwrap();
        Arc::new(PreparedInstance::new(ArcInstance::new(g).unwrap()))
    }

    #[test]
    fn clean_requests_produce_no_diagnostics() {
        let registry = Registry::standard();
        let reqs = vec![
            SolveRequest::min_makespan("a", chain_prep(), 4),
            SolveRequest::min_makespan("b", chain_prep(), 2).with_solver("bicriteria"),
        ];
        assert!(lint_requests(&registry, &reqs).is_empty());
    }

    #[test]
    fn degenerate_fields_warn_with_positions() {
        let registry = Registry::standard();
        let mut zero_deadline = SolveRequest::min_makespan("z", chain_prep(), 4);
        zero_deadline.deadline = Some(std::time::Duration::ZERO);
        let mut vacuous_queue = SolveRequest::min_makespan("q", chain_prep(), 4);
        vacuous_queue.budget = Some(BudgetSpec {
            limits: BudgetLimits {
                queue_depth: Some(10),
                ..Default::default()
            },
            policies: BudgetPolicies::default(),
        });
        let mismatch = SolveRequest::min_makespan("m", chain_prep(), 4).with_solver("kway");
        let reqs = vec![zero_deadline, vacuous_queue, mismatch];
        let diags = lint_requests(&registry, &reqs);
        assert_eq!(
            diags
                .iter()
                .map(|d| (d.line, d.code))
                .collect::<Vec<_>>(),
            vec![(1, "RTT011"), (2, "RTT012"), (3, "RTT013")]
        );
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
        assert!(!has_errors(&diags));
    }

    #[test]
    fn degenerate_requests_error() {
        let registry = Registry::standard();
        let mut bad_alpha = SolveRequest::min_makespan("a", chain_prep(), 4);
        bad_alpha.alpha = 1.5;
        let empty_sweep = SolveRequest::sweep("s", chain_prep(), vec![]);
        let diags = lint_requests(&registry, &[bad_alpha, empty_sweep]);
        assert_eq!(
            diags.iter().map(|d| d.code).collect::<Vec<_>>(),
            vec!["RTT010", "RTT007"]
        );
        assert!(has_errors(&diags));
    }

    #[test]
    fn tight_queue_depth_does_not_warn() {
        let registry = Registry::standard();
        let mut bounded = SolveRequest::min_makespan("q", chain_prep(), 4);
        bounded.budget = Some(BudgetSpec {
            limits: BudgetLimits {
                queue_depth: Some(1),
                ..Default::default()
            },
            policies: BudgetPolicies::default(),
        });
        let reqs = vec![
            SolveRequest::min_makespan("a", chain_prep(), 4),
            bounded,
        ];
        assert!(lint_requests(&registry, &reqs).is_empty());
    }
}
