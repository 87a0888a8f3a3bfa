//! `rtt lint` — the no-solve static checker over batch corpora and
//! instance spec files.
//!
//! A corpus is linted by `check_line`, the same per-line checker
//! [`crate::batch::build_requests`] admits requests through: one
//! checker, two callers. The loader stops at the first line with an
//! error; [`lint_corpus`] keeps going and reports **every** diagnosable
//! line of the corpus in one pass, in deterministic `(line, code,
//! message)` order. So every **error** this module emits is a line
//! `build_requests` rejects, and a lint-clean corpus cannot fail
//! admission. Every **warning** flags a line the
//! batch admits but answers degenerately (a zero deadline, a
//! queue-depth bound that can never trip, a family-tag mismatch); those
//! come from [`rtt_engine::lint_request`], the engine's request-level
//! admission lint, run on the request each line spells.
//!
//! The `RTT0xx` code table lives in [`rtt_analyze::lint::CODES`] and is
//! documented (with the NDJSON diagnostic shape) in the
//! [`crate::batch`] wire docs under "Diagnostics".

use crate::batch::{check_line, request_lines};
use crate::json::Json;
use crate::spec::{InstanceSpec, SpecError};
use rtt_analyze::lint::{sort_diagnostics, Diagnostic};
use rtt_engine::{PrepCache, Registry};

/// Maps a spec/build failure to its diagnostic code: RTT001 malformed
/// document, RTT002 dangling edge or missing arc duration, RTT003
/// cycle, RTT004 other instance-construction rejection, RTT005 invalid
/// duration table.
pub(crate) fn spec_error_code(e: &SpecError) -> &'static str {
    match e {
        SpecError::BadJson(_) => "RTT001",
        SpecError::BadEdge { .. } | SpecError::MissingArcDuration { .. } => "RTT002",
        SpecError::BadInstance(msg) if msg.contains("contains a cycle") => "RTT003",
        SpecError::BadInstance(_) => "RTT004",
        SpecError::BadDuration(_) => "RTT005",
    }
}

/// Lints a standalone instance document (the `rtt solve` file format).
/// Only the instance-level checks apply; diagnostics carry line 1.
pub fn lint_spec(text: &str) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    match Json::parse(text) {
        Err(e) => diags.push(Diagnostic::error("RTT001", 1, e.to_string())),
        Ok(doc) => {
            if let Err(e) = InstanceSpec::from_json(&doc).and_then(|spec| spec.build()) {
                diags.push(Diagnostic::error(spec_error_code(&e), 1, e.to_string()));
            }
        }
    }
    diags
}

/// Lints a whole NDJSON batch corpus against `registry`. Blank lines
/// are skipped (matching the batch loader); diagnostics carry true
/// 1-based line numbers and come back sorted by
/// `(line, code, message)`.
pub fn lint_corpus(corpus: &str, registry: &Registry) -> Vec<Diagnostic> {
    // the RTT012 vacuous-queue-depth check needs the admitted batch
    // size: the count of request lines, exactly what build_requests
    // would enqueue
    let batch_size = request_lines(corpus).count();
    let cache = PrepCache::new();
    let mut diags = Vec::new();
    for (lineno, line) in request_lines(corpus) {
        check_line(line, lineno, batch_size, &cache, None, registry, &mut diags);
    }
    sort_diagnostics(&mut diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_analyze::lint::{has_errors, Severity};

    fn chain_line(id: &str, budget: u64) -> String {
        format!(
            r#"{{"id":"{id}","instance":{{"form":"node","nodes":[{{"label":"s","duration":{{"kind":"zero"}}}},{{"label":"x","duration":{{"kind":"step","tuples":[[0,10],[4,0]]}}}},{{"label":"t","duration":{{"kind":"zero"}}}}],"edges":[{{"src":0,"dst":1}},{{"src":1,"dst":2}}]}},"budget":{budget}}}"#
        )
    }

    #[test]
    fn clean_corpus_is_quiet() {
        let corpus = format!("{}\n\n{}\n", chain_line("a", 4), chain_line("b", 0));
        assert!(lint_corpus(&corpus, &Registry::standard()).is_empty());
    }

    #[test]
    fn every_bad_line_is_reported_not_just_the_first() {
        let corpus = format!(
            "not json\n{}\n{}\n",
            chain_line("ok", 4),
            chain_line("bad", 1).replace("\"budget\":1", "\"budget\":1,\"solver\":\"exat\"")
        );
        let diags = lint_corpus(&corpus, &Registry::standard());
        assert_eq!(
            diags.iter().map(|d| (d.line, d.code)).collect::<Vec<_>>(),
            vec![(1, "RTT001"), (3, "RTT008")]
        );
        assert!(has_errors(&diags));
    }

    #[test]
    fn instance_errors_map_to_their_codes() {
        let registry = Registry::standard();
        let cases: &[(&str, &str)] = &[
            (r#"{"budget":1}"#, "RTT001"),
            (
                r#"{"instance":{"form":"node","nodes":[{"duration":{"kind":"zero"}}],"edges":[{"src":0,"dst":9}]},"budget":1}"#,
                "RTT002",
            ),
            (
                r#"{"instance":{"form":"arc","nodes":[{"duration":{"kind":"zero"}},{"duration":{"kind":"zero"}}],"edges":[{"src":0,"dst":1}]},"budget":1}"#,
                "RTT002",
            ),
            (
                r#"{"instance":{"form":"node","nodes":[{"duration":{"kind":"zero"}},{"duration":{"kind":"zero"}},{"duration":{"kind":"zero"}}],"edges":[{"src":0,"dst":1},{"src":1,"dst":2},{"src":2,"dst":1}]},"budget":1}"#,
                "RTT003",
            ),
            (
                r#"{"instance":{"form":"node","nodes":[],"edges":[]},"budget":1}"#,
                "RTT004",
            ),
            (
                r#"{"instance":{"form":"node","nodes":[{"duration":{"kind":"step","tuples":[[0,5],[2,9]]}}],"edges":[]},"budget":1}"#,
                "RTT005",
            ),
        ];
        for (line, code) in cases {
            let diags = lint_corpus(line, &registry);
            assert!(
                diags.iter().any(|d| d.code == *code),
                "{line} should raise {code}, got {diags:?}"
            );
        }
    }

    #[test]
    fn warnings_do_not_block_and_match_engine_wording() {
        let registry = Registry::standard();
        let corpus = format!(
            "{}\n{}\n",
            chain_line("z", 1).replace("\"budget\":1", "\"budget\":1,\"deadline_ms\":0"),
            chain_line("q", 1).replace("\"budget\":1", "\"budget\":1,\"max_queue_depth\":50")
        );
        let diags = lint_corpus(&corpus, &registry);
        assert!(!has_errors(&diags));
        assert_eq!(
            diags.iter().map(|d| (d.line, d.code)).collect::<Vec<_>>(),
            vec![(1, "RTT011"), (2, "RTT012")]
        );
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
        assert_eq!(diags[0].message, "deadline_ms 0: the request always expires at dequeue");
        assert_eq!(diags[1].message, "max_queue_depth 50 can never trip in a batch of 2");
    }

    #[test]
    fn family_mismatch_is_a_warning() {
        // kway solver on a step-function chain: admitted, answered
        // `unsupported` — the lint says so up front
        let line =
            chain_line("m", 1).replace("\"budget\":1", "\"budget\":1,\"solver\":\"kway\"");
        let diags = lint_corpus(&line, &Registry::standard());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "RTT013");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("k-way"), "{}", diags[0].message);
    }

    #[test]
    fn sweep_conflicts_map_to_their_codes() {
        let registry = Registry::standard();
        let sweep = |extra: &str| {
            chain_line("s", 0).replace("\"budget\":0", &format!("\"budgets\":[1,2]{extra}"))
        };
        let cases: &[(String, &str)] = &[
            (sweep(",\"budget\":3"), "RTT006"),
            (sweep(",\"objective\":\"min-makespan\""), "RTT006"),
            (
                chain_line("s", 0).replace("\"budget\":0", "\"budgets\":[]"),
                "RTT007",
            ),
            (
                chain_line("s", 0).replace("\"budget\":0", "\"budgets\":\"5:1:1\""),
                "RTT007",
            ),
            (sweep(",\"solver\":\"exact\""), "RTT007"),
            (sweep(",\"solver\":\"nope\""), "RTT008"),
        ];
        for (line, code) in cases {
            let diags = lint_corpus(line, &registry);
            assert!(
                diags.iter().any(|d| d.code == *code),
                "{line} should raise {code}, got {diags:?}"
            );
        }
    }

    #[test]
    fn oversized_budget_range_is_rtt007() {
        // a range past the point cap is one diagnostic, before any expansion
        let line = chain_line("g", 0).replace("\"budget\":0", "\"budgets\":\"0:1000000:1\"");
        let diags = lint_corpus(&line, &Registry::standard());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "RTT007");
        assert!(
            diags[0].message.contains("65536 points"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn budget_spec_and_alpha_errors() {
        let registry = Registry::standard();
        let orphan = chain_line("a", 1)
            .replace("\"budget\":1", "\"budget\":1,\"on_exhaustion\":\"degrade\"");
        assert!(lint_corpus(&orphan, &registry).iter().any(|d| d.code == "RTT009"));
        let typo = chain_line("b", 1).replace(
            "\"budget\":1",
            "\"budget\":1,\"max_pivots\":5,\"on_exhaustion\":\"explode\"",
        );
        assert!(lint_corpus(&typo, &registry).iter().any(|d| d.code == "RTT009"));
        let alpha = chain_line("c", 1).replace("\"budget\":1", "\"budget\":1,\"alpha\":1.5");
        assert!(lint_corpus(&alpha, &registry).iter().any(|d| d.code == "RTT010"));
    }

    #[test]
    fn spec_files_lint_standalone() {
        assert!(lint_spec(r#"{"form":"node","nodes":[],"edges":[]}"#)
            .iter()
            .any(|d| d.code == "RTT004"));
        assert!(lint_spec("{").iter().any(|d| d.code == "RTT001"));
        let clean = r#"{"form":"node","nodes":[{"duration":{"kind":"zero"}},{"duration":{"kind":"recbinary","work":8}},{"duration":{"kind":"zero"}}],"edges":[{"src":0,"dst":1},{"src":1,"dst":2}]}"#;
        assert!(lint_spec(clean).is_empty());
    }
}
