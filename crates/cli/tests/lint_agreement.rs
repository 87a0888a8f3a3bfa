//! PR-9 lint/executor agreement tests. `rtt lint` and the batch loader
//! are two callers of one per-line checker (`rtt_cli::batch`'s
//! `check_line`), so the severity contract that makes `rtt lint`
//! trustworthy as an admission pre-pass holds by construction; these
//! tests pin both callers to it:
//!
//! * every line the batch loader rejects carries an **error**
//!   diagnostic, and every error-diagnosed line is rejected — on the
//!   committed bad corpus and on single-field mutations of every clean
//!   corpus line — so a lint-clean corpus cannot fail admission;
//! * lint-clean committed corpora produce zero diagnostics and fully
//!   admit;
//! * every `RTT0xx` code in the registered table is exercised by the
//!   committed bad corpus, and its golden matches the linter's NDJSON
//!   output byte for byte;
//! * on admitted lines, the CLI linter's warnings equal the
//!   engine-level admission lint over the *built* requests
//!   ([`rtt_engine::lint_requests`]), which owns the request-level
//!   checks both callers run.

use rtt_analyze::lint::{Severity, CODES};
use rtt_cli::build_requests;
use rtt_cli::json::Json;
use rtt_cli::lint::lint_corpus;
use rtt_engine::{lint_requests, PrepCache, Registry};

fn data(name: &str) -> String {
    let path = format!("{}/tests/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn fixture_registry() -> Registry {
    // the registry corpus_faults runs against: standard + the
    // name-addressed fault-injection fixtures
    let mut registry = Registry::standard();
    registry.register(Box::new(rtt_engine::fixtures::AlwaysPanicSolver));
    registry.register(Box::new(rtt_engine::fixtures::AlwaysExhaustSolver));
    registry
}

/// How the agreement test mutates one field of a clean request line:
/// besides dropping it, each value replaces it — first one of the wrong
/// JSON type, then any out-of-range ones.
const MUTATIONS: &[(&str, &[&str])] = &[
    ("id", &["7"]),
    ("instance", &["\"chain\""]),
    ("budget", &["\"8\""]),
    ("target", &["\"8\""]),
    ("budgets", &["true", "[]", "\"5:1:1\"", "\"0:100000:1\""]),
    ("objective", &["1"]),
    ("solver", &["1", "\"nope\""]),
    ("alpha", &["\"0.5\"", "1.5"]),
    ("deadline_ms", &["\"1\""]),
    ("seed", &["\"1\""]),
    ("max_pivots", &["\"1\""]),
    ("max_merge_steps", &["\"1\""]),
    ("max_sim_events", &["\"1\""]),
    ("max_queue_depth", &["\"1\""]),
    ("on_exhaustion", &["1", "\"explode\""]),
];

/// Every single-field mutation of `line` that [`MUTATIONS`] spells.
fn mutations(line: &str) -> Vec<String> {
    let Ok(Json::Obj(fields)) = Json::parse(line) else {
        panic!("clean corpus lines are JSON objects: {line}")
    };
    let mut out = Vec::new();
    for (field, values) in MUTATIONS {
        let kept: Vec<(String, Json)> =
            fields.iter().filter(|(k, _)| k != field).cloned().collect();
        if kept.len() < fields.len() {
            out.push(Json::Obj(kept.clone()).compact());
        }
        for value in *values {
            let mut set = kept.clone();
            set.push((
                field.to_string(),
                Json::parse(value).expect("mutation values parse"),
            ));
            out.push(Json::Obj(set).compact());
        }
    }
    out
}

/// Lints `line` and loads it at line `lineno` (blank lines ahead of it
/// keep the number), asserting that lint reports an error exactly when
/// the loader rejects, and that the rejection names that line.
fn assert_lint_and_loader_agree(line: &str, lineno: usize, registry: &Registry) {
    let corpus = "\n".repeat(lineno - 1) + line;
    let diags = lint_corpus(&corpus, registry);
    let lint_rejects = diags.iter().any(|d| d.severity == Severity::Error);
    assert!(diags.iter().all(|d| d.line == lineno), "{diags:?}");
    let cache = PrepCache::new();
    match build_requests(&corpus, &cache, None, registry) {
        Ok(_) => assert!(
            !lint_rejects,
            "line {lineno}: loader admits but lint errors={diags:?}: {line}"
        ),
        Err(e) => {
            assert!(
                lint_rejects,
                "line {lineno}: loader rejects ({e}) but lint is clean: {line}"
            );
            assert!(e.starts_with(&format!("line {lineno}: ")), "{e}");
        }
    }
}

#[test]
fn error_diagnostics_match_loader_rejections_line_by_line() {
    let registry = Registry::standard();
    for (idx, line) in data("corpus_bad.ndjson").lines().enumerate() {
        if !line.trim().is_empty() {
            assert_lint_and_loader_agree(line, idx + 1, &registry);
        }
    }
    // every single-field mutation of every clean corpus line, at its
    // source line number
    let values_per_line: usize = MUTATIONS.iter().map(|(_, values)| values.len()).sum();
    let (mut lines, mut mutated) = (0, 0);
    for name in ["corpus_smoke.ndjson", "corpus_sweep.ndjson"] {
        for (idx, line) in data(name).lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            lines += 1;
            for m in mutations(line) {
                assert_lint_and_loader_agree(&m, idx + 1, &registry);
                mutated += 1;
            }
        }
    }
    assert!(
        mutated > values_per_line * lines,
        "{mutated} mutations of {lines} lines"
    );
}

#[test]
fn clean_corpora_are_diagnostic_free_and_fully_admit() {
    let registry = Registry::standard();
    for name in ["corpus_smoke.ndjson", "corpus_sweep.ndjson"] {
        let corpus = data(name);
        assert!(
            lint_corpus(&corpus, &registry).is_empty(),
            "{name} must lint clean"
        );
        let cache = PrepCache::new();
        build_requests(&corpus, &cache, None, &registry)
            .unwrap_or_else(|e| panic!("{name} must admit: {e}"));
    }
    // the fault corpus names fixture solvers, so it lints (and loads)
    // against the fixture registry
    let registry = fixture_registry();
    let corpus = data("corpus_faults.ndjson");
    assert!(
        lint_corpus(&corpus, &registry).is_empty(),
        "corpus_faults.ndjson must lint clean"
    );
    let cache = PrepCache::new();
    build_requests(&corpus, &cache, None, &registry).expect("corpus_faults must admit");
}

#[test]
fn bad_corpus_exercises_every_registered_code_and_matches_its_golden() {
    let corpus = data("corpus_bad.ndjson");
    let diags = lint_corpus(&corpus, &Registry::standard());
    for (code, severity, _) in CODES {
        let hits: Vec<_> = diags.iter().filter(|d| d.code == *code).collect();
        assert!(!hits.is_empty(), "{code} is never exercised by corpus_bad");
        assert!(
            hits.iter().all(|d| d.severity == *severity),
            "{code} severity drifted from the registered table"
        );
    }
    let rendered: String = diags.iter().map(|d| d.ndjson() + "\n").collect();
    assert_eq!(
        rendered,
        data("corpus_bad.golden.ndjson"),
        "lint --format ndjson output drifted from the committed golden"
    );
}

#[test]
fn warnings_agree_with_the_engine_admission_lint() {
    // keep only the admitted lines of the bad corpus; on that filtered
    // corpus the CLI linter's findings (all warnings) must agree with
    // the engine's request-level admission lint — code, line, and
    // message
    let registry = Registry::standard();
    let admitted: Vec<String> = data("corpus_bad.ndjson")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter(|l| {
            lint_corpus(l, &registry)
                .iter()
                .all(|d| d.severity != Severity::Error)
        })
        .map(str::to_string)
        .collect();
    assert!(admitted.len() >= 3, "bad corpus should keep its warning lines");
    let filtered = admitted.join("\n");
    let cli_diags = lint_corpus(&filtered, &registry);
    assert!(!cli_diags.is_empty());
    let cache = PrepCache::new();
    let requests = build_requests(&filtered, &cache, None, &registry).expect("admitted lines");
    let engine_diags = lint_requests(&registry, &requests);
    let key = |d: &rtt_analyze::lint::Diagnostic| (d.line, d.code, d.message.clone());
    assert_eq!(
        cli_diags.iter().map(key).collect::<Vec<_>>(),
        engine_diags.iter().map(key).collect::<Vec<_>>(),
        "CLI lint warnings and engine admission lint drifted apart"
    );
}
