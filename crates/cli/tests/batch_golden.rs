//! Golden test for the `rtt batch` wire format: the committed smoke
//! corpus must produce byte-identical NDJSON at every thread count —
//! the same check CI runs against the same files.
//!
//! If a deliberate solver or format change alters the output,
//! regenerate the golden file with:
//!
//! ```text
//! cargo run --release -p rtt_cli --bin rtt -- batch \
//!   crates/cli/tests/data/corpus_smoke.ndjson --threads 1 \
//!   --out crates/cli/tests/data/corpus_smoke.golden.ndjson
//! ```

use std::process::Command;

const CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/corpus_smoke.ndjson"
);
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/corpus_smoke.golden.ndjson"
);

fn run_batch(threads: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rtt"))
        .args(["batch", CORPUS, "--threads", threads])
        .output()
        .expect("spawn rtt batch");
    assert!(
        out.status.success(),
        "rtt batch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("reports are UTF-8")
}

#[test]
fn batch_output_matches_golden_at_every_thread_count() {
    let golden = std::fs::read_to_string(GOLDEN).expect("committed golden output");
    assert!(!golden.trim().is_empty());
    for threads in ["1", "2", "4", "8"] {
        let got = run_batch(threads);
        assert_eq!(
            got, golden,
            "batch output diverged from the golden file at --threads {threads}; \
             see the module docs for how to regenerate after a deliberate change"
        );
    }
}

const FAULT_CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/corpus_faults.ndjson"
);
const FAULT_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/corpus_faults.golden.ndjson"
);

/// The fault-injection smoke (same shape CI runs): a corpus mixing a
/// panicking fixture, budget exhaustion under each policy, a metered-out
/// certification replay under `degrade` (a single solve and a sweep),
/// and healthy requests must match its committed golden byte for byte
/// at every thread count. Regenerate after a deliberate change with the
/// corpus-smoke command above, adding `RTT_FAULT_SOLVERS=1` and the
/// corpus_faults paths.
#[test]
fn fault_injection_batch_matches_golden_at_every_thread_count() {
    let golden = std::fs::read_to_string(FAULT_GOLDEN).expect("committed fault golden");
    // the batch completes: every hazard is contained per report
    assert!(golden.contains("\"status\":\"failed\""));
    assert!(golden.contains("\"status\":\"budget-exhausted\""));
    assert!(golden.contains("\"degraded_from\":\"exact\""));
    assert!(golden.contains("\"warnings\":["));
    assert!(golden.contains("\"resource_budget\":{\"consumed\""));
    assert!(golden.contains("\"degraded\":[\"certificate degraded to analytic-only"));
    for threads in ["1", "2", "4", "8"] {
        let out = Command::new(env!("CARGO_BIN_EXE_rtt"))
            .args(["batch", FAULT_CORPUS, "--threads", threads])
            .env("RTT_FAULT_SOLVERS", "1")
            .output()
            .expect("spawn rtt batch");
        assert!(
            out.status.success(),
            "rtt batch failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let got = String::from_utf8(out.stdout).expect("reports are UTF-8");
        assert_eq!(
            got, golden,
            "fault-injection output diverged from the golden at --threads {threads}"
        );
        // degraded: the exact fallback, the single solve's certificate
        // and each of the three certificate-degraded sweep points
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("1 rejected, 5 degraded, 1 warned, 1 panicked"),
            "stats line must count every hazard: {stderr}"
        );
    }
}

/// Without the env gate the fixture solvers do not exist, so the same
/// corpus fails validation at load time — the fixtures cannot leak into
/// normal serving.
#[test]
fn fault_fixtures_are_absent_without_the_env_gate() {
    let out = Command::new(env!("CARGO_BIN_EXE_rtt"))
        .args(["batch", FAULT_CORPUS])
        .output()
        .expect("spawn rtt batch");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown solver \"fixture-panic\""),
        "load-time validation names the missing fixture"
    );
}

const SWEEP_CORPUS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/corpus_sweep.ndjson"
);
const SWEEP_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/corpus_sweep.golden.ndjson"
);

/// The sweep corpus (wire-reachable `budgets` lines: duplicates, a
/// relabeled twin, mixed plain traffic, and a budgeted sweep that must
/// bypass the chained path) matches its committed golden byte for byte
/// at every thread count, with the reuse cache off and on, and across
/// a `--cache-save` → `--cache-load` restart. One golden serves every
/// mode: caches change cost, never bytes. Regenerate with the
/// corpus-smoke command above, swapping in the corpus_sweep paths.
#[test]
fn sweep_batch_matches_golden_across_cache_modes_and_restarts() {
    let golden = std::fs::read_to_string(SWEEP_GOLDEN).expect("committed sweep golden");
    // one line per grid point, curve-point form with the identity prefix
    assert!(golden.contains("{\"id\":\"sweep-a\",\"solver\":\"bicriteria\",\"budget\":0,"));
    // the budgeted sweep carries its consumption block per point
    assert!(golden.contains("\"resource_budget\":{\"consumed\":"));
    let dir = std::env::temp_dir().join(format!("rtt-sweep-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let spill = dir.join("sweep.cache");
    let spill = spill.to_str().unwrap();
    let run = |extra: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_rtt"))
            .args(["batch", SWEEP_CORPUS])
            .args(extra)
            .output()
            .expect("spawn rtt batch");
        assert!(
            out.status.success(),
            "rtt batch {extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).expect("reports are UTF-8");
        (stdout, String::from_utf8_lossy(&out.stderr).into_owned())
    };
    for threads in ["1", "2", "4", "8"] {
        let (plain, _) = run(&["--threads", threads]);
        assert_eq!(
            plain, golden,
            "plain sweep bytes diverged at --threads {threads}"
        );
        let (cached, _) = run(&[
            "--threads",
            threads,
            "--reuse-cache",
            "--cache-capacity",
            "8",
        ]);
        assert_eq!(
            cached, golden,
            "--reuse-cache changed sweep bytes at --threads {threads}"
        );
    }
    // restart: spill the solution tier, then serve from the loaded file
    let (saved, save_err) = run(&["--threads", "1", "--cache-save", spill]);
    assert_eq!(saved, golden, "--cache-save changed sweep bytes");
    assert!(save_err.contains("cache spilled:"), "{save_err}");
    let (loaded, load_err) = run(&["--threads", "4", "--cache-load", spill]);
    assert_eq!(loaded, golden, "a loaded cache changed sweep bytes");
    assert!(load_err.contains("cache loaded:"), "{load_err}");
    // the loaded tier actually serves: every cacheable request hits
    assert!(
        load_err.contains("5/5 solution hits"),
        "warm restart must serve from the spilled cache: {load_err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt or version-mismatched spill file fails the whole command
/// loudly — nothing half-loads, nothing reaches stdout.
#[test]
fn corrupt_cache_files_fail_the_command_without_serving() {
    let dir = std::env::temp_dir().join(format!("rtt-cache-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.cache");
    std::fs::write(&bad, "rtt-cache-v0 fp=rtt-fp-v1 entries=0\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rtt"))
        .args(["batch", SWEEP_CORPUS, "--cache-load", bad.to_str().unwrap()])
        .output()
        .expect("spawn rtt batch");
    assert!(
        !out.status.success(),
        "a bad cache file must fail the command"
    );
    assert!(out.stdout.is_empty(), "no reports may be served");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cache-load"), "{stderr}");
    assert!(
        stderr.contains("rtt-cache-v0"),
        "the error names the found tag: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_summary_reports_cache_telemetry_on_stderr() {
    let out = Command::new(env!("CARGO_BIN_EXE_rtt"))
        .args(["batch", CORPUS, "--threads", "2"])
        .output()
        .expect("spawn rtt batch");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("prep cache"), "{stderr}");
    assert!(stderr.contains("req/s"), "{stderr}");
}

#[test]
fn batch_rejects_empty_and_malformed_corpora() {
    let dir = std::env::temp_dir().join(format!("rtt-batch-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.ndjson");
    std::fs::write(&empty, "\n\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rtt"))
        .args(["batch", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let bad = dir.join("bad.ndjson");
    std::fs::write(&bad, "{\"instance\":").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rtt"))
        .args(["batch", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("line 1"),
        "errors must name the offending line"
    );
    std::fs::remove_dir_all(&dir).ok();
}
