//! End-to-end tests of the `rtt` binary: gen → info → solve →
//! min-resource → regimes → dot, all through the real executable.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn rtt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rtt"))
}

fn gen_instance(dir: &std::path::Path, kind: &str, nodes: usize) -> std::path::PathBuf {
    let out = rtt()
        .args([
            "gen", "--kind", kind, "--nodes", &nodes.to_string(), "--seed", "7",
        ])
        .output()
        .expect("spawn rtt gen");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let path = dir.join(format!("{kind}.json"));
    std::fs::write(&path, &out.stdout).unwrap();
    path
}

/// A fresh directory per call: the tests run in parallel and reuse file
/// names (`race.json` at 5 and at 6 nodes), so a shared directory lets
/// one test read another's instance.
fn tempdir() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rtt-cli-test-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_produces_parseable_instances() {
    let dir = tempdir();
    for kind in ["race", "layered", "sp", "chain"] {
        let path = gen_instance(&dir, kind, 6);
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = rtt_cli::InstanceSpec::from_json_str(&text).unwrap();
        spec.build().unwrap();
    }
}

#[test]
fn race_mm_flows_end_to_end() {
    // the paper's loop through the real binary: generate the Figure 3
    // racy Parallel-MM, then solve and sweep it like any instance
    let dir = tempdir();
    let out = rtt()
        .args(["gen", "--kind", "race-mm", "--n", "8"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let path = dir.join("race-mm.json");
    std::fs::write(&path, &out.stdout).unwrap();

    // every registry solver answers it cleanly through `rtt solve`
    // (race DAGs are not series-parallel, so sp-dp declines — with its
    // documented reason, not a failure)
    for solver in ["bicriteria", "recbinary", "recbinary-improved", "global-greedy"] {
        let out = rtt()
            .args(["solve", path.to_str().unwrap(), "--budget", "130", "--solver", solver])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{solver}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("makespan"), "{solver}: {text}");
    }
    // budget 2 per Z cell (128 total) buys height-1 reducers everywhere:
    // the reported solve carries the Observation 1.1 simulation line
    let out = rtt()
        .args(["solve", path.to_str().unwrap(), "--budget", "128", "--solver", "recbinary"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("simulated:"), "{text}");

    // and the tradeoff curve sweeps it through the warm LP chain
    let out = rtt()
        .args(["curve", path.to_str().unwrap(), "--budgets", "0:128:32"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 5);
    assert!(text.contains("\"sim_makespan\""), "{text}");
}

#[test]
fn race_forkjoin_gen_is_deterministic_across_runs() {
    let run = || {
        let out = rtt()
            .args(["gen", "--kind", "race-forkjoin", "--seed", "11", "--family", "kway"])
            .output()
            .unwrap();
        assert!(out.status.success());
        out.stdout
    };
    assert_eq!(run(), run(), "same seed must emit identical instances");
}

#[test]
fn info_reports_basics() {
    let dir = tempdir();
    let path = gen_instance(&dir, "race", 6);
    let out = rtt().args(["info", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("base makespan"), "{text}");
    assert!(text.contains("improvable jobs"), "{text}");
}

#[test]
fn solve_exact_with_plan() {
    let dir = tempdir();
    let path = gen_instance(&dir, "race", 5);
    let out = rtt()
        .args([
            "solve", path.to_str().unwrap(), "--budget", "4", "--solver", "exact", "--plan",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("makespan:"), "{text}");
    assert!(text.contains("total routed:"), "{text}");
}

#[test]
fn solve_bicriteria_reports_lp_bound() {
    let dir = tempdir();
    let path = gen_instance(&dir, "race", 6);
    let out = rtt()
        .args(["solve", path.to_str().unwrap(), "--budget", "8"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("LP lower bound"), "{text}");
}

#[test]
fn solvers_lists_certified_output_columns() {
    let out = rtt().args(["solvers"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // every registry line names its solution form and the certificate
    for line in text.lines() {
        assert!(line.contains("sim_makespan"), "{line}");
    }
    assert!(text.contains("noreuse-exact"), "{text}");
    assert!(text.contains("schedule"), "{text}");
    assert!(text.contains("routed"), "{text}");
}

#[test]
fn regime_solvers_print_the_simulation_certificate() {
    // since PR 5 the regime baselines certify too: `rtt solve` surfaces
    // the Observation 1.1 line for them, budget 0 (the curve anchor)
    // included
    let dir = tempdir();
    let path = gen_instance(&dir, "race", 5);
    for solver in ["noreuse-exact", "noreuse-bicriteria", "global-greedy"] {
        for budget in ["0", "4"] {
            let out = rtt()
                .args([
                    "solve", path.to_str().unwrap(), "--budget", budget, "--solver", solver,
                ])
                .output()
                .unwrap();
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            let text = String::from_utf8_lossy(&out.stdout);
            assert!(text.contains("simulated:"), "{solver} b={budget}: {text}");
        }
    }
}

#[test]
fn sp_solver_on_sp_instance() {
    let dir = tempdir();
    let path = gen_instance(&dir, "sp", 6);
    let out = rtt()
        .args([
            "solve", path.to_str().unwrap(), "--budget", "6", "--solver", "sp",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn min_resource_round_trip() {
    let dir = tempdir();
    let path = gen_instance(&dir, "race", 5);
    // target = base makespan is always reachable with 0 units
    let info = rtt().args(["info", path.to_str().unwrap()]).output().unwrap();
    let text = String::from_utf8_lossy(&info.stdout).to_string();
    let base: u64 = text
        .lines()
        .find(|l| l.starts_with("base makespan"))
        .and_then(|l| l.split(':').nth(1))
        .and_then(|v| v.trim().parse().ok())
        .expect("parse base makespan");
    let out = rtt()
        .args([
            "min-resource", path.to_str().unwrap(), "--target", &base.to_string(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("budget needed"));
}

#[test]
fn regimes_prints_all_three() {
    let dir = tempdir();
    let path = gen_instance(&dir, "race", 5);
    let out = rtt()
        .args(["regimes", path.to_str().unwrap(), "--budget", "4"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Q1.1"), "{text}");
    assert!(text.contains("Q1.2"), "{text}");
    assert!(text.contains("Q1.3"), "{text}");
}

#[test]
fn dot_is_well_formed() {
    let dir = tempdir();
    let path = gen_instance(&dir, "chain", 4);
    let out = rtt().args(["dot", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph"), "{text}");
    assert!(text.trim_end().ends_with('}'), "{text}");
}

#[test]
fn gen_rejects_zero_nodes_for_every_bare_kind() {
    for kind in ["race", "layered", "sp", "chain"] {
        let out = rtt()
            .args(["gen", "--kind", kind, "--nodes", "0"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "--kind {kind}");
        assert!(out.stdout.is_empty(), "--kind {kind}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr).trim_end(),
            format!("invalid instance: {kind} needs --nodes ≥ 1")
        );
    }
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = rtt().output().unwrap();
    assert!(!out.status.success());
    let out = rtt().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = rtt().args(["solve", "/nonexistent.json", "--budget", "1"]).output().unwrap();
    assert!(!out.status.success());
    let out = rtt().args(["gen", "--kind", "nope"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn deeply_nested_line_is_rtt001_not_a_stack_overflow() {
    let dir = tempdir();
    let depth = 50_000;
    let line = format!(
        r#"{{"id":"deep","instance":{}{},"budget":1}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let path = dir.join("deep.ndjson");
    std::fs::write(&path, line + "\n").unwrap();
    let out = rtt().arg("lint").arg(&path).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[RTT001]"));
}

#[test]
fn cache_load_with_unallocatable_entry_count_fails_cleanly() {
    let dir = tempdir();
    let corpus = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/corpus_sweep.ndjson"
    );
    let spill = dir.join("sweep.cache");
    let out = rtt()
        .args(["batch", corpus, "--threads", "1", "--cache-save"])
        .arg(&spill)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // a header count no allocation could hold
    let text = std::fs::read_to_string(&spill).unwrap();
    let (header, entries) = text.split_once('\n').unwrap();
    let (prefix, _) = header.rsplit_once(' ').unwrap();
    std::fs::write(&spill, format!("{prefix} entries=100000000000\n{entries}")).unwrap();
    let out = rtt()
        .args(["batch", corpus, "--threads", "1", "--cache-load"])
        .arg(&spill)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "a rejected spill serves nothing");
    assert!(
        stderr.contains("header declares 100000000000 entries"),
        "{stderr}"
    );
}

/// A batch line of `copies` parallel step jobs `s → x → t` that drop
/// from 10 ticks to 0 at `level` units, at budget `u64::MAX`.
fn parallel_step_line(id: &str, level: u64, copies: usize) -> String {
    let step = format!(r#"{{"kind":"step","tuples":[[0,10],[{level},0]]}}"#);
    let mut nodes = vec![r#"{"label":"s","duration":{"kind":"zero"}}"#.to_string()];
    for j in 0..copies {
        nodes.push(format!(r#"{{"label":"x{j}","duration":{step}}}"#));
    }
    nodes.push(r#"{"label":"t","duration":{"kind":"zero"}}"#.to_string());
    let edges: Vec<String> = (1..=copies)
        .flat_map(|j| {
            [
                format!(r#"{{"src":0,"dst":{j}}}"#),
                format!(r#"{{"src":{j},"dst":{}}}"#, copies + 1),
            ]
        })
        .collect();
    format!(
        r#"{{"id":"{id}","instance":{{"form":"node","nodes":[{}],"edges":[{}]}},"budget":{}}}"#,
        nodes.join(","),
        edges.join(","),
        u64::MAX
    )
}

/// The `exact` and `noreuse-exact` reports `rtt batch --threads 1`
/// answers `line` with.
fn exact_reports(line: &str) -> (String, String) {
    let path = tempdir().join("line.ndjson");
    std::fs::write(&path, format!("{line}\n")).unwrap();
    let out = rtt()
        .args(["batch", path.to_str().unwrap(), "--threads", "1"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report = |solver: &str| {
        let key = format!(r#""solver":"{solver}""#);
        stdout
            .lines()
            .find(|l| l.contains(&key))
            .unwrap_or_else(|| panic!("no {solver} report in {stdout}"))
            .to_string()
    };
    (report("exact"), report("noreuse-exact"))
}

/// The integer a report line carries under `key`.
fn report_field(line: &str, key: &str) -> u64 {
    let (_, rest) = line
        .split_once(&format!(r#""{key}":"#))
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    rest[..rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len())]
        .parse()
        .unwrap()
}

/// `exact` solves `line` at `makespan` for `budget_used`, replays to
/// the same makespan, and answers what `noreuse-exact` does.
fn assert_exact_answers(line: &str, makespan: u64, budget_used: u64) {
    let (exact, noreuse) = exact_reports(line);
    assert!(exact.contains(r#""status":"solved""#), "{exact}");
    for (key, want) in [
        ("makespan", makespan),
        ("budget_used", budget_used),
        ("sim_makespan", makespan),
    ] {
        assert_eq!(report_field(&exact, key), want, "{key} in {exact}");
        assert_eq!(report_field(&noreuse, key), want, "{key} in {noreuse}");
    }
}

#[test]
fn exact_solves_a_job_level_of_2_pow_62() {
    assert_exact_answers(&parallel_step_line("one", 1 << 62, 1), 0, 1 << 62);
}

#[test]
fn exact_solves_two_parallel_job_levels_of_2_pow_62() {
    assert_exact_answers(&parallel_step_line("two", 1 << 62, 2), 0, 1 << 63);
}

#[test]
fn exact_prices_three_parallel_levels_of_2_pow_63_past_every_budget() {
    // two of them already cost 2^64: only the all-zero levels fit
    assert_exact_answers(&parallel_step_line("three", 1 << 63, 3), 10, 0);
}
