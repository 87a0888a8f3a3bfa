//! Schema guard for the committed bench documents: every `BENCH_*.json`
//! at the repo root must carry the uniform `cores` and `trials` fields
//! (the PR-3 rule; the originally committed `BENCH_pr1.json` predated
//! it, which is exactly the drift this test now forbids). The documents
//! are frozen records — the benchmark is `perfbench/` — so this test
//! catches hand-edits that break them.

use rtt_cli::json::Json;

#[test]
fn committed_bench_documents_carry_cores_and_trials() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut found = 0usize;
    for entry in std::fs::read_dir(root).expect("repo root readable") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        found += 1;
        let text = std::fs::read_to_string(&path).expect("bench doc readable");
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: invalid JSON: {e}"));
        for field in ["schema", "pr", "cores", "trials"] {
            assert!(
                doc.get(field).is_some(),
                "{name}: missing uniform field `{field}` (frozen bench records \
                 must keep their schema)"
            );
        }
    }
    assert!(
        found >= 9,
        "expected the committed BENCH_pr1..pr5 and BENCH_pr7..pr10 documents, found {found}"
    );
}
