//! Golden test for the `rtt curve` wire format: the committed instance
//! must produce byte-identical NDJSON — the same check CI runs against
//! the same files. The curve runs one warm-started LP chain, so this
//! also pins the warm-start path's determinism end to end.
//!
//! If a deliberate solver or format change alters the output,
//! regenerate the golden file with:
//!
//! ```text
//! cargo run --release -p rtt_cli --bin rtt -- curve \
//!   crates/cli/tests/data/curve_instance.json --budgets 0:15:1 \
//!   --out crates/cli/tests/data/curve_golden.ndjson
//! ```

use std::process::Command;

const INSTANCE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/curve_instance.json"
);
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/curve_golden.ndjson"
);

fn run_curve() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_rtt"))
        .args(["curve", INSTANCE, "--budgets", "0:15:1"])
        .output()
        .expect("spawn rtt curve");
    assert!(
        out.status.success(),
        "rtt curve failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("curve points are UTF-8")
}

#[test]
fn curve_output_matches_golden_and_is_stable() {
    let golden = std::fs::read_to_string(GOLDEN).expect("committed golden output");
    let got = run_curve();
    assert_eq!(
        got, golden,
        "curve output diverged from the golden file; see the module docs \
         for how to regenerate after a deliberate change"
    );
    // a second run must be byte-identical (warm-chain determinism)
    assert_eq!(got, run_curve(), "curve output is not reproducible");
    assert_eq!(got.lines().count(), 16, "one line per grid point");
    assert!(
        !got.contains("wall") && !got.contains("_ms"),
        "timing must stay off the wire"
    );
}
