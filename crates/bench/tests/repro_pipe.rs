//! `repro` must end quietly when its reader closes the pipe early:
//! exit 0 and nothing on stderr, as `rtt` does, instead of panicking on
//! the next report it prints.

use std::io::Read;
use std::process::{Command, Stdio};

#[test]
fn a_reader_closing_stdout_early_ends_repro_cleanly() {
    // table2 prints first; table3 and fig1 are still to come when the
    // reader goes away
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table2", "table3", "fig1"])
        .env("REPRO_TRIALS", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    let mut stdout = child.stdout.take().expect("piped stdout");
    stdout
        .read_exact(&mut [0u8; 1])
        .expect("one byte of output");
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "a closed pipe prints nothing: {stderr}");
}
