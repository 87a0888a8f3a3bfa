//! The determinism self-lint: a repo-level static pass over the
//! declared **wire-path modules** — the sources that produce
//! wire-visible bytes (batch/curve NDJSON, lint diagnostics, canonical
//! fingerprints, race reports) — hunting the two hazards that have
//! historically broken byte-stability contracts:
//!
//! * **hash-ordered collections** (`HashMap`/`HashSet`): iteration
//!   order depends on hasher state, so any use in a module that feeds
//!   serialization can leak nondeterminism onto the wire. Wire-path
//!   modules must use ordered collections (`BTreeMap`/`BTreeSet`) or
//!   explicit sorts.
//! * **wall-clock reads** (`Instant::now`/`SystemTime`): timing may
//!   flow to stderr or bench documents, never into wire bytes. The
//!   only wire-path file allowed to read the clock is the CLI
//!   entrypoint, which routes timing exclusively to stderr
//!   ([`WALL_CLOCK_ALLOWED`] documents the reason per file).
//! * **unordered parallel reductions** (unscoped `thread::spawn`
//!   joins, nondeterministic channel drains like `try_iter`): results
//!   combined in arrival order can leak scheduling onto the wire. Every
//!   solve runs serially; the one sanctioned parallel shape is
//!   `rtt_engine`'s `run_batch`, whose scoped workers send each
//!   request's reports to a slot indexed by its batch position, and
//!   the slots are reassembled in request order. `crates/par` stays on
//!   the wire path, so a parallel helper added there is scanned too.
//!
//! The scan strips comments first (doc prose may *mention* `HashMap`),
//! then matches tokens. `tests/repo_lint.rs` runs [`lint_workspace`]
//! over the repository in the default `cargo test` pass, so a hazard
//! in a wire-path module fails CI — the "a cache may change what a
//! run costs, never what it emits" contract as a lint, not a review
//! convention.

use std::fmt;
use std::path::Path;

/// Wire-path files, relative to the repository root. A file listed
/// here is scanned by both rules; a listed file that does not exist is
/// itself a finding (the list must track renames).
pub const WIRE_PATH_FILES: &[&str] = &[
    "crates/cli/src/args.rs",
    "crates/cli/src/batch.rs",
    "crates/cli/src/json.rs",
    "crates/cli/src/lib.rs",
    "crates/cli/src/lint.rs",
    "crates/cli/src/main.rs",
    "crates/cli/src/spec.rs",
    "crates/core/src/fingerprint.rs",
    "crates/core/src/sp_dp.rs",
    "crates/engine/src/admission.rs",
    "crates/engine/src/persist.rs",
    "crates/engine/src/registry.rs",
    "crates/engine/src/request.rs",
    "crates/lp/src/revised.rs",
    "crates/par/src/lib.rs",
    "crates/race/src/detect.rs",
    "crates/race/src/footprint.rs",
    "crates/race/src/program.rs",
    "crates/sim/src/model.rs",
];

/// Wire-path directories (every `.rs` file under them is scanned).
pub const WIRE_PATH_DIRS: &[&str] = &["crates/analyze/src"];

/// Per-file wall-clock exemptions: `(file, documented reason)`. The
/// reason is part of the declaration — an exemption without a
/// stderr/bench justification is a review error.
pub const WALL_CLOCK_ALLOWED: &[(&str, &str)] = &[(
    "crates/cli/src/main.rs",
    "renders wall/queue_wait timing to stderr only; stdout is the wire",
)];

/// One self-lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFinding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token (0 for file-level findings).
    pub line: usize,
    /// Which rule fired: `hash-ordered-collection`, `wall-clock`,
    /// `unordered-parallel-reduction`, or `missing-wire-path-file`.
    pub rule: &'static str,
    /// The offending source line, trimmed (or a note for file-level
    /// findings).
    pub snippet: String,
}

impl fmt::Display for SourceFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.snippet
        )
    }
}

/// Scans one wire-path source text. `relpath` selects the wall-clock
/// exemption; comments are stripped before token matching.
pub fn check_source(relpath: &str, text: &str) -> Vec<SourceFinding> {
    // needles assembled at runtime so this file never contains its own
    // forbidden tokens (crates/analyze/src is itself wire-path)
    let hash_needles = [["Hash", "Map"].concat(), ["Hash", "Set"].concat()];
    let clock_needles = [["Instant", "::now"].concat(), ["System", "Time"].concat()];
    // unordered parallel idioms: a free-threaded spawn joins in
    // arrival order, and a channel's try-drain observes scheduling.
    // Scoped workers reassembled in request order (run_batch) use
    // neither.
    let unordered_needles = [["thread", "::spawn"].concat(), ["try_", "iter()"].concat()];
    let clock_allowed = WALL_CLOCK_ALLOWED.iter().any(|(f, _)| *f == relpath);
    let stripped = strip_comments(text);
    let mut findings = Vec::new();
    for (i, line) in stripped.lines().enumerate() {
        let orig = text.lines().nth(i).unwrap_or("").trim().to_string();
        if hash_needles.iter().any(|n| line.contains(n.as_str())) {
            findings.push(SourceFinding {
                file: relpath.to_string(),
                line: i + 1,
                rule: "hash-ordered-collection",
                snippet: orig.clone(),
            });
        }
        if !clock_allowed && clock_needles.iter().any(|n| line.contains(n.as_str())) {
            findings.push(SourceFinding {
                file: relpath.to_string(),
                line: i + 1,
                rule: "wall-clock",
                snippet: orig.clone(),
            });
        }
        if unordered_needles.iter().any(|n| line.contains(n.as_str())) {
            findings.push(SourceFinding {
                file: relpath.to_string(),
                line: i + 1,
                rule: "unordered-parallel-reduction",
                snippet: orig,
            });
        }
    }
    findings
}

/// Runs the self-lint over the whole workspace rooted at `root`.
/// Returns every finding, deterministically ordered (declaration
/// order, then line).
pub fn lint_workspace(root: &Path) -> Vec<SourceFinding> {
    let mut findings = Vec::new();
    fn scan(root: &Path, rel: String, findings: &mut Vec<SourceFinding>) {
        match std::fs::read_to_string(root.join(&rel)) {
            Ok(text) => findings.extend(check_source(&rel, &text)),
            Err(e) => findings.push(SourceFinding {
                file: rel,
                line: 0,
                rule: "missing-wire-path-file",
                snippet: format!("declared wire-path file is unreadable: {e}"),
            }),
        }
    }
    for file in WIRE_PATH_FILES {
        scan(root, (*file).to_string(), &mut findings);
    }
    for dir in WIRE_PATH_DIRS {
        let mut names: Vec<String> = match std::fs::read_dir(root.join(dir)) {
            Ok(entries) => entries
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".rs"))
                .collect(),
            Err(e) => {
                findings.push(SourceFinding {
                    file: (*dir).to_string(),
                    line: 0,
                    rule: "missing-wire-path-file",
                    snippet: format!("declared wire-path directory is unreadable: {e}"),
                });
                continue;
            }
        };
        names.sort();
        for name in names {
            scan(root, format!("{dir}/{name}"), &mut findings);
        }
    }
    findings
}

/// Replaces comment bytes with spaces (newlines kept, so line numbers
/// survive). Handles line comments, nested block comments, string and
/// char literals (comment markers inside them are not comments), and
/// raw strings.
fn strip_comments(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        // line comment
        if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                out.push(b' ');
                i += 1;
            }
            continue;
        }
        // block comment (nested)
        if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
            let mut depth = 1;
            out.extend_from_slice(b"  ");
            i += 2;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                    depth += 1;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                    depth -= 1;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            continue;
        }
        // raw string: r"..." / r#"..."# (copied verbatim)
        if bytes[i] == b'r' && i + 1 < bytes.len() && (bytes[i + 1] == b'"' || bytes[i + 1] == b'#')
        {
            let start = i;
            let mut j = i + 1;
            let mut hashes = 0;
            while j < bytes.len() && bytes[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            if j < bytes.len() && bytes[j] == b'"' {
                j += 1;
                'raw: while j < bytes.len() {
                    if bytes[j] == b'"' {
                        let mut k = 0;
                        while k < hashes && j + 1 + k < bytes.len() && bytes[j + 1 + k] == b'#' {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break 'raw;
                        }
                    }
                    j += 1;
                }
                out.extend_from_slice(&bytes[start..j]);
                i = j;
                continue;
            }
        }
        // string literal (copied verbatim, escapes honoured)
        if bytes[i] == b'"' {
            out.push(bytes[i]);
            i += 1;
            while i < bytes.len() {
                out.push(bytes[i]);
                if bytes[i] == b'\\' && i + 1 < bytes.len() {
                    out.push(bytes[i + 1]);
                    i += 2;
                    continue;
                }
                if bytes[i] == b'"' {
                    i += 1;
                    break;
                }
                i += 1;
            }
            continue;
        }
        // char literal vs lifetime: a closing quote within 3 bytes (or
        // after an escape) means char literal; otherwise lifetime
        if bytes[i] == b'\'' {
            let lit_end = if i + 1 < bytes.len() && bytes[i + 1] == b'\\' {
                bytes[i + 2..]
                    .iter()
                    .take(6)
                    .position(|&b| b == b'\'')
                    .map(|p| i + 2 + p)
            } else {
                bytes[i + 1..]
                    .iter()
                    .take(4)
                    .position(|&b| b == b'\'')
                    .filter(|&p| p > 0)
                    .map(|p| i + 1 + p)
            };
            if let Some(end) = lit_end {
                out.extend_from_slice(&bytes[i..=end]);
                i = end + 1;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    // the hazard tokens, assembled at runtime for the same reason the
    // production needles are: this file is itself on the wire path, so
    // its test fixtures must not contain them verbatim either
    fn hash_map_token() -> String {
        ["Hash", "Map"].concat()
    }

    fn instant_now_token() -> String {
        ["Instant", "::now"].concat()
    }

    fn system_time_token() -> String {
        ["System", "Time"].concat()
    }

    #[test]
    fn doc_comment_mentions_are_not_findings() {
        let src = format!(
            "//! no `{}` iteration order here\nfn f() {{}}\n",
            hash_map_token()
        );
        assert!(check_source("x.rs", &src).is_empty());
    }

    #[test]
    fn code_use_is_a_finding_with_the_right_line() {
        let src = format!(
            "fn f() {{\n    let m: std::collections::{}<u32, u32> = Default::default();\n    let _ = m;\n}}\n",
            hash_map_token()
        );
        let f = check_source("x.rs", &src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].line, f[0].rule), (2, "hash-ordered-collection"));
        assert!(f[0].snippet.contains("collections"));
    }

    #[test]
    fn block_comments_and_strings_are_handled() {
        let src = format!(
            "/* {} in a\n   block comment */\nfn f() -> &'static str {{ \"https://not//a//comment\" }}\n",
            hash_map_token()
        );
        assert!(check_source("x.rs", &src).is_empty());
        // a token inside a string literal still counts: wire-path
        // files must not even name the hazard in emitted text
        let s2 = format!(
            "fn f() -> String {{ String::from(\"{}\") }}\n",
            hash_map_token()
        );
        assert_eq!(check_source("x.rs", &s2).len(), 1);
    }

    #[test]
    fn wall_clock_rule_respects_the_allowlist() {
        let src = format!(
            "fn f() {{ let _t = std::time::{}(); }}\n",
            instant_now_token()
        );
        let f = check_source("crates/cli/src/spec.rs", &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
        assert!(check_source("crates/cli/src/main.rs", &src).is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_derail_the_lexer() {
        let src =
            "fn f<'a>(x: &'a str) -> char { let q = '\"'; let s = \"// HashZZZ\"; let _ = s; q }\n";
        assert!(check_source("x.rs", src).is_empty());
    }

    #[test]
    fn nested_block_comments_strip_fully() {
        let src = format!(
            "/* outer /* inner {} */ still comment */ fn g() {{}}\n",
            system_time_token()
        );
        assert!(check_source("x.rs", &src).is_empty());
    }

    #[test]
    fn the_declared_wire_path_set_names_this_crate() {
        assert!(WIRE_PATH_DIRS.contains(&"crates/analyze/src"));
        assert!(WIRE_PATH_FILES.iter().any(|f| f.ends_with("batch.rs")));
    }

    fn thread_spawn_token() -> String {
        ["thread", "::spawn"].concat()
    }

    fn try_iter_token() -> String {
        ["try_", "iter()"].concat()
    }

    #[test]
    fn unscoped_spawn_is_an_unordered_reduction_finding() {
        let src = format!(
            "fn f() {{\n    let h = std::{}(|| 1);\n    let _ = h.join();\n}}\n",
            thread_spawn_token()
        );
        let f = check_source("x.rs", &src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].line, f[0].rule), (2, "unordered-parallel-reduction"));
    }

    #[test]
    fn channel_try_drain_is_an_unordered_reduction_finding() {
        let src = format!(
            "fn f(rx: &std::sync::mpsc::Receiver<u32>) -> u32 {{\n    rx.{}.sum()\n}}\n",
            try_iter_token()
        );
        let f = check_source("x.rs", &src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unordered-parallel-reduction");
    }

    #[test]
    fn scoped_workers_are_not_findings() {
        // the run_batch idiom: scoped spawn, results reassembled in
        // request order — `s.spawn` is not the unscoped free-threaded form
        let src = "fn f() { crossbeam::thread::scope(|s| { s.spawn(|| 1); }); }\n";
        assert!(check_source("x.rs", src).is_empty());
    }

    #[test]
    fn the_wire_path_set_names_the_parallel_paths() {
        for f in [
            "crates/par/src/lib.rs",
            "crates/lp/src/revised.rs",
            "crates/core/src/sp_dp.rs",
            "crates/sim/src/model.rs",
        ] {
            assert!(WIRE_PATH_FILES.contains(&f), "{f} must be wire-path");
        }
    }
}
