//! Structured lint diagnostics: the stable `RTT0xx` vocabulary shared
//! by the `rtt lint` corpus/spec linter (CLI layer) and the engine's
//! request-admission hook.
//!
//! Design rules, mirrored from compiler diagnostics:
//!
//! * **Stable codes** — `RTT001`..`RTT013` never change meaning; new
//!   checks get new codes. [`CODES`] is the registry and the
//!   documentation source of truth.
//! * **Severity is part of the contract** — an *error* means the batch
//!   executor would reject the line at admission (`rtt batch` would
//!   fail); a *warning* means the line is admitted but a declared
//!   field is vacuous or will degrade the answer. Lint-clean corpora
//!   cannot fail admission; the agreement is cross-tested.
//! * **Deterministic order** — diagnostics sort by `(line, code,
//!   message)`; rendering never consults a hash map or a clock.
//!
//! Renderings: [`Diagnostic::human`] (`file:line: severity[code]:
//! message`, the compiler-style form) and [`Diagnostic::ndjson`] (one
//! JSON object per line for machine consumption).

use std::fmt;

/// Diagnostic severity. Ordering: errors sort before warnings at equal
/// line/code only through code numbering (error codes are disjoint
/// from warning codes by construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The executor rejects this line at admission.
    Error,
    /// The line is admitted, but a declared field is vacuous or the
    /// answer will be degraded.
    Warning,
}

impl Severity {
    /// Stable lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured diagnostic, anchored to a 1-based source line (line
/// 0 for whole-document diagnostics, e.g. a spec file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, `RTT001`..`RTT013` (see [`CODES`]).
    pub code: &'static str,
    /// Whether the executor would reject the line.
    pub severity: Severity,
    /// 1-based line in the linted document (0 = whole document).
    pub line: usize,
    /// Human-readable detail, mirroring the executor's rejection text
    /// where one exists.
    pub message: String,
}

impl Diagnostic {
    /// An error diagnostic.
    pub fn error(code: &'static str, line: usize, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            line,
            message: message.into(),
        }
    }

    /// A warning diagnostic.
    pub fn warning(code: &'static str, line: usize, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Warning,
            line,
            message: message.into(),
        }
    }

    /// Compiler-style single-line rendering:
    /// `name:line: severity[code]: message`.
    pub fn human(&self, source_name: &str) -> String {
        format!(
            "{}:{}: {}[{}]: {}",
            source_name, self.line, self.severity, self.code, self.message
        )
    }

    /// NDJSON rendering: `{"line":N,"code":"RTTnnn","severity":"...",
    /// "message":"..."}` — insertion-ordered fields, byte-stable.
    pub fn ndjson(&self) -> String {
        let mut out = String::with_capacity(self.message.len() + 64);
        out.push_str("{\"line\":");
        out.push_str(&self.line.to_string());
        out.push_str(",\"code\":\"");
        out.push_str(self.code);
        out.push_str("\",\"severity\":\"");
        out.push_str(self.severity.as_str());
        out.push_str("\",\"message\":\"");
        escape_into(&mut out, &self.message);
        out.push_str("\"}");
        out
    }
}

/// Sorts diagnostics into the canonical report order:
/// `(line, code, message)`.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (a.line, a.code, &a.message).cmp(&(b.line, b.code, &b.message)));
}

/// Whether any diagnostic is an error (→ the corpus cannot be
/// admitted; `rtt lint` exits nonzero).
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Minimal JSON string escaping (the only non-trivial bytes our
/// messages can carry are quotes and backslashes from `{:?}` field
/// echoes, plus control characters from hostile input echoed back).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// The diagnostic code registry: `(code, severity, meaning)`. The
/// one-line meanings here are the documentation source of truth (the
/// `rtt_cli::batch` wire docs repeat them verbatim).
pub const CODES: &[(&str, Severity, &str)] = &[
    ("RTT001", Severity::Error, "malformed JSON or wrong field shape (unparseable line, missing `instance`, mistyped field)"),
    ("RTT002", Severity::Error, "dangling edge endpoint, or an arc-form edge with no duration"),
    ("RTT003", Severity::Error, "the instance graph contains a cycle"),
    ("RTT004", Severity::Error, "instance rejected by construction (empty, or not two-terminal)"),
    ("RTT005", Severity::Error, "invalid duration table (empty, first resource not 0, non-increasing resources, or non-monotone times)"),
    ("RTT006", Severity::Error, "objective conflict (`budgets` vs `budget`/`target`/`objective`, ambiguous or missing objective fields, unknown objective)"),
    ("RTT007", Severity::Error, "bad sweep grid (empty, malformed grid string, a range of more than 65536 points, or a sweep line naming a non-bicriteria solver)"),
    ("RTT008", Severity::Error, "unknown solver name"),
    ("RTT009", Severity::Error, "bad budget spec (`on_exhaustion` without a `max_*` limit, or an unknown exhaustion policy)"),
    ("RTT010", Severity::Error, "alpha outside the open interval (0, 1)"),
    ("RTT011", Severity::Warning, "zero deadline: the request always expires at dequeue without touching a solver"),
    ("RTT012", Severity::Warning, "queue-depth limit at least the batch size: the bound can never trip"),
    ("RTT013", Severity::Warning, "family-tag mismatch: the named solver does not support this instance"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_sorted_and_well_formed() {
        for w in CODES.windows(2) {
            assert!(w[0].0 < w[1].0, "codes must be sorted unique");
        }
        for (code, _, meaning) in CODES {
            assert!(code.starts_with("RTT") && code.len() == 6, "{code}");
            assert!(!meaning.is_empty());
        }
        // errors occupy RTT001..RTT010, warnings RTT011..RTT013
        assert_eq!(
            CODES
                .iter()
                .filter(|(_, s, _)| *s == Severity::Error)
                .count(),
            10
        );
        assert_eq!(
            CODES
                .iter()
                .filter(|(_, s, _)| *s == Severity::Warning)
                .count(),
            3
        );
    }

    #[test]
    fn renderings_are_stable() {
        let d = Diagnostic::error("RTT001", 3, "bad \"x\"\\path");
        assert_eq!(
            d.human("c.ndjson"),
            "c.ndjson:3: error[RTT001]: bad \"x\"\\path"
        );
        assert_eq!(
            d.ndjson(),
            "{\"line\":3,\"code\":\"RTT001\",\"severity\":\"error\",\"message\":\"bad \\\"x\\\"\\\\path\"}"
        );
        let w = Diagnostic::warning("RTT011", 1, "zero deadline");
        assert_eq!(w.severity.as_str(), "warning");
    }

    #[test]
    fn sorting_is_by_line_then_code_then_message() {
        let mut ds = vec![
            Diagnostic::warning("RTT011", 2, "b"),
            Diagnostic::error("RTT001", 2, "a"),
            Diagnostic::error("RTT008", 1, "z"),
        ];
        sort_diagnostics(&mut ds);
        assert_eq!(
            ds.iter().map(|d| (d.line, d.code)).collect::<Vec<_>>(),
            vec![(1, "RTT008"), (2, "RTT001"), (2, "RTT011")]
        );
        assert!(has_errors(&ds));
        assert!(!has_errors(&ds[2..3]));
    }

    #[test]
    fn control_characters_escape() {
        let d = Diagnostic::error("RTT001", 1, "a\u{1}b\nc");
        assert!(d.ndjson().contains("a\\u0001b\\nc"));
    }
}
