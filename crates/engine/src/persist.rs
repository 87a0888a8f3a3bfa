//! `rtt-cache-v1`: the versioned spill/load format for the solution
//! tier of a [`crate::ReuseCache`], behind `rtt batch --cache-save` /
//! `--cache-load`.
//!
//! # Format
//!
//! Line-oriented UTF-8 text. The first line is the header:
//!
//! ```text
//! rtt-cache-v1 fp=rtt-fp-v1 entries=<n>
//! ```
//!
//! `fp=` pins the canonical-fingerprint serialization the keys embed
//! ([`rtt_core::CANONICAL_FORM_TAG`]): a spill written under a
//! different fingerprint version is meaningless to this binary and is
//! rejected at the header, like a version mismatch. Then exactly `n`
//! entry lines, each tab-separated:
//!
//! ```text
//! <escaped key> \t <m> \t <report fields> × m \t <fnv64 checksum>
//! ```
//!
//! Each report contributes 10 fields: solver name, `sweep_budget`,
//! `makespan`, `budget_used` (integers or `-`), the four float fields
//! (`lp_makespan`, `lp_budget`, `makespan_factor`, `resource_factor`)
//! as `f64::to_bits` hex — exact round-trip, no decimal drift — the
//! `work` counter, and the solution form (`sol:`/`nr:`/`sched:` with
//! `,`-joined vectors and `;`-separated sections, or `none`). The
//! final field is an FNV-1a 64 checksum over everything before it, so
//! a flipped byte anywhere in the line is detected before parsing is
//! trusted.
//!
//! # Trust model: the file is untrusted input
//!
//! Loading is **all-or-nothing**: every line is checksum-verified and
//! parsed before a single entry is installed, so a corrupt file loads
//! zero entries and surfaces a structured [`PersistError`] — never a
//! half-populated cache. The checksum detects accidents, not forgery:
//! it is unkeyed, so anyone can re-sign an edited line. Loading
//! therefore does *not* trust the payload: a loaded entry is installed
//! donor-less ([`crate::ReuseCache::insert_loaded`]), and a hit must
//! pass the full key-string comparison and the serve-time replay checks
//! in [`crate::executor`] before its bytes reach the wire. Replay
//! **re-derives**:
//!
//! * the entry's shape: one report per grid point of a sweep, each
//!   `sweep_budget` its point, in grid order; exactly one report
//!   otherwise; every report under the solver the request probed;
//! * each solution's validity for its form, and each report's
//!   `makespan` and `budget_used` as its solution's;
//! * the Observation 1.1 certificate (`sim_makespan`), recomputed.
//!
//! An entry that fails any of these is answered by one `failed` report
//! for the whole request. Replay still serves **as stored** what it
//! cannot re-derive without re-solving: the LP bounds, the certified
//! factors and `work` are checksummed but not re-derived, and a spill
//! can substitute a different valid solution for the one the solver
//! would find. A spill this binary wrote changes only what a run costs;
//! a hand-edited one can change those fields, never serve an invalid or
//! uncertified answer.
//!
//! Timing fields, budget blocks, and certificates are deliberately not
//! persisted: only [`crate::Status::Solved`], unbudgeted reports enter
//! the solution tier, and every per-serve field is recomputed.

use crate::registry::Registry;
use crate::request::{SolveReport, Status};
use crate::reuse::ReuseCache;
use rtt_core::{GlobalSchedule, NoReuseSolution, Solution};
use std::fmt;
use std::path::Path;

/// The format tag on the header line. Bump on any layout change — an
/// old binary must reject a new spill and vice versa, loudly.
pub const CACHE_FORMAT_TAG: &str = "rtt-cache-v1";

/// Why a spill failed to save or load. Loading never partially
/// succeeds: any variant here means zero entries were installed.
#[derive(Debug)]
pub enum PersistError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The header line is missing or malformed.
    BadHeader,
    /// The file declares a different format version.
    Version {
        /// The tag the file declared.
        found: String,
    },
    /// The file was written under a different canonical-fingerprint
    /// serialization; its keys cannot match this binary's.
    Fingerprint {
        /// The `fp=` tag the file declared.
        found: String,
    },
    /// The file ended before the declared entry count.
    Truncated {
        /// Entries the header declared.
        expected: usize,
        /// Entry lines actually present.
        found: usize,
    },
    /// One entry line failed its checksum or did not parse.
    Entry {
        /// 1-based line number in the file.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadHeader => write!(f, "missing or malformed {CACHE_FORMAT_TAG} header"),
            PersistError::Version { found } => write!(
                f,
                "format version mismatch: file is {found:?}, this binary speaks {CACHE_FORMAT_TAG}"
            ),
            PersistError::Fingerprint { found } => write!(
                f,
                "fingerprint version mismatch: file keys use {found:?}, this binary uses {:?}",
                rtt_core::CANONICAL_FORM_TAG
            ),
            PersistError::Truncated { expected, found } => write!(
                f,
                "truncated: header declares {expected} entries, file holds {found}"
            ),
            PersistError::Entry { line, reason } => {
                write!(f, "corrupt entry at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// FNV-1a 64 over `bytes` — the per-line checksum. Not cryptographic;
/// it detects corruption, while what a served entry may claim rests on
/// the serve-time replay checks (see the module docs).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Escapes a key for single-field storage (`\` `\t` `\n` `\r`).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

fn fmt_opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "-".into(), |v| v.to_string())
}

fn fmt_opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |v| format!("{:016x}", v.to_bits()))
}

fn parse_opt_u64(s: &str) -> Result<Option<u64>, String> {
    if s == "-" {
        return Ok(None);
    }
    s.parse::<u64>()
        .map(Some)
        .map_err(|_| format!("bad integer {s:?}"))
}

fn parse_opt_f64(s: &str) -> Result<Option<f64>, String> {
    if s == "-" {
        return Ok(None);
    }
    u64::from_str_radix(s, 16)
        .map(|bits| Some(f64::from_bits(bits)))
        .map_err(|_| format!("bad float bits {s:?}"))
}

fn fmt_vec(v: &[u64]) -> String {
    let parts: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    parts.join(",")
}

fn parse_vec(s: &str) -> Result<Vec<u64>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|p| p.parse::<u64>().map_err(|_| format!("bad vector item {p:?}")))
        .collect()
}

fn fmt_form(r: &SolveReport) -> String {
    if let Some(s) = &r.solution {
        format!(
            "sol:{};{};{};{}",
            fmt_vec(&s.arc_flows),
            fmt_vec(&s.edge_times),
            s.makespan,
            s.budget_used
        )
    } else if let Some(n) = &r.noreuse {
        format!(
            "nr:{};{};{};{}",
            fmt_vec(&n.levels),
            fmt_vec(&n.edge_times),
            n.makespan,
            n.budget_used
        )
    } else if let Some(s) = &r.schedule {
        format!(
            "sched:{};{};{};{};{}",
            fmt_vec(&s.start),
            fmt_vec(&s.finish),
            fmt_vec(&s.level),
            s.makespan,
            s.peak_in_use
        )
    } else {
        "none".into()
    }
}

fn parse_form(s: &str, r: &mut SolveReport) -> Result<(), String> {
    let sections = |body: &str, n: usize| -> Result<Vec<String>, String> {
        let parts: Vec<String> = body.split(';').map(str::to_string).collect();
        if parts.len() != n {
            return Err(format!("form expects {n} sections, got {}", parts.len()));
        }
        Ok(parts)
    };
    let scalar = |s: &str| s.parse::<u64>().map_err(|_| format!("bad scalar {s:?}"));
    if let Some(body) = s.strip_prefix("sol:") {
        let p = sections(body, 4)?;
        r.solution = Some(Solution {
            arc_flows: parse_vec(&p[0])?,
            edge_times: parse_vec(&p[1])?,
            makespan: scalar(&p[2])?,
            budget_used: scalar(&p[3])?,
        });
    } else if let Some(body) = s.strip_prefix("nr:") {
        let p = sections(body, 4)?;
        r.noreuse = Some(NoReuseSolution {
            levels: parse_vec(&p[0])?,
            edge_times: parse_vec(&p[1])?,
            makespan: scalar(&p[2])?,
            budget_used: scalar(&p[3])?,
        });
    } else if let Some(body) = s.strip_prefix("sched:") {
        let p = sections(body, 5)?;
        r.schedule = Some(GlobalSchedule {
            start: parse_vec(&p[0])?,
            finish: parse_vec(&p[1])?,
            level: parse_vec(&p[2])?,
            makespan: scalar(&p[3])?,
            peak_in_use: scalar(&p[4])?,
        });
    } else if s != "none" {
        return Err(format!("unknown form tag in {s:?}"));
    }
    Ok(())
}

/// Fields one report contributes to its entry line.
const REPORT_FIELDS: usize = 10;

fn push_report_fields(fields: &mut Vec<String>, r: &SolveReport) {
    fields.push(r.solver.to_string());
    fields.push(fmt_opt_u64(r.sweep_budget));
    fields.push(fmt_opt_u64(r.makespan));
    fields.push(fmt_opt_u64(r.budget_used));
    fields.push(fmt_opt_f64(r.lp_makespan));
    fields.push(fmt_opt_f64(r.lp_budget));
    fields.push(fmt_opt_f64(r.makespan_factor));
    fields.push(fmt_opt_f64(r.resource_factor));
    fields.push(r.work.to_string());
    fields.push(fmt_form(r));
}

fn parse_report_fields(fields: &[String], registry: &Registry) -> Result<SolveReport, String> {
    let solver = registry
        .resolve(&fields[0])
        .map(|s| s.name())
        .ok_or_else(|| format!("unknown solver {:?}", fields[0]))?;
    // loaded reports are Solved by construction (only fully-solved
    // vectors are spilled); id/timing/budget are per-serve fields
    let mut r = SolveReport::new("", solver, Status::Solved, "");
    r.sweep_budget = parse_opt_u64(&fields[1])?;
    r.makespan = parse_opt_u64(&fields[2])?;
    r.budget_used = parse_opt_u64(&fields[3])?;
    r.lp_makespan = parse_opt_f64(&fields[4])?;
    r.lp_budget = parse_opt_f64(&fields[5])?;
    r.makespan_factor = parse_opt_f64(&fields[6])?;
    r.resource_factor = parse_opt_f64(&fields[7])?;
    r.work = fields[8]
        .parse::<u64>()
        .map_err(|_| format!("bad work counter {:?}", fields[8]))?;
    parse_form(&fields[9], &mut r)?;
    Ok(r)
}

/// Serializes one `(key, reports)` entry, checksum included.
fn entry_line(key: &str, reports: &[SolveReport]) -> String {
    let mut fields = vec![esc(key), reports.len().to_string()];
    for r in reports {
        push_report_fields(&mut fields, r);
    }
    let body = fields.join("\t");
    format!("{body}\t{:016x}", fnv64(body.as_bytes()))
}

fn parse_entry_line(
    line_no: usize,
    line: &str,
    registry: &Registry,
) -> Result<(String, Vec<SolveReport>), PersistError> {
    let entry = |reason: String| PersistError::Entry {
        line: line_no,
        reason,
    };
    let fields: Vec<String> = line.split('\t').map(str::to_string).collect();
    if fields.len() < 3 {
        return Err(entry("too few fields".into()));
    }
    let (body_fields, check) = fields.split_at(fields.len() - 1);
    let body = body_fields.join("\t");
    let want = format!("{:016x}", fnv64(body.as_bytes()));
    if check[0] != want {
        return Err(entry("checksum mismatch".into()));
    }
    let key = unesc(&body_fields[0]).map_err(entry)?;
    let m: usize = body_fields[1]
        .parse()
        .map_err(|_| entry(format!("bad report count {:?}", body_fields[1])))?;
    if m == 0 {
        return Err(entry("empty report vector".into()));
    }
    // checked: a forged count must not wrap the product into a match
    if m.checked_mul(REPORT_FIELDS).and_then(|n| n.checked_add(2)) != Some(body_fields.len()) {
        return Err(entry(format!(
            "field arity: {m} reports need 2 + {m}×{REPORT_FIELDS} fields, line has {}",
            body_fields.len()
        )));
    }
    // arity must agree with the key's objective: a sweep key (`sw:`)
    // holds one report per grid budget, every other key exactly one
    let is_sweep = key.split('|').nth(2).is_some_and(|obj| obj.starts_with("sw:"));
    if !is_sweep && m != 1 {
        return Err(entry(format!("non-sweep key with {m} reports")));
    }
    let mut reports = Vec::with_capacity(m);
    for i in 0..m {
        let at = 2 + i * REPORT_FIELDS;
        reports.push(parse_report_fields(&body_fields[at..at + REPORT_FIELDS], registry).map_err(entry)?);
    }
    Ok((key, reports))
}

/// Spills the solution tier of `cache` to `path` (atomically: written
/// to a sibling temp file, then renamed). Returns the entry count.
///
/// Deterministic for a given cache state: entries are sorted by key.
pub fn save(cache: &ReuseCache, path: &Path) -> Result<usize, PersistError> {
    let entries = cache.export_solutions();
    let mut out = String::new();
    out.push_str(&format!(
        "{CACHE_FORMAT_TAG} fp={} entries={}\n",
        rtt_core::CANONICAL_FORM_TAG,
        entries.len()
    ));
    for (key, reports) in &entries {
        out.push_str(&entry_line(key, reports));
        out.push('\n');
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, out)?;
    std::fs::rename(&tmp, path)?;
    Ok(entries.len())
}

/// Loads a spill into `cache`'s solution tier. All-or-nothing: the
/// whole file is checksum-verified and parsed before a single entry is
/// installed, so any [`PersistError`] means the cache is exactly as it
/// was. `registry` resolves the stored solver names; an unknown name
/// (a spill from a differently-configured binary) rejects the file.
///
/// Installed entries are donor-less and therefore **untrusted**: they
/// must pass the serve-time replay checks and re-certification before
/// their bytes reach the wire (see the module docs).
pub fn load(cache: &ReuseCache, path: &Path, registry: &Registry) -> Result<usize, PersistError> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    let header = lines.next().ok_or(PersistError::BadHeader)?;
    let mut parts = header.split(' ');
    let tag = parts.next().ok_or(PersistError::BadHeader)?;
    if tag != CACHE_FORMAT_TAG {
        return Err(PersistError::Version { found: tag.into() });
    }
    let fp = parts
        .next()
        .and_then(|p| p.strip_prefix("fp="))
        .ok_or(PersistError::BadHeader)?;
    if fp != rtt_core::CANONICAL_FORM_TAG {
        return Err(PersistError::Fingerprint { found: fp.into() });
    }
    let expected: usize = parts
        .next()
        .and_then(|p| p.strip_prefix("entries="))
        .and_then(|n| n.parse().ok())
        .ok_or(PersistError::BadHeader)?;
    if parts.next().is_some() {
        return Err(PersistError::BadHeader);
    }
    // the header's count is unchecked input: grow with the lines
    // actually present instead of reserving it
    let mut parsed = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        if parsed.len() == expected {
            return Err(PersistError::Entry {
                line: i + 2,
                reason: "more entries than the header declares".into(),
            });
        }
        parsed.push(parse_entry_line(i + 2, line, registry)?);
    }
    if parsed.len() != expected {
        return Err(PersistError::Truncated {
            expected,
            found: parsed.len(),
        });
    }
    let n = parsed.len();
    for (key, reports) in parsed {
        cache.insert_loaded(key, reports);
    }
    Ok(n)
}
