//! Property and corruption tests for the `rtt-cache-v1` spill format
//! (PR 8): a save → load round trip must serve byte-equivalent reports
//! through the full re-certification path, a corrupt file must be
//! rejected with a structured error and **zero** entries installed, and
//! a forged entry that passes its checksum must be answered `failed`,
//! never served.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtt_engine::{
    persist, run_batch, run_batch_cached, PersistError, PreparedInstance, Registry, ReuseCache,
    SolveReport, SolveRequest, Status,
};
use rtt_core::ArcInstance;
use rtt_dag::gen;
use rtt_duration::Duration;
use std::path::PathBuf;
use std::sync::Arc;

fn generate(kind: usize, family: usize, seed: u64) -> ArcInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tt = match kind % 3 {
        0 => gen::random_sp(&mut rng, 3).tt,
        1 => gen::layered(&mut rng, 3, 2, 0.4),
        _ => gen::chain(2 + (seed as usize % 3)),
    };
    let fam: fn(u64) -> Duration = match family % 2 {
        0 => Duration::recursive_binary,
        _ => Duration::kway,
    };
    let inst = rtt_core::Instance::race_dag(&tt.dag, fam).expect("generated DAG is valid");
    rtt_core::to_arc_form(&inst).0
}

/// A mixed corpus over one instance: a sweep, its duplicate, and a
/// single min-makespan solve in each solution form (`bicriteria`
/// routed, `noreuse-exact` no-reuse, `global-greedy` schedule) —
/// everything the solution tier caches.
fn corpus(kind: usize, family: usize, seed: u64, hi: u64) -> Vec<SolveRequest> {
    let prep = Arc::new(PreparedInstance::new(generate(kind, family, seed)));
    let budgets: Vec<u64> = (0..=hi).collect();
    vec![
        SolveRequest::sweep("s1", prep.clone(), budgets.clone()),
        SolveRequest::sweep("s2", prep.clone(), budgets),
        SolveRequest::min_makespan("q1", prep.clone(), hi).with_solver("bicriteria"),
        SolveRequest::min_makespan("q2", prep.clone(), hi).with_solver("noreuse-exact"),
        SolveRequest::min_makespan("q3", prep, hi).with_solver("global-greedy"),
    ]
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rtt-persist-{tag}-{}.cache", std::process::id()))
}

/// The wire-relevant fields of a report (everything `report_line`
/// renders, plus the certificate): id, solver, status, the integer
/// fields, the float fields as bit patterns, and the work counter.
type WireFields = (String, &'static str, Status, Vec<Option<u64>>, Vec<Option<u64>>, u64);

fn wire_fields(r: &SolveReport) -> WireFields {
    let floats = [r.lp_makespan, r.lp_budget, r.makespan_factor, r.resource_factor]
        .iter()
        .map(|f| f.map(f64::to_bits))
        .collect();
    let ints = vec![
        r.sweep_budget,
        r.makespan,
        r.budget_used,
        r.sim.map(|s| s.simulated),
        r.sim.map(|s| s.bound),
    ];
    (r.id.clone(), r.solver, r.status.clone(), ints, floats, r.work)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// save → load → serve: a fresh process restarting from the spill
    /// answers the same corpus with the same wire fields as the run
    /// that populated the cache, and actually serves from the loaded
    /// tier instead of re-solving.
    #[test]
    fn spill_round_trip_serves_identical_reports(
        kind in 0usize..3,
        family in 0usize..2,
        seed in 0u64..2_000,
        hi in 2u64..8,
    ) {
        let registry = Registry::standard();
        let path = tmp_path(&format!("rt-{kind}-{family}-{seed}-{hi}"));

        // first life: solve, populating the cache, then spill
        let warm = ReuseCache::new(64);
        let first = run_batch_cached(&registry, corpus(kind, family, seed, hi), 1, Some(&warm));
        prop_assert!(first.reports.iter().all(|r| r.status == Status::Solved));
        let saved = persist::save(&warm, &path).expect("spill saves");
        prop_assert!(saved > 0, "a solved corpus must spill entries");

        // restart: fresh cache, loaded from disk, same corpus
        let restarted = ReuseCache::new(64);
        let loaded = persist::load(&restarted, &path, &registry).expect("spill loads");
        prop_assert_eq!(loaded, saved, "every saved entry loads");
        let second = run_batch_cached(&registry, corpus(kind, family, seed, hi), 1, Some(&restarted));

        prop_assert_eq!(first.reports.len(), second.reports.len());
        for (a, b) in first.reports.iter().zip(&second.reports) {
            prop_assert_eq!(wire_fields(a), wire_fields(b));
        }
        // the loaded entries were *served*, through re-certification,
        // not silently ignored
        let stats = restarted.stats();
        prop_assert!(
            stats.solution_hits > 0,
            "restart must serve from the loaded tier: {stats:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// Populates a cache with the corpus (one solved sweep and a single
/// solve per solution form) and spills it, returning the spill text.
fn spilled_text(tag: &str) -> String {
    let registry = Registry::standard();
    let warm = ReuseCache::new(64);
    let out = run_batch_cached(&registry, corpus(0, 0, 7, 4), 1, Some(&warm));
    assert!(out.reports.iter().all(|r| r.status == Status::Solved));
    let path = tmp_path(tag);
    assert!(persist::save(&warm, &path).expect("spill saves") >= 2);
    let text = std::fs::read_to_string(&path).expect("spill is readable");
    std::fs::remove_file(&path).ok();
    text
}

/// Asserts that loading `text` fails with `check(err)` and that the
/// target cache ends up with zero installed entries.
fn assert_rejected(tag: &str, text: &str, check: impl FnOnce(&PersistError) -> bool) {
    let path = tmp_path(tag);
    std::fs::write(&path, text).unwrap();
    let cache = ReuseCache::new(64);
    let err = persist::load(&cache, &path, &Registry::standard())
        .expect_err("a corrupt spill must be rejected");
    assert!(check(&err), "unexpected rejection: {err}");
    assert!(
        cache.export_solutions().is_empty(),
        "rejection must install zero entries ({err})"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_spill_is_rejected_with_zero_entries() {
    let text = spilled_text("trunc-src");
    // drop the last entry line; the header still declares it
    let mut lines: Vec<&str> = text.lines().collect();
    lines.pop();
    let truncated = lines.join("\n");
    assert_rejected("trunc", &truncated, |e| {
        matches!(e, PersistError::Truncated { expected, found } if found + 1 == *expected)
    });
}

#[test]
fn flipped_key_byte_fails_the_checksum_with_zero_entries() {
    let text = spilled_text("flip-src");
    // flip one byte inside the first entry's key (line 2 starts with
    // the escaped key field)
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut bytes = lines[1].clone().into_bytes();
    bytes[2] ^= 0x01; // ASCII key prefix, stays valid UTF-8
    lines[1] = String::from_utf8(bytes).expect("still UTF-8");
    let tampered = lines.join("\n") + "\n";
    assert_rejected("flip", &tampered, |e| {
        matches!(e, PersistError::Entry { line: 2, reason } if reason.contains("checksum"))
    });
}

#[test]
fn wrong_format_tag_is_rejected_with_zero_entries() {
    let text = spilled_text("tag-src");
    let wrong = text.replacen("rtt-cache-v1", "rtt-cache-v9", 1);
    assert_rejected("tag", &wrong, |e| {
        matches!(e, PersistError::Version { found } if found == "rtt-cache-v9")
    });
}

#[test]
fn wrong_fingerprint_tag_is_rejected_with_zero_entries() {
    let text = spilled_text("fp-src");
    let wrong = text.replacen("fp=rtt-fp-v1", "fp=rtt-fp-v0", 1);
    assert_rejected("fp", &wrong, |e| {
        matches!(e, PersistError::Fingerprint { found } if found == "rtt-fp-v0")
    });
}

/// The spill format's line checksum (FNV-1a 64). It is unkeyed, so
/// anyone can forge a line that passes it.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn unallocatable_header_entry_count_is_rejected_with_zero_entries() {
    let text = spilled_text("count-src");
    let (header, entries) = text.split_once('\n').expect("header line");
    let (prefix, _) = header.rsplit_once(' ').expect("entries field");
    let forged = format!("{prefix} entries={}\n{entries}", usize::MAX);
    assert_rejected(
        "count",
        &forged,
        |e| matches!(e, PersistError::Truncated { expected, .. } if *expected == usize::MAX),
    );
}

#[test]
fn report_count_wrapping_the_arity_is_rejected_with_zero_entries() {
    // 2 + m·10 wraps to 6 for this m: a sweep key, four report fields
    // and a valid checksum would pass an unchecked arity test
    let m: usize = 1_844_674_407_370_955_162;
    let body = ["k|0|sw:0:1:1", &m.to_string(), "a", "b", "c", "d"].join("\t");
    let line = format!("{body}\t{:016x}", fnv64(body.as_bytes()));
    let text = spilled_text("wrap-src");
    let header = text.lines().next().expect("header line");
    let (prefix, _) = header.rsplit_once(' ').expect("entries field");
    let forged = format!("{prefix} entries=1\n{line}\n");
    assert_rejected(
        "wrap",
        &forged,
        |e| matches!(e, PersistError::Entry { line: 2, reason } if reason.contains("arity")),
    );
}

// ---- forged entries: a valid checksum over wrong content -----------

/// Spills the corpus' solution tier, rewrites the one entry whose key
/// contains `key_part` through `edit` (its tab-separated fields, the
/// checksum dropped), re-signs it with [`fnv64`], and serves the corpus
/// from the forged spill.
fn serve_forged(
    tag: &str,
    key_part: &str,
    edit: impl FnOnce(&mut Vec<String>),
) -> Vec<SolveReport> {
    let mut edit = Some(edit);
    let forged: Vec<String> = spilled_text(&format!("{tag}-src"))
        .lines()
        .map(|line| {
            let mut fields: Vec<String> = line.split('\t').map(str::to_string).collect();
            if fields.len() < 2 || !fields[0].contains(key_part) {
                return line.to_string();
            }
            fields.pop();
            edit.take().expect("one entry per key")(&mut fields);
            let body = fields.join("\t");
            format!("{body}\t{:016x}", fnv64(body.as_bytes()))
        })
        .collect();
    assert!(edit.is_none(), "no entry key contains {key_part:?}");
    let path = tmp_path(tag);
    std::fs::write(&path, forged.join("\n") + "\n").unwrap();
    let registry = Registry::standard();
    let cache = ReuseCache::new(64);
    persist::load(&cache, &path, &registry).expect("a re-signed spill loads");
    std::fs::remove_file(&path).ok();
    run_batch_cached(&registry, corpus(0, 0, 7, 4), 1, Some(&cache)).reports
}

/// Asserts that each of `ids` was answered by exactly one isolated
/// `failed` report naming `why`, and every other request exactly as a
/// cold run answers it.
fn assert_refused(served: &[SolveReport], ids: &[&str], why: &str) {
    let cold = run_batch(&Registry::standard(), corpus(0, 0, 7, 4), 1).reports;
    for id in ids {
        let mine: Vec<&SolveReport> = served.iter().filter(|r| r.id == *id).collect();
        assert_eq!(
            mine.len(),
            1,
            "{id}: one report for the whole request: {mine:?}"
        );
        assert_eq!(mine[0].status, Status::Failed, "{id}: {mine:?}");
        assert!(
            mine[0].panicked && mine[0].detail.contains(why),
            "{id}: {mine:?}"
        );
    }
    let others = |rs: &[SolveReport]| -> Vec<WireFields> {
        rs.iter()
            .filter(|r| !ids.contains(&r.id.as_str()))
            .map(wire_fields)
            .collect()
    };
    assert_eq!(others(served), others(&cold));
}

// Field positions in a one-report entry line: key, report count, then
// solver, sweep_budget, makespan, budget_used, four floats, work, form.
const SOLVER: usize = 2;
const SWEEP_BUDGET: usize = 3;
const MAKESPAN: usize = 4;
const FORM: usize = 11;

#[test]
fn forged_report_makespan_is_refused() {
    let served = serve_forged("forge-ms", "|bicriteria|mm:", |f| {
        let makespan: u64 = f[MAKESPAN].parse().unwrap();
        f[MAKESPAN] = (makespan - 1).to_string();
    });
    assert_refused(&served, &["q1"], "disagrees with its solution");
}

#[test]
fn forged_report_solver_is_refused() {
    let served = serve_forged("forge-solver", "|bicriteria|mm:", |f| {
        assert_eq!(f[SOLVER], "bicriteria");
        f[SOLVER] = "exact".into();
    });
    assert_refused(&served, &["q1"], "names another solver");
}

#[test]
fn forged_sweep_budget_is_refused() {
    let served = serve_forged("forge-point", "|bicriteria|sw:", |f| {
        assert_eq!(f[SWEEP_BUDGET], "0");
        f[SWEEP_BUDGET] = "1000".into();
    });
    assert_refused(&served, &["s1", "s2"], "answers another point");
}

#[test]
fn sweep_entry_missing_a_point_is_refused() {
    let served = serve_forged("forge-count", "|bicriteria|sw:", |f| {
        assert_eq!(f[1], "5");
        f[1] = "4".into();
        f.truncate(f.len() - 10);
    });
    assert_refused(&served, &["s1", "s2"], "wrong report count");
}

/// Rewrites a one-report entry's solution form `tag:a;b;…` through
/// `edit` on its `;`-separated sections, each a `,`-joined vector.
fn edit_form(f: &mut [String], tag: &str, edit: impl FnOnce(&mut Vec<Vec<u64>>)) {
    let body = f[FORM]
        .strip_prefix(tag)
        .expect("the entry's form")
        .to_string();
    let mut sections: Vec<Vec<u64>> = body
        .split(';')
        .map(|s| {
            s.split(',')
                .filter(|x| !x.is_empty())
                .map(|x| x.parse().unwrap())
                .collect()
        })
        .collect();
    edit(&mut sections);
    let joined: Vec<String> = sections
        .iter()
        .map(|v| v.iter().map(u64::to_string).collect::<Vec<_>>().join(","))
        .collect();
    f[FORM] = format!("{tag}{}", joined.join(";"));
}

/// Lowers one arc's claimed time below what its level buys (`levels`
/// is section 0, times section 1), and keeps the solution's and the
/// report's makespan the longest path of the claimed times.
fn claim_an_unbought_time(f: &mut [String], tag: &str) {
    let arc = generate(0, 0, 7);
    let d = arc.dag();
    let mut makespan = 0;
    edit_form(f, tag, |s| {
        let e = d
            .edge_ids()
            .find(|&e| arc.arc_time(e, s[0][e.index()]) > 0)
            .expect("an arc with a positive duration");
        s[1][e.index()] = arc.arc_time(e, s[0][e.index()]) - 1;
        makespan = rtt_dag::longest_path_edges(d, |e| s[1][e.index()])
            .unwrap()
            .weight;
        s[2] = vec![makespan];
    });
    f[MAKESPAN] = makespan.to_string();
}

#[test]
fn loaded_solutions_invalid_for_their_form_are_refused() {
    let routed = serve_forged("forge-sol", "|bicriteria|mm:", |f| {
        claim_an_unbought_time(f, "sol:")
    });
    assert_refused(&routed, &["q1"], "< achievable");
    let noreuse = serve_forged("forge-nr", "|noreuse-exact|mm:", |f| {
        claim_an_unbought_time(f, "nr:")
    });
    assert_refused(&noreuse, &["q2"], "unachievable duration");
    let schedule = serve_forged("forge-sched", "|global-greedy|mm:", |f| {
        // start one arc a tick before a predecessor finishes
        let arc = generate(0, 0, 7);
        let d = arc.dag();
        edit_form(f, "sched:", |s| {
            let (e, finish) = d
                .edge_refs()
                .find_map(|e| {
                    let latest = d.in_edges(e.src).iter().map(|p| s[1][p.index()]).max()?;
                    (latest > 0).then_some((e.id, latest))
                })
                .expect("an arc after a timed predecessor");
            s[0][e.index()] = finish - 1;
        });
    });
    assert_refused(&schedule, &["q3"], "before its predecessors finished");
}
