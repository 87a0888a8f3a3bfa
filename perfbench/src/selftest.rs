//! `--self-test`: the benchmark checks itself at a tiny corpus size.
//!
//! * the metric names, units and directions it prints match
//!   `BENCHMARK.json`, and so do the workload names;
//! * every workload's answers pass the output check, untraced and
//!   traced;
//! * one seed reproduces identical corpus bytes and identical
//!   deterministic counters (`lp.simplex.pivots`,
//!   `core.sp_dp.merge_steps`, `sim.replay.events`,
//!   `engine.solver.exact.work`);
//! * every workload's full corpus at the default and the held-out seed
//!   hashes to the committed value, so a change that alters what a
//!   seed generates — in the generators, the stall table, or the
//!   repository code they build instances with — cannot pass unseen.

use crate::metrics::Def;
use crate::{check, gen, metrics, trace};
use rtt_cli::json::Json;
use std::path::Path;
use std::time::Duration;

const SEED: u64 = 3;

/// FNV-1a 64 of each workload's full corpus at the default and the
/// held-out seed.
const CORPUS_FNV1A: [(&str, u64, u64); 6] = [
    ("fanout", crate::DEFAULT_SEED, 0xdb4f_4ca0_2234_52d4),
    ("fanout", crate::HELD_OUT_SEED, 0xd9d3_2f6f_65f0_1e89),
    ("sweep", crate::DEFAULT_SEED, 0xef6d_1157_ba89_4539),
    ("sweep", crate::HELD_OUT_SEED, 0x574c_b2aa_3c21_8d63),
    ("redundant", crate::DEFAULT_SEED, 0x5a31_12a4_73fa_b97c),
    ("redundant", crate::HELD_OUT_SEED, 0x1074_2348_8dd8_940b),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compares every full corpus the hash table names with its hash.
fn check_corpus_hashes() -> Result<(), String> {
    let mut now = Vec::new();
    let mut differ = false;
    for (w, seed, want) in CORPUS_FNV1A {
        let got = fnv1a(gen::corpus(w, seed, gen::Size::Full)?.text.as_bytes());
        differ |= got != want;
        now.push(format!("({w:?}, {seed}, {got:#018x})"));
    }
    if differ {
        return Err(format!(
            "full corpora differ from the committed hashes; they now hash to [{}]",
            now.join(", ")
        ));
    }
    Ok(())
}

/// Runs every check; `Err` names the first that failed.
pub fn run(benchmark_json: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("cannot read {}: {e}", benchmark_json.display()))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let names = |key: &str| -> Result<Vec<String>, String> {
        doc.require(key)
            .and_then(Json::as_arr)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|w| {
                w.require("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .map_err(|e| e.to_string())
            })
            .collect()
    };
    if names("workloads")? != gen::WORKLOADS {
        return Err("workload names differ from BENCHMARK.json".into());
    }
    let declared = |key: &str| -> Result<Vec<(String, String, String)>, String> {
        let field = |m: &Json, f: &str| -> Result<String, String> {
            Ok(m.require(f)
                .and_then(Json::as_str)
                .map_err(|e| e.to_string())?
                .to_string())
        };
        doc.require(key)
            .and_then(Json::as_arr)
            .map_err(|e| e.to_string())?
            .iter()
            .map(|m| Ok((field(m, "name")?, field(m, "unit")?, field(m, "better")?)))
            .collect()
    };
    let ours = |defs: Vec<Def>| -> Vec<(String, String, String)> {
        defs.into_iter()
            .map(|d| (d.name, d.unit.to_string(), d.better.to_string()))
            .collect()
    };
    if declared("end_to_end")? != ours(metrics::end_to_end()) {
        return Err("end_to_end metrics differ from BENCHMARK.json".into());
    }
    if declared("per_layer")? != ours(metrics::per_layer()) {
        return Err("per_layer metrics differ from BENCHMARK.json".into());
    }

    check_corpus_hashes()?;

    for w in gen::WORKLOADS {
        let corpus = gen::corpus(w, SEED, gen::Size::Tiny)?;
        if corpus.text != gen::corpus(w, SEED, gen::Size::Tiny)?.text {
            return Err(format!("{w}: one seed produced two different corpora"));
        }
        let reference = check::reference(&corpus.text)?;
        let untraced = crate::run_untraced(&corpus.text, &reference, Duration::ZERO, 1)?;
        let traced = crate::run_traced(&corpus.text, &reference, Duration::ZERO, 1)?;
        for (mode, outcome, defs) in [
            ("untraced", &untraced, metrics::end_to_end()),
            ("traced", &traced, metrics::per_layer()),
        ] {
            if outcome.failed != 0 {
                return Err(format!(
                    "{w}: {} {mode} requests failed the output check",
                    outcome.failed
                ));
            }
            let printed: Vec<&str> = outcome.values.iter().map(|(n, _)| n.as_str()).collect();
            let wanted: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
            if printed != wanted {
                return Err(format!(
                    "{w}: {mode} run prints {printed:?}, BENCHMARK.json lists {wanted:?}"
                ));
            }
        }
        let counters = |p: &trace::TracedPass| {
            let c = &p.tracer.counts;
            (
                c.pivots,
                c.sp_merge_steps,
                c.sim_events,
                c.solver_work.get("engine.solver.exact").copied(),
            )
        };
        let (a, b) = (
            trace::traced_pass(&corpus.text)?,
            trace::traced_pass(&corpus.text)?,
        );
        if counters(&a) != counters(&b) {
            return Err(format!(
                "{w}: deterministic counters differ between passes: {:?} vs {:?}",
                counters(&a),
                counters(&b)
            ));
        }
        eprintln!(
            "self-test {w}: {} lines, counters {:?}",
            reference.len(),
            counters(&a)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        super::run(&path).expect("self-test");
    }
}
