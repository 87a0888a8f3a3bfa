//! End-to-end benchmark of the `rtt batch` solver service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fanout --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One command per workload (`fanout`, `sweep`, `redundant`). It
//! generates that workload's NDJSON corpus from `--seed`, then measures
//! for `--seconds`:
//!
//! * `--trace 0` — closed-loop rounds: each round builds a fresh
//!   registry, prep cache, reuse cache and request list (`setup_s`),
//!   then one client thread per core takes the next request, calls
//!   `rtt_engine::execute_one_cached_at`, renders the reports, and only
//!   then takes another. Prints the end-to-end metrics.
//! * `--trace 1` — alternates untraced single-client passes with traced
//!   passes that re-drive the same corpus layer by layer (see
//!   [`trace`]). Prints the per-layer metrics and writes the last
//!   pass's spans to `.bench_out/spans-<workload>-seed<n>.json`.
//!
//! Both modes discard one warm-up pass first, check every answer
//! against a serial cache-off reference run outside the timed region
//! ([`check`]), print one JSON result object as the last stdout line,
//! and exit 1 when any answer fails the check. The same object, with
//! the seed, core and client counts, build profile, round count and
//! tail percentile beside it, goes to stderr and to
//! `.bench_out/run-<workload>-seed<n>-trace<0|1>.json`.
//!
//! `--self-test` checks the benchmark itself at a tiny size;
//! `--describe` prints each workload's measured input properties at the
//! default and the held-out seed, and the per-layer metric map, as JSON
//! (committed as `perfbench/describe.json`); `--screen` prints the
//! table of stalling sweep draws the generators skip (committed as
//! `perfbench/stalls.txt`, see [`gen`]).

mod check;
mod gen;
mod metrics;
mod selftest;
mod serve;
mod trace;

use metrics::{median, percentile, Def};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Timed rounds every run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// The seed figures are quoted at, and the seed held out for confirming
/// claims made on it.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7_919;

/// Stalled sweep draws the traced run times on their own.
const STALL_PROBES: usize = 3;

/// Directory (relative to the working directory) for run records and
/// span dumps.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    SelfTest,
    Describe,
    Screen,
}

fn parse_args() -> Result<Mode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut describe = false;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("flag {flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--self-test" => return Ok(Mode::SelfTest),
            "--screen" => return Ok(Mode::Screen),
            "--describe" => describe = true,
            "--workload" => workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value(&mut i, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if describe {
        return Ok(Mode::Describe);
    }
    let workload = workload.ok_or("--workload is required")?;
    if !gen::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            gen::WORKLOADS
        ));
    }
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    // measure program defaults: no intra-solve threads, no fault solvers
    std::env::remove_var("RTT_SOLVE_THREADS");
    std::env::remove_var("RTT_FAULT_SOLVERS");
    let outcome = match parse_args() {
        Ok(Mode::Run(args)) => run(&args),
        Ok(Mode::SelfTest) => selftest::run(std::path::Path::new("BENCHMARK.json")).map(|()| {
            println!("self-test passed");
            true
        }),
        Ok(Mode::Describe) => describe().map(|json| {
            println!("{json}");
            true
        }),
        Ok(Mode::Screen) => gen::screen().map(|table| {
            print!("{table}");
            true
        }),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rtt-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Client threads of the closed loop: one per core.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// What a run measured.
pub struct Outcome {
    /// Requests attempted over all timed passes.
    pub attempted: u64,
    /// Requests that failed the output check.
    pub failed: u64,
    /// Metric values by name.
    pub values: Vec<(String, f64)>,
    /// Facts recorded beside the metrics (rounds, tail percentile, ...).
    pub notes: Vec<(String, String)>,
    /// The last traced pass's spans as JSON; empty for untraced runs.
    pub spans: String,
}

fn run(args: &Args) -> Result<bool, String> {
    // only the text is kept: what the generator knows about each line
    // is not the program's memory
    let corpus = gen::corpus(&args.workload, args.seed, gen::Size::Full)?.text;
    let reference = check::reference(&corpus)?;
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let (outcome, defs) = if args.trace {
        (
            run_traced(&corpus, &reference, budget, MIN_ROUNDS)?,
            metrics::per_layer(),
        )
    } else {
        (
            run_untraced(&corpus, &reference, budget, MIN_ROUNDS)?,
            metrics::end_to_end(),
        )
    };
    let correct = outcome.failed == 0;
    let mut notes = vec![
        ("workload".to_string(), format!("{:?}", args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("cores".into(), clients().to_string()),
        (
            "clients".into(),
            if args.trace { 1 } else { clients() }.to_string(),
        ),
        ("profile".into(), format!("{:?}", build_profile())),
    ];
    notes.extend(outcome.notes.iter().cloned());
    let line = metrics::result_line(
        correct,
        outcome.attempted,
        outcome.failed,
        &defs,
        &outcome.values,
    );
    let record = format!(
        "{{{},\"result\":{line}}}",
        notes
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    eprintln!("{record}");
    let name = format!("{}-seed{}", args.workload, args.seed);
    let mut files = vec![(
        format!("{OUT_DIR}/run-{name}-trace{}.json", u8::from(args.trace)),
        format!("{record}\n"),
    )];
    if !outcome.spans.is_empty() {
        files.push((format!("{OUT_DIR}/spans-{name}.json"), outcome.spans));
    }
    for (path, body) in files {
        if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, body))
        {
            eprintln!("rtt-perfbench: cannot write {path}: {e}");
        }
    }
    println!("{line}");
    Ok(correct)
}

fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The full output check of one pass (bytes, status and form); returns
/// the number of failed requests and prints the first few reasons.
fn judge_pass(s: &serve::Setup, served: &serve::Served, reference: &[Vec<String>]) -> u64 {
    let mut failed = 0;
    for ((req, a), expected) in s.requests.iter().zip(&served.answers).zip(reference) {
        if let Some(why) = check::judge(req, &a.reports, &a.lines, expected) {
            if failed < 5 {
                eprintln!("rtt-perfbench: output check failed: {why}");
            }
            failed += 1;
        }
    }
    failed
}

/// The byte check of a timed pass, whose reports were dropped once
/// rendered: a request fails when its lines differ from the reference.
/// The warm-up pass has already checked status and form of the
/// reference's answers.
fn judge_bytes(served: &serve::Served, reference: &[Vec<String>]) -> u64 {
    let mut failed = 0;
    for (i, (a, expected)) in served.answers.iter().zip(reference).enumerate() {
        if a.lines != *expected {
            if failed < 5 {
                eprintln!("rtt-perfbench: output check failed: request {i}: report bytes differ from the reference");
            }
            failed += 1;
        }
    }
    failed
}

/// The warm-up pass: served on `clients`, discarded from timing, and
/// given the full output check. Returns the request count, the lint
/// diagnostics, the failed count and `makespan_over_lp` over its
/// reports.
fn warm_up(
    corpus: &str,
    reference: &[Vec<String>],
    clients: usize,
) -> Result<(usize, usize, u64, (f64, usize)), String> {
    let (s, _) = serve::setup(corpus)?;
    let served = serve::serve(&s, clients, true);
    let failed = judge_pass(&s, &served, reference);
    let quality = check::makespan_over_lp(served.answers.iter().flat_map(|a| a.reports.iter()));
    Ok((s.requests.len(), s.diagnostics, failed, quality))
}

/// Closed-loop rounds until `budget` of set-up plus serve time has
/// been measured (at least `min_rounds`). End-to-end metrics.
pub fn run_untraced(
    corpus: &str,
    reference: &[Vec<String>],
    budget: Duration,
    min_rounds: usize,
) -> Result<Outcome, String> {
    let clients = clients();
    let (n, diagnostics, mut failed, quality) = warm_up(corpus, reference, clients)?;
    let mut attempted = n as u64;
    // the peak from here on is the timed rounds' own, not that of the
    // reference run or the warm-up's kept reports
    metrics::reset_peak_rss();

    let n_requests = reference.len();
    let tail_p = metrics::tail_percentile(n_requests);
    // latency percentiles are taken per round and their median reported,
    // like throughput: a round slowed by the host moves one sample, not
    // the pooled distribution's tail
    let (mut setups, mut throughputs) = (Vec::new(), Vec::new());
    let (mut p50s, mut tails, mut samples) = (Vec::new(), Vec::new(), 0);
    let mut measured = Duration::ZERO;
    let mut rounds = 0;
    while rounds < min_rounds || measured < budget {
        let (s, setup_time) = serve::setup(corpus)?;
        let served = serve::serve(&s, clients, false);
        measured += setup_time + served.wall;
        setups.push(setup_time.as_secs_f64());
        throughputs.push(s.requests.len() as f64 / served.wall.as_secs_f64().max(1e-9));
        let latencies: Vec<f64> = served
            .answers
            .iter()
            .map(|a| a.latency.as_secs_f64() * 1e3)
            .collect();
        p50s.push(median(&latencies));
        tails.push(percentile(&latencies, tail_p));
        samples += latencies.len();
        attempted += s.requests.len() as u64;
        drop(s);
        failed += judge_bytes(&served, reference);
        rounds += 1;
    }
    let values = vec![
        ("throughput_rps".to_string(), median(&throughputs)),
        ("latency_p50_ms".into(), median(&p50s)),
        ("latency_tail_ms".into(), median(&tails)),
        (
            "success_rate".into(),
            1.0 - failed as f64 / attempted.max(1) as f64,
        ),
        ("makespan_over_lp".into(), quality.0),
        ("peak_rss_mb".into(), metrics::peak_rss_mb()),
        ("setup_s".into(), median(&setups)),
    ];
    Ok(Outcome {
        attempted,
        failed,
        values,
        notes: vec![
            ("rounds".into(), rounds.to_string()),
            ("requests_per_round".into(), n_requests.to_string()),
            ("latency_samples".into(), samples.to_string()),
            ("tail_percentile".into(), tail_p.to_string()),
            ("makespan_over_lp_reports".into(), quality.1.to_string()),
            ("lint_diagnostics".into(), diagnostics.to_string()),
        ],
        spans: String::new(),
    })
}

/// Alternating untraced single-client passes and traced passes until
/// `budget` has been measured (at least `min_rounds` of each), then
/// the stalled-chain probe. Per-layer metrics.
pub fn run_traced(
    corpus: &str,
    reference: &[Vec<String>],
    budget: Duration,
    min_rounds: usize,
) -> Result<Outcome, String> {
    let (n, _, mut failed, _) = warm_up(corpus, reference, 1)?;
    let mut attempted = n as u64;

    let mut untraced_walls = Vec::new();
    let mut traced = Vec::new();
    let mut last_spans = String::new();
    let mut measured = Duration::ZERO;
    while traced.len() < min_rounds || measured < budget {
        let started = Instant::now();
        let (s, _) = serve::setup(corpus)?;
        let served = serve::serve(&s, 1, false);
        let wall = started.elapsed();
        untraced_walls.push(wall.as_secs_f64());
        attempted += s.requests.len() as u64;
        drop(s);
        failed += judge_bytes(&served, reference);
        drop(served);

        let pass = trace::traced_pass(corpus)?;
        measured += wall + pass.wall;
        attempted += pass.lines.len() as u64;
        for (i, (got, want)) in pass.lines.iter().zip(reference).enumerate() {
            if got != want {
                if failed < 5 {
                    eprintln!("rtt-perfbench: traced request {i} differs from the reference");
                }
                failed += 1;
            }
        }
        last_spans = pass.tracer.spans_json();
        traced.push(metrics::TracedRound {
            self_ns: pass.tracer.self_times(),
            counts: pass.tracer.counts,
            wall: pass.wall,
        });
    }
    let cases = gen::stalled_cases(STALL_PROBES)?;
    let stalled: Vec<(Duration, u64)> = (0..min_rounds)
        .map(|_| trace::stalled_chains(&cases))
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        values: metrics::per_layer_values(&traced, &untraced_walls, &stalled),
        notes: vec![
            ("rounds".to_string(), traced.len().to_string()),
            ("stalled_cases".into(), cases.len().to_string()),
        ],
        spans: last_spans,
    })
}

/// Measured input properties of every workload at the default and the
/// held-out seed, plus the per-layer metric map, as one JSON document.
fn describe() -> Result<String, String> {
    use rtt_cli::json::Json;
    let share = |x: f64| Json::Float((x * 1000.0).round() / 1000.0);
    let mut workloads = Vec::new();
    for w in gen::WORKLOADS {
        let mut per_seed = Vec::new();
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let corpus = gen::corpus(w, seed, gen::Size::Full)?;
            let reference = check::reference(&corpus.text)?;
            let prep = rtt_engine::PrepCache::new();
            let registry = rtt_engine::Registry::standard();
            rtt_cli::build_requests(&corpus.text, &prep, None, &registry)?;
            let lines = &corpus.lines;
            let frac = |f: &dyn Fn(&gen::LineInfo) -> bool| {
                share(lines.iter().filter(|l| f(l)).count() as f64 / lines.len() as f64)
            };
            let grids: Vec<u64> = lines
                .iter()
                .filter(|l| l.grid_len > 0)
                .map(|l| l.grid_len as u64)
                .collect();
            let grid_mean = grids.iter().sum::<u64>() as f64 / grids.len().max(1) as f64;
            let count = |n: usize| Json::UInt(n as u64);
            per_seed.push((
                seed.to_string(),
                Json::Obj(vec![
                    ("requests".into(), count(lines.len())),
                    (
                        "reports".into(),
                        count(reference.iter().map(Vec::len).sum()),
                    ),
                    ("corpus_bytes".into(), count(corpus.text.len())),
                    ("unique_canonical_instances".into(), count(prep.len())),
                    (
                        "duplicate_or_relabel_share".into(),
                        frac(&|l| {
                            matches!(
                                l.variant,
                                gen::Variant::Duplicate
                                    | gen::Variant::Relabel
                                    | gen::Variant::BudgetRelabel
                            )
                        }),
                    ),
                    (
                        "sibling_share".into(),
                        frac(&|l| l.variant == gen::Variant::Sibling),
                    ),
                    ("metered_share".into(), frac(&|l| l.metered)),
                    ("sp_share".into(), frac(&|l| l.family == gen::Family::Sp)),
                    ("under_exact_cap_share".into(), frac(&|l| l.under_exact_cap)),
                    ("sweep_share".into(), frac(&|l| l.grid_len > 0)),
                    (
                        "grid_len_min".into(),
                        Json::UInt(grids.iter().copied().min().unwrap_or(0)),
                    ),
                    ("grid_len_mean".into(), share(grid_mean)),
                    (
                        "grid_len_max".into(),
                        Json::UInt(grids.iter().copied().max().unwrap_or(0)),
                    ),
                    (
                        "stalled_draws_skipped".into(),
                        count(corpus.stalled_skipped),
                    ),
                ]),
            ));
        }
        workloads.push((w.to_string(), Json::Obj(per_seed)));
    }
    let layers = metrics::per_layer()
        .into_iter()
        .map(|d: Def| {
            Json::Obj(vec![
                ("name".into(), Json::Str(d.name)),
                ("unit".into(), Json::Str(d.unit.into())),
                ("better".into(), Json::Str(d.better.into())),
                ("moves".into(), Json::Str(d.moves.into())),
                ("heavy_in".into(), Json::Str(d.heavy_in.into())),
                ("light_in".into(), Json::Str(d.light_in.into())),
            ])
        })
        .collect();
    Ok(Json::Obj(vec![
        ("default_seed".into(), Json::UInt(DEFAULT_SEED)),
        ("held_out_seed".into(), Json::UInt(HELD_OUT_SEED)),
        ("workloads".into(), Json::Obj(workloads)),
        ("per_layer".into(), Json::Arr(layers)),
    ])
    .pretty())
}
