//! The untraced request path: set-up, then a closed loop of client
//! threads driving `execute_one_cached_at` — exactly what `rtt batch
//! --reuse-cache` does per line, minus the process and the pipe.

use rtt_engine::{
    execute_one_cached_at, lint_requests, PrepCache, Registry, ReuseCache, SolveReport,
    SolveRequest,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Capacity of the shared reuse cache: `rtt batch`'s
/// `--cache-capacity` default, far above any corpus here, so nothing
/// is evicted.
pub const REUSE_CAPACITY: usize = 1024;

/// Everything built before the first solve. Each timed round builds a
/// fresh one: `rtt batch` users pay these fills on every run.
pub struct Setup {
    /// The standard solver registry.
    pub registry: Registry,
    /// The preprocessing cache the corpus was loaded through, kept for
    /// the round the way `rtt batch` keeps it for the run.
    _prep: PrepCache,
    /// The cross-request solution cache.
    pub reuse: ReuseCache,
    /// The built requests, in corpus order.
    pub requests: Vec<SolveRequest>,
    /// Admission-lint findings over the built requests.
    pub diagnostics: usize,
}

/// Builds registry, caches and requests from `corpus`, returning the
/// set-up and how long it took.
pub fn setup(corpus: &str) -> Result<(Setup, Duration), String> {
    let started = Instant::now();
    let registry = Registry::standard();
    let prep = PrepCache::new();
    let reuse = ReuseCache::new(REUSE_CAPACITY);
    let requests = rtt_cli::build_requests(corpus, &prep, None, &registry)?;
    let diagnostics = lint_requests(&registry, &requests).len();
    let elapsed = started.elapsed();
    Ok((
        Setup {
            registry,
            _prep: prep,
            reuse,
            requests,
            diagnostics,
        },
        elapsed,
    ))
}

/// One request's answer as the closed loop saw it.
pub struct Answer {
    /// Service time of the `execute_one_cached_at` call.
    pub latency: Duration,
    /// The reports, in registry order; empty when the pass dropped
    /// them once rendered.
    pub reports: Vec<SolveReport>,
    /// The rendered NDJSON report lines.
    pub lines: Vec<String>,
}

/// One serve pass over every request of a set-up.
pub struct Served {
    /// Per-request answers, in request order.
    pub answers: Vec<Answer>,
    /// Wall time from the first dispatch to the last answer.
    pub wall: Duration,
}

/// Serves every request of `s` through `clients` closed-loop client
/// threads: each client takes the next request, waits for its answer,
/// renders it, and only then takes another. Reports are kept only when
/// `keep_reports` is set; otherwise each is dropped once rendered, as
/// `rtt batch` drops what it has written.
pub fn serve(s: &Setup, clients: usize, keep_reports: bool) -> Served {
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Answer)>> = Mutex::new(Vec::with_capacity(s.requests.len()));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = s.requests.get(i) else { break };
                    let t = Instant::now();
                    let mut reports = execute_one_cached_at(&s.registry, req, t, i, Some(&s.reuse));
                    let latency = t.elapsed();
                    let lines = reports.iter().map(rtt_cli::report_line).collect();
                    if !keep_reports {
                        reports = Vec::new();
                    }
                    mine.push((
                        i,
                        Answer {
                            latency,
                            reports,
                            lines,
                        },
                    ));
                }
                done.lock()
                    .expect("no client panics while holding the lock")
                    .extend(mine);
            });
        }
    });
    let wall = started.elapsed();
    let mut answers = done.into_inner().expect("clients joined");
    answers.sort_by_key(|(i, _)| *i);
    Served {
        answers: answers.into_iter().map(|(_, a)| a).collect(),
        wall,
    }
}
