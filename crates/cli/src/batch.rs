//! The NDJSON batch wire format: `rtt batch` streams *request* lines in
//! and *report* lines out, one JSON document per line.
//!
//! # Request lines
//!
//! ```json
//! {"id":"q1","instance":{...},"budget":8}
//! {"id":"q2","instance":{...},"target":10,"solver":"exact","alpha":0.5}
//! ```
//!
//! | field | required | meaning |
//! |---|---|---|
//! | `instance` | yes | an instance document (same schema as `rtt solve` files, see [`crate::spec::InstanceSpec`]) |
//! | `budget` | one of budget/target/budgets | min-makespan objective with this resource budget |
//! | `target` | one of budget/target/budgets | min-resource objective with this makespan target |
//! | `budgets` | one of budget/target/budgets | a **tradeoff-curve sweep**: min-makespan at every budget of the grid, given as a JSON array (`[0,2,4]`) or a grid string (`"0:16:2"` inclusive, or `"1,8,2"`); answered by one report line per budget, in grid order (see "Sweep response lines") |
//! | `objective` | no | `"min-makespan"` / `"min-resource"`; inferred from `budget`/`target` when omitted; not accepted on `budgets` lines |
//! | `id` | no | echoed in reports; defaults to `line-<n>` (1-based) |
//! | `solver` | no | registry name or alias; omitted = every supporting solver. On `budgets` lines the only accepted value is `bicriteria` (sweeps are a bicriteria-pipeline service), and the batch `--solver` default does not apply |
//! | `alpha` | no | bi-criteria rounding parameter in (0, 1); default 0.5 |
//! | `deadline_ms` | no | per-request deadline from enqueue, in milliseconds — **excluded from the byte-stability guarantee** (expiry depends on wall-clock and thread count) |
//! | `seed` | no | part of the solution-cache key; no report field carries it (solvers are deterministic) |
//! | `max_pivots` | no | resource-budget limit on simplex pivots across every LP the request solves |
//! | `max_merge_steps` | no | limit on combinatorial solver work (SP-DP merge steps and exact-search nodes) |
//! | `max_sim_events` | no | limit on Observation 1.1 certification simulation events |
//! | `max_queue_depth` | no | admission bound: reject if this many requests were enqueued ahead |
//! | `on_exhaustion` | no | `"hard-reject"` (default) / `"degrade"` / `"soft-warn"`, applied to every declared limit; requires at least one `max_*` field |
//!
//! The `max_*` fields opt a request into **budget enforcement**
//! ([`rtt_engine::BudgetSpec`]): counter limits are metered
//! cooperatively *mid-solve* and, unlike `deadline_ms`, charge at
//! deterministic points — a budgeted request's reports (including
//! rejection, degradation, and warnings) are part of the byte-stability
//! guarantee. `on_exhaustion` picks what tripping a limit does:
//! `hard-reject` fails the report as `budget-exhausted`; `degrade`
//! falls back along the declared chain (`exact` → `bicriteria`,
//! `sp-dp` → `bicriteria`, `noreuse-exact` → `noreuse-bicriteria`; a
//! metered-out certification replay degrades the report to
//! analytic-only certificates instead) and marks the report
//! `degraded_from`; `soft-warn` completes at full fidelity and flags
//! the overage. A budget is per line: `rtt batch` has no batch-wide
//! limits, so `rtt lint` sees every budget a run enforces.
//!
//! Blank lines are skipped. Structurally identical `instance`
//! documents — including node/arc *relabelings* of one another — are
//! deduplicated through the engine's preprocessing cache, keyed by the
//! relabel-invariant canonical form ([`rtt_core::canonical_form`]):
//! the two-tuple expansion, SP decomposition, and topological order
//! are computed once per equivalence class, however many requests and
//! solvers touch it.
//!
//! # The cache contract: cost, never bytes
//!
//! Every cache in the batch path — the preprocessing cache above and
//! the opt-in `--reuse-cache` solution cache
//! ([`rtt_engine::ReuseCache`]) — obeys one invariant: **a cache may
//! change what a run costs, never what it emits.** The NDJSON stream
//! is byte-identical with caching on, off, or at any `--threads`
//! value and any `--cache-capacity`, because the batch path reuses
//! only *whole deterministic report vectors*: a cached report is a
//! pure function of (canonical instance, objective,
//! budget/target/budgets grid, alpha, seed, solver), every field on
//! the wire included — `work` and the `budget` block replay exactly
//! because nothing about a hit re-runs the solver. Before a cached
//! report is emitted its solution is re-verified from scratch
//! (analytic validation of the solution form, then the Observation 1.1
//! simulation replay), so a reused answer passes the same gauntlet a
//! fresh one does. Requests that declare `max_*` budgets or
//! `deadline_ms` bypass the solution cache entirely. Cache statistics
//! (instance hits, solution hits, pivots saved, evictions) go to
//! **stderr only**, never into the NDJSON stream.
//!
//! The worker count obeys the same invariant. `--threads` sets how many
//! requests run at once (each solve itself runs serially), and it may
//! change what a batch *costs*, never what it *emits*: stdout is
//! byte-identical at every count. It is not a request-line field and
//! appears nowhere in a report line — worker telemetry prints to
//! stderr only.
//!
//! ## Persistence: `--cache-save` / `--cache-load`
//!
//! `rtt batch --cache-save PATH` spills the solution tier after the
//! batch; `--cache-load PATH` preloads it before (both imply
//! `--reuse-cache`). The file is the versioned `rtt-cache-v1` format
//! ([`rtt_engine::persist`]); a corrupt, truncated, or
//! version-mismatched file fails the command loudly with zero entries
//! loaded — never a half-populated cache. The trust rule extends the
//! invariant above across restarts: a **loaded entry is untrusted**
//! until a request's full key string matches it *and* it passes the
//! serve-time replay checks — one report per grid point under the
//! probed solver, each solution valid for its form with the report's
//! `makespan` and `budget_used` its own, and a fresh Observation 1.1
//! replay; an entry that fails them is answered by one `failed` report.
//! The per-line checksum is unkeyed, so a hand-edited spill can still
//! change what replay serves as stored — the LP bounds, the factors,
//! `work`, or which valid solution is served — but never serve an
//! invalid or uncertified one (see [`rtt_engine::persist`]). A spill
//! this binary wrote changes only what a run costs: a warm restart's
//! stdout is byte-identical to a cold run's.
//!
//! A `budget` of **0** is valid and well-defined: it is the
//! zero-resource point of the tradeoff — LP 6–10 routes no flow, every
//! job runs at `t_v(0)`, and the report's `makespan` equals the
//! instance's base makespan with `budget_used` 0 (the committed curve
//! golden pins this point at the head of its `0:15:1` grid).
//!
//! # Race-derived instances
//!
//! Race workloads need no request fields of their own: `rtt gen --kind
//! race-mm` / `race-forkjoin` extract the race DAG `D(P)` from an
//! actual racy program (§1) and serialize it through the same
//! [`crate::spec::InstanceSpec`] arc-form schema — node works become
//! `kway`/`recbinary` duration documents, normalization terminals
//! become `zero` dummies. Anything this module says about instances
//! applies to them verbatim; that is the point of the conversion layer
//! (`rtt_core::from_race`).
//!
//! # Report lines
//!
//! One report per (request, selected solver), in request order then
//! registry order — **deterministic and byte-stable** for a fixed
//! corpus *without `deadline_ms` fields* regardless of `--threads`,
//! which is why wall-clock fields are *not* part of the wire format
//! (timing goes to stderr). Deadlines necessarily reintroduce
//! wall-clock dependence: a `deadline-expired` status can flip to
//! `solved` on a faster run, so keep deadlines out of golden corpora.
//!
//! ```json
//! {"id":"q1","solver":"bicriteria","status":"solved","makespan":4,"budget_used":8,"lp_makespan":3.5,"lp_budget":8.0,"makespan_factor":2.0,"resource_factor":2.0,"work":17,"sim_makespan":4}
//! {"id":"q2","solver":"exact","status":"infeasible","detail":"makespan target below the ideal makespan"}
//! ```
//!
//! `status` is one of `solved`, `unsupported`, `infeasible`,
//! `deadline-expired`, `budget-exhausted`, `failed`; non-`solved`
//! reports carry `detail` instead of the solution fields.
//! `makespan_factor`/`resource_factor` are the solver's certified
//! guarantees (absent for heuristics), and `work` is the solver's own
//! work counter (LP pivots, search nodes, DP cells).
//!
//! `budget-exhausted` means a declared resource budget ran out
//! mid-solve under `hard-reject` (or `degrade` with no fallback);
//! `detail` carries the structured reason (`budget exhausted:
//! <dimension> <consumed> > limit <limit>`). `failed` means the solver
//! panicked: the executor isolates the panic per (request, solver), so
//! the rest of the batch completes, and `detail` carries the payload.
//!
//! Reports of budgeted requests additionally carry:
//!
//! * `degraded_from` — when the `degrade` policy fell back, the solver
//!   that originally exhausted (`solver` is the fallback that actually
//!   answered, and its solution fields and certificates are the
//!   fallback's own);
//! * `budget` — `{"consumed":{"lp_pivots":…,"merge_steps":…,
//!   "sim_events":…},"limits":{…declared limits only…},
//!   "warnings":[…],"degraded":[…]}`: cumulative consumption
//!   (fallback included), the declared limits, soft-warn overage
//!   flags, and degradation notes. Counter dimensions charge
//!   deterministically, so the whole block is byte-stable; requests
//!   without `max_*` fields never carry it, which keeps pre-budget
//!   corpora byte-identical.
//!
//! # Sweep response lines
//!
//! A `budgets` request expands to **one report line per grid budget**,
//! in grid order, each the curve-point form prefixed with the request
//! identity:
//!
//! ```json
//! {"id":"s1","solver":"bicriteria","budget":4,"status":"solved","lp_makespan":2.5,"makespan":5,"budget_used":6,"makespan_factor":2.0,"resource_factor":2.0,"work":17,"sim_makespan":5}
//! ```
//!
//! The body fields are byte-for-byte the `rtt curve` wire form
//! ([`curve_line`]) — one renderer serves both, so the forms cannot
//! drift — including full per-point certification: `sim_makespan` on
//! every point. A whole-sweep failure (infeasible LP, exhausted
//! budget) yields a single non-`solved` line for the request, except a
//! certification replay that runs out under `degrade`: that point stays
//! `solved` without `sim_makespan`, and its `resource_budget` block's
//! `degraded` list names the exhaustion, as a single solve's `budget`
//! block does.
//!
//! Determinism rule: a sweep is answered by one **self-contained**
//! chained delta session — crash start, then per-point dual
//! reoptimization ([`rtt_engine::execute_sweep_wire`]) — whether or not
//! the line declares `max_*` budgets or `deadline_ms`. No basis crosses
//! requests, so the per-point `work` counters are a pure function of
//! the request line: byte-identical across `--threads`, cache modes,
//! spills, budgets and restarts, while still paying a small fraction
//! of N independent cold solves. A budgeted sweep's chain runs on the
//! request's own meter, so its `consumed` pivots are the sum of its
//! points' `work`. Cross-request reuse of *identical* sweeps rides the
//! solution cache as a whole per-point vector; budgeted and deadlined
//! lines never touch it, like every budgeted or deadlined request. On
//! budgeted lines the consumption block rides under `resource_budget`
//! (the grid point already owns the `budget` key).
//!
//! # Diagnostics
//!
//! `rtt lint <corpus.ndjson>` statically checks corpora against this
//! wire format and emits compiler-style diagnostics with stable
//! `RTT0xx` codes. The linter and this module's [`build_requests`] both run
//! every line through one per-line checker, `check_line`, so the
//! severity contract holds by construction: **error** means the line
//! is one `build_requests` rejects — a lint-clean corpus cannot fail
//! admission — while **warning** means the line is admitted but
//! declares something vacuous or degraded. The code table (source of
//! truth: [`rtt_analyze::lint::CODES`]):
//!
//! | code | severity | meaning |
//! |---|---|---|
//! | `RTT001` | error | malformed JSON or wrong field shape (unparseable line, missing `instance`, mistyped field) |
//! | `RTT002` | error | dangling edge endpoint, or an arc-form edge with no duration |
//! | `RTT003` | error | the instance graph contains a cycle |
//! | `RTT004` | error | instance rejected by construction (empty, or not two-terminal) |
//! | `RTT005` | error | invalid duration table (empty, first resource not 0, non-increasing resources, or non-monotone times) |
//! | `RTT006` | error | objective conflict (`budgets` vs `budget`/`target`/`objective`, ambiguous or missing objective fields, unknown objective) |
//! | `RTT007` | error | bad sweep grid (empty, malformed grid string, a range of more than 65536 points, or a sweep line naming a non-bicriteria solver) |
//! | `RTT008` | error | unknown solver name |
//! | `RTT009` | error | bad budget spec (`on_exhaustion` without a `max_*` limit, or an unknown exhaustion policy) |
//! | `RTT010` | error | alpha outside the open interval (0, 1) |
//! | `RTT011` | warning | zero deadline: the request always expires at dequeue without touching a solver |
//! | `RTT012` | warning | queue-depth limit at least the batch size: the bound can never trip |
//! | `RTT013` | warning | family-tag mismatch: the named solver does not support this instance |
//!
//! RTT001–RTT009 judge the line's text, and the checker records every
//! one a line earns. The rest — RTT010, an empty grid's RTT007, and the
//! RTT011–RTT013 warnings — judge the request the line spells, and
//! belong to the engine's admission lint ([`rtt_engine::lint_request`];
//! [`rtt_engine::lint_requests`] runs the same checks over built
//! requests for an embedding that skips the NDJSON front end). A line
//! with a wire-format error spells no request, so it carries none of
//! them.
//!
//! Diagnostics are reported in deterministic `(line, code, message)`
//! order, every diagnosable line in one pass (the linter does not stop
//! at the first error the way the loader does). The human rendering is
//! `path:line: severity[code]: message`; `--format ndjson` emits one
//! JSON document per diagnostic:
//!
//! ```json
//! {"line":3,"code":"RTT008","severity":"error","message":"unknown solver \"exat\"; available: ..."}
//! ```
//!
//! `sim_makespan` is the **simulation certificate** (Observation 1.1):
//! the engine physically expanded the solution into its update-granular
//! reducer DAG — routed flows for the reuse-over-paths solvers,
//! dedicated levels for the no-reuse (Q1.1) baselines, the held levels
//! of the schedule for global-greedy (Q1.2) — executed it with
//! `rtt_sim`'s event-heap engine, and this is the simulated finish:
//! always `≤ makespan` (the engine panics otherwise), strictly below it
//! when staggered updates pipeline. It is deterministic, hence on the
//! wire, and since PR 5 it is present on **every** solved report of
//! every registry pipeline; it is absent only for skipped simulations
//! (infinite durations, or expansions past the engine's event-count
//! guard `rtt_engine::SIM_EVENT_GUARD`).

use crate::args::parse_budgets;
use crate::json::{Json, JsonError};
use crate::lint::spec_error_code;
use crate::spec::InstanceSpec;
use rtt_analyze::lint::{Diagnostic, Severity};
use rtt_engine::{
    BudgetLimits, BudgetPolicies, BudgetSpec, ExhaustionPolicy, Objective, PrepCache, Registry,
    SolveReport, SolveRequest, SolverSelection, Status,
};
use std::time::Duration as StdDuration;

/// Parses a whole NDJSON corpus into engine requests, deduplicating
/// instances through `cache`. `default_solver` applies to lines without
/// a `solver` field (`None` = all supporting solvers); per-line solver
/// names are validated against `registry` up front, so a typo fails the
/// load with its line number instead of surfacing as a per-report
/// `unsupported` downstream. Each line goes through the same per-line
/// checker `rtt lint` runs (see "Diagnostics" in the module docs), and
/// the first line it rejects fails the load as `line N: <message>`,
/// with the first error recorded on that line.
pub fn build_requests(
    corpus: &str,
    cache: &PrepCache,
    default_solver: Option<&str>,
    registry: &Registry,
) -> Result<Vec<SolveRequest>, String> {
    let batch_size = request_lines(corpus).count();
    let mut out = Vec::with_capacity(batch_size);
    for (lineno, line) in request_lines(corpus) {
        let mut diags = Vec::new();
        match check_line(
            line,
            lineno,
            batch_size,
            cache,
            default_solver,
            registry,
            &mut diags,
        ) {
            Some(req) => out.push(req),
            None => {
                let first = diags
                    .iter()
                    .find(|d| d.severity == Severity::Error)
                    .expect("a rejected line carries an error");
                return Err(format!("line {lineno}: {}", first.message));
            }
        }
    }
    Ok(out)
}

/// The request lines of a corpus with their 1-based line numbers:
/// blank lines are skipped but still counted.
pub(crate) fn request_lines(corpus: &str) -> impl Iterator<Item = (usize, &str)> {
    corpus
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(idx, line)| (idx + 1, line))
}

/// Checks one request line — line `lineno` of a corpus with
/// `batch_size` request lines — and pushes every diagnostic it earns
/// onto `diags`. The wire-format checks (RTT001–RTT009) keep going past
/// an error, so one line can carry several. A line with none spells a
/// request, which then goes through the engine's request-level lint
/// ([`rtt_engine::lint_request`]). Returns the request only when no
/// error fired.
///
/// [`build_requests`] and [`crate::lint::lint_corpus`] are this
/// function's two callers, which is why a lint error and an admission
/// reject are the same event (see "Diagnostics" in the module docs).
pub(crate) fn check_line(
    line: &str,
    lineno: usize,
    batch_size: usize,
    cache: &PrepCache,
    default_solver: Option<&str>,
    registry: &Registry,
    diags: &mut Vec<Diagnostic>,
) -> Option<SolveRequest> {
    let doc = match Json::parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            diags.push(Diagnostic::error("RTT001", lineno, e.to_string()));
            return None;
        }
    };
    let mut f = LineCheck {
        doc: &doc,
        lineno,
        errors: Vec::new(),
    };
    let id = f.field("id", Json::as_str);
    // the instance document: structural errors split across RTT001-005
    let arc = match doc.get("instance") {
        None => {
            f.error("RTT001", "missing field `instance`");
            None
        }
        Some(instance) => match InstanceSpec::from_json(instance).and_then(|s| s.build()) {
            Ok(arc) => Some(arc),
            Err(e) => {
                f.error(spec_error_code(&e), e.to_string());
                None
            }
        },
    };
    let budget = f.field("budget", Json::as_u64);
    let target = f.field("target", Json::as_u64);
    let solver_name = f.field("solver", Json::as_str);
    let solver = solver_name.map(|name| (name, registry.resolve(name)));
    if let Some((name, None)) = solver {
        f.error(
            "RTT008",
            format!(
                "unknown solver {name:?}; available: {}",
                registry.names().join(", ")
            ),
        );
    }
    let (objective, selection) = match doc.get("budgets") {
        // a `budgets` field makes the line a tradeoff-curve sweep: a
        // JSON array of grid points, or a grid string in the `rtt curve`
        // `a:b:step` / `a,b,c` syntax
        Some(grid) => {
            let budgets = match grid {
                Json::Arr(items) => items
                    .iter()
                    .map(Json::as_u64)
                    .collect::<Result<Vec<u64>, _>>()
                    .map_err(|e| f.error("RTT007", format!("budgets: {e}")))
                    .ok(),
                Json::Str(spec) => parse_budgets(spec).map_err(|e| f.error("RTT007", e)).ok(),
                _ => {
                    f.error("RTT001", "budgets must be an array or a grid string");
                    None
                }
            };
            if budget.is_some() || target.is_some() {
                f.error("RTT006", "`budgets` conflicts with `budget`/`target`");
            }
            if f.has("objective") {
                f.error("RTT006", "`budgets` lines take no `objective` field");
            }
            // sweeps are a bicriteria-pipeline service: a per-line
            // solver other than bicriteria is a usage error, and the
            // batch --solver default deliberately does not apply
            if let Some((name, Some(s))) = solver {
                if s.name() != "bicriteria" {
                    f.error(
                        "RTT007",
                        format!(
                            "sweep lines are answered by the bicriteria pipeline, not solver {name:?}"
                        ),
                    );
                }
            }
            (
                budgets.map(|budgets| Objective::MakespanSweep { budgets }),
                SolverSelection::Named("bicriteria".into()),
            )
        }
        None => {
            let objective = match doc.get("objective").map(Json::as_str) {
                Some(Err(e)) => {
                    f.error("RTT001", format!("objective: {e}"));
                    None
                }
                Some(Ok("min-makespan")) => {
                    if !f.has("budget") {
                        f.error("RTT006", "objective min-makespan needs a `budget`");
                    }
                    budget.map(|budget| Objective::MinMakespan { budget })
                }
                Some(Ok("min-resource")) => {
                    if !f.has("target") {
                        f.error("RTT006", "objective min-resource needs a `target`");
                    }
                    target.map(|target| Objective::MinResource { target })
                }
                Some(Ok(other)) => {
                    f.error("RTT006", format!("unknown objective {other:?}"));
                    None
                }
                None => match (f.has("budget"), f.has("target")) {
                    (true, true) => {
                        f.error("RTT006", "give `objective` to disambiguate budget + target");
                        None
                    }
                    (false, false) => {
                        f.error("RTT006", "need `budget` or `target`");
                        None
                    }
                    (true, false) => budget.map(|budget| Objective::MinMakespan { budget }),
                    (false, true) => target.map(|target| Objective::MinResource { target }),
                },
            };
            let selection = match solver_name.or(default_solver) {
                Some(name) => SolverSelection::Named(name.to_string()),
                None => SolverSelection::All,
            };
            (objective, selection)
        }
    };
    let alpha = f.field("alpha", Json::as_f64).unwrap_or(0.5);
    let deadline = f
        .field("deadline_ms", Json::as_u64)
        .map(StdDuration::from_millis);
    let seed = f.field("seed", Json::as_u64).unwrap_or(0);
    // resource-budget fields: a policy without a limit, or an unknown
    // policy name, is RTT009. A mistyped limit still *declares* one for
    // the orphan-policy check; its RTT001 already rejects the line.
    let limits = BudgetLimits {
        lp_pivots: f.field("max_pivots", Json::as_u64),
        dp_merge_steps: f.field("max_merge_steps", Json::as_u64),
        sim_events: f.field("max_sim_events", Json::as_u64),
        queue_depth: f.field("max_queue_depth", Json::as_u64),
    };
    let declares_limit = [
        "max_pivots",
        "max_merge_steps",
        "max_sim_events",
        "max_queue_depth",
    ]
    .iter()
    .any(|field| f.has(field));
    let policy = match f
        .field("on_exhaustion", Json::as_str)
        .map(ExhaustionPolicy::parse)
    {
        Some(Err(e)) => {
            f.error("RTT009", e);
            None
        }
        Some(Ok(policy)) => {
            if !declares_limit {
                f.error("RTT009", "on_exhaustion requires at least one max_* limit");
            }
            Some(policy)
        }
        None => None,
    };
    let (Some(arc), Some(objective), true) = (arc, objective, f.errors.is_empty()) else {
        diags.append(&mut f.errors);
        return None;
    };
    // key by the relabel-invariant canonical form (PR 7): structurally
    // identical instances land on one entry even when their documents
    // permute nodes or arcs. The full key string is stored and compared
    // (no hash collisions); the build cost on duplicate lines is the
    // price of recognizing relabelings, and the per-instance
    // preprocessing (expansion, SP decomposition, canonical form) is
    // still computed once per equivalence class.
    let key = rtt_core::canonical_form(&arc).key;
    let req = SolveRequest {
        id: id.map_or_else(|| format!("line-{lineno}"), str::to_string),
        prepared: cache.get_or_insert(&key, move || arc),
        objective,
        alpha,
        solver: selection,
        deadline,
        seed,
        // no max_* field → no spec: the pre-budget wire format, byte
        // for byte
        budget: (!limits.is_empty()).then(|| BudgetSpec {
            limits,
            policies: BudgetPolicies::uniform(policy.unwrap_or_default()),
        }),
        intra_threads: None,
    };
    let request_diags = rtt_engine::lint_request(registry, &req, lineno, batch_size);
    let admitted = request_diags.iter().all(|d| d.severity != Severity::Error);
    diags.extend(request_diags);
    admitted.then_some(req)
}

/// One parsed request line and the wire-format errors found in it so
/// far.
struct LineCheck<'a> {
    doc: &'a Json,
    lineno: usize,
    errors: Vec<Diagnostic>,
}

impl<'a> LineCheck<'a> {
    fn error(&mut self, code: &'static str, message: impl Into<String>) {
        self.errors
            .push(Diagnostic::error(code, self.lineno, message));
    }

    fn has(&self, field: &str) -> bool {
        self.doc.get(field).is_some()
    }

    /// An optional field read through `as_type`. A value of the wrong
    /// type is RTT001 naming the field, and reads as absent.
    fn field<T>(
        &mut self,
        field: &str,
        as_type: impl Fn(&'a Json) -> Result<T, JsonError>,
    ) -> Option<T> {
        let value = self.doc.get(field)?;
        as_type(value)
            .map_err(|e| self.error("RTT001", format!("{field}: {e}")))
            .ok()
    }
}

/// Renders one tradeoff-curve point as its canonical NDJSON line (no
/// trailing newline) — the `rtt curve` wire format. Same rules as the
/// batch report stream: no wall-clock fields, deterministic field
/// order, one JSON document per line, points in budget-grid order.
///
/// ```json
/// {"budget":4,"status":"solved","lp_makespan":2.5,"makespan":5,"budget_used":6,"makespan_factor":2.0,"resource_factor":2.0,"work":17,"sim_makespan":5}
/// ```
///
/// `work` counts the simplex pivots the point cost; warm-chained points
/// (every point after the first) typically report a small fraction of
/// the first point's count. `sim_makespan` is the point's Observation
/// 1.1 simulation certificate (see the module docs). A non-`solved`
/// report renders as `{"budget":…,"status":…,"detail":…}`.
pub fn curve_line(budget: u64, r: &SolveReport) -> String {
    Json::Obj(curve_fields(budget, r)).compact()
}

/// The shared field list of a curve point: the `rtt curve` line body
/// and the sweep report-line body are both built here, so the two wire
/// forms cannot drift (a batch sweep line is exactly a curve line with
/// the `id`/`solver` identity prefix).
fn curve_fields(budget: u64, r: &SolveReport) -> Vec<(String, Json)> {
    let mut fields: Vec<(String, Json)> = vec![
        ("budget".into(), Json::UInt(budget)),
        ("status".into(), Json::Str(r.status.as_str().into())),
    ];
    if r.status == Status::Solved {
        if let Some(x) = r.lp_makespan {
            fields.push(("lp_makespan".into(), Json::Float(x)));
        }
        if let Some(m) = r.makespan {
            fields.push(("makespan".into(), Json::UInt(m)));
        }
        if let Some(b) = r.budget_used {
            fields.push(("budget_used".into(), Json::UInt(b)));
        }
        if let Some(x) = r.makespan_factor {
            fields.push(("makespan_factor".into(), Json::Float(x)));
        }
        if let Some(x) = r.resource_factor {
            fields.push(("resource_factor".into(), Json::Float(x)));
        }
        fields.push(("work".into(), Json::UInt(r.work)));
        if let Some(sim) = &r.sim {
            fields.push(("sim_makespan".into(), Json::UInt(sim.simulated)));
        }
    } else {
        fields.push(("detail".into(), Json::Str(r.detail.clone())));
    }
    fields
}

/// Renders one report as its canonical NDJSON line (no trailing
/// newline). Deliberately excludes wall-clock fields — see the module
/// docs on byte stability.
pub fn report_line(r: &SolveReport) -> String {
    let mut fields: Vec<(String, Json)> = vec![
        ("id".into(), Json::Str(r.id.clone())),
        ("solver".into(), Json::Str(r.solver.into())),
    ];
    // per-point sweep reports render as curve points with the identity
    // prefix (see the module docs' "Sweep response lines"). The grid
    // point already owns the `budget` key, so the consumption block
    // rides under `resource_budget` here
    if let Some(b) = r.sweep_budget {
        fields.extend(curve_fields(b, r));
        if let Some(block) = &r.budget {
            fields.push(("resource_budget".into(), budget_block(block)));
        }
        return Json::Obj(fields).compact();
    }
    if let Some(orig) = r.degraded_from {
        fields.push(("degraded_from".into(), Json::Str(orig.into())));
    }
    fields.push(("status".into(), Json::Str(r.status.as_str().into())));
    if r.status == Status::Solved {
        if let Some(m) = r.makespan {
            fields.push(("makespan".into(), Json::UInt(m)));
        }
        if let Some(b) = r.budget_used {
            fields.push(("budget_used".into(), Json::UInt(b)));
        }
        if let Some(x) = r.lp_makespan {
            fields.push(("lp_makespan".into(), Json::Float(x)));
        }
        if let Some(x) = r.lp_budget {
            fields.push(("lp_budget".into(), Json::Float(x)));
        }
        if let Some(x) = r.makespan_factor {
            fields.push(("makespan_factor".into(), Json::Float(x)));
        }
        if let Some(x) = r.resource_factor {
            fields.push(("resource_factor".into(), Json::Float(x)));
        }
        fields.push(("work".into(), Json::UInt(r.work)));
        if let Some(sim) = &r.sim {
            fields.push(("sim_makespan".into(), Json::UInt(sim.simulated)));
        }
    } else {
        fields.push(("detail".into(), Json::Str(r.detail.clone())));
    }
    if let Some(b) = &r.budget {
        fields.push(("budget".into(), budget_block(b)));
    }
    Json::Obj(fields).compact()
}

/// The `budget` object of a budgeted report: cumulative consumption,
/// the declared limits (declared dimensions only), and any soft-warn /
/// degradation flags. Counter dimensions are deterministic, so the
/// block is byte-stable.
fn budget_block(b: &rtt_engine::BudgetReport) -> Json {
    let consumed = Json::Obj(vec![
        ("lp_pivots".into(), Json::UInt(b.consumed.lp_pivots)),
        ("merge_steps".into(), Json::UInt(b.consumed.dp_merge_steps)),
        ("sim_events".into(), Json::UInt(b.consumed.sim_events)),
    ]);
    let mut limits: Vec<(String, Json)> = Vec::new();
    if let Some(x) = b.limits.lp_pivots {
        limits.push(("max_pivots".into(), Json::UInt(x)));
    }
    if let Some(x) = b.limits.dp_merge_steps {
        limits.push(("max_merge_steps".into(), Json::UInt(x)));
    }
    if let Some(x) = b.limits.sim_events {
        limits.push(("max_sim_events".into(), Json::UInt(x)));
    }
    if let Some(x) = b.limits.queue_depth {
        limits.push(("max_queue_depth".into(), Json::UInt(x)));
    }
    let mut fields = vec![
        ("consumed".into(), consumed),
        ("limits".into(), Json::Obj(limits)),
    ];
    if !b.warnings.is_empty() {
        fields.push((
            "warnings".into(),
            Json::Arr(b.warnings.iter().map(|w| Json::Str(w.clone())).collect()),
        ));
    }
    if !b.degraded.is_empty() {
        fields.push((
            "degraded".into(),
            Json::Arr(b.degraded.iter().map(|d| Json::Str(d.clone())).collect()),
        ));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_engine::{run_batch, Registry};

    fn chain_line(id: &str, budget: u64) -> String {
        format!(
            r#"{{"id":"{id}","instance":{{"form":"node","nodes":[{{"label":"s","duration":{{"kind":"zero"}}}},{{"label":"x","duration":{{"kind":"step","tuples":[[0,10],[4,0]]}}}},{{"label":"t","duration":{{"kind":"zero"}}}}],"edges":[{{"src":0,"dst":1}},{{"src":1,"dst":2}}]}},"budget":{budget}}}"#
        )
    }

    #[test]
    fn corpus_parses_and_dedupes_instances() {
        let corpus = format!("{}\n\n{}\n", chain_line("a", 4), chain_line("b", 2));
        let cache = PrepCache::new();
        let reqs = build_requests(&corpus, &cache, None, &Registry::standard()).unwrap();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].id, "a");
        assert!(matches!(
            reqs[0].objective,
            Objective::MinMakespan { budget: 4 }
        ));
        // same instance document → one cache entry, one hit
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().instance_hits, 1);
    }

    #[test]
    fn bad_lines_name_their_line_number() {
        let cache = PrepCache::new();
        let registry = Registry::standard();
        let err = build_requests("{\"instance\":{}}\n", &cache, None, &registry).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
        let corpus = format!("{}\nnot json\n", chain_line("a", 1));
        let err = build_requests(&corpus, &cache, None, &registry).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let no_obj = chain_line("a", 1).replace(",\"budget\":1", "");
        let err = build_requests(&no_obj, &cache, None, &registry).unwrap_err();
        assert!(err.contains("need `budget` or `target`"), "{err}");
        // a typo'd per-line solver fails the load, not the report stream
        let typo = chain_line("a", 1).replace("\"budget\":1", "\"budget\":1,\"solver\":\"exat\"");
        let err = build_requests(&typo, &cache, None, &registry).unwrap_err();
        assert!(err.contains("unknown solver \"exat\""), "{err}");
    }

    #[test]
    fn report_lines_are_stable_across_thread_counts() {
        let corpus = (0..6)
            .map(|i| chain_line(&format!("q{i}"), i))
            .collect::<Vec<_>>()
            .join("\n");
        let registry = Registry::standard();
        let render = |threads: usize| {
            let cache = PrepCache::new();
            let reqs = build_requests(&corpus, &cache, None, &registry).unwrap();
            run_batch(&registry, reqs, threads)
                .reports
                .iter()
                .map(report_line)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = render(1);
        assert!(one.contains("\"status\":\"solved\""));
        assert!(!one.contains("wall"), "timing must stay off the wire");
        for threads in [2, 4, 8] {
            assert_eq!(one, render(threads), "threads={threads}");
        }
    }

    #[test]
    fn named_default_solver_applies_to_bare_lines() {
        let cache = PrepCache::new();
        let reqs = build_requests(
            &chain_line("a", 3),
            &cache,
            Some("bicriteria"),
            &Registry::standard(),
        )
        .unwrap();
        assert_eq!(
            reqs[0].solver,
            SolverSelection::Named("bicriteria".to_string())
        );
    }

    #[test]
    fn budget_fields_parse_into_a_spec() {
        let cache = PrepCache::new();
        let registry = Registry::standard();
        let line = chain_line("a", 3).replace(
            "\"budget\":3",
            "\"budget\":3,\"max_pivots\":100,\"max_merge_steps\":50,\"on_exhaustion\":\"degrade\"",
        );
        let reqs = build_requests(&line, &cache, None, &registry).unwrap();
        let spec = reqs[0].budget.expect("budget declared");
        assert_eq!(spec.limits.lp_pivots, Some(100));
        assert_eq!(spec.limits.dp_merge_steps, Some(50));
        assert_eq!(spec.limits.sim_events, None);
        assert_eq!(spec.policies.policy, ExhaustionPolicy::Degrade);
        // no max_* fields → no spec (pre-budget wire format)
        let plain = build_requests(&chain_line("b", 3), &cache, None, &registry).unwrap();
        assert!(plain[0].budget.is_none());
        // policy without a limit is a usage error
        let orphan = chain_line("c", 3).replace(
            "\"budget\":3",
            "\"budget\":3,\"on_exhaustion\":\"soft-warn\"",
        );
        let err = build_requests(&orphan, &cache, None, &registry).unwrap_err();
        assert!(err.contains("requires at least one max_*"), "{err}");
        // a typo'd policy names itself
        let typo = chain_line("d", 3).replace(
            "\"budget\":3",
            "\"budget\":3,\"max_pivots\":5,\"on_exhaustion\":\"explode\"",
        );
        let err = build_requests(&typo, &cache, None, &registry).unwrap_err();
        assert!(err.contains("unknown exhaustion policy"), "{err}");
    }

    #[test]
    fn budgeted_reports_carry_the_budget_block_on_the_wire() {
        let registry = Registry::standard();
        let cache = PrepCache::new();
        // soft-warn with a 1-step combinatorial limit: the exact solve
        // completes and the overage is flagged deterministically
        let line = chain_line("w", 3).replace(
            "\"budget\":3",
            "\"budget\":3,\"solver\":\"exact\",\"max_merge_steps\":1,\"on_exhaustion\":\"soft-warn\"",
        );
        let reqs = build_requests(&line, &cache, None, &registry).unwrap();
        let out = run_batch(&registry, reqs, 1);
        let rendered = report_line(&out.reports[0]);
        assert!(rendered.contains("\"status\":\"solved\""), "{rendered}");
        assert!(
            rendered.contains("\"budget\":{\"consumed\":{\"lp_pivots\":"),
            "{rendered}"
        );
        assert!(
            rendered.contains("\"limits\":{\"max_merge_steps\":1}"),
            "{rendered}"
        );
        assert!(
            rendered.contains("\"warnings\":[\"dp_merge_steps "),
            "{rendered}"
        );
        // and the block is byte-stable across thread counts
        let rerun = |threads: usize| {
            let cache = PrepCache::new();
            let reqs = build_requests(&line, &cache, None, &registry).unwrap();
            run_batch(&registry, reqs, threads)
                .reports
                .iter()
                .map(report_line)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = rerun(1);
        for threads in [2, 4] {
            assert_eq!(one, rerun(threads), "threads={threads}");
        }
    }

    fn sweep_line(id: &str, budgets: &str) -> String {
        chain_line(id, 0).replace("\"budget\":0", &format!("\"budgets\":{budgets}"))
    }

    #[test]
    fn sweep_lines_parse_in_both_spellings() {
        let cache = PrepCache::new();
        let registry = Registry::standard();
        let corpus = format!(
            "{}\n{}\n",
            sweep_line("a", "[0,2,4]"),
            sweep_line("b", "\"0:4:2\"")
        );
        let reqs = build_requests(&corpus, &cache, None, &registry).unwrap();
        for r in &reqs {
            assert!(matches!(
                &r.objective,
                Objective::MakespanSweep { budgets } if *budgets == vec![0, 2, 4]
            ));
            assert_eq!(r.solver, SolverSelection::Named("bicriteria".into()));
        }
        // the batch --solver default does not leak onto sweep lines
        let reqs =
            build_requests(&sweep_line("c", "[1]"), &cache, Some("exact"), &registry).unwrap();
        assert_eq!(reqs[0].solver, SolverSelection::Named("bicriteria".into()));
    }

    #[test]
    fn sweep_line_conflicts_and_bad_grids_are_rejected() {
        let cache = PrepCache::new();
        let registry = Registry::standard();
        let both = chain_line("a", 3).replace("\"budget\":3", "\"budget\":3,\"budgets\":[1,2]");
        let err = build_requests(&both, &cache, None, &registry).unwrap_err();
        assert!(err.contains("conflicts with `budget`"), "{err}");
        let obj = sweep_line("a", "[1,2]").replace(
            "\"budgets\":[1,2]",
            "\"budgets\":[1,2],\"objective\":\"min-makespan\"",
        );
        let err = build_requests(&obj, &cache, None, &registry).unwrap_err();
        assert!(err.contains("no `objective`"), "{err}");
        let empty = sweep_line("a", "[]");
        let err = build_requests(&empty, &cache, None, &registry).unwrap_err();
        assert!(err.contains("at least one grid point"), "{err}");
        let solver = sweep_line("a", "[1]")
            .replace("\"budgets\":[1]", "\"budgets\":[1],\"solver\":\"exact\"");
        let err = build_requests(&solver, &cache, None, &registry).unwrap_err();
        assert!(err.contains("bicriteria pipeline"), "{err}");
    }

    #[test]
    fn sweep_reports_render_curve_points_and_are_cache_and_thread_stable() {
        let registry = Registry::standard();
        // mixed traffic: a sweep, its exact duplicate, and a plain line
        let corpus = format!(
            "{}\n{}\n{}\n",
            sweep_line("s1", "[0,2,4]"),
            sweep_line("s2", "[0,2,4]"),
            chain_line("q", 4)
        );
        let render = |threads: usize, cached: bool| {
            let cache = PrepCache::new();
            let reuse = cached.then(|| rtt_engine::ReuseCache::new(64));
            let reqs = build_requests(&corpus, &cache, None, &registry).unwrap();
            rtt_engine::run_batch_cached(&registry, reqs, threads, reuse.as_ref())
                .reports
                .iter()
                .map(report_line)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = render(1, false);
        // one line per grid point, identity-prefixed curve form
        assert!(
            one.contains(
                "{\"id\":\"s1\",\"solver\":\"bicriteria\",\"budget\":0,\"status\":\"solved\""
            ),
            "{one}"
        );
        assert!(one.contains("\"sim_makespan\":"), "{one}");
        // every sweep point certifies: 3 + 3 sweep lines, all solved
        assert_eq!(one.matches("\"budget\":").count(), 6, "{one}");
        for threads in [1, 2, 4, 8] {
            for cached in [false, true] {
                assert_eq!(
                    one,
                    render(threads, cached),
                    "threads={threads} cached={cached} changed sweep bytes"
                );
            }
        }
        // and the body is byte-for-byte the rtt curve form
        let cache = PrepCache::new();
        let reqs = build_requests(&corpus, &cache, None, &registry).unwrap();
        let out = rtt_engine::run_batch_cached(&registry, reqs, 1, None);
        let r = &out.reports[0];
        let body = curve_line(r.sweep_budget.unwrap(), r);
        let full = report_line(r);
        assert_eq!(
            full,
            format!("{{\"id\":\"s1\",\"solver\":\"bicriteria\",{}", &body[1..])
        );
    }

    #[test]
    fn degraded_reports_name_the_original_solver_on_the_wire() {
        let registry = Registry::standard();
        let cache = PrepCache::new();
        let line = chain_line("d", 3).replace(
            "\"budget\":3",
            "\"budget\":3,\"solver\":\"exact\",\"max_merge_steps\":1,\"on_exhaustion\":\"degrade\"",
        );
        let reqs = build_requests(&line, &cache, None, &registry).unwrap();
        let out = run_batch(&registry, reqs, 1);
        let r = &out.reports[0];
        assert_eq!(r.status, Status::Solved, "{}", r.detail);
        let rendered = report_line(r);
        assert!(
            rendered.contains("\"solver\":\"bicriteria\",\"degraded_from\":\"exact\""),
            "{rendered}"
        );
        assert!(
            rendered.contains("\"degraded\":[\"degraded from exact:"),
            "{rendered}"
        );
        // the fallback's certified factors ride the report
        assert!(rendered.contains("\"makespan_factor\":2"), "{rendered}");
    }
}
