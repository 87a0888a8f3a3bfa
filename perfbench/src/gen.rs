//! Seeded corpus generators for the three workloads.
//!
//! Every workload is an NDJSON request corpus in the `rtt batch` wire
//! format, generated in-process from the seed: the program under test
//! only ever sees the generated text. The seed decides instance shapes,
//! durations, budgets and line order; the *mix* — how many lines of each
//! kind, family and size class — is fixed per workload, so figures from
//! different seeds describe the same traffic.
//!
//! A corpus is a function of the seed alone; generation never calls the
//! solver. Every line (every base on `redundant`) draws from its own
//! sub-seed, so what one line draws never moves the lines after it.
//! Sweep cases come from a fixed pool per [`PoolKey`]: draw `k` of a key
//! is a function of the key and `k`, and the committed table
//! `perfbench/stalls.txt` names the draws whose warm chain stalls (see
//! [`STALL_PIVOTS`]). The generators skip those draws, so every build —
//! whatever its pivot path — serves the same corpus for a seed.
//! `--screen` rebuilds the table with the checked-out solver.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtt_cli::json::Json;
use rtt_cli::{DurationSpec, InstanceSpec};
use rtt_core::{to_arc_form, Activity, ArcInstance, Instance};
use rtt_dag::{gen, Dag};
use rtt_duration::Duration;
use rtt_engine::solver::EXACT_JOB_CAP;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["fanout", "sweep", "redundant"];

/// Instance family of a generated line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Family {
    /// Race DAG with recursive-binary reducers (Eq. 3).
    RaceRecbinary,
    /// Race DAG with k-way reducers (Eq. 2).
    RaceKway,
    /// Series-parallel DAG with two-point step durations (§3.4).
    Sp,
}

impl Family {
    const ALL: [Family; 3] = [Family::RaceRecbinary, Family::RaceKway, Family::Sp];

    fn tag(self) -> &'static str {
        match self {
            Family::RaceRecbinary => "recbinary",
            Family::RaceKway => "kway",
            Family::Sp => "sp",
        }
    }
}

/// How a line's instance relates to earlier lines of the corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// First sight of this instance and objective.
    Unique,
    /// Byte-identical copy of an earlier line (new id).
    Duplicate,
    /// Node/arc relabeling of an earlier line, same objective.
    Relabel,
    /// Relabeling of an earlier instance with a different budget.
    BudgetRelabel,
    /// An earlier instance with one duration perturbed.
    Sibling,
}

/// What the generator put on one line — the source of the input
/// properties `--describe` reports.
#[derive(Debug, Clone)]
pub struct LineInfo {
    /// Instance family.
    pub family: Family,
    /// Relation to earlier lines.
    pub variant: Variant,
    /// Whether the line declares `max_*` budget limits.
    pub metered: bool,
    /// Whether the instance has at most `EXACT_JOB_CAP` improvable jobs.
    pub under_exact_cap: bool,
    /// Grid length of a `budgets` line; 0 for single solves.
    pub grid_len: usize,
}

/// A generated corpus: the NDJSON text plus what each line is.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The NDJSON request corpus, one request per line.
    pub text: String,
    /// Per-line generation facts, in line order.
    pub lines: Vec<LineInfo>,
    /// Pool draws skipped because the stall table names them.
    pub stalled_skipped: usize,
}

/// Corpus size: `Full` is what timed runs serve, `Tiny` is the
/// self-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured corpus.
    Full,
    /// A few lines per kind, for the self-test.
    Tiny,
}

/// Which generator a pool draw serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PoolKind {
    /// A sweep whose grid starts at the budget-0 anchor.
    SweepFromZero,
    /// A sweep whose grid starts above the anchor.
    SweepAbove,
    /// A `redundant` sweep base: instance, grid, relabelings, sibling.
    RedundantBase,
}

impl PoolKind {
    const ALL: [PoolKind; 3] = [
        PoolKind::SweepFromZero,
        PoolKind::SweepAbove,
        PoolKind::RedundantBase,
    ];

    fn tag(self) -> &'static str {
        match self {
            PoolKind::SweepFromZero => "sweep0",
            PoolKind::SweepAbove => "sweep",
            PoolKind::RedundantBase => "redundant",
        }
    }
}

/// A sweep pool: one per generator kind, family and size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PoolKey {
    /// The generator the draws serve.
    pub kind: PoolKind,
    /// Instance family.
    pub family: Family,
    /// Instance size (race nodes or SP leaves).
    pub size: usize,
}

/// Draws per pool. A corpus takes at most a few dozen draws from one
/// pool, without repeats.
const POOL: u64 = 256;

/// Draw `(key, k)` pairs whose warm chain stalls: one
/// `<kind> <family> <size> <draw>` line each, `#` starts a comment.
const STALL_TABLE: &str = include_str!("../stalls.txt");

type StallSet = BTreeSet<(PoolKey, u64)>;

fn stall_table() -> Result<StallSet, String> {
    let mut set = StallSet::new();
    for (n, line) in STALL_TABLE.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("stalls.txt line {}: cannot read {line:?}", n + 1);
        let f: Vec<&str> = line.split_whitespace().collect();
        let [kind, family, size, k] = f[..] else {
            return Err(bad());
        };
        let kind = *PoolKind::ALL
            .iter()
            .find(|x| x.tag() == kind)
            .ok_or_else(bad)?;
        let family = *Family::ALL
            .iter()
            .find(|x| x.tag() == family)
            .ok_or_else(bad)?;
        let size = size.parse().map_err(|_| bad())?;
        let k = k.parse().map_err(|_| bad())?;
        set.insert((PoolKey { kind, family, size }, k));
    }
    Ok(set)
}

/// Generates `workload`'s corpus from `seed`.
pub fn corpus(workload: &str, seed: u64, size: Size) -> Result<Corpus, String> {
    let stalls = stall_table()?;
    let mut g = Gen::new(workload, seed, &stalls)?;
    g.workload(workload, size);
    Ok(g.finish())
}

/// One request line before rendering.
struct Entry {
    spec: InstanceSpec,
    objective: Obj,
    solver: Option<&'static str>,
    limits: Limits,
    info: LineInfo,
}

#[derive(Clone)]
enum Obj {
    Budget(u64),
    Target(u64),
    Grid(Vec<u64>),
}

#[derive(Clone, Copy)]
enum Limits {
    None,
    /// Limits far above any line's consumption: the metered path runs
    /// and never trips. The queue-depth limit is at least any batch
    /// size, which admission lint reports as a warning (RTT012).
    Generous,
    /// One merge step under `degrade`: the named exact/DP solver
    /// exhausts at once and its declared fallback answers.
    TightDegrade,
}

/// Stream tags mixed into sub-seeds, so line, order and pool streams
/// never coincide.
const LINE_TAG: u64 = 1;
const ORDER_TAG: u64 = 2;
const POOL_TAG: u64 = 3;

/// SplitMix64 finaliser folded over `parts`: the sub-seed of a stream.
fn mix(parts: &[u64]) -> u64 {
    parts.iter().fold(0x9e37_79b9_7f4a_7c15, |h, &p| {
        let mut z = (h ^ p).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}

fn pool_rng(key: PoolKey, k: u64) -> StdRng {
    StdRng::seed_from_u64(mix(&[
        POOL_TAG,
        key.kind as u64,
        key.family as u64,
        key.size as u64,
        k,
    ]))
}

struct Gen<'a> {
    seed: u64,
    /// The workload's index: the three corpora of one seed are
    /// independent draws.
    salt: u64,
    /// Lines (or bases) drawn so far.
    slot: u64,
    /// Shuffles the finished corpus.
    order: StdRng,
    stalls: &'a StallSet,
    /// Pool draws taken, so no corpus repeats one.
    used: StallSet,
    stalled: usize,
    entries: Vec<Entry>,
}

impl<'a> Gen<'a> {
    fn new(workload: &str, seed: u64, stalls: &'a StallSet) -> Result<Self, String> {
        let salt = WORKLOADS
            .iter()
            .position(|w| *w == workload)
            .ok_or_else(|| {
                format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}")
            })? as u64;
        Ok(Gen {
            seed,
            salt,
            slot: 0,
            order: StdRng::seed_from_u64(mix(&[ORDER_TAG, seed, salt])),
            stalls,
            used: StallSet::new(),
            stalled: 0,
            entries: Vec::new(),
        })
    }

    fn workload(&mut self, workload: &str, size: Size) {
        match workload {
            "fanout" => self.fanout(size),
            "sweep" => self.sweep(size),
            _ => self.redundant(size),
        }
    }

    /// The next line's own random stream.
    fn line_rng(&mut self) -> StdRng {
        self.slot += 1;
        StdRng::seed_from_u64(mix(&[LINE_TAG, self.seed, self.salt, self.slot]))
    }

    /// A draw of `key`'s pool, picked with `rng`: the next draw from a
    /// random start that the stall table does not name and this corpus
    /// has not taken.
    fn pick(&mut self, key: PoolKey, rng: &mut StdRng) -> u64 {
        let mut k = rng.random_range(0..POOL);
        for _ in 0..POOL {
            if self.stalls.contains(&(key, k)) {
                self.stalled += 1;
            } else if self.used.insert((key, k)) {
                return k;
            }
            k = (k + 1) % POOL;
        }
        panic!("pool {key:?} has no draw left");
    }

    /// A sweep case from the pool for `(family, size, from_zero)`.
    fn sweep_case(
        &mut self,
        family: Family,
        size: usize,
        from_zero: bool,
    ) -> (ArcInstance, Vec<u64>) {
        let kind = if from_zero {
            PoolKind::SweepFromZero
        } else {
            PoolKind::SweepAbove
        };
        let key = PoolKey { kind, family, size };
        let mut rng = self.line_rng();
        let k = self.pick(key, &mut rng);
        sweep_draw(key, k)
    }

    fn push(
        &mut self,
        arc: &ArcInstance,
        family: Family,
        variant: Variant,
        objective: Obj,
        solver: Option<&'static str>,
        limits: Limits,
    ) {
        self.entries.push(entry(
            InstanceSpec::from_arc(arc),
            arc,
            family,
            variant,
            objective,
            solver,
            limits,
        ));
    }

    /// Unique instances under the default `all` fan-out. Race and SP
    /// instances straddle `EXACT_JOB_CAP`; lines mix budgets with
    /// feasible targets; a fifth carry generous limits and one in
    /// fifteen a tight degrade limit; one in fifteen is a sweep, which
    /// keeps the curve layer measured.
    fn fanout(&mut self, size: Size) {
        let rounds = if size == Size::Full { 32 } else { 1 };
        let classes: [(Family, usize, usize); 6] = [
            (Family::RaceRecbinary, 5, 8),
            (Family::RaceRecbinary, 16, 24),
            (Family::RaceKway, 5, 8),
            (Family::RaceKway, 16, 24),
            (Family::Sp, 6, 10),
            (Family::Sp, 10, 18),
        ];
        for round in 0..rounds {
            for (k, &(family, lo, hi)) in classes.iter().enumerate() {
                for j in 0..2 {
                    let n = stratum(lo, hi, 2 * round + j);
                    let mut rng = self.line_rng();
                    let arc = instance(&mut rng, family, n);
                    let objective = if j == 0 {
                        Obj::Budget(budget(&mut rng, &arc))
                    } else {
                        Obj::Target(target(&mut rng, &arc))
                    };
                    let limits = if (k + j) % 4 == 0 {
                        Limits::Generous
                    } else {
                        Limits::None
                    };
                    self.push(&arc, family, Variant::Unique, objective, None, limits);
                }
            }
            // tight degrade limits on named exact / DP solves
            for (family, n, solver) in [
                (Family::Sp, 8, "sp-dp"),
                (Family::RaceRecbinary, 6, "exact"),
            ] {
                let mut rng = self.line_rng();
                let arc = instance(&mut rng, family, n);
                let b = Obj::Budget(budget(&mut rng, &arc));
                self.push(
                    &arc,
                    family,
                    Variant::Unique,
                    b,
                    Some(solver),
                    Limits::TightDegrade,
                );
            }
            // a light sweep
            let (arc, grid) = self.sweep_case(Family::Sp, 16, true);
            self.push(
                &arc,
                Family::Sp,
                Variant::Unique,
                Obj::Grid(grid),
                None,
                Limits::None,
            );
        }
        self.shuffle_all();
    }

    /// `budgets` lines on unique race and SP instances; most grids start
    /// at the budget-0 anchor. One line in nine is a small single solve
    /// under the `all` fan-out, so every solver layer stays measured;
    /// every third of those carries generous limits.
    fn sweep(&mut self, size: Size) {
        let rounds = if size == Size::Full { 53 } else { 1 };
        let classes: [(Family, usize, usize); 4] = [
            (Family::Sp, 10, 18),
            (Family::Sp, 18, 28),
            (Family::RaceRecbinary, 6, 12),
            (Family::RaceKway, 6, 12),
        ];
        for round in 0..rounds {
            for &(family, lo, hi) in &classes {
                for j in 0..2 {
                    let n = stratum(lo, hi, 2 * round + j);
                    let from_zero = j == 0 || family == Family::Sp;
                    let (arc, grid) = self.sweep_case(family, n, from_zero);
                    self.push(
                        &arc,
                        family,
                        Variant::Unique,
                        Obj::Grid(grid),
                        None,
                        Limits::None,
                    );
                }
            }
            let family = Family::ALL[round % 3];
            let mut rng = self.line_rng();
            let arc = instance(&mut rng, family, 6);
            let b = Obj::Budget(budget(&mut rng, &arc));
            let limits = if round % 3 == 0 {
                Limits::Generous
            } else {
                Limits::None
            };
            self.push(&arc, family, Variant::Unique, b, None, limits);
        }
        self.shuffle_all();
    }

    /// Reuse-cache traffic: each base is sent as an original plus
    /// exact duplicates, relabelings, a budget-perturbed relabeling and
    /// a duration-perturbed sibling. Every miss line precedes every hit
    /// line, so two thirds of the lines find their answer cached.
    fn redundant(&mut self, size: Size) {
        let bases = if size == Size::Full { 80 } else { 12 };
        let mut misses: Vec<Entry> = Vec::new();
        let mut hits: Vec<Entry> = Vec::new();
        for i in 0..bases {
            // every tenth base is a sweep, every twelfth otherwise fans
            // out to all solvers on an instance small enough for the
            // exact solvers; the rest are named bicriteria solves, so the
            // median request is a single-report cache hit in every seed's
            // corpus
            let sweep = i % 10 == 9;
            let fanout = !sweep && i % 12 == 11;
            let solver = (!sweep && !fanout).then_some("bicriteria");
            let (family, n) = if fanout {
                let family = Family::ALL[(i / 12) % 3];
                (family, if family == Family::Sp { 8 } else { 6 })
            } else {
                let family = Family::ALL[i % 3];
                let n = match family {
                    Family::Sp => stratum(24, 48, i / 3),
                    _ => stratum(12, 20, i / 3),
                };
                (family, if sweep { n / 2 } else { n })
            };
            let mut rng = self.line_rng();
            let b = if sweep {
                let key = PoolKey {
                    kind: PoolKind::RedundantBase,
                    family,
                    size: n,
                };
                let k = self.pick(key, &mut rng);
                base(&mut pool_rng(key, k), family, n, true)
            } else {
                base(&mut rng, family, n, false)
            };
            let mk = |spec: InstanceSpec, objective: Obj, variant: Variant, arc: &ArcInstance| {
                entry(spec, arc, family, variant, objective, solver, Limits::None)
            };
            let (arc, objective) = (&b.arc, &b.objective);
            let sib_spec = InstanceSpec::from_arc(&b.sibling);
            misses.push(mk(b.spec.clone(), objective.clone(), Variant::Unique, arc));
            misses.push(mk(
                b.relabeled_b.clone(),
                b.perturbed.clone(),
                Variant::BudgetRelabel,
                arc,
            ));
            misses.push(mk(
                sib_spec.clone(),
                objective.clone(),
                Variant::Sibling,
                &b.sibling,
            ));
            hits.push(mk(
                b.spec.clone(),
                objective.clone(),
                Variant::Duplicate,
                arc,
            ));
            hits.push(mk(
                b.spec.clone(),
                objective.clone(),
                Variant::Duplicate,
                arc,
            ));
            hits.push(mk(b.relabeled, objective.clone(), Variant::Relabel, arc));
            hits.push(mk(
                b.relabeled_again,
                objective.clone(),
                Variant::Relabel,
                arc,
            ));
            hits.push(mk(b.relabeled_b, b.perturbed, Variant::Duplicate, arc));
            hits.push(mk(
                sib_spec,
                objective.clone(),
                Variant::Duplicate,
                &b.sibling,
            ));
        }
        shuffle(&mut misses, &mut self.order);
        shuffle(&mut hits, &mut self.order);
        misses.extend(hits);
        self.entries = misses;
    }

    fn shuffle_all(&mut self) {
        shuffle(&mut self.entries, &mut self.order);
    }

    fn finish(self) -> Corpus {
        let mut text = String::new();
        let mut lines = Vec::with_capacity(self.entries.len());
        for (i, e) in self.entries.into_iter().enumerate() {
            text.push_str(&render_line(i + 1, &e));
            text.push('\n');
            lines.push(e.info);
        }
        Corpus {
            text,
            lines,
            stalled_skipped: self.stalled,
        }
    }
}

fn entry(
    spec: InstanceSpec,
    arc: &ArcInstance,
    family: Family,
    variant: Variant,
    objective: Obj,
    solver: Option<&'static str>,
    limits: Limits,
) -> Entry {
    let grid_len = match &objective {
        Obj::Grid(g) => g.len(),
        _ => 0,
    };
    Entry {
        spec,
        objective,
        solver,
        limits,
        info: LineInfo {
            family,
            variant,
            metered: !matches!(limits, Limits::None),
            under_exact_cap: arc.improvable_edges().len() <= EXACT_JOB_CAP,
            grid_len,
        },
    }
}

fn race(rng: &mut StdRng, nodes: usize, family: Family) -> ArcInstance {
    let tt = gen::random_race_dag(rng, nodes, nodes);
    let mut g: Dag<(), ()> = Dag::new();
    for _ in tt.dag.node_ids() {
        g.add_node(());
    }
    for e in tt.dag.edge_refs() {
        let copies = rng.random_range(1..5usize);
        g.add_parallel_edges(e.src, e.dst, (), copies)
            .expect("endpoints exist");
    }
    let inst = match family {
        Family::RaceKway => Instance::race_dag(&g, Duration::kway),
        _ => Instance::race_dag(&g, Duration::recursive_binary),
    }
    .expect("generated race DAGs are two-terminal");
    to_arc_form(&inst).0
}

fn sp(rng: &mut StdRng, leaves: usize) -> ArcInstance {
    let gsp = gen::random_sp(rng, leaves);
    let mut g: Dag<(), Activity> = Dag::new();
    for _ in gsp.tt.dag.node_ids() {
        g.add_node(());
    }
    for e in gsp.tt.dag.edge_refs() {
        let t0 = rng.random_range(10..50u64);
        let r = rng.random_range(2..7u64);
        let t1 = rng.random_range(0..t0 / 3);
        g.add_edge(e.src, e.dst, Activity::new(Duration::two_point(t0, r, t1)))
            .expect("endpoints exist");
    }
    ArcInstance::new(g).expect("generated SP DAGs are two-terminal")
}

fn instance(rng: &mut StdRng, family: Family, size: usize) -> ArcInstance {
    match family {
        Family::Sp => sp(rng, size),
        race_family => race(rng, size, race_family),
    }
}

/// A min-makespan budget that buys some but not all of the speedup.
fn budget(rng: &mut StdRng, arc: &ArcInstance) -> u64 {
    let sat = arc.saturation_budget().max(2);
    rng.random_range(1..=(sat / 2).clamp(1, 24))
}

/// A makespan target strictly between the ideal and base makespans
/// (feasible, and binding, so the min-resource search really runs).
fn target(rng: &mut StdRng, arc: &ArcInstance) -> u64 {
    let (ideal, base) = (arc.ideal_makespan(), arc.base_makespan());
    if base <= ideal + 1 {
        return base;
    }
    let span = base - ideal;
    ideal + rng.random_range((span * 3 / 10).max(1)..=(span * 8 / 10).max(1))
}

fn grid(rng: &mut StdRng, arc: &ArcInstance, from_zero: bool) -> Vec<u64> {
    let len = rng.random_range(3..=6usize);
    let sat = arc.saturation_budget().max(2);
    let step = (sat / (2 * len as u64)).clamp(1, 3);
    let start = if from_zero {
        0
    } else {
        rng.random_range(1..=step * 2)
    };
    (0..len as u64).map(|i| start + i * step).collect()
}

/// Draw `k` of a sweep pool: the instance and its grid.
fn sweep_draw(key: PoolKey, k: u64) -> (ArcInstance, Vec<u64>) {
    let mut rng = pool_rng(key, k);
    let arc = instance(&mut rng, key.family, key.size);
    let grid = grid(&mut rng, &arc, key.kind == PoolKind::SweepFromZero);
    (arc, grid)
}

/// A `redundant` base and every document its lines are made of.
struct Base {
    arc: ArcInstance,
    spec: InstanceSpec,
    objective: Obj,
    /// The objective shifted by one budget unit.
    perturbed: Obj,
    sibling: ArcInstance,
    relabeled: InstanceSpec,
    /// A relabeling of `relabeled`.
    relabeled_again: InstanceSpec,
    /// The relabeling sent with the perturbed objective.
    relabeled_b: InstanceSpec,
}

fn base(rng: &mut StdRng, family: Family, n: usize, sweep: bool) -> Base {
    let arc = instance(rng, family, n);
    let (objective, perturbed) = if sweep {
        let grid = grid(rng, &arc, true);
        let shifted = grid.iter().map(|b| b + 1).collect();
        (Obj::Grid(grid), Obj::Grid(shifted))
    } else {
        let b = budget(rng, &arc);
        (Obj::Budget(b), Obj::Budget(b + 1))
    };
    let sibling = perturb_duration(&arc);
    let spec = InstanceSpec::from_arc(&arc);
    let relabeled = relabel(&spec, rng);
    let relabeled_b = relabel(&spec, rng);
    let relabeled_again = relabel(&relabeled, rng);
    Base {
        arc,
        spec,
        objective,
        perturbed,
        sibling,
        relabeled,
        relabeled_again,
        relabeled_b,
    }
}

fn render_line(n: usize, e: &Entry) -> String {
    let mut fields: Vec<(String, Json)> = vec![
        ("id".into(), Json::Str(format!("r{n}"))),
        ("instance".into(), e.spec.to_json()),
    ];
    match &e.objective {
        Obj::Budget(b) => fields.push(("budget".into(), Json::UInt(*b))),
        Obj::Target(t) => fields.push(("target".into(), Json::UInt(*t))),
        Obj::Grid(g) => fields.push((
            "budgets".into(),
            Json::Arr(g.iter().map(|&b| Json::UInt(b)).collect()),
        )),
    }
    if let Some(s) = e.solver {
        fields.push(("solver".into(), Json::Str(s.into())));
    }
    match e.limits {
        Limits::None => {}
        Limits::Generous => {
            for limit in [
                "max_pivots",
                "max_merge_steps",
                "max_sim_events",
                "max_queue_depth",
            ] {
                fields.push((limit.into(), Json::UInt(1 << 40)));
            }
        }
        Limits::TightDegrade => {
            fields.push(("max_merge_steps".into(), Json::UInt(1)));
            fields.push(("on_exhaustion".into(), Json::Str("degrade".into())));
        }
    }
    Json::Obj(fields).compact()
}

/// The `k`-th size of the class `lo..=hi`: sizes cycle through the
/// class instead of being drawn, so every seed's corpus holds the same
/// size mix and only shapes and durations vary.
fn stratum(lo: usize, hi: usize, k: usize) -> usize {
    lo + k % (hi - lo + 1)
}

/// Warm points of a sweep chain normally cost a few dozen pivots at
/// most; a small share of chains that leave the budget-0 anchor stall
/// for about seven pivots per arc at a much higher cost per pivot. They
/// are bimodal rare events, so a corpus holding a random number of them
/// would make figures swing between seeds; the stall table excludes
/// them from the corpora, and the traced run times a fixed few of them
/// on their own ([`stalled_cases`]).
const STALL_PIVOTS: usize = 60;

/// Whether the wire sweep of `grid` on `arc` (the same crash-started
/// chain `execute_sweep_wire` runs) has a warm point above
/// [`STALL_PIVOTS`].
fn stalls(arc: &ArcInstance, grid: &[u64]) -> bool {
    let tt = rtt_core::expand_two_tuples(arc);
    match rtt_core::MakespanLp::new(&tt).solve_sweep(&tt, grid, None) {
        Ok((points, _)) => points.iter().skip(1).any(|p| p.pivots > STALL_PIVOTS),
        Err(_) => true,
    }
}

/// Whether a sweep of any document a `redundant` sweep base can be
/// prepared from stalls: relabelings reorder the LP's rows and columns,
/// which changes the pivot path.
fn base_stalls(b: &Base) -> bool {
    let (Obj::Grid(grid), Obj::Grid(shifted)) = (&b.objective, &b.perturbed) else {
        return false;
    };
    let relabeled_b = b.relabeled_b.build().expect("relabeling stays valid");
    [&b.arc, &relabeled_b]
        .iter()
        .any(|a| stalls(a, grid) || stalls(a, shifted))
        || stalls(&b.sibling, grid)
}

/// Every pool the generators draw from, at both sizes. Which pools a
/// workload uses depends on its class tables only, not on the seed.
fn pool_keys() -> Result<BTreeSet<PoolKey>, String> {
    let none = StallSet::new();
    let mut keys = BTreeSet::new();
    for w in WORKLOADS {
        for size in [Size::Full, Size::Tiny] {
            let mut g = Gen::new(w, 0, &none)?;
            g.workload(w, size);
            keys.extend(g.used.iter().map(|(key, _)| *key));
        }
    }
    Ok(keys)
}

/// `--screen`: runs every draw of every pool through the checked-out
/// solver and prints the stall table (`perfbench/stalls.txt`).
pub fn screen() -> Result<String, String> {
    let mut out = String::from(
        "# Sweep pool draws whose warm chain stalls (a warm point above 60\n\
         # pivots); the generators skip them. Rebuild with --screen.\n\
         # <kind> <family> <size> <draw>\n",
    );
    for key in pool_keys()? {
        for k in 0..POOL {
            let stalled = match key.kind {
                PoolKind::RedundantBase => {
                    base_stalls(&base(&mut pool_rng(key, k), key.family, key.size, true))
                }
                _ => {
                    let (arc, grid) = sweep_draw(key, k);
                    stalls(&arc, &grid)
                }
            };
            if stalled {
                let _ = writeln!(
                    out,
                    "{} {} {} {k}",
                    key.kind.tag(),
                    key.family.tag(),
                    key.size
                );
            }
        }
    }
    Ok(out)
}

/// The first `n` sweep draws the stall table names, in table order:
/// the same cases in every run and every build, for timing the stall
/// on its own.
pub fn stalled_cases(n: usize) -> Result<Vec<(ArcInstance, Vec<u64>)>, String> {
    Ok(stall_table()?
        .into_iter()
        .filter(|(key, _)| key.kind != PoolKind::RedundantBase)
        .take(n)
        .map(|(key, k)| sweep_draw(key, k))
        .collect())
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}

/// The same instance with nodes renumbered and arcs reordered: a
/// different document with the same canonical form.
fn relabel(spec: &InstanceSpec, rng: &mut StdRng) -> InstanceSpec {
    let mut perm: Vec<usize> = (0..spec.nodes.len()).collect();
    shuffle(&mut perm, rng);
    let mut out = spec.clone();
    for e in &mut out.edges {
        e.src = perm[e.src];
        e.dst = perm[e.dst];
    }
    shuffle(&mut out.edges, rng);
    out
}

/// The instance with the first improvable arc's zero-resource duration
/// raised by one: a different canonical instance of the same shape.
fn perturb_duration(arc: &ArcInstance) -> ArcInstance {
    let mut spec = InstanceSpec::from_arc(arc);
    let target = arc.improvable_edges().first().map_or(0, |e| e.index());
    let d = spec.edges[target]
        .duration
        .as_mut()
        .expect("arc-form specs carry durations");
    *d = match d.clone() {
        DurationSpec::Kway { work } => DurationSpec::Kway { work: work + 1 },
        DurationSpec::Recbinary { work } => DurationSpec::Recbinary { work: work + 1 },
        DurationSpec::Step { mut tuples } => {
            tuples[0].1 += 1;
            DurationSpec::Step { tuples }
        }
        DurationSpec::Constant { t } => DurationSpec::Constant { t: t + 1 },
        DurationSpec::Zero => DurationSpec::Constant { t: 1 },
    };
    spec.build().expect("perturbed spec stays valid")
}
