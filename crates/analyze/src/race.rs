//! Summary-based static race analysis.
//!
//! The dynamic detector ([`rtt_race::detect_races`]) builds a
//! per-location list of every concrete access and compares pairs: cost
//! proportional to accesses per location squared, and memory
//! proportional to the total operation count. This pass never looks at
//! an individual access. It works on [`StrandFootprint`] summaries —
//! sorted, interval-compressed location runs with read/write masks —
//! and intersects them pairwise under the EH may-happen-in-parallel
//! relation:
//!
//! 0. **Prefilter**: a race needs a writer, so every run disjoint from
//!    the merged write intervals is dropped up front — read-mostly
//!    programs shed most of their event volume before the sweep runs.
//! 1. **Sweep**: every run contributes a start/end boundary event; one
//!    pass over the sorted events walks the location axis in *atomic
//!    segments* — maximal ranges on which every strand's mask is
//!    constant — maintaining the ordered set of runs covering the
//!    current segment. No per-segment binary searches, no global
//!    record table to re-sort.
//! 2. **Pair**: per segment, the active set splits into writers and
//!    pure readers; writer×writer pairs race write-write and
//!    writer×reader pairs race write-read, filtered by
//!    [`EhLabels::parallel`]. Segments without a writer are skipped
//!    wholesale — a read-only region can never race, no matter how
//!    many strands touch it — and per-location access lists never
//!    exist.
//! 3. **Coalesce**: each segment's pair keys merge-join against the
//!    location-adjacent previous segment's open summaries, extending a
//!    summary's range while the same (pair, kind) persists and closing
//!    it the moment it does not — maximal [`RaceSummary`] ranges fall
//!    out of the sweep itself, with no post-pass.
//!
//! Soundness *and* completeness versus the dynamic detector is part of
//! the contract: [`witness_set`] expands summaries to the dynamic
//! detector's dedup granularity — `(loc, min strand, max strand,
//! write_write)` — and a differential property test over seeded
//! fork-join programs plus the Parallel-MM family pins equality.

use rtt_race::footprint::{footprints, FootprintRun, StrandFootprint, WRITE};
use rtt_race::program::{EhLabels, Loc, Prog};
use rtt_race::Race;
use std::collections::BTreeSet;

/// A maximal range of locations on which one strand pair races with
/// one kind. The static analogue of a deduplicated [`Race`] witness:
/// expanding `lo..=hi` yields exactly the dynamic witnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceSummary {
    /// First racing location of the range.
    pub lo: Loc,
    /// Last racing location of the range (inclusive).
    pub hi: Loc,
    /// Lower strand id of the racing pair.
    pub a: usize,
    /// Higher strand id of the racing pair (`a < b`).
    pub b: usize,
    /// Whether both strands write in the range (write-write race);
    /// otherwise exactly one writes and the other only reads.
    pub write_write: bool,
}

impl RaceSummary {
    /// Number of distinct racing locations the summary covers.
    pub fn width(&self) -> u64 {
        self.hi - self.lo + 1
    }
}

/// Statically analyzes `prog` for determinacy races via footprint
/// summaries. Returns maximal-range summaries sorted by
/// `(lo, hi, a, b)`; see the module docs for the witness-set contract
/// with [`rtt_race::detect_races`].
pub fn analyze_races(prog: &Prog) -> Vec<RaceSummary> {
    let (fps, labels) = footprints(prog);
    analyze_footprints(&fps, &labels)
}

/// [`analyze_races`] on pre-built summaries (the benchmark harness
/// separates summary construction from intersection).
///
/// Implementation notes: the hot state is packed into machine words so
/// every sort and search touches flat integers — a boundary event's
/// meta word is `sid·4 | start·2 | write`, an active run is
/// `sid·2 | write`, a segment pair key is `(a·2³² | b)·2 | write_write`
/// (strand ids fit `u32` because [`EhLabels`] stores `u32` orders).
/// When every boundary position also fits 32 bits — the overwhelmingly
/// common case — position and meta pack into **one** `u64` per event
/// and the dominant sort runs on plain machine words; wider programs
/// take a `(Loc, meta)` tuple fallback with identical ordering.
pub fn analyze_footprints(fps: &[StrandFootprint], labels: &EhLabels) -> Vec<RaceSummary> {
    assert!(
        fps.len() < (1 << 30),
        "event and pair keys pack strand ids alongside flag bits into 64 bits"
    );
    // 0. write-interval prefilter: a race needs a writer on the
    // location, so any run disjoint from every write interval can be
    // dropped before the sweep sees it — it only ever covers read-only
    // segments, and its boundaries provably cannot fall strictly
    // inside a write interval (that would make it overlap), so no
    // fragmentation a surviving summary depends on is lost. Read-heavy
    // programs shed most of their event volume here.
    let mut write_iv: Vec<(Loc, Loc)> = fps
        .iter()
        .flat_map(|fp| fp.runs.iter())
        .filter(|r| r.mask & WRITE != 0)
        .map(|r| (r.lo, r.hi))
        .collect();
    write_iv.sort_unstable();
    let mut merged: Vec<(Loc, Loc)> = Vec::new();
    for (lo, hi) in write_iv {
        match merged.last_mut() {
            // merging adjacent intervals too keeps the list short and
            // stays exact: their union has no interior gap
            Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    let racable = |r: &&FootprintRun| {
        let i = merged.partition_point(|&(_, mhi)| mhi < r.lo);
        i < merged.len() && merged[i].0 <= r.hi
    };
    // 1. sweep events: a start and (unless the run touches Loc::MAX)
    // an end boundary per surviving run
    let runs: usize = fps.iter().map(|fp| fp.runs.len()).sum();
    let narrow = fps.iter().all(|fp| {
        fp.runs
            .iter()
            .all(|r| r.hi.checked_add(1).unwrap_or(r.lo) < (1 << 32))
    });
    if narrow {
        let mut events: Vec<u64> = Vec::with_capacity(2 * runs);
        for (sid, fp) in fps.iter().enumerate() {
            let sid = sid as u64;
            for r in fp.runs.iter().filter(racable) {
                let w = u64::from(r.mask & WRITE != 0);
                events.push(r.lo << 32 | sid << 2 | 1 << 1 | w);
                if let Some(end) = r.hi.checked_add(1) {
                    events.push(end << 32 | sid << 2 | w);
                }
            }
        }
        events.sort_unstable();
        sweep(
            events.iter().map(|&e| (e >> 32, e & u64::from(u32::MAX))),
            labels,
        )
    } else {
        let mut events: Vec<(Loc, u64)> = Vec::with_capacity(2 * runs);
        for (sid, fp) in fps.iter().enumerate() {
            let sid = sid as u64;
            for r in fp.runs.iter().filter(racable) {
                let w = u64::from(r.mask & WRITE != 0);
                events.push((r.lo, sid << 2 | 1 << 1 | w));
                if let Some(end) = r.hi.checked_add(1) {
                    events.push((end, sid << 2 | w));
                }
            }
        }
        events.sort_unstable();
        sweep(events.into_iter(), labels)
    }
}

/// The segment sweep over sorted `(position, sid·4 | start·2 | write)`
/// boundary events; see [`analyze_footprints`] for the event encodings
/// it is instantiated with.
fn sweep(events: impl Iterator<Item = (Loc, u64)>, labels: &EhLabels) -> Vec<RaceSummary> {
    // at equal positions a strand's end event sorts before its start
    // event (the packed layout puts the start bit above the write bit,
    // so ends come first per sid), letting a mask change between
    // adjacent runs swap the entry in place
    let mut events = events.peekable();
    let mut active: Vec<u64> = Vec::new(); // sid << 1 | write, ascending
    let mut writers: Vec<u64> = Vec::new();
    let mut readers: Vec<u64> = Vec::new();
    let mut cur: Vec<u64> = Vec::new(); // this segment's pair keys
    let mut prev: Vec<(u64, u32)> = Vec::new(); // open (key, out index)
    let mut carry: Vec<(u64, u32)> = Vec::new();
    let mut out: Vec<RaceSummary> = Vec::new();

    // 2+3. pair the segment's writers, then merge-join against the
    // adjacent previous segment's open summaries: extend on a key
    // match, open on a new key, close (drop) on a vanished one
    let mut emit = |seg_lo: Loc,
                    seg_hi: Loc,
                    active: &[u64],
                    prev: &mut Vec<(u64, u32)>,
                    out: &mut Vec<RaceSummary>| {
        writers.clear();
        readers.clear();
        for &e in active {
            if e & 1 != 0 {
                writers.push(e >> 1);
            } else {
                readers.push(e >> 1);
            }
        }
        // a strand that both reads and writes a segment is a writer:
        // against another writer the severe write-write witness wins,
        // exactly the dynamic detector's dedup preference
        cur.clear();
        if !writers.is_empty() {
            for (wi, &a) in writers.iter().enumerate() {
                for &b in &writers[wi + 1..] {
                    if labels.parallel(a as usize, b as usize) {
                        cur.push((a << 32 | b) << 1 | 1);
                    }
                }
                for &r in &readers {
                    if labels.parallel(a as usize, r as usize) {
                        cur.push((a.min(r) << 32 | a.max(r)) << 1);
                    }
                }
            }
            cur.sort_unstable();
            cur.dedup();
        }
        carry.clear();
        let mut pi = 0;
        for &key in &cur {
            while pi < prev.len() && prev[pi].0 < key {
                pi += 1; // pair gone: its summary is already complete
            }
            if pi < prev.len() && prev[pi].0 == key {
                let idx = prev[pi].1;
                out[idx as usize].hi = seg_hi;
                carry.push((key, idx));
                pi += 1;
            } else {
                let idx = out.len() as u32;
                out.push(RaceSummary {
                    lo: seg_lo,
                    hi: seg_hi,
                    a: (key >> 33) as usize,
                    b: (key >> 1 & u64::from(u32::MAX)) as usize,
                    write_write: key & 1 != 0,
                });
                carry.push((key, idx));
            }
        }
        std::mem::swap(prev, &mut carry);
    };

    let mut seg_start: Loc = 0;
    while let Some(&(pos, _)) = events.peek() {
        if pos > seg_start {
            if active.is_empty() {
                prev.clear(); // uncovered gap: nothing coalesces across
            } else {
                emit(seg_start, pos - 1, &active, &mut prev, &mut out);
            }
        }
        while let Some(&(p, ev)) = events.peek() {
            if p != pos {
                break;
            }
            let entry = (ev >> 2) << 1 | (ev & 1);
            if ev & 2 != 0 {
                if let Err(i) = active.binary_search(&entry) {
                    active.insert(i, entry);
                }
            } else if let Ok(i) = active.binary_search(&entry) {
                active.remove(i);
            }
            events.next();
        }
        seg_start = pos;
    }
    if !active.is_empty() {
        // only runs ending at Loc::MAX have no end event
        emit(seg_start, Loc::MAX, &active, &mut prev, &mut out);
    }
    out.sort_unstable_by_key(|s| (s.lo, s.hi, s.a, s.b));
    out
}

/// A witness at the dynamic detector's dedup granularity.
pub type Witness = (Loc, usize, usize, bool);

/// Expands static summaries into the dynamic witness set:
/// `(loc, min strand, max strand, write_write)` per racing location.
pub fn witness_set(summaries: &[RaceSummary]) -> BTreeSet<Witness> {
    let mut set = BTreeSet::new();
    for s in summaries {
        for loc in s.lo..=s.hi {
            set.insert((loc, s.a, s.b, s.write_write));
        }
    }
    set
}

/// Projects dynamic [`Race`] reports onto the same witness granularity.
pub fn dynamic_witness_set(races: &[Race]) -> BTreeSet<Witness> {
    races
        .iter()
        .map(|r| (r.loc, r.a.0.min(r.b.0), r.a.0.max(r.b.0), r.write_write))
        .collect()
}

/// Total number of `(loc, strand pair)` witnesses the summaries cover,
/// without expanding them.
pub fn witness_count(summaries: &[RaceSummary]) -> u64 {
    summaries.iter().map(RaceSummary::width).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtt_race::detect_races;
    use rtt_race::program::Op;

    fn assert_matches_dynamic(prog: &Prog) {
        let static_w = witness_set(&analyze_races(prog));
        let dynamic_w = dynamic_witness_set(&detect_races(prog));
        assert_eq!(static_w, dynamic_w);
    }

    #[test]
    fn figure1_two_parallel_increments() {
        let inc = || Prog::update(0, Some(0), vec![]);
        let p = Prog::Par(vec![inc(), inc()]);
        let sums = analyze_races(&p);
        assert_eq!(
            sums,
            vec![RaceSummary {
                lo: 0,
                hi: 0,
                a: 0,
                b: 1,
                write_write: true
            }]
        );
        assert_matches_dynamic(&p);
    }

    #[test]
    fn interval_summaries_coalesce_ranges() {
        // both strands write the whole block 10..=19: one summary
        let block = || Prog::Strand((10..20).map(Op::Write).collect());
        let p = Prog::Par(vec![block(), block()]);
        let sums = analyze_races(&p);
        assert_eq!(
            sums,
            vec![RaceSummary {
                lo: 10,
                hi: 19,
                a: 0,
                b: 1,
                write_write: true
            }]
        );
        assert_eq!(witness_count(&sums), 10);
        assert_matches_dynamic(&p);
    }

    #[test]
    fn partial_overlap_fragments_to_the_intersection() {
        // writer covers 0..=9, reader covers 5..=14: race on 5..=9 only
        let p = Prog::Par(vec![
            Prog::Strand((0..10).map(Op::Write).collect()),
            Prog::Strand((5..15).map(Op::Read).collect()),
        ]);
        let sums = analyze_races(&p);
        assert_eq!(
            sums,
            vec![RaceSummary {
                lo: 5,
                hi: 9,
                a: 0,
                b: 1,
                write_write: false
            }]
        );
        assert_matches_dynamic(&p);
    }

    #[test]
    fn read_only_segments_are_skipped() {
        let p = Prog::Par(vec![
            Prog::Strand((0..100).map(Op::Read).collect()),
            Prog::Strand((0..100).map(Op::Read).collect()),
        ]);
        assert!(analyze_races(&p).is_empty());
        assert_matches_dynamic(&p);
    }

    #[test]
    fn series_composition_suppresses_races() {
        let w = || Prog::Strand(vec![Op::Write(7)]);
        assert!(analyze_races(&Prog::Seq(vec![w(), w()])).is_empty());
        let p = Prog::Seq(vec![
            Prog::Par(vec![w(), Prog::Strand(vec![Op::Write(8)])]),
            Prog::Par(vec![w(), Prog::Strand(vec![Op::Write(8)])]),
        ]);
        assert!(analyze_races(&p).is_empty());
        assert_matches_dynamic(&p);
    }

    #[test]
    fn mixed_read_write_strand_prefers_write_write() {
        // both strands read AND write loc 3: dynamic dedup keeps the
        // write-write witness; the static side must agree
        let rw = || Prog::Strand(vec![Op::Read(3), Op::Write(3)]);
        let p = Prog::Par(vec![rw(), rw()]);
        let sums = analyze_races(&p);
        assert_eq!(sums.len(), 1);
        assert!(sums[0].write_write);
        assert_matches_dynamic(&p);
    }

    #[test]
    fn nested_mix_matches_dynamic() {
        let p = Prog::Seq(vec![
            Prog::Strand(vec![Op::Write(0)]),
            Prog::Par(vec![
                Prog::update(0, Some(1), vec![2]),
                Prog::Seq(vec![
                    Prog::Strand(vec![Op::Write(1)]),
                    Prog::Strand(vec![Op::Read(0), Op::Write(2)]),
                ]),
                Prog::Strand(vec![Op::Read(2)]),
            ]),
            Prog::Strand(vec![Op::Read(0)]),
        ]);
        assert_matches_dynamic(&p);
    }

    #[test]
    fn parallel_mm_racy_witness_count() {
        // Figure 3, racy variant: every z(i,j) is written by the n
        // k-strands — C(n,2) racing pairs per output cell
        let n = 4usize;
        let (p, _layout) = rtt_race::mm::parallel_mm_racy(n as u64);
        let sums = analyze_races(&p);
        assert_eq!(witness_count(&sums), (n * (n - 1) / 2 * n * n) as u64);
        assert!(sums.iter().all(|s| s.write_write));
        assert_matches_dynamic(&p);
    }

    #[test]
    fn parallel_mm_safe_is_race_free() {
        let (p, _layout) = rtt_race::mm::parallel_mm(4);
        assert!(analyze_races(&p).is_empty());
        assert_matches_dynamic(&p);
    }
}
