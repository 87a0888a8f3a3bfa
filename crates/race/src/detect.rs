//! Determinacy-race detection on fork-join programs.

use crate::program::{flatten, Loc, Prog};
use std::collections::BTreeMap;

/// A reported determinacy race.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// The contested memory location.
    pub loc: Loc,
    /// `(strand, op index)` of the first access.
    pub a: (usize, usize),
    /// `(strand, op index)` of the second access.
    pub b: (usize, usize),
    /// Whether both accesses write (write-write race) — otherwise one
    /// reads and one writes.
    pub write_write: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
}

/// Detects all determinacy races of `prog`: pairs of accesses to the
/// same location, at least one writing, from logically parallel strands
/// (§1's definition). Updates count as writes to their target and reads
/// of their sources.
///
/// Deduplicated per (location, strand pair): one witness is reported per
/// racing strand pair and location, preferring a write-write witness
/// (the severe kind) when both kinds occur.
pub fn detect_races(prog: &Prog) -> Vec<Race> {
    let f = flatten(prog);
    // location -> [(strand, op idx, kind)]; ordered map so every
    // downstream iteration — and hence the report order — is a pure
    // function of the program, never of hasher state
    let mut accesses: BTreeMap<Loc, Vec<(usize, usize, Kind)>> = BTreeMap::new();
    for (sid, ops) in f.strands.iter().enumerate() {
        for (oid, op) in ops.iter().enumerate() {
            for l in op.reads() {
                accesses.entry(l).or_default().push((sid, oid, Kind::Read));
            }
            if let Some(l) = op.writes() {
                accesses.entry(l).or_default().push((sid, oid, Kind::Write));
            }
        }
    }
    let mut witnesses: BTreeMap<(Loc, usize, usize), Race> = BTreeMap::new();
    for (&loc, list) in &accesses {
        for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                let (sa, oa, ka) = list[i];
                let (sb, ob, kb) = list[j];
                if ka == Kind::Read && kb == Kind::Read {
                    continue;
                }
                if !f.labels.parallel(sa, sb) {
                    continue;
                }
                let ww = ka == Kind::Write && kb == Kind::Write;
                let key = (loc, sa.min(sb), sa.max(sb));
                let race = Race {
                    loc,
                    a: (sa, oa),
                    b: (sb, ob),
                    write_write: ww,
                };
                witnesses
                    .entry(key)
                    .and_modify(|r| {
                        if ww && !r.write_write {
                            *r = race.clone();
                        }
                    })
                    .or_insert(race);
            }
        }
    }
    let mut races: Vec<Race> = witnesses.into_values().collect();
    races.sort_by_key(|r| (r.loc, r.a, r.b));
    races
}

/// Whether the program has any determinacy race (early-exit variant).
pub fn has_race(prog: &Prog) -> bool {
    !detect_races(prog).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Op;

    /// Figure 1: two parallel strands each incrementing x (location 0).
    fn figure1() -> Prog {
        let inc = || Prog::update(0, Some(0), vec![]);
        Prog::Par(vec![inc(), inc()])
    }

    #[test]
    fn figure1_races() {
        let races = detect_races(&figure1());
        assert_eq!(races.len(), 1, "one racing strand pair on x");
        assert!(races[0].write_write);
        assert_eq!(races[0].loc, 0);
    }

    #[test]
    fn serial_increments_race_free() {
        let inc = || Prog::update(0, Some(0), vec![]);
        let p = Prog::Seq(vec![inc(), inc()]);
        assert!(!has_race(&p));
    }

    #[test]
    fn read_read_is_not_a_race() {
        let rd = || Prog::Strand(vec![Op::Read(7)]);
        let p = Prog::Par(vec![rd(), rd()]);
        assert!(!has_race(&p));
    }

    #[test]
    fn read_write_is_a_race() {
        let p = Prog::Par(vec![
            Prog::Strand(vec![Op::Read(7)]),
            Prog::Strand(vec![Op::Write(7)]),
        ]);
        let races = detect_races(&p);
        assert_eq!(races.len(), 1);
        assert!(!races[0].write_write);
    }

    #[test]
    fn disjoint_locations_race_free() {
        let p = Prog::Par(vec![
            Prog::Strand(vec![Op::Write(1)]),
            Prog::Strand(vec![Op::Write(2)]),
        ]);
        assert!(!has_race(&p));
    }

    #[test]
    fn update_reads_race_with_parallel_write() {
        // strand A updates t reading from s; strand B writes s: race on s.
        let p = Prog::Par(vec![
            Prog::update(10, Some(5), vec![]),
            Prog::Strand(vec![Op::Write(5)]),
        ]);
        let races = detect_races(&p);
        assert!(races.iter().any(|r| r.loc == 5 && !r.write_write));
    }

    #[test]
    fn nested_join_removes_race() {
        // Par inside a Seq: the two phases don't race across the join.
        let p = Prog::Seq(vec![
            Prog::Par(vec![
                Prog::Strand(vec![Op::Write(1)]),
                Prog::Strand(vec![Op::Write(2)]),
            ]),
            Prog::Par(vec![
                Prog::Strand(vec![Op::Write(1)]),
                Prog::Strand(vec![Op::Write(2)]),
            ]),
        ]);
        assert!(!has_race(&p));
    }

    #[test]
    fn many_parallel_updaters_one_pairwise_race_each() {
        let n = 6;
        let p = Prog::Par((0..n).map(|_| Prog::update(0, Some(0), vec![])).collect());
        let races = detect_races(&p);
        assert_eq!(races.len(), n * (n - 1) / 2);
    }

    /// PR-9 satellite: the report order is canonical — strictly
    /// increasing `(loc, a, b)` — and identical across repeated runs
    /// (witness accumulation is an ordered map, not a hash map, so no
    /// hasher state can leak into the output).
    #[test]
    fn report_order_is_canonical_and_repeatable() {
        let p = Prog::Par(vec![
            Prog::Strand(vec![Op::Write(3), Op::Write(1), Op::Read(2)]),
            Prog::Strand(vec![Op::Write(2), Op::Read(1), Op::Write(3)]),
            Prog::update(1, Some(3), vec![2]),
        ]);
        let races = detect_races(&p);
        assert!(!races.is_empty());
        assert!(
            races
                .windows(2)
                .all(|w| (w[0].loc, w[0].a, w[0].b) < (w[1].loc, w[1].a, w[1].b)),
            "report must be strictly sorted by (loc, a, b): {races:?}"
        );
        for _ in 0..5 {
            assert_eq!(detect_races(&p), races);
        }
    }
}
