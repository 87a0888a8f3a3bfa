//! Per-strand access-footprint summaries: the static analyzer's view
//! of a program.
//!
//! [`detect_races`](crate::detect_races) materializes every concrete
//! access per location — exact, but its cost tracks the *operation*
//! count (Parallel-MM at n touches ~n³ updates). A
//! [`StrandFootprint`] instead compresses a strand's accesses into a
//! sorted list of disjoint location *runs*, each tagged with a
//! read/write mask: the summary's size tracks the strand's *distinct
//! location ranges*, which is what `rtt_analyze` intersects under the
//! EH may-happen-in-parallel relation without ever building
//! per-location access lists.
//!
//! [`footprints`] walks the program tree directly (no
//! [`flatten`](crate::program::flatten) op cloning) and pairs the
//! summaries with the [`EhLabels`] parallelism certificate.

use crate::program::{labels, EhLabels, Loc, Op, Prog};

/// Mask bit: the strand reads somewhere in the run.
pub const READ: u8 = 1;
/// Mask bit: the strand writes somewhere in the run.
pub const WRITE: u8 = 2;

/// A maximal run of contiguous locations a strand accesses with one
/// uniform read/write mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FootprintRun {
    /// First location of the run.
    pub lo: Loc,
    /// Last location of the run (inclusive; `lo == hi` for a single
    /// location).
    pub hi: Loc,
    /// Bitwise OR of [`READ`] / [`WRITE`] over the run's accesses.
    pub mask: u8,
}

/// One strand's access summary: sorted, disjoint, mask-uniform runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrandFootprint {
    /// Runs in increasing location order; adjacent runs differ in mask
    /// (equal-mask neighbours are coalesced).
    pub runs: Vec<FootprintRun>,
}

impl StrandFootprint {
    /// Builds the canonical summary from raw `(location, mask)`
    /// accesses: sort, OR masks per location, coalesce contiguous
    /// equal-mask locations into runs.
    pub fn from_accesses(mut accesses: Vec<(Loc, u8)>) -> Self {
        Self::from_scratch(&mut accesses)
    }

    /// [`from_accesses`](Self::from_accesses) on a caller-owned scratch
    /// buffer, so a loop building many footprints ([`footprints`])
    /// reuses one allocation instead of paying two per strand. Leaves
    /// `accesses` in an unspecified state.
    fn from_scratch(accesses: &mut [(Loc, u8)]) -> Self {
        accesses.sort_unstable();
        // collapse duplicate locations in place, OR-ing their masks
        let mut n = 0usize;
        for i in 0..accesses.len() {
            let (loc, mask) = accesses[i];
            if n > 0 && accesses[n - 1].0 == loc {
                accesses[n - 1].1 |= mask;
            } else {
                accesses[n] = (loc, mask);
                n += 1;
            }
        }
        // interval-compress contiguous equal-mask locations
        let mut runs: Vec<FootprintRun> = Vec::with_capacity(n);
        for &(loc, mask) in &accesses[..n] {
            match runs.last_mut() {
                Some(last) if last.mask == mask && last.hi.checked_add(1) == Some(loc) => {
                    last.hi = loc;
                }
                _ => runs.push(FootprintRun {
                    lo: loc,
                    hi: loc,
                    mask,
                }),
            }
        }
        StrandFootprint { runs }
    }
}

/// Builds every strand's footprint (in strand-id order — the same
/// left-to-right DFS order [`flatten`](crate::program::flatten) uses)
/// plus the EH labels, walking the tree once without cloning ops.
pub fn footprints(prog: &Prog) -> (Vec<StrandFootprint>, EhLabels) {
    let mut out = Vec::with_capacity(prog.strand_count());
    let mut scratch = Vec::new();
    walk(prog, &mut out, &mut scratch);
    (out, labels(prog))
}

fn walk(prog: &Prog, out: &mut Vec<StrandFootprint>, scratch: &mut Vec<(Loc, u8)>) {
    match prog {
        Prog::Strand(ops) => {
            let accesses = scratch;
            accesses.clear();
            for op in ops {
                match op {
                    Op::Read(l) => accesses.push((*l, READ)),
                    Op::Write(l) => accesses.push((*l, WRITE)),
                    Op::Update {
                        target,
                        from,
                        reads,
                    } => {
                        accesses.push((*target, WRITE));
                        if let Some(f) = from {
                            accesses.push((*f, READ));
                        }
                        for r in reads {
                            accesses.push((*r, READ));
                        }
                    }
                }
            }
            out.push(StrandFootprint::from_scratch(accesses));
        }
        Prog::Seq(children) | Prog::Par(children) => {
            for c in children {
                walk(c, out, scratch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accesses_compress_into_runs() {
        // reads 0,1,2 / writes 3,4 / read+write 6
        let fp = StrandFootprint::from_accesses(vec![
            (2, READ),
            (0, READ),
            (1, READ),
            (4, WRITE),
            (3, WRITE),
            (6, READ),
            (6, WRITE),
        ]);
        assert_eq!(
            fp.runs,
            vec![
                FootprintRun {
                    lo: 0,
                    hi: 2,
                    mask: READ
                },
                FootprintRun {
                    lo: 3,
                    hi: 4,
                    mask: WRITE
                },
                FootprintRun {
                    lo: 6,
                    hi: 6,
                    mask: READ | WRITE
                },
            ]
        );
    }

    #[test]
    fn mask_change_splits_a_run() {
        let fp = StrandFootprint::from_accesses(vec![(0, READ), (1, WRITE), (2, READ)]);
        assert_eq!(fp.runs.len(), 3);
        assert!(fp.runs.windows(2).all(|w| w[0].hi < w[1].lo));
    }

    #[test]
    fn footprints_follow_strand_id_order() {
        let p = Prog::Seq(vec![
            Prog::Strand(vec![Op::Write(0)]),
            Prog::Par(vec![
                Prog::update(5, Some(0), vec![1]),
                Prog::Strand(vec![Op::Read(5)]),
            ]),
        ]);
        let (fps, labels) = footprints(&p);
        assert_eq!(fps.len(), 3);
        assert_eq!(
            fps[0].runs,
            vec![FootprintRun {
                lo: 0,
                hi: 0,
                mask: WRITE
            }]
        );
        assert_eq!(
            fps[1].runs,
            vec![
                FootprintRun {
                    lo: 0,
                    hi: 1,
                    mask: READ
                },
                FootprintRun {
                    lo: 5,
                    hi: 5,
                    mask: WRITE
                },
            ]
        );
        assert_eq!(
            fps[2].runs,
            vec![FootprintRun {
                lo: 5,
                hi: 5,
                mask: READ
            }]
        );
        assert!(labels.parallel(1, 2));
        assert!(!labels.parallel(0, 1));
    }

    #[test]
    fn saturating_boundary_is_not_coalesced_past_loc_max() {
        let fp = StrandFootprint::from_accesses(vec![(Loc::MAX, WRITE), (Loc::MAX - 1, WRITE)]);
        assert_eq!(
            fp.runs,
            vec![FootprintRun {
                lo: Loc::MAX - 1,
                hi: Loc::MAX,
                mask: WRITE
            }]
        );
    }
}
