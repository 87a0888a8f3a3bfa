//! Fork-join program IR.
//!
//! The paper restricts attention to programs whose parallel structure is
//! fork-join (series-parallel): exactly what `spawn`/`sync` (Cilk) or
//! `parallel for` (OpenMP) produce, and the class for which two linear
//! orders certify logical parallelism. A [`Prog`] is a tree of
//! sequential and parallel compositions over *strands* (maximal
//! instruction sequences without parallel control).

/// A memory location identifier.
pub type Loc = u64;

/// One operation of a strand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// A plain read of a location.
    Read(Loc),
    /// A plain write (not an accumulation) to a location.
    Write(Loc),
    /// An associative/commutative *update* of `target`, consuming the
    /// value of `from` (the arc source in the race DAG, keeping
    /// `w = d_in`) and reading `reads` besides.
    Update {
        /// The accumulated location.
        target: Loc,
        /// The location whose value flows into the update (`None` for
        /// updates by constants).
        from: Option<Loc>,
        /// Other locations read by the update (O(1) of them, per §1).
        reads: Vec<Loc>,
    },
}

impl Op {
    /// Locations read by this op.
    pub fn reads(&self) -> Vec<Loc> {
        match self {
            Op::Read(l) => vec![*l],
            Op::Write(_) => vec![],
            Op::Update { from, reads, .. } => {
                let mut v = reads.clone();
                if let Some(f) = from {
                    v.push(*f);
                }
                v
            }
        }
    }

    /// Location written by this op, if any.
    pub fn writes(&self) -> Option<Loc> {
        match self {
            Op::Read(_) => None,
            Op::Write(l) => Some(*l),
            Op::Update { target, .. } => Some(*target),
        }
    }
}

/// A fork-join program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prog {
    /// A strand: straight-line sequence of operations.
    Strand(Vec<Op>),
    /// Sequential composition.
    Seq(Vec<Prog>),
    /// Parallel composition (all children logically parallel).
    Par(Vec<Prog>),
}

impl Prog {
    /// Convenience: a strand with a single update.
    pub fn update(target: Loc, from: Option<Loc>, reads: Vec<Loc>) -> Prog {
        Prog::Strand(vec![Op::Update {
            target,
            from,
            reads,
        }])
    }

    /// Number of strands.
    pub fn strand_count(&self) -> usize {
        match self {
            Prog::Strand(_) => 1,
            Prog::Seq(cs) | Prog::Par(cs) => cs.iter().map(Prog::strand_count).sum(),
        }
    }

    /// Total operation count.
    pub fn op_count(&self) -> usize {
        match self {
            Prog::Strand(ops) => ops.len(),
            Prog::Seq(cs) | Prog::Par(cs) => cs.iter().map(Prog::op_count).sum(),
        }
    }
}

/// English-Hebrew labels: strand `a` is logically parallel to strand `b`
/// iff the two linear orders disagree on them.
#[derive(Debug, Clone)]
pub struct EhLabels {
    /// English (left-to-right everywhere) index per strand.
    pub english: Vec<u32>,
    /// Hebrew (right-to-left under `Par`) index per strand.
    pub hebrew: Vec<u32>,
}

impl EhLabels {
    /// Whether strands `a` and `b` are logically parallel.
    #[inline]
    pub fn parallel(&self, a: usize, b: usize) -> bool {
        a != b && (self.english[a] < self.english[b]) != (self.hebrew[a] < self.hebrew[b])
    }
}

/// Flattened program: strands with their operations, plus EH labels.
#[derive(Debug, Clone)]
pub struct Flattened {
    /// Operations per strand, in strand id order.
    pub strands: Vec<Vec<Op>>,
    /// The parallelism certificate.
    pub labels: EhLabels,
}

/// Flattens a program into labelled strands.
pub fn flatten(prog: &Prog) -> Flattened {
    let mut strands = Vec::new();
    collect_strands(prog, &mut strands);
    let n = strands.len();
    let mut english = vec![0u32; n];
    let mut hebrew = vec![0u32; n];
    let mut e_next = 0u32;
    let mut h_next = 0u32;
    let mut idx = 0usize;
    label_english(prog, &mut english, &mut e_next, &mut idx);
    let mut idx = 0usize;
    label_hebrew(prog, &mut hebrew, &mut h_next, &mut idx);
    Flattened {
        strands,
        labels: EhLabels { english, hebrew },
    }
}

/// The EH labels alone, **without** materializing per-strand op
/// vectors. [`flatten`] clones every operation into its `strands`
/// table; callers that only need the may-happen-in-parallel relation
/// (the static analyzer's footprint pass walks the tree itself) get
/// the labels here at O(strands) extra space instead of O(ops).
pub fn labels(prog: &Prog) -> EhLabels {
    let n = prog.strand_count();
    let mut english = vec![0u32; n];
    let mut hebrew = vec![0u32; n];
    let mut e_next = 0u32;
    let mut h_next = 0u32;
    let mut idx = 0usize;
    label_english(prog, &mut english, &mut e_next, &mut idx);
    let mut idx = 0usize;
    label_hebrew(prog, &mut hebrew, &mut h_next, &mut idx);
    EhLabels { english, hebrew }
}

fn collect_strands(prog: &Prog, out: &mut Vec<Vec<Op>>) {
    match prog {
        Prog::Strand(ops) => out.push(ops.clone()),
        Prog::Seq(cs) | Prog::Par(cs) => {
            for c in cs {
                collect_strands(c, out);
            }
        }
    }
}

/// English order: plain left-to-right DFS (strand ids are assigned in
/// the same DFS, so `english[i] == i` — kept explicit for symmetry).
fn label_english(prog: &Prog, out: &mut [u32], next: &mut u32, idx: &mut usize) {
    match prog {
        Prog::Strand(_) => {
            out[*idx] = *next;
            *next += 1;
            *idx += 1;
        }
        Prog::Seq(cs) | Prog::Par(cs) => {
            for c in cs {
                label_english(c, out, next, idx);
            }
        }
    }
}

/// Hebrew order: children of `Par` visited right-to-left; strand ids
/// still advance in English order, so we must walk ids consistently —
/// we walk the tree left-to-right to track ids, but assign the Hebrew
/// *rank* by visiting Par children in reverse.
fn label_hebrew(prog: &Prog, out: &mut [u32], next: &mut u32, idx: &mut usize) {
    // assign ids first (English DFS), then rank in Hebrew order via a
    // second traversal that knows each subtree's id range.
    fn sizes(prog: &Prog) -> usize {
        prog.strand_count()
    }
    match prog {
        Prog::Strand(_) => {
            out[*idx] = *next;
            *next += 1;
            *idx += 1;
        }
        Prog::Seq(cs) => {
            for c in cs {
                label_hebrew(c, out, next, idx);
            }
        }
        Prog::Par(cs) => {
            // children occupy consecutive id ranges starting at *idx
            let base = *idx;
            let mut starts = Vec::with_capacity(cs.len());
            let mut acc = base;
            for c in cs {
                starts.push(acc);
                acc += sizes(c);
            }
            // visit right-to-left, but recurse with the child's own idx
            for (c, &start) in cs.iter().zip(&starts).rev() {
                let mut sub_idx = start;
                label_hebrew(c, out, next, &mut sub_idx);
            }
            *idx = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strand(loc: Loc) -> Prog {
        Prog::Strand(vec![Op::Write(loc)])
    }

    #[test]
    fn seq_strands_are_series() {
        let p = Prog::Seq(vec![strand(0), strand(1), strand(2)]);
        let f = flatten(&p);
        assert_eq!(f.strands.len(), 3);
        for a in 0..3 {
            for b in 0..3 {
                assert!(!f.labels.parallel(a, b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn par_strands_are_parallel() {
        let p = Prog::Par(vec![strand(0), strand(1)]);
        let f = flatten(&p);
        assert!(f.labels.parallel(0, 1));
        assert!(f.labels.parallel(1, 0));
        assert!(!f.labels.parallel(0, 0));
    }

    #[test]
    fn nested_mix() {
        // Seq[ s0, Par[ s1, Seq[s2, s3] ], s4 ]
        let p = Prog::Seq(vec![
            strand(0),
            Prog::Par(vec![strand(1), Prog::Seq(vec![strand(2), strand(3)])]),
            strand(4),
        ]);
        let f = flatten(&p);
        // s1 parallel to s2 and s3; s2 series s3; s0/s4 series everything
        assert!(f.labels.parallel(1, 2));
        assert!(f.labels.parallel(1, 3));
        assert!(!f.labels.parallel(2, 3));
        for x in 1..=3 {
            assert!(!f.labels.parallel(0, x));
            assert!(!f.labels.parallel(x, 4));
        }
    }

    #[test]
    fn deep_nesting_parallelism() {
        // Par[ Par[a, b], Par[c, d] ]: all pairs parallel
        let p = Prog::Par(vec![
            Prog::Par(vec![strand(0), strand(1)]),
            Prog::Par(vec![strand(2), strand(3)]),
        ]);
        let f = flatten(&p);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(f.labels.parallel(a, b), a != b);
            }
        }
    }

    #[test]
    fn seq_of_pars_cross_series() {
        // Seq[ Par[a,b], Par[c,d] ]: a∥b, c∥d, but a,b series to c,d.
        let p = Prog::Seq(vec![
            Prog::Par(vec![strand(0), strand(1)]),
            Prog::Par(vec![strand(2), strand(3)]),
        ]);
        let f = flatten(&p);
        assert!(f.labels.parallel(0, 1));
        assert!(f.labels.parallel(2, 3));
        for a in 0..2 {
            for b in 2..4 {
                assert!(!f.labels.parallel(a, b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn op_accessors() {
        let u = Op::Update {
            target: 9,
            from: Some(1),
            reads: vec![2, 3],
        };
        assert_eq!(u.writes(), Some(9));
        let mut r = u.reads();
        r.sort_unstable();
        assert_eq!(r, vec![1, 2, 3]);
        assert_eq!(Op::Read(5).reads(), vec![5]);
        assert_eq!(Op::Write(5).writes(), Some(5));
    }

    #[test]
    fn labels_only_matches_flatten() {
        let p = Prog::Seq(vec![
            strand(0),
            Prog::Par(vec![strand(1), Prog::Seq(vec![strand(2), strand(3)])]),
            Prog::Par(vec![strand(4), strand(5)]),
        ]);
        let f = flatten(&p);
        let l = labels(&p);
        assert_eq!(f.labels.english, l.english);
        assert_eq!(f.labels.hebrew, l.hebrew);
    }

    #[test]
    fn counts() {
        let p = Prog::Seq(vec![
            Prog::Strand(vec![Op::Read(0), Op::Write(1)]),
            Prog::Par(vec![strand(2), strand(3)]),
        ]);
        assert_eq!(p.strand_count(), 3);
        assert_eq!(p.op_count(), 4);
    }
}
