//! 1-in-3SAT: formulas, brute force, enumeration.
//!
//! 1-in-3SAT (Schaefer): given clauses of three literals, is there an
//! assignment making **exactly one** literal per clause true? Strongly
//! NP-hard; the source of every reduction in §4.1–4.2.

/// A literal: variable index + polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit {
    /// Variable index `0..n_vars`.
    pub var: usize,
    /// `true` for `V`, `false` for `¬V`.
    pub positive: bool,
}

impl Lit {
    /// Positive literal.
    pub fn pos(var: usize) -> Self {
        Lit {
            var,
            positive: true,
        }
    }
    /// Negative literal.
    pub fn neg(var: usize) -> Self {
        Lit {
            var,
            positive: false,
        }
    }
    /// Truth value under an assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assignment[self.var] == self.positive
    }
}

/// A 1-in-3SAT formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Formula {
    /// Number of variables.
    pub n_vars: usize,
    /// Clauses of exactly three literals.
    pub clauses: Vec<[Lit; 3]>,
}

impl Formula {
    /// New formula; panics if a literal references a missing variable.
    pub fn new(n_vars: usize, clauses: Vec<[Lit; 3]>) -> Self {
        for c in &clauses {
            for l in c {
                assert!(l.var < n_vars, "literal references variable {}", l.var);
            }
        }
        Formula { n_vars, clauses }
    }

    /// Number of clauses (`m`).
    pub fn n_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Does `assignment` make exactly one literal true in every clause?
    pub fn satisfied_1in3(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.n_vars);
        self.clauses
            .iter()
            .all(|c| c.iter().filter(|l| l.eval(assignment)).count() == 1)
    }

    /// Does `assignment` make at least one literal true per clause
    /// (ordinary 3SAT satisfaction — used by the Theorem 4.4 chain)?
    pub fn satisfied_3sat(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.n_vars);
        self.clauses
            .iter()
            .all(|c| c.iter().any(|l| l.eval(assignment)))
    }

    /// Brute-force 1-in-3 solver (use for `n_vars ≲ 24`).
    pub fn solve_1in3(&self) -> Option<Vec<bool>> {
        self.enumerate(|f, a| f.satisfied_1in3(a))
    }

    fn enumerate(&self, ok: impl Fn(&Formula, &[bool]) -> bool) -> Option<Vec<bool>> {
        assert!(self.n_vars < 26, "brute force limited to < 26 variables");
        for mask in 0u32..(1u32 << self.n_vars) {
            let a: Vec<bool> = (0..self.n_vars).map(|i| mask >> i & 1 == 1).collect();
            if ok(self, &a) {
                return Some(a);
            }
        }
        None
    }

    /// The paper's running example: `(V1 ∨ ¬V2 ∨ V3) ∧ (¬V1 ∨ V2 ∨ V3)`
    /// (Figure 9), 1-in-3 satisfiable with `V1 = V2 = TRUE, V3 = FALSE`.
    pub fn paper_example() -> Formula {
        Formula::new(
            3,
            vec![
                [Lit::pos(0), Lit::neg(1), Lit::pos(2)],
                [Lit::neg(0), Lit::pos(1), Lit::pos(2)],
            ],
        )
    }

    /// Exhaustively enumerates all formulas with `n_vars` variables and
    /// `m` clauses over *positive* literal index combinations with all
    /// polarity patterns (small universes for exhaustive lemma checks).
    pub fn enumerate_all(n_vars: usize, m: usize) -> Vec<Formula> {
        let mut triples = Vec::new();
        for a in 0..n_vars {
            for b in (a + 1)..n_vars {
                for c in (b + 1)..n_vars {
                    for pol in 0..8u8 {
                        triples.push([
                            Lit {
                                var: a,
                                positive: pol & 1 != 0,
                            },
                            Lit {
                                var: b,
                                positive: pol & 2 != 0,
                            },
                            Lit {
                                var: c,
                                positive: pol & 4 != 0,
                            },
                        ]);
                    }
                }
            }
        }
        let mut out = Vec::new();
        let mut idx = vec![0usize; m];
        loop {
            out.push(Formula::new(
                n_vars,
                idx.iter().map(|&i| triples[i]).collect(),
            ));
            // next multi-index (combinations with repetition)
            let mut k = m;
            loop {
                if k == 0 {
                    return out;
                }
                k -= 1;
                if idx[k] + 1 < triples.len() {
                    idx[k] += 1;
                    for j in (k + 1)..m {
                        idx[j] = idx[k];
                    }
                    break;
                }
            }
        }
    }

    /// Random formula with the given shape.
    pub fn random<R: rand::Rng>(rng: &mut R, n_vars: usize, m: usize) -> Formula {
        assert!(n_vars >= 3);
        let clauses = (0..m)
            .map(|_| {
                let mut vars = [0usize; 3];
                vars[0] = rng.random_range(0..n_vars);
                loop {
                    vars[1] = rng.random_range(0..n_vars);
                    if vars[1] != vars[0] {
                        break;
                    }
                }
                loop {
                    vars[2] = rng.random_range(0..n_vars);
                    if vars[2] != vars[0] && vars[2] != vars[1] {
                        break;
                    }
                }
                [
                    Lit {
                        var: vars[0],
                        positive: rng.random_bool(0.5),
                    },
                    Lit {
                        var: vars[1],
                        positive: rng.random_bool(0.5),
                    },
                    Lit {
                        var: vars[2],
                        positive: rng.random_bool(0.5),
                    },
                ]
            })
            .collect();
        Formula::new(n_vars, clauses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_satisfiable_as_stated() {
        let f = Formula::paper_example();
        // Figure 9 caption: V1 = TRUE, V2 = TRUE, V3 = FALSE works.
        assert!(f.satisfied_1in3(&[true, true, false]));
        let sol = f.solve_1in3().unwrap();
        assert!(f.satisfied_1in3(&sol));
    }

    #[test]
    fn exactly_one_vs_at_least_one() {
        let f = Formula::new(3, vec![[Lit::pos(0), Lit::pos(1), Lit::pos(2)]]);
        assert!(f.satisfied_3sat(&[true, true, false]));
        assert!(!f.satisfied_1in3(&[true, true, false]));
        assert!(f.satisfied_1in3(&[true, false, false]));
    }

    #[test]
    fn unsatisfiable_instance() {
        // x ∨ x̄-type trap: with clauses forcing contradictory patterns.
        // (a ∨ b ∨ c) three times with all-positive and the requirement
        // of exactly one true is satisfiable; build a real unsat case:
        // (a∨b∨c), (¬a∨¬b∨c), (a∨¬b∨¬c), (¬a∨b∨¬c) has no 1-in-3 model.
        let f = Formula::new(
            3,
            vec![
                [Lit::pos(0), Lit::pos(1), Lit::pos(2)],
                [Lit::neg(0), Lit::neg(1), Lit::pos(2)],
                [Lit::pos(0), Lit::neg(1), Lit::neg(2)],
                [Lit::neg(0), Lit::pos(1), Lit::neg(2)],
            ],
        );
        assert!(f.solve_1in3().is_none());
    }

    #[test]
    fn enumerate_all_counts() {
        // 3 vars: C(3,3)=1 index combo × 8 polarities = 8 triples;
        // m=1 -> 8 formulas; m=2 -> multichoose(8,2) = 36.
        assert_eq!(Formula::enumerate_all(3, 1).len(), 8);
        assert_eq!(Formula::enumerate_all(3, 2).len(), 36);
    }

    #[test]
    fn random_formulas_valid() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let f = Formula::random(&mut rng, 5, 4);
            assert_eq!(f.n_clauses(), 4);
            for c in &f.clauses {
                assert!(c[0].var != c[1].var && c[1].var != c[2].var);
            }
        }
    }
}
