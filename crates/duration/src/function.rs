//! The three duration-function families and their canonical step form.

use crate::expand::{reducer_time, ReducerVariant};
use crate::{ceil_div, Resource, Time};
use std::fmt;

/// One resource-time tuple `⟨r, t(r)⟩` (§2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tuple {
    /// Resource level.
    pub resource: Resource,
    /// Duration when given exactly (or at least) this many units.
    pub time: Time,
}

impl Tuple {
    /// Convenience constructor.
    pub fn new(resource: Resource, time: Time) -> Self {
        Tuple { resource, time }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if crate::is_infinite(self.time) {
            write!(f, "<{},inf>", self.resource)
        } else {
            write!(f, "<{},{}>", self.resource, self.time)
        }
    }
}

/// Violations of the Eq. 1 step-function requirements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// The tuple list is empty.
    Empty,
    /// The first tuple must have resource level 0 (`r_{v,1} = 0`).
    FirstNotZero,
    /// Resource levels must be strictly increasing.
    ResourcesNotIncreasing(usize),
    /// Times must be non-increasing.
    TimesIncreasing(usize),
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::Empty => write!(f, "a step function needs at least one tuple"),
            StepError::FirstNotZero => write!(f, "the first tuple must have resource 0"),
            StepError::ResourcesNotIncreasing(i) => {
                write!(f, "resource levels not strictly increasing at tuple {i}")
            }
            StepError::TimesIncreasing(i) => write!(f, "duration increases at tuple {i}"),
        }
    }
}

impl std::error::Error for StepError {}

/// Which family a [`Duration`] belongs to. The single-criteria algorithms
/// of §3.2–3.3 are family-specific, so the tag is retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DurationKind {
    /// General non-increasing step function (Eq. 1).
    Step,
    /// k-way splitting with base duration `d = t_v(0)` (Eq. 2).
    KWay {
        /// Base (zero-resource) duration, i.e. the in-degree `d_in(v)`.
        base: Time,
    },
    /// Recursive binary splitting with base duration `d = t_v(0)` (Eq. 3).
    RecursiveBinary {
        /// Base (zero-resource) duration.
        base: Time,
    },
}

/// A non-increasing duration function `t_v(r)` in canonical step form.
///
/// The canonical breakpoints start at `⟨0, t(0)⟩` and contain exactly the
/// resource levels at which the duration *strictly* drops; therefore
/// `time(r)` is non-increasing by construction for every family,
/// including the slightly bumpy integer versions of Eq. 2/3 (see
/// [`raw_kway_time`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Duration {
    kind: DurationKind,
    /// Canonical breakpoints: `resource` strictly increasing starting at
    /// 0, `time` strictly decreasing.
    tuples: Vec<Tuple>,
}

impl Duration {
    /// General step function from raw tuples (validated per Eq. 1, then
    /// canonicalized by dropping non-improving tuples).
    pub fn step(tuples: Vec<Tuple>) -> Result<Self, StepError> {
        if tuples.is_empty() {
            return Err(StepError::Empty);
        }
        if tuples[0].resource != 0 {
            return Err(StepError::FirstNotZero);
        }
        for i in 1..tuples.len() {
            if tuples[i].resource <= tuples[i - 1].resource {
                return Err(StepError::ResourcesNotIncreasing(i));
            }
            if tuples[i].time > tuples[i - 1].time {
                return Err(StepError::TimesIncreasing(i));
            }
        }
        let mut canon = vec![tuples[0]];
        for t in &tuples[1..] {
            if t.time < canon.last().unwrap().time {
                canon.push(*t);
            }
        }
        Ok(Duration {
            kind: DurationKind::Step,
            tuples: canon,
        })
    }

    /// Constant duration (resources never help).
    pub fn constant(t: Time) -> Self {
        Duration {
            kind: DurationKind::Step,
            tuples: vec![Tuple::new(0, t)],
        }
    }

    /// Zero-duration activity (used for dummy arcs in transformations).
    pub fn zero() -> Self {
        Self::constant(0)
    }

    /// The two-tuple function `{⟨0, t0⟩, ⟨r, t1⟩}` (the shape every arc of
    /// `D''` has after the §3.1 transformation; hardness gadgets use it
    /// with `t1 = 0`).
    pub fn two_point(t0: Time, r: Resource, t1: Time) -> Self {
        assert!(r > 0, "second tuple needs positive resource");
        assert!(t1 <= t0, "duration must be non-increasing");
        Duration::step(vec![Tuple::new(0, t0), Tuple::new(r, t1)]).expect("valid by construction")
    }

    /// k-way splitting duration for a job with base duration `d` (Eq. 2).
    ///
    /// Breakpoints at every useful split arity `k ∈ 2..=⌊√d⌋`.
    pub fn kway(d: Time) -> Self {
        let mut tuples = vec![Tuple::new(0, d)];
        let mut last = d;
        let kmax = isqrt(d);
        for k in 2..=kmax {
            let t = raw_kway_time(d, k);
            if t < last {
                tuples.push(Tuple::new(k, t));
                last = t;
            }
        }
        Duration {
            kind: DurationKind::KWay { base: d },
            tuples,
        }
    }

    /// Recursive binary splitting duration for a job with base duration
    /// `d` (Eq. 3). Breakpoints at `r = 2^i` for heights
    /// `1 ≤ i ≤ k = ⌊log₂ d − log₂ log₂ e⌋` that strictly improve.
    pub fn recursive_binary(d: Time) -> Self {
        let mut tuples = vec![Tuple::new(0, d)];
        let mut last = d;
        for i in 1..=recursive_binary_max_height(d) {
            let t = raw_recursive_binary_time(d, i);
            if t < last {
                tuples.push(Tuple::new(1u64 << i, t));
                last = t;
            }
        }
        Duration {
            kind: DurationKind::RecursiveBinary { base: d },
            tuples,
        }
    }

    /// The family tag.
    #[inline]
    pub fn kind(&self) -> DurationKind {
        self.kind
    }

    /// The largest breakpoint `≤ r`, by binary search.
    fn breakpoint(&self, r: Resource) -> &Tuple {
        match self.tuples.binary_search_by(|t| t.resource.cmp(&r)) {
            Ok(i) => &self.tuples[i],
            Err(0) => unreachable!("first tuple has resource 0"),
            Err(i) => &self.tuples[i - 1],
        }
    }

    /// Duration when `r` units of resource are available:
    /// the time of the largest breakpoint `≤ r`.
    pub fn time(&self, r: Resource) -> Time {
        self.breakpoint(r).time
    }

    /// The level `r` units buy: the resource of the largest breakpoint
    /// `≤ r`, so `time(level(r)) == time(r)`, and since canonical times
    /// strictly fall, no smaller level reaches that time. For the
    /// reducer families a nonzero level is the reducer itself: `2^h`,
    /// the cells of the height-`h` reducer of Eq. 3, or the split arity
    /// `k` of Eq. 2.
    pub fn level(&self, r: Resource) -> Resource {
        self.breakpoint(r).resource
    }

    /// `t_v(0)`, the no-resource duration.
    #[inline]
    pub fn base_time(&self) -> Time {
        self.tuples[0].time
    }

    /// The smallest duration achievable with unlimited resources.
    #[inline]
    pub fn min_time(&self) -> Time {
        self.tuples.last().unwrap().time
    }

    /// The largest useful resource level (more units never help).
    #[inline]
    pub fn max_useful_resource(&self) -> Resource {
        self.tuples.last().unwrap().resource
    }

    /// Canonical breakpoints (strictly increasing `r`, strictly
    /// decreasing `t`, first `r = 0`).
    #[inline]
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of canonical tuples (`l_v` of Eq. 1 after canonicalization).
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Always false (there is at least the `r = 0` tuple).
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The resource levels worth enumerating in exact search: one per
    /// canonical tuple.
    pub fn useful_levels(&self) -> impl ExactSizeIterator<Item = Resource> + '_ {
        self.tuples.iter().map(|t| t.resource)
    }

    /// Smallest resource level achieving duration `≤ target`, if any.
    pub fn resource_for_time(&self, target: Time) -> Option<Resource> {
        self.tuples
            .iter()
            .find(|t| t.time <= target)
            .map(|t| t.resource)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.kind {
            DurationKind::Step => "step",
            DurationKind::KWay { .. } => "kway",
            DurationKind::RecursiveBinary { .. } => "recbin",
        };
        write!(f, "{tag}[")?;
        for (i, t) in self.tuples.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

/// Eq. 2 verbatim: duration of a `k`-way split reducer on a job of base
/// duration `d` (`t_v(0) = d`):
///
/// ```text
/// t_v(k) = d                    if k ∈ {0, 1}
///        = ⌈d/k⌉ + k            if 2 ≤ k ≤ ⌊√d⌋
///        = t_v(⌊√d⌋)            if k > ⌊√d⌋
/// ```
pub fn raw_kway_time(d: Time, k: Resource) -> Time {
    if crate::is_infinite(d) {
        return d;
    }
    let kmax = isqrt(d);
    if k <= 1 || kmax < 2 {
        d
    } else {
        let k = k.min(kmax);
        ceil_div(d, k) + k
    }
}

/// Eq. 3 at a capped height: duration of a recursive binary split
/// reducer of height `i` (using `2^i` cells) on a job of base duration
/// `d`, the sibling [`reducer_time`] `⌈d/2^i⌉ + i + 1` with `i` capped
/// at the optimal height [`recursive_binary_max_height`]. Height 0
/// means no reducer.
pub fn raw_recursive_binary_time(d: Time, height: u32) -> Time {
    if crate::is_infinite(d) {
        return d;
    }
    let i = height.min(recursive_binary_max_height(d));
    reducer_time(d, i, ReducerVariant::Sibling)
}

/// `k = ⌊log₂ d − log₂ log₂ e⌋`, the height minimizing Eq. 3
/// (`log₂ log₂ e ≈ 0.5288`); 0 when `d < 2`.
pub fn recursive_binary_max_height(d: Time) -> u32 {
    if d < 2 || crate::is_infinite(d) {
        return 0;
    }
    let v = (d as f64).log2() - std::f64::consts::E.log2().log2();
    if v < 0.0 {
        0
    } else {
        v.floor() as u32
    }
}

/// Integer square root (floor).
fn isqrt(d: u64) -> u64 {
    if d == 0 {
        return 0;
    }
    let mut x = (d as f64).sqrt() as u64;
    // Correct potential float error in either direction; checked
    // arithmetic keeps the loop honest at the top of the u64 range
    // (saturation would make x² == d == u64::MAX look like a fit).
    while x.checked_mul(x).is_none_or(|sq| sq > d) {
        x -= 1;
    }
    while (x + 1).checked_mul(x + 1).is_some_and(|sq| sq <= d) {
        x += 1;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::INF;

    #[test]
    fn step_validation() {
        assert_eq!(Duration::step(vec![]), Err(StepError::Empty));
        assert_eq!(
            Duration::step(vec![Tuple::new(1, 5)]),
            Err(StepError::FirstNotZero)
        );
        assert_eq!(
            Duration::step(vec![Tuple::new(0, 5), Tuple::new(0, 4)]),
            Err(StepError::ResourcesNotIncreasing(1))
        );
        assert_eq!(
            Duration::step(vec![Tuple::new(0, 5), Tuple::new(2, 6)]),
            Err(StepError::TimesIncreasing(1))
        );
    }

    #[test]
    fn step_canonicalization_drops_plateaus() {
        let d = Duration::step(vec![
            Tuple::new(0, 10),
            Tuple::new(1, 10), // useless
            Tuple::new(2, 7),
            Tuple::new(3, 7), // useless
            Tuple::new(5, 1),
        ])
        .unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.time(0), 10);
        assert_eq!(d.time(1), 10);
        assert_eq!(d.time(2), 7);
        assert_eq!(d.time(4), 7);
        assert_eq!(d.time(5), 1);
        assert_eq!(d.time(1_000_000), 1);
        assert_eq!(d.max_useful_resource(), 5);
    }

    #[test]
    fn step_evaluation_between_breakpoints() {
        let d = Duration::two_point(9, 3, 0);
        assert_eq!(d.time(0), 9);
        assert_eq!(d.time(2), 9);
        assert_eq!(d.time(3), 0);
        assert_eq!(d.min_time(), 0);
        assert_eq!(d.resource_for_time(9), Some(0));
        assert_eq!(d.resource_for_time(4), Some(3));
        let c = Duration::constant(4);
        assert_eq!(c.resource_for_time(3), None);
    }

    #[test]
    fn kway_matches_eq2_at_breakpoints() {
        let d = 100;
        let f = Duration::kway(d);
        assert_eq!(f.base_time(), 100);
        // k = 10 = ⌊√100⌋: t = ⌈100/10⌉ + 10 = 20
        assert_eq!(raw_kway_time(d, 10), 20);
        assert_eq!(f.time(10), 20);
        assert_eq!(f.min_time(), 20);
        // beyond √d resources don't help
        assert_eq!(f.time(1000), 20);
        assert_eq!(raw_kway_time(d, 1000), 20);
        // k = 2: ⌈100/2⌉ + 2 = 52
        assert_eq!(f.time(2), 52);
        // k = 0, 1: base
        assert_eq!(f.time(0), 100);
        assert_eq!(f.time(1), 100);
    }

    #[test]
    fn kway_canonical_dominates_raw() {
        // The canonical step function is the monotone envelope of Eq. 2:
        // time(k) <= raw(k) for all k, equality wherever raw is monotone.
        for d in [0u64, 1, 2, 5, 10, 17, 64, 100, 1000, 12345] {
            let f = Duration::kway(d);
            let mut prev = u64::MAX;
            for t in f.tuples() {
                assert!(t.time < prev);
                prev = t.time;
            }
            for k in 0..=(isqrt(d) + 3) {
                assert!(
                    f.time(k) <= raw_kway_time(d, k),
                    "d={d} k={k}: {} > {}",
                    f.time(k),
                    raw_kway_time(d, k)
                );
            }
        }
    }

    #[test]
    fn kway_small_bases_constant() {
        for d in 0..4u64 {
            // √d < 2 so no split is possible
            let f = Duration::kway(d);
            assert_eq!(f.len(), 1);
            assert_eq!(f.time(100), d);
        }
    }

    #[test]
    fn recursive_binary_matches_eq3() {
        // §1: reducer of height h applies n updates in ⌈n/2^h⌉ + h + 1.
        let d = 1024;
        let f = Duration::recursive_binary(d);
        assert_eq!(f.time(0), 1024);
        assert_eq!(f.time(1), 1024);
        // height 1 = 2 cells: ⌈1024/2⌉ + 2 = 514
        assert_eq!(f.time(2), 514);
        assert_eq!(raw_recursive_binary_time(d, 1), 514);
        // height 3 = 8 cells: 128 + 4 = 132
        assert_eq!(f.time(8), 132);
        // r between powers of two uses the lower height
        assert_eq!(f.time(9), 132);
        assert_eq!(f.time(15), 132);
        assert_eq!(f.time(16), raw_recursive_binary_time(d, 4));
    }

    #[test]
    fn recursive_binary_k_formula() {
        // k = ⌊log2 d − log2 log2 e⌋
        assert_eq!(recursive_binary_max_height(1), 0);
        assert_eq!(recursive_binary_max_height(2), 0); // 1 − 0.53 < 1
        assert_eq!(recursive_binary_max_height(4), 1);
        assert_eq!(recursive_binary_max_height(1024), 9); // 10 − 0.53
                                                          // The cap is where t stops decreasing: t_k <= t_{k+1} in raw form.
        for d in [8u64, 100, 1024, 4096, 99999] {
            let k = recursive_binary_max_height(d);
            if k >= 1 {
                let tk = ceil_div(d, 1 << k) + u64::from(k) + 1;
                let tk1 = ceil_div(d, 1 << (k + 1)) + u64::from(k + 1) + 1;
                assert!(tk <= tk1, "d={d}: t_k={tk} > t_(k+1)={tk1}");
            }
        }
    }

    #[test]
    fn recursive_binary_height_capped() {
        let d = 1024;
        let k = recursive_binary_max_height(d);
        let best = raw_recursive_binary_time(d, k);
        assert_eq!(raw_recursive_binary_time(d, k + 5), best);
        let f = Duration::recursive_binary(d);
        assert_eq!(f.min_time(), best);
        assert_eq!(f.time(u64::MAX / 2), best);
    }

    #[test]
    fn infinite_base_stays_infinite() {
        assert!(crate::is_infinite(raw_kway_time(INF, 5)));
        assert!(crate::is_infinite(raw_recursive_binary_time(INF, 5)));
        let f = Duration::step(vec![Tuple::new(0, INF), Tuple::new(1, 3)]).unwrap();
        assert!(crate::is_infinite(f.time(0)));
        assert_eq!(f.time(1), 3);
    }

    #[test]
    fn isqrt_exact() {
        for d in 0..2000u64 {
            let s = isqrt(d);
            assert!(s * s <= d);
            assert!((s + 1) * (s + 1) > d);
        }
        assert_eq!(isqrt(u64::MAX), (1u64 << 32) - 1);
    }

    #[test]
    fn display_formats() {
        let f = Duration::two_point(5, 2, 0);
        assert_eq!(f.to_string(), "step[<0,5> <2,0>]");
        let inf = Duration::constant(INF);
        assert_eq!(inf.to_string(), "step[<0,inf>]");
    }

    #[test]
    fn figure5_supernode_value() {
        // Node c of Figure 4 has in-degree 6; a height-1 reducer (2 units)
        // gives ⌈6/2⌉ + 1 + 1 = 5 (used in the Figure 5 makespan-10 path).
        assert_eq!(raw_recursive_binary_time(6, 1), 5);
        assert_eq!(Duration::recursive_binary(6).time(2), 5);
    }

    #[test]
    fn level_is_the_largest_useful_level_at_or_below_r() {
        let mut fns = vec![Duration::step(vec![
            Tuple::new(0, 10),
            Tuple::new(2, 7),
            Tuple::new(3, 7),
            Tuple::new(5, 1),
        ])
        .unwrap()];
        for n in [0u64, 1, 2, 3, 5, 6, 8, 17, 64, 100, 1000, 4096, 99_999] {
            fns.push(Duration::recursive_binary(n));
            fns.push(Duration::kway(n));
        }
        let rs = (0..=80u64).chain([127, 128, 129, 1 << 20, u64::MAX]);
        for f in &fns {
            for r in rs.clone() {
                let l = f.level(r);
                let largest = f.useful_levels().filter(|&u| u <= r).max().unwrap();
                assert_eq!(l, largest, "{f} r={r}");
                assert_eq!(f.time(l), f.time(r), "{f} r={r}");
                // a nonzero level is the reducer the family's formula prices
                match f.kind() {
                    DurationKind::RecursiveBinary { base } if l > 0 => {
                        assert!(l.is_power_of_two(), "{f} r={r}");
                        let h = l.trailing_zeros();
                        assert_eq!(raw_recursive_binary_time(base, h), f.time(r));
                    }
                    DurationKind::KWay { base } if l > 0 => {
                        assert_eq!(raw_kway_time(base, l), f.time(r), "{f} r={r}");
                    }
                    _ => {}
                }
            }
        }
    }
}
