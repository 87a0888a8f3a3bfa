//! The reducer implementations.

use crate::op::CommutativeOp;
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Baseline: a single mutex-protected cell — every update serializes
/// (the "associating a lock with the memory location" fix of §1 that
/// destroys parallelism).
pub struct LockCell<O: CommutativeOp> {
    op: O,
    cell: Mutex<O::Value>,
}

impl<O: CommutativeOp> LockCell<O> {
    /// New cell holding the identity.
    pub fn new(op: O) -> Self {
        let init = op.identity();
        LockCell {
            op,
            cell: Mutex::new(init),
        }
    }

    /// Applies one update (serializing on the lock).
    pub fn update(&self, x: O::Value) {
        let mut guard = self.cell.lock();
        self.op.combine(&mut guard, x);
    }

    /// Final value.
    pub fn into_value(self) -> O::Value {
        self.cell.into_inner()
    }
}

/// The k-way split reducer (Eq. 2): `k` independently locked cells,
/// round-robin assignment, one combining pass at the end.
pub struct KWayReducer<O: CommutativeOp> {
    op: O,
    cells: Vec<CachePadded<Mutex<O::Value>>>,
    next: AtomicUsize,
}

impl<O: CommutativeOp> KWayReducer<O> {
    /// New reducer with `k ≥ 1` cells.
    pub fn new(op: O, k: usize) -> Self {
        assert!(k >= 1);
        let cells = (0..k)
            .map(|_| CachePadded::new(Mutex::new(op.identity())))
            .collect();
        KWayReducer {
            op,
            cells,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of cells (the extra space used).
    pub fn width(&self) -> usize {
        self.cells.len()
    }

    /// Applies one update to the next cell (round-robin).
    pub fn update(&self, x: O::Value) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.cells.len();
        let mut guard = self.cells[i].lock();
        self.op.combine(&mut guard, x);
    }

    /// Combines all cells into the final value.
    pub fn into_value(self) -> O::Value {
        let mut acc = self.op.identity();
        for cell in self.cells {
            let v = CachePadded::into_inner(cell).into_inner();
            self.op.combine(&mut acc, v);
        }
        acc
    }
}

/// The recursive binary reducer of Figure 2, as a tournament tree.
///
/// `2^h` leaf cells accept updates in parallel (round-robin). The total
/// number of updates is fixed at construction; when a leaf applies its
/// last update it starts merging: at each internal tree node, the first
/// arriving child parks its value, the second combines both and moves
/// up — this is exactly the "node becomes its own parent" protocol that
/// lets a height-`h` reducer run with `2^h` cells. The root value lands
/// in the final slot after `2^h − 1` merges.
pub struct BinaryReducer<O: CommutativeOp> {
    op: O,
    leaves: Vec<CachePadded<Mutex<O::Value>>>,
    /// Remaining updates per leaf.
    remaining: Vec<CachePadded<AtomicU64>>,
    /// Tournament slots for internal nodes (heap layout, index 1 = root
    /// pair). `slots[i]` holds the first-arriving child's value.
    slots: Vec<Mutex<Option<O::Value>>>,
    /// Round-robin ticket counter.
    next: AtomicUsize,
    /// The final value (set by the last merge).
    result: Mutex<Option<O::Value>>,
}

impl<O: CommutativeOp> BinaryReducer<O> {
    /// Builds a height-`h` reducer expecting exactly `n_updates` calls
    /// to [`BinaryReducer::update`].
    ///
    /// # Panics
    /// If `n_updates == 0` (there would be nothing to reduce; use
    /// `op.identity()` directly).
    pub fn new(op: O, height: u32, n_updates: u64) -> Self {
        assert!(n_updates > 0, "a reducer needs at least one update");
        let n_leaves = 1usize << height;
        let leaves = (0..n_leaves)
            .map(|_| CachePadded::new(Mutex::new(op.identity())))
            .collect();
        // round-robin assignment: leaf i gets ⌈(n - i)/L⌉ updates
        let remaining = (0..n_leaves as u64)
            .map(|i| {
                let share =
                    n_updates / n_leaves as u64 + u64::from(i < n_updates % n_leaves as u64);
                CachePadded::new(AtomicU64::new(share))
            })
            .collect();
        let slots = (0..n_leaves).map(|_| Mutex::new(None)).collect();
        let r = BinaryReducer {
            op,
            leaves,
            remaining,
            slots,
            next: AtomicUsize::new(0),
            result: Mutex::new(None),
        };
        // Leaves with no assigned updates (n < 2^h) will never fire a
        // "last update"; enter them into the tournament with the
        // identity now so the merges can complete.
        for i in 0..n_leaves {
            if r.remaining[i].load(Ordering::Relaxed) == 0 {
                r.propagate(i + n_leaves, r.op.identity());
            }
        }
        r
    }

    /// Number of leaf cells (`2^h`, the extra space used).
    pub fn width(&self) -> usize {
        self.leaves.len()
    }

    /// Applies one update. Must be called exactly `n_updates` times in
    /// total (across all threads).
    pub fn update(&self, x: O::Value) {
        let l = self.next.fetch_add(1, Ordering::Relaxed) % self.leaves.len();
        // Fold into the leaf.
        let value = {
            let mut guard = self.leaves[l].lock();
            self.op.combine(&mut guard, x);
            // Was that the leaf's last update?
            if self.remaining[l].fetch_sub(1, Ordering::AcqRel) == 1 {
                Some(std::mem::replace(&mut *guard, self.op.identity()))
            } else {
                None
            }
        };
        if let Some(v) = value {
            self.propagate(l + self.leaves.len(), v);
        }
    }

    /// Tournament climb from tree position `pos` (heap indexing: leaves
    /// occupy `L..2L`, internal pairs meet at `pos/2`).
    fn propagate(&self, mut pos: usize, mut value: O::Value) {
        loop {
            pos /= 2;
            if pos == 0 {
                *self.result.lock() = Some(value);
                return;
            }
            let mut slot = self.slots[pos].lock();
            match slot.take() {
                None => {
                    // first child to arrive parks its value
                    *slot = Some(value);
                    return;
                }
                Some(other) => {
                    // second child merges and continues up
                    drop(slot);
                    self.op.combine(&mut value, other);
                }
            }
        }
    }

    /// Final value. Call after all `n_updates` updates completed (e.g.
    /// after joining the worker threads).
    ///
    /// # Panics
    /// If updates are missing.
    pub fn into_value(self) -> O::Value {
        self.result
            .into_inner()
            .expect("reducer finished: all updates must have been applied")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AddU64, MaxU64};
    use std::sync::atomic::AtomicU64;

    fn parallel_updates<R: Sync>(r: &R, n: u64, threads: usize, f: impl Fn(&R, u64) + Sync) {
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    f(r, i + 1);
                });
            }
        });
    }

    #[test]
    fn lock_cell_correct() {
        let cell = LockCell::new(AddU64);
        parallel_updates(&cell, 10_000, 8, |c, x| c.update(x));
        assert_eq!(cell.into_value(), 10_000 * 10_001 / 2);
    }

    #[test]
    fn kway_correct_all_widths() {
        for k in [1usize, 2, 3, 7, 16] {
            let r = KWayReducer::new(AddU64, k);
            parallel_updates(&r, 5_000, 4, |r, x| r.update(x));
            assert_eq!(r.into_value(), 5_000 * 5_001 / 2, "k={k}");
        }
    }

    #[test]
    fn binary_correct_all_heights() {
        for h in 0..=5u32 {
            let n = 4_096u64;
            let r = BinaryReducer::new(AddU64, h, n);
            parallel_updates(&r, n, 8, |r, x| r.update(x));
            assert_eq!(r.into_value(), n * (n + 1) / 2, "h={h}");
        }
    }

    #[test]
    fn binary_handles_non_divisible_counts() {
        for n in [1u64, 3, 17, 1000, 4097] {
            let r = BinaryReducer::new(AddU64, 3, n);
            parallel_updates(&r, n, 4, |r, x| r.update(x));
            assert_eq!(r.into_value(), n * (n + 1) / 2, "n={n}");
        }
    }

    #[test]
    fn binary_with_max_operation() {
        let n = 999u64;
        let r = BinaryReducer::new(MaxU64, 4, n);
        parallel_updates(&r, n, 8, |r, x| r.update(x));
        assert_eq!(r.into_value(), n);
    }

    #[test]
    fn single_threaded_binary_still_works() {
        let r = BinaryReducer::new(AddU64, 2, 10);
        for x in 1..=10u64 {
            r.update(x);
        }
        assert_eq!(r.into_value(), 55);
    }

    #[test]
    #[should_panic(expected = "at least one update")]
    fn zero_updates_rejected() {
        let _ = BinaryReducer::new(AddU64, 1, 0);
    }

    #[test]
    #[should_panic(expected = "all updates must have been applied")]
    fn premature_finish_detected() {
        let r = BinaryReducer::new(AddU64, 1, 5);
        r.update(1);
        let _ = r.into_value();
    }

    #[test]
    fn width_reports_space() {
        assert_eq!(BinaryReducer::new(AddU64, 5, 100).width(), 32);
        assert_eq!(KWayReducer::new(AddU64, 9).width(), 9);
    }
}
