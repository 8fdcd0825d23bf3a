//! Correctness checked from outside: a per-lock holder table the drivers
//! update at every grant they observe and before every release they
//! issue. Two holders in incompatible modes is a safety violation of the
//! system under test, whatever its own auditors say.

use hlock_core::{LockId, Mode};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Table 1(a) of the paper, written out independently of `hlock_core`.
/// Index order: IR, R, U, IW, W.
const COMPATIBLE: [[bool; 5]; 5] = [
    [true, true, true, true, false],
    [true, true, true, false, false],
    [true, true, false, false, false],
    [true, false, false, true, false],
    [false, false, false, false, false],
];

fn index(mode: Mode) -> usize {
    match mode {
        Mode::IntentRead => 0,
        Mode::Read => 1,
        Mode::Upgrade => 2,
        Mode::IntentWrite => 3,
        Mode::Write => 4,
    }
}

/// Holder counts per lock and mode, shared by every driver thread.
pub struct HolderTable {
    held: Vec<[AtomicU32; 5]>,
    violations: AtomicU64,
}

impl HolderTable {
    pub fn new(locks: usize) -> HolderTable {
        HolderTable {
            held: (0..locks).map(|_| Default::default()).collect(),
            violations: AtomicU64::new(0),
        }
    }

    /// Records a grant the caller just observed and checks it against
    /// every other current holder. Call [`HolderTable::released`] before
    /// handing the lock back.
    pub fn granted(&self, lock: LockId, mode: Mode) {
        let row = &self.held[lock.index()];
        let me = index(mode);
        let before = row[me].fetch_add(1, Ordering::SeqCst);
        for (other, count) in row.iter().enumerate() {
            let holders = if other == me { before } else { count.load(Ordering::SeqCst) };
            if holders > 0 && !COMPATIBLE[me][other] {
                self.violations.fetch_add(1, Ordering::SeqCst);
                eprintln!(
                    "SAFETY VIOLATION: {lock} granted in {mode:?} while {holders} holder(s) in \
                     mode #{other} (IR,R,U,IW,W order)"
                );
            }
        }
    }

    pub fn released(&self, lock: LockId, mode: Mode) {
        let prev = self.held[lock.index()][index(mode)].fetch_sub(1, Ordering::SeqCst);
        assert!(prev > 0, "released {lock} in {mode:?} without a recorded grant");
    }

    pub fn violations(&self) -> u64 {
        self.violations.load(Ordering::SeqCst)
    }

    /// `Err` naming the count when any grant overlapped an incompatible one.
    pub fn verdict(&self) -> Result<(), String> {
        match self.violations() {
            0 => Ok(()),
            n => Err(format!("{n} incompatible concurrent grant(s) observed")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric_and_matches_the_product() {
        for a in hlock_core::ALL_MODES {
            for b in hlock_core::ALL_MODES {
                assert_eq!(COMPATIBLE[index(a)][index(b)], COMPATIBLE[index(b)][index(a)]);
                assert_eq!(COMPATIBLE[index(a)][index(b)], a.compatible(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn incompatible_overlap_is_flagged_and_compatible_is_not() {
        let t = HolderTable::new(2);
        t.granted(LockId(0), Mode::IntentRead);
        t.granted(LockId(0), Mode::IntentWrite);
        t.granted(LockId(1), Mode::Read);
        t.granted(LockId(1), Mode::Read);
        assert_eq!(t.violations(), 0);
        t.granted(LockId(1), Mode::Write);
        assert_eq!(t.violations(), 1);
        t.released(LockId(1), Mode::Write);
        t.released(LockId(1), Mode::Read);
        t.released(LockId(1), Mode::Read);
        t.granted(LockId(1), Mode::Write);
        assert_eq!(t.violations(), 1);
        t.granted(LockId(1), Mode::Write);
        assert_eq!(t.violations(), 2);
    }
}
