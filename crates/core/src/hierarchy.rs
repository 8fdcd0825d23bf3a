//! Multi-granularity acquisition plans (the CORBA Concurrency Service
//! usage pattern from the paper's §3.1).
//!
//! Hierarchical locking acquires coarse-granule *intention* locks before
//! the fine-granule lock: to read one table entry, take `IR` on the table
//! and then `R` on the entry. [`LockPlan`] captures such a root-first
//! sequence and [`PlanTracker`] steps through it as grants arrive —
//! purely as data, so it composes with any sans-I/O host.

use crate::ids::{LockId, Ticket};
use crate::mode::Mode;

/// One acquisition step of a hierarchical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyStep {
    /// The lock to acquire.
    pub lock: LockId,
    /// The mode to acquire it in.
    pub mode: Mode,
}

/// A root-first sequence of lock acquisitions.
///
/// ```
/// use hlock_core::{LockId, LockPlan, Mode};
/// // Read entry 5 of a table guarded by lock 0: IR on the table, R on the entry.
/// let plan = LockPlan::for_leaf(&[LockId(0)], LockId(5), Mode::Read);
/// assert_eq!(plan.steps().len(), 2);
/// assert_eq!(plan.steps()[0].mode, Mode::IntentRead);
/// assert_eq!(plan.steps()[1].mode, Mode::Read);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockPlan {
    steps: Vec<HierarchyStep>,
}

impl LockPlan {
    /// A plan from explicit steps (root-first).
    ///
    /// # Panics
    ///
    /// Panics if `steps` is empty.
    pub fn new(steps: Vec<HierarchyStep>) -> Self {
        assert!(!steps.is_empty(), "a lock plan needs at least one step");
        LockPlan { steps }
    }

    /// A single-lock plan (no hierarchy).
    pub fn single(lock: LockId, mode: Mode) -> Self {
        LockPlan::new(vec![HierarchyStep { lock, mode }])
    }

    /// The standard multi-granularity plan: every ancestor (root-first)
    /// is taken in the [`Mode::intention`] of `mode`; the leaf in `mode`
    /// itself.
    pub fn for_leaf(ancestors: &[LockId], leaf: LockId, mode: Mode) -> Self {
        let mut steps: Vec<HierarchyStep> =
            ancestors.iter().map(|&lock| HierarchyStep { lock, mode: mode.intention() }).collect();
        steps.push(HierarchyStep { lock: leaf, mode });
        LockPlan::new(steps)
    }

    /// The acquisition steps, root-first.
    pub fn steps(&self) -> &[HierarchyStep] {
        &self.steps
    }
}

/// Tracks progress through a [`LockPlan`].
///
/// The host requests [`PlanTracker::current`], waits for the grant with
/// the indicated ticket, calls [`PlanTracker::advance`], and repeats until
/// [`PlanTracker::is_complete`]. Held locks are released leaf-first via
/// [`PlanTracker::release_order`].
#[derive(Debug, Clone)]
pub struct PlanTracker {
    plan: LockPlan,
    granted: usize,
    base_ticket: u64,
}

impl PlanTracker {
    /// Starts tracking `plan`; step `i` uses ticket `base_ticket + i`.
    pub fn new(plan: LockPlan, base_ticket: u64) -> Self {
        PlanTracker { plan, granted: 0, base_ticket }
    }

    /// The next request to issue, or `None` when the plan is complete.
    pub fn current(&self) -> Option<(LockId, Mode, Ticket)> {
        self.plan
            .steps
            .get(self.granted)
            .map(|s| (s.lock, s.mode, Ticket(self.base_ticket + self.granted as u64)))
    }

    /// Records that the current step was granted. Returns `true` when the
    /// whole plan is now complete.
    ///
    /// # Panics
    ///
    /// Panics if the plan is already complete.
    pub fn advance(&mut self) -> bool {
        assert!(self.granted < self.plan.steps.len(), "plan already complete");
        self.granted += 1;
        self.is_complete()
    }

    /// Whether every step has been granted.
    pub fn is_complete(&self) -> bool {
        self.granted == self.plan.steps.len()
    }

    /// The underlying plan.
    pub fn plan(&self) -> &LockPlan {
        &self.plan
    }

    /// Locks to release, leaf-first (reverse acquisition order), with the
    /// tickets they were granted under. Only granted steps are included.
    pub fn release_order(&self) -> impl Iterator<Item = (LockId, Ticket)> + '_ {
        (0..self.granted)
            .rev()
            .map(move |i| (self.plan.steps[i].lock, Ticket(self.base_ticket + i as u64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_leaf_builds_intention_chain() {
        let p = LockPlan::for_leaf(&[LockId(0), LockId(1)], LockId(9), Mode::Write);
        assert_eq!(
            p.steps(),
            &[
                HierarchyStep { lock: LockId(0), mode: Mode::IntentWrite },
                HierarchyStep { lock: LockId(1), mode: Mode::IntentWrite },
                HierarchyStep { lock: LockId(9), mode: Mode::Write },
            ]
        );
    }

    #[test]
    fn upgrade_leaf_uses_intent_write_ancestors() {
        let p = LockPlan::for_leaf(&[LockId(0)], LockId(3), Mode::Upgrade);
        assert_eq!(p.steps()[0].mode, Mode::IntentWrite);
        assert_eq!(p.steps()[1].mode, Mode::Upgrade);
    }

    #[test]
    fn tracker_walks_steps_in_order() {
        let p = LockPlan::for_leaf(&[LockId(0)], LockId(5), Mode::Read);
        let mut t = PlanTracker::new(p, 100);
        assert_eq!(t.current(), Some((LockId(0), Mode::IntentRead, Ticket(100))));
        assert!(!t.advance());
        assert_eq!(t.current(), Some((LockId(5), Mode::Read, Ticket(101))));
        assert!(t.advance());
        assert!(t.is_complete());
        assert_eq!(t.current(), None);
        let rel: Vec<_> = t.release_order().collect();
        assert_eq!(rel, vec![(LockId(5), Ticket(101)), (LockId(0), Ticket(100))]);
    }

    #[test]
    fn partial_release_order_covers_granted_only() {
        let p = LockPlan::for_leaf(&[LockId(0)], LockId(5), Mode::Read);
        let mut t = PlanTracker::new(p, 0);
        t.advance();
        let rel: Vec<_> = t.release_order().collect();
        assert_eq!(rel, vec![(LockId(0), Ticket(0))]);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn empty_plan_panics() {
        let _ = LockPlan::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "already complete")]
    fn advance_past_end_panics() {
        let mut t = PlanTracker::new(LockPlan::single(LockId(0), Mode::Read), 0);
        t.advance();
        t.advance();
    }
}
