//! The local request queue kept at each node (Rules 4 and 5).
//!
//! Entries are FIFO by Lamport stamp. When the token moves, the old token
//! node's remaining queue travels with it and is *merged* into the new
//! token node's queue preserving FIFO order (Figure 4, footnote c).

use crate::ids::{NodeId, Priority, Stamp, Ticket};
use crate::mode::Mode;
use core::fmt;
use std::collections::VecDeque;

/// Who is waiting: a remote node, or a local caller identified by ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Waiter {
    /// A remote requester (a request message absorbed into this queue).
    Remote(NodeId),
    /// A local request, to be reported via [`crate::Effect::Granted`].
    Local(Ticket),
    /// A local upgrade (`U` → `W`, Rule 7) for the given ticket; served
    /// with priority, atomically converting the held `U`.
    LocalUpgrade(Ticket),
}

impl fmt::Display for Waiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Waiter::Remote(n) => write!(f, "{n}"),
            Waiter::Local(t) => write!(f, "local:{t}"),
            Waiter::LocalUpgrade(t) => write!(f, "upgrade:{t}"),
        }
    }
}

/// One queued lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueEntry {
    /// Who will receive the grant.
    pub waiter: Waiter,
    /// Requested mode.
    pub mode: Mode,
    /// Origin stamp, used for FIFO merge ordering.
    pub stamp: Stamp,
    /// Request priority (higher first; FIFO within a priority).
    pub priority: Priority,
    /// The request's causal span ticket (the ticket assigned at the
    /// origin node), travelling with the entry — including through token
    /// transfers — so observers can follow the request end to end. For
    /// local waiters it is derived from the waiter's ticket; for remote
    /// entries the receiver stamps it via [`QueueEntry::with_span`].
    pub span: Ticket,
}

impl QueueEntry {
    /// Convenience constructor at [`Priority::NORMAL`].
    pub fn new(waiter: Waiter, mode: Mode, stamp: Stamp) -> Self {
        QueueEntry::with_priority(waiter, mode, stamp, Priority::NORMAL)
    }

    /// Constructor with an explicit priority.
    pub fn with_priority(waiter: Waiter, mode: Mode, stamp: Stamp, priority: Priority) -> Self {
        let span = match waiter {
            Waiter::Local(t) | Waiter::LocalUpgrade(t) => t,
            Waiter::Remote(_) => Ticket(0),
        };
        QueueEntry { waiter, mode, stamp, priority, span }
    }

    /// Overrides the span ticket (builder style) — used for remote
    /// entries, whose span arrives in the request message rather than
    /// being derivable from the waiter.
    #[must_use]
    pub fn with_span(mut self, span: Ticket) -> Self {
        self.span = span;
        self
    }

    /// Total-order key for service and merges: priority first (higher
    /// served earlier), then stamp (FIFO), then a deterministic tiebreak
    /// on the waiter identity.
    fn merge_key(&self) -> (core::cmp::Reverse<Priority>, Stamp, u64) {
        let tie = match self.waiter {
            Waiter::Remote(n) => n.0 as u64,
            Waiter::Local(t) | Waiter::LocalUpgrade(t) => u64::MAX - t.0,
        };
        (core::cmp::Reverse(self.priority), self.stamp, tie)
    }
}

impl fmt::Display for QueueEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}{}", self.waiter, self.mode, self.stamp)
    }
}

/// FIFO queue of pending lock requests at one node.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct RequestQueue {
    entries: VecDeque<QueueEntry>,
}

impl RequestQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        RequestQueue { entries: VecDeque::new() }
    }

    /// Enqueues an entry: behind every entry of its priority or higher
    /// (arrival order within a priority), ahead of lower priorities.
    /// With all-[`Priority::NORMAL`] entries this is a plain FIFO append.
    pub fn push_back(&mut self, e: QueueEntry) {
        let pos =
            self.entries.iter().position(|q| q.priority < e.priority).unwrap_or(self.entries.len());
        self.entries.insert(pos, e);
    }

    /// Inserts an entry at the head. Used for upgrades, which take
    /// precedence over every queued request (Rule 7, §3.4 "Upgrade Mode
    /// Precedes Write Mode").
    pub fn push_front(&mut self, e: QueueEntry) {
        self.entries.push_front(e);
    }

    /// The entry that must be served next, if any.
    pub fn head(&self) -> Option<&QueueEntry> {
        self.entries.front()
    }

    /// Removes and returns the head entry.
    pub fn pop_head(&mut self) -> Option<QueueEntry> {
        self.entries.pop_front()
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries head-first.
    pub fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries.iter()
    }

    /// Removes all entries, returning them head-first. Used when the
    /// token (and therefore the queue) is handed to a new token node.
    pub fn take_all(&mut self) -> Vec<QueueEntry> {
        self.entries.drain(..).collect()
    }

    /// Merges a travelling queue into this one, preserving FIFO order by
    /// `(stamp, waiter)` (Figure 4, footnote c). Upgrade entries keep
    /// absolute priority at the head regardless of stamp.
    pub fn merge(&mut self, incoming: Vec<QueueEntry>) {
        if incoming.is_empty() {
            return;
        }
        let mut all: Vec<QueueEntry> = self.entries.drain(..).collect();
        all.extend(incoming);
        // Stable partition: upgrades first (retaining relative order),
        // then everything else by merge key.
        let mut upgrades: Vec<QueueEntry> = Vec::new();
        let mut rest: Vec<QueueEntry> = Vec::new();
        for e in all {
            match e.waiter {
                Waiter::LocalUpgrade(_) => upgrades.push(e),
                _ => rest.push(e),
            }
        }
        rest.sort_by_key(QueueEntry::merge_key);
        self.entries.extend(upgrades);
        self.entries.extend(rest);
    }

    /// Removes every entry whose waiter equals `waiter` (used if a local
    /// request is cancelled); returns how many were removed.
    pub fn remove_waiter(&mut self, waiter: Waiter) -> usize {
        let before = self.entries.len();
        self.entries.retain(|e| e.waiter != waiter);
        before - self.entries.len()
    }
}

impl fmt::Display for RequestQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(node: u32, mode: Mode, stamp: u64) -> QueueEntry {
        QueueEntry::new(Waiter::Remote(NodeId(node)), mode, Stamp(stamp))
    }

    #[test]
    fn fifo_order() {
        let mut q = RequestQueue::new();
        q.push_back(e(1, Mode::Read, 1));
        q.push_back(e(2, Mode::Write, 2));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_head().unwrap().waiter, Waiter::Remote(NodeId(1)));
        assert_eq!(q.pop_head().unwrap().waiter, Waiter::Remote(NodeId(2)));
        assert!(q.pop_head().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn merge_preserves_stamp_order() {
        let mut q = RequestQueue::new();
        q.push_back(e(1, Mode::Read, 5));
        q.push_back(e(2, Mode::Write, 9));
        q.merge(vec![e(3, Mode::Upgrade, 2), e(4, Mode::Read, 7)]);
        let stamps: Vec<u64> = q.iter().map(|x| x.stamp.0).collect();
        assert_eq!(stamps, vec![2, 5, 7, 9]);
    }

    #[test]
    fn merge_with_empty_is_noop() {
        let mut q = RequestQueue::new();
        q.push_back(e(1, Mode::Read, 5));
        q.merge(vec![]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn upgrades_take_priority_in_merge() {
        let mut q = RequestQueue::new();
        q.push_back(QueueEntry::new(Waiter::LocalUpgrade(Ticket(1)), Mode::Write, Stamp(50)));
        q.merge(vec![e(3, Mode::Read, 1)]);
        assert_eq!(q.head().unwrap().waiter, Waiter::LocalUpgrade(Ticket(1)));
    }

    #[test]
    fn push_front_takes_head() {
        let mut q = RequestQueue::new();
        q.push_back(e(1, Mode::Read, 1));
        q.push_front(QueueEntry::new(Waiter::LocalUpgrade(Ticket(9)), Mode::Write, Stamp(99)));
        assert_eq!(q.head().unwrap().mode, Mode::Write);
    }

    #[test]
    fn remove_waiter_filters() {
        let mut q = RequestQueue::new();
        q.push_back(e(1, Mode::Read, 1));
        q.push_back(e(2, Mode::Read, 2));
        q.push_back(e(1, Mode::Write, 3));
        assert_eq!(q.remove_waiter(Waiter::Remote(NodeId(1))), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.head().unwrap().waiter, Waiter::Remote(NodeId(2)));
    }

    #[test]
    fn take_all_empties_queue() {
        let mut q = RequestQueue::new();
        q.push_back(e(1, Mode::Read, 1));
        q.push_back(e(2, Mode::Read, 2));
        let all = q.take_all();
        assert_eq!(all.len(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn display_lists_entries() {
        let mut q = RequestQueue::new();
        q.push_back(e(1, Mode::Read, 1));
        assert_eq!(q.to_string(), "[n1:R@1]");
    }

    #[test]
    fn priority_insertion_orders_queue() {
        use crate::ids::Priority;
        let mut q = RequestQueue::new();
        let mk = |n: u32, p: u8, s: u64| {
            QueueEntry::with_priority(Waiter::Remote(NodeId(n)), Mode::Read, Stamp(s), Priority(p))
        };
        q.push_back(mk(1, 0, 1));
        q.push_back(mk(2, 5, 2)); // higher priority jumps ahead
        q.push_back(mk(3, 5, 3)); // same priority: after its peer
        q.push_back(mk(4, 9, 4)); // highest: to the very front
        let order: Vec<u32> = q
            .iter()
            .map(|e| match e.waiter {
                Waiter::Remote(n) => n.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![4, 2, 3, 1]);
    }

    #[test]
    fn merge_ties_broken_deterministically() {
        let mut q = RequestQueue::new();
        q.push_back(e(2, Mode::Read, 4));
        q.merge(vec![e(1, Mode::Read, 4)]);
        let nodes: Vec<Waiter> = q.iter().map(|x| x.waiter).collect();
        assert_eq!(nodes, vec![Waiter::Remote(NodeId(1)), Waiter::Remote(NodeId(2))]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ids::Priority;
    use crate::rng::{check_cases, Rng};

    fn arb_entries(rng: &mut Rng, max_len: u64) -> Vec<QueueEntry> {
        (0..rng.below(max_len))
            .map(|_| {
                let node = NodeId(rng.next_u64() as u32);
                let priority = Priority(rng.below(4) as u8);
                let stamp = Stamp(rng.next_u64());
                QueueEntry::with_priority(Waiter::Remote(node), Mode::Read, stamp, priority)
            })
            .collect()
    }

    /// The queue is always sorted by priority (descending), and within a
    /// priority entries keep their arrival order — for any sequence of
    /// pushes and merges.
    fn assert_priority_sorted(q: &RequestQueue) {
        let prios: Vec<Priority> = q.iter().map(|e| e.priority).collect();
        for w in prios.windows(2) {
            assert!(w[0] >= w[1], "{prios:?}");
        }
    }

    #[test]
    fn pushes_keep_priority_order() {
        check_cases(128, |rng| {
            let mut q = RequestQueue::new();
            for e in arb_entries(rng, 24) {
                q.push_back(e);
            }
            assert_priority_sorted(&q);
        });
    }

    fn check_merge(ours: Vec<QueueEntry>, theirs: Vec<QueueEntry>) {
        let mut q = RequestQueue::new();
        for e in ours {
            q.push_back(e);
        }
        let resorted = !theirs.is_empty();
        q.merge(theirs);
        assert_priority_sorted(&q);
        // A non-trivial merge re-sorts by (priority, stamp); within a
        // priority band stamps are then non-decreasing. (An empty
        // merge keeps plain arrival order, where stamps may not be
        // monotone.)
        if resorted {
            let entries: Vec<QueueEntry> = q.iter().copied().collect();
            for w in entries.windows(2) {
                if w[0].priority == w[1].priority {
                    assert!(w[0].stamp <= w[1].stamp, "{entries:?}");
                }
            }
        }
    }

    #[test]
    fn merges_keep_priority_and_stamp_order() {
        // A case that failed once (from the proptest regression file this
        // loop replaces): an empty merge behind out-of-order stamps.
        let entry = |stamp| {
            QueueEntry::with_priority(
                Waiter::Remote(NodeId(0)),
                Mode::Read,
                Stamp(stamp),
                Priority(2),
            )
        };
        check_merge(vec![entry(8_630_942_494_305_597_010), entry(0)], vec![]);
        check_cases(128, |rng| check_merge(arb_entries(rng, 12), arb_entries(rng, 12)));
    }
}
