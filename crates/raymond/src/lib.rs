//! # hlock-raymond
//!
//! **Raymond's tree-based algorithm** for distributed mutual exclusion
//! (Kerry Raymond, *A tree-based algorithm for distributed mutual
//! exclusion*, ACM TOCS 7(1), 1989) — reference \[16\] of the paper, which
//! contrasts its **static** logical tree against the dynamic,
//! path-compressing trees of Naimi–Trehel and of the paper's own
//! protocol.
//!
//! Nodes are arranged in a fixed tree (here: a balanced binary tree over
//! node ids). Each node keeps
//!
//! * `holder` — the tree neighbor in whose direction the privilege
//!   (token) currently lies, or "self";
//! * a FIFO queue of neighbors (and possibly itself) whose requests wait
//!   at this node;
//! * an `asked` flag so each node has at most one outstanding request
//!   toward the privilege.
//!
//! The privilege travels hop-by-hop along tree edges; requests are
//! aggregated per subtree, giving O(log n) messages per critical section
//! on average for a balanced tree — but, unlike Naimi–Trehel, paths never
//! compress, which is exactly the comparison the `baselines` bench
//! exposes.
//!
//! Exclusive-only (no modes), sans-I/O, implementing the same
//! [`ConcurrencyProtocol`] trait as the rest of the workspace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use hlock_core::{
    CancelOutcome, Classify, ConcurrencyProtocol, EffectSink, Inspect, LockId, MessageKind, Mode,
    NodeId, ProtocolError, Ticket,
};
use hlock_wire::{get_u8, get_varint, put_varint, WireCodec, WireError};
use std::collections::VecDeque;

/// A Raymond protocol message about one lock.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RaymondPayload {
    /// A neighbor's subtree wants the privilege.
    Request,
    /// The privilege moves across this tree edge.
    Privilege,
}

impl Classify for RaymondPayload {
    fn kind(&self) -> MessageKind {
        match self {
            RaymondPayload::Request => MessageKind::Request,
            RaymondPayload::Privilege => MessageKind::Token,
        }
    }
}

/// A [`RaymondPayload`] addressed to one lock instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RaymondEnvelope {
    /// The lock concerned.
    pub lock: LockId,
    /// The protocol message.
    pub payload: RaymondPayload,
}

impl Classify for RaymondEnvelope {
    fn kind(&self) -> MessageKind {
        self.payload.kind()
    }
}

/// Queue entries: a neighbor's subtree, or this node itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Waiter {
    Neighbor(NodeId),
    Me(Ticket),
}

/// Per-lock Raymond state at one node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RaymondLock {
    /// Tree neighbor toward the privilege; `None` = we have it.
    holder: Option<NodeId>,
    /// FIFO of waiting subtrees / self.
    queue: VecDeque<Waiter>,
    /// Whether a `Request` toward `holder` is outstanding.
    asked: bool,
    /// Ticket currently in the critical section.
    in_cs: Option<Ticket>,
    /// Additional local tickets beyond the queued one.
    waiting: VecDeque<Ticket>,
    /// The requesting ticket was cancelled.
    cancelled: bool,
}

impl RaymondLock {
    fn new(id: NodeId, token_home: NodeId, tree: &Tree) -> Self {
        RaymondLock {
            holder: tree.toward(id, token_home),
            queue: VecDeque::new(),
            asked: false,
            in_cs: None,
            waiting: VecDeque::new(),
            cancelled: false,
        }
    }

    fn has_privilege(&self) -> bool {
        self.holder.is_none()
    }

    fn me_queued(&self) -> bool {
        self.queue.iter().any(|w| matches!(w, Waiter::Me(_)))
    }
}

/// The static balanced binary tree over node ids `0..n`:
/// node `i`'s tree parent is `(i − 1) / 2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Tree {
    nodes: u32,
}

impl Tree {
    fn parent(self, i: NodeId) -> Option<NodeId> {
        (i.0 > 0).then(|| NodeId((i.0 - 1) / 2))
    }

    fn is_ancestor(self, a: NodeId, mut of: NodeId) -> bool {
        while let Some(p) = self.parent(of) {
            if p == a {
                return true;
            }
            of = p;
        }
        false
    }

    /// The neighbor of `from` on the tree path toward `target`
    /// (`None` if `from == target`).
    fn toward(self, from: NodeId, target: NodeId) -> Option<NodeId> {
        if from == target {
            return None;
        }
        // If target is in one of from's child subtrees, step to that
        // child; otherwise step to from's parent.
        let left = NodeId(from.0 * 2 + 1);
        let right = NodeId(from.0 * 2 + 2);
        for child in [left, right] {
            if child.0 < self.nodes && (child == target || self.is_ancestor(child, target)) {
                return Some(child);
            }
        }
        self.parent(from)
    }
}

/// All per-lock Raymond state of one node.
///
/// ```
/// use hlock_core::{ConcurrencyProtocol, Effect, EffectSink, LockId, Mode, NodeId, Ticket};
/// use hlock_raymond::RaymondSpace;
///
/// # fn main() -> Result<(), hlock_core::ProtocolError> {
/// let mut home = RaymondSpace::new(NodeId(0), 3, 1, NodeId(0));
/// let mut fx = EffectSink::new();
/// home.request(LockId(0), Mode::Write, Ticket(1), &mut fx)?;
/// assert!(matches!(fx.drain().next(), Some(Effect::Granted { .. })));
/// home.release(LockId(0), Ticket(1), &mut fx)?;
/// # Ok(()) }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RaymondSpace {
    id: NodeId,
    tree: Tree,
    locks: Vec<RaymondLock>,
}

impl RaymondSpace {
    /// Creates the state for `lock_count` locks at node `id` in a system
    /// of `nodes` nodes (the static tree needs the global size), with
    /// `token_home` initially holding every privilege.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `token_home` is outside `0..nodes`.
    pub fn new(id: NodeId, nodes: usize, lock_count: usize, token_home: NodeId) -> Self {
        assert!(id.index() < nodes && token_home.index() < nodes);
        let tree = Tree { nodes: nodes as u32 };
        RaymondSpace {
            id,
            tree,
            locks: (0..lock_count).map(|_| RaymondLock::new(id, token_home, &tree)).collect(),
        }
    }

    /// Number of locks managed.
    pub fn lock_count(&self) -> usize {
        self.locks.len()
    }

    /// Whether this node currently holds the privilege for `lock`.
    ///
    /// # Panics
    ///
    /// Panics if `lock` is out of range.
    pub fn has_privilege(&self, lock: LockId) -> bool {
        self.locks[lock.index()].has_privilege()
    }

    fn lock_mut(&mut self, lock: LockId) -> Result<&mut RaymondLock, ProtocolError> {
        self.locks.get_mut(lock.index()).ok_or(ProtocolError::UnknownLock { lock })
    }

    /// Raymond's `ASSIGN_PRIVILEGE`: if we hold the privilege, are not in
    /// the critical section, and someone waits, hand it to the queue head
    /// (entering the CS if the head is us).
    fn assign(
        id: NodeId,
        lock: LockId,
        state: &mut RaymondLock,
        fx: &mut EffectSink<RaymondEnvelope>,
    ) {
        let _ = id;
        if !state.has_privilege() || state.in_cs.is_some() {
            return;
        }
        match state.queue.pop_front() {
            None => {}
            Some(Waiter::Me(ticket)) => {
                state.asked = false;
                if state.cancelled {
                    state.cancelled = false;
                    // Skip the critical section; serve whoever is next.
                    Self::assign(id, lock, state, fx);
                    Self::make_request(lock, state, fx);
                } else {
                    state.in_cs = Some(ticket);
                    fx.granted(lock, ticket, Mode::Write);
                }
            }
            Some(Waiter::Neighbor(n)) => {
                state.holder = Some(n);
                state.asked = false;
                fx.send(n, RaymondEnvelope { lock, payload: RaymondPayload::Privilege });
                Self::make_request(lock, state, fx);
            }
        }
    }

    /// Raymond's `MAKE_REQUEST`: chase the privilege if work remains.
    fn make_request(lock: LockId, state: &mut RaymondLock, fx: &mut EffectSink<RaymondEnvelope>) {
        if let Some(holder) = state.holder {
            if !state.asked && !state.queue.is_empty() {
                state.asked = true;
                fx.send(holder, RaymondEnvelope { lock, payload: RaymondPayload::Request });
            }
        }
    }
}

impl Inspect for RaymondSpace {
    fn held_modes(&self, lock: LockId) -> Vec<Mode> {
        self.locks
            .get(lock.index())
            .and_then(|s| s.in_cs)
            .map(|_| vec![Mode::Write])
            .unwrap_or_default()
    }

    fn holds_token(&self, lock: LockId) -> bool {
        self.locks.get(lock.index()).is_some_and(RaymondLock::has_privilege)
    }

    fn open_requests(&self) -> Vec<(LockId, Ticket)> {
        let mut out = Vec::new();
        for (i, s) in self.locks.iter().enumerate() {
            let lock = LockId(i as u32);
            if !s.cancelled {
                for w in &s.queue {
                    if let Waiter::Me(t) = w {
                        out.push((lock, *t));
                    }
                }
            }
            out.extend(s.waiting.iter().map(|&t| (lock, t)));
        }
        out
    }
}

impl ConcurrencyProtocol for RaymondSpace {
    type Message = RaymondEnvelope;

    fn node_id(&self) -> NodeId {
        self.id
    }

    fn request(
        &mut self,
        lock: LockId,
        _mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<RaymondEnvelope>,
    ) -> Result<(), ProtocolError> {
        let id = self.id;
        let state = self.lock_mut(lock)?;
        let dup = state.in_cs == Some(ticket)
            || state.waiting.contains(&ticket)
            || state.queue.iter().any(|w| matches!(w, Waiter::Me(t) if *t == ticket));
        if dup {
            return Err(ProtocolError::DuplicateTicket { ticket });
        }
        if state.in_cs.is_some() || state.me_queued() {
            state.waiting.push_back(ticket);
            return Ok(());
        }
        state.queue.push_back(Waiter::Me(ticket));
        Self::assign(id, lock, state, fx);
        Self::make_request(lock, state, fx);
        Ok(())
    }

    fn release(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<RaymondEnvelope>,
    ) -> Result<(), ProtocolError> {
        let id = self.id;
        let state = self.lock_mut(lock)?;
        if state.in_cs != Some(ticket) {
            return Err(ProtocolError::NotHeld { ticket });
        }
        state.in_cs = None;
        // Queue the next local ticket, if any, behind current waiters.
        if let Some(next) = state.waiting.pop_front() {
            state.queue.push_back(Waiter::Me(next));
        }
        Self::assign(id, lock, state, fx);
        Self::make_request(lock, state, fx);
        Ok(())
    }

    fn upgrade(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<RaymondEnvelope>,
    ) -> Result<(), ProtocolError> {
        let state = self.lock_mut(lock)?;
        if state.in_cs != Some(ticket) {
            return Err(ProtocolError::NotHeld { ticket });
        }
        fx.granted(lock, ticket, Mode::Write); // already exclusive
        Ok(())
    }

    fn try_request(
        &mut self,
        lock: LockId,
        _mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<RaymondEnvelope>,
    ) -> Result<bool, ProtocolError> {
        let state = self.lock_mut(lock)?;
        if state.has_privilege() && state.in_cs.is_none() && state.queue.is_empty() {
            state.in_cs = Some(ticket);
            fx.granted(lock, ticket, Mode::Write);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn downgrade(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        _new_mode: Mode,
        _fx: &mut EffectSink<RaymondEnvelope>,
    ) -> Result<(), ProtocolError> {
        let state = self.lock_mut(lock)?;
        if state.in_cs != Some(ticket) {
            return Err(ProtocolError::NotHeld { ticket });
        }
        Ok(()) // exclusive-only: nothing to weaken
    }

    fn cancel(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        _fx: &mut EffectSink<RaymondEnvelope>,
    ) -> Result<CancelOutcome, ProtocolError> {
        let state = self.lock_mut(lock)?;
        if state.in_cs == Some(ticket) {
            return Err(ProtocolError::NotCancellable { ticket });
        }
        let before = state.waiting.len();
        state.waiting.retain(|&t| t != ticket);
        if state.waiting.len() < before {
            return Ok(CancelOutcome::Cancelled);
        }
        if state.queue.iter().any(|w| matches!(w, Waiter::Me(t) if *t == ticket)) {
            // The queue entry may already have propagated a Request up
            // the tree: absorb the privilege when it arrives.
            state.cancelled = true;
            return Ok(CancelOutcome::WillAbort);
        }
        Err(ProtocolError::NotHeld { ticket })
    }

    fn on_message(
        &mut self,
        from: NodeId,
        message: RaymondEnvelope,
        fx: &mut EffectSink<RaymondEnvelope>,
    ) {
        let id = self.id;
        let lock = message.lock;
        let Some(state) = self.locks.get_mut(lock.index()) else {
            debug_assert!(false, "message for unknown lock {lock}");
            return;
        };
        match message.payload {
            RaymondPayload::Request => {
                state.queue.push_back(Waiter::Neighbor(from));
                Self::assign(id, lock, state, fx);
                Self::make_request(lock, state, fx);
            }
            RaymondPayload::Privilege => {
                debug_assert_eq!(state.holder, Some(from), "privilege arrives from holder");
                state.holder = None;
                state.asked = false;
                Self::assign(id, lock, state, fx);
                Self::make_request(lock, state, fx);
            }
        }
    }

    fn is_quiescent(&self) -> bool {
        self.locks.iter().all(|s| s.queue.is_empty() && s.waiting.is_empty() && !s.asked)
    }
}

const TAG_REQUEST: u8 = 0;
const TAG_PRIVILEGE: u8 = 2;

impl WireCodec for RaymondEnvelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(self.lock.0));
        match self.payload {
            RaymondPayload::Request => buf.push(TAG_REQUEST),
            RaymondPayload::Privilege => buf.push(TAG_PRIVILEGE),
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let lock = LockId(get_varint(buf)? as u32);
        let payload = match get_u8(buf)? {
            TAG_REQUEST => RaymondPayload::Request,
            TAG_PRIVILEGE => RaymondPayload::Privilege,
            other => return Err(WireError::InvalidTag(other)),
        };
        Ok(RaymondEnvelope { lock, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlock_core::Effect;

    const L: LockId = LockId(0);

    fn sends(fx: &mut EffectSink<RaymondEnvelope>) -> Vec<(NodeId, RaymondEnvelope)> {
        fx.drain()
            .filter_map(|e| match e {
                Effect::Send { to, message } => Some((to, message)),
                _ => None,
            })
            .collect()
    }

    fn grants(fx: &mut EffectSink<RaymondEnvelope>) -> Vec<Ticket> {
        fx.drain()
            .filter_map(|e| match e {
                Effect::Granted { ticket, .. } => Some(ticket),
                _ => None,
            })
            .collect()
    }

    /// Delivers all in-flight messages until quiet.
    fn pump(nodes: &mut [RaymondSpace], fx: &mut EffectSink<RaymondEnvelope>, from: NodeId) {
        let mut inflight: Vec<(NodeId, NodeId, RaymondEnvelope)> = fx
            .drain()
            .filter_map(|e| match e {
                Effect::Send { to, message } => Some((from, to, message)),
                _ => None,
            })
            .collect();
        while let Some((src, dst, m)) = inflight.pop() {
            nodes[dst.index()].on_message(src, m, fx);
            inflight.extend(fx.drain().filter_map(|e| match e {
                Effect::Send { to, message } => Some((dst, to, message)),
                _ => None,
            }));
        }
    }

    #[test]
    fn tree_routing() {
        let t = Tree { nodes: 7 };
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.parent(NodeId(5)), Some(NodeId(2)));
        assert_eq!(t.toward(NodeId(0), NodeId(0)), None);
        assert_eq!(t.toward(NodeId(0), NodeId(5)), Some(NodeId(2)));
        assert_eq!(t.toward(NodeId(2), NodeId(5)), Some(NodeId(5)));
        assert_eq!(t.toward(NodeId(5), NodeId(0)), Some(NodeId(2)));
        assert_eq!(t.toward(NodeId(3), NodeId(4)), Some(NodeId(1)));
    }

    #[test]
    fn privilege_travels_along_tree_edges() {
        // 7 nodes, privilege at 0; node 5 (two hops away via 2) requests.
        let mut nodes: Vec<RaymondSpace> =
            (0..7).map(|i| RaymondSpace::new(NodeId(i), 7, 1, NodeId(0))).collect();
        let mut fx = EffectSink::new();
        nodes[5].request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        // The request must go to 5's tree parent (2), not directly to 0.
        let m = sends(&mut fx);
        assert_eq!(m[0].0, NodeId(2));
        nodes[2].on_message(NodeId(5), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        assert_eq!(m[0].0, NodeId(0), "2 relays toward the privilege");
        nodes[0].on_message(NodeId(2), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        assert!(matches!(m[0].1.payload, RaymondPayload::Privilege));
        assert_eq!(m[0].0, NodeId(2), "privilege moves hop-by-hop");
        nodes[2].on_message(NodeId(0), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        assert_eq!(m[0].0, NodeId(5));
        nodes[5].on_message(NodeId(2), m[0].1.clone(), &mut fx);
        assert_eq!(grants(&mut fx), vec![Ticket(1)]);
        assert!(nodes[5].has_privilege(L));
        assert!(!nodes[0].has_privilege(L));
    }

    #[test]
    fn contention_round_robin_is_safe_and_complete() {
        let n = 7;
        let mut nodes: Vec<RaymondSpace> =
            (0..n as u32).map(|i| RaymondSpace::new(NodeId(i), n, 1, NodeId(0))).collect();
        let mut fx = EffectSink::new();
        // Everyone requests at once (requests pumped eagerly one by one).
        for i in 0..n {
            nodes[i].request(L, Mode::Write, Ticket(100 + i as u64), &mut fx).unwrap();
            pump(&mut nodes, &mut fx, NodeId(i as u32));
        }
        // Serve until quiescent: release whoever is in CS.
        let mut served = 0;
        for _ in 0..100 {
            let Some(holder) = (0..n).find(|&i| !nodes[i].held_modes(L).is_empty()) else {
                break;
            };
            let t = Ticket(100 + holder as u64);
            nodes[holder].release(L, t, &mut fx).unwrap();
            served += 1;
            pump(&mut nodes, &mut fx, NodeId(holder as u32));
        }
        assert_eq!(served, n, "every node entered exactly once");
        assert!(nodes.iter().all(|s| s.is_quiescent()));
        assert_eq!(nodes.iter().filter(|s| s.has_privilege(L)).count(), 1);
    }

    #[test]
    fn duplicate_and_unknown_tickets_rejected() {
        let mut a = RaymondSpace::new(NodeId(0), 3, 1, NodeId(0));
        let mut fx = EffectSink::new();
        a.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        assert_eq!(
            a.request(L, Mode::Write, Ticket(1), &mut fx).unwrap_err(),
            ProtocolError::DuplicateTicket { ticket: Ticket(1) }
        );
        assert_eq!(
            a.release(L, Ticket(9), &mut fx).unwrap_err(),
            ProtocolError::NotHeld { ticket: Ticket(9) }
        );
        assert_eq!(
            a.request(LockId(7), Mode::Write, Ticket(2), &mut fx).unwrap_err(),
            ProtocolError::UnknownLock { lock: LockId(7) }
        );
    }

    #[test]
    fn local_fifo_and_try_request() {
        let mut a = RaymondSpace::new(NodeId(0), 1, 1, NodeId(0));
        let mut fx = EffectSink::new();
        a.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        a.request(L, Mode::Write, Ticket(2), &mut fx).unwrap();
        assert_eq!(grants(&mut fx), vec![Ticket(1)]);
        assert!(!a.try_request(L, Mode::Write, Ticket(3), &mut fx).unwrap());
        a.release(L, Ticket(1), &mut fx).unwrap();
        assert_eq!(grants(&mut fx), vec![Ticket(2)]);
        a.release(L, Ticket(2), &mut fx).unwrap();
        assert!(a.try_request(L, Mode::Write, Ticket(3), &mut fx).unwrap());
        a.release(L, Ticket(3), &mut fx).unwrap();
        assert!(a.is_quiescent());
    }

    #[test]
    fn cancel_waiting_and_in_flight() {
        let mut nodes: Vec<RaymondSpace> =
            (0..3).map(|i| RaymondSpace::new(NodeId(i), 3, 1, NodeId(0))).collect();
        let mut fx = EffectSink::new();
        // Waiting ticket cancels cleanly.
        nodes[1].request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        nodes[1].request(L, Mode::Write, Ticket(2), &mut fx).unwrap();
        assert_eq!(nodes[1].cancel(L, Ticket(2), &mut fx).unwrap(), CancelOutcome::Cancelled);
        // In-flight request: privilege is absorbed, CS skipped.
        assert_eq!(nodes[1].cancel(L, Ticket(1), &mut fx).unwrap(), CancelOutcome::WillAbort);
        pump(&mut nodes, &mut fx, NodeId(1));
        assert!(grants(&mut fx).is_empty());
        assert!(nodes[1].has_privilege(L));
        assert!(nodes[1].is_quiescent());
    }

    #[test]
    fn message_kinds() {
        assert_eq!(RaymondPayload::Request.kind(), MessageKind::Request);
        assert_eq!(RaymondPayload::Privilege.kind(), MessageKind::Token);
        assert_eq!(
            RaymondEnvelope { lock: L, payload: RaymondPayload::Privilege }.kind(),
            MessageKind::Token
        );
    }

    fn roundtrip<M: WireCodec + PartialEq + std::fmt::Debug>(m: &M) {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let mut bytes = buf.as_slice();
        let decoded = M::decode(&mut bytes).expect("decodes");
        assert_eq!(&decoded, m);
        assert!(bytes.is_empty(), "no trailing bytes");
    }

    #[test]
    fn wire_variants_roundtrip() {
        roundtrip(&RaymondEnvelope { lock: LockId(9), payload: RaymondPayload::Request });
        roundtrip(&RaymondEnvelope { lock: LockId(0), payload: RaymondPayload::Privilege });
        let mut unknown_tag = &[0x00, 0x07][..];
        assert_eq!(RaymondEnvelope::decode(&mut unknown_tag), Err(WireError::InvalidTag(7)));
    }

    #[test]
    fn prop_wire_roundtrip() {
        hlock_core::rng::check_cases(256, |rng| {
            let payload =
                if rng.chance(0.5) { RaymondPayload::Request } else { RaymondPayload::Privilege };
            roundtrip(&RaymondEnvelope { lock: LockId(rng.next_u64() as u32), payload });
        });
    }
}
