//! # hlock-suzuki
//!
//! The **Suzuki–Kasami broadcast algorithm** for distributed mutual
//! exclusion (*A distributed mutual exclusion algorithm*, ACM TOCS 3(4),
//! 1985) — reference \[20\] of the paper. Its §2 dismisses broadcast
//! protocols as "generally suffer\[ing\] from limited scalability due to
//! … their message overhead"; this crate exists so the `baselines` bench
//! can *measure* that claim: every acquisition broadcasts a request to
//! all `n − 1` peers, so message overhead grows **linearly** with the
//! system size, against the logarithmic/constant token-tree protocols.
//!
//! State per node: `RN[j]` — the highest request sequence number heard
//! from node `j`. The token carries `LN[j]` — the sequence number of
//! `j`'s last *served* request — plus a FIFO queue of nodes with
//! outstanding requests. A node holding the idle token serves `j`
//! directly when `RN[j] = LN[j] + 1`; on release, the holder enqueues
//! every such `j` and passes the token to the queue head.
//!
//! Exclusive-only, sans-I/O, implementing the workspace-wide
//! [`ConcurrencyProtocol`] trait.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use hlock_core::{
    CancelOutcome, Classify, ConcurrencyProtocol, EffectSink, Inspect, LockId, MessageKind, Mode,
    NodeId, ProtocolError, Ticket,
};
use hlock_wire::{get_u8, get_varint, put_varint, WireCodec, WireError};
use std::collections::VecDeque;

/// A Suzuki–Kasami message about one lock.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SuzukiPayload {
    /// Broadcast: `origin`'s `seq`-th request.
    Request {
        /// The requesting node.
        origin: NodeId,
        /// Its request sequence number.
        seq: u64,
    },
    /// The token: last-served sequence numbers and the waiter queue.
    Token {
        /// `LN[j]`: sequence number of node `j`'s last served request.
        last_served: Vec<u64>,
        /// FIFO queue of nodes awaiting the token.
        queue: Vec<NodeId>,
    },
}

impl Classify for SuzukiPayload {
    fn kind(&self) -> MessageKind {
        match self {
            SuzukiPayload::Request { .. } => MessageKind::Request,
            SuzukiPayload::Token { .. } => MessageKind::Token,
        }
    }
}

/// A [`SuzukiPayload`] addressed to one lock instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SuzukiEnvelope {
    /// The lock concerned.
    pub lock: LockId,
    /// The protocol message.
    pub payload: SuzukiPayload,
}

impl Classify for SuzukiEnvelope {
    fn kind(&self) -> MessageKind {
        self.payload.kind()
    }
}

/// The token's contents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TokenState {
    last_served: Vec<u64>,
    queue: VecDeque<NodeId>,
}

/// Per-lock Suzuki–Kasami state at one node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SuzukiLock {
    /// `RN[j]`: highest request sequence number heard from node `j`.
    request_numbers: Vec<u64>,
    token: Option<TokenState>,
    in_cs: Option<Ticket>,
    /// Ticket whose broadcast is outstanding.
    requesting: Option<Ticket>,
    waiting: VecDeque<Ticket>,
    cancelled: bool,
}

impl SuzukiLock {
    fn new(id: NodeId, nodes: usize, token_home: NodeId) -> Self {
        SuzukiLock {
            request_numbers: vec![0; nodes],
            token: (id == token_home)
                .then(|| TokenState { last_served: vec![0; nodes], queue: VecDeque::new() }),
            in_cs: None,
            requesting: None,
            waiting: VecDeque::new(),
            cancelled: false,
        }
    }
}

/// All per-lock Suzuki–Kasami state of one node.
///
/// ```
/// use hlock_core::{ConcurrencyProtocol, Effect, EffectSink, LockId, Mode, NodeId, Ticket};
/// use hlock_suzuki::SuzukiSpace;
///
/// # fn main() -> Result<(), hlock_core::ProtocolError> {
/// let mut home = SuzukiSpace::new(NodeId(0), 3, 1, NodeId(0));
/// let mut fx = EffectSink::new();
/// home.request(LockId(0), Mode::Write, Ticket(1), &mut fx)?;
/// assert!(matches!(fx.drain().next(), Some(Effect::Granted { .. })));
/// home.release(LockId(0), Ticket(1), &mut fx)?;
/// # Ok(()) }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SuzukiSpace {
    id: NodeId,
    nodes: usize,
    locks: Vec<SuzukiLock>,
}

impl SuzukiSpace {
    /// Creates the state for `lock_count` locks at node `id` in a system
    /// of `nodes` nodes, with `token_home` initially holding every token.
    ///
    /// # Panics
    ///
    /// Panics if `id` or `token_home` is outside `0..nodes`.
    pub fn new(id: NodeId, nodes: usize, lock_count: usize, token_home: NodeId) -> Self {
        assert!(id.index() < nodes && token_home.index() < nodes);
        SuzukiSpace {
            id,
            nodes,
            locks: (0..lock_count).map(|_| SuzukiLock::new(id, nodes, token_home)).collect(),
        }
    }

    /// Number of locks managed.
    pub fn lock_count(&self) -> usize {
        self.locks.len()
    }

    /// Whether this node currently holds the token for `lock`.
    ///
    /// # Panics
    ///
    /// Panics if `lock` is out of range.
    pub fn has_token(&self, lock: LockId) -> bool {
        self.locks[lock.index()].token.is_some()
    }

    fn lock_mut(&mut self, lock: LockId) -> Result<&mut SuzukiLock, ProtocolError> {
        self.locks.get_mut(lock.index()).ok_or(ProtocolError::UnknownLock { lock })
    }

    fn enter_cs(
        lock: LockId,
        state: &mut SuzukiLock,
        ticket: Ticket,
        fx: &mut EffectSink<SuzukiEnvelope>,
    ) {
        debug_assert!(state.token.is_some() && state.in_cs.is_none());
        state.in_cs = Some(ticket);
        fx.granted(lock, ticket, Mode::Write);
    }

    /// Broadcasts our next request to every peer.
    fn broadcast_request(
        id: NodeId,
        nodes: usize,
        lock: LockId,
        state: &mut SuzukiLock,
        ticket: Ticket,
        fx: &mut EffectSink<SuzukiEnvelope>,
    ) {
        let seq = state.request_numbers[id.index()] + 1;
        state.request_numbers[id.index()] = seq;
        state.requesting = Some(ticket);
        for j in 0..nodes {
            if j != id.index() {
                fx.send(
                    NodeId(j as u32),
                    SuzukiEnvelope { lock, payload: SuzukiPayload::Request { origin: id, seq } },
                );
            }
        }
    }

    /// On release (or absorbed cancel): update `LN`, collect newly
    /// outstanding requesters into the token queue, pass the token on.
    fn release_token(
        id: NodeId,
        lock: LockId,
        state: &mut SuzukiLock,
        fx: &mut EffectSink<SuzukiEnvelope>,
    ) {
        let rn = state.request_numbers.clone();
        let token = state.token.as_mut().expect("release requires the token");
        token.last_served[id.index()] = rn[id.index()];
        for (j, &r) in rn.iter().enumerate() {
            let nj = NodeId(j as u32);
            if r == token.last_served[j] + 1 && !token.queue.contains(&nj) && j != id.index() {
                token.queue.push_back(nj);
            }
        }
        if let Some(next) = token.queue.pop_front() {
            let token = state.token.take().expect("still here");
            fx.send(
                next,
                SuzukiEnvelope {
                    lock,
                    payload: SuzukiPayload::Token {
                        last_served: token.last_served,
                        queue: token.queue.into_iter().collect(),
                    },
                },
            );
        }
    }
}

impl Inspect for SuzukiSpace {
    fn held_modes(&self, lock: LockId) -> Vec<Mode> {
        self.locks
            .get(lock.index())
            .and_then(|s| s.in_cs)
            .map(|_| vec![Mode::Write])
            .unwrap_or_default()
    }

    fn holds_token(&self, lock: LockId) -> bool {
        self.locks.get(lock.index()).is_some_and(|s| s.token.is_some())
    }

    fn open_requests(&self) -> Vec<(LockId, Ticket)> {
        let mut out = Vec::new();
        for (i, s) in self.locks.iter().enumerate() {
            let lock = LockId(i as u32);
            if !s.cancelled {
                out.extend(s.requesting.map(|t| (lock, t)));
            }
            out.extend(s.waiting.iter().map(|&t| (lock, t)));
        }
        out
    }
}

impl ConcurrencyProtocol for SuzukiSpace {
    type Message = SuzukiEnvelope;

    fn node_id(&self) -> NodeId {
        self.id
    }

    fn request(
        &mut self,
        lock: LockId,
        _mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<SuzukiEnvelope>,
    ) -> Result<(), ProtocolError> {
        let id = self.id;
        let nodes = self.nodes;
        let state = self.lock_mut(lock)?;
        let dup = state.in_cs == Some(ticket)
            || state.requesting == Some(ticket)
            || state.waiting.contains(&ticket);
        if dup {
            return Err(ProtocolError::DuplicateTicket { ticket });
        }
        if state.in_cs.is_some() || state.requesting.is_some() {
            state.waiting.push_back(ticket);
        } else if state.token.is_some() {
            Self::enter_cs(lock, state, ticket, fx);
        } else {
            Self::broadcast_request(id, nodes, lock, state, ticket, fx);
        }
        Ok(())
    }

    fn release(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<SuzukiEnvelope>,
    ) -> Result<(), ProtocolError> {
        let id = self.id;
        let nodes = self.nodes;
        let state = self.lock_mut(lock)?;
        if state.in_cs != Some(ticket) {
            return Err(ProtocolError::NotHeld { ticket });
        }
        state.in_cs = None;
        Self::release_token(id, lock, state, fx);
        if let Some(next) = state.waiting.pop_front() {
            if state.token.is_some() {
                Self::enter_cs(lock, state, next, fx);
            } else {
                Self::broadcast_request(id, nodes, lock, state, next, fx);
            }
        }
        Ok(())
    }

    fn upgrade(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<SuzukiEnvelope>,
    ) -> Result<(), ProtocolError> {
        let state = self.lock_mut(lock)?;
        if state.in_cs != Some(ticket) {
            return Err(ProtocolError::NotHeld { ticket });
        }
        fx.granted(lock, ticket, Mode::Write);
        Ok(())
    }

    fn try_request(
        &mut self,
        lock: LockId,
        _mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<SuzukiEnvelope>,
    ) -> Result<bool, ProtocolError> {
        let state = self.lock_mut(lock)?;
        if state.token.is_some() && state.in_cs.is_none() && state.requesting.is_none() {
            Self::enter_cs(lock, state, ticket, fx);
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
        _fx: &mut EffectSink<SuzukiEnvelope>,
    ) -> Result<(), ProtocolError> {
        let state = self.lock_mut(lock)?;
        if state.in_cs != Some(ticket) {
            return Err(ProtocolError::NotHeld { ticket });
        }
        Ok(())
    }

    fn cancel(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        _fx: &mut EffectSink<SuzukiEnvelope>,
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
        if state.requesting == Some(ticket) {
            state.cancelled = true;
            return Ok(CancelOutcome::WillAbort);
        }
        Err(ProtocolError::NotHeld { ticket })
    }

    fn on_message(
        &mut self,
        _from: NodeId,
        message: SuzukiEnvelope,
        fx: &mut EffectSink<SuzukiEnvelope>,
    ) {
        let id = self.id;
        let nodes = self.nodes;
        let lock = message.lock;
        let Some(state) = self.locks.get_mut(lock.index()) else {
            debug_assert!(false, "message for unknown lock {lock}");
            return;
        };
        match message.payload {
            SuzukiPayload::Request { origin, seq } => {
                let rn = &mut state.request_numbers[origin.index()];
                *rn = (*rn).max(seq);
                // An idle token holder serves the outstanding request.
                let can_serve = state.in_cs.is_none()
                    && state.requesting.is_none()
                    && state.token.as_ref().is_some_and(|t| {
                        state.request_numbers[origin.index()] == t.last_served[origin.index()] + 1
                    });
                if can_serve {
                    let mut token = state.token.take().expect("checked");
                    // Our own LN is already current (set at release time).
                    token.queue.retain(|&n| n != origin);
                    fx.send(
                        origin,
                        SuzukiEnvelope {
                            lock,
                            payload: SuzukiPayload::Token {
                                last_served: token.last_served,
                                queue: token.queue.into_iter().collect(),
                            },
                        },
                    );
                }
            }
            SuzukiPayload::Token { last_served, queue } => {
                debug_assert!(state.token.is_none(), "duplicate token");
                state.token = Some(TokenState { last_served, queue: queue.into_iter().collect() });
                let ticket =
                    state.requesting.take().expect("token arrives only in response to a request");
                if state.cancelled {
                    state.cancelled = false;
                    // Serve our sequence number (the request is consumed)
                    // but skip the critical section; pass the token along.
                    Self::release_token(id, lock, state, fx);
                    if let Some(next) = state.waiting.pop_front() {
                        if state.token.is_some() {
                            Self::enter_cs(lock, state, next, fx);
                        } else {
                            Self::broadcast_request(id, nodes, lock, state, next, fx);
                        }
                    }
                } else {
                    Self::enter_cs(lock, state, ticket, fx);
                }
            }
        }
    }

    fn is_quiescent(&self) -> bool {
        self.locks.iter().all(|s| s.requesting.is_none() && s.waiting.is_empty())
    }
}

const TAG_REQUEST: u8 = 0;
const TAG_TOKEN: u8 = 2;

impl WireCodec for SuzukiEnvelope {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, u64::from(self.lock.0));
        match &self.payload {
            SuzukiPayload::Request { origin, seq } => {
                buf.push(TAG_REQUEST);
                put_varint(buf, u64::from(origin.0));
                put_varint(buf, *seq);
            }
            SuzukiPayload::Token { last_served, queue } => {
                buf.push(TAG_TOKEN);
                put_varint(buf, last_served.len() as u64);
                for v in last_served {
                    put_varint(buf, *v);
                }
                put_varint(buf, queue.len() as u64);
                for n in queue {
                    put_varint(buf, u64::from(n.0));
                }
            }
        }
    }

    fn decode(buf: &mut &[u8]) -> Result<Self, WireError> {
        let lock = LockId(get_varint(buf)? as u32);
        let payload = match get_u8(buf)? {
            TAG_REQUEST => SuzukiPayload::Request {
                origin: NodeId(get_varint(buf)? as u32),
                seq: get_varint(buf)?,
            },
            TAG_TOKEN => {
                let n = get_varint(buf)? as usize;
                let mut last_served = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    last_served.push(get_varint(buf)?);
                }
                let q = get_varint(buf)? as usize;
                let mut queue = Vec::with_capacity(q.min(4096));
                for _ in 0..q {
                    queue.push(NodeId(get_varint(buf)? as u32));
                }
                SuzukiPayload::Token { last_served, queue }
            }
            other => return Err(WireError::InvalidTag(other)),
        };
        Ok(SuzukiEnvelope { lock, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlock_core::Effect;

    const L: LockId = LockId(0);

    fn sends(fx: &mut EffectSink<SuzukiEnvelope>) -> Vec<(NodeId, SuzukiEnvelope)> {
        fx.drain()
            .filter_map(|e| match e {
                Effect::Send { to, message } => Some((to, message)),
                _ => None,
            })
            .collect()
    }

    fn grants(fx: &mut EffectSink<SuzukiEnvelope>) -> Vec<Ticket> {
        fx.drain()
            .filter_map(|e| match e {
                Effect::Granted { ticket, .. } => Some(ticket),
                _ => None,
            })
            .collect()
    }

    fn pump(nodes: &mut [SuzukiSpace], fx: &mut EffectSink<SuzukiEnvelope>, from: NodeId) {
        let mut wire: Vec<(NodeId, NodeId, SuzukiEnvelope)> = fx
            .drain()
            .filter_map(|e| match e {
                Effect::Send { to, message } => Some((from, to, message)),
                _ => None,
            })
            .collect();
        while !wire.is_empty() {
            let (src, dst, msg) = wire.remove(0);
            nodes[dst.index()].on_message(src, msg, fx);
            wire.extend(fx.drain().filter_map(|e| match e {
                Effect::Send { to, message } => Some((dst, to, message)),
                _ => None,
            }));
        }
    }

    #[test]
    fn request_broadcasts_to_all_peers() {
        let mut nodes: Vec<SuzukiSpace> =
            (0..5).map(|i| SuzukiSpace::new(NodeId(i), 5, 1, NodeId(0))).collect();
        let mut fx = EffectSink::new();
        nodes[3].request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        let m = sends(&mut fx);
        assert_eq!(m.len(), 4, "broadcast to every peer: O(n) messages");
        let mut to: Vec<u32> = m.iter().map(|(n, _)| n.0).collect();
        to.sort_unstable();
        assert_eq!(to, vec![0, 1, 2, 4]);
    }

    #[test]
    fn token_moves_to_requester() {
        let mut nodes: Vec<SuzukiSpace> =
            (0..3).map(|i| SuzukiSpace::new(NodeId(i), 3, 1, NodeId(0))).collect();
        let mut fx = EffectSink::new();
        nodes[2].request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        pump(&mut nodes, &mut fx, NodeId(2));
        assert_eq!(nodes[2].held_modes(L), vec![Mode::Write], "node 2 entered its CS");
        assert!(nodes[2].has_token(L));
        assert!(!nodes[0].has_token(L));
    }

    #[test]
    fn contention_serves_everyone_once() {
        let n = 6;
        let mut nodes: Vec<SuzukiSpace> =
            (0..n as u32).map(|i| SuzukiSpace::new(NodeId(i), n, 1, NodeId(0))).collect();
        let mut fx = EffectSink::new();
        for i in 0..n {
            nodes[i].request(L, Mode::Write, Ticket(100 + i as u64), &mut fx).unwrap();
            pump(&mut nodes, &mut fx, NodeId(i as u32));
        }
        let mut served = 0;
        for _ in 0..50 {
            let Some(h) = (0..n).find(|&i| !nodes[i].held_modes(L).is_empty()) else { break };
            nodes[h].release(L, Ticket(100 + h as u64), &mut fx).unwrap();
            served += 1;
            pump(&mut nodes, &mut fx, NodeId(h as u32));
        }
        assert_eq!(served, n);
        assert!(nodes.iter().all(|s| s.is_quiescent()));
        assert_eq!(nodes.iter().filter(|s| s.has_token(L)).count(), 1);
    }

    #[test]
    fn stale_rebroadcasts_are_ignored() {
        // A request already served (RN == LN) must not win the token again.
        let mut nodes: Vec<SuzukiSpace> =
            (0..3).map(|i| SuzukiSpace::new(NodeId(i), 3, 1, NodeId(0))).collect();
        let mut fx = EffectSink::new();
        nodes[1].request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        pump(&mut nodes, &mut fx, NodeId(1));
        fx.drain().count();
        nodes[1].release(L, Ticket(1), &mut fx).unwrap();
        pump(&mut nodes, &mut fx, NodeId(1));
        // Replay node 1's old request at node 1 (which holds the token).
        nodes[1].on_message(
            NodeId(0),
            SuzukiEnvelope {
                lock: L,
                payload: SuzukiPayload::Request { origin: NodeId(0), seq: 0 },
            },
            &mut fx,
        );
        assert!(sends(&mut fx).is_empty(), "stale request must not move the token");
        assert!(nodes[1].has_token(L));
    }

    #[test]
    fn local_fifo_and_errors() {
        let mut a = SuzukiSpace::new(NodeId(0), 2, 1, NodeId(0));
        let mut fx = EffectSink::new();
        a.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        a.request(L, Mode::Write, Ticket(2), &mut fx).unwrap();
        assert_eq!(grants(&mut fx), vec![Ticket(1)]);
        assert_eq!(
            a.request(L, Mode::Write, Ticket(2), &mut fx).unwrap_err(),
            ProtocolError::DuplicateTicket { ticket: Ticket(2) }
        );
        a.release(L, Ticket(1), &mut fx).unwrap();
        assert_eq!(grants(&mut fx), vec![Ticket(2)]);
        a.release(L, Ticket(2), &mut fx).unwrap();
        assert!(a.is_quiescent());
        assert_eq!(
            a.release(L, Ticket(9), &mut fx).unwrap_err(),
            ProtocolError::NotHeld { ticket: Ticket(9) }
        );
    }

    #[test]
    fn cancel_semantics() {
        let mut nodes: Vec<SuzukiSpace> =
            (0..3).map(|i| SuzukiSpace::new(NodeId(i), 3, 1, NodeId(0))).collect();
        let mut fx = EffectSink::new();
        nodes[1].request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        assert_eq!(nodes[1].cancel(L, Ticket(1), &mut fx).unwrap(), CancelOutcome::WillAbort);
        pump(&mut nodes, &mut fx, NodeId(1));
        assert!(nodes[1].held_modes(L).is_empty(), "no CS entry for a cancelled ticket");
        assert!(nodes[1].is_quiescent());
        // Whoever holds the token, the system stays usable.
        let holder = (0..3).find(|&i| nodes[i].has_token(L)).unwrap();
        nodes[holder].request(L, Mode::Write, Ticket(7), &mut fx).unwrap();
        assert_eq!(grants(&mut fx), vec![Ticket(7)]);
    }

    #[test]
    fn try_request_is_local_only() {
        let mut a = SuzukiSpace::new(NodeId(0), 3, 1, NodeId(0));
        let mut b = SuzukiSpace::new(NodeId(1), 3, 1, NodeId(0));
        let mut fx = EffectSink::new();
        assert!(a.try_request(L, Mode::Write, Ticket(1), &mut fx).unwrap());
        assert!(!b.try_request(L, Mode::Write, Ticket(1), &mut fx).unwrap());
        assert!(fx.drain().all(|e| !matches!(e, Effect::Send { .. })));
    }

    #[test]
    fn message_kinds() {
        assert_eq!(
            SuzukiPayload::Request { origin: NodeId(0), seq: 1 }.kind(),
            MessageKind::Request
        );
        assert_eq!(
            SuzukiEnvelope {
                lock: L,
                payload: SuzukiPayload::Token { last_served: vec![], queue: vec![] }
            }
            .kind(),
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
        roundtrip(&SuzukiEnvelope {
            lock: LockId(2),
            payload: SuzukiPayload::Request { origin: NodeId(9), seq: 1234 },
        });
        roundtrip(&SuzukiEnvelope {
            lock: LockId(0),
            payload: SuzukiPayload::Token {
                last_served: vec![0, 3, 999, u64::MAX],
                queue: vec![NodeId(1), NodeId(3)],
            },
        });
    }
}
