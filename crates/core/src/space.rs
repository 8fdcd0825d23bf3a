//! Multi-lock multiplexing: one [`LockSpace`] per node manages a
//! [`crate::LockNode`] state machine for every lock in the system.

use crate::config::ProtocolConfig;
use crate::effect::EffectSink;
use crate::error::ProtocolError;
use crate::ids::{LockId, NodeId, Priority, Ticket};
use crate::message::Envelope;
use crate::mode::Mode;
use crate::node::LockNode;
use crate::protocol::{CancelOutcome, ConcurrencyProtocol, Inspect};

/// All per-lock protocol state of one node.
///
/// Lock ids are dense (`0..lock_count`); every lock starts with the same
/// token home. The type implements [`ConcurrencyProtocol`] by handing
/// each call to the lock's state machine, which sends [`Envelope`]s
/// stamped with its lock.
///
/// ```
/// use hlock_core::{ConcurrencyProtocol, EffectSink, LockId, LockSpace, Mode,
///                  NodeId, ProtocolConfig, Ticket};
/// let mut space = LockSpace::new(NodeId(0), 2, NodeId(0), ProtocolConfig::default());
/// let mut fx = EffectSink::new();
/// space.request(LockId(1), Mode::Write, Ticket(1), &mut fx)?;
/// assert_eq!(fx.len(), 1); // granted locally: node 0 is the token home
/// # Ok::<(), hlock_core::ProtocolError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LockSpace {
    id: NodeId,
    locks: Vec<LockNode>,
}

impl LockSpace {
    /// Creates the state for `lock_count` locks at node `id`, with
    /// `token_home` initially holding every token.
    pub fn new(id: NodeId, lock_count: usize, token_home: NodeId, config: ProtocolConfig) -> Self {
        Self::with_homes(id, &vec![token_home; lock_count], config)
    }

    /// Like [`LockSpace::new`] but with one initial token home per lock
    /// (`homes[l]` holds lock `l`'s token). Spreading homes across nodes
    /// avoids a single hot root when many locks are busy at once.
    ///
    /// Every node in the system must be constructed with the *same*
    /// `homes` slice.
    pub fn with_homes(id: NodeId, homes: &[NodeId], config: ProtocolConfig) -> Self {
        let locks = homes
            .iter()
            .enumerate()
            .map(|(l, &home)| LockNode::new(id, LockId(l as u32), home, config))
            .collect();
        LockSpace { id, locks }
    }

    /// Number of locks managed.
    pub fn lock_count(&self) -> usize {
        self.locks.len()
    }

    /// Read-only access to one lock's state machine.
    ///
    /// # Panics
    ///
    /// Panics if `lock` is out of range.
    pub fn lock_state(&self, lock: LockId) -> &LockNode {
        &self.locks[lock.index()]
    }

    fn lock_mut(&mut self, lock: LockId) -> Result<&mut LockNode, ProtocolError> {
        let idx = lock.index();
        if idx >= self.locks.len() {
            return Err(ProtocolError::UnknownLock { lock });
        }
        Ok(&mut self.locks[idx])
    }

    /// Issues a whole multi-lock acquisition plan as **one protocol
    /// step**: every `(lock, mode, ticket)` request is processed in
    /// order, with all effects accumulated in the same sink. Dispatched
    /// through [`crate::HostRuntime`], the step yields at most one batch
    /// per peer — a hierarchical CCS acquire that sends IR + R along a
    /// shared path costs one wire frame, not one per level.
    ///
    /// # Errors
    ///
    /// Unknown locks are rejected up front (before any request is
    /// issued). A duplicate ticket surfaces mid-plan: requests before it
    /// have already taken effect, exactly as if issued individually.
    pub fn request_batch(
        &mut self,
        steps: &[(LockId, Mode, Ticket)],
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        for &(lock, ..) in steps {
            if lock.index() >= self.locks.len() {
                return Err(ProtocolError::UnknownLock { lock });
            }
        }
        for &(lock, mode, ticket) in steps {
            self.request(lock, mode, ticket, fx)?;
        }
        Ok(())
    }

    /// Replaces every per-lock state machine with its post-recovery
    /// rebuild ([`LockNode::recovered`]): `homes[l]` is lock `l`'s new
    /// token home and `copysets[l]` its surviving children. Local
    /// critical-section entries survive when `keep_held` is true (this
    /// node is in the install's live set) and are voided otherwise.
    /// Lamport clocks carry over so stamps never regress across epochs.
    pub(crate) fn rebuild_from_install(
        &mut self,
        homes: &[NodeId],
        copysets: &[Vec<(NodeId, Mode)>],
        keep_held: bool,
    ) {
        for (l, node) in self.locks.iter_mut().enumerate() {
            let held = if keep_held { node.held().to_vec() } else { Vec::new() };
            *node = LockNode::recovered(
                self.id,
                LockId(l as u32),
                node.config(),
                homes[l],
                &copysets[l],
                held,
                node.clock(),
            );
        }
    }
}

impl ConcurrencyProtocol for LockSpace {
    type Message = Envelope;

    fn node_id(&self) -> NodeId {
        self.id
    }

    fn request(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        self.lock_mut(lock)?.request(mode, ticket, fx)
    }

    fn request_with_priority(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        priority: Priority,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        self.lock_mut(lock)?.request_with_priority(mode, ticket, priority, fx)
    }

    fn release(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        self.lock_mut(lock)?.release(ticket, fx).map(|_| ())
    }

    fn upgrade(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        self.lock_mut(lock)?.upgrade(ticket, fx)
    }

    fn try_request(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<bool, ProtocolError> {
        self.lock_mut(lock)?.try_request(mode, ticket, fx)
    }

    fn downgrade(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        new_mode: Mode,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        self.lock_mut(lock)?.downgrade(ticket, new_mode, fx)
    }

    fn cancel(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<CancelOutcome, ProtocolError> {
        self.lock_mut(lock)?.cancel(ticket, fx)
    }

    fn on_message(&mut self, from: NodeId, message: Envelope, fx: &mut EffectSink<Envelope>) {
        let lock = message.lock;
        debug_assert!(lock.index() < self.locks.len(), "message for unknown lock {lock}");
        if let Some(node) = self.locks.get_mut(lock.index()) {
            node.on_message(from, message.payload, fx);
        }
    }

    fn is_quiescent(&self) -> bool {
        self.locks.iter().all(LockNode::is_quiescent)
    }
}

impl Inspect for LockSpace {
    fn held_modes(&self, lock: LockId) -> Vec<Mode> {
        self.locks
            .get(lock.index())
            .map(|l| l.held().iter().map(|&(_, m)| m).collect())
            .unwrap_or_default()
    }

    fn holds_token(&self, lock: LockId) -> bool {
        self.locks.get(lock.index()).is_some_and(LockNode::is_token)
    }

    fn lock_node(&self, lock: LockId) -> Option<&LockNode> {
        self.locks.get(lock.index())
    }

    fn open_requests(&self) -> Vec<(LockId, Ticket)> {
        let mut out = Vec::new();
        for (i, node) in self.locks.iter().enumerate() {
            let (requests, upgrades) = node.outstanding_snapshot();
            let lock = LockId(i as u32);
            out.extend(requests.into_iter().map(|(t, _, _)| (lock, t)));
            out.extend(upgrades.into_iter().map(|t| (lock, t)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::Effect;

    #[test]
    fn locks_are_independent() {
        let cfg = ProtocolConfig::default();
        let mut a = LockSpace::new(NodeId(0), 3, NodeId(0), cfg);
        let mut fx = EffectSink::new();
        a.request(LockId(0), Mode::Write, Ticket(1), &mut fx).unwrap();
        a.request(LockId(1), Mode::Write, Ticket(1), &mut fx).unwrap();
        let grants = fx.drain().filter(|e| matches!(e, Effect::Granted { .. })).count();
        assert_eq!(grants, 2, "same ticket on different locks is fine");
        assert!(a.lock_state(LockId(0)).is_token());
        assert_eq!(a.lock_state(LockId(2)).owned(), None);
    }

    #[test]
    fn unknown_lock_is_rejected() {
        let cfg = ProtocolConfig::default();
        let mut a = LockSpace::new(NodeId(0), 1, NodeId(0), cfg);
        let mut fx = EffectSink::new();
        let err = a.request(LockId(5), Mode::Read, Ticket(1), &mut fx).unwrap_err();
        assert_eq!(err, ProtocolError::UnknownLock { lock: LockId(5) });
    }

    #[test]
    fn envelopes_round_trip_between_spaces() {
        let cfg = ProtocolConfig::default();
        let mut a = LockSpace::new(NodeId(0), 2, NodeId(0), cfg);
        let mut b = LockSpace::new(NodeId(1), 2, NodeId(0), cfg);
        let mut fx = EffectSink::new();
        b.request(LockId(1), Mode::Write, Ticket(7), &mut fx).unwrap();
        let msgs: Vec<_> = fx
            .drain()
            .filter_map(|e| match e {
                Effect::Send { to, message } => Some((to, message)),
                _ => None,
            })
            .collect();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].0, NodeId(0));
        assert_eq!(msgs[0].1.lock, LockId(1));
        a.on_message(NodeId(1), msgs[0].1.clone(), &mut fx);
        let msgs: Vec<_> = fx
            .drain()
            .filter_map(|e| match e {
                Effect::Send { to, message } => Some((to, message)),
                _ => None,
            })
            .collect();
        b.on_message(NodeId(0), msgs[0].1.clone(), &mut fx);
        let granted: Vec<_> = fx
            .drain()
            .filter_map(|e| match e {
                Effect::Granted { lock, ticket, mode } => Some((lock, ticket, mode)),
                _ => None,
            })
            .collect();
        assert_eq!(granted, vec![(LockId(1), Ticket(7), Mode::Write)]);
        assert!(b.lock_state(LockId(1)).is_token());
        assert!(a.lock_state(LockId(0)).is_token());
    }

    #[test]
    fn try_request_never_sends_messages() {
        let cfg = ProtocolConfig::default();
        let mut home = LockSpace::new(NodeId(0), 1, NodeId(0), cfg);
        let mut other = LockSpace::new(NodeId(1), 1, NodeId(0), cfg);
        let mut fx = EffectSink::new();
        // Token home: immediate local grant.
        assert!(home.try_request(LockId(0), Mode::Read, Ticket(1), &mut fx).unwrap());
        assert_eq!(fx.drain().count(), 1, "grant only, no sends");
        // Non-owner: immediate refusal, zero messages.
        assert!(!other.try_request(LockId(0), Mode::Read, Ticket(1), &mut fx).unwrap());
        assert!(fx.is_empty());
        // Incompatible at the token: refusal, not a queue entry.
        assert!(!home.try_request(LockId(0), Mode::Write, Ticket(2), &mut fx).unwrap());
        assert!(home.is_quiescent());
        // Duplicate ticket detection still applies.
        assert_eq!(
            home.try_request(LockId(0), Mode::Read, Ticket(1), &mut fx).unwrap_err(),
            ProtocolError::DuplicateTicket { ticket: Ticket(1) }
        );
    }

    #[test]
    fn token_homes_can_be_distributed() {
        let cfg = ProtocolConfig::default();
        let homes = [NodeId(0), NodeId(1), NodeId(2)];
        let spaces: Vec<LockSpace> =
            (0..3).map(|i| LockSpace::with_homes(NodeId(i), &homes, cfg)).collect();
        for (i, s) in spaces.iter().enumerate() {
            for l in 0..3u32 {
                assert_eq!(s.lock_state(LockId(l)).is_token(), l as usize == i);
            }
        }
        // Each node can locally grant on its own lock.
        let mut fx = EffectSink::new();
        let mut s1 = spaces[1].clone();
        assert!(s1.try_request(LockId(1), Mode::Write, Ticket(1), &mut fx).unwrap());
    }

    #[test]
    fn request_batch_coalesces_shared_path_into_one_batch_per_peer() {
        use crate::runtime::{BatchHost, HostRuntime};
        struct Frames(Vec<(NodeId, Vec<Envelope>)>);
        impl BatchHost<Envelope> for Frames {
            fn on_batch(&mut self, to: NodeId, messages: Vec<Envelope>) {
                self.0.push((to, messages));
            }
            fn on_granted(&mut self, _: LockId, _: Ticket, _: Mode) {}
            fn on_set_timer(&mut self, _: u64, _: u64) {}
        }
        let cfg = ProtocolConfig::default();
        // Both locks' tokens live at node 0; node 1 acquires IR on the
        // table plus R on an entry — the paper's CCS lock-set pattern.
        let mut b = LockSpace::new(NodeId(1), 2, NodeId(0), cfg);
        let mut fx = EffectSink::new();
        b.request_batch(
            &[(LockId(0), Mode::IntentRead, Ticket(1)), (LockId(1), Mode::Read, Ticket(2))],
            &mut fx,
        )
        .unwrap();
        assert_eq!(fx.len(), 2, "two logical request messages");
        let mut frames = Frames(Vec::new());
        HostRuntime::new().dispatch(&mut fx, &mut frames);
        assert_eq!(frames.0.len(), 1, "one frame to the shared token home");
        let (to, messages) = &frames.0[0];
        assert_eq!(*to, NodeId(0));
        assert_eq!(messages.len(), 2);
        assert_eq!(messages[0].lock, LockId(0));
        assert_eq!(messages[1].lock, LockId(1));
    }

    /// Every message a step sends carries the lock it was sent on: the
    /// lock's state machine stamps it, on every kind of message.
    #[test]
    fn every_envelope_carries_its_lock() {
        const L: LockId = LockId(2);
        let cfg = ProtocolConfig::default();
        let mut spaces: Vec<LockSpace> =
            (0..3).map(|i| LockSpace::new(NodeId(i), 3, NodeId(0), cfg)).collect();
        let mut fx = EffectSink::new();
        let mut kinds = std::collections::BTreeSet::new();
        // Readers at nodes 1 and 2, then a writer at node 1: copy grants,
        // freezes, releases and a token transfer, all on lock 2.
        let calls: [(usize, Option<Mode>, u64); 5] = [
            (1, Some(Mode::Read), 1),
            (2, Some(Mode::Read), 2),
            (1, Some(Mode::Write), 3),
            (1, None, 1),
            (2, None, 2),
        ];
        for (node, mode, ticket) in calls {
            let space = &mut spaces[node];
            match mode {
                Some(mode) => space.request(L, mode, Ticket(ticket), &mut fx).unwrap(),
                None => space.release(L, Ticket(ticket), &mut fx).unwrap(),
            }
            let mut from = NodeId(node as u32);
            let mut queue = std::collections::VecDeque::new();
            loop {
                for effect in fx.drain() {
                    if let Effect::Send { to, message } = effect {
                        assert_eq!(message.lock, L, "{message:?} from {from} to {to}");
                        kinds.insert(crate::message::Classify::kind(&message).label());
                        queue.push_back((from, to, message));
                    }
                }
                let Some((src, to, message)) = queue.pop_front() else { break };
                spaces[to.index()].on_message(src, message, &mut fx);
                from = to;
            }
        }
        assert!(spaces[1].lock_state(L).is_token(), "the writer took the token");
        let crossed: Vec<&str> = kinds.into_iter().collect();
        assert_eq!(crossed, ["freeze", "grant", "release", "request", "token"]);
    }

    #[test]
    fn request_batch_rejects_unknown_lock_before_any_side_effect() {
        let cfg = ProtocolConfig::default();
        let mut b = LockSpace::new(NodeId(1), 1, NodeId(0), cfg);
        let mut fx = EffectSink::new();
        let err = b
            .request_batch(
                &[(LockId(0), Mode::Read, Ticket(1)), (LockId(9), Mode::Read, Ticket(2))],
                &mut fx,
            )
            .unwrap_err();
        assert_eq!(err, ProtocolError::UnknownLock { lock: LockId(9) });
        assert!(fx.is_empty(), "no request was issued");
        assert!(b.is_quiescent());
    }

    #[test]
    fn quiescence_tracks_all_locks() {
        let cfg = ProtocolConfig::default();
        let mut b = LockSpace::new(NodeId(1), 2, NodeId(0), cfg);
        assert!(b.is_quiescent());
        let mut fx = EffectSink::new();
        b.request(LockId(0), Mode::Read, Ticket(1), &mut fx).unwrap();
        assert!(!b.is_quiescent());
    }
}
