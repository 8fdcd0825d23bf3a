//! Lock-space sharding: partitioning one node's locks across N
//! independent shards.
//!
//! The hierarchical protocol makes every lock's state machine
//! independent of every other lock's, so a node serving many locks can
//! split its [`LockSpace`] into shards (locks hashed by [`LockId`] via
//! [`ShardSpec`]) and drive each shard from its own worker thread. The
//! TCP transport does exactly that (`hlock-net`'s sharded cluster); this
//! module holds the *deterministic* core the parallel runtime and the
//! verification hosts share:
//!
//! * [`ShardSpec`] — the lock → shard hash. Every layer (core routing,
//!   net ingress, bench reporting) must agree on it, so it lives here.
//! * [`ShardedSpace`] — a single-threaded model of the sharded runtime:
//!   per-shard inboxes drained round-robin, one message at a time, in a
//!   fixed shard order. The simulator and the model checker drive it
//!   through [`ConcurrencyProtocol`] exactly like a plain [`LockSpace`],
//!   which lets the checker *prove* that shard routing never reorders
//!   the messages of one lock (they hash to one shard, whose inbox is
//!   FIFO) while messages of different locks interleave freely.
//! * [`ShardCounters`] — per-shard routing statistics
//!   ([`ShardedSpace::shard_counters`]); the TCP sharded host reports
//!   the same numbers per worker as [`crate::ShardGauges`].
//!
//! Each shard owns a full-width [`LockSpace`] but only ever touches the
//! locks that hash to it; the other per-lock state machines stay in
//! their freshly-constructed state. That trades `O(shards × locks)`
//! idle state for zero id-translation on the wire — envelopes carry
//! global lock ids end to end.

use crate::config::ProtocolConfig;
use crate::effect::EffectSink;
use crate::error::ProtocolError;
use crate::ids::{LockId, NodeId, Priority, Ticket};
use crate::message::Envelope;
use crate::mode::Mode;
use crate::protocol::{CancelOutcome, ConcurrencyProtocol, Inspect};
use crate::space::LockSpace;
use std::collections::VecDeque;

/// The lock → shard mapping shared by every sharded host.
///
/// Uses a Fibonacci (multiplicative) hash so adjacent lock ids — the
/// common allocation pattern (table = lock 0, entries = locks 1..E) —
/// spread across shards instead of clustering.
///
/// ```
/// use hlock_core::{LockId, ShardSpec};
/// let spec = ShardSpec::new(4);
/// let s = spec.shard_of(LockId(7));
/// assert!(s < 4);
/// assert_eq!(s, spec.shard_of(LockId(7)), "deterministic");
/// assert_eq!(ShardSpec::new(1).shard_of(LockId(7)), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    shards: usize,
}

impl ShardSpec {
    /// A spec distributing locks over `shards` shards (at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardSpec { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `lock`. Deterministic across platforms and
    /// processes (no per-process seeding), total over all lock ids.
    pub fn shard_of(&self, lock: LockId) -> usize {
        // 64-bit Fibonacci hashing: multiply by 2^64 / φ and take the
        // top bits. Avoids the modulo clustering of dense ids while
        // staying trivially portable.
        let h = (lock.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize * self.shards) >> 32
    }
}

/// Per-shard routing statistics kept by a [`ShardedSpace`].
///
/// The parallel TCP runtime keeps the equivalent numbers per worker
/// thread, as [`crate::ShardGauges`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Inbound messages routed to this shard's inbox.
    pub routed: u64,
    /// Local API operations (request/release/…) dispatched to this shard.
    pub api_ops: u64,
    /// Largest inbox depth observed while draining a batch.
    pub max_depth: u64,
}

/// A deterministic single-threaded model of the sharded lock runtime.
///
/// Wraps one [`LockSpace`] per shard and routes every operation and
/// message to the shard owning its lock. Inbound batches are split into
/// per-shard FIFO inboxes and drained **round-robin, one message per
/// shard per turn, starting from shard 0** — the same interleaving
/// freedom the parallel runtime's worker threads have, but reproducible,
/// so the simulator replays it under virtual time and the model checker
/// explores it exhaustively.
///
/// Implements [`ConcurrencyProtocol`] and [`Inspect`], so it drops into
/// `Sim`, `Checker` and every generic test harness in place of
/// [`LockSpace`].
#[derive(Debug, Clone)]
pub struct ShardedSpace {
    spec: ShardSpec,
    shards: Vec<LockSpace>,
    inboxes: Vec<VecDeque<(NodeId, Envelope)>>,
    counters: Vec<ShardCounters>,
}

impl ShardedSpace {
    /// Creates the sharded state for `lock_count` locks at node `id`,
    /// with `token_home` initially holding every token.
    pub fn new(
        id: NodeId,
        lock_count: usize,
        token_home: NodeId,
        config: ProtocolConfig,
        spec: ShardSpec,
    ) -> Self {
        Self::with_homes(id, &vec![token_home; lock_count], config, spec)
    }

    /// Like [`ShardedSpace::new`] but with one initial token home per
    /// lock, mirroring [`LockSpace::with_homes`].
    pub fn with_homes(
        id: NodeId,
        homes: &[NodeId],
        config: ProtocolConfig,
        spec: ShardSpec,
    ) -> Self {
        let shards = (0..spec.shards()).map(|_| LockSpace::with_homes(id, homes, config)).collect();
        ShardedSpace {
            spec,
            shards,
            inboxes: vec![VecDeque::new(); spec.shards()],
            counters: vec![ShardCounters::default(); spec.shards()],
        }
    }

    /// The lock → shard mapping in use.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Number of locks managed (same across all shards).
    pub fn lock_count(&self) -> usize {
        self.shards[0].lock_count()
    }

    /// Rebuilds every shard from a recovery install, mirroring
    /// [`LockSpace::rebuild_from_install`]. All shards rebuild their
    /// full-width spaces; each shard only ever touches the locks that
    /// hash to it, so the off-shard copies merely return to a clean
    /// baseline consistent with the new epoch.
    pub(crate) fn rebuild_from_install(
        &mut self,
        homes: &[NodeId],
        copysets: &[Vec<(NodeId, Mode)>],
        keep_held: bool,
    ) {
        debug_assert!(self.inboxes.iter().all(VecDeque::is_empty), "rebuild between steps only");
        for shard in &mut self.shards {
            shard.rebuild_from_install(homes, copysets, keep_held);
        }
    }

    /// Per-shard routing statistics, indexed by shard.
    pub fn shard_counters(&self) -> &[ShardCounters] {
        &self.counters
    }

    /// The shard-local [`LockSpace`] owning `lock`.
    pub fn shard_for(&self, lock: LockId) -> &LockSpace {
        &self.shards[self.spec.shard_of(lock)]
    }

    fn shard_mut(&mut self, lock: LockId) -> &mut LockSpace {
        let s = self.spec.shard_of(lock);
        self.counters[s].api_ops += 1;
        &mut self.shards[s]
    }

    /// Drains all shard inboxes round-robin (one message per non-empty
    /// shard per turn, shard 0 first) until every inbox is empty. All
    /// effects land in `fx`, so sends from different shards to the same
    /// peer still coalesce into one step batch.
    fn drain_round_robin(&mut self, fx: &mut EffectSink<Envelope>) {
        loop {
            let mut progressed = false;
            for s in 0..self.shards.len() {
                if let Some((from, envelope)) = self.inboxes[s].pop_front() {
                    self.shards[s].on_message(from, envelope, fx);
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }

    fn route(&mut self, from: NodeId, message: Envelope) {
        let s = self.spec.shard_of(message.lock);
        self.inboxes[s].push_back((from, message));
        self.counters[s].routed += 1;
        self.counters[s].max_depth = self.counters[s].max_depth.max(self.inboxes[s].len() as u64);
    }
}

impl ConcurrencyProtocol for ShardedSpace {
    type Message = Envelope;

    fn node_id(&self) -> NodeId {
        self.shards[0].node_id()
    }

    fn request(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        self.shard_mut(lock).request(lock, mode, ticket, fx)
    }

    fn request_with_priority(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        priority: Priority,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        self.shard_mut(lock).request_with_priority(lock, mode, ticket, priority, fx)
    }

    fn release(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        self.shard_mut(lock).release(lock, ticket, fx)
    }

    fn upgrade(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        self.shard_mut(lock).upgrade(lock, ticket, fx)
    }

    fn try_request(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<bool, ProtocolError> {
        self.shard_mut(lock).try_request(lock, mode, ticket, fx)
    }

    fn downgrade(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        new_mode: Mode,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        self.shard_mut(lock).downgrade(lock, ticket, new_mode, fx)
    }

    fn cancel(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<CancelOutcome, ProtocolError> {
        self.shard_mut(lock).cancel(lock, ticket, fx)
    }

    fn on_message(&mut self, from: NodeId, message: Envelope, fx: &mut EffectSink<Envelope>) {
        self.route(from, message);
        self.drain_round_robin(fx);
    }

    fn on_message_batch(
        &mut self,
        from: NodeId,
        messages: Vec<Envelope>,
        fx: &mut EffectSink<Envelope>,
    ) {
        // Split first, then drain: messages of one lock keep their
        // arrival order inside one FIFO inbox, while different locks'
        // messages interleave across shards — the exact reordering the
        // parallel runtime can produce.
        for message in messages {
            self.route(from, message);
        }
        self.drain_round_robin(fx);
    }

    fn on_timer(&mut self, token: u64, fx: &mut EffectSink<Envelope>) {
        for shard in &mut self.shards {
            shard.on_timer(token, fx);
        }
    }

    fn on_link_reset(&mut self, peer: NodeId, fx: &mut EffectSink<Envelope>) {
        for shard in &mut self.shards {
            shard.on_link_reset(peer, fx);
        }
    }

    fn is_quiescent(&self) -> bool {
        self.inboxes.iter().all(VecDeque::is_empty)
            && self.shards.iter().all(ConcurrencyProtocol::is_quiescent)
    }
}

impl Inspect for ShardedSpace {
    fn held_modes(&self, lock: LockId) -> Vec<Mode> {
        self.shard_for(lock).held_modes(lock)
    }

    fn holds_token(&self, lock: LockId) -> bool {
        self.shard_for(lock).holds_token(lock)
    }

    fn lock_node(&self, lock: LockId) -> Option<&crate::LockNode> {
        self.shard_for(lock).lock_node(lock)
    }

    fn open_requests(&self) -> Vec<(LockId, Ticket)> {
        self.shards.iter().flat_map(Inspect::open_requests).collect()
    }
}

/// Equality over protocol state only: the shard map and each shard's
/// lock state. Inboxes are always empty between steps (every entry point
/// drains fully) and counters are observability, so both are excluded.
impl PartialEq for ShardedSpace {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec && self.shards == other.shards
    }
}

impl Eq for ShardedSpace {}

impl std::hash::Hash for ShardedSpace {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        debug_assert!(
            self.inboxes.iter().all(VecDeque::is_empty),
            "fingerprinting a sharded space with undrained inboxes"
        );
        self.spec.hash(state);
        self.shards.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::Effect;

    fn spaces(nodes: u32, locks: usize, shards: usize) -> Vec<ShardedSpace> {
        let cfg = ProtocolConfig::default();
        (0..nodes)
            .map(|i| ShardedSpace::new(NodeId(i), locks, NodeId(0), cfg, ShardSpec::new(shards)))
            .collect()
    }

    #[test]
    fn shard_of_is_total_and_covers_all_shards() {
        let spec = ShardSpec::new(4);
        let mut seen = [false; 4];
        for l in 0..64u32 {
            let s = spec.shard_of(LockId(l));
            assert!(s < 4);
            assert_eq!(s, spec.shard_of(LockId(l)));
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 dense ids should hit all 4 shards");
    }

    #[test]
    fn single_shard_routes_everything_to_shard_zero() {
        let spec = ShardSpec::new(1);
        for l in 0..100u32 {
            assert_eq!(spec.shard_of(LockId(l)), 0);
        }
    }

    #[test]
    fn sharded_space_matches_lock_space_on_a_two_node_handshake() {
        let cfg = ProtocolConfig::default();
        let mut plain_a = LockSpace::new(NodeId(0), 8, NodeId(0), cfg);
        let mut plain_b = LockSpace::new(NodeId(1), 8, NodeId(0), cfg);
        let mut v = spaces(2, 8, 4);
        let (sa, rest) = v.split_at_mut(1);
        let (sharded_a, sharded_b) = (&mut sa[0], &mut rest[0]);
        let mut fx = EffectSink::new();

        for (lock, ticket) in [(LockId(3), Ticket(1)), (LockId(6), Ticket(2))] {
            // Plain run.
            plain_b.request(lock, Mode::Write, ticket, &mut fx).unwrap();
            let plain_msgs: Vec<_> = fx.drain().collect();
            // Sharded run emits the identical request message.
            sharded_b.request(lock, Mode::Write, ticket, &mut fx).unwrap();
            let sharded_msgs: Vec<_> = fx.drain().collect();
            assert_eq!(plain_msgs, sharded_msgs);
            for e in plain_msgs {
                if let Effect::Send { message, .. } = e {
                    plain_a.on_message(NodeId(1), message.clone(), &mut fx);
                    let plain_replies: Vec<_> = fx.drain().collect();
                    sharded_a.on_message(NodeId(1), message, &mut fx);
                    let sharded_replies: Vec<_> = fx.drain().collect();
                    assert_eq!(plain_replies, sharded_replies);
                    for r in plain_replies {
                        if let Effect::Send { message, .. } = r {
                            plain_b.on_message(NodeId(0), message.clone(), &mut fx);
                            let g1: Vec<_> = fx.drain().collect();
                            sharded_b.on_message(NodeId(0), message, &mut fx);
                            let g2: Vec<_> = fx.drain().collect();
                            assert_eq!(g1, g2);
                            assert!(g1.iter().any(|e| matches!(e, Effect::Granted { .. })));
                        }
                    }
                }
            }
        }
        assert!(sharded_b.holds_token(LockId(3)));
        assert!(sharded_b.holds_token(LockId(6)));
    }

    #[test]
    fn batch_preserves_per_lock_order_across_shards() {
        // Two locks on (very likely) different shards; a batch carrying
        // request-then-release per lock must process each lock's pair in
        // order regardless of the shard interleaving.
        let mut v = spaces(2, 16, 4);
        let (a_split, rest) = v.split_at_mut(1);
        let (a, b) = (&mut a_split[0], &mut rest[0]);
        let mut fx = EffectSink::new();
        let locks = [LockId(1), LockId(2), LockId(5), LockId(9)];
        let mut outbound = Vec::new();
        for (i, &lock) in locks.iter().enumerate() {
            b.request(lock, Mode::Write, Ticket(i as u64 + 1), &mut fx).unwrap();
            for e in fx.drain() {
                if let Effect::Send { message, .. } = e {
                    outbound.push(message);
                }
            }
        }
        // Deliver all four requests as a single inbound batch at the
        // token home; every lock must be served.
        a.on_message_batch(NodeId(1), outbound, &mut fx);
        let replies: Vec<_> = fx
            .drain()
            .filter_map(|e| match e {
                Effect::Send { message, .. } => Some(message),
                _ => None,
            })
            .collect();
        b.on_message_batch(NodeId(0), replies, &mut fx);
        let granted: Vec<Ticket> = fx
            .drain()
            .filter_map(|e| match e {
                Effect::Granted { ticket, .. } => Some(ticket),
                _ => None,
            })
            .collect();
        assert_eq!(granted.len(), locks.len(), "every lock granted exactly once");
        assert!(a.is_quiescent() && b.is_quiescent());
    }

    #[test]
    fn shard_counters_track_routing() {
        let mut v = spaces(2, 16, 4);
        let (a_split, rest) = v.split_at_mut(1);
        let (a, b) = (&mut a_split[0], &mut rest[0]);
        let mut fx = EffectSink::new();
        let mut outbound = Vec::new();
        for l in 0..16u32 {
            b.request(LockId(l), Mode::Read, Ticket(l as u64 + 1), &mut fx).unwrap();
            for e in fx.drain() {
                if let Effect::Send { message, .. } = e {
                    outbound.push(message);
                }
            }
        }
        a.on_message_batch(NodeId(1), outbound, &mut fx);
        let api_ops: u64 = b.shard_counters().iter().map(|c| c.api_ops).sum();
        assert_eq!(api_ops, 16);
        let routed: u64 = a.shard_counters().iter().map(|c| c.routed).sum();
        assert_eq!(routed, 16);
        assert!(a.shard_counters().iter().all(|c| c.max_depth >= 1));
        assert!(a.shard_counters().iter().any(|c| c.max_depth > 1), "16 ids over 4 shards queue");
    }

    #[test]
    fn quiescence_and_equality_ignore_counters() {
        let mut v = spaces(1, 4, 2);
        let a = &mut v[0];
        let mut fx = EffectSink::new();
        a.request(LockId(0), Mode::Read, Ticket(1), &mut fx).unwrap();
        let baseline = a.clone();
        // An unknown lock bumps the routing counters but is rejected
        // before any protocol state changes.
        a.request(LockId(99), Mode::Read, Ticket(2), &mut fx).unwrap_err();
        assert_ne!(a.shard_counters(), baseline.shard_counters());
        assert_eq!(*a, baseline, "counters differ but protocol state is equal");
        fx.drain().count();
        a.release(LockId(0), Ticket(1), &mut fx).unwrap();
        assert_ne!(*a, baseline, "held lock is protocol state");
        assert!(a.is_quiescent());
    }
}
