//! The protocol abstraction shared by every locking implementation in
//! this workspace.
//!
//! Both the paper's hierarchical protocol ([`crate::LockSpace`]) and the
//! Naimi–Trehel baseline (`hlock-naimi`) implement [`ConcurrencyProtocol`],
//! so the simulator, the model checker and the TCP transport can drive
//! either without knowing which one they host.

use crate::effect::EffectSink;
use crate::error::ProtocolError;
use crate::ids::{LockId, NodeId, Priority, Ticket};
use crate::message::Classify;
use crate::mode::Mode;
use core::fmt;

/// Result of cancelling an outstanding request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The request was still queued locally and is gone; no grant will
    /// ever arrive for this ticket.
    Cancelled,
    /// The request is already in flight toward a granter; the grant will
    /// be absorbed and relinquished automatically when it arrives (no
    /// `Granted` effect will be emitted).
    WillAbort,
}

/// A sans-I/O distributed locking protocol instance living at one node.
///
/// All operations are asynchronous: grants arrive later as
/// [`crate::Effect::Granted`] effects carrying the caller's ticket.
pub trait ConcurrencyProtocol {
    /// The wire message type exchanged between nodes.
    type Message: Clone + fmt::Debug + Classify;

    /// The node this instance lives at.
    fn node_id(&self) -> NodeId;

    /// Requests `lock` in `mode` on behalf of `ticket`.
    ///
    /// # Errors
    ///
    /// Implementations reject duplicate tickets and unknown locks.
    fn request(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<(), ProtocolError>;

    /// Like [`ConcurrencyProtocol::request`] with an explicit priority:
    /// higher priorities are served first, FIFO within a priority.
    /// Protocols without priority support ignore it (the default).
    ///
    /// # Errors
    ///
    /// As for `request`.
    fn request_with_priority(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        priority: Priority,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<(), ProtocolError> {
        let _ = priority;
        self.request(lock, mode, ticket, fx)
    }

    /// Releases the grant held by `ticket` on `lock`.
    ///
    /// # Errors
    ///
    /// Fails if the ticket holds nothing on that lock.
    fn release(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<(), ProtocolError>;

    /// Upgrades a held `U` lock to `W` (Rule 7). Protocols without an
    /// upgrade notion (exclusive-only baselines) report an immediate
    /// grant of `W`.
    ///
    /// # Errors
    ///
    /// Fails if the ticket does not hold an upgradable lock.
    fn upgrade(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<(), ProtocolError>;

    /// Attempts a **message-free** acquisition: succeeds only if this
    /// node can grant locally right now (Rule 2 fast path); never queues
    /// or sends. Returns whether the lock was granted (if `true`, a
    /// `Granted` effect was emitted).
    ///
    /// # Errors
    ///
    /// Duplicate tickets and unknown locks, as for `request`.
    fn try_request(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<bool, ProtocolError>;

    /// Downgrades a held lock to a weaker mode (the safe direction of
    /// CCS `change_mode`). Exclusive-only baselines treat any target
    /// mode as a no-op (they have no modes to weaken).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotHeld`] if the ticket holds nothing;
    /// [`ProtocolError::InvalidDowngrade`] if the change could admit an
    /// incompatible holder.
    fn downgrade(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        new_mode: Mode,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<(), ProtocolError>;

    /// Cancels an outstanding (not yet granted) request.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotCancellable`] if the ticket already holds the
    /// lock, [`ProtocolError::NotHeld`] if the ticket is unknown.
    fn cancel(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<CancelOutcome, ProtocolError>;

    /// Delivers one message from node `from`.
    fn on_message(
        &mut self,
        from: NodeId,
        message: Self::Message,
        fx: &mut EffectSink<Self::Message>,
    );

    /// Delivers a whole batch (one wire frame / one simulated hop) from
    /// node `from`, in order.
    ///
    /// The default processes the messages one by one, so plain protocols
    /// are batch-transparent for free. Layers that keep per-link state
    /// (e.g. the session layer) override this to treat the batch as one
    /// sequenced unit — acknowledging once per batch instead of once per
    /// message — while emitting all resulting effects into the same step
    /// so the reply coalesces too.
    fn on_message_batch(
        &mut self,
        from: NodeId,
        messages: Vec<Self::Message>,
        fx: &mut EffectSink<Self::Message>,
    ) {
        for message in messages {
            self.on_message(from, message, fx);
        }
    }

    /// Fires a timer previously requested via [`crate::Effect::SetTimer`].
    ///
    /// Hosts echo back the protocol-chosen `token`. Timers are not
    /// cancellable, so a fired token may refer to a condition that has
    /// already passed; implementations must treat stale or unknown tokens
    /// as no-ops. The default implementation ignores all timers (the base
    /// protocols are purely message-driven).
    fn on_timer(&mut self, token: u64, fx: &mut EffectSink<Self::Message>) {
        let _ = (token, fx);
    }

    /// Notifies the protocol that the transport link to `peer` was torn
    /// down and re-established (e.g. a TCP reconnect). Reliability layers
    /// use this to resend unacknowledged traffic; the base protocols,
    /// which assume reliable links, ignore it.
    fn on_link_reset(&mut self, peer: NodeId, fx: &mut EffectSink<Self::Message>) {
        let _ = (peer, fx);
    }

    /// Whether this node has no protocol work in flight (no pending or
    /// queued requests). Used by hosts to detect system quiescence.
    fn is_quiescent(&self) -> bool;

    /// The minimum epoch this node accepts: [`crate::HostRuntime::deliver`]
    /// drops ("fences") any incoming message whose
    /// [`Classify::epoch`](crate::Classify::epoch) is older. `None` (the
    /// default) disables fencing — plain protocols are epoch-free.
    fn fence_epoch(&self) -> Option<u64> {
        None
    }

    /// A host's failure detector suspects `dead` of having crashed.
    ///
    /// Recovery-capable protocols start (or join) an epoch election and
    /// return `true`; the default ignores the suspicion and returns
    /// `false`, telling the host that a lost token stays lost.
    fn on_suspect(&mut self, dead: &[NodeId], fx: &mut EffectSink<Self::Message>) -> bool {
        let _ = (dead, fx);
        false
    }

    /// A message from `from` stamped with stale `epoch` was fenced at
    /// dispatch. Recovery-capable protocols re-teach the sender the
    /// current epoch's install so stragglers (false-positive suspects,
    /// healed pauses) rejoin instead of spinning on dead state.
    fn on_stale_message(&mut self, from: NodeId, epoch: u64, fx: &mut EffectSink<Self::Message>) {
        let _ = (from, epoch, fx);
    }
}

/// Read-only introspection for invariant checking.
///
/// Hosts (the simulator and the model checker) hand this view of their
/// live nodes to the safety oracle ([`crate::audit_live`],
/// [`crate::audit_at_rest`]): all concurrently held modes must be
/// pairwise compatible, at most one token may exist per lock, and
/// exactly one once the run is at rest.
pub trait Inspect {
    /// The modes currently held (inside critical sections) at this node
    /// for `lock`. A mode the node merely *retains* (Rule 5.3: owned, but
    /// by no ticket) is not held by anyone and is not listed; it is
    /// visible as [`crate::LockNode::retained`] through
    /// [`Inspect::lock_node`], which is what makes an owned mode without
    /// a ticket legal in [`crate::audit_lock`].
    fn held_modes(&self, lock: LockId) -> Vec<Mode>;

    /// Whether this node currently possesses the token for `lock`.
    fn holds_token(&self, lock: LockId) -> bool;

    /// The full per-lock state machine, when the protocol is the
    /// hierarchical one (enables the global [`crate::audit_lock`] checks);
    /// `None` for other protocols.
    fn lock_node(&self, lock: LockId) -> Option<&crate::LockNode> {
        let _ = lock;
        None
    }

    /// The recovery epoch this node's state belongs to (0 for epoch-free
    /// protocols). The oracle compares live nodes across epochs unless
    /// the run can falsely suspect a live node; then it compares them
    /// only within an epoch, since a recovered-around node keeps running
    /// at its stale epoch until fenced, and at rest it counts the token
    /// at the newest live epoch ([`crate::EpochScope`]).
    fn epoch(&self) -> u64 {
        0
    }

    /// Whether this node's failure detector currently considers `peer`
    /// dead (always `false` for protocols without one). Checkers use
    /// this to re-arm the modeled watchdog: a survivor whose suspicion
    /// of a crashed peer was healed by a pre-crash in-flight message
    /// must be able to suspect it again, exactly as a real watchdog
    /// re-fires while requests stay outstanding.
    fn suspects(&self, peer: NodeId) -> bool {
        let _ = peer;
        false
    }

    /// Whether this node is frozen mid-recovery (always `false` for
    /// protocols without a recovery layer). A terminal state with a
    /// live node still frozen is a liveness violation in itself.
    fn frozen(&self) -> bool {
        false
    }

    /// Requests issued locally that have not yet been granted or
    /// cancelled, as `(lock, ticket)` pairs. Hosts use this to close
    /// observability spans when a node dies or is fenced behind a new
    /// epoch: each open request gets a terminal
    /// [`crate::observe::ProtocolEvent::RequestAborted`] event so span
    /// balance holds under crash-recovery runs. The default reports
    /// none (for protocols without local introspection).
    fn open_requests(&self) -> Vec<(LockId, Ticket)> {
        Vec::new()
    }
}
