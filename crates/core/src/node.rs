//! The per-lock node state machine (the paper's Figure 4).
//!
//! One [`LockNode`] instance exists per `(node, lock)` pair. It is
//! sans-I/O: the host calls [`LockNode::request`], [`LockNode::release`],
//! [`LockNode::upgrade`] and [`LockNode::on_message`], and executes the
//! returned [`crate::Effect`]s (message sends and grant notifications).
//!
//! # Protocol summary
//!
//! Nodes form a logical tree via `parent` pointers; the root holds the
//! *token*. A node's *copyset* is the map from children to the modes they
//! own. A node *owns* the strongest mode held anywhere in its subtree
//! (Definition 3), which makes purely local grant decisions safe:
//!
//! * **Rule 2** — a local request is satisfied without messages when the
//!   owned mode is compatible and at least as strong (and not frozen);
//!   otherwise a request message travels toward the token.
//! * **Rule 3.1** — a non-token node grants a request iff
//!   `compatible(owned, req) ∧ owned ≥ req` (Table 1(b)); the requester
//!   becomes its child.
//! * **Rule 3.2** — the token node serves any compatible request: a copy
//!   grant if `owned ≥ req`, otherwise the token itself moves.
//! * **Rule 4** — requests that cannot be granted are absorbed into local
//!   queues when later service is guaranteed (Table 2(a)) and forwarded
//!   toward the token otherwise; the token queues unconditionally.
//! * **Rule 5** — queued requests are reconsidered on grants and
//!   releases; a release travels to the parent only when the subtree's
//!   owned mode actually changes. A non-token node *retains* `IR` after
//!   its last local holder releases (Rule 5.3): the mode stays owned, the
//!   release is suppressed and the next local `IR` is granted without
//!   messages, until a freeze of `IR`, a conflicting local request or the
//!   token's arrival ends the retention.
//! * **Rule 6** — while a request waits at the token, all modes
//!   incompatible with it are *frozen* (Table 2(b)); freeze/update
//!   notifications keep potential granters from serving such modes,
//!   restoring FIFO fairness.
//! * **Rule 7** — an upgrade atomically turns a held `U` into `W` once
//!   the copyset drains, with priority over all queued requests.

use crate::config::ProtocolConfig;
use crate::effect::EffectSink;
use crate::error::ProtocolError;
use crate::ids::{LockId, NodeId, Priority, Stamp, Ticket};
use crate::message::{Envelope, Payload};
use crate::mode::{
    compatible_owned, frozen_modes, grantable, grantable_set, owned_strength, queue_or_forward,
    stronger, Mode, ModeSet, QueueDecision,
};
use crate::observe::{ProtocolEvent, SpanId};
use crate::protocol::CancelOutcome;
use crate::queue::{QueueEntry, RequestQueue, Waiter};
use std::collections::{BTreeMap, BTreeSet};

/// A locally pending request: sent toward the token, grant not yet received.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PendingRequest {
    ticket: Ticket,
    mode: Mode,
    stamp: Stamp,
    priority: Priority,
}

/// Sans-I/O state machine for one lock at one node.
///
/// ```
/// use hlock_core::{EffectSink, LockId, LockNode, Mode, NodeId, ProtocolConfig, Ticket};
///
/// // Two nodes; node 0 starts as the token node for lock 0.
/// let cfg = ProtocolConfig::default();
/// let mut a = LockNode::new(NodeId(0), LockId(0), NodeId(0), cfg);
/// let mut fx = EffectSink::new();
///
/// // The token node acquires a read lock without any messages (Rule 2).
/// a.request(Mode::Read, Ticket(1), &mut fx).unwrap();
/// assert_eq!(fx.len(), 1); // just the local grant
/// # let _ = fx.drain().count();
/// a.release(Ticket(1), &mut fx).unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LockNode {
    id: NodeId,
    lock: LockId,
    config: ProtocolConfig,
    is_token: bool,
    /// Parent pointer; `None` iff this node is the token node.
    parent: Option<NodeId>,
    /// Copyset: children and the modes they own (Definition 4).
    children: BTreeMap<NodeId, Mode>,
    /// Local critical-section entries: `(ticket, held mode)`.
    held: Vec<(Ticket, Mode)>,
    /// Requests sent toward the token, not yet granted.
    pending: Vec<PendingRequest>,
    /// Locally absorbed requests (Rule 4).
    queue: RequestQueue,
    /// Modes currently frozen at this node (Rule 6).
    frozen: ModeSet,
    /// What we last told each child about frozen modes (their relevant slice).
    child_frozen: BTreeMap<NodeId, ModeSet>,
    /// The owned mode our parent currently believes we have.
    reported_owned: Option<Mode>,
    /// Rule 5.3: the mode kept owned on the node's own behalf after its
    /// last local holder released (only ever `IR`, only at a non-token
    /// node). Counts toward [`LockNode::owned`] exactly like a held entry.
    retained: Option<Mode>,
    /// Tickets whose in-flight requests were cancelled: their grants are
    /// absorbed and relinquished on arrival.
    cancelled: BTreeSet<Ticket>,
    /// Lamport clock for FIFO stamps.
    clock: Stamp,
}

impl LockNode {
    /// Creates the state for `lock` at node `id`, with `token_home` as the
    /// initial token node (all other nodes start as its direct children in
    /// the logical tree, holding nothing).
    pub fn new(id: NodeId, lock: LockId, token_home: NodeId, config: ProtocolConfig) -> Self {
        let is_token = id == token_home;
        LockNode {
            id,
            lock,
            config,
            is_token,
            parent: if is_token { None } else { Some(token_home) },
            children: BTreeMap::new(),
            held: Vec::new(),
            pending: Vec::new(),
            queue: RequestQueue::new(),
            frozen: ModeSet::EMPTY,
            child_frozen: BTreeMap::new(),
            reported_owned: None,
            retained: None,
            cancelled: BTreeSet::new(),
            clock: Stamp::ZERO,
        }
    }

    /// Rebuilds the state machine from a recovery install (the
    /// authoritative post-crash state computed by the epoch coordinator).
    ///
    /// The logical tree flattens to depth one: `home` is the token node
    /// and every survivor with an owned mode is a direct child. `held`
    /// is this node's surviving critical-section entries (empty for a
    /// false-positive rejoiner whose grants were voided); `copyset` is
    /// only consulted when this node *is* the new home. Queues, pending
    /// requests and frozen sets start empty — outstanding requests are
    /// re-issued by their origins after the rebuild, and a retained mode
    /// (Rule 5.3) is void: the epoch install ends every retention. The
    /// Lamport `clock` is preserved so stamps never move backwards across
    /// an epoch.
    pub(crate) fn recovered(
        id: NodeId,
        lock: LockId,
        config: ProtocolConfig,
        home: NodeId,
        copyset: &[(NodeId, Mode)],
        held: Vec<(Ticket, Mode)>,
        clock: Stamp,
    ) -> Self {
        let is_token = id == home;
        let mut children = BTreeMap::new();
        if is_token {
            for &(child, mode) in copyset {
                if child != id {
                    children.insert(child, mode);
                }
            }
        }
        let reported_owned = if is_token {
            None
        } else {
            held.iter().map(|&(_, m)| m).fold(None, |acc, m| stronger(acc, Some(m)))
        };
        LockNode {
            id,
            lock,
            config,
            is_token,
            parent: if is_token { None } else { Some(home) },
            children,
            held,
            pending: Vec::new(),
            queue: RequestQueue::new(),
            frozen: ModeSet::EMPTY,
            child_frozen: BTreeMap::new(),
            reported_owned,
            retained: None,
            cancelled: BTreeSet::new(),
            clock,
        }
    }

    /// This lock's survivor state as reported to a recovery coordinator:
    /// token possession plus the strongest locally *held* mode. Children
    /// are deliberately excluded — every survivor reports for itself, and
    /// the rebuilt tree is flat. A retained mode is not reported either:
    /// nobody is inside a critical section under it.
    pub(crate) fn survivor_report(&self) -> crate::message::LockReport {
        let owned = self.held.iter().map(|&(_, m)| m).fold(None, |acc, m| stronger(acc, Some(m)));
        crate::message::LockReport { holds_token: self.is_token, owned }
    }

    /// Outstanding work to re-issue after a rebuild: not-yet-granted
    /// plain requests (in-flight or locally queued) as
    /// `(ticket, mode, priority)`, plus tickets with a pending Rule-7
    /// upgrade (they keep holding `U` while the `W` entry waits).
    /// Cancelled in-flight requests are omitted: their spans are closed,
    /// nobody awaits their grants, and their stale grants are fenced.
    pub(crate) fn outstanding_snapshot(&self) -> (Vec<(Ticket, Mode, Priority)>, Vec<Ticket>) {
        let mut requests: Vec<(Ticket, Mode, Priority)> = self
            .pending
            .iter()
            .filter(|p| !self.cancelled.contains(&p.ticket))
            .map(|p| (p.ticket, p.mode, p.priority))
            .collect();
        let mut upgrades = Vec::new();
        for entry in self.queue.iter() {
            match entry.waiter {
                Waiter::Local(t) => requests.push((t, entry.mode, entry.priority)),
                Waiter::LocalUpgrade(t) => upgrades.push(t),
                Waiter::Remote(_) => {}
            }
        }
        (requests, upgrades)
    }

    /// The current Lamport clock (preserved across recovery rebuilds).
    pub(crate) fn clock(&self) -> Stamp {
        self.clock
    }

    /// The protocol configuration this state machine was built with.
    pub(crate) fn config(&self) -> ProtocolConfig {
        self.config
    }

    // ------------------------------------------------------------------
    // Introspection (used by hosts, invariant checkers and tests)
    // ------------------------------------------------------------------

    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The lock this state machine manages.
    pub fn lock(&self) -> LockId {
        self.lock
    }

    /// Whether this node currently holds the token (is the tree root).
    pub fn is_token(&self) -> bool {
        self.is_token
    }

    /// Current parent pointer (`None` iff token node).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The copyset: children and their owned modes.
    pub fn children(&self) -> &BTreeMap<NodeId, Mode> {
        &self.children
    }

    /// Modes held locally (inside critical sections), with their tickets.
    pub fn held(&self) -> &[(Ticket, Mode)] {
        &self.held
    }

    /// The owned mode: strongest mode held in the subtree rooted here
    /// (Definition 3). `None` is `∅`.
    pub fn owned(&self) -> Option<Mode> {
        let held_max =
            self.held.iter().map(|&(_, m)| m).fold(self.retained, |acc, m| stronger(acc, Some(m)));
        self.children.values().fold(held_max, |acc, &m| stronger(acc, Some(m)))
    }

    /// The mode this node keeps owned on its own behalf although no local
    /// ticket holds it (Rule 5.3), if any. Only `IR` is ever retained.
    pub fn retained(&self) -> Option<Mode> {
        self.retained
    }

    /// Currently frozen modes at this node.
    pub fn frozen(&self) -> ModeSet {
        self.frozen
    }

    /// Number of locally queued (absorbed) requests.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of requests in flight toward the token.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Whether this node has no protocol work in progress (no pending
    /// requests and an empty queue). Held modes are the application's
    /// business and do not affect quiescence, and neither does a retained
    /// mode: it waits for nothing.
    pub fn is_quiescent(&self) -> bool {
        self.pending.is_empty() && self.queue.is_empty()
    }

    /// True when this node is completely uninvolved with the lock:
    /// nothing held, owned, pending or queued. Such nodes may safely
    /// repoint their parent (path compression).
    fn is_inactive(&self) -> bool {
        !self.is_token
            && self.held.is_empty()
            && self.retained.is_none()
            && self.children.is_empty()
            && self.pending.is_empty()
            && self.queue.is_empty()
    }

    /// Drops frozen bits this node could never act on: only modes in
    /// `grantable_set(owned)` influence its grants and local
    /// acquisitions, and only those does its parent track (and later
    /// unfreeze). Keeping others would leak stale freezes.
    fn clamp_frozen(&mut self) {
        if !self.is_token {
            self.frozen = self.frozen.intersection(grantable_set(self.owned()));
        }
    }

    fn strongest_pending(&self) -> Option<Mode> {
        self.pending.iter().map(|p| p.mode).fold(None, |acc, m| stronger(acc, Some(m)))
    }

    /// The span of one of this node's own requests.
    fn own_span(&self, ticket: Ticket) -> SpanId {
        SpanId::new(self.id, ticket)
    }

    /// Reports grant of a local request: the effect plus the span-closing
    /// [`ProtocolEvent::Granted`] — always emitted together so every span
    /// closes exactly once.
    fn grant_local(&self, ticket: Ticket, mode: Mode, fx: &mut EffectSink<Envelope>) {
        fx.granted(self.lock, ticket, mode);
        fx.emit_with(|| ProtocolEvent::Granted {
            node: self.id,
            lock: self.lock,
            span: self.own_span(ticket),
            mode,
        });
    }

    /// Sends `payload` to `to` on this lock: every message of the
    /// protocol leaves through here.
    fn send(&self, to: NodeId, payload: Payload, fx: &mut EffectSink<Envelope>) {
        fx.send(to, Envelope { lock: self.lock, payload });
    }

    /// Reports `new_owned` to the parent `to` (Rule 5).
    fn send_release(&self, to: NodeId, new_owned: Option<Mode>, fx: &mut EffectSink<Envelope>) {
        self.send(to, Payload::Release { new_owned }, fx);
        fx.emit_with(|| ProtocolEvent::ReleaseSent { node: self.id, lock: self.lock, new_owned });
    }

    fn ticket_in_use(&self, ticket: Ticket) -> bool {
        self.held.iter().any(|&(t, _)| t == ticket)
            || self.pending.iter().any(|p| p.ticket == ticket)
            || self.queue.iter().any(
                |e| matches!(e.waiter, Waiter::Local(t) | Waiter::LocalUpgrade(t) if t == ticket),
            )
    }

    // ------------------------------------------------------------------
    // Public API: request / release / upgrade
    // ------------------------------------------------------------------

    /// Requests the lock in `mode` on behalf of local `ticket` (Rule 2).
    ///
    /// The grant is reported asynchronously as an
    /// [`crate::Effect::Granted`] with the same ticket — possibly within
    /// this very call if the request is satisfied locally.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::DuplicateTicket`] if `ticket` is already in use by
    /// an outstanding request or held lock.
    pub fn request(
        &mut self,
        mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        self.request_with_priority(mode, ticket, Priority::NORMAL, fx)
    }

    /// Like [`LockNode::request`] but with an explicit [`Priority`]:
    /// queued requests are served highest-priority first, FIFO within a
    /// priority (the strict priority arbitration of the paper's §1).
    ///
    /// # Errors
    ///
    /// As for [`LockNode::request`].
    pub fn request_with_priority(
        &mut self,
        mode: Mode,
        ticket: Ticket,
        priority: Priority,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        if self.ticket_in_use(ticket) {
            return Err(ProtocolError::DuplicateTicket { ticket });
        }
        self.clock = self.clock.next();
        let stamp = self.clock;
        fx.emit_with(|| ProtocolEvent::RequestIssued {
            node: self.id,
            lock: self.lock,
            span: self.own_span(ticket),
            mode,
            priority,
        });
        let owned = self.owned();
        if self.is_token {
            // Rule 3.2 for the local caller: compatibility suffices.
            if compatible_owned(owned, mode) && !self.frozen.contains(mode) {
                self.held.push((ticket, mode));
                self.grant_local(ticket, mode, fx);
            } else {
                // Rule 4.2: the token node queues unconditionally.
                self.queue.push_back(QueueEntry::with_priority(
                    Waiter::Local(ticket),
                    mode,
                    stamp,
                    priority,
                ));
                fx.emit_with(|| ProtocolEvent::RequestQueued {
                    node: self.id,
                    lock: self.lock,
                    span: self.own_span(ticket),
                    mode,
                    queue_depth: self.queue.len(),
                });
                self.refresh_frozen(fx);
            }
            return Ok(());
        }
        // Rule 2 at a non-token node.
        if owned_strength(owned) >= mode.strength()
            && compatible_owned(owned, mode)
            && !self.frozen.contains(mode)
        {
            self.held.push((ticket, mode));
            self.grant_local(ticket, mode, fx);
            return Ok(());
        }
        // Rule 5.3: a request that conflicts with our own retained mode
        // gives the retention up first, so the release and the request
        // leave in the same step (and the same frame).
        if self.retained.is_some_and(|kept| !kept.compatible(mode)) {
            self.drop_retention(fx);
        }
        // Cannot satisfy locally: queue behind a pending request when
        // Table 2(a) guarantees later service, else send upward.
        if self.config.absorb_requests
            && queue_or_forward(self.strongest_pending(), mode) == QueueDecision::Queue
        {
            self.queue.push_back(QueueEntry::with_priority(
                Waiter::Local(ticket),
                mode,
                stamp,
                priority,
            ));
            fx.emit_with(|| ProtocolEvent::RequestQueued {
                node: self.id,
                lock: self.lock,
                span: self.own_span(ticket),
                mode,
                queue_depth: self.queue.len(),
            });
        } else {
            self.send_own_request(ticket, mode, stamp, priority, fx);
        }
        Ok(())
    }

    /// Attempts to acquire `mode` **without any messages**: succeeds only
    /// on the Rule-2 local fast path (the node already owns a compatible,
    /// sufficiently strong, unfrozen mode — or is the token node and the
    /// mode is compatible). Never queues, never sends; returns `false`
    /// if a remote request would be needed.
    ///
    /// This is the natural `try_lock` of the CORBA Concurrency Service
    /// mapped onto the protocol: an immediate, communication-free answer.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::DuplicateTicket`] if `ticket` is already in use.
    pub fn try_request(
        &mut self,
        mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<bool, ProtocolError> {
        if self.ticket_in_use(ticket) {
            return Err(ProtocolError::DuplicateTicket { ticket });
        }
        let owned = self.owned();
        let grantable_here = if self.is_token {
            compatible_owned(owned, mode) && !self.frozen.contains(mode) && self.queue.is_empty()
        } else {
            owned_strength(owned) >= mode.strength()
                && compatible_owned(owned, mode)
                && !self.frozen.contains(mode)
        };
        if grantable_here {
            self.clock = self.clock.next();
            fx.emit_with(|| ProtocolEvent::RequestIssued {
                node: self.id,
                lock: self.lock,
                span: self.own_span(ticket),
                mode,
                priority: Priority::NORMAL,
            });
            self.held.push((ticket, mode));
            self.grant_local(ticket, mode, fx);
        }
        Ok(grantable_here)
    }

    /// Releases the lock held by `ticket` (Rule 5 / `RequestUnlock`).
    ///
    /// Returns the mode that was released.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotHeld`] if `ticket` does not hold the lock
    /// (e.g. its request is still outstanding).
    pub fn release(
        &mut self,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<Mode, ProtocolError> {
        let idx = self
            .held
            .iter()
            .position(|&(t, _)| t == ticket)
            .ok_or(ProtocolError::NotHeld { ticket })?;
        let (_, mode) = self.held.remove(idx);
        fx.emit_with(|| ProtocolEvent::Released { node: self.id, lock: self.lock, ticket, mode });
        if self.may_retain(mode) {
            self.retained = Some(mode);
        }
        self.after_ownership_change(fx);
        Ok(mode)
    }

    /// Upgrades a held `U` lock to `W` without releasing it (Rule 7).
    ///
    /// The upgrade takes precedence over every queued request and is
    /// reported as a `Granted` effect with mode `W` once all other holders
    /// have drained from the copyset. Upgrading an already-held `W` is a
    /// trivial no-op grant.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotHeld`] if `ticket` holds nothing;
    /// [`ProtocolError::UpgradeRequiresUpgradeLock`] if it holds a mode
    /// other than `U` or `W` (upgrading shared/intention modes is not
    /// deadlock-safe — that is what `U` exists for).
    pub fn upgrade(
        &mut self,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        let held_mode = self
            .held
            .iter()
            .find(|&&(t, _)| t == ticket)
            .map(|&(_, m)| m)
            .ok_or(ProtocolError::NotHeld { ticket })?;
        if held_mode == Mode::Write {
            // Already exclusive: upgrading is a trivial no-op grant (the
            // same contract the exclusive-only baselines expose).
            fx.emit_with(|| ProtocolEvent::RequestIssued {
                node: self.id,
                lock: self.lock,
                span: self.own_span(ticket),
                mode: Mode::Write,
                priority: Priority::NORMAL,
            });
            self.grant_local(ticket, Mode::Write, fx);
            return Ok(());
        }
        if held_mode != Mode::Upgrade {
            return Err(ProtocolError::UpgradeRequiresUpgradeLock { ticket, held: held_mode });
        }
        // A held U implies this node is the token node: U requests are
        // never copy-granted (no mode is ≥ U and compatible with U).
        debug_assert!(self.is_token, "U holder must be the token node");
        self.clock = self.clock.next();
        fx.emit_with(|| ProtocolEvent::RequestIssued {
            node: self.id,
            lock: self.lock,
            span: self.own_span(ticket),
            mode: Mode::Write,
            priority: Priority::NORMAL,
        });
        self.queue.push_front(QueueEntry::new(
            Waiter::LocalUpgrade(ticket),
            Mode::Write,
            self.clock,
        ));
        self.serve_queue_token(fx);
        Ok(())
    }

    /// Downgrades a held lock to a weaker mode without releasing it (the
    /// safe direction of CORBA CCS `change_mode`): `W→{U,IW,R,IR}`,
    /// `U→{R,IR}`, `R→{IR}`, `IW→{IR}`. Purely local plus the usual
    /// owned-mode weakening release (Rule 5); may unblock queued
    /// requests immediately.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotHeld`] if the ticket holds nothing;
    /// [`ProtocolError::InvalidDowngrade`] if the change could admit a
    /// holder incompatible with the current one.
    pub fn downgrade(
        &mut self,
        ticket: Ticket,
        new_mode: Mode,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<(), ProtocolError> {
        let idx = self
            .held
            .iter()
            .position(|&(t, _)| t == ticket)
            .ok_or(ProtocolError::NotHeld { ticket })?;
        let from = self.held[idx].1;
        if !crate::mode::can_downgrade(from, new_mode) {
            return Err(ProtocolError::InvalidDowngrade { ticket, from, to: new_mode });
        }
        if from != new_mode {
            self.held[idx].1 = new_mode;
            self.after_ownership_change(fx);
        }
        Ok(())
    }

    /// Cancels an outstanding (not yet granted) request (e.g. on a
    /// caller-side timeout).
    ///
    /// A locally queued request is removed outright; a request already in
    /// flight cannot be recalled, so its eventual grant is absorbed and
    /// relinquished automatically without a `Granted` effect. A pending
    /// *upgrade* is cancellable too: the queued `W` entry is removed and
    /// the ticket keeps its original `U` grant.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotCancellable`] if the ticket already holds the
    /// lock with no upgrade pending (release it instead);
    /// [`ProtocolError::NotHeld`] if the ticket is unknown.
    pub fn cancel(
        &mut self,
        ticket: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) -> Result<CancelOutcome, ProtocolError> {
        // Queue removal runs before the held check: a ticket mid-upgrade
        // both holds U and has a LocalUpgrade entry queued, and cancelling
        // it must revert to the held U rather than fail as NotCancellable
        // (which would strand the queued W entry forever).
        let queued = self.queue.remove_waiter(Waiter::Local(ticket))
            + self.queue.remove_waiter(Waiter::LocalUpgrade(ticket));
        if queued > 0 {
            fx.emit_with(|| ProtocolEvent::RequestCancelled {
                node: self.id,
                lock: self.lock,
                span: self.own_span(ticket),
            });
            // Removing a queue entry may unfreeze modes and unblock the
            // entries behind it.
            if self.is_token {
                self.serve_queue_token(fx);
            } else {
                self.serve_queue_nontoken(fx);
            }
            return Ok(CancelOutcome::Cancelled);
        }
        if self.held.iter().any(|&(t, _)| t == ticket) {
            return Err(ProtocolError::NotCancellable { ticket });
        }
        if self.pending.iter().any(|p| p.ticket == ticket) {
            self.cancelled.insert(ticket);
            fx.emit_with(|| ProtocolEvent::RequestCancelled {
                node: self.id,
                lock: self.lock,
                span: self.own_span(ticket),
            });
            return Ok(CancelOutcome::WillAbort);
        }
        Err(ProtocolError::NotHeld { ticket })
    }

    /// Handles a protocol message from `from`.
    pub fn on_message(&mut self, from: NodeId, payload: Payload, fx: &mut EffectSink<Envelope>) {
        match payload {
            Payload::Request { origin, mode, stamp, priority, span } => {
                self.clock = self.clock.merged(stamp);
                self.handle_request(from, origin, mode, stamp, priority, span, fx);
            }
            Payload::Grant { mode, frozen } => {
                self.clock = self.clock.next();
                self.handle_grant(from, mode, frozen, fx);
            }
            Payload::Token { mode, queue, sender_owned } => {
                self.clock = self.clock.next();
                self.handle_token(from, mode, queue, sender_owned, fx);
            }
            Payload::Release { new_owned } => {
                self.clock = self.clock.next();
                self.handle_release(from, new_owned, fx);
            }
            Payload::Freeze { modes } => {
                self.clock = self.clock.next();
                self.handle_freeze(from, modes, fx);
            }
            Payload::Update { frozen } => {
                self.clock = self.clock.next();
                self.handle_update(from, frozen, fx);
            }
        }
    }

    // ------------------------------------------------------------------
    // Message handlers
    // ------------------------------------------------------------------

    /// `HandleRequest` of Figure 4.
    #[allow(clippy::too_many_arguments)]
    fn handle_request(
        &mut self,
        _from: NodeId,
        origin: NodeId,
        mode: Mode,
        stamp: Stamp,
        priority: Priority,
        span: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) {
        if origin == self.id {
            // Our own request found its way back (possible during token
            // movement: we became the token while the request was in
            // flight). Resolve it against our pending list.
            self.handle_own_request_returned(mode, stamp, priority, fx);
            return;
        }
        let owned = self.owned();
        if self.is_token {
            // Rule 3.2: compatibility is necessary and sufficient, subject
            // to freezing (Rule 6).
            if compatible_owned(owned, mode) && !self.frozen.contains(mode) {
                self.serve_remote_at_token(origin, mode, span, fx);
            } else {
                // Rule 4.2: queue locally regardless of pending requests.
                self.queue.push_back(
                    QueueEntry::with_priority(Waiter::Remote(origin), mode, stamp, priority)
                        .with_span(span),
                );
                fx.emit_with(|| ProtocolEvent::RequestQueued {
                    node: self.id,
                    lock: self.lock,
                    span: SpanId::new(origin, span),
                    mode,
                    queue_depth: self.queue.len(),
                });
                self.refresh_frozen(fx);
            }
            return;
        }
        // Rule 3.1: grant from a non-token node when owned is compatible
        // and at least as strong (Table 1(b)) and the mode is not frozen.
        if grantable(owned, mode) && !self.frozen.contains(mode) {
            self.grant_copy(origin, mode, span, fx);
            return;
        }
        // Rule 4.1: queue or forward per Table 2(a).
        if self.config.absorb_requests
            && queue_or_forward(self.strongest_pending(), mode) == QueueDecision::Queue
        {
            self.queue.push_back(
                QueueEntry::with_priority(Waiter::Remote(origin), mode, stamp, priority)
                    .with_span(span),
            );
            fx.emit_with(|| ProtocolEvent::RequestQueued {
                node: self.id,
                lock: self.lock,
                span: SpanId::new(origin, span),
                mode,
                queue_depth: self.queue.len(),
            });
            return;
        }
        self.forward_request(origin, mode, stamp, priority, span, fx);
    }

    /// `ReceiveGrant` of Figure 4: a copy grant for one of our pending
    /// requests.
    fn handle_grant(
        &mut self,
        from: NodeId,
        mode: Mode,
        frozen: ModeSet,
        fx: &mut EffectSink<Envelope>,
    ) {
        let Some(idx) = self.pending.iter().position(|p| p.mode == mode) else {
            // No matching pending request: a duplicate delivery (possible
            // under at-least-once transports). Ignoring is safe — the
            // first copy already installed the grant.
            return;
        };
        let p = self.pending.remove(idx);
        // Re-parent to the granter. If the old parent's copyset accounts
        // us (we reported a non-∅ owned mode there), deregister: our modes
        // are now tracked by the granter (this produces the "releases due
        // to the propagation path" the paper's Figure 7 discussion
        // mentions).
        if self.parent != Some(from) {
            if let Some(old) = self.parent.filter(|_| self.reported_owned.is_some()) {
                self.send_release(old, None, fx);
            }
            self.parent = Some(from);
        }
        self.held.push((p.ticket, mode));
        self.reported_owned = stronger(self.reported_owned, Some(mode));
        self.frozen = frozen;
        self.clamp_frozen();
        self.recall_retention(fx);
        if self.cancelled.remove(&p.ticket) {
            // The caller gave up on this request: accept the grant to
            // keep the granter's copyset consistent, then let it go. The
            // span was already closed when `cancel` reported `WillAbort`,
            // so no span event is emitted here.
            self.propagate_freezes(fx);
            let released = self.release(p.ticket, fx);
            debug_assert!(released.is_ok());
            return;
        }
        self.grant_local(p.ticket, mode, fx);
        self.propagate_freezes(fx);
        self.serve_queue_nontoken(fx);
    }

    /// `ReceiveToken` of Figure 4: we become the new token node.
    fn handle_token(
        &mut self,
        from: NodeId,
        mode: Mode,
        queue: Vec<QueueEntry>,
        sender_owned: Option<Mode>,
        fx: &mut EffectSink<Envelope>,
    ) {
        let Some(idx) = self.pending.iter().position(|p| p.mode == mode) else {
            // Duplicate token delivery (at-least-once transport): the
            // first copy made us the token node already; ignore.
            return;
        };
        let p = self.pending.remove(idx);
        // Deregister from the old parent's copyset: the new token node is
        // the root and accounted nowhere. (If the sender *is* the old
        // parent, its `transfer_token` already dropped us.)
        if self.parent != Some(from) && self.reported_owned.is_some() {
            if let Some(old) = self.parent {
                self.send_release(old, None, fx);
            }
        }
        self.is_token = true;
        self.parent = None;
        self.reported_owned = None;
        // Rule 5.3: the token node decides by compatibility alone and has
        // no parent to keep a mode from.
        self.retained = None;
        // Footnote b: the sender may still own a mode and then becomes our
        // child.
        if let Some(owned) = sender_owned {
            self.children.insert(from, owned);
        }
        // Footnote c: merge the travelling queue FIFO.
        self.queue.merge(queue);
        self.held.push((p.ticket, mode));
        // `child_frozen` keeps tracking what each child was told — needed
        // to *unfreeze* them later. New children (e.g. the sender) start
        // at the conservative default (nothing told).
        if self.cancelled.remove(&p.ticket) {
            // Cancelled while the token travelled: we keep the token
            // (someone must) but relinquish the grant immediately. The
            // span was already closed when `cancel` reported `WillAbort`.
            let released = self.release(p.ticket, fx);
            debug_assert!(released.is_ok());
            self.refresh_frozen(fx);
            self.serve_queue_token(fx);
            return;
        }
        fx.emit_with(|| ProtocolEvent::TokenReceived {
            node: self.id,
            lock: self.lock,
            span: self.own_span(p.ticket),
            mode,
        });
        self.grant_local(p.ticket, mode, fx);
        self.refresh_frozen(fx);
        self.serve_queue_token(fx);
    }

    /// `HandleRelease` of Figure 4: a child's subtree weakened.
    fn handle_release(
        &mut self,
        from: NodeId,
        new_owned: Option<Mode>,
        fx: &mut EffectSink<Envelope>,
    ) {
        match new_owned {
            Some(m) => {
                self.children.insert(from, m);
            }
            None => {
                self.children.remove(&from);
                self.child_frozen.remove(&from);
            }
        }
        fx.emit_with(|| ProtocolEvent::CopyRevoked {
            node: self.id,
            lock: self.lock,
            child: from,
            new_owned,
        });
        self.after_ownership_change(fx);
    }

    /// `HandleFreeze` of Figure 4 (Rule 6).
    fn handle_freeze(&mut self, from: NodeId, modes: ModeSet, fx: &mut EffectSink<Envelope>) {
        if self.parent != Some(from) {
            return; // stale: freezing authority flows down the current tree
        }
        self.frozen = self.frozen.union(modes);
        // A freeze that crossed our release in flight (or over-estimated
        // what we can grant) is clamped away: nobody unfreezes bits we
        // cannot act on.
        self.clamp_frozen();
        self.recall_retention(fx);
        self.propagate_freezes(fx);
    }

    /// Frozen-set replacement (unfreeze propagation).
    fn handle_update(&mut self, from: NodeId, frozen: ModeSet, fx: &mut EffectSink<Envelope>) {
        if self.parent != Some(from) {
            return;
        }
        self.frozen = frozen;
        self.clamp_frozen();
        self.recall_retention(fx);
        self.propagate_freezes(fx);
        // Thawed modes may unblock locally queued requests.
        self.serve_queue_nontoken(fx);
    }

    // ------------------------------------------------------------------
    // Serving and bookkeeping
    // ------------------------------------------------------------------

    /// Serves a remote request at the token node (Rule 3.2): copy grant if
    /// `owned ≥ mode`, token transfer otherwise.
    fn serve_remote_at_token(
        &mut self,
        origin: NodeId,
        mode: Mode,
        span: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) {
        let owned = self.owned();
        debug_assert!(compatible_owned(owned, mode));
        // U and W can never be held under a copy grant (no mode is both
        // compatible with them and at least as strong), so they always
        // take the token. Everything else is transferred only under the
        // literal Rule 3.2 policy (`eager_transfers`); the default lazy
        // policy serves it as a copy, keeping the token pinned.
        let must_transfer = matches!(mode, Mode::Upgrade | Mode::Write);
        let eager_transfer = self.config.eager_transfers && owned_strength(owned) < mode.strength();
        if must_transfer || eager_transfer {
            self.transfer_token(origin, mode, span, fx);
        } else {
            self.grant_copy(origin, mode, span, fx);
        }
    }

    /// Copy grant (Rules 3.1 / 3.2): the requester becomes our child.
    fn grant_copy(
        &mut self,
        origin: NodeId,
        mode: Mode,
        span: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) {
        let entry = self.children.entry(origin).or_insert(mode);
        *entry = stronger(Some(*entry), Some(mode)).expect("nonempty");
        // The new child inherits the modes it must consider frozen.
        let relevant = self.frozen.intersection(grantable_set(Some(*entry)));
        self.child_frozen.insert(origin, relevant);
        self.send(origin, Payload::Grant { mode, frozen: self.frozen }, fx);
        fx.emit_with(|| ProtocolEvent::CopyGranted {
            node: self.id,
            lock: self.lock,
            span: SpanId::new(origin, span),
            mode,
            copyset_size: self.children.len(),
        });
    }

    /// Token transfer (Rule 3.2): `origin` becomes the new token node and
    /// our parent; our remaining queue travels along.
    fn transfer_token(
        &mut self,
        origin: NodeId,
        mode: Mode,
        span: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) {
        debug_assert!(self.is_token);
        // If the requester was our child, its entry moves with the token
        // (its owned mode is subsumed by its new token role).
        self.children.remove(&origin);
        self.child_frozen.remove(&origin);
        let sender_owned = self.owned();
        // Local entries in our queue are ticket-addressed and meaningless
        // elsewhere: they travel as remote requests by us, and we record
        // them as pending so the eventual grant finds its ticket.
        // (Upgrade entries never travel: a held U pins the token here.)
        let mut queue = Vec::with_capacity(self.queue.len());
        for e in self.queue.take_all() {
            match e.waiter {
                Waiter::Remote(_) => queue.push(e),
                Waiter::Local(ticket) => {
                    self.pending.push(PendingRequest {
                        ticket,
                        mode: e.mode,
                        stamp: e.stamp,
                        priority: e.priority,
                    });
                    queue.push(
                        QueueEntry::with_priority(
                            Waiter::Remote(self.id),
                            e.mode,
                            e.stamp,
                            e.priority,
                        )
                        .with_span(ticket),
                    );
                }
                Waiter::LocalUpgrade(_) => {
                    debug_assert!(false, "a held U pins the token: upgrades cannot travel");
                    queue.push(e);
                }
            }
        }
        self.is_token = false;
        self.parent = Some(origin);
        self.reported_owned = sender_owned;
        self.frozen = ModeSet::EMPTY;
        // Our queue (the freezing authority) travels with the token:
        // release our children from any freezes we issued. The new token
        // node re-freezes through us if the merged queue requires it.
        self.propagate_freezes(fx);
        let queue_len = queue.len();
        self.send(origin, Payload::Token { mode, queue, sender_owned }, fx);
        fx.emit_with(|| ProtocolEvent::TokenSent {
            node: self.id,
            lock: self.lock,
            span: SpanId::new(origin, span),
            mode,
            queue_len,
        });
    }

    /// Sends our own request one hop toward the token and records it
    /// as pending.
    fn send_own_request(
        &mut self,
        ticket: Ticket,
        mode: Mode,
        stamp: Stamp,
        priority: Priority,
        fx: &mut EffectSink<Envelope>,
    ) {
        let parent = self.parent.expect("non-token node has a parent");
        self.pending.push(PendingRequest { ticket, mode, stamp, priority });
        let request = Payload::Request { origin: self.id, mode, stamp, priority, span: ticket };
        self.send(parent, request, fx);
    }

    /// Relays a remote request one hop toward the token (Rule 4.1),
    /// optionally compressing the path.
    fn forward_request(
        &mut self,
        origin: NodeId,
        mode: Mode,
        stamp: Stamp,
        priority: Priority,
        span: Ticket,
        fx: &mut EffectSink<Envelope>,
    ) {
        let parent = self.parent.expect("non-token node has a parent");
        self.send(parent, Payload::Request { origin, mode, stamp, priority, span }, fx);
        fx.emit_with(|| ProtocolEvent::RequestForwarded {
            node: self.id,
            lock: self.lock,
            span: SpanId::new(origin, span),
            mode,
        });
        // Naimi-style path compression, restricted to requests that are
        // guaranteed to end in a token transfer (`U`/`W` can never be
        // copy-granted): the origin is about to become the root, so an
        // *inactive* forwarder (nothing held/owned/pending/queued, its
        // parent pointer is pure routing state) may repoint to it.
        // Repointing at copy-grantable modes is unsound — the origin does
        // not become the root and transient pointer cycles can livelock
        // request routing.
        if self.config.path_compression
            && matches!(mode, Mode::Upgrade | Mode::Write)
            && origin != self.id
            && self.is_inactive()
        {
            self.parent = Some(origin);
        }
    }

    /// Our own request message arrived back at us — we must have become
    /// the token node while it was in flight; resolve it locally.
    fn handle_own_request_returned(
        &mut self,
        mode: Mode,
        stamp: Stamp,
        priority: Priority,
        fx: &mut EffectSink<Envelope>,
    ) {
        let Some(idx) = self.pending.iter().position(|p| p.mode == mode) else {
            return; // already satisfied through another path
        };
        if !self.is_token {
            // Still not the root: keep the request moving.
            let parent = self.parent.expect("non-token node has a parent");
            let span = self.pending[idx].ticket;
            let request = Payload::Request { origin: self.id, mode, stamp, priority, span };
            self.send(parent, request, fx);
            return;
        }
        let p = self.pending.remove(idx);
        if compatible_owned(self.owned(), mode) && !self.frozen.contains(mode) {
            self.held.push((p.ticket, mode));
            self.grant_local(p.ticket, mode, fx);
        } else {
            self.queue.push_back(QueueEntry::with_priority(
                Waiter::Local(p.ticket),
                mode,
                p.stamp,
                p.priority,
            ));
            fx.emit_with(|| ProtocolEvent::RequestQueued {
                node: self.id,
                lock: self.lock,
                span: self.own_span(p.ticket),
                mode,
                queue_depth: self.queue.len(),
            });
            self.refresh_frozen(fx);
        }
    }

    /// Rule 5.3: may the `mode` a local ticket just released stay owned?
    /// Only `IR` (it conflicts with nothing but `W`), only where it saves
    /// a release (nothing else in the subtree still owns it), only at a
    /// non-token node, and only while it can be recalled and is not
    /// already being recalled: retention is release suppression one step
    /// further and rides on the freeze path, so it is on exactly when
    /// both are. A pending `W` of our own would wait on it — never kept.
    fn may_retain(&self, mode: Mode) -> bool {
        mode == Mode::IntentRead
            && !self.is_token
            && self.config.suppress_releases
            && self.config.freezing
            && !self.frozen.contains(mode)
            && self.owned().is_none()
            && self.pending.iter().all(|p| p.mode.compatible(mode))
    }

    /// Ends the retention and reports the weakened ownership (one
    /// `Release` hop unless the subtree still owns the mode).
    fn drop_retention(&mut self, fx: &mut EffectSink<Envelope>) {
        self.retained = None;
        self.after_ownership_change(fx);
    }

    /// Rule 5.3 recall: a frozen set that names the retained mode means a
    /// conflicting request waits at the token.
    fn recall_retention(&mut self, fx: &mut EffectSink<Envelope>) {
        if self.retained.is_some_and(|kept| self.frozen.contains(kept)) {
            self.drop_retention(fx);
        }
    }

    /// Common post-release path: recompute ownership, serve the queue,
    /// and tell the parent if our owned mode changed (Rule 5).
    fn after_ownership_change(&mut self, fx: &mut EffectSink<Envelope>) {
        if self.is_token {
            self.serve_queue_token(fx);
            return;
        }
        let owned = self.owned();
        let changed = owned != self.reported_owned;
        if changed || !self.config.suppress_releases {
            if let Some(parent) = self.parent {
                self.send_release(parent, owned, fx);
            }
            self.reported_owned = owned;
        } else if self.parent.is_some() {
            // Rule 5.2: the parent's view is still accurate — suppressed.
            fx.emit_with(|| ProtocolEvent::ReleaseSuppressed {
                node: self.id,
                lock: self.lock,
                owned,
            });
        }
        // Weakened ownership shrinks the set of modes we could act on;
        // drop frozen bits outside it (nobody tracks or unfreezes them).
        self.clamp_frozen();
        if owned.is_none() {
            self.child_frozen.clear();
        }
        self.serve_queue_nontoken(fx);
    }

    /// `Check_requests_on_queue` at the token node: serve head-first,
    /// stopping at the first request that cannot be served (strict FIFO),
    /// then refresh frozen modes.
    fn serve_queue_token(&mut self, fx: &mut EffectSink<Envelope>) {
        debug_assert!(self.is_token);
        while let Some(head) = self.queue.head().copied() {
            let owned = self.owned();
            match head.waiter {
                Waiter::LocalUpgrade(ticket) => {
                    // Rule 7: atomically convert the held U once every
                    // other holder has drained.
                    let only_upgrader = self.children.is_empty()
                        && self.held.len() == 1
                        && self.held[0] == (ticket, Mode::Upgrade);
                    if only_upgrader {
                        self.queue.pop_head();
                        self.held[0].1 = Mode::Write;
                        self.grant_local(ticket, Mode::Write, fx);
                    } else {
                        break;
                    }
                }
                Waiter::Local(ticket) => {
                    if compatible_owned(owned, head.mode) {
                        self.queue.pop_head();
                        self.held.push((ticket, head.mode));
                        self.grant_local(ticket, head.mode, fx);
                    } else {
                        break;
                    }
                }
                Waiter::Remote(origin) => {
                    if compatible_owned(owned, head.mode) {
                        self.queue.pop_head();
                        self.serve_remote_at_token(origin, head.mode, head.span, fx);
                        if !self.is_token {
                            // The token (and remaining queue) moved on.
                            return;
                        }
                    } else {
                        break;
                    }
                }
            }
        }
        self.refresh_frozen(fx);
    }

    /// Queue service at a non-token node: grant what has become
    /// grantable; re-route entries whose absorption guarantee no longer
    /// holds; stop at entries that must keep waiting.
    fn serve_queue_nontoken(&mut self, fx: &mut EffectSink<Envelope>) {
        if self.is_token {
            // A grant/update may race with having just become the token.
            self.serve_queue_token(fx);
            return;
        }
        while let Some(head) = self.queue.head().copied() {
            let owned = self.owned();
            match head.waiter {
                Waiter::LocalUpgrade(_) => {
                    debug_assert!(false, "upgrade entries exist only at the token node");
                    break;
                }
                Waiter::Local(ticket) => {
                    if owned_strength(owned) >= head.mode.strength()
                        && compatible_owned(owned, head.mode)
                        && !self.frozen.contains(head.mode)
                    {
                        self.queue.pop_head();
                        self.held.push((ticket, head.mode));
                        self.grant_local(ticket, head.mode, fx);
                    } else if queue_or_forward(self.strongest_pending(), head.mode)
                        == QueueDecision::Queue
                    {
                        break; // service still guaranteed, keep waiting
                    } else {
                        self.queue.pop_head();
                        self.send_own_request(ticket, head.mode, head.stamp, head.priority, fx);
                    }
                }
                Waiter::Remote(origin) => {
                    if grantable(owned, head.mode) && !self.frozen.contains(head.mode) {
                        self.queue.pop_head();
                        self.grant_copy(origin, head.mode, head.span, fx);
                    } else if queue_or_forward(self.strongest_pending(), head.mode)
                        == QueueDecision::Queue
                    {
                        break;
                    } else {
                        self.queue.pop_head();
                        self.forward_request(
                            origin,
                            head.mode,
                            head.stamp,
                            head.priority,
                            head.span,
                            fx,
                        );
                    }
                }
            }
        }
    }

    /// Recomputes the frozen set from the local queue (token node only)
    /// and notifies children whose relevant slice changed.
    fn refresh_frozen(&mut self, fx: &mut EffectSink<Envelope>) {
        if !self.is_token {
            return;
        }
        self.frozen = if self.config.freezing {
            self.queue.iter().fold(ModeSet::EMPTY, |acc, e| acc.union(frozen_modes(e.mode)))
        } else {
            ModeSet::EMPTY
        };
        self.propagate_freezes(fx);
    }

    /// Sends freeze/update notifications to children that are potential
    /// granters of modes whose frozen status changed (footnote a).
    fn propagate_freezes(&mut self, fx: &mut EffectSink<Envelope>) {
        for (&child, &child_owned) in &self.children {
            let relevant = self.frozen.intersection(grantable_set(Some(child_owned)));
            let told = self.child_frozen.get(&child).copied().unwrap_or(ModeSet::EMPTY);
            if relevant == told {
                continue;
            }
            let payload = if told.difference(relevant).is_empty() {
                // Only additions: a plain freeze suffices.
                Payload::Freeze { modes: relevant.difference(told) }
            } else {
                Payload::Update { frozen: relevant }
            };
            self.child_frozen.insert(child, relevant);
            self.send(child, payload, fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::Effect;

    const L: LockId = LockId(0);
    const CFG: ProtocolConfig = ProtocolConfig {
        absorb_requests: true,
        suppress_releases: true,
        freezing: true,
        path_compression: true,
        eager_transfers: false,
    };
    /// Literal Rule 3.2 (used by the paper's figure walk-throughs, which
    /// show eager transfers).
    const CFG_EAGER: ProtocolConfig = ProtocolConfig {
        absorb_requests: true,
        suppress_releases: true,
        freezing: true,
        path_compression: true,
        eager_transfers: true,
    };

    fn sink() -> EffectSink<Envelope> {
        EffectSink::new()
    }

    fn sends(fx: &mut EffectSink<Envelope>) -> Vec<(NodeId, Payload)> {
        fx.drain()
            .filter_map(|e| match e {
                Effect::Send { to, message: Envelope { lock, payload } } => {
                    assert_eq!(lock, L, "every message carries its lock");
                    Some((to, payload))
                }
                _ => None,
            })
            .collect()
    }

    fn grants(fx: &mut EffectSink<Envelope>) -> Vec<(Ticket, Mode)> {
        fx.drain()
            .filter_map(|e| match e {
                Effect::Granted { ticket, mode, .. } => Some((ticket, mode)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn token_node_acquires_locally_without_messages() {
        let mut n = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut fx = sink();
        n.request(Mode::Write, Ticket(1), &mut fx).unwrap();
        let effects: Vec<_> = fx.drain().collect();
        assert_eq!(effects.len(), 1);
        assert!(matches!(effects[0], Effect::Granted { ticket: Ticket(1), mode: Mode::Write, .. }));
        assert!(n.is_token());
        assert_eq!(n.owned(), Some(Mode::Write));
    }

    #[test]
    fn duplicate_ticket_rejected() {
        let mut n = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut fx = sink();
        n.request(Mode::Read, Ticket(1), &mut fx).unwrap();
        let err = n.request(Mode::Read, Ticket(1), &mut fx).unwrap_err();
        assert_eq!(err, ProtocolError::DuplicateTicket { ticket: Ticket(1) });
    }

    #[test]
    fn release_unknown_ticket_rejected() {
        let mut n = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut fx = sink();
        let err = n.release(Ticket(9), &mut fx).unwrap_err();
        assert_eq!(err, ProtocolError::NotHeld { ticket: Ticket(9) });
    }

    #[test]
    fn non_token_sends_request_to_parent() {
        let mut n = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        let mut fx = sink();
        n.request(Mode::Read, Ticket(1), &mut fx).unwrap();
        let out = sends(&mut fx);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeId(0));
        assert!(matches!(out[0].1, Payload::Request { origin: NodeId(1), mode: Mode::Read, .. }));
        assert_eq!(n.pending_len(), 1);
    }

    /// Rule 2: a second compatible, weaker-or-equal local request is
    /// satisfied without messages.
    #[test]
    fn local_grant_under_owned_mode() {
        let mut n = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut fx = sink();
        n.request(Mode::Read, Ticket(1), &mut fx).unwrap();
        fx.drain().count();
        n.request(Mode::IntentRead, Ticket(2), &mut fx).unwrap();
        let effects: Vec<_> = fx.drain().collect();
        assert_eq!(effects.len(), 1);
        assert!(matches!(effects[0], Effect::Granted { ticket: Ticket(2), .. }));
    }

    /// Token transfer: requesting a stronger mode moves the token.
    #[test]
    fn token_transfers_on_stronger_request() {
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        let mut fx = sink();
        b.request(Mode::Write, Ticket(1), &mut fx).unwrap();
        let out = sends(&mut fx);
        a.on_message(NodeId(1), out[0].1.clone(), &mut fx);
        let out = sends(&mut fx);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Payload::Token { mode: Mode::Write, .. }));
        assert!(!a.is_token());
        assert_eq!(a.parent(), Some(NodeId(1)));
        b.on_message(NodeId(0), out[0].1.clone(), &mut fx);
        assert!(b.is_token());
        assert_eq!(grants(&mut fx), vec![(Ticket(1), Mode::Write)]);
        assert_eq!(b.owned(), Some(Mode::Write));
    }

    /// Copy grant: the token keeps the token, requester becomes a child.
    #[test]
    fn copy_grant_for_weaker_compatible_mode() {
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        let mut fx = sink();
        a.request(Mode::Read, Ticket(1), &mut fx).unwrap();
        fx.drain().count();
        b.request(Mode::Read, Ticket(2), &mut fx).unwrap();
        let out = sends(&mut fx);
        a.on_message(NodeId(1), out[0].1.clone(), &mut fx);
        let out = sends(&mut fx);
        assert!(matches!(out[0].1, Payload::Grant { mode: Mode::Read, .. }));
        assert!(a.is_token());
        assert_eq!(a.children().get(&NodeId(1)), Some(&Mode::Read));
        b.on_message(NodeId(0), out[0].1.clone(), &mut fx);
        assert_eq!(grants(&mut fx), vec![(Ticket(2), Mode::Read)]);
        assert!(!b.is_token());
    }

    /// Incompatible request queues at the token and freezes modes.
    #[test]
    fn incompatible_request_queues_and_freezes() {
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG_EAGER);
        let mut fx = sink();
        a.request(Mode::IntentWrite, Ticket(1), &mut fx).unwrap();
        fx.drain().count();
        // Remote R arrives: incompatible with IW, queued, IW+W frozen.
        a.on_message(
            NodeId(1),
            Payload::Request {
                origin: NodeId(1),
                mode: Mode::Read,
                stamp: Stamp(1),
                priority: Priority::NORMAL,
                span: Ticket(1),
            },
            &mut fx,
        );
        assert_eq!(a.queue_len(), 1);
        assert!(a.frozen().contains(Mode::IntentWrite));
        assert!(a.frozen().contains(Mode::Write));
        assert!(!a.frozen().contains(Mode::Read));
        // Frozen IW now refuses even a compatible IW newcomer (Rule 6).
        a.on_message(
            NodeId(2),
            Payload::Request {
                origin: NodeId(2),
                mode: Mode::IntentWrite,
                stamp: Stamp(2),
                priority: Priority::NORMAL,
                span: Ticket(1),
            },
            &mut fx,
        );
        assert_eq!(a.queue_len(), 2);
        // Release unblocks the queue in FIFO order.
        a.release(Ticket(1), &mut fx).unwrap();
        let out = sends(&mut fx);
        // R is served first (token transfer: ∅ < R).
        assert!(matches!(out[0].1, Payload::Token { mode: Mode::Read, .. }));
    }

    /// The paper's Figure 2 walk-through.
    #[test]
    fn paper_figure_2_grant_release_queue() {
        let mut fx = sink();
        // Initial state: A token holding R; B child owning IR (C holds IR
        // under B); D idle under B.
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        let mut c = LockNode::new(NodeId(2), L, NodeId(0), CFG);
        let mut d = LockNode::new(NodeId(3), L, NodeId(0), CFG);
        // Build the initial configuration through the protocol itself:
        a.request(Mode::Read, Ticket(10), &mut fx).unwrap();
        fx.drain().count();
        // B acquires IR from A, then C acquires IR from B.
        b.request(Mode::IntentRead, Ticket(11), &mut fx).unwrap();
        let m = sends(&mut fx);
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
        fx.drain().count();
        // C's IR goes through B (its initial parent is A, but route via B
        // to match the figure: set up by sending the request to B).
        c.request(Mode::IntentRead, Ticket(12), &mut fx).unwrap();
        let m = sends(&mut fx);
        assert_eq!(m[0].0, NodeId(0)); // C's initial parent is A
                                       // B can grant IR itself when asked (Rule 3.1) — deliver there to
                                       // reproduce the figure's topology.
        b.on_message(NodeId(2), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        assert!(matches!(m[0].1, Payload::Grant { mode: Mode::IntentRead, .. }));
        c.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        fx.drain().count();
        assert_eq!(b.children().get(&NodeId(2)), Some(&Mode::IntentRead));

        // (b) B releases IR: no release message (still owns IR via C).
        b.release(Ticket(11), &mut fx).unwrap();
        assert!(sends(&mut fx).is_empty(), "Rule 5.2 suppresses the release");
        assert_eq!(b.owned(), Some(Mode::IntentRead));

        // (c) B requests R; D requests R via B; B queues {D,R} locally.
        b.request(Mode::Read, Ticket(13), &mut fx).unwrap();
        let b_req = sends(&mut fx);
        assert_eq!(b_req[0].0, NodeId(0));
        d.request(Mode::Read, Ticket(14), &mut fx).unwrap();
        let d_req = sends(&mut fx);
        // Deliver D's request to B (the figure's topology).
        b.on_message(NodeId(3), d_req[0].1.clone(), &mut fx);
        assert!(sends(&mut fx).is_empty(), "{{D,R}} is absorbed at B (Rule 4.1)");
        assert_eq!(b.queue_len(), 1);

        // (d) A grants {B,R}; B then grants the queued {D,R} itself.
        a.on_message(NodeId(1), b_req[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        assert!(matches!(m[0].1, Payload::Grant { mode: Mode::Read, .. }));
        assert!(a.is_token(), "A keeps the token (copy grant)");
        b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
        let out: Vec<_> = fx.drain().collect();
        // B got its grant and immediately granted D from its local queue.
        assert!(out
            .iter()
            .any(|e| matches!(e, Effect::Granted { ticket: Ticket(13), mode: Mode::Read, .. })));
        let to_d: Vec<_> = out
            .iter()
            .filter_map(|e| match e {
                Effect::Send { to, message } if *to == NodeId(3) => Some(message.payload.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(to_d.len(), 1);
        assert!(matches!(to_d[0], Payload::Grant { mode: Mode::Read, .. }));
        d.on_message(NodeId(1), to_d[0].clone(), &mut fx);
        assert_eq!(grants(&mut fx), vec![(Ticket(14), Mode::Read)]);
        assert_eq!(b.children().get(&NodeId(3)), Some(&Mode::Read));
        assert_eq!(d.owned(), Some(Mode::Read));
    }

    /// The paper's Figure 3 walk-through: freezing IW while {D,R} waits.
    #[test]
    fn paper_figure_3_freezing() {
        let mut fx = sink();
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG_EAGER);
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG_EAGER);
        let mut c = LockNode::new(NodeId(2), L, NodeId(0), CFG_EAGER);
        let mut d = LockNode::new(NodeId(3), L, NodeId(0), CFG_EAGER);
        // A holds IW; B and C hold IW copies.
        a.request(Mode::IntentWrite, Ticket(20), &mut fx).unwrap();
        fx.drain().count();
        for (n, id, t) in [(&mut b, NodeId(1), 21u64), (&mut c, NodeId(2), 22)] {
            n.request(Mode::IntentWrite, Ticket(t), &mut fx).unwrap();
            let m = sends(&mut fx);
            a.on_message(id, m[0].1.clone(), &mut fx);
            let m = sends(&mut fx);
            n.on_message(NodeId(0), m[0].1.clone(), &mut fx);
            fx.drain().count();
        }
        assert_eq!(a.children().len(), 2);

        // D requests R; it reaches A and is queued; A freezes IW at the
        // potential granters B and C.
        d.request(Mode::Read, Ticket(23), &mut fx).unwrap();
        let m = sends(&mut fx);
        a.on_message(NodeId(3), m[0].1.clone(), &mut fx);
        let freezes = sends(&mut fx);
        assert_eq!(a.queue_len(), 1);
        assert!(a.frozen().contains(Mode::IntentWrite));
        let mut frozen_targets: Vec<NodeId> = freezes
            .iter()
            .filter(|(_, p)| matches!(p, Payload::Freeze { .. }))
            .map(|(to, _)| *to)
            .collect();
        frozen_targets.sort();
        assert_eq!(frozen_targets, vec![NodeId(1), NodeId(2)]);
        for (to, p) in &freezes {
            if let Payload::Freeze { modes } = p {
                assert!(modes.contains(Mode::IntentWrite), "IW frozen at {to}");
            }
        }
        // B applies the freeze and now refuses to grant IW to a newcomer.
        b.on_message(NodeId(0), freezes[0].1.clone(), &mut fx);
        fx.drain().count();
        b.on_message(
            NodeId(4),
            Payload::Request {
                origin: NodeId(4),
                mode: Mode::IntentWrite,
                stamp: Stamp(9),
                priority: Priority::NORMAL,
                span: Ticket(1),
            },
            &mut fx,
        );
        let fwd = sends(&mut fx);
        assert_eq!(fwd.len(), 1, "frozen IW is forwarded, not granted");
        assert!(matches!(fwd[0].1, Payload::Request { .. }));
        assert_eq!(fwd[0].0, NodeId(0));

        // B, C and A release IW; the token moves to D with mode R.
        b.release(Ticket(21), &mut fx).unwrap();
        let rel = sends(&mut fx);
        assert!(matches!(rel[0].1, Payload::Release { new_owned: None }));
        a.on_message(NodeId(1), rel[0].1.clone(), &mut fx);
        fx.drain().count();
        c.release(Ticket(22), &mut fx).unwrap();
        let rel = sends(&mut fx);
        a.on_message(NodeId(2), rel[0].1.clone(), &mut fx);
        fx.drain().count();
        a.release(Ticket(20), &mut fx).unwrap();
        let out = sends(&mut fx);
        let token: Vec<_> = out
            .iter()
            .filter(|(to, p)| *to == NodeId(3) && matches!(p, Payload::Token { .. }))
            .collect();
        assert_eq!(token.len(), 1);
        d.on_message(NodeId(0), token[0].1.clone(), &mut fx);
        assert_eq!(grants(&mut fx), vec![(Ticket(23), Mode::Read)]);
        assert!(d.is_token());
        assert_eq!(d.owned(), Some(Mode::Read));
    }

    /// Rule 7: upgrade converts U to W once the copyset drains.
    #[test]
    fn upgrade_waits_for_copyset_then_converts() {
        let mut fx = sink();
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        // A takes U (token, local). B takes R (compatible with U).
        a.request(Mode::Upgrade, Ticket(1), &mut fx).unwrap();
        fx.drain().count();
        b.request(Mode::Read, Ticket(2), &mut fx).unwrap();
        let m = sends(&mut fx);
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
        fx.drain().count();
        // A upgrades: must wait for B's release.
        a.upgrade(Ticket(1), &mut fx).unwrap();
        let out = sends(&mut fx);
        // Freeze of R (and everything else incompatible with W) at B.
        assert!(out.iter().any(|(to, p)| *to == NodeId(1)
            && matches!(p, Payload::Freeze { modes } if modes.contains(Mode::Read))));
        assert!(a.held().iter().any(|&(t, m)| t == Ticket(1) && m == Mode::Upgrade));
        // B releases; A's upgrade completes with mode W.
        b.release(Ticket(2), &mut fx).unwrap();
        let rel = sends(&mut fx);
        a.on_message(NodeId(1), rel[0].1.clone(), &mut fx);
        let g = grants(&mut fx);
        assert_eq!(g, vec![(Ticket(1), Mode::Write)]);
        assert_eq!(a.owned(), Some(Mode::Write));
    }

    #[test]
    fn upgrade_without_u_is_rejected() {
        let mut fx = sink();
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        a.request(Mode::Read, Ticket(1), &mut fx).unwrap();
        fx.drain().count();
        let err = a.upgrade(Ticket(1), &mut fx).unwrap_err();
        assert_eq!(
            err,
            ProtocolError::UpgradeRequiresUpgradeLock { ticket: Ticket(1), held: Mode::Read }
        );
        let err = a.upgrade(Ticket(9), &mut fx).unwrap_err();
        assert_eq!(err, ProtocolError::NotHeld { ticket: Ticket(9) });
    }

    /// Rule 5.2: releasing while a child still owns an equal mode sends
    /// nothing; the final release propagates.
    #[test]
    fn release_suppression() {
        let mut fx = sink();
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        let mut c = LockNode::new(NodeId(2), L, NodeId(0), CFG);
        a.request(Mode::Read, Ticket(1), &mut fx).unwrap();
        fx.drain().count();
        // B gets R from A; C gets R from B.
        b.request(Mode::Read, Ticket(2), &mut fx).unwrap();
        let m = sends(&mut fx);
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
        fx.drain().count();
        c.request(Mode::Read, Ticket(3), &mut fx).unwrap();
        let m = sends(&mut fx);
        b.on_message(NodeId(2), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        c.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        fx.drain().count();
        // B releases: C still holds R under B, so B's owned is unchanged.
        b.release(Ticket(2), &mut fx).unwrap();
        assert!(sends(&mut fx).is_empty());
        // C releases: B's owned drops to ∅ — exactly one release to A.
        c.release(Ticket(3), &mut fx).unwrap();
        let m = sends(&mut fx);
        assert_eq!(m.len(), 1);
        assert!(matches!(m[0].1, Payload::Release { new_owned: None }));
        b.on_message(NodeId(2), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        assert_eq!(m.len(), 1, "one release regardless of grandchildren");
        assert!(matches!(m[0].1, Payload::Release { new_owned: None }));
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        assert!(a.children().is_empty());
    }

    /// Token node `a` and node `b`, which has acquired `IR` from `a` under
    /// ticket 1 (so `b` is `a`'s child owning `IR`).
    fn token_and_ir_holder(cfg: ProtocolConfig) -> (LockNode, LockNode) {
        let mut fx = sink();
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), cfg);
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), cfg);
        b.request(Mode::IntentRead, Ticket(1), &mut fx).unwrap();
        let m = sends(&mut fx);
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
        assert_eq!(grants(&mut fx), vec![(Ticket(1), Mode::IntentRead)]);
        (a, b)
    }

    /// [`token_and_ir_holder`] after `b` released: `b` retains `IR`.
    fn token_and_retainer() -> (LockNode, LockNode) {
        let (a, mut b) = token_and_ir_holder(CFG);
        b.release(Ticket(1), &mut sink()).unwrap();
        assert_eq!(b.retained(), Some(Mode::IntentRead));
        (a, b)
    }

    fn all_frozen() -> ModeSet {
        frozen_modes(Mode::Write)
    }

    /// Rule 5.3: the last `IR` release keeps the mode — no message, a
    /// `ReleaseSuppressed` event, ownership and quiescence unchanged.
    #[test]
    fn last_ir_release_is_retained_not_sent() {
        let (a, mut b) = token_and_ir_holder(CFG);
        let mut fx = sink();
        fx.set_observing(true);
        assert_eq!(b.release(Ticket(1), &mut fx), Ok(Mode::IntentRead));
        assert!(fx.events().iter().any(|e| matches!(
            e,
            ProtocolEvent::ReleaseSuppressed { owned: Some(Mode::IntentRead), .. }
        )));
        assert!(sends(&mut fx).is_empty(), "the release is suppressed");
        assert_eq!(b.retained(), Some(Mode::IntentRead));
        assert_eq!(b.owned(), Some(Mode::IntentRead));
        assert!(b.held().is_empty() && b.is_quiescent());
        assert_eq!(a.children().get(&NodeId(1)), Some(&Mode::IntentRead), "a's view is accurate");
    }

    /// Rule 5.3 + Rule 2: `IR` requests at a retaining node are local.
    #[test]
    fn retained_ir_serves_requests_without_messages() {
        let (_a, mut b) = token_and_retainer();
        let mut fx = sink();
        b.request(Mode::IntentRead, Ticket(2), &mut fx).unwrap();
        assert_eq!(fx.len(), 1, "just the local grant");
        assert_eq!(grants(&mut fx), vec![(Ticket(2), Mode::IntentRead)]);
        assert!(b.try_request(Mode::IntentRead, Ticket(3), &mut fx).unwrap());
        assert_eq!(grants(&mut fx), vec![(Ticket(3), Mode::IntentRead)]);
        // Releasing them again is just as silent.
        b.release(Ticket(2), &mut fx).unwrap();
        b.release(Ticket(3), &mut fx).unwrap();
        assert!(fx.is_empty());
        assert_eq!(b.retained(), Some(Mode::IntentRead));
    }

    /// Rule 5.3 recall: a freeze naming `IR` ends the retention with
    /// exactly one `Release{∅}`; an `Update` does the same.
    #[test]
    fn frozen_ir_recalls_the_retention_with_one_release() {
        for recall in
            [Payload::Freeze { modes: all_frozen() }, Payload::Update { frozen: all_frozen() }]
        {
            let (mut a, mut b) = token_and_retainer();
            let mut fx = sink();
            b.on_message(NodeId(0), recall, &mut fx);
            let out = sends(&mut fx);
            assert_eq!(out.len(), 1, "{out:?}");
            assert_eq!(out[0].0, NodeId(0));
            assert!(matches!(out[0].1, Payload::Release { new_owned: None }));
            assert_eq!(b.retained(), None);
            assert_eq!(b.owned(), None);
            assert!(b.frozen().is_empty(), "nothing owned, nothing to keep frozen");
            a.on_message(NodeId(1), out[0].1.clone(), &mut fx);
            assert!(a.children().is_empty());
        }
    }

    /// End to end: a `W` queued at the token recalls the retention
    /// through the freeze the token sends anyway, and is then served.
    #[test]
    fn queued_write_recalls_a_retaining_child_in_one_hop() {
        let (mut a, mut b) = token_and_retainer();
        let mut c = LockNode::new(NodeId(2), L, NodeId(0), CFG);
        let mut fx = sink();
        c.request(Mode::Write, Ticket(1), &mut fx).unwrap();
        let m = sends(&mut fx);
        a.on_message(NodeId(2), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        assert_eq!(m.len(), 1, "the W queues; the only message is b's freeze: {m:?}");
        assert!(
            matches!(m[0], (NodeId(1), Payload::Freeze { modes }) if modes.contains(Mode::IntentRead))
        );
        b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        assert!(matches!(m[0], (NodeId(2), Payload::Token { mode: Mode::Write, .. })), "{m:?}");
    }

    /// With a real holder under the retained mode, the recall only
    /// clears the retention; the release leaves when that holder does.
    #[test]
    fn recall_waits_for_a_real_holder() {
        let (_a, mut b) = token_and_retainer();
        let mut fx = sink();
        b.request(Mode::IntentRead, Ticket(2), &mut fx).unwrap();
        fx.drain().count();
        b.on_message(NodeId(0), Payload::Freeze { modes: all_frozen() }, &mut fx);
        assert!(sends(&mut fx).is_empty(), "ticket 2 still holds IR");
        assert_eq!(b.retained(), None);
        assert!(b.frozen().contains(Mode::IntentRead));
        b.release(Ticket(2), &mut fx).unwrap();
        let out = sends(&mut fx);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Payload::Release { new_owned: None }));
        assert_eq!(b.retained(), None, "a frozen IR is not retained again");
    }

    /// A local request that conflicts with the retained mode (only `W`
    /// does) gives it up in the same step: `Release{∅}` then `Request`,
    /// both to the parent, so they share a frame.
    #[test]
    fn conflicting_local_request_drops_the_retention_in_the_same_step() {
        let (_a, mut b) = token_and_retainer();
        let mut fx = sink();
        b.request(Mode::Write, Ticket(2), &mut fx).unwrap();
        let out = sends(&mut fx);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(matches!(out[0], (NodeId(0), Payload::Release { new_owned: None })));
        assert!(matches!(out[1], (NodeId(0), Payload::Request { mode: Mode::Write, .. })));
        assert_eq!(b.retained(), None);
        // With a real IR holder the retention still ends, but there is
        // nothing to release yet.
        let (_a, mut b) = token_and_retainer();
        b.request(Mode::IntentRead, Ticket(2), &mut fx).unwrap();
        fx.drain().count();
        b.request(Mode::Write, Ticket(3), &mut fx).unwrap();
        let out = sends(&mut fx);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(matches!(out[0].1, Payload::Request { mode: Mode::Write, .. }));
        assert_eq!(b.retained(), None);
    }

    /// Modes compatible with `IR` leave the retention alone: the request
    /// is the only message, and when the stronger mode is released the
    /// node reports `IR`, not `∅`.
    #[test]
    fn compatible_local_requests_keep_the_retention() {
        for mode in [Mode::Read, Mode::Upgrade, Mode::IntentWrite] {
            let (_a, mut b) = token_and_retainer();
            let mut fx = sink();
            b.request(mode, Ticket(2), &mut fx).unwrap();
            let out = sends(&mut fx);
            assert_eq!(out.len(), 1, "{mode}: {out:?}");
            assert!(matches!(out[0].1, Payload::Request { .. }));
            assert_eq!(b.retained(), Some(Mode::IntentRead));
        }
        let (_a, mut b) = token_and_retainer();
        let mut fx = sink();
        b.request(Mode::Read, Ticket(2), &mut fx).unwrap();
        fx.drain().count();
        b.on_message(
            NodeId(0),
            Payload::Grant { mode: Mode::Read, frozen: ModeSet::EMPTY },
            &mut fx,
        );
        fx.drain().count();
        b.release(Ticket(2), &mut fx).unwrap();
        let out = sends(&mut fx);
        assert!(
            matches!(out[0].1, Payload::Release { new_owned: Some(Mode::IntentRead) }),
            "{out:?}"
        );
    }

    /// A grant can carry the recall too: the token serves the head of its
    /// queue (`R` for us) while a `W` behind it keeps everything frozen.
    /// The copy of the frozen set in the grant is all we are ever told —
    /// the token counts us as notified — so it must end the retention, or
    /// the `W` would wait for a release nobody knows to send.
    #[test]
    fn grant_carrying_a_frozen_ir_ends_the_retention() {
        let (_a, mut b) = token_and_retainer();
        let mut fx = sink();
        b.request(Mode::Read, Ticket(2), &mut fx).unwrap();
        fx.drain().count();
        b.on_message(NodeId(0), Payload::Grant { mode: Mode::Read, frozen: all_frozen() }, &mut fx);
        assert_eq!(grants(&mut fx), vec![(Ticket(2), Mode::Read)]);
        assert_eq!(b.retained(), None);
        assert!(b.frozen().contains(Mode::IntentRead));
        b.release(Ticket(2), &mut fx).unwrap();
        let out = sends(&mut fx);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(matches!(out[0].1, Payload::Release { new_owned: None }));
    }

    /// A pending `W` of our own would wait on the mode: not retained.
    #[test]
    fn nothing_is_retained_under_a_pending_conflicting_request() {
        let (_a, mut b) = token_and_ir_holder(CFG);
        let mut fx = sink();
        b.request(Mode::Write, Ticket(2), &mut fx).unwrap();
        fx.drain().count();
        b.release(Ticket(1), &mut fx).unwrap();
        let out = sends(&mut fx);
        assert!(matches!(out[0].1, Payload::Release { new_owned: None }), "{out:?}");
        assert_eq!(b.retained(), None);
    }

    /// Becoming the token node ends the retention.
    #[test]
    fn token_arrival_clears_the_retention() {
        let (mut a, mut b) = token_and_retainer();
        let mut fx = sink();
        // U is compatible with the retained IR and always takes the token.
        b.request(Mode::Upgrade, Ticket(2), &mut fx).unwrap();
        let m = sends(&mut fx);
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        assert!(matches!(m[0].1, Payload::Token { .. }));
        b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
        assert!(b.is_token());
        assert_eq!(b.retained(), None);
        assert_eq!(b.owned(), Some(Mode::Upgrade));
        assert!(sends(&mut fx).is_empty(), "a dropped b from its copyset when it sent the token");
        assert!(a.children().is_empty());
    }

    /// Where retention is off: at the token node, while `IR` is frozen,
    /// for any other mode, and in every configuration that lacks release
    /// suppression or the freeze path that recalls it.
    #[test]
    fn retention_is_off_where_it_cannot_be_recalled() {
        let mut fx = sink();
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        a.request(Mode::IntentRead, Ticket(1), &mut fx).unwrap();
        a.release(Ticket(1), &mut fx).unwrap();
        assert_eq!((a.retained(), a.owned()), (None, None), "token node");

        let (_a, mut b) = token_and_ir_holder(CFG);
        b.on_message(NodeId(0), Payload::Freeze { modes: all_frozen() }, &mut fx);
        fx.drain().count();
        b.release(Ticket(1), &mut fx).unwrap();
        assert_eq!(b.retained(), None, "IR frozen");
        assert!(matches!(sends(&mut fx)[0].1, Payload::Release { new_owned: None }));

        for cfg in [CFG.without_freezing(), CFG.without_release_suppression()] {
            let (_a, mut b) = token_and_ir_holder(cfg);
            b.release(Ticket(1), &mut fx).unwrap();
            assert_eq!(b.retained(), None, "{cfg:?}");
            assert!(matches!(sends(&mut fx)[0].1, Payload::Release { new_owned: None }));
        }

        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        b.request(Mode::IntentWrite, Ticket(1), &mut fx).unwrap();
        b.on_message(
            NodeId(0),
            Payload::Grant { mode: Mode::IntentWrite, frozen: ModeSet::EMPTY },
            &mut fx,
        );
        fx.drain().count();
        b.release(Ticket(1), &mut fx).unwrap();
        assert_eq!(b.retained(), None, "only IR is retained");
        assert!(matches!(sends(&mut fx)[0].1, Payload::Release { new_owned: None }));
    }

    /// A recovery install neither reports nor rebuilds a retained mode.
    #[test]
    fn recovery_ignores_the_retention() {
        let (_a, b) = token_and_retainer();
        let report = b.survivor_report();
        assert_eq!((report.holds_token, report.owned), (false, None));
        let rebuilt = LockNode::recovered(
            b.id(),
            L,
            b.config(),
            NodeId(0),
            &[],
            b.held().to_vec(),
            b.clock(),
        );
        assert_eq!(rebuilt.retained(), None);
        assert_eq!(rebuilt.owned(), None);
    }

    /// Requests absorbed behind a pending W are all queued (Table 2(a)).
    #[test]
    fn absorption_behind_pending_write() {
        let mut fx = sink();
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        b.request(Mode::Write, Ticket(1), &mut fx).unwrap();
        fx.drain().count();
        for (origin, mode) in
            [(NodeId(2), Mode::Read), (NodeId(3), Mode::IntentWrite), (NodeId(4), Mode::Write)]
        {
            b.on_message(
                origin,
                Payload::Request {
                    origin,
                    mode,
                    stamp: Stamp(5),
                    priority: Priority::NORMAL,
                    span: Ticket(5),
                },
                &mut fx,
            );
        }
        assert!(sends(&mut fx).is_empty(), "everything absorbed behind pending W");
        assert_eq!(b.queue_len(), 3);
    }

    /// With absorption disabled, the same requests are all forwarded.
    #[test]
    fn no_absorption_ablation_forwards() {
        let mut fx = sink();
        let cfg = ProtocolConfig::paper().without_absorption();
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), cfg);
        b.request(Mode::Write, Ticket(1), &mut fx).unwrap();
        fx.drain().count();
        b.on_message(
            NodeId(2),
            Payload::Request {
                origin: NodeId(2),
                mode: Mode::Read,
                stamp: Stamp(5),
                priority: Priority::NORMAL,
                span: Ticket(1),
            },
            &mut fx,
        );
        let m = sends(&mut fx);
        assert_eq!(m.len(), 1);
        assert!(matches!(m[0].1, Payload::Request { origin: NodeId(2), .. }));
        assert_eq!(b.queue_len(), 0);
    }

    /// Regression: local queue entries must be converted to remote
    /// entries when they travel with the token — a new token node must
    /// never interpret another node's tickets as its own.
    #[test]
    fn local_queue_entries_travel_as_remote_with_token() {
        let mut fx = sink();
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        // A (token) holds W; B's W request queues; then A queues a second
        // local W behind it.
        a.request(Mode::Write, Ticket(1), &mut fx).unwrap();
        fx.drain().count();
        b.request(Mode::Write, Ticket(1), &mut fx).unwrap(); // same ticket number on purpose
        let m = sends(&mut fx);
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        a.request(Mode::Write, Ticket(2), &mut fx).unwrap();
        fx.drain().count();
        assert_eq!(a.queue_len(), 2);
        // A releases: the token (and A's queued local W, now a remote
        // entry for A) travels to B.
        a.release(Ticket(1), &mut fx).unwrap();
        let m = sends(&mut fx);
        let Payload::Token { queue, .. } = &m[0].1 else { panic!("expected token") };
        assert_eq!(queue.len(), 1);
        assert!(
            matches!(queue[0].waiter, Waiter::Remote(NodeId(0))),
            "A's local entry travels as Remote(A): {queue:?}"
        );
        assert_eq!(a.pending_len(), 1, "A's converted entry is now pending");
        b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
        let g = grants(&mut fx);
        assert_eq!(g, vec![(Ticket(1), Mode::Write)], "B's own W granted");
        // B releases: the token returns to A, which grants ticket 2.
        b.release(Ticket(1), &mut fx).unwrap();
        let m = sends(&mut fx);
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        assert_eq!(grants(&mut fx), vec![(Ticket(2), Mode::Write)]);
        assert!(a.is_token());
    }

    /// Regression: receiving the token must deregister the receiver from
    /// its old parent's copyset (phantom children once caused ownership
    /// cycles and deadlock).
    #[test]
    fn token_receipt_deregisters_from_old_parent() {
        let mut fx = sink();
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        // B acquires IR: B is A's child with IR.
        b.request(Mode::IntentRead, Ticket(1), &mut fx).unwrap();
        let m = sends(&mut fx);
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
        fx.drain().count();
        assert!(a.children().contains_key(&NodeId(1)));
        // B now requests W (still holding IR): incompatible at A until A
        // drops nothing — A owns IR via B only, W vs IR conflict… so B
        // must first release IR for W to be served; use U instead, which
        // is compatible with IR and always transfers.
        b.request(Mode::Upgrade, Ticket(2), &mut fx).unwrap();
        let m = sends(&mut fx);
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        assert!(matches!(m[0].1, Payload::Token { .. }));
        b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
        let out: Vec<_> = fx.drain().collect();
        // B became the token; A's stale copyset entry for B must be gone:
        // the transfer removed it on A's side (B was the requester), and
        // B sends no stray release.
        assert!(b.is_token());
        assert!(!a.children().contains_key(&NodeId(1)), "no phantom child at A");
        // A is now B's child iff A still owns something (it does not).
        assert!(!b.children().contains_key(&NodeId(0)));
        let _ = out;
    }

    /// Regression: transferring the token away must release the old
    /// token's children from freezes it issued (the freezing authority —
    /// the queue — travelled with the token).
    #[test]
    fn transfer_unfreezes_old_children() {
        let mut fx = sink();
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        // B holds IR and IW as A's child (A owns IW through B).
        // (IR first: a held IW would satisfy IR locally with no messages.)
        for (mode, t) in [(Mode::IntentRead, 3u64), (Mode::IntentWrite, 2)] {
            b.request(mode, Ticket(t), &mut fx).unwrap();
            let m = sends(&mut fx);
            a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
            let m = sends(&mut fx);
            b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
            fx.drain().count();
        }
        assert_eq!(a.owned(), Some(Mode::IntentWrite));
        // A remote U request queues at A (U vs IW conflict) and freezes
        // IW at B (the mode B could otherwise keep granting).
        a.on_message(
            NodeId(2),
            Payload::Request {
                origin: NodeId(2),
                mode: Mode::Upgrade,
                stamp: Stamp(5),
                priority: Priority::NORMAL,
                span: Ticket(1),
            },
            &mut fx,
        );
        let m = sends(&mut fx);
        let freezes: Vec<_> = m
            .iter()
            .filter(|(to, p)| *to == NodeId(1) && matches!(p, Payload::Freeze { .. }))
            .collect();
        assert_eq!(freezes.len(), 1, "B is a potential IW granter: {m:?}");
        b.on_message(NodeId(0), freezes[0].1.clone(), &mut fx);
        fx.drain().count();
        assert!(b.frozen().contains(Mode::IntentWrite));
        // B releases only IW (keeps IR): A's owned weakens to IR, which is
        // compatible with U — the token transfers to node 2 while B is
        // still A's child. B must be unfrozen by A in the same step.
        b.release(Ticket(2), &mut fx).unwrap();
        let m = sends(&mut fx);
        assert!(matches!(m[0].1, Payload::Release { new_owned: Some(Mode::IntentRead) }));
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        assert!(
            m.iter().any(|(to, p)| *to == NodeId(2) && matches!(p, Payload::Token { .. })),
            "U transfers: {m:?}"
        );
        let unfreeze: Vec<_> = m
            .iter()
            .filter(|(to, p)| *to == NodeId(1) && matches!(p, Payload::Update { .. }))
            .collect();
        assert_eq!(unfreeze.len(), 1, "B must be unfrozen on transfer: {m:?}");
        b.on_message(NodeId(0), unfreeze[0].1.clone(), &mut fx);
        assert!(b.frozen().is_empty());
    }

    /// Path compression: an inactive forwarder repoints to the origin.
    #[test]
    fn path_compression_repoints_inactive_forwarders() {
        let mut fx = sink();
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        b.on_message(
            NodeId(2),
            Payload::Request {
                origin: NodeId(2),
                mode: Mode::Write,
                stamp: Stamp(1),
                priority: Priority::NORMAL,
                span: Ticket(1),
            },
            &mut fx,
        );
        assert_eq!(b.parent(), Some(NodeId(2)));
        let m = sends(&mut fx);
        assert_eq!(m[0].0, NodeId(0), "forwarded along the old chain");
        // ... but an *active* node (here: one holding a lock) keeps its
        // parent, which it needs for release routing:
        let mut b2 = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        // Give b2 a held IR via a grant so it is active.
        b2.request(Mode::IntentRead, Ticket(5), &mut fx).unwrap();
        fx.drain().count();
        b2.on_message(
            NodeId(0),
            Payload::Grant { mode: Mode::IntentRead, frozen: ModeSet::EMPTY },
            &mut fx,
        );
        fx.drain().count();
        b2.on_message(
            NodeId(2),
            Payload::Request {
                origin: NodeId(2),
                mode: Mode::Write,
                stamp: Stamp(1),
                priority: Priority::NORMAL,
                span: Ticket(1),
            },
            &mut fx,
        );
        assert_eq!(b2.parent(), Some(NodeId(0)));
        // And with the flag off, even inactive nodes keep their parent.
        let mut b3 = LockNode::new(NodeId(1), L, NodeId(0), CFG.without_path_compression());
        b3.on_message(
            NodeId(2),
            Payload::Request {
                origin: NodeId(2),
                mode: Mode::Write,
                stamp: Stamp(1),
                priority: Priority::NORMAL,
                span: Ticket(1),
            },
            &mut fx,
        );
        assert_eq!(b3.parent(), Some(NodeId(0)));
    }

    /// With observing enabled, a remote request produces a causally
    /// consistent span: one `request_issued` at the origin, matching
    /// span ids on every hop, and a balanced open/close per
    /// [`crate::InvariantAuditor`].
    #[test]
    fn span_follows_remote_request_across_hops() {
        use crate::observe::{ProtocolEvent, SpanId};
        let mut fx = sink();
        fx.set_observing(true);
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        let mut events: Vec<ProtocolEvent> = Vec::new();

        b.request(Mode::Read, Ticket(7), &mut fx).unwrap();
        let m = sends(&mut fx);
        events.extend(fx.take_events());
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        events.extend(fx.take_events());
        b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
        assert_eq!(grants(&mut fx), vec![(Ticket(7), Mode::Read)]);
        events.extend(fx.take_events());

        let span = SpanId::new(NodeId(1), Ticket(7));
        assert!(events
            .iter()
            .any(|e| matches!(e, ProtocolEvent::RequestIssued { .. }) && e.span() == Some(span)));
        assert!(events
            .iter()
            .any(|e| matches!(e, ProtocolEvent::CopyGranted { .. }) && e.span() == Some(span)));
        assert!(events
            .iter()
            .any(|e| matches!(e, ProtocolEvent::Granted { .. }) && e.span() == Some(span)));
        // Every span-carrying event in the exchange belongs to this span.
        for e in &events {
            if let Some(s) = e.span() {
                assert_eq!(s, span, "stray span in {e:?}");
            }
        }
        let findings = crate::InvariantAuditor::audit_stream(&events);
        assert!(findings.is_empty(), "span opens and closes exactly once: {findings:?}");
    }

    /// A token transfer preserves the requester's span and carries local
    /// queue entries onward with their own spans intact.
    #[test]
    fn span_survives_token_transfer() {
        use crate::observe::{ProtocolEvent, SpanId};
        let mut fx = sink();
        fx.set_observing(true);
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        let mut events: Vec<ProtocolEvent> = Vec::new();

        // W can never be copy-granted: the token must travel to B.
        b.request(Mode::Write, Ticket(3), &mut fx).unwrap();
        let m = sends(&mut fx);
        events.extend(fx.take_events());
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        events.extend(fx.take_events());
        assert!(matches!(m[0].1, Payload::Token { .. }));
        b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
        assert_eq!(grants(&mut fx), vec![(Ticket(3), Mode::Write)]);
        events.extend(fx.take_events());

        let span = SpanId::new(NodeId(1), Ticket(3));
        assert!(events
            .iter()
            .any(|e| matches!(e, ProtocolEvent::TokenSent { .. }) && e.span() == Some(span)));
        assert!(events
            .iter()
            .any(|e| matches!(e, ProtocolEvent::TokenReceived { .. }) && e.span() == Some(span)));
        let findings = crate::InvariantAuditor::audit_stream(&events);
        assert!(findings.is_empty(), "span opens and closes exactly once: {findings:?}");
    }

    /// With observing off (the default), no events accumulate anywhere —
    /// the observability layer is pay-for-use.
    #[test]
    fn no_events_without_observing() {
        let mut fx = sink();
        let mut a = LockNode::new(NodeId(0), L, NodeId(0), CFG);
        let mut b = LockNode::new(NodeId(1), L, NodeId(0), CFG);
        b.request(Mode::Read, Ticket(7), &mut fx).unwrap();
        let m = sends(&mut fx);
        a.on_message(NodeId(1), m[0].1.clone(), &mut fx);
        let m = sends(&mut fx);
        b.on_message(NodeId(0), m[0].1.clone(), &mut fx);
        b.release(Ticket(7), &mut fx).unwrap();
        assert!(fx.events().is_empty());
    }
}
