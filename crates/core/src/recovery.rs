//! Crash recovery: epoch-stamped quorum elections that regenerate lost
//! tokens and rebuild copysets from surviving per-node state.
//!
//! The paper's protocol assumes fail-free nodes: if the token node for a
//! lock crashes, the token is gone and every waiter blocks forever. This
//! module wraps any lock space in a [`RecoverySpace`] that adds a
//! recovery protocol on top, without touching the inner state machines:
//!
//! 1. **Suspicion.** The host's failure detector (the simulator's
//!    liveness watchdog, the model checker's `Suspect` step, an operator
//!    signal on the TCP cluster) calls
//!    [`ConcurrencyProtocol::on_suspect`] on the live nodes with the set
//!    of suspected-dead peers.
//! 2. **Freeze + report.** Each suspicious node freezes its inner
//!    protocol (application messages are dropped, local API calls are
//!    deferred) and broadcasts a [`RecoveryBody::Report`] of its
//!    per-lock survivor state — token possession and strongest held
//!    mode — stamped with the *target* epoch (current + 1). Freezing is
//!    what makes reports trustworthy: a reported state cannot change
//!    between report and install.
//! 3. **Election.** The coordinator — the smallest live node id — waits
//!    for matching reports from **every** node in its live view, and
//!    requires that view to be a **majority** of the cluster. Dead-set
//!    disagreements merge monotonically: any report naming new suspects
//!    restarts the round with the union, so all survivors converge on
//!    one view. Restarting after a view change always moves to a target
//!    **strictly above** any this node has reported under: a node never
//!    reports two different views at the same target, so a coordinator
//!    can only complete an election whose entire majority view agreed on
//!    that exact (target, view) pair — two conflicting elections (e.g. a
//!    coordinator that installed and was then falsely suspected before
//!    its install propagated) can never install the same epoch, making
//!    installs totally ordered.
//! 4. **Install.** Per lock, the unique live reporter holding the token
//!    stays its home; if none survives the token is **regenerated** at
//!    the coordinator ([`crate::ProtocolEvent::TokenRegenerated`]). The
//!    logical tree flattens: every survivor with an owned mode becomes a
//!    direct child of the new home. The coordinator broadcasts the
//!    [`RecoveryBody::Install`], everyone rebuilds, re-issues its
//!    not-yet-granted requests under the same tickets, and replays the
//!    API calls deferred during the freeze.
//! 5. **Fencing.** All application traffic is stamped with the sender's
//!    epoch ([`RecoveryEnvelope`]); [`crate::HostRuntime::deliver`]
//!    drops anything older than the receiver's epoch. A fenced sender is
//!    *taught* the cached install so false-positive suspects (a node
//!    paused past the watchdog timeout, say) rejoin cleanly at the new
//!    epoch: their stale grants are voided and their outstanding
//!    requests re-issued, never two live tokens for one lock.
//!
//! **Liveness requires a majority.** A minority partition never
//! completes an election (step 3), so it can neither regenerate a token
//! nor serve requests that need one — the price of never regenerating a
//! token twice. **Safety caveat:** voiding is the model's lease expiry.
//! A falsely-suspected node that is *inside* a critical section when the
//! survivors recover around it keeps running that section until it
//! learns of the new epoch; real deployments must pair recovery with
//! resource-side fencing tokens (the install epoch is exactly that) as
//! documented in `docs/FAULT_TOLERANCE.md`.

use crate::config::ProtocolConfig;
use crate::effect::EffectSink;
use crate::error::ProtocolError;
use crate::ids::{LockId, NodeId, Priority, Ticket};
use crate::message::{Envelope, LockReport, RecoveryBody, RecoveryEnvelope};
use crate::mode::Mode;
use crate::observe::ProtocolEvent;
use crate::protocol::{CancelOutcome, ConcurrencyProtocol, Inspect};
use crate::shard::ShardedSpace;
use crate::space::LockSpace;
use std::collections::{BTreeMap, BTreeSet};

/// A lock space that can be frozen, reported and rebuilt by the
/// recovery layer. Implemented by [`LockSpace`] and (per shard) by
/// [`ShardedSpace`], so both the flat and the sharded runtimes recover
/// with the same election.
pub trait Recoverable: ConcurrencyProtocol<Message = Envelope> + Inspect {
    /// Number of locks managed (reports are indexed by dense lock id).
    fn lock_count(&self) -> usize;

    /// This node's survivor state for `lock`: token possession plus the
    /// strongest locally held mode.
    fn survivor_report(&self, lock: LockId) -> LockReport;

    /// Outstanding (not yet granted) work for `lock`: plain requests as
    /// `(ticket, mode, priority)` plus tickets with a pending Rule-7
    /// upgrade. Re-issued under the same tickets after a rebuild.
    fn outstanding(&self, lock: LockId) -> (Vec<(Ticket, Mode, Priority)>, Vec<Ticket>);

    /// Replaces all per-lock state with the install's flat rebuild:
    /// `homes[l]` is lock `l`'s token home, `copysets[l]` its surviving
    /// children. Local held entries survive iff `keep_held`.
    fn rebuild(&mut self, homes: &[NodeId], copysets: &[Vec<(NodeId, Mode)>], keep_held: bool);
}

impl Recoverable for LockSpace {
    fn lock_count(&self) -> usize {
        LockSpace::lock_count(self)
    }

    fn survivor_report(&self, lock: LockId) -> LockReport {
        self.lock_state(lock).survivor_report()
    }

    fn outstanding(&self, lock: LockId) -> (Vec<(Ticket, Mode, Priority)>, Vec<Ticket>) {
        self.lock_state(lock).outstanding_snapshot()
    }

    fn rebuild(&mut self, homes: &[NodeId], copysets: &[Vec<(NodeId, Mode)>], keep_held: bool) {
        self.rebuild_from_install(homes, copysets, keep_held);
    }
}

impl Recoverable for ShardedSpace {
    fn lock_count(&self) -> usize {
        ShardedSpace::lock_count(self)
    }

    fn survivor_report(&self, lock: LockId) -> LockReport {
        self.shard_for(lock).lock_state(lock).survivor_report()
    }

    fn outstanding(&self, lock: LockId) -> (Vec<(Ticket, Mode, Priority)>, Vec<Ticket>) {
        self.shard_for(lock).lock_state(lock).outstanding_snapshot()
    }

    fn rebuild(&mut self, homes: &[NodeId], copysets: &[Vec<(NodeId, Mode)>], keep_held: bool) {
        self.rebuild_from_install(homes, copysets, keep_held);
    }
}

/// Where this node stands in the recovery protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Normal operation: application traffic flows to the inner space.
    Idle,
    /// Frozen, electing `target`: application messages are dropped
    /// (their information is subsumed by the senders' frozen reports),
    /// API calls are deferred and replayed after the install.
    Recovering {
        /// The epoch being elected.
        target: u64,
    },
}

/// An API call accepted during a freeze, replayed in order after the
/// install. Replay errors are swallowed: the pre-freeze validation a
/// caller would have seen cannot be reconstructed post-rebuild.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum DeferredOp {
    Request { lock: LockId, mode: Mode, ticket: Ticket, priority: Priority },
    Release { lock: LockId, ticket: Ticket },
    Upgrade { lock: LockId, ticket: Ticket },
    Downgrade { lock: LockId, ticket: Ticket, new_mode: Mode },
    Cancel { lock: LockId, ticket: Ticket },
}

/// A crash-recovery wrapper around a [`Recoverable`] lock space.
///
/// Implements [`ConcurrencyProtocol`] over [`RecoveryEnvelope`]s: all
/// inner traffic is epoch-stamped, [`fence_epoch`] enables stale-message
/// fencing at dispatch, and [`on_suspect`] runs the election documented
/// at the module level. Hosts that never inject failures pay one enum
/// wrap per message and nothing else.
///
/// [`fence_epoch`]: ConcurrencyProtocol::fence_epoch
/// [`on_suspect`]: ConcurrencyProtocol::on_suspect
#[derive(Debug, Clone)]
pub struct RecoverySpace<P = LockSpace> {
    inner: P,
    /// All node ids in the cluster, sorted.
    cluster: Vec<NodeId>,
    /// Current epoch; also the fence: anything older is dropped.
    epoch: u64,
    phase: Phase,
    /// Peers this node currently believes dead.
    dead: BTreeSet<NodeId>,
    /// Survivor reports collected by the coordinator for the current
    /// target epoch (cleared whenever the dead view changes), keyed by
    /// reporter and carrying each reporter's base epoch — only the
    /// highest base contributes token/ownership state to the install.
    reports: BTreeMap<NodeId, (u64, Vec<LockReport>)>,
    /// API calls accepted while frozen, in order.
    deferred: Vec<DeferredOp>,
    /// Grants voided by an install that excluded this node: the caller
    /// still believes it holds them, so release/downgrade/cancel succeed
    /// silently and upgrade re-requests `W` from scratch.
    voided: BTreeSet<(LockId, Ticket)>,
    /// The newest install applied here, re-sent to teach stale peers.
    last_install: Option<RecoveryEnvelope>,
    /// App traffic this node cannot process yet — from an epoch ahead
    /// of ours (we are the straggler) or from the current epoch while
    /// frozen. Held instead of dropped: a dropped current-epoch request
    /// is never re-issued by anyone (the sender only re-issues when *it*
    /// applies a newer install), so dropping here loses it forever.
    /// Replayed — or answered with a teach if superseded — when the
    /// next install lands.
    future: Vec<(NodeId, u64, Envelope)>,
    /// Keepalive probing (see [`RecoverySpace::with_probe_interval`]):
    /// while requests are outstanding, an epoch-stamped probe goes to one
    /// cluster peer per interval. `None` disables probing.
    probe_interval_micros: Option<u64>,
    /// Whether a probe timer is currently pending at the host.
    probe_armed: bool,
    /// Round-robin cursor over cluster peers for probe targets.
    probe_cursor: usize,
    scratch: EffectSink<Envelope>,
}

/// The timer token [`RecoverySpace`] reserves for its keepalive probe
/// when probing is enabled. The wrapped protocol must not use it.
pub const PROBE_TIMER_TOKEN: u64 = u64::MAX;

impl RecoverySpace<LockSpace> {
    /// A recovery-wrapped [`LockSpace`]: `lock_count` locks at node
    /// `id`, all tokens initially at `token_home`, in a cluster of
    /// `nodes` nodes (`NodeId(0)..NodeId(nodes)`).
    pub fn new(
        id: NodeId,
        lock_count: usize,
        token_home: NodeId,
        nodes: u32,
        config: ProtocolConfig,
    ) -> Self {
        Self::wrap(LockSpace::new(id, lock_count, token_home, config), (0..nodes).map(NodeId))
    }

    /// Like [`RecoverySpace::new`] with one initial token home per lock.
    pub fn with_homes(id: NodeId, homes: &[NodeId], nodes: u32, config: ProtocolConfig) -> Self {
        Self::wrap(LockSpace::with_homes(id, homes, config), (0..nodes).map(NodeId))
    }
}

impl<P: Recoverable> RecoverySpace<P> {
    /// Wraps an existing space. `cluster` must contain the inner node's
    /// id and be identical (as a set) on every node.
    pub fn wrap(inner: P, cluster: impl IntoIterator<Item = NodeId>) -> Self {
        let mut cluster: Vec<NodeId> = cluster.into_iter().collect();
        cluster.sort_unstable();
        cluster.dedup();
        assert!(cluster.contains(&inner.node_id()), "cluster must include this node");
        RecoverySpace {
            inner,
            cluster,
            epoch: 0,
            phase: Phase::Idle,
            dead: BTreeSet::new(),
            reports: BTreeMap::new(),
            deferred: Vec::new(),
            voided: BTreeSet::new(),
            last_install: None,
            future: Vec::new(),
            probe_interval_micros: None,
            probe_armed: false,
            probe_cursor: 0,
            scratch: EffectSink::new(),
        }
    }

    /// Enables keepalive probing: while this node has requests
    /// outstanding, it sends one epoch-stamped probe per `micros` to a
    /// cluster peer (round-robin). A node that resumed from a false
    /// suspicion has no reason to speak otherwise — its probe is what
    /// gets fenced at a current-epoch peer, triggering the teach that
    /// pulls it into the new epoch and re-issues its requests. Probing
    /// reserves the timer token [`PROBE_TIMER_TOKEN`].
    #[must_use]
    pub fn with_probe_interval(mut self, micros: u64) -> Self {
        self.probe_interval_micros = Some(micros);
        self
    }

    /// The current recovery epoch (0 until the first install).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this node is frozen in an ongoing election.
    pub fn is_recovering(&self) -> bool {
        matches!(self.phase, Phase::Recovering { .. })
    }

    /// Peers this node currently believes dead.
    pub fn suspected(&self) -> Vec<NodeId> {
        self.dead.iter().copied().collect()
    }

    /// The wrapped space.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn me(&self) -> NodeId {
        self.inner.node_id()
    }

    /// Live view: the cluster minus the currently suspected dead.
    fn live(&self) -> Vec<NodeId> {
        self.cluster.iter().copied().filter(|n| !self.dead.contains(n)).collect()
    }

    /// The election coordinator under this node's live view: the
    /// smallest live id (cluster ids are sorted).
    fn coordinator(&self) -> NodeId {
        self.cluster
            .iter()
            .copied()
            .find(|n| !self.dead.contains(n))
            .expect("this node is never in its own dead set")
    }

    /// Runs `step` on the wrapped space and re-emits its output into
    /// `fx`, stamping every send with the current epoch.
    fn relay<R>(
        &mut self,
        fx: &mut EffectSink<RecoveryEnvelope>,
        step: impl FnOnce(&mut P, &mut EffectSink<Envelope>) -> R,
    ) -> R {
        let epoch = self.epoch;
        fx.relay(&mut self.inner, &mut self.scratch, step, |_, to, message, fx| {
            fx.send(to, RecoveryEnvelope { epoch, body: RecoveryBody::App(message) });
        })
    }

    /// Re-sends the cached install to a peer observed sending stale
    /// traffic, pulling it into the current epoch. Idempotent at the
    /// receiver (old installs are ignored), so teaching per stale
    /// message needs no rate limiting.
    fn teach(&mut self, peer: NodeId, fx: &mut EffectSink<RecoveryEnvelope>) {
        if let Some(install) = &self.last_install {
            fx.send(peer, install.clone());
        }
    }

    /// Whether anything is waiting on this node: deferred API calls or
    /// in-flight requests/upgrades of the inner space.
    fn has_outstanding(&self) -> bool {
        if !self.deferred.is_empty() {
            return true;
        }
        (0..self.inner.lock_count()).any(|l| {
            let (requests, upgrades) = self.inner.outstanding(LockId(l as u32));
            !requests.is_empty() || !upgrades.is_empty()
        })
    }

    /// Arms the keepalive probe timer if probing is enabled, no probe is
    /// pending, and something is outstanding to keep alive for.
    fn maybe_arm_probe(&mut self, fx: &mut EffectSink<RecoveryEnvelope>) {
        let Some(interval) = self.probe_interval_micros else { return };
        if self.probe_armed || !self.has_outstanding() {
            return;
        }
        self.probe_armed = true;
        fx.set_timer(PROBE_TIMER_TOKEN, interval);
    }

    /// Whether evidence of a suspected peer's life may heal the
    /// suspicion right now. Always when idle; while frozen, only if the
    /// live view has lost its cluster majority (a stalled minority
    /// election *needs* the heal to regain quorum). A majority election
    /// completes without the suspect, and the install's teach-back
    /// re-admits it at the new epoch — healing mid-election instead
    /// would let life/death evidence arriving in alternation flip the
    /// view (and bump the target) without bound.
    fn may_heal(&self) -> bool {
        match self.phase {
            Phase::Idle => true,
            Phase::Recovering { .. } => self.live().len() * 2 <= self.cluster.len(),
        }
    }

    /// Buffers app traffic that cannot be processed yet, keeping a
    /// canonical (sender, epoch) order — arrival order across senders
    /// carries no meaning (only per-link FIFO does, which the stable
    /// sort preserves), and a canonical form keeps the model checker's
    /// state space small.
    fn buffer_future(&mut self, from: NodeId, epoch: u64, envelope: Envelope) {
        self.future.push((from, epoch, envelope));
        self.future.sort_by_key(|&(f, e, _)| (f, e));
    }

    /// (Re)starts the election for `target`: freeze, clear collected
    /// reports, broadcast this node's survivor report to the live view.
    fn enter_election(&mut self, target: u64, fx: &mut EffectSink<RecoveryEnvelope>) {
        let me = self.me();
        if self.phase == Phase::Idle {
            let dead = self.dead.len();
            fx.emit_with(|| ProtocolEvent::RecoveryStarted { node: me, epoch: target, dead });
        }
        self.phase = Phase::Recovering { target };
        self.reports.clear();
        let state: Vec<LockReport> = (0..self.inner.lock_count())
            .map(|l| self.inner.survivor_report(LockId(l as u32)))
            .collect();
        let dead_vec: Vec<NodeId> = self.dead.iter().copied().collect();
        // A majority election involves only the live view. A minority-
        // stalled one cannot complete as-is — its only hope is that a
        // suspected peer is actually alive — so it solicits the whole
        // cluster: a report reaching a live "dead" peer prompts a reply
        // whose life evidence heals the suspicion (crashed peers simply
        // never answer).
        let live = self.live();
        let recipients: Vec<NodeId> =
            if live.len() * 2 <= self.cluster.len() { self.cluster.clone() } else { live };
        for peer in recipients {
            if peer != me {
                fx.send(
                    peer,
                    RecoveryEnvelope {
                        epoch: target,
                        body: RecoveryBody::Report {
                            dead: dead_vec.clone(),
                            base: self.epoch,
                            state: state.clone(),
                        },
                    },
                );
            }
        }
        if self.coordinator() == me {
            self.reports.insert(me, (self.epoch, state));
        }
    }

    /// Coordinator side: if every node in the live view has reported
    /// *and* the live view is a cluster majority, build and broadcast
    /// the install. Without a majority the election stalls — a minority
    /// partition must never regenerate a token the majority side may
    /// also regenerate.
    fn check_completion(&mut self, fx: &mut EffectSink<RecoveryEnvelope>) {
        let Phase::Recovering { target } = self.phase else { return };
        let me = self.me();
        if self.coordinator() != me {
            return;
        }
        let live = self.live();
        if live.len() * 2 <= self.cluster.len() {
            return;
        }
        if !live.iter().all(|n| self.reports.contains_key(n)) {
            return;
        }
        // Reports may come from nodes at different epochs (a falsely
        // suspected node recovered around at an older epoch can join a
        // later election). Only the newest base epoch's state is real:
        // every older base was superseded by an install its reporter
        // never saw, so fusing it in could resurrect a voided grant
        // alongside the newer epoch's regenerated token.
        let max_base = live.iter().map(|n| self.reports[n].0).max().unwrap_or(0);
        let current: Vec<NodeId> =
            live.iter().copied().filter(|n| self.reports[n].0 == max_base).collect();
        let lock_count = self.inner.lock_count();
        let mut homes = Vec::with_capacity(lock_count);
        let mut copysets: Vec<Vec<(NodeId, Mode)>> = Vec::with_capacity(lock_count);
        for l in 0..lock_count {
            let lock = LockId(l as u32);
            let holders: Vec<NodeId> =
                current.iter().copied().filter(|n| self.reports[n].1[l].holds_token).collect();
            let home = match holders[..] {
                [h] => h,
                [] => {
                    // The token went down with a crashed node: regenerate
                    // it here. Safe because every survivor is frozen and
                    // reported not holding it; stale in-flight copies are
                    // fenced by the epoch bump.
                    fx.emit_with(|| ProtocolEvent::TokenRegenerated {
                        node: me,
                        lock,
                        epoch: target,
                    });
                    me
                }
                _ => {
                    debug_assert!(false, "two live token holders for {lock}");
                    holders[0]
                }
            };
            homes.push(home);
            copysets.push(
                current
                    .iter()
                    .copied()
                    .filter(|&n| n != home)
                    .filter_map(|n| self.reports[&n].1[l].owned.map(|m| (n, m)))
                    .collect(),
            );
        }
        let install = RecoveryEnvelope {
            epoch: target,
            body: RecoveryBody::Install {
                live: live.clone(),
                base: max_base,
                homes: homes.clone(),
                copysets: copysets.clone(),
            },
        };
        for &peer in &live {
            if peer != me {
                fx.send(peer, install.clone());
            }
        }
        self.apply_install(target, max_base, live, homes, copysets, fx);
    }

    /// Rebuilds at `target` from the coordinator's install, re-issues
    /// outstanding requests under their original tickets, replays
    /// deferred API calls, and unfreezes.
    fn apply_install(
        &mut self,
        target: u64,
        base: u64,
        live: Vec<NodeId>,
        homes: Vec<NodeId>,
        copysets: Vec<Vec<(NodeId, Mode)>>,
        fx: &mut EffectSink<RecoveryEnvelope>,
    ) {
        debug_assert!(target > self.epoch);
        let me = self.me();
        // Our grants survive only if we are in the live view *and* our
        // state was part of the epoch the install was built from: an
        // older base means some install we never saw already superseded
        // (voided) us, even though we are live again now.
        let fresh = live.contains(&me) && self.epoch >= base;
        let lock_count = self.inner.lock_count();
        // Snapshot outstanding work before the rebuild wipes it.
        let outstanding: Vec<_> =
            (0..lock_count).map(|l| self.inner.outstanding(LockId(l as u32))).collect();
        if !fresh {
            // Recovered around (false-positive suspicion): our grants
            // were voided by the survivors. Remember the tickets so the
            // caller's eventual release/cancel succeeds silently.
            for l in 0..lock_count {
                let lock = LockId(l as u32);
                if let Some(node) = self.inner.lock_node(lock) {
                    for &(ticket, _) in node.held() {
                        self.voided.insert((lock, ticket));
                    }
                }
            }
        }
        self.inner.rebuild(&homes, &copysets, fresh);
        self.epoch = target;
        self.phase = Phase::Idle;
        self.dead =
            self.cluster.iter().copied().filter(|&n| !live.contains(&n) && n != me).collect();
        self.reports.clear();
        self.last_install = Some(RecoveryEnvelope {
            epoch: target,
            body: RecoveryBody::Install { live, base, homes, copysets },
        });
        // Re-issue everything not yet granted, under the original
        // tickets so waiting callers are served transparently. Pending
        // upgrades still hold `U` at live nodes (kept by the rebuild);
        // at a voided node the `U` is gone, so the upgrade becomes a
        // plain `W` request.
        for (l, (requests, upgrades)) in outstanding.into_iter().enumerate() {
            let lock = LockId(l as u32);
            if !fresh {
                for &ticket in &upgrades {
                    self.voided.remove(&(lock, ticket));
                }
            }
            self.relay(fx, |p, fx| {
                for (ticket, mode, priority) in requests {
                    let _ = p.request_with_priority(lock, mode, ticket, priority, fx);
                }
                for ticket in upgrades {
                    let _ = if fresh {
                        p.upgrade(lock, ticket, fx)
                    } else {
                        p.request(lock, Mode::Write, ticket, fx)
                    };
                }
            });
        }
        // Replay API calls accepted during the freeze, in order.
        for op in std::mem::take(&mut self.deferred) {
            match op {
                DeferredOp::Request { lock, mode, ticket, priority } => {
                    let _ = self.request_with_priority(lock, mode, ticket, priority, fx);
                }
                DeferredOp::Release { lock, ticket } => {
                    let _ = self.release(lock, ticket, fx);
                }
                DeferredOp::Upgrade { lock, ticket } => {
                    let _ = self.upgrade(lock, ticket, fx);
                }
                DeferredOp::Downgrade { lock, ticket, new_mode } => {
                    let _ = self.downgrade(lock, ticket, new_mode, fx);
                }
                DeferredOp::Cancel { lock, ticket } => {
                    let _ = self.cancel(lock, ticket, fx);
                }
            }
        }
        // Replay app traffic held while this node was behind or frozen.
        // Messages from the epoch just installed feed the rebuilt state;
        // superseded ones instead teach their (now stale) sender so it
        // rejoins and re-issues; anything still ahead stays buffered.
        for (from, e, envelope) in std::mem::take(&mut self.future) {
            use std::cmp::Ordering;
            match e.cmp(&self.epoch) {
                Ordering::Less => self.teach(from, fx),
                Ordering::Greater => self.future.push((from, e, envelope)),
                Ordering::Equal => {
                    self.dead.remove(&from);
                    self.relay(fx, |p, fx| p.on_message(from, envelope, fx));
                }
            }
        }
        self.maybe_arm_probe(fx);
        fx.emit_with(|| ProtocolEvent::RecoveryCompleted { node: me, epoch: target });
    }

    fn handle_app(
        &mut self,
        from: NodeId,
        epoch: u64,
        envelope: Envelope,
        fx: &mut EffectSink<RecoveryEnvelope>,
    ) {
        use std::cmp::Ordering;
        match epoch.cmp(&self.epoch) {
            Ordering::Less => {
                // Hosts routing through `HostRuntime::deliver` fence
                // stale traffic before it gets here; handle direct
                // delivery identically.
                self.teach(from, fx);
            }
            Ordering::Greater => {
                // We are the straggler: hold the message (the sender
                // will not re-issue it until *it* applies a newer
                // install, so dropping would lose it) and surface our
                // stale epoch so the sender fences it and teaches us
                // the current install, which replays the buffer.
                self.buffer_future(from, epoch, envelope);
                fx.send(from, RecoveryEnvelope { epoch: self.epoch, body: RecoveryBody::Nack });
            }
            Ordering::Equal => {
                if let Phase::Recovering { target } = self.phase {
                    // Frozen: hold the message until the install lands
                    // (mutating now would break the freeze invariant
                    // behind our survivor report; dropping could lose a
                    // request from an already-installed peer outside
                    // this election). It is also proof of life: heal
                    // any suspicion of the sender, and if that revives
                    // a stalled minority election, restart it at a
                    // fresh target so the regained majority completes.
                    self.buffer_future(from, epoch, envelope);
                    if self.may_heal() && self.dead.remove(&from) {
                        self.enter_election(target + 1, fx);
                        self.check_completion(fx);
                    }
                    return;
                }
                // Current-epoch traffic from a suspected peer proves the
                // suspicion false: heal it so future elections count it.
                self.dead.remove(&from);
                self.relay(fx, |p, fx| p.on_message(from, envelope, fx));
            }
        }
    }

    fn handle_report(
        &mut self,
        from: NodeId,
        target: u64,
        dead: Vec<NodeId>,
        base: u64,
        state: Vec<LockReport>,
        fx: &mut EffectSink<RecoveryEnvelope>,
    ) {
        if target <= self.epoch {
            // The sender is frozen in an election this node already
            // completed (it was excluded from that install's live set,
            // say): teach it the install so it rejoins instead of
            // resending stale reports forever, mirroring the stale-App
            // and stale-Nack paths.
            self.teach(from, fx);
            // The report is also proof the sender is alive: heal any
            // suspicion of it, and if that revives a stalled minority
            // election, restart at a fresh target so the regained
            // majority can complete it.
            if self.may_heal() && self.dead.remove(&from) {
                if let Phase::Recovering { target: t } = self.phase {
                    self.enter_election(t + 1, fx);
                    self.check_completion(fx);
                }
            }
            return;
        }
        if state.len() != self.inner.lock_count() {
            return;
        }
        let me = self.me();
        // A report is evidence of both life (the sender) and death (its
        // suspects). Deaths merge monotonically; life heals only when
        // [`Self::may_heal`] allows, so a majority election's view can
        // only grow and its target stays bounded.
        let mut changed = self.may_heal() && self.dead.remove(&from);
        for d in &dead {
            if *d != me && *d != from && self.cluster.contains(d) {
                changed |= self.dead.insert(*d);
            }
        }
        let view_changed = changed;
        let my_target = match self.phase {
            Phase::Idle => {
                changed = true;
                target.max(self.epoch + 1)
            }
            Phase::Recovering { target: t } => {
                if target > t {
                    changed = true;
                }
                // A view change at an unchanged target must move to a
                // fresh epoch: this node already reported the old view
                // under `t`, and a coordinator elsewhere may complete
                // (or have completed) `t` with it — reporting a second
                // view at `t` could let two conflicting elections
                // install the same epoch.
                let adopted = target.max(t);
                if view_changed && adopted == t {
                    adopted + 1
                } else {
                    adopted
                }
            }
        };
        if changed {
            self.enter_election(my_target, fx);
        }
        // Collect only reports that exactly match this node's view:
        // mismatched reporters re-broadcast once our own report (sent
        // just above, on change) updates their view.
        let matches_view = target == my_target
            && dead.len() == self.dead.len()
            && dead.iter().all(|d| self.dead.contains(d));
        if self.coordinator() == me && matches_view {
            self.reports.insert(from, (base, state));
        }
        self.check_completion(fx);
    }

    // One parameter per field of `RecoveryBody::Install`, destructured at
    // the single call site; a struct would only re-spell the variant.
    #[allow(clippy::too_many_arguments)]
    fn handle_install(
        &mut self,
        from: NodeId,
        target: u64,
        live: Vec<NodeId>,
        base: u64,
        homes: Vec<NodeId>,
        copysets: Vec<Vec<(NodeId, Mode)>>,
        fx: &mut EffectSink<RecoveryEnvelope>,
    ) {
        if target < self.epoch {
            // Superseded: the sender is a straggler (e.g. a coordinator
            // whose install the cluster moved past) — teach it the
            // newer install. Strictly-older only: installs are unique
            // per epoch, so `target == epoch` is a duplicate of our own
            // install and teaching back would ping-pong forever.
            self.teach(from, fx);
            return;
        }
        if target == self.epoch {
            return; // duplicate of the install already applied here
        }
        if homes.len() != self.inner.lock_count() || copysets.len() != self.inner.lock_count() {
            return;
        }
        if let Phase::Recovering { target: t } = self.phase {
            if target < t {
                // Superseded by the election in progress: applying it
                // would unfreeze (and mutate) state this node already
                // reported under `t`, breaking the freeze invariant the
                // coordinator of `t` relies on. The install is evidence
                // its coordinator is alive, though — if this election
                // has stalled in a minority, heal the suspicion and
                // restart at a fresh target so the converged election
                // counts it.
                if self.may_heal() && self.dead.remove(&from) {
                    self.enter_election(t + 1, fx);
                    self.check_completion(fx);
                }
                return;
            }
        }
        self.apply_install(target, base, live, homes, copysets, fx);
    }
}

impl<P: Recoverable> ConcurrencyProtocol for RecoverySpace<P> {
    type Message = RecoveryEnvelope;

    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn request(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<RecoveryEnvelope>,
    ) -> Result<(), ProtocolError> {
        self.request_with_priority(lock, mode, ticket, Priority::NORMAL, fx)
    }

    fn request_with_priority(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        priority: Priority,
        fx: &mut EffectSink<RecoveryEnvelope>,
    ) -> Result<(), ProtocolError> {
        if lock.index() >= self.inner.lock_count() {
            return Err(ProtocolError::UnknownLock { lock });
        }
        if self.is_recovering() {
            self.deferred.push(DeferredOp::Request { lock, mode, ticket, priority });
            return Ok(());
        }
        let result =
            self.relay(fx, |p, fx| p.request_with_priority(lock, mode, ticket, priority, fx));
        self.maybe_arm_probe(fx);
        result
    }

    fn release(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<RecoveryEnvelope>,
    ) -> Result<(), ProtocolError> {
        if self.voided.remove(&(lock, ticket)) {
            return Ok(()); // the grant was voided by recovery; nothing to release
        }
        if self.is_recovering() {
            self.deferred.push(DeferredOp::Release { lock, ticket });
            return Ok(());
        }
        self.relay(fx, |p, fx| p.release(lock, ticket, fx))
    }

    fn upgrade(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<RecoveryEnvelope>,
    ) -> Result<(), ProtocolError> {
        if self.voided.remove(&(lock, ticket)) {
            // The held `U` is gone; acquire `W` from scratch so the
            // caller's pending upgrade still completes with a grant.
            return self.request(lock, Mode::Write, ticket, fx);
        }
        if self.is_recovering() {
            self.deferred.push(DeferredOp::Upgrade { lock, ticket });
            return Ok(());
        }
        let result = self.relay(fx, |p, fx| p.upgrade(lock, ticket, fx));
        self.maybe_arm_probe(fx);
        result
    }

    fn try_request(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<RecoveryEnvelope>,
    ) -> Result<bool, ProtocolError> {
        if lock.index() >= self.inner.lock_count() {
            return Err(ProtocolError::UnknownLock { lock });
        }
        if self.is_recovering() {
            return Ok(false); // frozen nodes cannot grant locally right now
        }
        self.relay(fx, |p, fx| p.try_request(lock, mode, ticket, fx))
    }

    fn downgrade(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        new_mode: Mode,
        fx: &mut EffectSink<RecoveryEnvelope>,
    ) -> Result<(), ProtocolError> {
        if self.voided.contains(&(lock, ticket)) {
            return Ok(()); // voided grants weaken to nothing for free
        }
        if self.is_recovering() {
            self.deferred.push(DeferredOp::Downgrade { lock, ticket, new_mode });
            return Ok(());
        }
        self.relay(fx, |p, fx| p.downgrade(lock, ticket, new_mode, fx))
    }

    fn cancel(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<RecoveryEnvelope>,
    ) -> Result<CancelOutcome, ProtocolError> {
        if self.is_recovering() {
            // Cancelling an op still sitting in the deferred buffer
            // never reached the protocol: unwind it locally.
            if let Some(pos) = self.deferred.iter().position(
                |op| matches!(op, DeferredOp::Request { lock: l, ticket: t, .. } if *l == lock && *t == ticket),
            ) {
                self.deferred.remove(pos);
                return Ok(CancelOutcome::Cancelled);
            }
            self.deferred.push(DeferredOp::Cancel { lock, ticket });
            return Ok(CancelOutcome::WillAbort);
        }
        if self.voided.remove(&(lock, ticket)) {
            return Ok(CancelOutcome::Cancelled);
        }
        self.relay(fx, |p, fx| p.cancel(lock, ticket, fx))
    }

    fn on_message(
        &mut self,
        from: NodeId,
        message: RecoveryEnvelope,
        fx: &mut EffectSink<RecoveryEnvelope>,
    ) {
        let RecoveryEnvelope { epoch, body } = message;
        match body {
            RecoveryBody::App(envelope) => self.handle_app(from, epoch, envelope, fx),
            RecoveryBody::Report { dead, base, state } => {
                self.handle_report(from, epoch, dead, base, state, fx)
            }
            RecoveryBody::Install { live, base, homes, copysets } => {
                self.handle_install(from, epoch, live, base, homes, copysets, fx)
            }
            // A Nack doubles as straggler signal and keepalive probe.
            // Stale ones are converted to `on_stale_message` → teach by
            // fencing hosts; handle direct delivery identically. A Nack
            // from a *newer* epoch means this node is the straggler:
            // answer with our own epoch so the sender fences it and
            // teaches us. Same-epoch Nacks are pure keepalive.
            RecoveryBody::Nack => {
                use std::cmp::Ordering;
                match epoch.cmp(&self.epoch) {
                    Ordering::Less => self.teach(from, fx),
                    Ordering::Greater => fx.send(
                        from,
                        RecoveryEnvelope { epoch: self.epoch, body: RecoveryBody::Nack },
                    ),
                    Ordering::Equal => {}
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, fx: &mut EffectSink<RecoveryEnvelope>) {
        if token == PROBE_TIMER_TOKEN && self.probe_interval_micros.is_some() {
            self.probe_armed = false;
            if self.is_recovering() || !self.has_outstanding() {
                return; // an install or completion re-arms when needed
            }
            let me = self.me();
            let peers: Vec<NodeId> = self.cluster.iter().copied().filter(|&n| n != me).collect();
            if !peers.is_empty() {
                let target = peers[self.probe_cursor % peers.len()];
                self.probe_cursor = self.probe_cursor.wrapping_add(1);
                fx.send(target, RecoveryEnvelope { epoch: self.epoch, body: RecoveryBody::Nack });
            }
            self.maybe_arm_probe(fx);
            return;
        }
        if self.is_recovering() {
            return;
        }
        self.relay(fx, |p, fx| p.on_timer(token, fx));
    }

    fn on_link_reset(&mut self, peer: NodeId, fx: &mut EffectSink<RecoveryEnvelope>) {
        self.relay(fx, |p, fx| p.on_link_reset(peer, fx));
    }

    fn is_quiescent(&self) -> bool {
        self.phase == Phase::Idle
            && self.deferred.is_empty()
            && self.future.is_empty()
            && self.inner.is_quiescent()
    }

    fn fence_epoch(&self) -> Option<u64> {
        Some(self.epoch)
    }

    fn on_suspect(&mut self, dead: &[NodeId], fx: &mut EffectSink<RecoveryEnvelope>) -> bool {
        let me = self.me();
        let mut changed = false;
        for &d in dead {
            if d != me && self.cluster.contains(&d) {
                changed |= self.dead.insert(d);
            }
        }
        if changed {
            let target = match self.phase {
                // A new suspect mid-election: the current target may
                // already have been installed under the old view — e.g.
                // by a coordinator that completed and was then falsely
                // suspected before its install reached us. Re-electing
                // the same target under the shrunk view could install
                // that epoch a second time with conflicting token
                // assignments, so restart strictly above it.
                Phase::Recovering { target } => target + 1,
                Phase::Idle => self.epoch + 1,
            };
            self.enter_election(target, fx);
            self.check_completion(fx);
        }
        true
    }

    fn on_stale_message(
        &mut self,
        from: NodeId,
        _epoch: u64,
        fx: &mut EffectSink<RecoveryEnvelope>,
    ) {
        self.teach(from, fx);
    }
}

impl<P: Recoverable> Inspect for RecoverySpace<P> {
    fn held_modes(&self, lock: LockId) -> Vec<Mode> {
        self.inner.held_modes(lock)
    }

    fn holds_token(&self, lock: LockId) -> bool {
        self.inner.holds_token(lock)
    }

    fn lock_node(&self, lock: LockId) -> Option<&crate::LockNode> {
        self.inner.lock_node(lock)
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn suspects(&self, peer: NodeId) -> bool {
        self.dead.contains(&peer)
    }

    fn frozen(&self) -> bool {
        self.is_recovering()
    }

    fn open_requests(&self) -> Vec<(LockId, Ticket)> {
        self.inner.open_requests()
    }
}

/// Equality and hashing over recovery-relevant state (the scratch sink,
/// empty between steps, is excluded); used by the model checker's state
/// fingerprints.
impl<P: Recoverable + PartialEq> PartialEq for RecoverySpace<P> {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner
            && self.cluster == other.cluster
            && self.epoch == other.epoch
            && self.phase == other.phase
            && self.dead == other.dead
            && self.reports == other.reports
            && self.deferred == other.deferred
            && self.voided == other.voided
            && self.last_install == other.last_install
            && self.future == other.future
            && self.probe_armed == other.probe_armed
            && self.probe_cursor == other.probe_cursor
    }
}

impl<P: Recoverable + Eq> Eq for RecoverySpace<P> {}

impl<P: Recoverable + std::hash::Hash> std::hash::Hash for RecoverySpace<P> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.inner.hash(state);
        self.epoch.hash(state);
        self.phase.hash(state);
        self.dead.hash(state);
        self.reports.hash(state);
        self.deferred.hash(state);
        self.voided.hash(state);
        self.last_install.hash(state);
        self.future.hash(state);
        self.probe_armed.hash(state);
        self.probe_cursor.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::Effect;
    use crate::runtime::HostRuntime;
    use std::collections::VecDeque;

    type Net = VecDeque<(NodeId, NodeId, RecoveryEnvelope)>;

    fn cluster(nodes: u32, locks: usize) -> Vec<RecoverySpace> {
        let cfg = ProtocolConfig::default();
        (0..nodes).map(|i| RecoverySpace::new(NodeId(i), locks, NodeId(0), nodes, cfg)).collect()
    }

    fn drain_into(
        from: NodeId,
        fx: &mut EffectSink<RecoveryEnvelope>,
        net: &mut Net,
        granted: &mut Vec<(NodeId, LockId, Ticket)>,
    ) {
        for effect in fx.drain() {
            match effect {
                Effect::Send { to, message } => net.push_back((from, to, message)),
                Effect::Granted { lock, ticket, .. } => granted.push((from, lock, ticket)),
                Effect::SetTimer { .. } => {}
            }
        }
    }

    /// Delivers everything in flight (dropping traffic to `crashed`)
    /// through the fencing dispatch path, until the network is quiet.
    fn pump(
        spaces: &mut [RecoverySpace],
        runtimes: &mut [HostRuntime<RecoveryEnvelope>],
        crashed: &[NodeId],
        net: &mut Net,
        granted: &mut Vec<(NodeId, LockId, Ticket)>,
    ) {
        let mut hops = 0;
        while let Some((from, to, message)) = net.pop_front() {
            hops += 1;
            assert!(hops < 10_000, "recovery message storm");
            if crashed.contains(&to) {
                continue;
            }
            let mut fx = EffectSink::new();
            runtimes[to.index()].deliver(&mut spaces[to.index()], from, vec![message], &mut fx);
            drain_into(to, &mut fx, net, granted);
        }
    }

    /// Like [`pump`], but only delivers frames `deliver` approves; the
    /// rest stay queued (in order) for a later pump.
    fn pump_filtered(
        spaces: &mut [RecoverySpace],
        runtimes: &mut [HostRuntime<RecoveryEnvelope>],
        crashed: &[NodeId],
        net: &mut Net,
        granted: &mut Vec<(NodeId, LockId, Ticket)>,
        deliver: impl Fn(NodeId, NodeId) -> bool,
    ) {
        let mut held = Net::new();
        let mut hops = 0;
        while let Some((from, to, message)) = net.pop_front() {
            hops += 1;
            assert!(hops < 10_000, "recovery message storm");
            if crashed.contains(&to) {
                continue;
            }
            if !deliver(from, to) {
                held.push_back((from, to, message));
                continue;
            }
            let mut fx = EffectSink::new();
            runtimes[to.index()].deliver(&mut spaces[to.index()], from, vec![message], &mut fx);
            drain_into(to, &mut fx, net, granted);
        }
        *net = held;
    }

    fn suspect(
        spaces: &mut [RecoverySpace],
        node: NodeId,
        dead: &[NodeId],
        net: &mut Net,
        granted: &mut Vec<(NodeId, LockId, Ticket)>,
    ) {
        let mut fx = EffectSink::new();
        assert!(spaces[node.index()].on_suspect(dead, &mut fx));
        drain_into(node, &mut fx, net, granted);
    }

    #[test]
    fn crashed_token_home_is_regenerated_at_coordinator() {
        let mut spaces = cluster(3, 2);
        let mut rts: Vec<_> = (0..3).map(|_| HostRuntime::new()).collect();
        let mut net = Net::new();
        let mut granted = Vec::new();
        // Node 1 acquires R on lock 0 (a copy grant from home 0).
        let mut fx = EffectSink::new();
        spaces[1].request(LockId(0), Mode::Read, Ticket(1), &mut fx).unwrap();
        drain_into(NodeId(1), &mut fx, &mut net, &mut granted);
        pump(&mut spaces, &mut rts, &[], &mut net, &mut granted);
        assert_eq!(granted, vec![(NodeId(1), LockId(0), Ticket(1))]);
        // Node 0 crashes; survivors are told.
        let crashed = [NodeId(0)];
        suspect(&mut spaces, NodeId(1), &crashed, &mut net, &mut granted);
        suspect(&mut spaces, NodeId(2), &crashed, &mut net, &mut granted);
        pump(&mut spaces, &mut rts, &crashed, &mut net, &mut granted);
        // Coordinator (node 1) regenerated both tokens; epoch bumped.
        for s in &spaces[1..] {
            assert_eq!(s.epoch(), 1);
            assert!(!s.is_recovering());
        }
        assert!(spaces[1].holds_token(LockId(0)));
        assert!(spaces[1].holds_token(LockId(1)));
        assert!(!spaces[2].holds_token(LockId(0)));
        // The surviving R grant is intact at the new home.
        assert_eq!(spaces[1].held_modes(LockId(0)), vec![Mode::Read]);
        // Post-recovery traffic flows: node 2 acquires W on lock 1.
        granted.clear();
        let mut fx = EffectSink::new();
        spaces[2].request(LockId(1), Mode::Write, Ticket(5), &mut fx).unwrap();
        drain_into(NodeId(2), &mut fx, &mut net, &mut granted);
        pump(&mut spaces, &mut rts, &crashed, &mut net, &mut granted);
        assert_eq!(granted, vec![(NodeId(2), LockId(1), Ticket(5))]);
    }

    #[test]
    fn in_flight_request_is_reissued_and_granted_after_recovery() {
        let mut spaces = cluster(3, 1);
        let mut rts: Vec<_> = (0..3).map(|_| HostRuntime::new()).collect();
        let mut net = Net::new();
        let mut granted = Vec::new();
        // Node 2's request is in flight toward home 0 when 0 crashes:
        // the message dies with it.
        let mut fx = EffectSink::new();
        spaces[2].request(LockId(0), Mode::Write, Ticket(9), &mut fx).unwrap();
        drain_into(NodeId(2), &mut fx, &mut net, &mut granted);
        net.clear(); // the crash eats the in-flight request
        let crashed = [NodeId(0)];
        suspect(&mut spaces, NodeId(1), &crashed, &mut net, &mut granted);
        suspect(&mut spaces, NodeId(2), &crashed, &mut net, &mut granted);
        pump(&mut spaces, &mut rts, &crashed, &mut net, &mut granted);
        // The rebuild re-issued ticket 9 to the regenerated home, which
        // granted it — the waiter never noticed the crash.
        assert_eq!(granted, vec![(NodeId(2), LockId(0), Ticket(9))]);
        assert!(spaces[1].is_quiescent() && spaces[2].is_quiescent());
    }

    #[test]
    fn falsely_suspected_node_is_fenced_taught_and_rejoins() {
        let mut spaces = cluster(3, 1);
        let mut rts: Vec<_> = (0..3).map(|_| HostRuntime::new()).collect();
        let mut net = Net::new();
        let mut granted = Vec::new();
        // Node 1 holds an R copy (child of home 0) when it is *wrongly*
        // suspected — e.g. paused past the watchdog timeout.
        let mut fx = EffectSink::new();
        spaces[1].request(LockId(0), Mode::Read, Ticket(1), &mut fx).unwrap();
        drain_into(NodeId(1), &mut fx, &mut net, &mut granted);
        pump(&mut spaces, &mut rts, &[], &mut net, &mut granted);
        assert_eq!(granted, vec![(NodeId(1), LockId(0), Ticket(1))]);
        granted.clear();
        let suspects = [NodeId(1)];
        suspect(&mut spaces, NodeId(0), &suspects, &mut net, &mut granted);
        suspect(&mut spaces, NodeId(2), &suspects, &mut net, &mut granted);
        // Recovery proceeds without node 1 (messages to it are NOT
        // delivered while "paused").
        pump(&mut spaces, &mut rts, &suspects, &mut net, &mut granted);
        assert_eq!(spaces[0].epoch(), 1);
        assert!(spaces[0].holds_token(LockId(0)), "surviving token home stays home");
        assert!(spaces[0].lock_node(LockId(0)).unwrap().children().is_empty(), "copyset pruned");
        // Node 1 resumes at epoch 0 and releases its (now voided) grant:
        // the Release travels at epoch 0, is fenced at node 0, and
        // node 0 teaches node 1 the install.
        let mut fx = EffectSink::new();
        spaces[1].release(LockId(0), Ticket(1), &mut fx).unwrap();
        drain_into(NodeId(1), &mut fx, &mut net, &mut granted);
        pump(&mut spaces, &mut rts, &[], &mut net, &mut granted);
        assert!(rts[0].counters().fenced >= 1, "stale release must be fenced");
        assert_eq!(spaces[1].epoch(), 1, "straggler pulled into the new epoch");
        assert!(spaces[1].held_modes(LockId(0)).is_empty());
        // The rejoiner is a full participant at the new epoch.
        granted.clear();
        let mut fx = EffectSink::new();
        spaces[1].request(LockId(0), Mode::Write, Ticket(2), &mut fx).unwrap();
        drain_into(NodeId(1), &mut fx, &mut net, &mut granted);
        pump(&mut spaces, &mut rts, &[], &mut net, &mut granted);
        assert_eq!(granted, vec![(NodeId(1), LockId(0), Ticket(2))]);
    }

    #[test]
    fn staggered_suspicion_converges_on_merged_dead_set() {
        let mut spaces = cluster(5, 1);
        let mut rts: Vec<_> = (0..5).map(|_| HostRuntime::new()).collect();
        let mut net = Net::new();
        let mut granted = Vec::new();
        let crashed = [NodeId(0), NodeId(4)];
        // Node 1 only knows about node 0; nodes 2 and 3 know both.
        suspect(&mut spaces, NodeId(1), &[NodeId(0)], &mut net, &mut granted);
        suspect(&mut spaces, NodeId(2), &crashed, &mut net, &mut granted);
        suspect(&mut spaces, NodeId(3), &crashed, &mut net, &mut granted);
        pump(&mut spaces, &mut rts, &crashed, &mut net, &mut granted);
        // Reports merged the views; the install excludes both dead. The
        // mid-election view merge restarts at a fresh target (installs
        // are totally ordered), so the final epoch may exceed 1 — what
        // matters is that every survivor converged on the same one.
        let epoch = spaces[1].epoch();
        assert!(epoch >= 1);
        for (i, space) in spaces.iter().enumerate().take(4).skip(1) {
            assert_eq!(space.epoch(), epoch, "node {i}");
            assert!(!space.is_recovering(), "node {i}");
            assert_eq!(space.suspected(), vec![NodeId(0), NodeId(4)], "node {i}");
        }
        // Exactly one live token.
        let tokens = (1..=3).filter(|&i| spaces[i].holds_token(LockId(0))).count();
        assert_eq!(tokens, 1);
    }

    #[test]
    fn reelection_around_installed_coordinator_uses_fresh_epoch() {
        // Regression for the same-epoch double install: coordinator n1
        // completes the install for epoch 1 (n0 crashed) and is then
        // falsely suspected — e.g. across a severed link — before that
        // install reaches n2..n4. The survivors {2,3,4} (a majority of
        // 5) re-elect around it; their install must land on a FRESH
        // epoch, never epoch 1 again, or n1 and the new coordinator
        // would both hold a live token at the same unfenced epoch.
        let mut spaces = cluster(5, 1);
        let mut rts: Vec<_> = (0..5).map(|_| HostRuntime::new()).collect();
        let mut net = Net::new();
        let mut granted = Vec::new();
        let crashed = [NodeId(0)];
        for i in 1..5 {
            suspect(&mut spaces, NodeId(i), &crashed, &mut net, &mut granted);
        }
        // Deliver only traffic TO the coordinator: n1 collects every
        // report and installs epoch 1 locally; the install frames to
        // n2..n4 stay in flight.
        pump_filtered(&mut spaces, &mut rts, &crashed, &mut net, &mut granted, |_, to| {
            to == NodeId(1)
        });
        assert_eq!(spaces[1].epoch(), 1, "coordinator installed epoch 1");
        assert!(spaces[1].holds_token(LockId(0)), "token regenerated at n1");
        assert!(spaces[2].is_recovering(), "survivors have not seen the install");
        // n2's detector falsely names n1 dead; the suspicion spreads to
        // n3/n4 through report merging. Nothing flows to or from n1 (the
        // severed link), so it cannot teach them out of the re-election.
        suspect(&mut spaces, NodeId(2), &[NodeId(0), NodeId(1)], &mut net, &mut granted);
        pump_filtered(&mut spaces, &mut rts, &crashed, &mut net, &mut granted, |from, to| {
            from != NodeId(1) && to != NodeId(1)
        });
        let reelected = spaces[2].epoch();
        assert!(!spaces[2].is_recovering() && !spaces[3].is_recovering());
        assert!(reelected > 1, "conflicting election must install a fresh epoch, got {reelected}");
        // Both tokens exist transiently, but at different epochs — n1's
        // is fenced on any contact, so never two live at one epoch.
        assert!(spaces[1].holds_token(LockId(0)));
        let holders: Vec<usize> = (2..5).filter(|&i| spaces[i].holds_token(LockId(0))).collect();
        assert_eq!(holders, vec![2], "new coordinator holds the regenerated token");
        // Release everything held back (including the stale epoch-1
        // installs): n1 is taught, voids its token, and exactly one
        // live token remains cluster-wide.
        pump(&mut spaces, &mut rts, &crashed, &mut net, &mut granted);
        assert_eq!(spaces[1].epoch(), reelected, "n1 rejoined at the superseding epoch");
        let tokens = (1..5).filter(|&i| spaces[i].holds_token(LockId(0))).count();
        assert_eq!(tokens, 1, "exactly one live token once epochs converge");
    }

    #[test]
    fn straggler_report_is_taught_not_dropped() {
        // Regression: a node frozen in an election the cluster already
        // completed (it was excluded from that install's live set)
        // keeps resending Reports at the installed epoch. Receivers
        // must answer with the cached install instead of silently
        // dropping them, or the straggler stays frozen forever.
        let mut spaces = cluster(5, 1);
        let mut rts: Vec<_> = (0..5).map(|_| HostRuntime::new()).collect();
        let mut net = Net::new();
        let mut granted = Vec::new();
        let crashed = [NodeId(0)];
        // n4's detector saw only the real crash; its reports are delayed.
        suspect(&mut spaces, NodeId(4), &[NodeId(0)], &mut net, &mut granted);
        let mut delayed = std::mem::take(&mut net);
        // n1..n3 — a majority — falsely suspect n4 as well and complete
        // the install without it.
        for i in 1..4 {
            suspect(&mut spaces, NodeId(i), &[NodeId(0), NodeId(4)], &mut net, &mut granted);
        }
        pump(&mut spaces, &mut rts, &crashed, &mut net, &mut granted);
        assert_eq!(spaces[1].epoch(), 1);
        assert!(spaces[4].is_recovering(), "the straggler is still frozen in its election");
        // The delayed reports arrive at nodes already at epoch 1.
        net.append(&mut delayed);
        pump(&mut spaces, &mut rts, &crashed, &mut net, &mut granted);
        assert!(!spaces[4].is_recovering(), "the straggler must be taught and unfrozen");
        assert_eq!(spaces[4].epoch(), spaces[1].epoch(), "straggler rejoined the installed epoch");
        // And it is a full participant again.
        granted.clear();
        let mut fx = EffectSink::new();
        spaces[4].request(LockId(0), Mode::Write, Ticket(7), &mut fx).unwrap();
        drain_into(NodeId(4), &mut fx, &mut net, &mut granted);
        pump(&mut spaces, &mut rts, &crashed, &mut net, &mut granted);
        assert_eq!(granted, vec![(NodeId(4), LockId(0), Ticket(7))]);
    }

    #[test]
    fn deferred_api_calls_replay_after_install() {
        let mut spaces = cluster(3, 1);
        let mut rts: Vec<_> = (0..3).map(|_| HostRuntime::new()).collect();
        let mut net = Net::new();
        let mut granted = Vec::new();
        let crashed = [NodeId(0)];
        // Node 2 freezes first, then the app issues a request mid-recovery.
        suspect(&mut spaces, NodeId(2), &crashed, &mut net, &mut granted);
        assert!(spaces[2].is_recovering());
        let mut fx = EffectSink::new();
        spaces[2].request(LockId(0), Mode::Read, Ticket(3), &mut fx).unwrap();
        drain_into(NodeId(2), &mut fx, &mut net, &mut granted);
        assert!(granted.is_empty(), "frozen node defers");
        assert!(!spaces[2].is_quiescent(), "deferred work is in flight");
        suspect(&mut spaces, NodeId(1), &crashed, &mut net, &mut granted);
        pump(&mut spaces, &mut rts, &crashed, &mut net, &mut granted);
        assert_eq!(granted, vec![(NodeId(2), LockId(0), Ticket(3))]);
        assert!(spaces[2].is_quiescent());
    }

    #[test]
    fn minority_partition_never_installs() {
        let mut spaces = cluster(5, 1);
        let mut rts: Vec<_> = (0..5).map(|_| HostRuntime::new()).collect();
        let mut net = Net::new();
        let mut granted = Vec::new();
        // Only nodes 3 and 4 are live: 2 of 5 is not a majority.
        let crashed = [NodeId(0), NodeId(1), NodeId(2)];
        suspect(&mut spaces, NodeId(3), &crashed, &mut net, &mut granted);
        suspect(&mut spaces, NodeId(4), &crashed, &mut net, &mut granted);
        pump(&mut spaces, &mut rts, &crashed, &mut net, &mut granted);
        assert!(spaces[3].is_recovering() && spaces[4].is_recovering());
        assert_eq!(spaces[3].epoch(), 0, "no install without a quorum");
        assert!(!spaces[3].holds_token(LockId(0)), "no token regeneration in a minority");
    }

    #[test]
    fn sharded_space_recovers_like_flat() {
        use crate::shard::ShardSpec;
        let cfg = ProtocolConfig::default();
        let ids: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut spaces: Vec<RecoverySpace<ShardedSpace>> = (0..3)
            .map(|i| {
                RecoverySpace::wrap(
                    ShardedSpace::new(NodeId(i), 4, NodeId(0), cfg, ShardSpec::new(2)),
                    ids.clone(),
                )
            })
            .collect();
        let mut net: VecDeque<(NodeId, NodeId, RecoveryEnvelope)> = VecDeque::new();
        let mut granted = Vec::new();
        let crashed = [NodeId(0)];
        let mut fx = EffectSink::new();
        assert!(spaces[1].on_suspect(&crashed, &mut fx));
        drain_into(NodeId(1), &mut fx, &mut net, &mut granted);
        let mut fx = EffectSink::new();
        assert!(spaces[2].on_suspect(&crashed, &mut fx));
        drain_into(NodeId(2), &mut fx, &mut net, &mut granted);
        let mut rts: Vec<HostRuntime<RecoveryEnvelope>> =
            (0..3).map(|_| HostRuntime::new()).collect();
        let mut hops = 0;
        while let Some((from, to, message)) = net.pop_front() {
            hops += 1;
            assert!(hops < 10_000);
            if crashed.contains(&to) {
                continue;
            }
            let mut fx = EffectSink::new();
            rts[to.index()].deliver(&mut spaces[to.index()], from, vec![message], &mut fx);
            drain_into(to, &mut fx, &mut net, &mut granted);
        }
        for l in 0..4u32 {
            assert!(spaces[1].holds_token(LockId(l)), "all tokens regenerated at coordinator");
        }
        assert_eq!(spaces[1].epoch(), 1);
        assert_eq!(spaces[2].epoch(), 1);
        // Sharded routing still works at the new epoch.
        granted.clear();
        let mut fx = EffectSink::new();
        spaces[2].request(LockId(3), Mode::Write, Ticket(1), &mut fx).unwrap();
        drain_into(NodeId(2), &mut fx, &mut net, &mut granted);
        while let Some((from, to, message)) = net.pop_front() {
            if crashed.contains(&to) {
                continue;
            }
            let mut fx = EffectSink::new();
            rts[to.index()].deliver(&mut spaces[to.index()], from, vec![message], &mut fx);
            drain_into(to, &mut fx, &mut net, &mut granted);
        }
        assert_eq!(granted, vec![(NodeId(2), LockId(3), Ticket(1))]);
    }
}
