//! The shared batched host runtime.
//!
//! Every host (simulator, model checker, TCP transport) used to hand-roll
//! its own `match Effect` dispatch loop, and the copies drifted. The
//! [`HostRuntime`] owns that loop once: it drains an [`EffectSink`] at
//! the step boundary, coalesces the step's sends per destination, hands
//! each batch, grant and timer to a host-specific [`BatchHost`]
//! callback, and keeps per-step counters (logical messages, frames,
//! coalesce ratio) so every host reports batching the same way.
//!
//! ```
//! use hlock_core::{BatchHost, EffectSink, HostRuntime, LockId, Mode, NodeId, Ticket};
//!
//! #[derive(Default)]
//! struct Recorder(Vec<(NodeId, Vec<u8>)>);
//! impl BatchHost<u8> for Recorder {
//!     fn on_batch(&mut self, to: NodeId, messages: Vec<u8>) {
//!         self.0.push((to, messages));
//!     }
//!     fn on_granted(&mut self, _: LockId, _: Ticket, _: Mode) {}
//!     fn on_set_timer(&mut self, _: u64, _: u64) {}
//! }
//!
//! let mut fx = EffectSink::new();
//! fx.send(NodeId(1), 10);
//! fx.send(NodeId(1), 11);
//! let mut rt = HostRuntime::new();
//! let mut host = Recorder::default();
//! rt.dispatch(&mut fx, &mut host);
//! assert_eq!(host.0, vec![(NodeId(1), vec![10, 11])]);
//! assert_eq!(rt.counters().logical_messages, 2);
//! assert_eq!(rt.counters().frames, 1);
//! ```

use crate::effect::{Effect, EffectSink};
use crate::ids::{LockId, NodeId, Ticket};
use crate::message::Classify;
use crate::mode::Mode;
use crate::observe::{Observer, ProtocolEvent};

/// Host-specific handlers for the three step-effect kinds.
///
/// Implementations decide what "deliver a batch" means — enqueue a
/// simulated hop, push a model-checker flight, or encode one wire frame —
/// while the [`HostRuntime`] owns ordering, coalescing and accounting.
pub trait BatchHost<M> {
    /// Deliver `messages` to `to` as one unit. Never called with an
    /// empty vector; messages are in per-link emission order.
    fn on_batch(&mut self, to: NodeId, messages: Vec<M>);

    /// A local request was granted.
    fn on_granted(&mut self, lock: LockId, ticket: Ticket, mode: Mode);

    /// The protocol asked for a timer.
    fn on_set_timer(&mut self, token: u64, delay_micros: u64);
}

/// Per-step accounting kept by a [`HostRuntime`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Dispatched steps that produced at least one effect.
    pub steps: u64,
    /// Protocol messages sent (what the paper's figures count).
    pub logical_messages: u64,
    /// Transfer units actually emitted (batches); `frames <=
    /// logical_messages` always holds.
    pub frames: u64,
    /// Grants delivered to local callers.
    pub grants: u64,
    /// Timer registrations.
    pub timers: u64,
    /// Largest single batch seen, in messages.
    pub max_batch: u64,
    /// Incoming messages dropped by epoch fencing in
    /// [`HostRuntime::deliver`] (stale traffic from before a recovery).
    pub fenced: u64,
}

impl RuntimeCounters {
    /// Folds another snapshot in field-wise (sums, `max_batch` takes the
    /// max). Sharded hosts run one [`HostRuntime`] per shard worker and
    /// absorb the per-shard snapshots into one node- or cluster-level
    /// total.
    pub fn absorb(&mut self, other: &RuntimeCounters) {
        self.steps += other.steps;
        self.logical_messages += other.logical_messages;
        self.frames += other.frames;
        self.grants += other.grants;
        self.timers += other.timers;
        self.max_batch = self.max_batch.max(other.max_batch);
        self.fenced += other.fenced;
    }

    /// Logical messages per frame — 1.0 when nothing coalesced, higher
    /// when multi-message steps shared destinations.
    pub fn coalesce_ratio(&self) -> f64 {
        if self.frames == 0 {
            1.0
        } else {
            self.logical_messages as f64 / self.frames as f64
        }
    }
}

/// The one dispatch loop shared by every host.
///
/// Owns a reusable scratch vector (no per-step allocation once warm) and
/// the [`RuntimeCounters`]. Hosts call [`HostRuntime::dispatch`] after
/// every protocol step; the runtime batches, counts and forwards.
#[derive(Debug, Clone)]
pub struct HostRuntime<M> {
    /// One step's effects with its sends coalesced: each `Send` carries
    /// every message of the step to its destination.
    scratch: Vec<Effect<Vec<M>>>,
    counters: RuntimeCounters,
}

impl<M> Default for HostRuntime<M> {
    fn default() -> Self {
        HostRuntime::new()
    }
}

impl<M> HostRuntime<M> {
    /// Creates a runtime with zeroed counters.
    pub fn new() -> Self {
        HostRuntime { scratch: Vec::new(), counters: RuntimeCounters::default() }
    }

    /// Drains one step's effects from `fx`, coalescing sends per
    /// destination, and invokes `host` for each batch, grant and timer in
    /// order. The whole sink is flushed: batches never split a step and
    /// never span two steps.
    pub fn dispatch<H: BatchHost<M>>(&mut self, fx: &mut EffectSink<M>, host: &mut H) {
        self.run(fx, host, |_, _| {});
    }

    /// Like [`HostRuntime::dispatch`], but also drains the sink's
    /// recorded [`ProtocolEvent`]s into `obs` (stamped `now_micros`) and
    /// emits one [`ProtocolEvent::MessageSent`] per logical message of
    /// every batch, so per-kind message counters are identical across
    /// hosts with zero per-host code.
    ///
    /// Events are drained even when the step produced no effects (a
    /// suppressed release, for instance, is an event without an effect);
    /// such steps still do not count toward [`RuntimeCounters::steps`].
    pub fn dispatch_observed<H, O>(
        &mut self,
        fx: &mut EffectSink<M>,
        host: &mut H,
        node: NodeId,
        obs: &mut O,
        now_micros: u64,
    ) where
        H: BatchHost<M>,
        O: Observer + ?Sized,
        M: Classify,
    {
        for event in fx.take_events() {
            obs.on_event(now_micros, &event);
        }
        let observing = fx.observing();
        self.run(fx, host, |to, messages| {
            if observing {
                for m in messages {
                    let event = ProtocolEvent::MessageSent { node, to, kind: m.kind() };
                    obs.on_event(now_micros, &event);
                }
            }
        });
    }

    /// The one effect loop behind both dispatches. A batch sits at the
    /// position of the step's *first* send to its destination and keeps
    /// the emission order of its messages, so per-link FIFO holds; grants
    /// and timers keep their relative positions. `sent` sees each batch
    /// just before `host` does.
    fn run<H: BatchHost<M>>(
        &mut self,
        fx: &mut EffectSink<M>,
        host: &mut H,
        mut sent: impl FnMut(NodeId, &[M]),
    ) {
        if fx.is_empty() {
            return;
        }
        self.counters.steps += 1;
        debug_assert!(self.scratch.is_empty(), "scratch leaked from a previous dispatch");
        for effect in fx.drain() {
            match effect {
                Effect::Send { to, message } => {
                    // Steps fan out to a handful of peers at most, so a
                    // linear scan beats a hash map here.
                    let batch = self.scratch.iter_mut().find_map(|e| match e {
                        Effect::Send { to: t, message: batch } if *t == to => Some(batch),
                        _ => None,
                    });
                    match batch {
                        Some(batch) => batch.push(message),
                        None => self.scratch.push(Effect::Send { to, message: vec![message] }),
                    }
                }
                Effect::Granted { lock, ticket, mode } => {
                    self.scratch.push(Effect::Granted { lock, ticket, mode });
                }
                Effect::SetTimer { token, delay_micros } => {
                    self.scratch.push(Effect::SetTimer { token, delay_micros });
                }
            }
        }
        for effect in self.scratch.drain(..) {
            match effect {
                Effect::Send { to, message: messages } => {
                    self.counters.frames += 1;
                    self.counters.logical_messages += messages.len() as u64;
                    self.counters.max_batch = self.counters.max_batch.max(messages.len() as u64);
                    sent(to, &messages);
                    host.on_batch(to, messages);
                }
                Effect::Granted { lock, ticket, mode } => {
                    self.counters.grants += 1;
                    host.on_granted(lock, ticket, mode);
                }
                Effect::SetTimer { token, delay_micros } => {
                    self.counters.timers += 1;
                    host.on_set_timer(token, delay_micros);
                }
            }
        }
    }

    /// Hands the `Granted` effects queued in `fx` to `on_granted` at once
    /// and leaves every send and timer queued, in order, for the next
    /// [`HostRuntime::dispatch`]. A grant is a fact local to this node:
    /// taking it out ahead of earlier sends reorders nothing a peer can
    /// see. For hosts whose API callers run protocol steps themselves and
    /// must not wait for the thread that owns the sockets. Counts toward
    /// [`RuntimeCounters::grants`], not toward `steps`.
    pub fn dispatch_grants(
        &mut self,
        fx: &mut EffectSink<M>,
        mut on_granted: impl FnMut(LockId, Ticket, Mode),
    ) {
        fx.take_granted(|lock, ticket, mode| {
            self.counters.grants += 1;
            on_granted(lock, ticket, mode);
        });
    }

    /// Delivers an incoming batch to `protocol`, fencing stale epochs.
    ///
    /// When the protocol exposes a
    /// [`fence_epoch`](crate::ConcurrencyProtocol::fence_epoch), every
    /// message stamped with an older [`Classify::epoch`] is dropped
    /// before the protocol sees it: a [`ProtocolEvent::StaleEpochFenced`]
    /// is emitted, [`RuntimeCounters::fenced`] is bumped, and the
    /// protocol's `on_stale_message` hook runs (so it can re-teach the
    /// straggler). The surviving messages are forwarded as one batch.
    /// Epoch-free protocols (no fence) take a zero-copy fast path.
    ///
    /// All hosts route incoming traffic through this method so fencing
    /// behaves identically in the simulator, the model checker and the
    /// TCP transport.
    pub fn deliver<P>(
        &mut self,
        protocol: &mut P,
        from: NodeId,
        messages: Vec<M>,
        fx: &mut EffectSink<M>,
    ) where
        P: crate::ConcurrencyProtocol<Message = M>,
        M: Classify + Clone,
    {
        let Some(fence) = protocol.fence_epoch() else {
            protocol.on_message_batch(from, messages, fx);
            return;
        };
        let mut live = Vec::with_capacity(messages.len());
        for message in messages {
            match message.epoch() {
                Some(epoch) if epoch < fence => {
                    self.counters.fenced += 1;
                    let node = protocol.node_id();
                    fx.emit_with(|| ProtocolEvent::StaleEpochFenced { node, from, epoch });
                    protocol.on_stale_message(from, epoch, fx);
                }
                _ => live.push(message),
            }
        }
        if !live.is_empty() {
            protocol.on_message_batch(from, live, fx);
        }
    }

    /// The accumulated counters.
    pub fn counters(&self) -> &RuntimeCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        batches: Vec<(NodeId, Vec<u8>)>,
        grants: Vec<(LockId, Ticket, Mode)>,
        timers: Vec<(u64, u64)>,
    }

    impl BatchHost<u8> for Recorder {
        fn on_batch(&mut self, to: NodeId, messages: Vec<u8>) {
            self.batches.push((to, messages));
        }
        fn on_granted(&mut self, lock: LockId, ticket: Ticket, mode: Mode) {
            self.grants.push((lock, ticket, mode));
        }
        fn on_set_timer(&mut self, token: u64, delay_micros: u64) {
            self.timers.push((token, delay_micros));
        }
    }

    #[test]
    fn dispatch_batches_and_counts() {
        let mut fx = EffectSink::new();
        fx.send(NodeId(1), 10);
        fx.send(NodeId(2), 20);
        fx.send(NodeId(1), 11);
        fx.granted(LockId(0), Ticket(3), Mode::Write);
        fx.set_timer(9, 500);
        let mut rt = HostRuntime::new();
        let mut host = Recorder::default();
        rt.dispatch(&mut fx, &mut host);
        assert!(fx.is_empty());
        assert_eq!(host.batches, vec![(NodeId(1), vec![10, 11]), (NodeId(2), vec![20])]);
        assert_eq!(host.grants, vec![(LockId(0), Ticket(3), Mode::Write)]);
        assert_eq!(host.timers, vec![(9, 500)]);
        let c = rt.counters();
        assert_eq!(c.steps, 1);
        assert_eq!(c.logical_messages, 3);
        assert_eq!(c.frames, 2);
        assert_eq!(c.grants, 1);
        assert_eq!(c.timers, 1);
        assert_eq!(c.max_batch, 2);
        assert!((c.coalesce_ratio() - 1.5).abs() < 1e-9);
    }

    /// The order `host` sees: a batch at its step's first send to that
    /// peer, grants and timers where they were emitted.
    #[test]
    fn dispatch_keeps_each_batch_at_its_first_send() {
        #[derive(Default)]
        struct Log(Vec<String>);
        impl BatchHost<u8> for Log {
            fn on_batch(&mut self, to: NodeId, messages: Vec<u8>) {
                self.0.push(format!("{to} {messages:?}"));
            }
            fn on_granted(&mut self, lock: LockId, _: Ticket, _: Mode) {
                self.0.push(format!("granted {lock}"));
            }
            fn on_set_timer(&mut self, token: u64, _: u64) {
                self.0.push(format!("timer {token}"));
            }
        }
        let mut fx = EffectSink::new();
        fx.send(NodeId(2), 10);
        fx.granted(LockId(0), Ticket(1), Mode::Read);
        fx.send(NodeId(3), 11);
        fx.send(NodeId(2), 12);
        fx.set_timer(7, 100);
        fx.send(NodeId(3), 13);
        let mut log = Log::default();
        HostRuntime::new().dispatch(&mut fx, &mut log);
        assert!(fx.is_empty());
        assert_eq!(log.0, ["n2 [10, 12]", "granted L0", "n3 [11, 13]", "timer 7"]);
    }

    #[test]
    fn empty_step_is_not_counted() {
        let mut fx: EffectSink<u8> = EffectSink::new();
        let mut rt = HostRuntime::new();
        let mut host = Recorder::default();
        rt.dispatch(&mut fx, &mut host);
        assert_eq!(rt.counters().steps, 0);
        assert_eq!(rt.counters().coalesce_ratio(), 1.0);
    }

    #[test]
    fn steps_never_share_a_batch() {
        let mut fx = EffectSink::new();
        let mut rt = HostRuntime::new();
        let mut host = Recorder::default();
        fx.send(NodeId(1), 1);
        rt.dispatch(&mut fx, &mut host);
        fx.send(NodeId(1), 2);
        rt.dispatch(&mut fx, &mut host);
        assert_eq!(host.batches, vec![(NodeId(1), vec![1]), (NodeId(1), vec![2])]);
        assert_eq!(rt.counters().frames, 2);
    }

    #[test]
    fn dispatch_grants_takes_only_the_grants_and_keeps_the_rest_in_order() {
        let mut fx = EffectSink::new();
        fx.send(NodeId(1), 10);
        fx.granted(LockId(0), Ticket(3), Mode::Write);
        fx.set_timer(9, 500);
        fx.send(NodeId(1), 11);
        fx.granted(LockId(1), Ticket(4), Mode::Read);
        let mut rt = HostRuntime::new();
        let mut granted = Vec::new();
        rt.dispatch_grants(&mut fx, |lock, ticket, mode| granted.push((lock, ticket, mode)));
        assert_eq!(
            granted,
            vec![(LockId(0), Ticket(3), Mode::Write), (LockId(1), Ticket(4), Mode::Read)]
        );
        assert_eq!((rt.counters().grants, rt.counters().steps), (2, 0));
        // What is left dispatches as the one step it always was.
        let mut host = Recorder::default();
        rt.dispatch(&mut fx, &mut host);
        assert_eq!(host.batches, vec![(NodeId(1), vec![10, 11])]);
        assert_eq!(host.timers, vec![(9, 500)]);
        assert!(host.grants.is_empty());
        assert_eq!((rt.counters().grants, rt.counters().steps), (2, 1));
    }

    impl crate::Classify for u8 {
        fn kind(&self) -> crate::MessageKind {
            crate::MessageKind::Request
        }
    }

    #[test]
    fn dispatch_observed_emits_message_sent_and_drains_events() {
        use crate::observe::{ProtocolEvent, VecObserver};
        let mut fx = EffectSink::new();
        fx.set_observing(true);
        fx.emit_with(|| ProtocolEvent::ReleaseSuppressed {
            node: NodeId(0),
            lock: LockId(0),
            owned: None,
        });
        fx.send(NodeId(1), 10u8);
        fx.send(NodeId(1), 11u8);
        let mut rt = HostRuntime::new();
        let mut host = Recorder::default();
        let mut obs = VecObserver::default();
        rt.dispatch_observed(&mut fx, &mut host, NodeId(0), &mut obs, 42);
        assert!(fx.events().is_empty());
        let names: Vec<&str> = obs.events.iter().map(|(_, e)| e.name()).collect();
        assert_eq!(names, vec!["release_suppressed", "message_sent", "message_sent"]);
        assert!(obs.events.iter().all(|(at, _)| *at == 42));
        assert_eq!(rt.counters().logical_messages, 2);
    }

    #[test]
    fn dispatch_observed_drains_events_without_effects() {
        use crate::observe::{ProtocolEvent, VecObserver};
        let mut fx: EffectSink<u8> = EffectSink::new();
        fx.set_observing(true);
        // A suppressed release is an event without an effect.
        fx.emit_with(|| ProtocolEvent::ReleaseSuppressed {
            node: NodeId(3),
            lock: LockId(0),
            owned: Some(Mode::IntentRead),
        });
        let mut rt = HostRuntime::new();
        let mut host = Recorder::default();
        let mut obs = VecObserver::default();
        rt.dispatch_observed(&mut fx, &mut host, NodeId(3), &mut obs, 0);
        assert_eq!(obs.events.len(), 1);
        assert_eq!(rt.counters().steps, 0, "event-only steps are not effectful");
    }
}
