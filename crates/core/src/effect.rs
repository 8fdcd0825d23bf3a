//! Effects: what a sans-I/O protocol step asks its host to do.
//!
//! The protocol state machines never touch sockets or clocks. Every
//! operation (`request`, `release`, `on_message`, …) appends [`Effect`]s
//! to an [`EffectSink`]; the host (simulator, model checker or TCP
//! transport) executes them.

use crate::ids::{LockId, NodeId, Ticket};
use crate::mode::Mode;
use crate::observe::ProtocolEvent;
use core::fmt;

/// An instruction from the protocol to its host.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect<M> {
    /// Send `message` to node `to`.
    Send {
        /// Destination node.
        to: NodeId,
        /// Protocol message to deliver.
        message: M,
    },
    /// The local request identified by `ticket` has been granted `mode`
    /// on `lock`; the caller may enter its critical section.
    Granted {
        /// Lock concerned.
        lock: LockId,
        /// The ticket supplied with the original request.
        ticket: Ticket,
        /// The granted mode (equals the requested mode, or `W` after an
        /// upgrade).
        mode: Mode,
    },
    /// Ask the host to call [`crate::ConcurrencyProtocol::on_timer`] with
    /// `token` after `delay_micros` of host time has elapsed.
    ///
    /// Hosts may not support cancellation, so a timer can fire after the
    /// condition it guarded has passed; protocols must treat a stale or
    /// unknown token as a no-op.
    SetTimer {
        /// Protocol-chosen correlation token, echoed back on fire.
        token: u64,
        /// Delay until the timer fires, in microseconds of host time
        /// (virtual time in the simulator, wall time on a real transport).
        delay_micros: u64,
    },
}

impl<M: fmt::Debug> fmt::Display for Effect<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Effect::Send { to, message } => write!(f, "send {message:?} -> {to}"),
            Effect::Granted { lock, ticket, mode } => {
                write!(f, "granted {lock} {mode} ({ticket})")
            }
            Effect::SetTimer { token, delay_micros } => {
                write!(f, "set-timer {token:#x} +{delay_micros}us")
            }
        }
    }
}

/// Accumulator for the effects of one protocol step.
///
/// Reusable across steps via [`EffectSink::drain`] to avoid reallocation
/// in hot simulation loops.
///
/// ```
/// use hlock_core::{Effect, EffectSink, LockId, Mode, NodeId, Ticket};
/// let mut sink: EffectSink<&'static str> = EffectSink::new();
/// sink.send(NodeId(1), "hello");
/// sink.granted(LockId(0), Ticket(7), Mode::Read);
/// assert_eq!(sink.len(), 2);
/// let effects: Vec<Effect<&str>> = sink.drain().collect();
/// assert!(sink.is_empty());
/// assert_eq!(effects[0], Effect::Send { to: NodeId(1), message: "hello" });
/// ```
#[derive(Debug, Clone)]
pub struct EffectSink<M> {
    effects: Vec<Effect<M>>,
    events: Vec<ProtocolEvent>,
    observing: bool,
}

impl<M> Default for EffectSink<M> {
    fn default() -> Self {
        EffectSink::new()
    }
}

impl<M> EffectSink<M> {
    /// Creates an empty sink with observation off.
    pub fn new() -> Self {
        EffectSink { effects: Vec::new(), events: Vec::new(), observing: false }
    }

    /// Turns observation on or off. While off (the default),
    /// [`EffectSink::emit_with`] is a no-op — protocols instrumented
    /// with events cost nothing when nobody is listening.
    pub fn set_observing(&mut self, on: bool) {
        self.observing = on;
    }

    /// Whether protocol events are being recorded.
    pub fn observing(&self) -> bool {
        self.observing
    }

    /// Records a [`ProtocolEvent`] if observation is on. Takes a closure
    /// so event payloads are never even constructed when off.
    pub fn emit_with(&mut self, event: impl FnOnce() -> ProtocolEvent) {
        if self.observing {
            self.events.push(event());
        }
    }

    /// The recorded events (drained by the host runtime).
    pub fn events(&self) -> &[ProtocolEvent] {
        &self.events
    }

    /// Takes the recorded events, leaving the buffer empty.
    pub fn take_events(&mut self) -> Vec<ProtocolEvent> {
        std::mem::take(&mut self.events)
    }

    /// Queues a `Send` effect.
    pub fn send(&mut self, to: NodeId, message: M) {
        self.effects.push(Effect::Send { to, message });
    }

    /// Queues a `Granted` effect.
    pub fn granted(&mut self, lock: LockId, ticket: Ticket, mode: Mode) {
        self.effects.push(Effect::Granted { lock, ticket, mode });
    }

    /// Queues a `SetTimer` effect.
    pub fn set_timer(&mut self, token: u64, delay_micros: u64) {
        self.effects.push(Effect::SetTimer { token, delay_micros });
    }

    /// Number of queued effects.
    pub fn len(&self) -> usize {
        self.effects.len()
    }

    /// Whether no effects are queued.
    pub fn is_empty(&self) -> bool {
        self.effects.is_empty()
    }

    /// Drains the queued effects in order.
    pub fn drain(&mut self) -> impl Iterator<Item = Effect<M>> + '_ {
        self.effects.drain(..)
    }

    /// Immutable view of the queued effects.
    pub fn as_slice(&self) -> &[Effect<M>] {
        &self.effects
    }

    /// Removes every queued `Granted` effect, handing each to `f` in
    /// order; sends and timers stay queued in their emission order. See
    /// [`HostRuntime::dispatch_grants`](crate::HostRuntime::dispatch_grants).
    pub(crate) fn take_granted(&mut self, mut f: impl FnMut(LockId, Ticket, Mode)) {
        self.effects.retain(|effect| match *effect {
            Effect::Granted { lock, ticket, mode } => {
                f(lock, ticket, mode);
                false
            }
            Effect::Send { .. } | Effect::SetTimer { .. } => true,
        });
    }

    /// Runs one step of the protocol a layer wraps and re-emits its
    /// output here — the one way a translating layer (epoch stamping,
    /// session sequencing, …) passes a step on.
    ///
    /// `step` runs on `layer` against `scratch`, which records events
    /// exactly when this sink does. Its events are forwarded first; then
    /// its effects are re-emitted in emission order: grants and timers
    /// as they are, each send handed to `wrap` exactly once, which
    /// queues whatever the layer makes of it. `scratch` is left empty
    /// for reuse.
    pub fn relay<L: ?Sized, N, R>(
        &mut self,
        layer: &mut L,
        scratch: &mut EffectSink<N>,
        step: impl FnOnce(&mut L, &mut EffectSink<N>) -> R,
        mut wrap: impl FnMut(&mut L, NodeId, N, &mut Self),
    ) -> R {
        scratch.observing = self.observing;
        let result = step(layer, scratch);
        self.events.append(&mut scratch.events);
        for effect in scratch.effects.drain(..) {
            match effect {
                Effect::Send { to, message } => wrap(layer, to, message, self),
                Effect::Granted { lock, ticket, mode } => self.granted(lock, ticket, mode),
                Effect::SetTimer { token, delay_micros } => self.set_timer(token, delay_micros),
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_accumulates_in_order() {
        let mut sink: EffectSink<u8> = EffectSink::new();
        sink.send(NodeId(2), 10);
        sink.send(NodeId(3), 11);
        sink.granted(LockId(1), Ticket(5), Mode::Write);
        assert_eq!(sink.len(), 3);
        let v: Vec<_> = sink.drain().collect();
        assert_eq!(v[0], Effect::Send { to: NodeId(2), message: 10 });
        assert_eq!(v[1], Effect::Send { to: NodeId(3), message: 11 });
        assert_eq!(v[2], Effect::Granted { lock: LockId(1), ticket: Ticket(5), mode: Mode::Write });
        assert!(sink.is_empty());
    }

    #[test]
    fn relay_forwards_events_then_reemits_effects_in_order_wrapping_each_send_once() {
        use crate::observe::ProtocolEvent;
        let suppressed = |node| ProtocolEvent::ReleaseSuppressed {
            node: NodeId(node),
            lock: LockId(0),
            owned: None,
        };
        for observing in [false, true] {
            let mut outer: EffectSink<(u8, u32)> = EffectSink::new();
            outer.set_observing(observing);
            let mut scratch: EffectSink<u8> = EffectSink::new();
            let mut wrapped = 0u32;
            let result = outer.relay(
                &mut wrapped,
                &mut scratch,
                |_, fx| {
                    assert_eq!(fx.observing(), observing, "the step observes as the host does");
                    fx.send(NodeId(2), 10);
                    fx.granted(LockId(1), Ticket(5), Mode::Write);
                    fx.emit_with(|| suppressed(1));
                    fx.set_timer(7, 100);
                    fx.send(NodeId(3), 11);
                    "done"
                },
                |wrapped, to, message, fx| {
                    *wrapped += 1;
                    fx.emit_with(|| suppressed(9));
                    fx.send(to, (message, *wrapped));
                },
            );
            assert_eq!(result, "done");
            assert_eq!(wrapped, 2, "each send is wrapped exactly once");
            assert!(scratch.is_empty() && scratch.events().is_empty(), "scratch is left empty");
            assert_eq!(
                outer.drain().collect::<Vec<_>>(),
                vec![
                    Effect::Send { to: NodeId(2), message: (10, 1) },
                    Effect::Granted { lock: LockId(1), ticket: Ticket(5), mode: Mode::Write },
                    Effect::SetTimer { token: 7, delay_micros: 100 },
                    Effect::Send { to: NodeId(3), message: (11, 2) },
                ]
            );
            // The step's own events come before anything the wrap emits.
            let nodes: Vec<u32> = outer.events().iter().map(|e| e.node().0).collect();
            assert_eq!(nodes, if observing { vec![1, 9, 9] } else { vec![] });
        }
    }

    /// The batched drain now lives in `HostRuntime::dispatch`: each call
    /// empties the sink and appends its own batches after the ones the
    /// host already holds; a later step to the same peer opens a new batch.
    #[test]
    fn drain_batched_into_appends_and_scopes_batches_per_call() {
        use crate::runtime::{BatchHost, HostRuntime};
        #[derive(Default)]
        struct Out(Vec<(NodeId, Vec<u8>)>);
        impl BatchHost<u8> for Out {
            fn on_batch(&mut self, to: NodeId, messages: Vec<u8>) {
                self.0.push((to, messages));
            }
            fn on_granted(&mut self, _: LockId, _: Ticket, _: Mode) {}
            fn on_set_timer(&mut self, _: u64, _: u64) {}
        }
        let mut sink: EffectSink<u8> = EffectSink::new();
        let mut rt = HostRuntime::new();
        let mut out = Out::default();
        sink.send(NodeId(1), 1);
        sink.send(NodeId(2), 2);
        sink.send(NodeId(1), 3);
        rt.dispatch(&mut sink, &mut out);
        assert!(sink.is_empty());
        sink.send(NodeId(1), 4);
        rt.dispatch(&mut sink, &mut out);
        assert!(sink.is_empty());
        assert_eq!(
            out.0,
            vec![(NodeId(1), vec![1, 3]), (NodeId(2), vec![2]), (NodeId(1), vec![4])]
        );
    }

    #[test]
    fn display_formats() {
        let e: Effect<u8> = Effect::Send { to: NodeId(4), message: 9 };
        assert!(e.to_string().contains("n4"));
        let g: Effect<u8> =
            Effect::Granted { lock: LockId(3), ticket: Ticket(1), mode: Mode::Upgrade };
        assert!(g.to_string().contains("L3"));
        assert!(g.to_string().contains('U'));
    }
}
