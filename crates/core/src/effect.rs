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

impl<M> Effect<M> {
    /// Returns the destination if this is a `Send`.
    pub fn send_to(&self) -> Option<NodeId> {
        match self {
            Effect::Send { to, .. } => Some(*to),
            Effect::Granted { .. } | Effect::SetTimer { .. } => None,
        }
    }
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

/// A step-level instruction produced by [`EffectSink::drain_batched`]:
/// the same information as a sequence of [`Effect`]s, but with every
/// `Send` of one protocol step to the same destination coalesced into a
/// single [`StepEffect::Batch`].
///
/// Hosts that transmit a batch as one wire frame (or one simulated hop)
/// model the piggybacking the paper's message counts assume: a
/// hierarchical acquisition that fans IR + R out to the same peer costs
/// one frame, not two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepEffect<M> {
    /// Deliver `messages` to node `to` as one unit, preserving order.
    ///
    /// The vector is never empty. Messages appear in the exact order the
    /// protocol emitted them towards `to` (per-link FIFO is preserved);
    /// only messages of the *same step* are ever grouped.
    Batch {
        /// Destination node.
        to: NodeId,
        /// The step's messages for `to`, in emission order.
        messages: Vec<M>,
    },
    /// Same as [`Effect::Granted`].
    Granted {
        /// Lock concerned.
        lock: LockId,
        /// The ticket supplied with the original request.
        ticket: Ticket,
        /// The granted mode.
        mode: Mode,
    },
    /// Same as [`Effect::SetTimer`].
    SetTimer {
        /// Protocol-chosen correlation token, echoed back on fire.
        token: u64,
        /// Delay until the timer fires, in microseconds of host time.
        delay_micros: u64,
    },
}

impl<M> StepEffect<M> {
    /// Returns the destination if this is a `Batch`.
    pub fn batch_to(&self) -> Option<NodeId> {
        match self {
            StepEffect::Batch { to, .. } => Some(*to),
            StepEffect::Granted { .. } | StepEffect::SetTimer { .. } => None,
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
/// assert_eq!(effects[0].send_to(), Some(NodeId(1)));
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

    /// Moves the recorded events into another sink (used by
    /// [`crate::LockSpace`] to forward per-node scratch events).
    pub fn forward_events_into<N>(&mut self, other: &mut EffectSink<N>) {
        if !self.events.is_empty() {
            other.events.append(&mut self.events);
        }
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

    /// Drains the queued effects into `out`, coalescing every `Send` to
    /// the same destination into one [`StepEffect::Batch`].
    ///
    /// A batch sits at the position of the *first* send to its
    /// destination; messages within it keep their emission order, so
    /// per-link FIFO is preserved. `Granted` and `SetTimer` effects keep
    /// their relative positions. A step with a single destination moves
    /// its messages without cloning.
    ///
    /// `out` is appended to (not cleared) so hosts can reuse one scratch
    /// vector across steps.
    pub fn drain_batched_into(&mut self, out: &mut Vec<StepEffect<M>>) {
        let base = out.len();
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send { to, message } => {
                    // Steps fan out to a handful of peers at most, so a
                    // linear scan beats a hash map here.
                    let existing = out[base..].iter_mut().find_map(|e| match e {
                        StepEffect::Batch { to: t, messages } if *t == to => Some(messages),
                        _ => None,
                    });
                    match existing {
                        Some(messages) => messages.push(message),
                        None => out.push(StepEffect::Batch { to, messages: vec![message] }),
                    }
                }
                Effect::Granted { lock, ticket, mode } => {
                    out.push(StepEffect::Granted { lock, ticket, mode });
                }
                Effect::SetTimer { token, delay_micros } => {
                    out.push(StepEffect::SetTimer { token, delay_micros });
                }
            }
        }
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

    /// Convenience wrapper around [`EffectSink::drain_batched_into`]
    /// returning a fresh vector.
    pub fn drain_batched(&mut self) -> Vec<StepEffect<M>> {
        let mut out = Vec::new();
        self.drain_batched_into(&mut out);
        out
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
    fn send_to_extracts_destination() {
        let e: Effect<u8> = Effect::Send { to: NodeId(4), message: 0 };
        assert_eq!(e.send_to(), Some(NodeId(4)));
        let g: Effect<u8> =
            Effect::Granted { lock: LockId(0), ticket: Ticket(0), mode: Mode::Read };
        assert_eq!(g.send_to(), None);
    }

    #[test]
    fn drain_batched_coalesces_per_destination() {
        let mut sink: EffectSink<u8> = EffectSink::new();
        sink.send(NodeId(2), 10);
        sink.granted(LockId(0), Ticket(1), Mode::Read);
        sink.send(NodeId(3), 11);
        sink.send(NodeId(2), 12);
        sink.set_timer(7, 100);
        sink.send(NodeId(3), 13);
        let batched = sink.drain_batched();
        assert!(sink.is_empty());
        assert_eq!(
            batched,
            vec![
                StepEffect::Batch { to: NodeId(2), messages: vec![10, 12] },
                StepEffect::Granted { lock: LockId(0), ticket: Ticket(1), mode: Mode::Read },
                StepEffect::Batch { to: NodeId(3), messages: vec![11, 13] },
                StepEffect::SetTimer { token: 7, delay_micros: 100 },
            ]
        );
    }

    #[test]
    fn drain_batched_into_appends_and_scopes_batches_per_call() {
        let mut sink: EffectSink<u8> = EffectSink::new();
        let mut out = Vec::new();
        sink.send(NodeId(1), 1);
        sink.drain_batched_into(&mut out);
        // A second step to the same peer must NOT merge into the first
        // step's batch: batches never span a step boundary.
        sink.send(NodeId(1), 2);
        sink.drain_batched_into(&mut out);
        assert_eq!(
            out,
            vec![
                StepEffect::Batch { to: NodeId(1), messages: vec![1] },
                StepEffect::Batch { to: NodeId(1), messages: vec![2] },
            ]
        );
    }

    #[test]
    fn batch_to_extracts_destination() {
        let b: StepEffect<u8> = StepEffect::Batch { to: NodeId(9), messages: vec![1] };
        assert_eq!(b.batch_to(), Some(NodeId(9)));
        let t: StepEffect<u8> = StepEffect::SetTimer { token: 0, delay_micros: 1 };
        assert_eq!(t.batch_to(), None);
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
