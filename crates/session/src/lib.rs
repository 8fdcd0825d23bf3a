//! Reliable-delivery session layer for hlock protocols.
//!
//! The protocols in this workspace assume what the paper assumes:
//! reliable, per-link-FIFO channels (TCP). The simulator can violate
//! that assumption (drops, duplicates, reordering, partitions), and on
//! raw links the protocols stay *safe* but forfeit *liveness* — a lost
//! token is lost forever. [`SessionSpace`] restores liveness by wrapping
//! any [`ConcurrencyProtocol`] in a sans-I/O Go-Back-N session:
//!
//! - every outgoing message gets a per-link sequence number and carries
//!   a piggybacked cumulative ack ([`SessionFrame::Data`]);
//! - received traffic is acknowledged on the next frame to that peer,
//!   or with a standalone [`SessionFrame::Ack`] when there is none;
//! - unacknowledged frames are retransmitted on a timer
//!   ([`hlock_core::Effect::SetTimer`]) with exponential backoff,
//!   bounded jitter and an optional retry cap;
//! - duplicates are dropped and reordered frames are buffered in a
//!   bounded receive window, so the wrapped protocol still observes a
//!   reliable FIFO link.
//!
//! The layer is pure state: it runs unchanged under the discrete-event
//! simulator, the exhaustive model checker and the TCP transport.
//!
//! ```
//! use hlock_core::{ConcurrencyProtocol, EffectSink, LockId, LockSpace, Mode, NodeId,
//!                  ProtocolConfig, Ticket};
//! use hlock_session::{SessionConfig, SessionSpace};
//!
//! let inner = LockSpace::new(NodeId(0), 1, NodeId(0), ProtocolConfig::default());
//! let mut node = SessionSpace::new(inner, SessionConfig::default());
//! let mut fx = EffectSink::new();
//! // Token home grants locally: no frames, no timers.
//! node.request(LockId(0), Mode::Write, Ticket(1), &mut fx).unwrap();
//! assert_eq!(fx.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hlock_core::rng::Rng;
use hlock_core::{
    CancelOutcome, Classify, ConcurrencyProtocol, Effect, EffectSink, Inspect, LockId, MessageKind,
    Mode, NodeId, Priority, ProtocolError, Ticket,
};
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};

/// Namespace prefix for the session layer's timer tokens.
///
/// The low 32 bits carry the peer's [`NodeId`]; wrapped protocols must
/// not request timers with tokens in this namespace (the base protocols
/// request none at all).
pub const TIMER_NAMESPACE: u64 = 0x5E55_0000 << 32;

fn timer_token(peer: NodeId) -> u64 {
    TIMER_NAMESPACE | u64::from(peer.0)
}

#[allow(clippy::unnecessary_lazy_evaluations)] // `then_some` would do; product code left as is
fn timer_peer(token: u64) -> Option<NodeId> {
    (token & !0xFFFF_FFFF == TIMER_NAMESPACE).then(|| NodeId((token & 0xFFFF_FFFF) as u32))
}

/// One frame on a session-wrapped link.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SessionFrame<M> {
    /// A protocol message with reliability metadata.
    Data {
        /// Per-link sequence number of this frame (first frame is 1).
        seq: u64,
        /// Cumulative ack: every frame from the receiver with sequence
        /// number `<= ack` has been accepted by the sender of this frame.
        ack: u64,
        /// The wrapped protocol message.
        message: M,
    },
    /// A standalone cumulative acknowledgement, sent when a received
    /// frame is not answered by protocol traffic it could piggyback on.
    Ack {
        /// Cumulative ack, as in [`SessionFrame::Data`].
        ack: u64,
    },
}

impl<M: Classify> Classify for SessionFrame<M> {
    fn kind(&self) -> MessageKind {
        match self {
            SessionFrame::Data { message, .. } => message.kind(),
            SessionFrame::Ack { .. } => MessageKind::Ack,
        }
    }
}

/// Tuning knobs of the session layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionConfig {
    /// Base retransmission timeout, in host microseconds.
    pub rto_micros: u64,
    /// Ceiling of the exponential backoff, in host microseconds. No
    /// armed retransmission delay ever exceeds this plus `jitter_micros`,
    /// so backoff growth can never silently outlast a liveness-watchdog
    /// window and mimic a crash.
    pub max_backoff_micros: u64,
    /// Uniform jitter added to every (re)transmission timer, in
    /// `[0, jitter_micros]` host microseconds. Zero disables jitter and
    /// makes the layer fully deterministic (required for model checking).
    /// Must be at most `rto_micros`: jitter wider than the base RTO makes
    /// the effective timeout distribution meaningless.
    pub jitter_micros: u64,
    /// Retransmission rounds without ack progress before a link is
    /// declared failed (`None` = retry forever).
    pub max_retransmits: Option<u32>,
    /// Receive-window size: a frame more than this many sequence numbers
    /// ahead of the next expected one is dropped rather than buffered.
    pub recv_window: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            rto_micros: 10_000,
            max_backoff_micros: 160_000,
            jitter_micros: 1_000,
            max_retransmits: None,
            recv_window: 1024,
        }
    }
}

impl SessionConfig {
    /// A deterministic, minimal-delay configuration for the model
    /// checker: zero jitter (no hidden randomness in the state space)
    /// and unit timeouts (the checker fires timers nondeterministically
    /// anyway).
    pub fn for_model_checking() -> Self {
        SessionConfig {
            rto_micros: 1,
            max_backoff_micros: 1,
            jitter_micros: 0,
            max_retransmits: None,
            recv_window: 64,
        }
    }

    /// Checks the knobs for internal consistency.
    ///
    /// # Errors
    ///
    /// Describes the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.rto_micros == 0 {
            return Err("rto_micros must be positive".into());
        }
        if self.max_backoff_micros < self.rto_micros {
            return Err(format!(
                "max_backoff_micros ({}) must be >= rto_micros ({})",
                self.max_backoff_micros, self.rto_micros
            ));
        }
        if self.jitter_micros > self.rto_micros {
            return Err(format!(
                "jitter_micros ({}) must be <= rto_micros ({})",
                self.jitter_micros, self.rto_micros
            ));
        }
        if self.recv_window == 0 {
            return Err("recv_window must be positive".into());
        }
        Ok(())
    }
}

/// Counters exposed by [`SessionSpace::stats`]; excluded from state
/// fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Data frames sent (first transmissions only).
    pub data_frames: u64,
    /// Standalone ack frames sent.
    pub acks: u64,
    /// Data frames retransmitted.
    pub retransmits: u64,
    /// Received frames dropped as duplicates.
    pub duplicates_dropped: u64,
    /// Received frames dropped for falling outside the receive window.
    pub out_of_window_dropped: u64,
    /// Received frames buffered because they arrived ahead of a gap.
    pub reordered_buffered: u64,
    /// Links declared failed after exhausting the retry cap.
    pub link_failures: u64,
}

impl SessionStats {
    /// Accumulates `other` into `self` — used to aggregate per-node
    /// counters into a cluster-wide total.
    pub fn merge(&mut self, other: &SessionStats) {
        self.data_frames += other.data_frames;
        self.acks += other.acks;
        self.retransmits += other.retransmits;
        self.duplicates_dropped += other.duplicates_dropped;
        self.out_of_window_dropped += other.out_of_window_dropped;
        self.reordered_buffered += other.reordered_buffered;
        self.link_failures += other.link_failures;
    }
}

/// Per-peer reliability state.
#[derive(Debug, Clone)]
struct LinkState<M> {
    /// Sequence number the next outgoing frame will carry.
    next_seq: u64,
    /// Sent but unacknowledged frames, in sequence order.
    unacked: VecDeque<(u64, M)>,
    /// Retransmission rounds since the last ack progress.
    attempts: u32,
    /// Whether a retransmission timer is outstanding for this link.
    timer_armed: bool,
    /// Sequence number of the oldest unacked frame when the timer was
    /// armed. If acks progressed past it by the time the timer fires,
    /// the younger frames have not yet waited a full RTO — the fire
    /// defers (re-arms fresh) instead of retransmitting prematurely.
    timer_oldest: u64,
    /// Set when the retry cap was exhausted; cleared by ack progress or
    /// a link reset.
    failed: bool,
    /// Sequence number of the next in-order frame we will accept.
    next_expected: u64,
    /// Frames received ahead of a gap, keyed by sequence number.
    reorder: BTreeMap<u64, M>,
}

impl<M> Default for LinkState<M> {
    fn default() -> Self {
        LinkState {
            next_seq: 1,
            unacked: VecDeque::new(),
            attempts: 0,
            timer_armed: false,
            timer_oldest: 0,
            failed: false,
            next_expected: 1,
            reorder: BTreeMap::new(),
        }
    }
}

impl<M> LinkState<M> {
    /// The cumulative ack we currently owe this peer.
    fn ack_level(&self) -> u64 {
        self.next_expected - 1
    }
}

/// A [`ConcurrencyProtocol`] wrapped in a reliable session per link.
///
/// `SessionSpace` is itself a `ConcurrencyProtocol` (with message type
/// [`SessionFrame`]), so every host — simulator, model checker, TCP
/// cluster — drives it exactly like the raw protocol it wraps.
#[derive(Debug, Clone)]
pub struct SessionSpace<P: ConcurrencyProtocol> {
    inner: P,
    cfg: SessionConfig,
    links: BTreeMap<NodeId, LinkState<P::Message>>,
    stats: SessionStats,
    scratch: EffectSink<P::Message>,
    /// Timer jitter stream, one per node; untouched when jitter is zero.
    rng: Rng,
}

impl<P: ConcurrencyProtocol> SessionSpace<P> {
    /// Wraps `inner` with session reliability configured by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`SessionConfig::validate`].
    pub fn new(inner: P, cfg: SessionConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid SessionConfig: {e}");
        }
        let rng = Rng::new(u64::from(inner.node_id().0));
        SessionSpace {
            inner,
            cfg,
            links: BTreeMap::new(),
            stats: SessionStats::default(),
            scratch: EffectSink::new(),
            rng,
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The session configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// Reliability counters accumulated so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Peers whose links were declared failed (retry cap exhausted).
    pub fn failed_links(&self) -> Vec<NodeId> {
        self.links.iter().filter(|(_, l)| l.failed).map(|(n, _)| *n).collect()
    }

    /// Total frames currently awaiting acknowledgement, across links.
    pub fn unacked_frames(&self) -> usize {
        self.links.values().map(|l| l.unacked.len()).sum()
    }

    fn next_jitter(&mut self) -> u64 {
        if self.cfg.jitter_micros == 0 {
            return 0;
        }
        self.rng.range_inclusive(0..=self.cfg.jitter_micros)
    }

    fn backoff_delay(&mut self, attempts: u32) -> u64 {
        let shift = attempts.min(16);
        let base =
            self.cfg.rto_micros.saturating_mul(1u64 << shift).min(self.cfg.max_backoff_micros);
        base + self.next_jitter()
    }

    /// Sends `message` to `to` as a sequenced `Data` frame, arming the
    /// retransmission timer if this link has none outstanding.
    fn send_data(
        &mut self,
        to: NodeId,
        message: P::Message,
        fx: &mut EffectSink<SessionFrame<P::Message>>,
    ) {
        let link = self.links.entry(to).or_default();
        let seq = link.next_seq;
        link.next_seq += 1;
        link.unacked.push_back((seq, message.clone()));
        let ack = link.ack_level();
        let arm = if link.timer_armed {
            None
        } else {
            link.timer_armed = true;
            link.timer_oldest = seq;
            Some(link.attempts)
        };
        self.stats.data_frames += 1;
        fx.send(to, SessionFrame::Data { seq, ack, message });
        if let Some(attempts) = arm {
            let delay = self.backoff_delay(attempts);
            fx.set_timer(timer_token(to), delay);
        }
    }

    /// Runs `f` with the wrapped protocol and re-emits its output into
    /// `fx`: every send becomes a sequenced `Data` frame; grants, inner
    /// timers and protocol events pass through.
    fn with_inner<R>(
        &mut self,
        fx: &mut EffectSink<SessionFrame<P::Message>>,
        f: impl FnOnce(&mut P, &mut EffectSink<P::Message>) -> R,
    ) -> R {
        let mut scratch = std::mem::take(&mut self.scratch);
        let step = |s: &mut Self, inner_fx: &mut EffectSink<P::Message>| {
            let out = f(&mut s.inner, inner_fx);
            debug_assert!(
                inner_fx.as_slice().iter().all(
                    |e| !matches!(e, Effect::SetTimer { token, .. } if timer_peer(*token).is_some())
                ),
                "wrapped protocol used a session-namespace timer token"
            );
            out
        };
        let out = fx.relay(self, &mut scratch, step, |s, to, message, fx| {
            s.send_data(to, message, fx);
        });
        self.scratch = scratch;
        out
    }

    /// Accepts one incoming frame: applies its cumulative ack, delivers
    /// in-order `Data` (plus anything it unblocks in the reorder buffer)
    /// to the wrapped protocol and flushes the results into `fx`.
    /// Returns whether the frame was `Data` — i.e. whether the peer is
    /// now owed an acknowledgement. The ack itself is *not* emitted
    /// here: callers decide once per delivery unit (message or batch),
    /// so a whole batch costs at most one standalone `Ack`.
    fn accept_frame(
        &mut self,
        from: NodeId,
        message: SessionFrame<P::Message>,
        fx: &mut EffectSink<SessionFrame<P::Message>>,
    ) -> bool {
        match message {
            SessionFrame::Ack { ack } => {
                self.process_ack(from, ack);
                false
            }
            SessionFrame::Data { seq, ack, message } => {
                self.process_ack(from, ack);
                // Accept in-order traffic (including anything it unblocks
                // in the reorder buffer); stash or drop the rest.
                let mut deliver = Vec::new();
                {
                    let link = self.links.entry(from).or_default();
                    if seq == link.next_expected {
                        link.next_expected += 1;
                        deliver.push(message);
                        while let Some(m) = link.reorder.remove(&link.next_expected) {
                            link.next_expected += 1;
                            deliver.push(m);
                        }
                    } else if seq < link.next_expected {
                        self.stats.duplicates_dropped += 1;
                    } else if seq - link.next_expected < self.cfg.recv_window {
                        if link.reorder.insert(seq, message).is_some() {
                            self.stats.duplicates_dropped += 1;
                        } else {
                            self.stats.reordered_buffered += 1;
                        }
                    } else {
                        self.stats.out_of_window_dropped += 1;
                    }
                }
                for m in deliver {
                    self.with_inner(fx, |inner, scratch| inner.on_message(from, m, scratch));
                }
                true
            }
        }
    }

    /// Emits the acknowledgement owed to `from` after a delivery unit:
    /// piggybacked if the effects since `before` already carry a `Data`
    /// frame to that peer, standalone otherwise.
    fn ack_if_needed(
        &mut self,
        from: NodeId,
        need_ack: bool,
        before: usize,
        fx: &mut EffectSink<SessionFrame<P::Message>>,
    ) {
        if !need_ack {
            return;
        }
        let piggybacked = fx.as_slice()[before..].iter().any(
            |e| matches!(e, Effect::Send { to, message: SessionFrame::Data { .. } } if *to == from),
        );
        if !piggybacked {
            let ack = self.links.entry(from).or_default().ack_level();
            self.stats.acks += 1;
            fx.send(from, SessionFrame::Ack { ack });
        }
    }

    /// Applies a cumulative ack from `from`, releasing covered frames.
    fn process_ack(&mut self, from: NodeId, ack: u64) {
        let link = self.links.entry(from).or_default();
        let mut progressed = false;
        while link.unacked.front().is_some_and(|(seq, _)| *seq <= ack) {
            link.unacked.pop_front();
            progressed = true;
        }
        if progressed {
            link.attempts = 0;
            link.failed = false;
        }
    }
}

impl<P: ConcurrencyProtocol> ConcurrencyProtocol for SessionSpace<P> {
    type Message = SessionFrame<P::Message>;

    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn request(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<(), ProtocolError> {
        self.with_inner(fx, |inner, scratch| inner.request(lock, mode, ticket, scratch))
    }

    fn request_with_priority(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        priority: Priority,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<(), ProtocolError> {
        self.with_inner(fx, |inner, scratch| {
            inner.request_with_priority(lock, mode, ticket, priority, scratch)
        })
    }

    fn release(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<(), ProtocolError> {
        self.with_inner(fx, |inner, scratch| inner.release(lock, ticket, scratch))
    }

    fn upgrade(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<(), ProtocolError> {
        self.with_inner(fx, |inner, scratch| inner.upgrade(lock, ticket, scratch))
    }

    fn try_request(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<bool, ProtocolError> {
        self.with_inner(fx, |inner, scratch| inner.try_request(lock, mode, ticket, scratch))
    }

    fn downgrade(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        new_mode: Mode,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<(), ProtocolError> {
        self.with_inner(fx, |inner, scratch| inner.downgrade(lock, ticket, new_mode, scratch))
    }

    fn cancel(
        &mut self,
        lock: LockId,
        ticket: Ticket,
        fx: &mut EffectSink<Self::Message>,
    ) -> Result<CancelOutcome, ProtocolError> {
        self.with_inner(fx, |inner, scratch| inner.cancel(lock, ticket, scratch))
    }

    fn on_message(
        &mut self,
        from: NodeId,
        message: Self::Message,
        fx: &mut EffectSink<Self::Message>,
    ) {
        let before = fx.len();
        let need_ack = self.accept_frame(from, message, fx);
        self.ack_if_needed(from, need_ack, before, fx);
    }

    /// A batch is one sequenced unit: every frame is accepted in order,
    /// but the acknowledgement decision is made **once** for the whole
    /// batch — so `n` coalesced `Data` frames cost at most one standalone
    /// `Ack` instead of `n`, and any reply traffic the batch provokes
    /// piggybacks the ack for all of them.
    fn on_message_batch(
        &mut self,
        from: NodeId,
        messages: Vec<Self::Message>,
        fx: &mut EffectSink<Self::Message>,
    ) {
        let before = fx.len();
        let mut need_ack = false;
        for message in messages {
            need_ack |= self.accept_frame(from, message, fx);
        }
        self.ack_if_needed(from, need_ack, before, fx);
    }

    fn on_timer(&mut self, token: u64, fx: &mut EffectSink<Self::Message>) {
        let Some(peer) = timer_peer(token) else {
            // An inner-protocol timer: forward it.
            self.with_inner(fx, |inner, scratch| inner.on_timer(token, scratch));
            return;
        };
        let Some(link) = self.links.get_mut(&peer) else { return };
        link.timer_armed = false;
        if link.unacked.is_empty() || link.failed {
            return;
        }
        let oldest = link.unacked.front().map(|(seq, _)| *seq).unwrap_or(0);
        if oldest != link.timer_oldest {
            // Acks progressed while the timer was pending: the frames
            // still in flight are younger than one RTO. Re-arm fresh
            // rather than retransmitting prematurely.
            link.timer_oldest = oldest;
            link.timer_armed = true;
            let attempts = link.attempts;
            let delay = self.backoff_delay(attempts);
            fx.set_timer(token, delay);
            return;
        }
        if self.cfg.max_retransmits.is_some_and(|cap| link.attempts >= cap) {
            link.failed = true;
            self.stats.link_failures += 1;
            return;
        }
        link.attempts = link.attempts.saturating_add(1);
        let attempts = link.attempts;
        let ack = link.ack_level();
        let frames: Vec<SessionFrame<P::Message>> = link
            .unacked
            .iter()
            .map(|(seq, m)| SessionFrame::Data { seq: *seq, ack, message: m.clone() })
            .collect();
        link.timer_armed = true;
        self.stats.retransmits += frames.len() as u64;
        for frame in frames {
            fx.send(peer, frame);
        }
        fx.set_timer(token, self.backoff_delay(attempts));
    }

    fn on_link_reset(&mut self, peer: NodeId, fx: &mut EffectSink<Self::Message>) {
        self.with_inner(fx, |inner, scratch| inner.on_link_reset(peer, scratch));
        let Some(link) = self.links.get_mut(&peer) else { return };
        link.attempts = 0;
        link.failed = false;
        if link.unacked.is_empty() {
            return;
        }
        let ack = link.ack_level();
        let frames: Vec<SessionFrame<P::Message>> = link
            .unacked
            .iter()
            .map(|(seq, m)| SessionFrame::Data { seq: *seq, ack, message: m.clone() })
            .collect();
        let arm = !link.timer_armed;
        link.timer_armed = true;
        link.timer_oldest = link.unacked.front().map(|(seq, _)| *seq).unwrap_or(0);
        self.stats.retransmits += frames.len() as u64;
        for frame in frames {
            fx.send(peer, frame);
        }
        if arm {
            let delay = self.backoff_delay(0);
            fx.set_timer(timer_token(peer), delay);
        }
    }

    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
            && self
                .links
                .values()
                .all(|l| l.unacked.is_empty() && l.reorder.is_empty() && !l.failed)
    }
}

impl<P: ConcurrencyProtocol + Inspect> Inspect for SessionSpace<P> {
    fn held_modes(&self, lock: LockId) -> Vec<Mode> {
        self.inner.held_modes(lock)
    }

    fn holds_token(&self, lock: LockId) -> bool {
        self.inner.holds_token(lock)
    }

    fn lock_node(&self, lock: LockId) -> Option<&hlock_core::LockNode> {
        self.inner.lock_node(lock)
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }

    fn suspects(&self, peer: NodeId) -> bool {
        self.inner.suspects(peer)
    }

    fn frozen(&self) -> bool {
        self.inner.frozen()
    }

    fn open_requests(&self) -> Vec<(LockId, Ticket)> {
        self.inner.open_requests()
    }
}

/// Fingerprint support for the model checker.
///
/// Stats and the jitter rng are deliberately excluded: they do not
/// influence future behavior. `attempts` is included only when a retry
/// cap is configured (without one it affects nothing but backoff delay,
/// which the checker ignores), keeping the checked state space finite.
impl<P: ConcurrencyProtocol + Hash> Hash for SessionSpace<P>
where
    P::Message: Hash,
{
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.inner.hash(state);
        self.links.len().hash(state);
        for (peer, link) in &self.links {
            peer.hash(state);
            link.next_seq.hash(state);
            link.unacked.hash(state);
            if self.cfg.max_retransmits.is_some() {
                link.attempts.hash(state);
            }
            link.timer_armed.hash(state);
            if link.timer_armed {
                // Dead state while disarmed (overwritten on the next
                // arm), so hashing it then would only split states.
                link.timer_oldest.hash(state);
            }
            link.failed.hash(state);
            link.next_expected.hash(state);
            link.reorder.hash(state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlock_core::{LockSpace, ProtocolConfig};

    const L: LockId = LockId(0);

    /// Two session-wrapped nodes over one lock whose token home is node 0.
    fn pair() -> (SessionSpace<LockSpace>, SessionSpace<LockSpace>) {
        let cfg = SessionConfig { jitter_micros: 0, ..SessionConfig::default() };
        let a = SessionSpace::new(
            LockSpace::new(NodeId(0), 1, NodeId(0), ProtocolConfig::default()),
            cfg,
        );
        let b = SessionSpace::new(
            LockSpace::new(NodeId(1), 1, NodeId(0), ProtocolConfig::default()),
            cfg,
        );
        (a, b)
    }

    type Frame = SessionFrame<hlock_core::Envelope>;

    fn sends(fx: &mut EffectSink<Frame>) -> Vec<(NodeId, Frame)> {
        fx.drain()
            .filter_map(|e| match e {
                Effect::Send { to, message } => Some((to, message)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn inner_protocol_events_survive_the_wrapper() {
        // The session layer must pass the wrapped protocol's observability
        // stream through: a local request + grant at the token home shows
        // up as `request_issued` / `granted` on the *outer* sink.
        let (mut a, _) = pair();
        let mut fx = EffectSink::new();
        fx.set_observing(true);
        a.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        let names: Vec<&str> = fx.events().iter().map(|e| e.name()).collect();
        assert!(names.contains(&"request_issued"), "{names:?}");
        assert!(names.contains(&"granted"), "{names:?}");
    }

    #[test]
    fn config_validation() {
        assert!(SessionConfig::default().validate().is_ok());
        assert!(SessionConfig::for_model_checking().validate().is_ok());
        let zero_rto = SessionConfig { rto_micros: 0, ..SessionConfig::default() };
        assert!(zero_rto.validate().unwrap_err().contains("rto"));
        let bad_backoff =
            SessionConfig { rto_micros: 100, max_backoff_micros: 50, ..SessionConfig::default() };
        assert!(bad_backoff.validate().unwrap_err().contains("max_backoff"));
        let zero_window = SessionConfig { recv_window: 0, ..SessionConfig::default() };
        assert!(zero_window.validate().unwrap_err().contains("recv_window"));
        let wild_jitter =
            SessionConfig { rto_micros: 100, jitter_micros: 101, ..SessionConfig::default() };
        assert!(wild_jitter.validate().unwrap_err().contains("jitter"));
    }

    #[test]
    fn backoff_is_capped_with_bounded_jitter() {
        // Regression: backoff growth must saturate at the configured
        // ceiling (plus at most one jitter quantum) no matter how many
        // retransmission rounds have elapsed — unbounded growth would
        // eventually exceed a recovery watchdog window and make a slow
        // link indistinguishable from a crash.
        let cfg = SessionConfig::default();
        let ceiling = cfg.max_backoff_micros + cfg.jitter_micros;
        let mut s = SessionSpace::new(
            LockSpace::new(NodeId(0), 1, NodeId(0), ProtocolConfig::default()),
            cfg,
        );
        let mut prev = 0;
        for attempts in 0..64 {
            let d = s.backoff_delay(attempts);
            assert!(d <= ceiling, "attempt {attempts}: delay {d} exceeds cap {ceiling}");
            if attempts <= 4 {
                // Early rounds genuinely back off (modulo jitter width).
                assert!(d + s.config().jitter_micros >= prev, "backoff shrank early");
            }
            prev = d;
        }
    }

    #[test]
    #[should_panic(expected = "invalid SessionConfig")]
    fn constructor_rejects_bad_config() {
        let cfg = SessionConfig { rto_micros: 0, ..SessionConfig::default() };
        let _ = SessionSpace::new(
            LockSpace::new(NodeId(0), 1, NodeId(0), ProtocolConfig::default()),
            cfg,
        );
    }

    #[test]
    fn remote_request_is_sequenced_and_timed() {
        let (_, mut b) = pair();
        let mut fx = EffectSink::new();
        // b requests the lock whose token home is node 0 → one Data frame
        // (seq 1) plus a retransmission timer.
        b.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        let effects: Vec<_> = fx.drain().collect();
        assert_eq!(effects.len(), 2, "{effects:?}");
        assert!(matches!(
            &effects[0],
            Effect::Send { to: NodeId(0), message: SessionFrame::Data { seq: 1, ack: 0, .. } }
        ));
        assert!(matches!(
            &effects[1],
            Effect::SetTimer { token, .. } if timer_peer(*token) == Some(NodeId(0))
        ));
        assert_eq!(b.unacked_frames(), 1);
        assert!(!b.is_quiescent());
    }

    #[test]
    fn duplicate_data_is_dropped_and_acked() {
        let (mut a, mut b) = pair();
        let mut fx = EffectSink::new();
        b.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        let (_, frame) = sends(&mut fx).remove(0);
        // First copy: delivered; a answers with a Data frame (the grant)
        // carrying a piggybacked ack.
        a.on_message(NodeId(1), frame.clone(), &mut fx);
        let replies = sends(&mut fx);
        assert_eq!(replies.len(), 1);
        assert!(matches!(&replies[0].1, SessionFrame::Data { seq: 1, ack: 1, .. }));
        // Second copy: duplicate → dropped, re-acked standalone.
        a.on_message(NodeId(1), frame, &mut fx);
        let replies = sends(&mut fx);
        assert_eq!(replies.len(), 1);
        assert!(matches!(&replies[0].1, SessionFrame::Ack { ack: 1 }));
        assert_eq!(a.stats().duplicates_dropped, 1);
    }

    #[test]
    fn ack_releases_unacked_frames() {
        let (mut a, mut b) = pair();
        let mut fx = EffectSink::new();
        b.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        let (_, frame) = sends(&mut fx).remove(0);
        a.on_message(NodeId(1), frame, &mut fx);
        let (_, reply) = sends(&mut fx).remove(0);
        assert_eq!(b.unacked_frames(), 1);
        b.on_message(NodeId(0), reply, &mut fx);
        // The grant's piggybacked ack released b's request frame; b's
        // standalone ack releases a's grant frame.
        assert_eq!(b.unacked_frames(), 0);
        let (_, ack) = sends(&mut fx).remove(0);
        assert!(matches!(ack, SessionFrame::Ack { ack: 1 }));
        a.on_message(NodeId(1), ack, &mut fx);
        assert_eq!(a.unacked_frames(), 0);
        assert!(a.is_quiescent() && b.is_quiescent());
    }

    #[test]
    fn reordered_frames_are_buffered_and_drained_in_order() {
        let (mut a, mut b) = pair();
        let mut fx = EffectSink::new();
        // b sends two frames: a read request (seq 1), then — after the
        // copy grant arrives — the matching release (seq 2). Read mode
        // keeps the token at a, so the release really crosses the link.
        b.request(L, Mode::Read, Ticket(1), &mut fx).unwrap();
        let (_, req) = sends(&mut fx).remove(0);
        // Obtain the grant from a side copy of a, leaving the real a
        // ignorant of the request.
        let mut a_side = a.clone();
        a_side.on_message(NodeId(1), req.clone(), &mut fx);
        let (_, grant) = sends(&mut fx).remove(0);
        b.on_message(NodeId(0), grant, &mut fx);
        fx.drain().count();
        b.release(L, Ticket(1), &mut fx).unwrap();
        let (_, rel) = sends(&mut fx).remove(0);
        assert!(matches!(rel, SessionFrame::Data { seq: 2, .. }));
        // Deliver to the *real* a in the wrong order: seq 2, then 1.
        a.on_message(NodeId(1), rel, &mut fx);
        assert_eq!(a.stats().reordered_buffered, 1);
        // Nothing reached the protocol yet: a release must not precede
        // its request.
        assert!(a.inner().is_quiescent());
        fx.drain().count();
        a.on_message(NodeId(1), req, &mut fx);
        // Both frames drained in order: a granted a copy to b, then the
        // buffered release removed b from the copyset again.
        let replies = sends(&mut fx);
        assert!(
            replies
                .iter()
                .any(|(to, f)| *to == NodeId(1) && matches!(f, SessionFrame::Data { seq: 1, .. })),
            "the request was served: {replies:?}"
        );
        assert!(a.inner().holds_token(L));
        assert!(
            a.inner().lock_state(L).children().is_empty(),
            "the buffered release was applied after the request"
        );
    }

    #[test]
    fn retransmit_timer_resends_all_unacked() {
        let (_, mut b) = pair();
        let mut fx = EffectSink::new();
        b.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        let effects: Vec<_> = fx.drain().collect();
        let token = effects
            .iter()
            .find_map(|e| match e {
                Effect::SetTimer { token, .. } => Some(*token),
                _ => None,
            })
            .unwrap();
        b.on_timer(token, &mut fx);
        let effects: Vec<_> = fx.drain().collect();
        assert!(matches!(
            &effects[0],
            Effect::Send { to: NodeId(0), message: SessionFrame::Data { seq: 1, .. } }
        ));
        // Backoff doubled: base rto is 10ms, second round waits 20ms.
        assert!(matches!(&effects[1], Effect::SetTimer { delay_micros: 20_000, .. }));
        assert_eq!(b.stats().retransmits, 1);
    }

    #[test]
    fn retry_cap_marks_link_failed() {
        let cfg = SessionConfig {
            jitter_micros: 0,
            max_retransmits: Some(2),
            ..SessionConfig::default()
        };
        let mut b = SessionSpace::new(
            LockSpace::new(NodeId(1), 1, NodeId(0), ProtocolConfig::default()),
            cfg,
        );
        let mut fx = EffectSink::new();
        b.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        fx.drain().count();
        let token = timer_token(NodeId(0));
        b.on_timer(token, &mut fx); // attempt 1
        b.on_timer(token, &mut fx); // attempt 2
        b.on_timer(token, &mut fx); // cap reached → failed
        fx.drain().count();
        assert_eq!(b.failed_links(), vec![NodeId(0)]);
        assert_eq!(b.stats().link_failures, 1);
        assert!(!b.is_quiescent());
        // A later timer on the failed link stays silent.
        b.on_timer(token, &mut fx);
        assert!(fx.is_empty());
    }

    #[test]
    fn link_reset_resends_unacked_and_revives_failed_link() {
        let cfg = SessionConfig {
            jitter_micros: 0,
            max_retransmits: Some(1),
            ..SessionConfig::default()
        };
        let mut b = SessionSpace::new(
            LockSpace::new(NodeId(1), 1, NodeId(0), ProtocolConfig::default()),
            cfg,
        );
        let mut fx = EffectSink::new();
        b.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        fx.drain().count();
        let token = timer_token(NodeId(0));
        b.on_timer(token, &mut fx);
        b.on_timer(token, &mut fx);
        fx.drain().count();
        assert_eq!(b.failed_links(), vec![NodeId(0)]);
        b.on_link_reset(NodeId(0), &mut fx);
        assert!(b.failed_links().is_empty());
        let frames = sends(&mut fx);
        assert_eq!(frames.len(), 1);
        assert!(matches!(frames[0].1, SessionFrame::Data { seq: 1, .. }));
    }

    #[test]
    fn out_of_window_frames_are_dropped() {
        let cfg = SessionConfig { jitter_micros: 0, recv_window: 2, ..SessionConfig::default() };
        let mut a = SessionSpace::new(
            LockSpace::new(NodeId(0), 1, NodeId(0), ProtocolConfig::default()),
            cfg,
        );
        let mut b = SessionSpace::new(
            LockSpace::new(NodeId(1), 1, NodeId(0), ProtocolConfig::default()),
            cfg,
        );
        let mut fx = EffectSink::new();
        b.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        let (_, frame) = sends(&mut fx).remove(0);
        let SessionFrame::Data { ack, message, .. } = frame else { panic!() };
        // A frame claiming seq 10 is far beyond the window of 2.
        a.on_message(NodeId(1), SessionFrame::Data { seq: 10, ack, message }, &mut fx);
        assert_eq!(a.stats().out_of_window_dropped, 1);
        assert!(a.inner().is_quiescent(), "frame must not reach the protocol");
    }

    #[test]
    fn quiescence_tracks_reorder_buffer() {
        let (mut a, mut b) = pair();
        let mut fx = EffectSink::new();
        b.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        let (_, frame) = sends(&mut fx).remove(0);
        let SessionFrame::Data { ack, message, .. } = frame else { panic!() };
        a.on_message(NodeId(1), SessionFrame::Data { seq: 2, ack, message }, &mut fx);
        assert!(!a.is_quiescent(), "a gap is outstanding");
    }

    #[test]
    fn fingerprint_ignores_stats_but_sees_link_state() {
        use std::collections::hash_map::DefaultHasher;
        fn fp<P: ConcurrencyProtocol + Hash>(s: &SessionSpace<P>) -> u64
        where
            P::Message: Hash,
        {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        }
        let (_, b0) = pair();
        let mut b1 = b0.clone();
        assert_eq!(fp(&b0), fp(&b1));
        b1.stats.acks += 1;
        assert_eq!(fp(&b0), fp(&b1), "stats are not part of the fingerprint");
        let mut fx = EffectSink::new();
        // A remote request creates link state (seq, unacked) → new print.
        b1.request(L, Mode::Write, Ticket(9), &mut fx).unwrap();
        assert_ne!(fp(&b0), fp(&b1), "link state is");
    }

    #[test]
    fn batch_delivery_acks_once_for_all_frames() {
        // Two locks, both with token home node 0: two requests in one
        // step yield two Data frames that travel to node 0 as one batch.
        let cfg = SessionConfig { jitter_micros: 0, ..SessionConfig::default() };
        let mut a = SessionSpace::new(
            LockSpace::new(NodeId(0), 2, NodeId(0), ProtocolConfig::default()),
            cfg,
        );
        let mut b = SessionSpace::new(
            LockSpace::new(NodeId(1), 2, NodeId(0), ProtocolConfig::default()),
            cfg,
        );
        let mut fx = EffectSink::new();
        b.request(LockId(0), Mode::Read, Ticket(1), &mut fx).unwrap();
        b.request(LockId(1), Mode::Read, Ticket(2), &mut fx).unwrap();
        let frames: Vec<_> = sends(&mut fx).into_iter().map(|(_, f)| f).collect();
        assert_eq!(frames.len(), 2);
        a.on_message_batch(NodeId(1), frames, &mut fx);
        // a replies with grants (Data frames carrying piggybacked acks) —
        // and must NOT add a standalone Ack on top.
        let replies = sends(&mut fx);
        assert!(replies.iter().all(|(_, f)| matches!(f, SessionFrame::Data { .. })), "{replies:?}");
        assert_eq!(a.stats().acks, 0, "batch ack rode on the replies");
        // The last reply's cumulative ack covers the whole batch.
        let Some((_, SessionFrame::Data { ack, .. })) = replies.last() else { panic!() };
        assert_eq!(*ack, 2);
    }

    #[test]
    fn batch_of_pure_acks_sends_nothing_back() {
        let (mut a, mut b) = pair();
        let mut fx = EffectSink::new();
        b.request(L, Mode::Write, Ticket(1), &mut fx).unwrap();
        let (_, frame) = sends(&mut fx).remove(0);
        a.on_message(NodeId(1), frame, &mut fx);
        let (_, reply) = sends(&mut fx).remove(0);
        b.on_message(NodeId(0), reply, &mut fx);
        let (_, standalone) = sends(&mut fx).remove(0);
        assert!(matches!(standalone, SessionFrame::Ack { .. }));
        // Delivering the standalone ack as a (degenerate) batch must not
        // provoke an ack-of-an-ack loop.
        a.on_message_batch(NodeId(1), vec![standalone], &mut fx);
        assert!(fx.is_empty(), "acks are never acked");
    }

    #[test]
    fn batch_and_singles_deliver_identically() {
        let cfg = SessionConfig { jitter_micros: 0, ..SessionConfig::default() };
        let a0 = SessionSpace::new(
            LockSpace::new(NodeId(0), 2, NodeId(0), ProtocolConfig::default()),
            cfg,
        );
        let mut b = SessionSpace::new(
            LockSpace::new(NodeId(1), 2, NodeId(0), ProtocolConfig::default()),
            cfg,
        );
        let mut fx = EffectSink::new();
        b.request(LockId(0), Mode::Read, Ticket(1), &mut fx).unwrap();
        b.request(LockId(1), Mode::Write, Ticket(2), &mut fx).unwrap();
        let frames: Vec<_> = sends(&mut fx).into_iter().map(|(_, f)| f).collect();
        assert_eq!(frames.len(), 2);
        let mut a_batch = a0.clone();
        let mut a_single = a0;
        let mut fx_b = EffectSink::new();
        let mut fx_s = EffectSink::new();
        a_batch.on_message_batch(NodeId(1), frames.clone(), &mut fx_b);
        for f in frames {
            a_single.on_message(NodeId(1), f, &mut fx_s);
        }
        // Same protocol state either way (only ack traffic may differ).
        assert_eq!(a_batch.inner(), a_single.inner());
        let data = |fx: &mut EffectSink<Frame>| {
            sends(fx)
                .into_iter()
                .filter(|(_, f)| matches!(f, SessionFrame::Data { .. }))
                .collect::<Vec<_>>()
        };
        assert_eq!(data(&mut fx_b), data(&mut fx_s));
    }

    #[test]
    fn timer_tokens_roundtrip() {
        assert_eq!(timer_peer(timer_token(NodeId(0))), Some(NodeId(0)));
        assert_eq!(timer_peer(timer_token(NodeId(4_000_000_000))), Some(NodeId(4_000_000_000)));
        assert_eq!(timer_peer(7), None);
        assert_eq!(timer_peer(0), None);
    }
}
