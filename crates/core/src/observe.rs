//! Protocol observability: lifecycle events, causal request spans, sinks.
//!
//! The node state machine emits one [`ProtocolEvent`] per lifecycle
//! transition (request issued / forwarded / queued, copyset grant and
//! revoke, token transfer, freeze and unfreeze, release sent vs.
//! suppressed, path reversal, grant, cancel). Every request-scoped event
//! carries a causal [`SpanId`] — the `(origin, ticket)` pair assigned
//! where the request was issued — which is threaded through the wire
//! format so one request can be followed across node boundaries from
//! issue to grant.
//!
//! Events flow through the [`crate::EffectSink`] (gated by its
//! `observing` flag, so an idle observer costs nothing) and are drained
//! by [`crate::HostRuntime::dispatch_observed`] into an [`Observer`].
//! The simulator, the model checker and the TCP transport all dispatch
//! through the same runtime, so all three hosts produce the same event
//! vocabulary with zero per-host code.
//!
//! Two sinks ship with the crate:
//!
//! * [`FlightRecorder`] — a node's ring of its last events, stamped
//!   with a hybrid logical clock. [`crate::SharedAuditor`] owns one per
//!   node and writes them out as `flight-node-<i>.jsonl`: a run's JSONL
//!   log, which the `timeline` binary renders as a Chrome trace;
//! * [`crate::Meter`] — the figures' counters (messages by kind and
//!   sender, requests, request-to-grant latency by mode), rendered as
//!   Prometheus text by `obs_smoke`.

use crate::ids::{LockId, NodeId, Priority, Ticket};
use crate::message::MessageKind;
use crate::mode::Mode;
use crate::rng::Rng;
use core::fmt;

/// Causal identifier of one request span: the ticket as assigned at the
/// node that issued the request. Globally unique among *outstanding*
/// requests (tickets are unique per origin); a ticket may be reused
/// sequentially after its span closes, which span balance checking
/// ([`crate::InvariantAuditor`]) permits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId {
    /// The node that issued the request.
    pub origin: NodeId,
    /// The origin's ticket for the request.
    pub ticket: Ticket,
}

impl SpanId {
    /// Builds a span id.
    pub fn new(origin: NodeId, ticket: Ticket) -> SpanId {
        SpanId { origin, ticket }
    }

    /// Packs the span into one `u64` (`origin << 32 | ticket`), used as
    /// the async-event correlation id in Chrome traces. Tickets wider
    /// than 32 bits are truncated — fine for trace correlation, since
    /// only *concurrently open* spans must not collide.
    pub fn as_u64(self) -> u64 {
        ((self.origin.0 as u64) << 32) | (self.ticket.0 & 0xffff_ffff)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.origin, self.ticket)
    }
}

/// One protocol lifecycle transition, as observed at a single node.
///
/// The first group is emitted by the node state machine itself (through
/// the effect sink); the `MessageSent` / `Delivered` / `Dropped` group
/// is emitted by the host runtime and the hosts, so every host counts
/// transport activity identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// A local caller issued a request; opens the span.
    RequestIssued {
        /// Observing node (= span origin).
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The request's span.
        span: SpanId,
        /// Requested mode.
        mode: Mode,
        /// Request priority.
        priority: Priority,
    },
    /// A request (local or remote) was absorbed into the local queue.
    RequestQueued {
        /// Observing node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The queued request's span.
        span: SpanId,
        /// Requested mode.
        mode: Mode,
        /// Queue length after insertion.
        queue_depth: usize,
    },
    /// A request was relayed one hop toward the token.
    RequestForwarded {
        /// Observing (forwarding) node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The forwarded request's span.
        span: SpanId,
        /// Requested mode.
        mode: Mode,
    },
    /// The observing node granted a copy to a remote requester, which
    /// joined its copyset.
    CopyGranted {
        /// Observing (granting) node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The served request's span.
        span: SpanId,
        /// Granted mode.
        mode: Mode,
        /// Copyset size after the grant.
        copyset_size: usize,
    },
    /// A child released (or weakened) its copy.
    CopyRevoked {
        /// Observing (parent) node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The child whose copy changed.
        child: NodeId,
        /// The child's new owned mode (`None` = left the copyset).
        new_owned: Option<Mode>,
    },
    /// The observing node transferred the token to the requester.
    TokenSent {
        /// Observing (old token) node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The served request's span.
        span: SpanId,
        /// Mode granted with the transfer.
        mode: Mode,
        /// Local queue entries travelling with the token.
        queue_len: usize,
    },
    /// The observing node received the token and became token node.
    TokenReceived {
        /// Observing (new token) node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The span whose request the transfer serves.
        span: SpanId,
        /// Mode granted with the transfer.
        mode: Mode,
    },
    /// A release notification was sent to the parent.
    ReleaseSent {
        /// Observing node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The owned mode reported to the parent.
        new_owned: Option<Mode>,
    },
    /// A release was suppressed because the owned mode did not change
    /// (Rule 5.2 — the paper's message-saving optimisation).
    ReleaseSuppressed {
        /// Observing node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The (unchanged) owned mode.
        owned: Option<Mode>,
    },
    /// A local request was granted; closes the span.
    Granted {
        /// Observing node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The granted request's span.
        span: SpanId,
        /// Granted mode.
        mode: Mode,
    },
    /// A local caller released a held mode.
    Released {
        /// Observing node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The released ticket.
        ticket: Ticket,
        /// The mode that was held.
        mode: Mode,
    },
    /// A local request was cancelled (or will abort on grant absorption);
    /// closes the span.
    RequestCancelled {
        /// Observing node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The cancelled request's span.
        span: SpanId,
    },
    /// A logical protocol message left the observing node (emitted by
    /// [`crate::HostRuntime::dispatch_observed`], once per message of
    /// every batch).
    MessageSent {
        /// Sending node.
        node: NodeId,
        /// Destination node.
        to: NodeId,
        /// Message classification.
        kind: MessageKind,
    },
    /// A message was delivered to the observing node (emitted by hosts).
    Delivered {
        /// Receiving node.
        node: NodeId,
        /// Sending node.
        from: NodeId,
        /// Message classification.
        kind: MessageKind,
    },
    /// A message to the observing node was dropped by fault injection.
    Dropped {
        /// Intended receiver.
        node: NodeId,
        /// Sender.
        from: NodeId,
        /// Message classification.
        kind: MessageKind,
    },
    /// The observing node started (or joined) a recovery round targeting
    /// `epoch`, suspecting `dead` nodes of having crashed.
    RecoveryStarted {
        /// Observing node.
        node: NodeId,
        /// The epoch being elected.
        epoch: u64,
        /// How many nodes are suspected dead.
        dead: usize,
    },
    /// The observing node installed the new epoch and resumed service.
    RecoveryCompleted {
        /// Observing node.
        node: NodeId,
        /// The installed epoch.
        epoch: u64,
    },
    /// The recovery coordinator regenerated a token whose holder died
    /// (no survivor reported holding it).
    TokenRegenerated {
        /// The coordinator (= the new token home).
        node: NodeId,
        /// The lock whose token was regenerated.
        lock: LockId,
        /// The epoch the regenerated token belongs to.
        epoch: u64,
    },
    /// An incoming message carrying a stale epoch was fenced at dispatch
    /// (emitted by [`crate::HostRuntime::deliver`]).
    StaleEpochFenced {
        /// Receiving (fencing) node.
        node: NodeId,
        /// The straggling sender.
        from: NodeId,
        /// The stale epoch the message carried.
        epoch: u64,
    },
    /// A transport outbox for `peer` hit its byte bound and dropped the
    /// newest frame instead of queueing it (emitted by readiness-driven
    /// hosts; the session layer recovers the loss by retransmission).
    Backpressure {
        /// The node whose outbox overflowed.
        node: NodeId,
        /// The slow peer the frame was destined for.
        peer: NodeId,
        /// Bytes of the frame that was dropped.
        dropped: u64,
    },
    /// A request was aborted before grant because its node died or the
    /// cluster fenced it behind a new epoch; closes the span so balance
    /// checking holds under crash-recovery runs.
    RequestAborted {
        /// The node whose request aborted (dead or fenced).
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The aborted request's span.
        span: SpanId,
    },
    /// A transport link was torn down (emitted by readiness-driven
    /// hosts; the only place the transport reports a teardown).
    LinkDown {
        /// The node observing the teardown.
        node: NodeId,
        /// The peer on the other end, when the link had identified
        /// itself (`None` for inbound connections that died before the
        /// hello frame arrived).
        peer: Option<NodeId>,
        /// Why the link went down.
        reason: LinkDownReason,
    },
}

/// Why a transport link was torn down — the closed vocabulary behind
/// [`ProtocolEvent::LinkDown`], stable for metrics labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkDownReason {
    /// A write on an established outbound link failed.
    WriteFailed,
    /// A read on an inbound connection failed.
    ReadFailed,
    /// The peer closed the connection (EOF).
    Eof,
    /// An incoming frame failed to decode.
    DecodeFailed,
    /// An outbound dial could not be started or completed.
    DialFailed,
    /// The socket reported an error/hangup readiness condition.
    Hangup,
}

impl LinkDownReason {
    /// Stable snake_case label (the JSONL `reason` field).
    pub fn label(self) -> &'static str {
        match self {
            LinkDownReason::WriteFailed => "write_failed",
            LinkDownReason::ReadFailed => "read_failed",
            LinkDownReason::Eof => "eof",
            LinkDownReason::DecodeFailed => "decode_failed",
            LinkDownReason::DialFailed => "dial_failed",
            LinkDownReason::Hangup => "hangup",
        }
    }
}

impl ProtocolEvent {
    /// Stable snake_case name, used as the JSONL `event` field and the
    /// Chrome-trace instant name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolEvent::RequestIssued { .. } => "request_issued",
            ProtocolEvent::RequestQueued { .. } => "request_queued",
            ProtocolEvent::RequestForwarded { .. } => "request_forwarded",
            ProtocolEvent::CopyGranted { .. } => "copy_granted",
            ProtocolEvent::CopyRevoked { .. } => "copy_revoked",
            ProtocolEvent::TokenSent { .. } => "token_sent",
            ProtocolEvent::TokenReceived { .. } => "token_received",
            ProtocolEvent::ReleaseSent { .. } => "release_sent",
            ProtocolEvent::ReleaseSuppressed { .. } => "release_suppressed",
            ProtocolEvent::Granted { .. } => "granted",
            ProtocolEvent::Released { .. } => "released",
            ProtocolEvent::RequestCancelled { .. } => "request_cancelled",
            ProtocolEvent::MessageSent { .. } => "message_sent",
            ProtocolEvent::Delivered { .. } => "delivered",
            ProtocolEvent::Dropped { .. } => "dropped",
            ProtocolEvent::RecoveryStarted { .. } => "recovery_started",
            ProtocolEvent::RecoveryCompleted { .. } => "recovery_completed",
            ProtocolEvent::TokenRegenerated { .. } => "token_regenerated",
            ProtocolEvent::StaleEpochFenced { .. } => "stale_epoch_fenced",
            ProtocolEvent::Backpressure { .. } => "backpressure",
            ProtocolEvent::RequestAborted { .. } => "request_aborted",
            ProtocolEvent::LinkDown { .. } => "link_down",
        }
    }

    /// The node at which the event was observed.
    pub fn node(&self) -> NodeId {
        match self {
            ProtocolEvent::RequestIssued { node, .. }
            | ProtocolEvent::RequestQueued { node, .. }
            | ProtocolEvent::RequestForwarded { node, .. }
            | ProtocolEvent::CopyGranted { node, .. }
            | ProtocolEvent::CopyRevoked { node, .. }
            | ProtocolEvent::TokenSent { node, .. }
            | ProtocolEvent::TokenReceived { node, .. }
            | ProtocolEvent::ReleaseSent { node, .. }
            | ProtocolEvent::ReleaseSuppressed { node, .. }
            | ProtocolEvent::Granted { node, .. }
            | ProtocolEvent::Released { node, .. }
            | ProtocolEvent::RequestCancelled { node, .. }
            | ProtocolEvent::MessageSent { node, .. }
            | ProtocolEvent::Delivered { node, .. }
            | ProtocolEvent::Dropped { node, .. }
            | ProtocolEvent::RecoveryStarted { node, .. }
            | ProtocolEvent::RecoveryCompleted { node, .. }
            | ProtocolEvent::TokenRegenerated { node, .. }
            | ProtocolEvent::StaleEpochFenced { node, .. }
            | ProtocolEvent::Backpressure { node, .. }
            | ProtocolEvent::RequestAborted { node, .. }
            | ProtocolEvent::LinkDown { node, .. } => *node,
        }
    }

    /// The span the event belongs to, if it is request-scoped.
    pub fn span(&self) -> Option<SpanId> {
        match self {
            ProtocolEvent::RequestIssued { span, .. }
            | ProtocolEvent::RequestQueued { span, .. }
            | ProtocolEvent::RequestForwarded { span, .. }
            | ProtocolEvent::CopyGranted { span, .. }
            | ProtocolEvent::TokenSent { span, .. }
            | ProtocolEvent::TokenReceived { span, .. }
            | ProtocolEvent::Granted { span, .. }
            | ProtocolEvent::RequestCancelled { span, .. }
            | ProtocolEvent::RequestAborted { span, .. } => Some(*span),
            _ => None,
        }
    }

    /// Whether this event opens its span (a request was issued).
    pub fn opens_span(&self) -> bool {
        matches!(self, ProtocolEvent::RequestIssued { .. })
    }

    /// Whether this event closes its span (grant, cancellation, or a
    /// crash/fence abort).
    pub fn closes_span(&self) -> bool {
        matches!(
            self,
            ProtocolEvent::Granted { .. }
                | ProtocolEvent::RequestCancelled { .. }
                | ProtocolEvent::RequestAborted { .. }
        )
    }

    /// Appends this event as one flat JSON object (no trailing newline).
    pub fn write_json(&self, at_micros: u64, out: &mut String) {
        use fmt::Write as _;
        let _ = write!(
            out,
            "{{\"at\":{},\"event\":\"{}\",\"node\":{}",
            at_micros,
            self.name(),
            self.node().0
        );
        let span_json = |out: &mut String, lock: &LockId, span: &SpanId| {
            let _ = write!(
                out,
                ",\"lock\":{},\"span_origin\":{},\"span_ticket\":{}",
                lock.0, span.origin.0, span.ticket.0
            );
        };
        fn owned_json(out: &mut String, key: &str, owned: &Option<Mode>) {
            use fmt::Write as _;
            match owned {
                Some(m) => {
                    let _ = write!(out, ",\"{key}\":\"{}\"", m.symbol());
                }
                None => {
                    let _ = write!(out, ",\"{key}\":null");
                }
            }
        }
        match self {
            ProtocolEvent::RequestIssued { lock, span, mode, priority, .. } => {
                span_json(out, lock, span);
                let _ = write!(out, ",\"mode\":\"{}\",\"priority\":{}", mode.symbol(), priority.0);
            }
            ProtocolEvent::RequestQueued { lock, span, mode, queue_depth, .. } => {
                span_json(out, lock, span);
                let _ =
                    write!(out, ",\"mode\":\"{}\",\"queue_depth\":{}", mode.symbol(), queue_depth);
            }
            ProtocolEvent::RequestForwarded { lock, span, mode, .. } => {
                span_json(out, lock, span);
                let _ = write!(out, ",\"mode\":\"{}\"", mode.symbol());
            }
            ProtocolEvent::CopyGranted { lock, span, mode, copyset_size, .. } => {
                span_json(out, lock, span);
                let _ = write!(
                    out,
                    ",\"mode\":\"{}\",\"copyset_size\":{}",
                    mode.symbol(),
                    copyset_size
                );
            }
            ProtocolEvent::CopyRevoked { lock, child, new_owned, .. } => {
                let _ = write!(out, ",\"lock\":{},\"child\":{}", lock.0, child.0);
                owned_json(out, "new_owned", new_owned);
            }
            ProtocolEvent::TokenSent { lock, span, mode, queue_len, .. } => {
                span_json(out, lock, span);
                let _ = write!(out, ",\"mode\":\"{}\",\"queue_len\":{}", mode.symbol(), queue_len);
            }
            ProtocolEvent::TokenReceived { lock, span, mode, .. } => {
                span_json(out, lock, span);
                let _ = write!(out, ",\"mode\":\"{}\"", mode.symbol());
            }
            ProtocolEvent::ReleaseSent { lock, new_owned, .. } => {
                let _ = write!(out, ",\"lock\":{}", lock.0);
                owned_json(out, "new_owned", new_owned);
            }
            ProtocolEvent::ReleaseSuppressed { lock, owned, .. } => {
                let _ = write!(out, ",\"lock\":{}", lock.0);
                owned_json(out, "owned", owned);
            }
            ProtocolEvent::Granted { lock, span, mode, .. } => {
                span_json(out, lock, span);
                let _ = write!(out, ",\"mode\":\"{}\"", mode.symbol());
            }
            ProtocolEvent::Released { lock, ticket, mode, .. } => {
                let _ = write!(
                    out,
                    ",\"lock\":{},\"ticket\":{},\"mode\":\"{}\"",
                    lock.0,
                    ticket.0,
                    mode.symbol()
                );
            }
            ProtocolEvent::RequestCancelled { lock, span, .. } => {
                span_json(out, lock, span);
            }
            ProtocolEvent::MessageSent { to, kind, .. } => {
                let _ = write!(out, ",\"to\":{},\"kind\":\"{}\"", to.0, kind.label());
            }
            ProtocolEvent::Delivered { from, kind, .. }
            | ProtocolEvent::Dropped { from, kind, .. } => {
                let _ = write!(out, ",\"from\":{},\"kind\":\"{}\"", from.0, kind.label());
            }
            ProtocolEvent::RecoveryStarted { epoch, dead, .. } => {
                let _ = write!(out, ",\"epoch\":{epoch},\"dead\":{dead}");
            }
            ProtocolEvent::RecoveryCompleted { epoch, .. } => {
                let _ = write!(out, ",\"epoch\":{epoch}");
            }
            ProtocolEvent::TokenRegenerated { lock, epoch, .. } => {
                let _ = write!(out, ",\"lock\":{},\"epoch\":{epoch}", lock.0);
            }
            ProtocolEvent::StaleEpochFenced { from, epoch, .. } => {
                let _ = write!(out, ",\"from\":{},\"epoch\":{epoch}", from.0);
            }
            ProtocolEvent::Backpressure { peer, dropped, .. } => {
                let _ = write!(out, ",\"peer\":{},\"dropped\":{dropped}", peer.0);
            }
            ProtocolEvent::RequestAborted { lock, span, .. } => {
                span_json(out, lock, span);
            }
            ProtocolEvent::LinkDown { peer, reason, .. } => {
                match peer {
                    Some(p) => {
                        let _ = write!(out, ",\"peer\":{}", p.0);
                    }
                    None => out.push_str(",\"peer\":null"),
                }
                let _ = write!(out, ",\"reason\":\"{}\"", reason.label());
            }
        }
        out.push('}');
    }
}

impl fmt::Display for ProtocolEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_json(0, &mut s);
        f.write_str(&s)
    }
}

/// Receives the event stream of a run, in dispatch order.
///
/// `at_micros` is host time: virtual microseconds in the simulator, `0`
/// in the model checker (which has no clock), wall-clock microseconds
/// since cluster start on the TCP transport.
pub trait Observer {
    /// Called once per event.
    fn on_event(&mut self, at_micros: u64, event: &ProtocolEvent);
}

/// Discards everything (the default observer).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn on_event(&mut self, _at_micros: u64, _event: &ProtocolEvent) {}
}

/// Forwards to a closure.
impl<F: FnMut(u64, &ProtocolEvent)> Observer for F {
    fn on_event(&mut self, at_micros: u64, event: &ProtocolEvent) {
        self(at_micros, event);
    }
}

/// Buffers every event in memory — the simplest sink, used by tests.
#[derive(Debug, Clone, Default)]
pub struct VecObserver {
    /// The observed `(at_micros, event)` pairs, in order.
    pub events: Vec<(u64, ProtocolEvent)>,
}

impl Observer for VecObserver {
    fn on_event(&mut self, at_micros: u64, event: &ProtocolEvent) {
        self.events.push((at_micros, event.clone()));
    }
}

/// A hybrid-logical-clock stamp, packed into one `u64`: the upper 48
/// bits are physical microseconds (host time), the lower 16 bits a
/// logical counter that breaks ties and carries causality when physical
/// clocks stall or run behind. Packed stamps compare correctly with
/// plain integer ordering, so they sort, merge and travel as varints on
/// the wire without any unpacking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Hlc(pub u64);

/// Widest physical component an [`Hlc`] can carry (48 bits of
/// microseconds ≈ 8.9 years of uptime).
const HLC_PHYS_MAX: u64 = (1 << 48) - 1;

impl Hlc {
    /// Packs a physical/logical pair (physical saturates at 48 bits).
    pub fn pack(physical_micros: u64, logical: u16) -> Hlc {
        Hlc((physical_micros.min(HLC_PHYS_MAX) << 16) | logical as u64)
    }

    /// The physical component, in microseconds of host time.
    pub fn physical_micros(self) -> u64 {
        self.0 >> 16
    }

    /// The logical (tie-breaking) component.
    pub fn logical(self) -> u16 {
        (self.0 & 0xffff) as u16
    }
}

impl fmt::Display for Hlc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.physical_micros(), self.logical())
    }
}

/// A hybrid logical clock (Kulkarni et al.): monotone, causally
/// consistent across nodes, and never further from physical time than
/// the true clock skew. [`HlcClock::tick`] stamps local events and
/// outgoing messages; [`HlcClock::observe`] folds a received stamp in so
/// every delivery is ordered after its send.
#[derive(Debug, Clone, Copy, Default)]
pub struct HlcClock {
    last: Hlc,
}

impl HlcClock {
    /// A clock at zero.
    pub fn new() -> Self {
        HlcClock::default()
    }

    /// The last stamp issued (zero before the first tick).
    pub fn now(&self) -> Hlc {
        self.last
    }

    fn advance(&mut self, physical: u64, logical: u32) -> Hlc {
        // Logical overflow spills into the physical component, keeping
        // the packed stamp strictly monotone.
        self.last = if logical > u16::MAX as u32 {
            Hlc::pack(physical + 1, 0)
        } else {
            Hlc::pack(physical, logical as u16)
        };
        self.last
    }

    /// Issues a stamp for a local event at host time `at_micros`.
    pub fn tick(&mut self, at_micros: u64) -> Hlc {
        let pt = at_micros.min(HLC_PHYS_MAX);
        let lp = self.last.physical_micros();
        if pt > lp {
            self.advance(pt, 0)
        } else {
            self.advance(lp, self.last.logical() as u32 + 1)
        }
    }

    /// Folds a remote stamp in (message receipt) and issues a stamp
    /// ordered strictly after both the remote stamp and every local one.
    pub fn observe(&mut self, remote: Hlc, at_micros: u64) -> Hlc {
        let pt = at_micros.min(HLC_PHYS_MAX);
        let lp = self.last.physical_micros();
        let rp = remote.physical_micros();
        let np = lp.max(rp).max(pt);
        let nl = if np == lp && np == rp {
            self.last.logical().max(remote.logical()) as u32 + 1
        } else if np == lp {
            self.last.logical() as u32 + 1
        } else if np == rp {
            remote.logical() as u32 + 1
        } else {
            0
        };
        self.advance(np, nl)
    }
}

/// Default flight-recorder capacity: the last 4096 events per node,
/// ~a few hundred KiB — enough tail to reconstruct the window around a
/// violation or crash without unbounded growth.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// A fixed-capacity per-node ring buffer of the most recent protocol
/// events, each stamped with a hybrid logical clock. Recording is a
/// clock tick plus a ring push — cheap enough to leave on in production
/// — and the buffer only materialises as JSONL when its owner,
/// [`crate::SharedAuditor`], dumps it (on demand, on crash, or on an
/// audit finding).
///
/// Dump lines are the events' flat JSON with one extra leading `"hlc"`
/// field, so the `timeline` merger can causally order lines across
/// nodes.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cap: usize,
    ring: std::collections::VecDeque<(Hlc, u64, ProtocolEvent)>,
    clock: HlcClock,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        FlightRecorder {
            cap: capacity,
            ring: std::collections::VecDeque::with_capacity(capacity.min(1024)),
            clock: HlcClock::new(),
            dropped: 0,
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The clock's latest stamp.
    pub fn now(&self) -> Hlc {
        self.clock.now()
    }

    /// Ticks the clock and records one event; returns the stamp.
    pub fn record(&mut self, at_micros: u64, event: &ProtocolEvent) -> Hlc {
        let h = self.clock.tick(at_micros);
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back((h, at_micros, event.clone()));
        h
    }

    /// Issues a stamp for an outgoing message (a bare clock tick).
    pub fn stamp_send(&mut self, at_micros: u64) -> Hlc {
        self.clock.tick(at_micros)
    }

    /// Folds the stamp of a received message into the clock.
    pub fn observe_remote(&mut self, remote: Hlc, at_micros: u64) -> Hlc {
        self.clock.observe(remote, at_micros)
    }

    /// Renders the retained window as JSONL, oldest first. Each line is
    /// the event's flat JSON with a leading `"hlc"` field spliced in.
    pub fn dump_jsonl(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let mut line = String::new();
        for (h, at, ev) in &self.ring {
            line.clear();
            ev.write_json(*at, &mut line);
            let _ = write!(out, "{{\"hlc\":{},", h.0);
            out.push_str(&line[1..]);
            out.push('\n');
        }
        out
    }
}

/// A fixed-capacity uniform sample of a value stream.
///
/// Exact (keeps everything) while at most `capacity` values have been
/// recorded; beyond that it degrades to a uniform random sample driven
/// by a deterministically seeded [`Rng`], so runs stay reproducible and
/// memory stays bounded — this replaces the previously unbounded
/// percentile buffers in the simulator's metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reservoir {
    cap: usize,
    samples: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
    rng: Rng,
}

/// Default reservoir capacity: exact percentiles for runs up to 1024
/// observations, ~8 KiB ceiling beyond.
pub const DEFAULT_RESERVOIR_CAPACITY: usize = 1024;

impl Default for Reservoir {
    fn default() -> Self {
        Reservoir::with_capacity(DEFAULT_RESERVOIR_CAPACITY)
    }
}

impl Reservoir {
    /// A reservoir keeping at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Reservoir {
            cap: capacity,
            samples: Vec::new(),
            count: 0,
            sum: 0,
            max: 0,
            rng: Rng::new(capacity as u64),
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
        if self.samples.len() < self.cap {
            self.samples.push(value);
        } else {
            let j = self.rng.below(self.count);
            if (j as usize) < self.cap {
                self.samples[j as usize] = value;
            }
        }
    }

    /// Values ever recorded (≥ retained sample count).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of every recorded value.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean over *all* recorded values (not just the sample).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`0.0 ..= 1.0`) of the retained sample;
    /// exact when fewer than `capacity` values were recorded.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&p), "percentile must be within [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
        Some(sorted[idx])
    }

    /// Folds another reservoir in. Sums, counts and maxima combine
    /// exactly; the retained sample is the concatenation when it fits,
    /// otherwise a deterministic uniform subsample of both.
    pub fn merge(&mut self, other: &Reservoir) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        if self.samples.len() + other.samples.len() <= self.cap {
            self.samples.extend_from_slice(&other.samples);
            return;
        }
        self.samples.extend_from_slice(&other.samples);
        // Deterministic Fisher–Yates prefix shuffle, then truncate: every
        // retained sample survives with equal probability.
        let n = self.samples.len();
        for i in 0..self.cap.min(n) {
            let j = i + self.rng.index(n - i);
            self.samples.swap(i, j);
        }
        self.samples.truncate(self.cap);
    }
}

/// Per-shard runtime gauges, read from a sharded host's
/// `ShardedNodeHandle::shard_gauges`.
///
/// `queue_depth` is a last-observed gauge; `routed` and `parks` are
/// cumulative counters maintained by the host (the deterministic
/// [`crate::ShardedSpace`] or a parallel shard worker thread).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardGauges {
    /// Last observed depth of the shard's inbound queue.
    pub queue_depth: u64,
    /// Messages routed into the shard since start.
    pub routed: u64,
    /// Times the shard's worker parked on an empty queue.
    pub parks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(o: u32, t: u64) -> SpanId {
        SpanId::new(NodeId(o), Ticket(t))
    }

    fn issued(o: u32, t: u64) -> ProtocolEvent {
        ProtocolEvent::RequestIssued {
            node: NodeId(o),
            lock: LockId(0),
            span: span(o, t),
            mode: Mode::Read,
            priority: Priority::NORMAL,
        }
    }

    fn granted(o: u32, t: u64) -> ProtocolEvent {
        ProtocolEvent::Granted {
            node: NodeId(o),
            lock: LockId(0),
            span: span(o, t),
            mode: Mode::Read,
        }
    }

    #[test]
    fn span_id_packs_and_displays() {
        let s = span(3, 7);
        assert_eq!(s.as_u64(), (3u64 << 32) | 7);
        assert_eq!(s.to_string(), "n3/t7");
    }

    #[test]
    fn event_json_is_flat_and_named() {
        let mut out = String::new();
        issued(1, 2).write_json(5, &mut out);
        assert!(out.starts_with("{\"at\":5,\"event\":\"request_issued\",\"node\":1"));
        assert!(out.contains("\"span_origin\":1"));
        assert!(out.contains("\"span_ticket\":2"));
        assert!(out.contains("\"mode\":\"R\""));
        assert!(out.ends_with('}'));
    }

    #[test]
    fn reservoir_is_exact_below_capacity() {
        let mut r = Reservoir::with_capacity(128);
        for v in 1..=100u64 {
            r.record(v);
        }
        assert_eq!(r.count(), 100);
        assert_eq!(r.max(), 100);
        assert_eq!(r.percentile(0.0), Some(1));
        assert_eq!(r.percentile(1.0), Some(100));
        // idx = round(99 * 0.5) = 50 → the 51st smallest sample.
        assert_eq!(r.percentile(0.5), Some(51));
        assert!((r.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn reservoir_stays_bounded_and_plausible() {
        let mut r = Reservoir::with_capacity(64);
        for v in 0..10_000u64 {
            r.record(v);
        }
        assert_eq!(r.count(), 10_000);
        assert_eq!(r.max(), 9_999);
        let p50 = r.percentile(0.5).unwrap();
        // A uniform sample of a uniform stream: the median should land
        // well inside the middle half.
        assert!(p50 > 1_000 && p50 < 9_000, "implausible p50 {p50}");
    }

    #[test]
    fn reservoir_merge_is_exact_when_it_fits() {
        let mut a = Reservoir::with_capacity(64);
        let mut b = Reservoir::with_capacity(64);
        for v in 1..=10u64 {
            a.record(v);
            b.record(v + 10);
        }
        a.merge(&b);
        assert_eq!(a.count(), 20);
        assert_eq!(a.percentile(1.0), Some(20));
        assert_eq!(a.sum(), (1..=20u128).sum::<u128>());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_reservoir_panics() {
        let _ = Reservoir::with_capacity(0);
    }

    /// The meter, as the event-fed metrics registry, times a span from
    /// `request_issued` to its closing `granted`. A forwarding hop is
    /// neither a request nor a grant: token hops are not counted.
    #[test]
    fn registry_tracks_latency_and_hops() {
        let mut reg = crate::Meter::new();
        reg.on_event(100, &issued(0, 1));
        reg.on_event(
            150,
            &ProtocolEvent::RequestForwarded {
                node: NodeId(1),
                lock: LockId(0),
                span: span(0, 1),
                mode: Mode::Read,
            },
        );
        reg.on_event(400, &granted(0, 1));
        let lat = reg.latency_of(Mode::Read);
        assert_eq!(lat.count(), 1);
        assert_eq!(lat.percentile(0.5), Some(300));
        assert_eq!(reg.total_requests(), 1);
        assert_eq!(reg.total_grants(), 1);
        assert_eq!(reg.total_messages(), 0);
        let text = reg.render();
        assert!(text.contains("hlock_request_to_grant_micros{mode=\"R\",quantile=\"0.5\"} 300"));
        assert!(text.contains("hlock_grants_total{mode=\"R\"} 1"));
    }

    /// `message_sent` is counted by kind and sender. A suppressed release
    /// sends nothing, so it adds no message.
    #[test]
    fn registry_counts_messages_and_suppressions() {
        let mut reg = crate::Meter::new();
        reg.on_event(
            0,
            &ProtocolEvent::MessageSent {
                node: NodeId(0),
                to: NodeId(1),
                kind: MessageKind::Request,
            },
        );
        reg.on_event(
            0,
            &ProtocolEvent::ReleaseSuppressed { node: NodeId(0), lock: LockId(0), owned: None },
        );
        assert_eq!(reg.messages_of_kind(MessageKind::Request), 1);
        assert_eq!(reg.messages_of_kind(MessageKind::Release), 0);
        assert_eq!(reg.messages_sent_by(NodeId(0)), 1);
        assert_eq!(reg.total_messages(), 1);
        let text = reg.render();
        assert!(text.contains("hlock_messages_total{kind=\"request\"} 1"));
    }

    #[test]
    fn hlc_tick_is_monotone_even_when_time_stalls() {
        let mut c = HlcClock::new();
        let a = c.tick(100);
        let b = c.tick(100);
        let d = c.tick(50); // physical time went backwards
        let e = c.tick(200);
        assert!(a < b && b < d && d < e);
        assert_eq!(a.physical_micros(), 100);
        assert_eq!(b.logical(), a.logical() + 1);
        assert_eq!(e, Hlc::pack(200, 0));
    }

    #[test]
    fn hlc_observe_orders_delivery_after_send() {
        let mut sender = HlcClock::new();
        let mut receiver = HlcClock::new();
        let wire = sender.tick(1_000); // sender's clock is far ahead
        let rx = receiver.observe(wire, 10); // receiver's lags behind
        assert!(rx > wire, "delivery stamp must exceed the send stamp");
        let next = receiver.tick(11);
        assert!(next > rx);
    }

    #[test]
    fn hlc_logical_overflow_spills_into_physical() {
        let mut c = HlcClock::new();
        c.tick(7);
        for _ in 0..u16::MAX {
            c.tick(7);
        }
        assert_eq!(c.now(), Hlc::pack(7, u16::MAX));
        let spilled = c.tick(7);
        assert_eq!(spilled, Hlc::pack(8, 0));
    }

    #[test]
    fn flight_recorder_keeps_a_bounded_stamped_tail() {
        let mut rec = FlightRecorder::new(4);
        for t in 0..10u64 {
            rec.record(t, &issued(0, t));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let dump = rec.dump_jsonl();
        assert_eq!(dump.lines().count(), 4);
        // Oldest retained line is the 7th event (t=6); hlc leads.
        let first = dump.lines().next().unwrap();
        assert!(first.starts_with("{\"hlc\":"), "dump line: {first}");
        assert!(first.contains("\"at\":6"));
        // Stamps are strictly increasing down the dump.
        let stamps: Vec<u64> = dump
            .lines()
            .map(|l| {
                let rest = &l["{\"hlc\":".len()..];
                rest[..rest.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn aborted_event_closes_span_and_counts() {
        let aborted =
            ProtocolEvent::RequestAborted { node: NodeId(0), lock: LockId(0), span: span(0, 1) };
        assert!(aborted.closes_span());
        let evs = [issued(0, 1), aborted.clone()];
        assert_eq!(crate::InvariantAuditor::audit_stream(&evs), vec![]);
        let mut meter = crate::Meter::new();
        meter.on_event(0, &issued(0, 1));
        meter.on_event(10, &aborted);
        meter.on_event(20, &granted(0, 1));
        assert_eq!(meter.total_requests(), 1);
        assert_eq!(meter.total_grants(), 0, "aborts must not record grant latency");
        let mut json = String::new();
        aborted.write_json(10, &mut json);
        assert!(json.contains("\"event\":\"request_aborted\""));
        assert!(json.contains("\"span_origin\":0"));
    }

    #[test]
    fn link_down_renders_reason_and_counts() {
        let ev = ProtocolEvent::LinkDown {
            node: NodeId(2),
            peer: Some(NodeId(5)),
            reason: LinkDownReason::Eof,
        };
        let mut json = String::new();
        ev.write_json(1, &mut json);
        assert!(json.contains("\"event\":\"link_down\""));
        assert!(json.contains("\"peer\":5"));
        assert!(json.contains("\"reason\":\"eof\""));
        let anon = ProtocolEvent::LinkDown {
            node: NodeId(2),
            peer: None,
            reason: LinkDownReason::DecodeFailed,
        };
        let mut json = String::new();
        anon.write_json(1, &mut json);
        assert!(json.contains("\"peer\":null"));
        let mut json = String::new();
        ProtocolEvent::Backpressure { node: NodeId(0), peer: NodeId(3), dropped: 64 }
            .write_json(10, &mut json);
        assert!(json.contains("\"event\":\"backpressure\""));
        assert!(json.contains("\"peer\":3"));
        assert!(json.contains("\"dropped\":64"));
    }

    #[test]
    fn render_includes_p999_quantile() {
        let mut meter = crate::Meter::new();
        for t in 0..100u64 {
            meter.on_event(t, &issued(0, t));
            meter.on_event(t + 1, &granted(0, t));
        }
        let text = meter.render();
        assert!(text.contains("quantile=\"0.999\""), "missing p99.9 in:\n{text}");
    }

    #[test]
    fn null_and_vec_observers() {
        let mut null = NullObserver;
        null.on_event(0, &issued(0, 1));
        let mut v = VecObserver::default();
        v.on_event(7, &issued(0, 1));
        assert_eq!(v.events.len(), 1);
        assert_eq!(v.events[0].0, 7);
        let mut n = 0u32;
        {
            let mut f = |_at: u64, _e: &ProtocolEvent| n += 1;
            f.on_event(0, &granted(0, 1));
        }
        assert_eq!(n, 1);
    }
}
