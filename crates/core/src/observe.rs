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
//! * [`MetricsRegistry`] — Prometheus-text counters, gauges and
//!   reservoir-sampled histograms, served by the TCP runtime's
//!   `/metrics` listener and dumped at exit by the bench binaries.

use crate::ids::{LockId, NodeId, Priority, Ticket};
use crate::message::MessageKind;
use crate::mode::{Mode, ModeSet, ALL_MODES};
use crate::rng::Rng;
use crate::runtime::RuntimeCounters;
use core::fmt;
use std::collections::HashMap;

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
/// the effect sink); the `MessageSent` / `Delivered` / `Dropped` /
/// `TimerFired` group is emitted by the host runtime and the hosts, so
/// every host counts transport activity identically.
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
    /// Modes were frozen at the observing node (Rule 6).
    ModeFrozen {
        /// Observing node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The modes newly frozen.
        modes: ModeSet,
    },
    /// The observing node's frozen set was replaced (unfreeze
    /// propagation); `modes` is the *remaining* frozen set.
    ModeUnfrozen {
        /// Observing node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The frozen set still in effect (often empty).
        modes: ModeSet,
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
    /// The observing node switched parents (its grant arrived from a
    /// node other than the one it had reported ownership to).
    PathReversal {
        /// Observing node.
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The parent being replaced.
        old_parent: NodeId,
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
    /// An [`crate::audit_at_rest`] finding, reported through the event
    /// stream by the simulator / model checker at quiescence.
    AuditViolation {
        /// Node reporting the audit (host-chosen; `NodeId(0)` for
        /// whole-system audits).
        node: NodeId,
        /// Lock concerned.
        lock: LockId,
        /// The finding's invariant label and description,
        /// `"<invariant>: <detail>"`.
        detail: String,
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
    /// A protocol timer fired at the observing node (emitted by hosts).
    TimerFired {
        /// Observing node.
        node: NodeId,
        /// The protocol's correlation token.
        token: u64,
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
    /// All reasons, in label order — sizes metrics arrays.
    pub const ALL: [LinkDownReason; 6] = [
        LinkDownReason::WriteFailed,
        LinkDownReason::ReadFailed,
        LinkDownReason::Eof,
        LinkDownReason::DecodeFailed,
        LinkDownReason::DialFailed,
        LinkDownReason::Hangup,
    ];

    /// Stable snake_case label (JSONL `reason` field, metrics label).
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
            ProtocolEvent::ModeFrozen { .. } => "mode_frozen",
            ProtocolEvent::ModeUnfrozen { .. } => "mode_unfrozen",
            ProtocolEvent::ReleaseSent { .. } => "release_sent",
            ProtocolEvent::ReleaseSuppressed { .. } => "release_suppressed",
            ProtocolEvent::PathReversal { .. } => "path_reversal",
            ProtocolEvent::Granted { .. } => "granted",
            ProtocolEvent::Released { .. } => "released",
            ProtocolEvent::RequestCancelled { .. } => "request_cancelled",
            ProtocolEvent::AuditViolation { .. } => "audit_violation",
            ProtocolEvent::MessageSent { .. } => "message_sent",
            ProtocolEvent::Delivered { .. } => "delivered",
            ProtocolEvent::Dropped { .. } => "dropped",
            ProtocolEvent::TimerFired { .. } => "timer_fired",
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
            | ProtocolEvent::ModeFrozen { node, .. }
            | ProtocolEvent::ModeUnfrozen { node, .. }
            | ProtocolEvent::ReleaseSent { node, .. }
            | ProtocolEvent::ReleaseSuppressed { node, .. }
            | ProtocolEvent::PathReversal { node, .. }
            | ProtocolEvent::Granted { node, .. }
            | ProtocolEvent::Released { node, .. }
            | ProtocolEvent::RequestCancelled { node, .. }
            | ProtocolEvent::AuditViolation { node, .. }
            | ProtocolEvent::MessageSent { node, .. }
            | ProtocolEvent::Delivered { node, .. }
            | ProtocolEvent::Dropped { node, .. }
            | ProtocolEvent::TimerFired { node, .. }
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
            ProtocolEvent::ModeFrozen { lock, modes, .. }
            | ProtocolEvent::ModeUnfrozen { lock, modes, .. } => {
                let _ = write!(out, ",\"lock\":{},\"modes\":", lock.0);
                push_json_str(out, &modes.to_string());
            }
            ProtocolEvent::ReleaseSent { lock, new_owned, .. } => {
                let _ = write!(out, ",\"lock\":{}", lock.0);
                owned_json(out, "new_owned", new_owned);
            }
            ProtocolEvent::ReleaseSuppressed { lock, owned, .. } => {
                let _ = write!(out, ",\"lock\":{}", lock.0);
                owned_json(out, "owned", owned);
            }
            ProtocolEvent::PathReversal { lock, old_parent, .. } => {
                let _ = write!(out, ",\"lock\":{},\"old_parent\":{}", lock.0, old_parent.0);
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
            ProtocolEvent::AuditViolation { lock, detail, .. } => {
                let _ = write!(out, ",\"lock\":{},\"detail\":", lock.0);
                push_json_str(out, detail);
            }
            ProtocolEvent::MessageSent { to, kind, .. } => {
                let _ = write!(out, ",\"to\":{},\"kind\":\"{}\"", to.0, kind.label());
            }
            ProtocolEvent::Delivered { from, kind, .. }
            | ProtocolEvent::Dropped { from, kind, .. } => {
                let _ = write!(out, ",\"from\":{},\"kind\":\"{}\"", from.0, kind.label());
            }
            ProtocolEvent::TimerFired { token, .. } => {
                let _ = write!(out, ",\"token\":{token}");
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

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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

/// Number of message kinds — sizes the per-kind counter arrays.
const KIND_COUNT: usize = MessageKind::ALL.len();

fn kind_index(kind: MessageKind) -> usize {
    MessageKind::ALL.iter().position(|k| *k == kind).unwrap_or(0)
}

fn mode_index(mode: Mode) -> usize {
    mode.wire_tag() as usize
}

#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    start: u64,
    mode: Mode,
    hops: u64,
}

/// Per-shard runtime gauges snapshotted by sharded hosts via
/// [`MetricsRegistry::record_shard`].
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

/// An [`Observer`] that aggregates the event stream into Prometheus-text
/// metrics: counters (messages by kind, releases suppressed vs. sent,
/// grants by mode), last-observed gauges (local queue depth and copyset
/// size per node), and reservoir-sampled histograms (request-to-grant
/// latency by mode, freeze duration, token hops per grant).
///
/// Gauges hold the *last observed* value per node — they update when the
/// corresponding event fires, not continuously. Host runtimes fold their
/// [`RuntimeCounters`] in via [`MetricsRegistry::record_runtime`], so
/// frame/coalesce accounting lands in `/metrics` too. Per-node registries
/// combine with [`MetricsRegistry::merge`].
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    messages_by_kind: [u64; KIND_COUNT],
    delivered_by_kind: [u64; KIND_COUNT],
    dropped_by_kind: [u64; KIND_COUNT],
    releases_sent: u64,
    releases_suppressed: u64,
    grants_by_mode: [u64; 5],
    cancellations: u64,
    path_reversals: u64,
    timers_fired: u64,
    audit_violations: u64,
    recoveries_started: u64,
    recoveries_completed: u64,
    recovery_epoch: u64,
    token_regenerations: u64,
    fenced: u64,
    backpressure_drops: u64,
    backpressure_bytes: u64,
    aborts: u64,
    link_down: [u64; LinkDownReason::ALL.len()],
    queue_depth: HashMap<u32, u64>,
    copyset_size: HashMap<u32, u64>,
    latency_by_mode: [Option<Reservoir>; 5],
    freeze_duration: Option<Reservoir>,
    token_hops: Option<Reservoir>,
    recovery_latency: Option<Reservoir>,
    open_spans: HashMap<SpanId, OpenSpan>,
    freeze_since: HashMap<u32, u64>,
    recovery_since: HashMap<u32, u64>,
    runtime: RuntimeCounters,
    shard_gauges: Vec<ShardGauges>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Snapshots a host runtime's counters into the registry (replaces
    /// the previous snapshot — [`RuntimeCounters`] are cumulative).
    pub fn record_runtime(&mut self, counters: &RuntimeCounters) {
        self.runtime = *counters;
    }

    /// Snapshots one shard's gauges (replaces the previous snapshot for
    /// that shard index — the values are cumulative on the host side).
    pub fn record_shard(&mut self, shard: usize, gauges: ShardGauges) {
        if self.shard_gauges.len() <= shard {
            self.shard_gauges.resize(shard + 1, ShardGauges::default());
        }
        self.shard_gauges[shard] = gauges;
    }

    /// The recorded per-shard gauges, indexed by shard (empty when the
    /// host is unsharded).
    pub fn shard_gauges(&self) -> &[ShardGauges] {
        &self.shard_gauges
    }

    /// Messages sent, by kind (indexed per [`MessageKind::ALL`]).
    pub fn messages_by_kind(&self) -> &[u64; KIND_COUNT] {
        &self.messages_by_kind
    }

    /// Recovery rounds started / completed, as observed across nodes.
    pub fn recoveries(&self) -> (u64, u64) {
        (self.recoveries_started, self.recoveries_completed)
    }

    /// The highest installed recovery epoch observed.
    pub fn recovery_epoch(&self) -> u64 {
        self.recovery_epoch
    }

    /// Messages fenced for carrying a stale epoch.
    pub fn fenced_total(&self) -> u64 {
        self.fenced
    }

    /// Frames dropped (and their total bytes) because a transport
    /// outbox hit its bound.
    pub fn backpressure(&self) -> (u64, u64) {
        (self.backpressure_drops, self.backpressure_bytes)
    }

    /// Requests aborted by node death or epoch fencing.
    pub fn aborts_total(&self) -> u64 {
        self.aborts
    }

    /// Transport link teardowns, summed over reasons.
    pub fn link_down_total(&self) -> u64 {
        self.link_down.iter().sum()
    }

    /// Releases suppressed by Rule 5.2.
    pub fn releases_suppressed(&self) -> u64 {
        self.releases_suppressed
    }

    /// Grants observed, summed over modes.
    pub fn grants_total(&self) -> u64 {
        self.grants_by_mode.iter().sum()
    }

    /// Audit findings routed through the event stream.
    pub fn audit_violations(&self) -> u64 {
        self.audit_violations
    }

    /// The request-to-grant latency reservoir for `mode`, if any grant
    /// of that mode was observed.
    pub fn latency(&self, mode: Mode) -> Option<&Reservoir> {
        self.latency_by_mode[mode_index(mode)].as_ref()
    }

    /// Token hops (forward + transfer messages) per granted request.
    pub fn token_hops(&self) -> Option<&Reservoir> {
        self.token_hops.as_ref()
    }

    /// Folds another registry in (counters add, gauges union by node,
    /// reservoirs merge, runtime counters add field-wise).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for i in 0..KIND_COUNT {
            self.messages_by_kind[i] += other.messages_by_kind[i];
            self.delivered_by_kind[i] += other.delivered_by_kind[i];
            self.dropped_by_kind[i] += other.dropped_by_kind[i];
        }
        self.releases_sent += other.releases_sent;
        self.releases_suppressed += other.releases_suppressed;
        for i in 0..5 {
            self.grants_by_mode[i] += other.grants_by_mode[i];
        }
        self.cancellations += other.cancellations;
        self.path_reversals += other.path_reversals;
        self.timers_fired += other.timers_fired;
        self.audit_violations += other.audit_violations;
        self.recoveries_started += other.recoveries_started;
        self.recoveries_completed += other.recoveries_completed;
        self.recovery_epoch = self.recovery_epoch.max(other.recovery_epoch);
        self.token_regenerations += other.token_regenerations;
        self.fenced += other.fenced;
        self.backpressure_drops += other.backpressure_drops;
        self.backpressure_bytes += other.backpressure_bytes;
        self.aborts += other.aborts;
        for i in 0..self.link_down.len() {
            self.link_down[i] += other.link_down[i];
        }
        if let Some(theirs) = &other.recovery_latency {
            self.recovery_latency.get_or_insert_with(Reservoir::default).merge(theirs);
        }
        for (&n, &v) in &other.queue_depth {
            self.queue_depth.insert(n, v);
        }
        for (&n, &v) in &other.copyset_size {
            self.copyset_size.insert(n, v);
        }
        for i in 0..5 {
            if let Some(theirs) = &other.latency_by_mode[i] {
                self.latency_by_mode[i].get_or_insert_with(Reservoir::default).merge(theirs);
            }
        }
        if let Some(theirs) = &other.freeze_duration {
            self.freeze_duration.get_or_insert_with(Reservoir::default).merge(theirs);
        }
        if let Some(theirs) = &other.token_hops {
            self.token_hops.get_or_insert_with(Reservoir::default).merge(theirs);
        }
        self.runtime.absorb(&other.runtime);
        if self.shard_gauges.len() < other.shard_gauges.len() {
            self.shard_gauges.resize(other.shard_gauges.len(), ShardGauges::default());
        }
        for (mine, theirs) in self.shard_gauges.iter_mut().zip(&other.shard_gauges) {
            mine.queue_depth = mine.queue_depth.max(theirs.queue_depth);
            mine.routed += theirs.routed;
            mine.parks += theirs.parks;
        }
    }

    /// Renders the registry in the Prometheus text exposition format.
    /// Histograms render as summaries (quantiles 0.5 / 0.9 / 0.99 /
    /// 0.999 plus `_sum` and `_count`).
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let counter = |out: &mut String, name: &str, help: &str| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
        };

        counter(&mut out, "hlock_messages_total", "Protocol messages sent, by kind.");
        for (i, k) in MessageKind::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "hlock_messages_total{{kind=\"{}\"}} {}",
                k.label(),
                self.messages_by_kind[i]
            );
        }
        counter(&mut out, "hlock_delivered_total", "Messages delivered, by kind.");
        for (i, k) in MessageKind::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "hlock_delivered_total{{kind=\"{}\"}} {}",
                k.label(),
                self.delivered_by_kind[i]
            );
        }
        counter(&mut out, "hlock_dropped_total", "Messages dropped by fault injection, by kind.");
        for (i, k) in MessageKind::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "hlock_dropped_total{{kind=\"{}\"}} {}",
                k.label(),
                self.dropped_by_kind[i]
            );
        }
        counter(&mut out, "hlock_releases_sent_total", "Release notifications sent to parents.");
        let _ = writeln!(out, "hlock_releases_sent_total {}", self.releases_sent);
        counter(
            &mut out,
            "hlock_releases_suppressed_total",
            "Releases suppressed because the owned mode was unchanged (Rule 5.2).",
        );
        let _ = writeln!(out, "hlock_releases_suppressed_total {}", self.releases_suppressed);
        counter(&mut out, "hlock_grants_total", "Local grants, by granted mode.");
        for m in ALL_MODES {
            let _ = writeln!(
                out,
                "hlock_grants_total{{mode=\"{}\"}} {}",
                m.symbol(),
                self.grants_by_mode[mode_index(m)]
            );
        }
        counter(&mut out, "hlock_cancellations_total", "Requests cancelled before grant.");
        let _ = writeln!(out, "hlock_cancellations_total {}", self.cancellations);
        counter(&mut out, "hlock_path_reversals_total", "Parent-pointer reversals observed.");
        let _ = writeln!(out, "hlock_path_reversals_total {}", self.path_reversals);
        counter(&mut out, "hlock_timers_fired_total", "Protocol timers fired.");
        let _ = writeln!(out, "hlock_timers_fired_total {}", self.timers_fired);
        counter(&mut out, "hlock_audit_violations_total", "Quiescence audit findings.");
        let _ = writeln!(out, "hlock_audit_violations_total {}", self.audit_violations);
        counter(&mut out, "hlock_recoveries_started_total", "Recovery rounds started.");
        let _ = writeln!(out, "hlock_recoveries_started_total {}", self.recoveries_started);
        counter(
            &mut out,
            "hlock_recoveries_completed_total",
            "Recovery installs applied (epoch rebuilds completed).",
        );
        let _ = writeln!(out, "hlock_recoveries_completed_total {}", self.recoveries_completed);
        counter(
            &mut out,
            "hlock_token_regenerations_total",
            "Tokens regenerated because their holder died.",
        );
        let _ = writeln!(out, "hlock_token_regenerations_total {}", self.token_regenerations);
        counter(&mut out, "hlock_fenced_total", "Incoming messages fenced for a stale epoch.");
        let _ = writeln!(out, "hlock_fenced_total {}", self.fenced);
        counter(
            &mut out,
            "hlock_backpressure_drops_total",
            "Frames dropped because a transport outbox hit its bound.",
        );
        let _ = writeln!(out, "hlock_backpressure_drops_total {}", self.backpressure_drops);
        counter(
            &mut out,
            "hlock_backpressure_bytes_total",
            "Bytes of frames dropped to outbox backpressure.",
        );
        let _ = writeln!(out, "hlock_backpressure_bytes_total {}", self.backpressure_bytes);
        counter(&mut out, "hlock_aborts_total", "Requests aborted by node death or epoch fencing.");
        let _ = writeln!(out, "hlock_aborts_total {}", self.aborts);
        counter(&mut out, "hlock_link_down_total", "Transport link teardowns, by reason.");
        for (i, r) in LinkDownReason::ALL.iter().enumerate() {
            let _ = writeln!(
                out,
                "hlock_link_down_total{{reason=\"{}\"}} {}",
                r.label(),
                self.link_down[i]
            );
        }
        let _ = writeln!(out, "# HELP hlock_recovery_epoch Highest installed recovery epoch.");
        let _ = writeln!(out, "# TYPE hlock_recovery_epoch gauge");
        let _ = writeln!(out, "hlock_recovery_epoch {}", self.recovery_epoch);

        let _ =
            writeln!(out, "# HELP hlock_queue_depth Local request queue depth (last observed).");
        let _ = writeln!(out, "# TYPE hlock_queue_depth gauge");
        let mut nodes: Vec<&u32> = self.queue_depth.keys().collect();
        nodes.sort_unstable();
        for n in nodes {
            let _ = writeln!(out, "hlock_queue_depth{{node=\"{n}\"}} {}", self.queue_depth[n]);
        }
        let _ = writeln!(out, "# HELP hlock_copyset_size Copyset size (last observed).");
        let _ = writeln!(out, "# TYPE hlock_copyset_size gauge");
        let mut nodes: Vec<&u32> = self.copyset_size.keys().collect();
        nodes.sort_unstable();
        for n in nodes {
            let _ = writeln!(out, "hlock_copyset_size{{node=\"{n}\"}} {}", self.copyset_size[n]);
        }

        let summary = |out: &mut String, name: &str, help: &str, labels: &str, r: &Reservoir| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} summary");
            let sep = if labels.is_empty() { "" } else { "," };
            for q in [0.5, 0.9, 0.99, 0.999] {
                if let Some(v) = r.percentile(q) {
                    let _ = writeln!(out, "{name}{{{labels}{sep}quantile=\"{q}\"}} {v}");
                }
            }
            if labels.is_empty() {
                let _ = writeln!(out, "{name}_sum {}", r.sum());
                let _ = writeln!(out, "{name}_count {}", r.count());
            } else {
                let _ = writeln!(out, "{name}_sum{{{labels}}} {}", r.sum());
                let _ = writeln!(out, "{name}_count{{{labels}}} {}", r.count());
            }
        };
        for m in ALL_MODES {
            if let Some(r) = &self.latency_by_mode[mode_index(m)] {
                summary(
                    &mut out,
                    "hlock_request_to_grant_micros",
                    "Request-to-grant latency, by requested mode.",
                    &format!("mode=\"{}\"", m.symbol()),
                    r,
                );
            }
        }
        if let Some(r) = &self.freeze_duration {
            summary(
                &mut out,
                "hlock_freeze_duration_micros",
                "Time a node spent with a non-empty frozen set.",
                "",
                r,
            );
        }
        if let Some(r) = &self.token_hops {
            summary(
                &mut out,
                "hlock_token_hops",
                "Forward/transfer messages observed per granted request.",
                "",
                r,
            );
        }
        if let Some(r) = &self.recovery_latency {
            summary(
                &mut out,
                "hlock_recovery_latency_micros",
                "Suspicion-to-install latency per node per recovery round.",
                "",
                r,
            );
        }

        let _ =
            writeln!(out, "# HELP hlock_runtime_steps_total Effectful protocol steps dispatched.");
        let _ = writeln!(out, "# TYPE hlock_runtime_steps_total counter");
        let _ = writeln!(out, "hlock_runtime_steps_total {}", self.runtime.steps);
        let _ = writeln!(
            out,
            "# HELP hlock_runtime_logical_messages_total Logical messages dispatched."
        );
        let _ = writeln!(out, "# TYPE hlock_runtime_logical_messages_total counter");
        let _ =
            writeln!(out, "hlock_runtime_logical_messages_total {}", self.runtime.logical_messages);
        let _ = writeln!(out, "# HELP hlock_runtime_frames_total Coalesced frames dispatched.");
        let _ = writeln!(out, "# TYPE hlock_runtime_frames_total counter");
        let _ = writeln!(out, "hlock_runtime_frames_total {}", self.runtime.frames);
        let _ = writeln!(out, "# HELP hlock_runtime_max_batch Largest batch seen, in messages.");
        let _ = writeln!(out, "# TYPE hlock_runtime_max_batch gauge");
        let _ = writeln!(out, "hlock_runtime_max_batch {}", self.runtime.max_batch);
        let _ = writeln!(out, "# HELP hlock_coalesce_ratio Logical messages per frame.");
        let _ = writeln!(out, "# TYPE hlock_coalesce_ratio gauge");
        let _ = writeln!(out, "hlock_coalesce_ratio {}", self.runtime.coalesce_ratio());
        if !self.shard_gauges.is_empty() {
            let _ = writeln!(
                out,
                "# HELP hlock_shard_queue_depth Shard inbound queue depth (last observed)."
            );
            let _ = writeln!(out, "# TYPE hlock_shard_queue_depth gauge");
            for (s, g) in self.shard_gauges.iter().enumerate() {
                let _ = writeln!(out, "hlock_shard_queue_depth{{shard=\"{s}\"}} {}", g.queue_depth);
            }
            counter(&mut out, "hlock_shard_routed_total", "Messages routed to each shard.");
            for (s, g) in self.shard_gauges.iter().enumerate() {
                let _ = writeln!(out, "hlock_shard_routed_total{{shard=\"{s}\"}} {}", g.routed);
            }
            counter(&mut out, "hlock_shard_parks_total", "Shard worker parks on an empty queue.");
            for (s, g) in self.shard_gauges.iter().enumerate() {
                let _ = writeln!(out, "hlock_shard_parks_total{{shard=\"{s}\"}} {}", g.parks);
            }
        }
        out
    }
}

impl Observer for MetricsRegistry {
    fn on_event(&mut self, at_micros: u64, event: &ProtocolEvent) {
        match event {
            ProtocolEvent::RequestIssued { span, mode, .. } => {
                self.open_spans.insert(*span, OpenSpan { start: at_micros, mode: *mode, hops: 0 });
            }
            ProtocolEvent::RequestForwarded { span, .. }
            | ProtocolEvent::TokenSent { span, .. } => {
                if let Some(s) = self.open_spans.get_mut(span) {
                    s.hops += 1;
                }
            }
            ProtocolEvent::RequestQueued { node, queue_depth, .. } => {
                self.queue_depth.insert(node.0, *queue_depth as u64);
            }
            ProtocolEvent::CopyGranted { node, copyset_size, .. } => {
                self.copyset_size.insert(node.0, *copyset_size as u64);
            }
            ProtocolEvent::CopyRevoked { node, new_owned, .. } => {
                if new_owned.is_none() {
                    let g = self.copyset_size.entry(node.0).or_insert(0);
                    *g = g.saturating_sub(1);
                }
            }
            ProtocolEvent::Granted { span, mode, .. } => {
                self.grants_by_mode[mode_index(*mode)] += 1;
                if let Some(open) = self.open_spans.remove(span) {
                    self.latency_by_mode[mode_index(open.mode)]
                        .get_or_insert_with(Reservoir::default)
                        .record(at_micros.saturating_sub(open.start));
                    self.token_hops.get_or_insert_with(Reservoir::default).record(open.hops);
                }
            }
            ProtocolEvent::RequestCancelled { span, .. } => {
                self.cancellations += 1;
                self.open_spans.remove(span);
            }
            ProtocolEvent::ModeFrozen { node, .. } => {
                self.freeze_since.entry(node.0).or_insert(at_micros);
            }
            ProtocolEvent::ModeUnfrozen { node, modes, .. } => {
                if modes.is_empty() {
                    if let Some(since) = self.freeze_since.remove(&node.0) {
                        self.freeze_duration
                            .get_or_insert_with(Reservoir::default)
                            .record(at_micros.saturating_sub(since));
                    }
                }
            }
            ProtocolEvent::ReleaseSent { .. } => self.releases_sent += 1,
            ProtocolEvent::ReleaseSuppressed { .. } => self.releases_suppressed += 1,
            ProtocolEvent::PathReversal { .. } => self.path_reversals += 1,
            ProtocolEvent::AuditViolation { .. } => self.audit_violations += 1,
            ProtocolEvent::MessageSent { kind, .. } => {
                self.messages_by_kind[kind_index(*kind)] += 1;
            }
            ProtocolEvent::Delivered { kind, .. } => {
                self.delivered_by_kind[kind_index(*kind)] += 1;
            }
            ProtocolEvent::Dropped { kind, .. } => {
                self.dropped_by_kind[kind_index(*kind)] += 1;
            }
            ProtocolEvent::TimerFired { .. } => self.timers_fired += 1,
            ProtocolEvent::RecoveryStarted { node, .. } => {
                self.recoveries_started += 1;
                self.recovery_since.entry(node.0).or_insert(at_micros);
            }
            ProtocolEvent::RecoveryCompleted { node, epoch } => {
                self.recoveries_completed += 1;
                self.recovery_epoch = self.recovery_epoch.max(*epoch);
                if let Some(since) = self.recovery_since.remove(&node.0) {
                    self.recovery_latency
                        .get_or_insert_with(Reservoir::default)
                        .record(at_micros.saturating_sub(since));
                }
            }
            ProtocolEvent::TokenRegenerated { epoch, .. } => {
                self.token_regenerations += 1;
                self.recovery_epoch = self.recovery_epoch.max(*epoch);
            }
            ProtocolEvent::StaleEpochFenced { .. } => self.fenced += 1,
            ProtocolEvent::Backpressure { dropped, .. } => {
                self.backpressure_drops += 1;
                self.backpressure_bytes += *dropped;
            }
            ProtocolEvent::RequestAborted { span, .. } => {
                self.aborts += 1;
                self.open_spans.remove(span);
            }
            ProtocolEvent::LinkDown { reason, .. } => {
                let i = LinkDownReason::ALL.iter().position(|r| r == reason).unwrap_or(0);
                self.link_down[i] += 1;
            }
            ProtocolEvent::TokenReceived { .. } | ProtocolEvent::Released { .. } => {}
        }
    }
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
    fn json_strings_are_escaped() {
        let ev = ProtocolEvent::AuditViolation {
            node: NodeId(0),
            lock: LockId(1),
            detail: "bad \"state\"\nline2".into(),
        };
        let mut out = String::new();
        ev.write_json(0, &mut out);
        assert!(out.contains("bad \\\"state\\\"\\nline2"));
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

    #[test]
    fn registry_tracks_latency_and_hops() {
        let mut reg = MetricsRegistry::new();
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
        let lat = reg.latency(Mode::Read).unwrap();
        assert_eq!(lat.count(), 1);
        assert_eq!(lat.percentile(0.5), Some(300));
        assert_eq!(reg.token_hops().unwrap().percentile(0.5), Some(1));
        assert_eq!(reg.grants_total(), 1);
        let text = reg.render();
        assert!(text.contains("hlock_request_to_grant_micros{mode=\"R\",quantile=\"0.5\"} 300"));
        assert!(text.contains("hlock_grants_total{mode=\"R\"} 1"));
    }

    #[test]
    fn registry_counts_messages_and_suppressions() {
        let mut reg = MetricsRegistry::new();
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
        let text = reg.render();
        assert!(text.contains("hlock_messages_total{kind=\"request\"} 1"));
        assert!(text.contains("hlock_releases_suppressed_total 1"));
    }

    #[test]
    fn registry_merge_combines() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.on_event(0, &issued(0, 1));
        a.on_event(10, &granted(0, 1));
        b.on_event(0, &issued(1, 1));
        b.on_event(30, &granted(1, 1));
        let rt = RuntimeCounters { frames: 2, logical_messages: 4, ..Default::default() };
        a.record_runtime(&rt);
        b.record_runtime(&rt);
        a.merge(&b);
        assert_eq!(a.grants_total(), 2);
        assert_eq!(a.latency(Mode::Read).unwrap().count(), 2);
        let text = a.render();
        assert!(text.contains("hlock_runtime_frames_total 4"));
        assert!(text.contains("hlock_coalesce_ratio 2"));
    }

    #[test]
    fn shard_gauges_render_and_merge() {
        let mut a = MetricsRegistry::new();
        assert!(!a.render().contains("hlock_shard_queue_depth"), "unsharded hosts emit nothing");
        a.record_shard(0, ShardGauges { queue_depth: 3, routed: 10, parks: 2 });
        a.record_shard(1, ShardGauges { queue_depth: 1, routed: 4, parks: 0 });
        let mut b = MetricsRegistry::new();
        b.record_shard(1, ShardGauges { queue_depth: 7, routed: 6, parks: 5 });
        a.merge(&b);
        assert_eq!(a.shard_gauges()[0], ShardGauges { queue_depth: 3, routed: 10, parks: 2 });
        assert_eq!(a.shard_gauges()[1], ShardGauges { queue_depth: 7, routed: 10, parks: 5 });
        let text = a.render();
        assert!(text.contains("hlock_shard_queue_depth{shard=\"0\"} 3"));
        assert!(text.contains("hlock_shard_routed_total{shard=\"1\"} 10"));
        assert!(text.contains("hlock_shard_parks_total{shard=\"1\"} 5"));
    }

    #[test]
    fn freeze_duration_measured_between_freeze_and_empty_unfreeze() {
        let mut reg = MetricsRegistry::new();
        let modes = ModeSet::from_modes([Mode::Read]);
        reg.on_event(100, &ProtocolEvent::ModeFrozen { node: NodeId(2), lock: LockId(0), modes });
        reg.on_event(
            250,
            &ProtocolEvent::ModeUnfrozen {
                node: NodeId(2),
                lock: LockId(0),
                modes: ModeSet::EMPTY,
            },
        );
        let r = reg.freeze_duration.as_ref().unwrap();
        assert_eq!(r.count(), 1);
        assert_eq!(r.percentile(0.5), Some(150));
    }

    #[test]
    fn registry_tracks_recovery_lifecycle() {
        let mut reg = MetricsRegistry::new();
        reg.on_event(100, &ProtocolEvent::RecoveryStarted { node: NodeId(1), epoch: 1, dead: 1 });
        reg.on_event(
            130,
            &ProtocolEvent::TokenRegenerated { node: NodeId(1), lock: LockId(0), epoch: 1 },
        );
        reg.on_event(250, &ProtocolEvent::RecoveryCompleted { node: NodeId(1), epoch: 1 });
        reg.on_event(
            300,
            &ProtocolEvent::StaleEpochFenced { node: NodeId(1), from: NodeId(2), epoch: 0 },
        );
        assert_eq!(reg.recoveries(), (1, 1));
        assert_eq!(reg.recovery_epoch(), 1);
        assert_eq!(reg.fenced_total(), 1);
        let text = reg.render();
        assert!(text.contains("hlock_recoveries_started_total 1"));
        assert!(text.contains("hlock_recoveries_completed_total 1"));
        assert!(text.contains("hlock_token_regenerations_total 1"));
        assert!(text.contains("hlock_fenced_total 1"));
        assert!(text.contains("hlock_recovery_epoch 1"));
        assert!(text.contains("hlock_recovery_latency_micros_count 1"));
        assert!(text.contains("hlock_recovery_latency_micros_sum 150"));
    }

    #[test]
    fn registry_tracks_backpressure() {
        let mut reg = MetricsRegistry::new();
        reg.on_event(
            10,
            &ProtocolEvent::Backpressure { node: NodeId(0), peer: NodeId(3), dropped: 64 },
        );
        reg.on_event(
            20,
            &ProtocolEvent::Backpressure { node: NodeId(0), peer: NodeId(3), dropped: 36 },
        );
        assert_eq!(reg.backpressure(), (2, 100));
        let mut other = MetricsRegistry::new();
        other.on_event(
            30,
            &ProtocolEvent::Backpressure { node: NodeId(1), peer: NodeId(0), dropped: 1 },
        );
        reg.merge(&other);
        assert_eq!(reg.backpressure(), (3, 101));
        let text = reg.render();
        assert!(text.contains("hlock_backpressure_drops_total 3"));
        assert!(text.contains("hlock_backpressure_bytes_total 101"));
        let mut json = String::new();
        ProtocolEvent::Backpressure { node: NodeId(0), peer: NodeId(3), dropped: 64 }
            .write_json(10, &mut json);
        assert!(json.contains("\"event\":\"backpressure\""));
        assert!(json.contains("\"peer\":3"));
        assert!(json.contains("\"dropped\":64"));
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
        let mut reg = MetricsRegistry::new();
        reg.on_event(0, &issued(0, 1));
        reg.on_event(10, &aborted);
        assert_eq!(reg.aborts_total(), 1);
        assert!(reg.latency(Mode::Read).is_none(), "aborts must not record grant latency");
        let text = reg.render();
        assert!(text.contains("hlock_aborts_total 1"));
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
        let mut reg = MetricsRegistry::new();
        reg.on_event(0, &ev);
        reg.on_event(0, &anon);
        assert_eq!(reg.link_down_total(), 2);
        let text = reg.render();
        assert!(text.contains("hlock_link_down_total{reason=\"eof\"} 1"));
        assert!(text.contains("hlock_link_down_total{reason=\"decode_failed\"} 1"));
    }

    #[test]
    fn render_includes_p999_quantile() {
        let mut reg = MetricsRegistry::new();
        for t in 0..100u64 {
            reg.on_event(t, &issued(0, t));
            reg.on_event(t + 1, &granted(0, t));
        }
        let text = reg.render();
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
