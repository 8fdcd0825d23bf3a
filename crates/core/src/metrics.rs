//! The meter: everything needed to regenerate the paper's Figures 5–7
//! (messages per request, by kind, and request-to-grant latency), on
//! every host.
//!
//! A [`Meter`] is fed either directly (`count_message_from`,
//! `count_request`, `record_grant` — the simulator does this, so an
//! untraced run pays for no events) or as an [`Observer`] of the event
//! stream (`message_sent`, `request_issued`, a span-closing `granted`),
//! which is how a TCP cluster, `obs_smoke` and tests meter a run. Both
//! feeds land in the same accumulators, and a workload test pins them
//! equal. Frames and wire bytes are host counters (`count_frame`), not
//! events.

use crate::{MessageKind, Mode, NodeId, Observer, ProtocolEvent, Reservoir, SpanId, ALL_MODES};
use core::fmt;
use core::ops::Add;
use std::collections::hash_map::{Entry, HashMap};

/// A span of time, in microseconds: virtual time in the simulator,
/// wall-clock time on a TCP host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// Zero duration.
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from whole milliseconds.
    pub fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000)
    }

    /// Builds a duration from fractional milliseconds.
    pub fn from_millis_f64(ms: f64) -> Duration {
        Duration((ms.max(0.0) * 1_000.0).round() as u64)
    }

    /// This duration in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Raw microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

/// Position of `kind` in [`MessageKind::ALL`] (its declaration order).
fn kind_index(kind: MessageKind) -> usize {
    kind as usize
}

/// Position of `mode` in [`ALL_MODES`].
fn mode_index(mode: Mode) -> usize {
    usize::from(mode.wire_tag())
}

/// Aggregated measurements of one run.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    /// Messages sent, by kind in [`MessageKind::ALL`] order (Figure 7).
    message_counts: [u64; MessageKind::ALL.len()],
    /// Messages sent, by sender index (hotspot analysis).
    sent_by_node: Vec<u64>,
    /// Total lock requests issued.
    requests: u64,
    /// Total grants observed.
    grants: u64,
    /// Wire frames sent (one frame carries a whole per-destination batch).
    frames: u64,
    /// Logical messages carried inside counted frames (for the coalesce
    /// ratio; equals `total_messages()` when every send is frame-counted).
    frame_messages: u64,
    /// Encoded bytes of all counted frames (0 without a frame sizer).
    wire_bytes: u64,
    /// Request-to-grant latency samples, per requested mode in
    /// [`ALL_MODES`] order (exclusive baselines use `Write` for all).
    /// Each entry is a bounded [`Reservoir`]: exact sum/count/max
    /// forever, with a fixed-size uniform sample for percentile queries.
    /// Merging reservoirs past their capacity subsamples, so they are
    /// visited in mode order for a percentile to be a function of the
    /// seed.
    latency: [Reservoir; ALL_MODES.len()],
    /// Spans the event feed saw open: issue time and requested mode.
    open: HashMap<SpanId, (u64, Mode)>,
}

impl Meter {
    /// A fresh, empty meter.
    pub fn new() -> Self {
        Meter::default()
    }

    /// Records one sent message.
    pub fn count_message(&mut self, kind: MessageKind) {
        self.message_counts[kind_index(kind)] += 1;
    }

    /// Records one sent message with its sender (for load analysis).
    pub fn count_message_from(&mut self, from: NodeId, kind: MessageKind) {
        self.count_message(kind);
        if self.sent_by_node.len() <= from.index() {
            self.sent_by_node.resize(from.index() + 1, 0);
        }
        self.sent_by_node[from.index()] += 1;
    }

    /// Messages sent by one node.
    pub fn messages_sent_by(&self, node: NodeId) -> u64 {
        self.sent_by_node.get(node.index()).copied().unwrap_or(0)
    }

    /// The nodes that sent at least one message, with their counts.
    fn senders(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.sent_by_node
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (NodeId(i as u32), c))
    }

    /// The busiest sender and its message count, if any messages flowed
    /// (the lowest id among equally busy senders).
    pub fn hottest_node(&self) -> Option<(NodeId, u64)> {
        self.senders().max_by_key(|&(n, c)| (c, std::cmp::Reverse(n.0)))
    }

    /// Load imbalance: busiest sender's share divided by the mean share
    /// over the nodes that sent anything (1.0 = perfectly balanced).
    /// Returns 0 with no traffic.
    pub fn load_imbalance(&self) -> f64 {
        let (nodes, total) = self.senders().fold((0u64, 0u64), |(n, t), (_, c)| (n + 1, t + c));
        match self.hottest_node() {
            Some((_, max)) if total > 0 => max as f64 / (total as f64 / nodes as f64),
            _ => 0.0,
        }
    }

    /// Records one wire frame carrying `logical` coalesced messages and
    /// occupying `bytes` on the wire (pass 0 when no sizer is available).
    pub fn count_frame(&mut self, logical: usize, bytes: u64) {
        self.frames += 1;
        self.frame_messages += logical as u64;
        self.wire_bytes += bytes;
    }

    /// Wire frames sent.
    pub fn total_frames(&self) -> u64 {
        self.frames
    }

    /// Encoded wire bytes of all counted frames.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Logical messages per wire frame — 1.0 when nothing coalesced (or
    /// nothing was frame-counted), higher when batching amortized frames.
    pub fn coalesce_ratio(&self) -> f64 {
        if self.frames == 0 {
            1.0
        } else {
            self.frame_messages as f64 / self.frames as f64
        }
    }

    /// Encoded wire bytes per grant (0 with no grants).
    pub fn bytes_per_grant(&self) -> f64 {
        if self.grants == 0 {
            0.0
        } else {
            self.wire_bytes as f64 / self.grants as f64
        }
    }

    /// Records that a request was issued.
    pub fn count_request(&mut self) {
        self.requests += 1;
    }

    /// Records a grant and its request-to-grant latency, under the
    /// requested mode.
    pub fn record_grant(&mut self, mode: Mode, latency: Duration) {
        self.grants += 1;
        self.latency[mode_index(mode)].record(latency.as_micros());
    }

    /// Total messages of one kind.
    pub fn messages_of_kind(&self, kind: MessageKind) -> u64 {
        self.message_counts[kind_index(kind)]
    }

    /// Total messages of all kinds.
    pub fn total_messages(&self) -> u64 {
        self.message_counts.iter().sum()
    }

    /// Total requests issued.
    pub fn total_requests(&self) -> u64 {
        self.requests
    }

    /// Total grants observed.
    pub fn total_grants(&self) -> u64 {
        self.grants
    }

    /// Figure 5 metric: average messages per lock request.
    pub fn messages_per_request(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.total_messages() as f64 / self.requests as f64
    }

    /// Per-kind average messages per request (Figure 7 series).
    pub fn messages_per_request_of_kind(&self, kind: MessageKind) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.messages_of_kind(kind) as f64 / self.requests as f64
    }

    /// The request-to-grant latency reservoir of one requested mode.
    pub fn latency_of(&self, mode: Mode) -> &Reservoir {
        &self.latency[mode_index(mode)]
    }

    /// Average request-to-grant latency over all modes (Figure 6 metric).
    pub fn mean_latency(&self) -> Duration {
        let (sum, count) =
            self.latency.iter().fold((0u128, 0u64), |(s, c), a| (s + a.sum(), c + a.count()));
        if count == 0 {
            Duration::ZERO
        } else {
            Duration((sum / u128::from(count)) as u64)
        }
    }

    /// Average latency for one requested mode, if any samples exist.
    pub fn mean_latency_for(&self, mode: Mode) -> Option<Duration> {
        let a = self.latency_of(mode);
        (!a.is_empty()).then(|| Duration((a.sum() / u128::from(a.count())) as u64))
    }

    /// Worst observed latency across all modes.
    pub fn max_latency(&self) -> Duration {
        Duration(self.latency.iter().map(Reservoir::max).max().unwrap_or(0))
    }

    /// Latency percentile over all modes (`p` in `0.0..=1.0`, e.g. `0.99`).
    /// Returns zero with no samples. Exact while total samples fit in the
    /// per-mode reservoirs; an unbiased estimate beyond that.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
        let mut all = Reservoir::default();
        for a in &self.latency {
            all.merge(a);
        }
        Duration(all.percentile(p).unwrap_or(0))
    }

    /// Figure 6 metric: mean latency as a multiple of `base`.
    pub fn latency_factor(&self, base: Duration) -> f64 {
        if base == Duration::ZERO {
            return 0.0;
        }
        self.mean_latency().as_millis_f64() / base.as_millis_f64()
    }

    /// One-line human-readable summary.
    pub fn summary(&self, base_latency: Duration) -> String {
        let mut parts = vec![
            format!("requests={}", self.requests),
            format!("grants={}", self.grants),
            format!("msgs/req={:.2}", self.messages_per_request()),
            format!("latency_factor={:.1}", self.latency_factor(base_latency)),
        ];
        for kind in MessageKind::ALL {
            let n = self.messages_of_kind(kind);
            if n > 0 {
                parts.push(format!("{}={}", kind.label(), n));
            }
        }
        parts.join(" ")
    }

    /// Per-mode latency table rows `(mode, mean, samples)`.
    pub fn latency_by_mode(&self) -> Vec<(Mode, Duration, u64)> {
        ALL_MODES
            .into_iter()
            .filter_map(|m| Some((m, self.mean_latency_for(m)?, self.latency_of(m).count())))
            .collect()
    }

    /// Where two meters of one run disagree on a figure: messages by kind
    /// and by sender, requests, grants, and per-mode latency count, sum
    /// and max. Frames and wire bytes are host counters and not compared.
    /// Empty when they agree — how a test pins the event feed to the
    /// direct one.
    pub fn disagreements(&self, other: &Meter) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |what: String, a: u128, b: u128| {
            if a != b {
                out.push(format!("{what}: {a} vs {b}"));
            }
        };
        for kind in MessageKind::ALL {
            let (a, b) = (self.messages_of_kind(kind), other.messages_of_kind(kind));
            check(format!("{} messages", kind.label()), a.into(), b.into());
        }
        for i in 0..self.sent_by_node.len().max(other.sent_by_node.len()) {
            let n = NodeId(i as u32);
            let (a, b) = (self.messages_sent_by(n), other.messages_sent_by(n));
            check(format!("messages sent by {n}"), a.into(), b.into());
        }
        check("requests".into(), self.requests.into(), other.requests.into());
        check("grants".into(), self.grants.into(), other.grants.into());
        for m in ALL_MODES {
            let (a, b) = (self.latency_of(m), other.latency_of(m));
            check(format!("{m} latency count"), a.count().into(), b.count().into());
            check(format!("{m} latency sum"), a.sum(), b.sum());
            check(format!("{m} latency max"), a.max().into(), b.max().into());
        }
        out
    }

    /// Merges another run's measurements into this one (for averaging
    /// across seeds). Spans still open in `other` are not carried over.
    pub fn merge(&mut self, other: &Meter) {
        for (mine, theirs) in self.message_counts.iter_mut().zip(&other.message_counts) {
            *mine += theirs;
        }
        if self.sent_by_node.len() < other.sent_by_node.len() {
            self.sent_by_node.resize(other.sent_by_node.len(), 0);
        }
        for (mine, theirs) in self.sent_by_node.iter_mut().zip(&other.sent_by_node) {
            *mine += theirs;
        }
        self.requests += other.requests;
        self.grants += other.grants;
        self.frames += other.frames;
        self.frame_messages += other.frame_messages;
        self.wire_bytes += other.wire_bytes;
        for (mine, theirs) in self.latency.iter_mut().zip(&other.latency) {
            mine.merge(theirs);
        }
    }

    /// Renders the meter in the Prometheus text exposition format:
    /// messages by kind, requests, grants by requested mode, and
    /// request-to-grant latency summaries by mode (quantiles 0.5 / 0.9 /
    /// 0.99 / 0.999 plus `_sum` and `_count`).
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let header = |out: &mut String, name: &str, kind: &str, help: &str| {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
        };
        header(&mut out, "hlock_messages_total", "counter", "Protocol messages sent, by kind.");
        for kind in MessageKind::ALL {
            let n = self.messages_of_kind(kind);
            let _ = writeln!(out, "hlock_messages_total{{kind=\"{}\"}} {n}", kind.label());
        }
        header(&mut out, "hlock_requests_total", "counter", "Lock requests issued.");
        let _ = writeln!(out, "hlock_requests_total {}", self.requests);
        header(&mut out, "hlock_grants_total", "counter", "Grants, by requested mode.");
        for m in ALL_MODES {
            let _ =
                writeln!(out, "hlock_grants_total{{mode=\"{m}\"}} {}", self.latency_of(m).count());
        }
        let name = "hlock_request_to_grant_micros";
        header(&mut out, name, "summary", "Request-to-grant latency, by requested mode.");
        for m in ALL_MODES.into_iter().filter(|&m| !self.latency_of(m).is_empty()) {
            let r = self.latency_of(m);
            for q in [0.5, 0.9, 0.99, 0.999] {
                let v = r.percentile(q).unwrap_or(0);
                let _ = writeln!(out, "{name}{{mode=\"{m}\",quantile=\"{q}\"}} {v}");
            }
            let _ = writeln!(out, "{name}_sum{{mode=\"{m}\"}} {}", r.sum());
            let _ = writeln!(out, "{name}_count{{mode=\"{m}\"}} {}", r.count());
        }
        out
    }
}

/// The event feed: the same accumulators as the direct calls.
/// `message_sent` counts a message by kind and sender; `request_issued`
/// counts a request and opens its span; a span-closing `granted` records
/// the grant under the mode the span was opened with. A `request_issued`
/// for a span already open (a survivor re-issuing its request after a
/// recovery install) is the same request: it is not counted again and
/// keeps its first issue time. A cancel or abort closes the span without
/// a grant.
impl Observer for Meter {
    fn on_event(&mut self, at_micros: u64, event: &ProtocolEvent) {
        match event {
            ProtocolEvent::MessageSent { node, kind, .. } => self.count_message_from(*node, *kind),
            ProtocolEvent::RequestIssued { span, mode, .. } => {
                if let Entry::Vacant(e) = self.open.entry(*span) {
                    e.insert((at_micros, *mode));
                    self.count_request();
                }
            }
            ProtocolEvent::Granted { span, .. } => {
                if let Some((issued, mode)) = self.open.remove(span) {
                    self.record_grant(mode, Duration(at_micros.saturating_sub(issued)));
                }
            }
            ProtocolEvent::RequestCancelled { span, .. }
            | ProtocolEvent::RequestAborted { span, .. } => {
                self.open.remove(span);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LockId, Priority, Ticket};

    #[test]
    fn per_node_load_accounting() {
        let mut m = Meter::new();
        m.count_message_from(NodeId(0), MessageKind::Request);
        m.count_message_from(NodeId(0), MessageKind::Grant);
        m.count_message_from(NodeId(0), MessageKind::Grant);
        m.count_message_from(NodeId(1), MessageKind::Request);
        assert_eq!(m.messages_sent_by(NodeId(0)), 3);
        assert_eq!(m.messages_sent_by(NodeId(2)), 0);
        assert_eq!(m.hottest_node(), Some((NodeId(0), 3)));
        // mean = 2, max = 3 → imbalance 1.5
        assert!((m.load_imbalance() - 1.5).abs() < 1e-9);
        assert_eq!(m.total_messages(), 4);
        // A silent node is not a sender: the mean stays over senders.
        m.count_message_from(NodeId(3), MessageKind::Token);
        assert!((m.load_imbalance() - 3.0 / (5.0 / 3.0)).abs() < 1e-9);
        let empty = Meter::new();
        assert_eq!(empty.hottest_node(), None);
        assert_eq!(empty.load_imbalance(), 0.0);
    }

    #[test]
    fn message_accounting() {
        let mut m = Meter::new();
        m.count_message(MessageKind::Request);
        m.count_message(MessageKind::Request);
        m.count_message(MessageKind::Token);
        m.count_request();
        assert_eq!(m.messages_of_kind(MessageKind::Request), 2);
        assert_eq!(m.total_messages(), 3);
        assert!((m.messages_per_request() - 3.0).abs() < 1e-9);
        assert!((m.messages_per_request_of_kind(MessageKind::Token) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn latency_accounting() {
        let mut m = Meter::new();
        m.record_grant(Mode::Read, Duration::from_millis(100));
        m.record_grant(Mode::Read, Duration::from_millis(300));
        m.record_grant(Mode::Write, Duration::from_millis(500));
        assert_eq!(m.mean_latency(), Duration::from_millis(300));
        assert_eq!(m.mean_latency_for(Mode::Read), Some(Duration::from_millis(200)));
        assert_eq!(m.mean_latency_for(Mode::Upgrade), None);
        assert_eq!(m.max_latency(), Duration::from_millis(500));
        assert!((m.latency_factor(Duration::from_millis(150)) - 2.0).abs() < 1e-9);
        assert_eq!(m.total_grants(), 3);
    }

    #[test]
    fn percentiles() {
        let mut m = Meter::new();
        for ms in 1..=100u64 {
            m.record_grant(Mode::Read, Duration::from_millis(ms));
        }
        assert_eq!(m.latency_percentile(0.0), Duration::from_millis(1));
        assert_eq!(m.latency_percentile(1.0), Duration::from_millis(100));
        let p50 = m.latency_percentile(0.5).as_millis_f64();
        assert!((p50 - 50.0).abs() <= 1.0, "{p50}");
        let p99 = m.latency_percentile(0.99).as_millis_f64();
        assert!((p99 - 99.0).abs() <= 1.0, "{p99}");
        assert_eq!(Meter::new().latency_percentile(0.5), Duration::ZERO);
    }

    /// Past the reservoir capacity a merge subsamples, so the order the
    /// per-mode reservoirs are folded in decides which samples survive:
    /// it must be the mode order, not a hash map's.
    #[test]
    fn percentile_past_capacity_is_a_function_of_the_samples() {
        let build = || {
            let mut m = Meter::new();
            for i in 0..2_000u64 {
                let mode = ALL_MODES[(i % 5) as usize];
                m.record_grant(mode, Duration::from_millis(1 + (i * 7919) % 1_000));
            }
            m
        };
        let p99s: Vec<Duration> = (0..8).map(|_| build().latency_percentile(0.99)).collect();
        assert!(p99s.iter().all(|p| *p == p99s[0]), "{p99s:?}");
        let (mut a, mut b) = (build(), build());
        a.merge(&build());
        b.merge(&build());
        assert_eq!(a.latency_percentile(0.5), b.latency_percentile(0.5));
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_out_of_range_panics() {
        let _ = Meter::new().latency_percentile(1.5);
    }

    /// Long runs do not grow memory per grant: aggregates stay exact
    /// and percentiles stay plausible past the reservoir capacity.
    #[test]
    fn latency_memory_stays_bounded() {
        let mut m = Meter::new();
        for ms in 1..=10_000u64 {
            m.record_grant(Mode::Read, Duration::from_millis(ms));
        }
        assert_eq!(m.total_grants(), 10_000);
        assert_eq!(m.mean_latency(), Duration(5_000_500));
        assert_eq!(m.max_latency(), Duration::from_millis(10_000));
        let p50 = m.latency_percentile(0.5).as_millis_f64();
        assert!((p50 - 5_000.0).abs() < 1_000.0, "{p50}");
        let p99 = m.latency_percentile(0.99).as_millis_f64();
        assert!(p99 > 9_000.0, "{p99}");
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Meter::new();
        assert_eq!(m.messages_per_request(), 0.0);
        assert_eq!(m.mean_latency(), Duration::ZERO);
        assert_eq!(m.latency_factor(Duration::ZERO), 0.0);
        assert!(m.latency_by_mode().is_empty());
    }

    #[test]
    fn frame_accounting() {
        let mut m = Meter::new();
        assert_eq!(m.coalesce_ratio(), 1.0, "no frames counted yet");
        // Three logical messages in two frames: one coalesced pair, one single.
        m.count_frame(2, 40);
        m.count_frame(1, 28);
        m.record_grant(Mode::Read, Duration::from_millis(10));
        assert_eq!(m.total_frames(), 2);
        assert_eq!(m.wire_bytes(), 68);
        assert!((m.coalesce_ratio() - 1.5).abs() < 1e-9);
        assert!((m.bytes_per_grant() - 68.0).abs() < 1e-9);
        assert_eq!(Meter::new().bytes_per_grant(), 0.0);
        let mut other = Meter::new();
        other.count_frame(3, 12);
        m.merge(&other);
        assert_eq!(m.total_frames(), 3);
        assert_eq!(m.wire_bytes(), 80);
        assert!((m.coalesce_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_runs() {
        let mut a = Meter::new();
        a.count_request();
        a.count_message_from(NodeId(0), MessageKind::Grant);
        a.record_grant(Mode::Read, Duration::from_millis(100));
        let mut b = Meter::new();
        b.count_request();
        b.count_message_from(NodeId(2), MessageKind::Grant);
        b.record_grant(Mode::Read, Duration::from_millis(300));
        a.merge(&b);
        assert_eq!(a.total_requests(), 2);
        assert_eq!(a.messages_of_kind(MessageKind::Grant), 2);
        assert_eq!(a.messages_sent_by(NodeId(2)), 1);
        assert_eq!(a.mean_latency_for(Mode::Read), Some(Duration::from_millis(200)));
    }

    #[test]
    fn summary_mentions_counts() {
        let mut m = Meter::new();
        m.count_request();
        m.count_message(MessageKind::Freeze);
        let s = m.summary(Duration::from_millis(150));
        assert!(s.contains("requests=1"));
        assert!(s.contains("freeze=1"));
    }

    /// The event feed lands in the same accumulators as the direct calls,
    /// and a re-issued request (same span, still open) is one request.
    #[test]
    fn observed_spans_feed_the_same_accumulators() {
        let span = |t| SpanId::new(NodeId(1), Ticket(t));
        let issued = |t, mode| ProtocolEvent::RequestIssued {
            node: NodeId(1),
            lock: LockId(0),
            span: span(t),
            mode,
            priority: Priority::NORMAL,
        };
        let granted = |t, mode| ProtocolEvent::Granted {
            node: NodeId(1),
            lock: LockId(0),
            span: span(t),
            mode,
        };
        let sent = |kind| ProtocolEvent::MessageSent { node: NodeId(1), to: NodeId(0), kind };
        let mut fed = Meter::new();
        for (at, e) in [
            (100, issued(1, Mode::Read)),
            (100, sent(MessageKind::Request)),
            (250, issued(1, Mode::Read)),
            (400, granted(1, Mode::Read)),
            (500, issued(2, Mode::Write)),
            (
                550,
                ProtocolEvent::RequestAborted { node: NodeId(1), lock: LockId(0), span: span(2) },
            ),
            (600, granted(2, Mode::Write)),
        ] {
            fed.on_event(at, &e);
        }
        let mut direct = Meter::new();
        direct.count_request();
        direct.count_message_from(NodeId(1), MessageKind::Request);
        direct.record_grant(Mode::Read, Duration(300));
        direct.count_request();
        assert_eq!(fed.disagreements(&direct), Vec::<String>::new());
        assert_eq!(fed.total_grants(), 1, "an aborted span records no grant");
        assert_eq!(fed.render(), direct.render());
        direct.count_message_from(NodeId(2), MessageKind::Token);
        assert_eq!(
            fed.disagreements(&direct),
            ["token messages: 0 vs 1", "messages sent by n2: 0 vs 1"]
        );
        let text = fed.render();
        assert!(text.contains("hlock_request_to_grant_micros{mode=\"R\",quantile=\"0.5\"} 300"));
        assert!(text.contains("hlock_grants_total{mode=\"R\"} 1"));
        assert!(text.contains("hlock_messages_total{kind=\"request\"} 1"));
    }
}
