//! Measurement collection: everything needed to regenerate the paper's
//! Figures 5–7.

use crate::time::Duration;
use hlock_core::{MessageKind, Mode, NodeId, Reservoir, ALL_MODES};
use std::collections::HashMap;

/// Position of `mode` in [`ALL_MODES`].
fn mode_index(mode: Mode) -> usize {
    usize::from(mode.wire_tag())
}

/// Aggregated measurements of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Messages sent, by kind (Figure 7).
    message_counts: HashMap<MessageKind, u64>,
    /// Messages sent, by sender (hotspot analysis).
    sent_by_node: HashMap<NodeId, u64>,
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
    /// forever, with a fixed-size uniform sample for percentile queries —
    /// memory stays constant no matter how long the run is. An array, not
    /// a hash map: merging reservoirs past their capacity subsamples, so
    /// the order they are visited in must be the mode order for a
    /// percentile to be a function of the seed.
    latency: [Reservoir; ALL_MODES.len()],
}

impl Metrics {
    /// Fresh, empty metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one sent message.
    pub fn count_message(&mut self, kind: MessageKind) {
        *self.message_counts.entry(kind).or_insert(0) += 1;
    }

    /// Records one sent message with its sender (for load analysis).
    pub fn count_message_from(&mut self, from: NodeId, kind: MessageKind) {
        self.count_message(kind);
        *self.sent_by_node.entry(from).or_insert(0) += 1;
    }

    /// Messages sent by one node.
    pub fn messages_sent_by(&self, node: NodeId) -> u64 {
        self.sent_by_node.get(&node).copied().unwrap_or(0)
    }

    /// The busiest sender and its message count, if any messages flowed.
    pub fn hottest_node(&self) -> Option<(NodeId, u64)> {
        self.sent_by_node
            .iter()
            .max_by_key(|&(n, c)| (*c, std::cmp::Reverse(n.0)))
            .map(|(n, c)| (*n, *c))
    }

    /// Load imbalance: busiest sender's share divided by the mean share
    /// (1.0 = perfectly balanced). Returns 0 with no traffic.
    pub fn load_imbalance(&self) -> f64 {
        let total: u64 = self.sent_by_node.values().sum();
        let nodes = self.sent_by_node.len();
        if total == 0 || nodes == 0 {
            return 0.0;
        }
        let max = self.sent_by_node.values().max().copied().unwrap_or(0);
        max as f64 / (total as f64 / nodes as f64)
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

    /// Records a grant and its request-to-grant latency.
    pub fn record_grant(&mut self, mode: Mode, latency: Duration) {
        self.grants += 1;
        self.latency[mode_index(mode)].record(latency.as_micros());
    }

    /// Total messages of one kind.
    pub fn messages_of_kind(&self, kind: MessageKind) -> u64 {
        self.message_counts.get(&kind).copied().unwrap_or(0)
    }

    /// Total messages of all kinds.
    pub fn total_messages(&self) -> u64 {
        self.message_counts.values().sum()
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
        let a = &self.latency[mode_index(mode)];
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
            .filter_map(|m| {
                let mean = self.mean_latency_for(m)?;
                Some((m, mean, self.latency[mode_index(m)].count()))
            })
            .collect()
    }

    /// Merges another run's metrics into this one (for averaging across
    /// seeds).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.message_counts {
            *self.message_counts.entry(*k).or_insert(0) += v;
        }
        for (n, v) in &other.sent_by_node {
            *self.sent_by_node.entry(*n).or_insert(0) += v;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_node_load_accounting() {
        let mut m = Metrics::new();
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
        let empty = Metrics::new();
        assert_eq!(empty.hottest_node(), None);
        assert_eq!(empty.load_imbalance(), 0.0);
    }

    #[test]
    fn message_accounting() {
        let mut m = Metrics::new();
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
        let mut m = Metrics::new();
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
        let mut m = Metrics::new();
        for ms in 1..=100u64 {
            m.record_grant(Mode::Read, Duration::from_millis(ms));
        }
        assert_eq!(m.latency_percentile(0.0), Duration::from_millis(1));
        assert_eq!(m.latency_percentile(1.0), Duration::from_millis(100));
        let p50 = m.latency_percentile(0.5).as_millis_f64();
        assert!((p50 - 50.0).abs() <= 1.0, "{p50}");
        let p99 = m.latency_percentile(0.99).as_millis_f64();
        assert!((p99 - 99.0).abs() <= 1.0, "{p99}");
        assert_eq!(Metrics::new().latency_percentile(0.5), Duration::ZERO);
    }

    /// Past the reservoir capacity a merge subsamples, so the order the
    /// per-mode reservoirs are folded in decides which samples survive:
    /// it must be the mode order, not a hash map's.
    #[test]
    fn percentile_past_capacity_is_a_function_of_the_samples() {
        let build = || {
            let mut m = Metrics::new();
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
        let _ = Metrics::new().latency_percentile(1.5);
    }

    /// Long runs no longer grow memory per grant: aggregates stay exact
    /// and percentiles stay plausible past the reservoir capacity.
    #[test]
    fn latency_memory_stays_bounded() {
        let mut m = Metrics::new();
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
        let m = Metrics::new();
        assert_eq!(m.messages_per_request(), 0.0);
        assert_eq!(m.mean_latency(), Duration::ZERO);
        assert_eq!(m.latency_factor(Duration::ZERO), 0.0);
        assert!(m.latency_by_mode().is_empty());
    }

    #[test]
    fn frame_accounting() {
        let mut m = Metrics::new();
        assert_eq!(m.coalesce_ratio(), 1.0, "no frames counted yet");
        // Three logical messages in two frames: one coalesced pair, one single.
        m.count_frame(2, 40);
        m.count_frame(1, 28);
        m.record_grant(Mode::Read, Duration::from_millis(10));
        assert_eq!(m.total_frames(), 2);
        assert_eq!(m.wire_bytes(), 68);
        assert!((m.coalesce_ratio() - 1.5).abs() < 1e-9);
        assert!((m.bytes_per_grant() - 68.0).abs() < 1e-9);
        assert_eq!(Metrics::new().bytes_per_grant(), 0.0);
        let mut other = Metrics::new();
        other.count_frame(3, 12);
        m.merge(&other);
        assert_eq!(m.total_frames(), 3);
        assert_eq!(m.wire_bytes(), 80);
        assert!((m.coalesce_ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_runs() {
        let mut a = Metrics::new();
        a.count_request();
        a.count_message(MessageKind::Grant);
        a.record_grant(Mode::Read, Duration::from_millis(100));
        let mut b = Metrics::new();
        b.count_request();
        b.count_message(MessageKind::Grant);
        b.record_grant(Mode::Read, Duration::from_millis(300));
        a.merge(&b);
        assert_eq!(a.total_requests(), 2);
        assert_eq!(a.messages_of_kind(MessageKind::Grant), 2);
        assert_eq!(a.mean_latency_for(Mode::Read), Some(Duration::from_millis(200)));
    }

    #[test]
    fn summary_mentions_counts() {
        let mut m = Metrics::new();
        m.count_request();
        m.count_message(MessageKind::Freeze);
        let s = m.summary(Duration::from_millis(150));
        assert!(s.contains("requests=1"));
        assert!(s.contains("freeze=1"));
    }
}
