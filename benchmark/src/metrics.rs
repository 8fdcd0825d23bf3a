//! The metrics the benchmark declares in `BENCHMARK.json`: name, unit,
//! direction and — end to end — the share of the reference median by
//! which a metric may worsen before a change counts as a regression.
//! Every workload reports every one of them.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "grant_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "grant_p99_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "msgs_per_op", unit: "count", better: Better::Lower, bound: 0.10 },
    EndToEnd { name: "cpu_us_per_op", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "rss_mb", unit: "MB", better: Better::Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 65] = [
    // core::node / core::space — live host counters.
    layer("core.msgs_request_per_op", "count", Lower),
    layer("core.msgs_grant_per_op", "count", Lower),
    layer("core.msgs_token_per_op", "count", Lower),
    layer("core.msgs_release_per_op", "count", Lower),
    layer("core.msgs_freeze_per_op", "count", Lower),
    layer("core.msgs_update_per_op", "count", Lower),
    layer("core.msgs_recovery_per_op", "count", Lower),
    layer("core.grants_per_op", "count", Lower),
    // core::node / core::space — replay ledger.
    layer("ledger.msgs_per_op", "count", Lower),
    layer("core.step_ns_per_op", "ns", Lower),
    layer("core.steps_per_op", "count", Lower),
    layer("core.step_allocs_per_op", "count", Lower),
    layer("core.local_grant_frac", "frac", Higher),
    layer("core.release_suppressed_frac", "frac", Higher),
    // core::effect / core::runtime — replay ledger.
    layer("core.dispatch_ns_per_op", "ns", Lower),
    layer("core.dispatch_allocs_per_op", "count", Lower),
    layer("core.coalesce_ratio", "count", Higher),
    layer("core.max_batch", "count", Higher),
    // Wrapping layers, priced differentially by the replay ledger.
    layer("shard.tax_ns_per_op", "ns", Lower),
    layer("session.tax_ns_per_op", "ns", Lower),
    layer("session.acks_per_op", "count", Lower),
    layer("session.bytes_tax_per_msg", "B", Lower),
    layer("session.retransmits", "count", Lower),
    layer("recovery.tax_ns_per_op", "ns", Lower),
    layer("recovery.bytes_tax_per_msg", "B", Lower),
    layer("observe.tax_ns_per_op", "ns", Lower),
    layer("observe.events_per_op", "count", Lower),
    // wire — replay ledger, on the exact batches the replay produced.
    layer("wire.encode_ns_per_msg", "ns", Lower),
    layer("wire.decode_ns_per_msg", "ns", Lower),
    layer("wire.allocs_per_msg", "count", Lower),
    layer("wire.bytes_per_msg", "B", Lower),
    layer("wire.bytes_per_frame", "B", Lower),
    // net::transport (API hand-off, grant mailbox) — live driver spans.
    layer("net.api_request_ns_p50", "ns", Lower),
    layer("net.api_wait_ns_p50", "ns", Lower),
    layer("net.api_wait_ns_p99", "ns", Lower),
    layer("net.api_release_ns_p50", "ns", Lower),
    layer("grant_p999_us", "us", Lower),
    layer("stall_max_ms", "ms", Lower),
    // net::mux / net::conn — live host counters and observers.
    layer("net.steps_per_op", "count", Lower),
    layer("net.frames_per_op", "count", Lower),
    layer("net.msgs_per_frame", "count", Higher),
    layer("net.bytes_per_op", "B", Lower),
    layer("net.residual_us_per_op", "us", Lower),
    layer("net.vol_ctx_switches_per_op", "count", Lower),
    layer("net.backpressure_events", "count", Lower),
    layer("net.linkdown_events", "count", Lower),
    layer("trace.overhead_frac", "frac", Lower),
    // net::sharded — gauges of the sharded host.
    layer("sharded.queue_parks_per_kop", "count", Lower),
    layer("sharded.routed_per_op", "count", Lower),
    layer("sharded.queue_depth_max", "count", Lower),
    layer("sharded.shard_imbalance", "frac", Lower),
    layer("sharded.home_ops_per_s", "1/s", Higher),
    layer("sharded.remote_ops_per_s", "1/s", Higher),
    // sim — the simulator engine.
    layer("sim.events_per_op", "count", Lower),
    layer("sim.max_in_flight", "count", Lower),
    layer("sim.end_backlog_ops", "count", Lower),
    // core::recovery — observer milestones of the failover trials.
    layer("recovery.detect_share", "frac", Lower),
    layer("recovery.elect_share", "frac", Lower),
    layer("recovery.resume_share", "frac", Lower),
    layer("recovery.msgs_per_failover", "count", Lower),
    layer("recovery.tokens_regenerated", "count", Lower),
    layer("recovery.fenced_msgs", "count", Lower),
    // The load generator itself, and the process as a whole.
    layer("gen.late_frac", "frac", Lower),
    layer("gen.ops_measured", "count", Higher),
    layer("proc.peak_rss_mb", "MB", Lower),
];

/// Per-layer metrics that measure a host some workloads do not run on.
/// There the layer did no work, and the exact zero says so; every other
/// declared metric must be measured on every workload.
pub fn zero_when_absent(name: &str) -> bool {
    [
        "sharded.",
        "sim.",
        "recovery.detect",
        "recovery.elect",
        "recovery.resume",
        "recovery.msgs_per",
        "recovery.tokens",
        "recovery.fenced",
        "gen.late_frac",
        "net.backpressure_events",
        "net.linkdown_events",
    ]
    .iter()
    .any(|prefix| name.starts_with(prefix))
}
