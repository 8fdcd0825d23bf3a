//! One-call experiment runners: build nodes + driver + simulator and run.

use crate::drivers::{HierarchicalDriver, NaimiPureDriver, NaimiSameWorkDriver};
use crate::mix::WorkloadConfig;
use hlock_core::{
    ConcurrencyProtocol, Inspect, LockSpace, NodeId, ProtocolConfig, Recoverable, RecoverySpace,
    ShardSpec, ShardedSpace,
};
use hlock_naimi::NaimiSpace;
use hlock_raymond::RaymondSpace;
use hlock_session::{SessionConfig, SessionSpace, SessionStats};
use hlock_sim::{
    Driver, InvariantViolation, LatencyModel, Observer, ProtocolEvent, Sim, SimConfig, SimReport,
};
use hlock_suzuki::SuzukiSpace;
use hlock_wire::{frame, WireCodec};

/// Sizes a frame exactly as the TCP transport encodes it, so the
/// simulator's byte metrics (`wire_bytes`, `bytes_per_grant`) match the
/// real wire format instead of a per-message guess.
fn wire_frame_size<M: WireCodec>(messages: &[M]) -> u64 {
    let mut buf = Vec::new();
    frame::write_batch(&mut buf, NodeId(0), messages);
    buf.len() as u64
}

/// Which system runs the workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolKind {
    /// The paper's hierarchical protocol with the given configuration.
    Hierarchical(ProtocolConfig),
    /// The hierarchical protocol with each node's lock space partitioned
    /// into the given number of shards ([`hlock_core::ShardedSpace`]).
    /// Deterministic round-robin shard draining under virtual time — the
    /// model-checkable twin of the threaded sharded runtime.
    ShardedHierarchical(ProtocolConfig, usize),
    /// Naimi–Trehel performing the same work (one lock per entry, table
    /// ops acquire all of them in order).
    NaimiSameWork,
    /// Naimi–Trehel with a single global lock ("pure").
    NaimiPure,
    /// Raymond's static-tree algorithm with a single global lock
    /// (extension: the other O(log n) baseline the paper's related work
    /// discusses — non-adaptive structure, no path compression).
    RaymondPure,
    /// Suzuki–Kasami broadcast algorithm with a single global lock
    /// (extension: the O(n) broadcast baseline the paper's §2 dismisses).
    SuzukiPure,
}

impl ProtocolKind {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::Hierarchical(_) => "Our Protocol",
            ProtocolKind::ShardedHierarchical(..) => "Our Protocol (sharded)",
            ProtocolKind::NaimiSameWork => "Naimi - Same work",
            ProtocolKind::NaimiPure => "Naimi - Pure",
            ProtocolKind::RaymondPure => "Raymond - Pure",
            ProtocolKind::SuzukiPure => "Suzuki-Kasami - Pure",
        }
    }
}

/// Seed perturbation shared by every runner so that identical workloads
/// on different systems still see the same latency process.
fn derive_seed(workload: &WorkloadConfig, nodes: usize) -> u64 {
    workload.seed.wrapping_mul(0xD134_2543_DE82_EF95).wrapping_add(nodes as u64)
}

/// Token-home placement for the hierarchical lock tree.
fn token_homes(workload: &WorkloadConfig, nodes: usize, lock_count: usize) -> Vec<NodeId> {
    (0..lock_count)
        .map(|l| {
            if workload.spread_token_homes && l > 0 && nodes > 1 {
                NodeId((1 + (l - 1) % (nodes - 1)) as u32)
            } else {
                NodeId(0)
            }
        })
        .collect()
}

/// Runs the airline workload for `nodes` nodes under `kind`.
///
/// `check_every` enables global safety checking every N delivered
/// messages (0 = off; turn it on in tests, off in large sweeps).
///
/// # Errors
///
/// Propagates [`InvariantViolation`] from the simulator — which would
/// indicate a protocol bug, so callers usually `expect` it.
pub fn run_experiment(
    kind: ProtocolKind,
    nodes: usize,
    workload: &WorkloadConfig,
    latency: LatencyModel,
    check_every: u64,
) -> Result<SimReport, InvariantViolation> {
    run_observed_experiment(kind, nodes, workload, latency, check_every, None)
}

/// Adapts a boxed observer to `Sim::with_observer`'s `impl Observer`
/// parameter (a bare `Box<dyn Observer>` cannot implement [`Observer`]
/// here without clashing with the closure blanket impl).
struct BoxedObserver(Box<dyn Observer>);

impl Observer for BoxedObserver {
    fn on_event(&mut self, at_micros: u64, event: &ProtocolEvent) {
        self.0.on_event(at_micros, event);
    }
}

/// Applies the optional observer and runs — the shared tail of every
/// [`run_observed_experiment`] arm. Without an observer the simulation
/// takes the unobserved fast path (no event construction at all).
fn finish<P, D>(
    sim: Sim<P, D>,
    observer: Option<Box<dyn Observer>>,
) -> Result<SimReport, InvariantViolation>
where
    P: ConcurrencyProtocol + Inspect,
    D: Driver,
{
    match observer {
        Some(obs) => sim.with_observer(BoxedObserver(obs)).run(),
        None => sim.run(),
    }
}

/// Like [`run_experiment`], additionally streaming every
/// [`ProtocolEvent`] of the run into `observer` (stamped with virtual
/// time in microseconds). Attach a `hlock_core::JsonlObserver`,
/// `ChromeTraceObserver` or `MetricsRegistry` to export the run.
///
/// # Errors
///
/// Propagates [`InvariantViolation`] from the simulator — which would
/// indicate a protocol bug, so callers usually `expect` it.
pub fn run_observed_experiment(
    kind: ProtocolKind,
    nodes: usize,
    workload: &WorkloadConfig,
    latency: LatencyModel,
    check_every: u64,
    observer: Option<Box<dyn Observer>>,
) -> Result<SimReport, InvariantViolation> {
    let seed = derive_seed(workload, nodes);
    match kind {
        ProtocolKind::Hierarchical(cfg) => {
            let lock_count = workload.hierarchical_lock_count();
            let homes = token_homes(workload, nodes, lock_count);
            let spaces =
                (0..nodes).map(|i| LockSpace::with_homes(NodeId(i as u32), &homes, cfg)).collect();
            let sim_cfg =
                SimConfig { seed, latency, lock_count, check_every, ..SimConfig::default() };
            let sim = Sim::new(spaces, HierarchicalDriver::new(workload, nodes), sim_cfg)
                .with_frame_sizer(wire_frame_size);
            finish(sim, observer)
        }
        ProtocolKind::ShardedHierarchical(cfg, shards) => {
            let lock_count = workload.hierarchical_lock_count();
            let homes = token_homes(workload, nodes, lock_count);
            let spec = ShardSpec::new(shards);
            let spaces = (0..nodes)
                .map(|i| ShardedSpace::with_homes(NodeId(i as u32), &homes, cfg, spec))
                .collect();
            let sim_cfg =
                SimConfig { seed, latency, lock_count, check_every, ..SimConfig::default() };
            let sim = Sim::new(spaces, HierarchicalDriver::new(workload, nodes), sim_cfg)
                .with_frame_sizer(wire_frame_size);
            finish(sim, observer)
        }
        ProtocolKind::NaimiSameWork => {
            let lock_count = workload.naimi_lock_count();
            let spaces = (0..nodes)
                .map(|i| NaimiSpace::new(NodeId(i as u32), lock_count, NodeId(0)))
                .collect();
            let sim_cfg =
                SimConfig { seed, latency, lock_count, check_every, ..SimConfig::default() };
            let sim = Sim::new(spaces, NaimiSameWorkDriver::new(workload, nodes), sim_cfg)
                .with_frame_sizer(wire_frame_size);
            finish(sim, observer)
        }
        ProtocolKind::NaimiPure => {
            let spaces =
                (0..nodes).map(|i| NaimiSpace::new(NodeId(i as u32), 1, NodeId(0))).collect();
            let sim_cfg =
                SimConfig { seed, latency, lock_count: 1, check_every, ..SimConfig::default() };
            let sim = Sim::new(spaces, NaimiPureDriver::new(workload, nodes), sim_cfg)
                .with_frame_sizer(wire_frame_size);
            finish(sim, observer)
        }
        ProtocolKind::RaymondPure => {
            let spaces = (0..nodes)
                .map(|i| RaymondSpace::new(NodeId(i as u32), nodes, 1, NodeId(0)))
                .collect();
            let sim_cfg =
                SimConfig { seed, latency, lock_count: 1, check_every, ..SimConfig::default() };
            let sim = Sim::new(spaces, NaimiPureDriver::new(workload, nodes), sim_cfg)
                .with_frame_sizer(wire_frame_size);
            finish(sim, observer)
        }
        ProtocolKind::SuzukiPure => {
            let spaces = (0..nodes)
                .map(|i| SuzukiSpace::new(NodeId(i as u32), nodes, 1, NodeId(0)))
                .collect();
            let sim_cfg =
                SimConfig { seed, latency, lock_count: 1, check_every, ..SimConfig::default() };
            let sim = Sim::new(spaces, NaimiPureDriver::new(workload, nodes), sim_cfg)
                .with_frame_sizer(wire_frame_size);
            finish(sim, observer)
        }
    }
}

/// Result of [`run_session_experiment`]: the simulator report plus the
/// session layer's reliability counters summed over every node.
#[derive(Debug)]
pub struct SessionExperimentReport {
    /// Metrics, end time and quiescence from the simulator.
    pub report: SimReport,
    /// Cluster-wide session counters (retransmits, acks, dedups, …).
    pub session: SessionStats,
}

/// Runs the airline workload on the hierarchical protocol wrapped in
/// reliable sessions, under the fault model carried by `sim`.
///
/// Unlike [`run_experiment`], this takes a full [`SimConfig`] so callers
/// can dial in drop/duplicate/reorder probabilities, partitions, node
/// pauses and the liveness watchdog. The `seed` (derived from the
/// workload exactly as [`run_experiment`] derives it, so raw and
/// session-wrapped runs face the same latency process) and `lock_count`
/// fields are overwritten; every other field is honoured.
///
/// # Errors
///
/// Propagates [`InvariantViolation`] from the simulator — either a
/// protocol bug or, with `sim.watchdog` set, a liveness stall.
pub fn run_session_experiment(
    cfg: ProtocolConfig,
    session: SessionConfig,
    nodes: usize,
    workload: &WorkloadConfig,
    sim: SimConfig,
) -> Result<SessionExperimentReport, InvariantViolation> {
    let lock_count = workload.hierarchical_lock_count();
    let homes = token_homes(workload, nodes, lock_count);
    let spaces: Vec<SessionSpace<LockSpace>> = (0..nodes)
        .map(|i| SessionSpace::new(LockSpace::with_homes(NodeId(i as u32), &homes, cfg), session))
        .collect();
    let sim_cfg = SimConfig { seed: derive_seed(workload, nodes), lock_count, ..sim };
    let (report, spaces) = Sim::new(spaces, HierarchicalDriver::new(workload, nodes), sim_cfg)
        .with_frame_sizer(wire_frame_size)
        .run_with_nodes()?;
    let mut stats = SessionStats::default();
    for space in &spaces {
        stats.merge(&space.stats());
    }
    Ok(SessionExperimentReport { report, session: stats })
}

/// Result of [`run_recovery_experiment`] (flat, the default `P`) or
/// [`run_sharded_recovery_experiment`] (`P = ShardedSpace`): the
/// simulator report plus the final recovery epoch and the surviving
/// protocol states.
#[derive(Debug)]
pub struct RecoveryExperimentReport<P: Recoverable = LockSpace> {
    /// Metrics, end time and quiescence from the simulator.
    pub report: SimReport,
    /// The highest recovery epoch any surviving node installed (0 means
    /// no recovery round ran).
    pub max_epoch: u64,
    /// Final per-node states, for post-mortem inspection.
    pub spaces: Vec<RecoverySpace<P>>,
}

/// Runs the airline workload on the hierarchical protocol wrapped in the
/// crash-recovery layer, under the fault model carried by `sim` —
/// typically with [`hlock_sim::NodeCrash`] schedules and the liveness
/// watchdog armed, so that crash-stops of token homes are detected,
/// survivors elect and install a new epoch, and every surviving request
/// is still granted.
///
/// Like [`run_session_experiment`], the `seed` and `lock_count` fields
/// of `sim` are overwritten; every other field is honoured.
///
/// # Errors
///
/// Propagates [`InvariantViolation`] from the simulator — either a
/// protocol bug or, with `sim.watchdog` set, a liveness stall that
/// recovery failed to clear.
pub fn run_recovery_experiment(
    cfg: ProtocolConfig,
    nodes: usize,
    workload: &WorkloadConfig,
    sim: SimConfig,
) -> Result<RecoveryExperimentReport, InvariantViolation> {
    run_observed_recovery_experiment(cfg, nodes, workload, sim, None)
}

/// Like [`run_recovery_experiment`], additionally streaming every
/// [`ProtocolEvent`] of the run — including the crash-time
/// `request_aborted` span closers and the recovery/fencing events —
/// into `observer`. Attach a `hlock_core::ClusterRecorder` or
/// `RecordingAuditor` to flight-record and live-audit a faulty run.
///
/// # Errors
///
/// Propagates [`InvariantViolation`] from the simulator — either a
/// protocol bug or, with `sim.watchdog` set, a liveness stall that
/// recovery failed to clear.
pub fn run_observed_recovery_experiment(
    cfg: ProtocolConfig,
    nodes: usize,
    workload: &WorkloadConfig,
    sim: SimConfig,
    observer: Option<Box<dyn Observer>>,
) -> Result<RecoveryExperimentReport, InvariantViolation> {
    // Keepalive probes let a falsely-suspected node announce itself
    // after resuming, so it gets fenced, taught the new epoch, and its
    // outstanding requests are re-issued.
    const PROBE_INTERVAL_MICROS: u64 = 5_000_000;
    let lock_count = workload.hierarchical_lock_count();
    let homes = token_homes(workload, nodes, lock_count);
    let spaces: Vec<RecoverySpace<LockSpace>> = (0..nodes)
        .map(|i| {
            RecoverySpace::with_homes(NodeId(i as u32), &homes, nodes as u32, cfg)
                .with_probe_interval(PROBE_INTERVAL_MICROS)
        })
        .collect();
    let crashed: Vec<NodeId> = sim.crashes.iter().map(|c| c.node).collect();
    let sim_cfg = SimConfig { seed: derive_seed(workload, nodes), lock_count, ..sim };
    let sim = Sim::new(spaces, HierarchicalDriver::new(workload, nodes), sim_cfg)
        .with_frame_sizer(wire_frame_size);
    let (report, spaces) = match observer {
        Some(obs) => sim.with_observer(BoxedObserver(obs)).run_with_nodes()?,
        None => sim.run_with_nodes()?,
    };
    let max_epoch = spaces
        .iter()
        .filter(|s| !crashed.contains(&s.node_id()))
        .map(RecoverySpace::epoch)
        .max()
        .unwrap_or(0);
    Ok(RecoveryExperimentReport { report, max_epoch, spaces })
}

/// Like [`run_recovery_experiment`], but on the sharded lock-space
/// runtime: every node runs a [`ShardedSpace`] split into `shards`
/// shards, wrapped in the crash-recovery layer. A crash (and the
/// recovery round it triggers) lands on *one* epoch for the whole node,
/// but grants on shards that never lost a token must neither be dropped
/// nor reordered — the simulator's per-step invariant checks and the
/// live-scoped quiescence audit enforce exactly that.
///
/// # Errors
///
/// Propagates [`InvariantViolation`] from the simulator — either a
/// protocol bug or, with `sim.watchdog` set, a liveness stall that
/// recovery failed to clear.
pub fn run_sharded_recovery_experiment(
    cfg: ProtocolConfig,
    nodes: usize,
    shards: usize,
    workload: &WorkloadConfig,
    sim: SimConfig,
) -> Result<RecoveryExperimentReport<ShardedSpace>, InvariantViolation> {
    const PROBE_INTERVAL_MICROS: u64 = 5_000_000;
    let lock_count = workload.hierarchical_lock_count();
    let homes = token_homes(workload, nodes, lock_count);
    let spec = ShardSpec::new(shards);
    let spaces: Vec<RecoverySpace<ShardedSpace>> = (0..nodes)
        .map(|i| {
            RecoverySpace::wrap(
                ShardedSpace::with_homes(NodeId(i as u32), &homes, cfg, spec),
                (0..nodes as u32).map(NodeId),
            )
            .with_probe_interval(PROBE_INTERVAL_MICROS)
        })
        .collect();
    let crashed: Vec<NodeId> = sim.crashes.iter().map(|c| c.node).collect();
    let sim_cfg = SimConfig { seed: derive_seed(workload, nodes), lock_count, ..sim };
    let (report, spaces) = Sim::new(spaces, HierarchicalDriver::new(workload, nodes), sim_cfg)
        .with_frame_sizer(wire_frame_size)
        .run_with_nodes()?;
    let max_epoch = spaces
        .iter()
        .filter(|s| !crashed.contains(&s.node_id()))
        .map(RecoverySpace::epoch)
        .max()
        .unwrap_or(0);
    Ok(RecoveryExperimentReport { report, max_epoch, spaces })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlock_sim::Duration;

    fn small_workload() -> WorkloadConfig {
        WorkloadConfig { entries: 4, ops_per_node: 6, seed: 11, ..WorkloadConfig::default() }
    }

    #[test]
    fn hierarchical_runs_to_quiescence_with_checks() {
        let r = run_experiment(
            ProtocolKind::Hierarchical(ProtocolConfig::default()),
            6,
            &small_workload(),
            LatencyModel::paper(),
            1,
        )
        .expect("safe");
        assert!(r.quiescent);
        assert!(r.metrics.total_grants() >= 6 * 6, "every op granted at least once");
    }

    #[test]
    fn naimi_same_work_runs_to_quiescence() {
        let r = run_experiment(
            ProtocolKind::NaimiSameWork,
            5,
            &small_workload(),
            LatencyModel::paper(),
            1,
        )
        .expect("safe");
        assert!(r.quiescent);
    }

    #[test]
    fn naimi_pure_runs_to_quiescence() {
        let r =
            run_experiment(ProtocolKind::NaimiPure, 5, &small_workload(), LatencyModel::paper(), 1)
                .expect("safe");
        assert!(r.quiescent);
        // Pure: exactly one request per op.
        assert_eq!(r.metrics.total_requests(), 5 * 6);
    }

    #[test]
    fn hierarchical_beats_same_work_on_messages() {
        let wl = WorkloadConfig { entries: 8, ops_per_node: 10, seed: 5, ..Default::default() };
        let ours = run_experiment(
            ProtocolKind::Hierarchical(ProtocolConfig::default()),
            8,
            &wl,
            LatencyModel::paper(),
            0,
        )
        .unwrap();
        let same =
            run_experiment(ProtocolKind::NaimiSameWork, 8, &wl, LatencyModel::paper(), 0).unwrap();
        assert!(
            ours.metrics.messages_per_request() < same.metrics.messages_per_request() + 2.0,
            "ours {:.2} vs same-work {:.2}",
            ours.metrics.messages_per_request(),
            same.metrics.messages_per_request()
        );
    }

    #[test]
    fn session_wrapped_run_is_lossless_noop() {
        // Without faults the session layer must not change the outcome:
        // same grants as requests, nothing retransmitted, no dedup work.
        // The RTO must clear the paper's 150 ms mean RTT, otherwise the
        // layer retransmits spuriously (correct, but not a no-op).
        let wl = small_workload();
        let sim =
            SimConfig { latency: LatencyModel::paper(), check_every: 1, ..Default::default() };
        let session = SessionConfig {
            rto_micros: 2_000_000,
            max_backoff_micros: 8_000_000,
            ..SessionConfig::default()
        };
        let r =
            run_session_experiment(ProtocolConfig::default(), session, 5, &wl, sim).expect("safe");
        assert!(r.report.quiescent);
        assert_eq!(r.report.metrics.total_grants(), r.report.metrics.total_requests());
        assert_eq!(r.session.retransmits, 0);
        assert_eq!(r.session.duplicates_dropped, 0);
        assert!(r.session.data_frames > 0);
    }

    #[test]
    fn session_wrapped_run_completes_under_heavy_drops() {
        let wl = small_workload();
        let sim = SimConfig {
            latency: LatencyModel::paper(),
            drop_probability: 0.2,
            check_every: 1,
            ..Default::default()
        };
        let r = run_session_experiment(
            ProtocolConfig::default(),
            SessionConfig::default(),
            4,
            &wl,
            sim,
        )
        .expect("safe despite 20% loss");
        assert!(r.report.quiescent, "all ops must finish despite drops");
        assert_eq!(r.report.metrics.total_grants(), r.report.metrics.total_requests());
        assert!(r.session.retransmits > 0, "loss must have forced retransmissions");
    }

    #[test]
    fn observed_experiment_feeds_a_metrics_registry() {
        use hlock_core::MetricsRegistry;
        use std::cell::RefCell;
        use std::rc::Rc;

        let registry = Rc::new(RefCell::new(MetricsRegistry::new()));
        let sink = Rc::clone(&registry);
        let obs = move |at: u64, e: &ProtocolEvent| sink.borrow_mut().on_event(at, e);
        let r = run_observed_experiment(
            ProtocolKind::Hierarchical(ProtocolConfig::default()),
            4,
            &small_workload(),
            LatencyModel::paper(),
            0,
            Some(Box::new(obs)),
        )
        .expect("safe");
        assert!(r.quiescent);
        let registry = registry.borrow();
        // The registry's view agrees with the simulator's own metrics.
        assert_eq!(registry.grants_total(), r.metrics.total_grants());
        let text = registry.render();
        assert!(text.contains("hlock_request_to_grant_micros"), "{text}");
        assert!(text.contains("hlock_grants_total"), "{text}");
    }

    #[test]
    fn upgrade_ops_complete_under_contention() {
        // Force many upgrades to exercise Rule 7 under load.
        let wl = WorkloadConfig {
            entries: 4,
            ops_per_node: 8,
            seed: 3,
            mix: crate::ModeMix { weights: [40, 10, 30, 15, 5] },
            cs_mean: Duration::from_millis(5),
            idle_mean: Duration::from_millis(50),
            spread_token_homes: false,
        };
        let r = run_experiment(
            ProtocolKind::Hierarchical(ProtocolConfig::default()),
            5,
            &wl,
            LatencyModel::paper(),
            1,
        )
        .expect("safe under upgrade-heavy load");
        assert!(r.quiescent);
    }
}
