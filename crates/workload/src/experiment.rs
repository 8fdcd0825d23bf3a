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

/// Which system runs the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// The one place a simulation is assembled and run: every runner of this
/// crate builds its nodes and driver and ends here. Without an observer
/// the simulation takes the unobserved fast path (no event construction).
pub(crate) fn run_sim<P, D>(
    nodes: Vec<P>,
    driver: D,
    config: SimConfig,
    observer: Option<Box<dyn Observer>>,
) -> Result<(SimReport, Vec<P>), InvariantViolation>
where
    P: ConcurrencyProtocol + Inspect,
    P::Message: WireCodec + 'static,
    D: Driver,
{
    // Frames are sized exactly as the TCP transport encodes them, so the
    // byte metrics (`wire_bytes`, `bytes_per_grant`) match the real wire
    // format instead of a per-message guess.
    let sim = Sim::new(nodes, driver, config).with_frame_sizer(|messages: &[P::Message]| {
        let mut buf = Vec::new();
        frame::write_batch(&mut buf, NodeId(0), messages);
        buf.len() as u64
    });
    match observer {
        // A closure, because a bare `Box<dyn Observer>` is not an `Observer`.
        Some(mut obs) => sim
            .with_observer(move |at: u64, event: &ProtocolEvent| obs.on_event(at, event))
            .run_with_nodes(),
        None => sim.run_with_nodes(),
    }
}

/// Runs the airline workload for `nodes` nodes under `kind`.
///
/// `check_every` enables global safety checking every N delivered
/// messages (0 = off; turn it on in tests, off in large sweeps). With an
/// `observer`, every [`ProtocolEvent`] of the run is streamed into it
/// (stamped with virtual time in microseconds): attach a
/// `hlock_core::SharedAuditor` to audit the run and dump its JSONL log,
/// or a `MetricsRegistry` to meter it.
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
    observer: Option<Box<dyn Observer>>,
) -> Result<SimReport, InvariantViolation> {
    let sim = SimConfig { latency, check_every, ..SimConfig::default() };
    let config =
        |lock_count| SimConfig { seed: derive_seed(workload, nodes), lock_count, ..sim.clone() };
    let ids = || (0..nodes as u32).map(NodeId);
    let pure = || NaimiPureDriver::new(workload, nodes);
    match kind {
        ProtocolKind::Hierarchical(cfg) => {
            let build = |id, homes: &[NodeId]| LockSpace::with_homes(id, homes, cfg);
            Ok(run_layered(build, nodes, workload, sim, observer)?.0)
        }
        ProtocolKind::ShardedHierarchical(cfg, shards) => {
            let spec = ShardSpec::new(shards);
            let build = |id, homes: &[NodeId]| ShardedSpace::with_homes(id, homes, cfg, spec);
            Ok(run_layered(build, nodes, workload, sim, observer)?.0)
        }
        ProtocolKind::NaimiSameWork => {
            let lock_count = workload.naimi_lock_count();
            let spaces = ids().map(|id| NaimiSpace::new(id, lock_count, NodeId(0))).collect();
            let driver = NaimiSameWorkDriver::new(workload, nodes);
            Ok(run_sim(spaces, driver, config(lock_count), observer)?.0)
        }
        ProtocolKind::NaimiPure => {
            let spaces = ids().map(|id| NaimiSpace::new(id, 1, NodeId(0))).collect();
            Ok(run_sim(spaces, pure(), config(1), observer)?.0)
        }
        ProtocolKind::RaymondPure => {
            let spaces = ids().map(|id| RaymondSpace::new(id, nodes, 1, NodeId(0))).collect();
            Ok(run_sim(spaces, pure(), config(1), observer)?.0)
        }
        ProtocolKind::SuzukiPure => {
            let spaces = ids().map(|id| SuzukiSpace::new(id, nodes, 1, NodeId(0))).collect();
            Ok(run_sim(spaces, pure(), config(1), observer)?.0)
        }
    }
}

/// Runs the airline workload on hierarchical nodes built by `build` from
/// `(node id, token homes)` — the shared body of every hierarchical run,
/// bare or wrapped in a layer. The `seed` (one derivation, so raw and
/// wrapped runs face the same latency process) and `lock_count` fields of
/// `sim` are overwritten; every other field is honoured.
fn run_layered<P>(
    build: impl Fn(NodeId, &[NodeId]) -> P,
    nodes: usize,
    workload: &WorkloadConfig,
    sim: SimConfig,
    observer: Option<Box<dyn Observer>>,
) -> Result<(SimReport, Vec<P>), InvariantViolation>
where
    P: ConcurrencyProtocol + Inspect,
    P::Message: WireCodec + 'static,
{
    let lock_count = workload.hierarchical_lock_count();
    let homes = token_homes(workload, nodes, lock_count);
    let spaces = (0..nodes as u32).map(|i| build(NodeId(i), &homes)).collect();
    let config = SimConfig { seed: derive_seed(workload, nodes), lock_count, ..sim };
    run_sim(spaces, HierarchicalDriver::new(workload, nodes), config, observer)
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
/// pauses and the liveness watchdog; its `seed` and `lock_count` fields
/// are overwritten.
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
    let build =
        |id, homes: &[NodeId]| SessionSpace::new(LockSpace::with_homes(id, homes, cfg), session);
    let (report, spaces) = run_layered(build, nodes, workload, sim, None)?;
    let mut stats = SessionStats::default();
    for space in &spaces {
        stats.merge(&space.stats());
    }
    Ok(SessionExperimentReport { report, session: stats })
}

/// Result of [`run_recovery_experiment`]: the simulator report plus the
/// final recovery epoch and the surviving protocol states.
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

/// Runs the airline workload on a hierarchical runtime wrapped in the
/// crash-recovery layer, under the fault model carried by `sim` —
/// typically with [`hlock_sim::NodeCrash`] schedules and the liveness
/// watchdog armed, so that crash-stops of token homes are detected,
/// survivors elect and install a new epoch, and every surviving request
/// is still granted.
///
/// `inner` builds the runtime under the recovery layer from `(node id,
/// token homes)`: `|id, homes| LockSpace::with_homes(id, homes, cfg)` for
/// the flat runtime, `ShardedSpace::with_homes(id, homes, cfg, spec)` for
/// the sharded one — there a crash (and the recovery round it triggers)
/// lands on *one* epoch for the whole node, but grants on shards that
/// never lost a token must neither be dropped nor reordered; the
/// simulator's per-step invariant checks and the live-scoped quiescence
/// audit enforce exactly that. With an `observer`, every
/// [`ProtocolEvent`] of the run — including the crash-time
/// `request_aborted` span closers and the recovery/fencing events — is
/// streamed into it: attach a `hlock_core::SharedAuditor` to
/// flight-record and live-audit a faulty run.
///
/// # Errors
///
/// Propagates [`InvariantViolation`] from the simulator — either a
/// protocol bug or, with `sim.watchdog` set, a liveness stall that
/// recovery failed to clear.
pub fn run_recovery_experiment<P: Recoverable>(
    inner: impl Fn(NodeId, &[NodeId]) -> P,
    nodes: usize,
    workload: &WorkloadConfig,
    sim: SimConfig,
    observer: Option<Box<dyn Observer>>,
) -> Result<RecoveryExperimentReport<P>, InvariantViolation> {
    // Keepalive probes let a falsely-suspected node announce itself
    // after resuming, so it gets fenced, taught the new epoch, and its
    // outstanding requests are re-issued.
    const PROBE_INTERVAL_MICROS: u64 = 5_000_000;
    let crashed: Vec<NodeId> = sim.crashes.iter().map(|c| c.node).collect();
    let build = |id, homes: &[NodeId]| {
        RecoverySpace::wrap(inner(id, homes), (0..nodes as u32).map(NodeId))
            .with_probe_interval(PROBE_INTERVAL_MICROS)
    };
    let (report, spaces) = run_layered(build, nodes, workload, sim, observer)?;
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
            None,
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
            None,
        )
        .expect("safe");
        assert!(r.quiescent);
    }

    #[test]
    fn naimi_pure_runs_to_quiescence() {
        let r = run_experiment(
            ProtocolKind::NaimiPure,
            5,
            &small_workload(),
            LatencyModel::paper(),
            1,
            None,
        )
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
            None,
        )
        .unwrap();
        let same =
            run_experiment(ProtocolKind::NaimiSameWork, 8, &wl, LatencyModel::paper(), 0, None)
                .unwrap();
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
        let r = run_experiment(
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
            None,
        )
        .expect("safe under upgrade-heavy load");
        assert!(r.quiescent);
    }
}
