//! `tcp_read_hot` / `tcp_write_hot`: a three-node hierarchical cluster
//! on the mux transport, driven closed-loop by one client thread on each
//! of nodes 1 and 2 (none at the token home). Every operation crosses
//! `wire` → `net::mux` → a loopback socket and back; no delay is
//! injected, so latency is processor and kernel time only.

use crate::check::HolderTable;
use crate::harness::{Client, LockApi, Meter, Round, Snapshot};
use crate::script::{generate, Lane, Workload, LOCKS};
use hlock_core::{LockSpace, NodeId, Observer, ProtocolConfig, ProtocolEvent, SharedAuditor};
use hlock_net::Cluster;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

pub const NODES: usize = 3;
/// Operations each client completes before the measured window opens
/// (connects every link and fills the allocator's caches).
pub const WARMUP_OPS: usize = 500;

/// Transport-level events counted by the per-node observers of a traced
/// round.
#[derive(Default)]
pub struct ObservedCounts {
    pub backpressure: AtomicU64,
    pub linkdown: AtomicU64,
}

impl ObservedCounts {
    pub fn observe(&self, event: &ProtocolEvent) {
        match event {
            ProtocolEvent::Backpressure { .. } => self.backpressure.fetch_add(1, Ordering::Relaxed),
            ProtocolEvent::LinkDown { .. } => self.linkdown.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }

    pub fn into_host(&self, round: &mut Round) {
        round
            .host
            .push(("net.backpressure_events", self.backpressure.load(Ordering::Relaxed) as f64));
        round.host.push(("net.linkdown_events", self.linkdown.load(Ordering::Relaxed) as f64));
    }
}

/// The observer attached to every node of a traced round: counts, and
/// feeds the cluster-wide online invariant auditor.
pub fn node_observer(
    counts: &Arc<ObservedCounts>,
    auditor: &SharedAuditor,
) -> Option<Box<dyn Observer + Send>> {
    let counts = Arc::clone(counts);
    let mut auditor = auditor.clone();
    Some(Box::new(move |at: u64, event: &ProtocolEvent| {
        counts.observe(event);
        auditor.on_event(at, event);
    }))
}

/// Drives `lanes` closed-loop against `apis` (one thread per lane): a
/// fixed warm-up, then `window` of measured operations. `snapshot` runs
/// on the calling thread between the two, and again after the window.
pub fn closed_loop_round<A: LockApi>(
    apis: &[&A],
    lanes: &[Lane],
    window: Duration,
    traced: bool,
    round: &mut Round,
    mut snapshot: impl FnMut() -> Snapshot,
    setup_started: Instant,
) -> Result<(), String> {
    assert_eq!(apis.len(), lanes.len());
    let holders = HolderTable::new(LOCKS);
    let warm = Barrier::new(lanes.len() + 1);
    let go = Barrier::new(lanes.len() + 1);
    let mut meter = None;
    let mut before = None;
    let clients: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = apis
            .iter()
            .zip(lanes)
            .map(|(api, lane)| {
                let (holders, warm, go) = (&holders, &warm, &go);
                scope.spawn(move || {
                    let mut client = Client::new(*api, holders, lane.node, false);
                    for (i, op) in lane.ops.iter().take(WARMUP_OPS).enumerate() {
                        client.closed_loop_op(i as u64, op);
                    }
                    let warmup_failed = client.out.failed;
                    let mut client = Client::new(*api, holders, lane.node, traced);
                    warm.wait();
                    go.wait();
                    let deadline = Instant::now() + window;
                    let mut id = WARMUP_OPS;
                    while Instant::now() < deadline {
                        client.closed_loop_op(id as u64, &lane.ops[id % lane.ops.len()]);
                        id += 1;
                    }
                    (client, warmup_failed)
                })
            })
            .collect();
        warm.wait();
        round.setup = setup_started.elapsed();
        before = Some(snapshot());
        meter = Some(Meter::start());
        go.wait();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    meter.expect("meter started").stop(round);
    round.record_counters(before.expect("snapshot taken"), snapshot());
    for (client, warmup_failed) in clients {
        if warmup_failed > 0 {
            return Err(format!("{warmup_failed} warm-up operation(s) failed"));
        }
        round.absorb_client(client.out, client.spans);
    }
    holders.verdict()?;
    Ok(())
}

/// One round: fresh cluster, warm-up, measured window, shutdown.
pub fn round(
    workload: Workload,
    seed: u64,
    index: u64,
    window: Duration,
    traced: bool,
) -> Result<Round, String> {
    let setup_started = Instant::now();
    let script = generate(workload, seed, index);
    let config = ProtocolConfig::default();
    let make = move |i: usize| LockSpace::new(NodeId(i as u32), LOCKS, NodeId(0), config);
    let counts = Arc::new(ObservedCounts::default());
    let auditor = SharedAuditor::new(None);
    let cluster = if traced {
        Cluster::spawn_observed(NODES, make, |_| node_observer(&counts, &auditor))
    } else {
        Cluster::spawn_hierarchical(NODES, LOCKS, config)
    }
    .map_err(|e| format!("spawn: {e}"))?;

    let mut round = Round { traced, exact: true, ..Round::default() };
    let apis: Vec<_> = script.lanes.iter().map(|l| cluster.node(l.node as usize)).collect();
    let snapshot = || {
        let nodes = (0..cluster.len()).map(|i| cluster.node(i).runtime_counters());
        Snapshot::of(&cluster.message_stats(), cluster.bytes_sent(), nodes)
    };
    let outcome = closed_loop_round(
        &apis,
        &script.lanes,
        window,
        traced,
        &mut round,
        snapshot,
        setup_started,
    );
    cluster.shutdown();
    outcome?;
    if traced {
        counts.into_host(&mut round);
        if !auditor.is_clean() {
            return Err(format!("invariant auditor findings: {:?}", auditor.findings()));
        }
    }
    Ok(round)
}
