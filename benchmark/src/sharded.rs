//! `sharded_pipeline`: two sharded nodes with two shards each; one
//! driver thread per node keeps [`PIPELINE`] operations in flight, FIFO,
//! over its own half of the entries with shared table intents. CPU-bound:
//! shard queues, workers, `HostRuntime` coalescing, the router and the
//! single egress do most of the work — the only workload where batches
//! form.

use crate::check::HolderTable;
use crate::harness::{plan, Client, Meter, Round, Snapshot, GRANT_DEADLINE};
use crate::script::{generate, Lane, Workload, LOCKS};
use crate::trace::now_ns;
use hlock_core::{ProtocolConfig, ShardGauges, Ticket};
use hlock_net::{ShardedCluster, ShardedNodeHandle};
use std::collections::VecDeque;
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const NODES: usize = 2;
pub const SHARDS: usize = 2;
/// Operations each driver keeps outstanding (two tickets per op).
pub const PIPELINE: usize = 32;
pub const WARMUP_OPS: usize = 2_000;

struct InFlight {
    id: u64,
    entry: u32,
    start_ns: u64,
    tickets: [Ticket; 2],
}

/// Issues both steps of `lane.ops[id]` without waiting.
fn issue(
    client: &mut Client<'_, ShardedNodeHandle>,
    lane: &Lane,
    id: u64,
    inflight: &mut VecDeque<InFlight>,
) {
    client.out.attempted += 1;
    let op = &lane.ops[id as usize % lane.ops.len()];
    let start_ns = now_ns();
    let steps = plan(op);
    let tickets = steps.map(|(lock, mode)| client.request(id, lock, mode).expect("node is up"));
    inflight.push_back(InFlight { id, entry: op.entry, start_ns, tickets });
}

/// Waits for the oldest operation's grants, then releases it leaf-first.
fn drain_one(
    client: &mut Client<'_, ShardedNodeHandle>,
    lane: &Lane,
    inflight: &mut VecDeque<InFlight>,
) {
    let f = inflight.pop_front().expect("an operation in flight");
    let steps = plan(&lane.ops[f.id as usize % lane.ops.len()]);
    let mut granted = 0;
    for (&(lock, mode), &ticket) in steps.iter().zip(&f.tickets) {
        if client.await_grant(f.id, lock, mode, ticket, GRANT_DEADLINE).is_err() {
            break;
        }
        granted += 1;
    }
    if granted == steps.len() {
        client.completed(f.start_ns, now_ns());
    } else {
        eprintln!("op {} failed: grant missed the {GRANT_DEADLINE:?} deadline", f.id);
        client.out.failed += 1;
        // The step that timed out was cancelled by `await_grant`; any
        // later step was never waited for and is cancelled here.
        for (&(lock, _), &ticket) in steps.iter().zip(&f.tickets).skip(granted + 1) {
            let _ = client.api.cancel(lock, ticket);
        }
    }
    for (&(lock, mode), &ticket) in steps.iter().zip(&f.tickets).take(granted).rev() {
        client.release(f.id, lock, mode, ticket);
    }
    if let Some(spans) = &mut client.spans {
        spans.push("op", f.id, f.start_ns, now_ns());
    }
}

fn gauges(cluster: &ShardedCluster) -> Vec<Vec<ShardGauges>> {
    (0..cluster.len()).map(|i| cluster.node(i).shard_gauges()).collect()
}

pub fn round(seed: u64, index: u64, window: Duration, traced: bool) -> Result<Round, String> {
    let setup_started = Instant::now();
    let script = generate(Workload::ShardedPipeline, seed, index);
    let cluster =
        ShardedCluster::spawn_hierarchical(NODES, LOCKS, SHARDS, ProtocolConfig::default())
            .map_err(|e| format!("spawn: {e}"))?;
    let snapshot = || {
        let nodes = (0..cluster.len()).map(|i| cluster.node(i).runtime_counters());
        Snapshot::of(&cluster.message_stats(), cluster.bytes_sent(), nodes)
    };

    let mut round = Round { traced, exact: true, ..Round::default() };
    let holders = HolderTable::new(LOCKS);
    let warm = Barrier::new(script.lanes.len() + 1);
    let go = Barrier::new(script.lanes.len() + 1);
    let mut depth_max = 0u64;
    let (clients, before, gauges0, meter) = std::thread::scope(|scope| {
        let handles: Vec<_> = script
            .lanes
            .iter()
            .map(|lane| {
                let (holders, warm, go) = (&holders, &warm, &go);
                let node = cluster.node(lane.node as usize);
                scope.spawn(move || {
                    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(PIPELINE + 1);
                    let mut run = |client: &mut Client<'_, ShardedNodeHandle>,
                                   from: u64,
                                   until: &dyn Fn(u64) -> bool| {
                        let mut id = from;
                        while !until(id) {
                            // A node never has two operations outstanding
                            // on one entry (see `simw::OpenLoop`): drain
                            // up to and including the earlier one first.
                            let entry = lane.ops[id as usize % lane.ops.len()].entry;
                            while inflight.iter().any(|f| f.entry == entry) {
                                drain_one(client, lane, &mut inflight);
                            }
                            issue(client, lane, id, &mut inflight);
                            id += 1;
                            while inflight.len() >= PIPELINE {
                                drain_one(client, lane, &mut inflight);
                            }
                        }
                        while !inflight.is_empty() {
                            drain_one(client, lane, &mut inflight);
                        }
                        id
                    };
                    let mut warmup = Client::new(node, holders, lane.node, false);
                    let next = run(&mut warmup, 0, &|id| id >= WARMUP_OPS as u64);
                    let mut client = Client::new(node, holders, lane.node, traced);
                    warm.wait();
                    go.wait();
                    let started = Instant::now();
                    let deadline = started + window;
                    run(&mut client, next, &|_| Instant::now() >= deadline);
                    (client.out, client.spans, warmup.out.failed, started.elapsed())
                })
            })
            .collect();
        warm.wait();
        round.setup = setup_started.elapsed();
        let before = snapshot();
        let gauges0 = gauges(&cluster);
        let meter = Meter::start();
        go.wait();
        // Queue depth is a gauge, not a counter: sample it while the
        // drivers run.
        while !handles.iter().all(|h| h.is_finished()) {
            for node in gauges(&cluster) {
                depth_max = node.iter().fold(depth_max, |m, g| m.max(g.queue_depth));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let clients: Vec<_> = handles.into_iter().map(|h| h.join().expect("driver")).collect();
        (clients, before, gauges0, meter)
    });
    meter.stop(&mut round);
    round.record_counters(before, snapshot());
    let gauges1 = gauges(&cluster);
    cluster.shutdown();

    let mut lane_rates = Vec::new();
    for (log, spans, warmup_failed, elapsed) in clients {
        if warmup_failed > 0 {
            return Err(format!("{warmup_failed} warm-up operation(s) failed"));
        }
        lane_rates.push(log.latencies_ns.len() as f64 / elapsed.as_secs_f64());
        round.absorb_client(log, spans);
    }
    holders.verdict()?;

    // Per-shard work: routed messages and parks over the window, and how
    // unevenly the two shards of a node were loaded.
    let done = round.completed().max(1) as f64;
    let (mut routed, mut parks, mut per_shard) = (0u64, 0u64, vec![0u64; SHARDS]);
    for (n0, n1) in gauges0.iter().zip(&gauges1) {
        for (s, (g0, g1)) in n0.iter().zip(n1).enumerate() {
            routed += g1.routed - g0.routed;
            parks += g1.parks - g0.parks;
            per_shard[s] += g1.routed - g0.routed;
        }
    }
    let busiest = *per_shard.iter().max().unwrap_or(&0) as f64;
    let mean = routed as f64 / SHARDS as f64;
    round.host.extend([
        ("sharded.queue_parks_per_kop", parks as f64 * 1e3 / done),
        ("sharded.routed_per_op", routed as f64 / done),
        ("sharded.queue_depth_max", depth_max as f64),
        ("sharded.shard_imbalance", if mean > 0.0 { busiest / mean - 1.0 } else { 0.0 }),
        ("sharded.home_ops_per_s", lane_rates[0]),
        ("sharded.remote_ops_per_s", lane_rates[1]),
    ]);
    Ok(round)
}
