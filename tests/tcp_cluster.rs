//! End-to-end tests over the real TCP transport: the same sans-I/O
//! protocol running over localhost sockets, exercised from multiple
//! threads. The reservation application on top of it is tested in its
//! example (`cargo test --example airline_reservation`).

use hlock::core::rng::Rng;
use hlock::core::{
    LinkDownReason, LockId, LockSpace, MessageKind, Meter, Mode, NodeId, Observer, ProtocolConfig,
    ProtocolEvent, Ticket,
};
use hlock::naimi::NaimiSpace;
use hlock::net::Cluster;
use hlock::raymond::RaymondSpace;
use hlock::suzuki::SuzukiSpace;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

#[test]
fn readers_share_writer_excludes_over_tcp() {
    let cluster = Cluster::spawn_hierarchical(4, 1, ProtocolConfig::default()).unwrap();
    // Three readers hold simultaneously.
    let tickets: Vec<_> =
        (1..4).map(|i| cluster.node(i).acquire(LockId(0), Mode::Read, TIMEOUT).unwrap()).collect();
    // A writer cannot get in while they hold (expect timeout).
    let w = cluster.node(0).request(LockId(0), Mode::Write).unwrap();
    assert!(cluster.node(0).wait(w, Duration::from_millis(300)).is_err());
    // Readers release; the writer gets through.
    for (i, t) in tickets.into_iter().enumerate() {
        cluster.node(i + 1).release(LockId(0), t).unwrap();
    }
    cluster.node(0).wait(w, TIMEOUT).unwrap();
    cluster.node(0).release(LockId(0), w).unwrap();
    cluster.shutdown();
}

#[test]
fn intent_modes_allow_disjoint_entry_writes_over_tcp() {
    // Two nodes write different entries concurrently under IW+W.
    let cluster = Cluster::spawn_hierarchical(3, 3, ProtocolConfig::default()).unwrap();
    let t1a = cluster.node(1).acquire(LockId(0), Mode::IntentWrite, TIMEOUT).unwrap();
    let t2a = cluster.node(2).acquire(LockId(0), Mode::IntentWrite, TIMEOUT).unwrap();
    let t1b = cluster.node(1).acquire(LockId(1), Mode::Write, TIMEOUT).unwrap();
    let t2b = cluster.node(2).acquire(LockId(2), Mode::Write, TIMEOUT).unwrap();
    // Both held at once: that is the whole point of hierarchical locking.
    cluster.node(1).release(LockId(1), t1b).unwrap();
    cluster.node(2).release(LockId(2), t2b).unwrap();
    cluster.node(1).release(LockId(0), t1a).unwrap();
    cluster.node(2).release(LockId(0), t2a).unwrap();
    cluster.shutdown();
}

#[test]
fn naimi_cluster_serializes_writers() {
    let cluster = Cluster::spawn(4, |i| NaimiSpace::new(NodeId(i as u32), 1, NodeId(0))).unwrap();
    for round in 0..3 {
        for i in 0..4 {
            let t = cluster.node(i).acquire(LockId(0), Mode::Write, TIMEOUT).unwrap();
            cluster.node(i).release(LockId(0), t).unwrap();
            let _ = round;
        }
    }
    cluster.shutdown();
}

#[test]
fn raymond_cluster_mutual_exclusion() {
    let cluster =
        Cluster::spawn(4, |i| RaymondSpace::new(NodeId(i as u32), 4, 1, NodeId(0))).unwrap();
    for i in [3usize, 1, 2, 0, 2] {
        let t = cluster.node(i).acquire(LockId(0), Mode::Write, TIMEOUT).unwrap();
        cluster.node(i).release(LockId(0), t).unwrap();
    }
    cluster.shutdown();
}

#[test]
fn suzuki_cluster_mutual_exclusion() {
    let cluster =
        Cluster::spawn(4, |i| SuzukiSpace::new(NodeId(i as u32), 4, 1, NodeId(0))).unwrap();
    for i in [2usize, 0, 3, 1] {
        let t = cluster.node(i).acquire(LockId(0), Mode::Write, TIMEOUT).unwrap();
        cluster.node(i).release(LockId(0), t).unwrap();
    }
    // Broadcast cost is visible on the wire: each remote acquisition
    // sends n − 1 requests.
    let stats = cluster.message_stats();
    assert!(stats[&MessageKind::Request] >= 3 * 3, "{stats:?}");
    cluster.shutdown();
}

#[test]
fn shutdown_joins_all_threads_within_bound() {
    // `Cluster::shutdown` must join every reader thread without holding the
    // thread registry lock (a reader blocked in `accept`/`read` would
    // otherwise deadlock the join). Run the whole teardown on a helper
    // thread and require it to finish well under the test timeout.
    let cluster = Cluster::spawn_hierarchical(3, 2, ProtocolConfig::default()).unwrap();
    let t = cluster.node(1).acquire(LockId(0), Mode::Write, TIMEOUT).unwrap();
    cluster.node(1).release(LockId(0), t).unwrap();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        cluster.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown did not join its reader threads within 10s");
}

#[test]
fn sharded_cross_shard_progress_across_seeds() {
    // Stress: across repeated seeds, a lock whose shard is jammed by a
    // blocked writer must never stall traffic on a different shard.
    use hlock::core::ShardSpec;
    use hlock::net::ShardedCluster;
    const SHARDS: usize = 4;
    let spec = ShardSpec::new(SHARDS);
    let hot = LockId(1);
    let cold = (2..64)
        .map(LockId)
        .find(|l| spec.shard_of(*l) != spec.shard_of(hot))
        .expect("a lock on another shard");
    for seed in 0..5u64 {
        let cluster =
            ShardedCluster::spawn_hierarchical(2, 64, SHARDS, ProtocolConfig::default()).unwrap();
        let hold = cluster.node(0).acquire(hot, Mode::Write, TIMEOUT).unwrap();
        let blocked = cluster.node(1).request(hot, Mode::Write).unwrap();
        let mut rng = Rng::new(seed);
        for _ in 0..20 {
            let mode = if rng.chance(0.25) { Mode::Write } else { Mode::Read };
            let t = cluster.node(1).acquire(cold, mode, TIMEOUT).unwrap();
            cluster.node(1).release(cold, t).unwrap();
        }
        cluster.node(0).release(hot, hold).unwrap();
        cluster.node(1).wait(hot, blocked, TIMEOUT).unwrap();
        cluster.node(1).release(hot, blocked).unwrap();
        cluster.shutdown();
    }
}

#[test]
fn oversized_length_prefix_drops_the_link_not_the_node() {
    // A stranger dials node 0 and, before any hello, announces a 4 GiB
    // frame. The node must refuse the prefix — not wait for the body —
    // report the teardown as a typed event, hang up, and keep serving.
    let (downs, down) = mpsc::channel();
    let config = ProtocolConfig::default();
    let cluster = Cluster::spawn_observed(
        3,
        move |i| LockSpace::new(NodeId(i as u32), 1, NodeId(0), config),
        |_| {
            let downs = downs.clone();
            Some(Box::new(move |_at: u64, event: &ProtocolEvent| {
                if let ProtocolEvent::LinkDown { node, peer, reason } = *event {
                    let _ = downs.send((node, peer, reason));
                }
            }))
        },
    )
    .unwrap();
    let mut stranger = TcpStream::connect(cluster.node(0).addr()).unwrap();
    stranger.write_all(&[0xff; 4]).unwrap();
    let refused = down.recv_timeout(Duration::from_secs(5)).expect("the link is torn down");
    assert_eq!(refused, (NodeId(0), None, LinkDownReason::DecodeFailed));
    stranger.set_read_timeout(Some(TIMEOUT)).unwrap();
    assert_eq!(stranger.read(&mut [0; 1]).unwrap(), 0, "the node hung up");

    // Node 0 is the token home: this grant crosses the node just attacked.
    let t = cluster.node(1).acquire(LockId(0), Mode::Write, TIMEOUT).unwrap();
    cluster.node(1).release(LockId(0), t).unwrap();
    cluster.shutdown();
}

#[test]
fn message_stats_reported_per_kind() {
    let cluster = Cluster::spawn_hierarchical(3, 1, ProtocolConfig::default()).unwrap();
    let t = cluster.node(2).acquire(LockId(0), Mode::Write, TIMEOUT).unwrap();
    cluster.node(2).release(LockId(0), t).unwrap();
    let stats = cluster.message_stats();
    use hlock::core::MessageKind;
    assert!(stats[&MessageKind::Request] >= 1);
    assert!(stats[&MessageKind::Token] >= 1);
    cluster.shutdown();
}

/// A TCP cluster metered from its event stream: three nodes, each
/// cycling `IR`/`R` then `IW`/`W` (table, then entry) from its own
/// thread, every node's observer feeding one shared `Meter`. Once the
/// cluster is quiet the meter's per-kind counts equal the transport's own
/// `message_stats`, and requests equal grants equal the ops issued.
/// Prints the run as a Figure-5-shaped row (`--nocapture`).
#[test]
fn a_metered_tcp_cluster_reports_a_figure_5_row() {
    const NODES: usize = 3;
    const CYCLES: u64 = 25;
    const TABLE: LockId = LockId(0);
    let meter = Arc::new(Mutex::new(Meter::new()));
    let cluster = {
        let meter = Arc::clone(&meter);
        Cluster::spawn_observed(
            NODES,
            |i| LockSpace::new(NodeId(i as u32), 1 + NODES, NodeId(0), ProtocolConfig::default()),
            move |_| {
                let meter = Arc::clone(&meter);
                Some(Box::new(move |at: u64, e: &ProtocolEvent| {
                    meter.lock().unwrap().on_event(at, e);
                }) as Box<dyn Observer + Send>)
            },
        )
        .unwrap()
    };
    std::thread::scope(|s| {
        for i in 0..NODES {
            let node = cluster.node(i);
            s.spawn(move || {
                for c in 0..CYCLES {
                    let entry = LockId(1 + ((i as u64 + c) % NODES as u64) as u32);
                    for (intent, mode) in
                        [(Mode::IntentRead, Mode::Read), (Mode::IntentWrite, Mode::Write)]
                    {
                        let t = node.acquire(TABLE, intent, TIMEOUT).unwrap();
                        let e = node.acquire(entry, mode, TIMEOUT).unwrap();
                        node.release(entry, e).unwrap();
                        node.release(TABLE, t).unwrap();
                    }
                }
            });
        }
    });
    // Barrier: every node quiescent, and no message sent over a whole
    // round of it — a release still in flight may make its receiver send.
    let mut stats = cluster.message_stats();
    loop {
        for i in 0..NODES {
            while !cluster.node(i).is_quiescent().unwrap() {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let now = cluster.message_stats();
        if now == stats {
            break;
        }
        stats = now;
    }
    let meter = meter.lock().unwrap();
    for kind in MessageKind::ALL {
        let sent = stats.get(&kind).copied().unwrap_or(0);
        assert_eq!(meter.messages_of_kind(kind), sent, "{kind} messages: meter vs transport");
    }
    let ops = NODES as u64 * CYCLES * 4;
    assert_eq!(meter.total_requests(), ops);
    assert_eq!(meter.total_grants(), ops);
    let by_kind: Vec<String> = MessageKind::ALL
        .iter()
        .filter(|&&k| meter.messages_of_kind(k) > 0)
        .map(|&k| format!("{k} {:.3}", meter.messages_per_request_of_kind(k)))
        .collect();
    println!(
        "figure 5 row, tcp, {NODES} nodes: {:.3} msgs/request ({}), mean latency {} µs over {ops} requests",
        meter.messages_per_request(),
        by_kind.join(", "),
        meter.mean_latency().as_micros(),
    );
    drop(meter);
    cluster.shutdown();
}

#[test]
fn recovery_cluster_survives_token_home_kill_mid_workload() {
    // Crash-stop the token home while survivors have requests in flight:
    // the epoch election must regenerate the lost tokens and every
    // surviving request must still complete.
    let cluster = Cluster::spawn_hierarchical_recovery(
        3,
        2,
        ProtocolConfig::default(),
        Duration::from_millis(200),
    )
    .unwrap();
    // Warm up: traffic flows through the original home (node 0).
    let t = cluster.node(1).acquire(LockId(0), Mode::Write, TIMEOUT).unwrap();
    cluster.node(1).release(LockId(0), t).unwrap();
    // Both survivors have work outstanding when the home dies.
    let r1 = cluster.node(1).request(LockId(0), Mode::Write).unwrap();
    let r2 = cluster.node(2).request(LockId(1), Mode::Write).unwrap();
    cluster.kill(0);
    // The transport's redial failure detector would raise this on its
    // own after a few backoff rounds; raising it directly keeps the
    // test fast and deterministic.
    cluster.node(1).suspect(&[NodeId(0)]).unwrap();
    cluster.node(2).suspect(&[NodeId(0)]).unwrap();
    // Survivors elect a new epoch, rebuild, and replay: both requests
    // issued before the crash must be granted.
    cluster.node(1).wait(r1, TIMEOUT).unwrap();
    cluster.node(1).release(LockId(0), r1).unwrap();
    cluster.node(2).wait(r2, TIMEOUT).unwrap();
    cluster.node(2).release(LockId(1), r2).unwrap();
    // Post-recovery the cluster keeps serializing conflicting traffic.
    for i in [1usize, 2, 1, 2] {
        let t = cluster.node(i).acquire(LockId(0), Mode::Write, TIMEOUT).unwrap();
        cluster.node(i).release(LockId(0), t).unwrap();
    }
    cluster.shutdown();
}

#[test]
fn recovery_transport_detects_dead_home_unaided() {
    // Same crash, but nobody is told: the keepalive probes and the
    // redial failure detector must discover the dead home by themselves.
    let cluster = Cluster::spawn_hierarchical_recovery(
        3,
        1,
        ProtocolConfig::default(),
        Duration::from_millis(100),
    )
    .unwrap();
    let t = cluster.node(1).acquire(LockId(0), Mode::Write, TIMEOUT).unwrap();
    cluster.node(1).release(LockId(0), t).unwrap();
    cluster.kill(0);
    // The token died with node 0, so this acquire can only succeed once
    // probing drives a full suspicion -> election -> regeneration round.
    let t = cluster.node(2).acquire(LockId(0), Mode::Write, TIMEOUT).unwrap();
    cluster.node(2).release(LockId(0), t).unwrap();
    cluster.shutdown();
}

#[test]
fn a_callers_back_to_back_calls_share_one_dispatch_step_and_one_frame() {
    // A closed-loop client's `release(entry)`, `release(table)`,
    // `request(table)` run their protocol steps on the client's own
    // thread and leave their messages in the node's sink; the worker,
    // woken for the first of them, dispatches whatever the sink holds
    // when it gets there as one step, so messages bound for the same
    // peer leave as one frame. Whether the worker gets there after the
    // second message or between the two is up to the scheduler, so the
    // client runs until a frame is shared. (The deterministic twin, with
    // the worker parked, is `hlock-net`'s unit test
    // `a_grant_behind_a_send_is_claimable_before_the_worker_runs`.)
    //
    // The client writes (`IW` on the table, `W` on the entry): a reader's
    // table `IR` is retained after its release (Rule 5.3), so its burst
    // would put nothing on the wire. `IW` is never retained — every round
    // releases and re-requests it at the home — and after the first round
    // the entry's token lives at the client, so the burst is exactly the
    // table's `Release` followed by its `Request`.
    let config = ProtocolConfig::default();
    let (cluster, flight) = Cluster::spawn_recorded(
        2,
        move |i| LockSpace::new(NodeId(i as u32), 2, NodeId(0), config),
        None,
        |_| None,
    )
    .unwrap();
    let (table, entry) = (LockId(0), LockId(1));
    let client = cluster.node(1);
    let totals = || {
        // `is_quiescent` is answered by the worker after everything its
        // caller did before it was dispatched, so the counters are
        // settled.
        let mut frames = 0;
        for i in 0..cluster.len() {
            cluster.node(i).is_quiescent().unwrap();
            frames += cluster.node(i).runtime_counters().frames;
        }
        (frames, cluster.message_stats().values().sum::<u64>())
    };
    let mut coalesced = false;
    for _ in 0..200 {
        for _ in 0..25 {
            let tt = client.acquire(table, Mode::IntentWrite, TIMEOUT).unwrap();
            let te = client.acquire(entry, Mode::Write, TIMEOUT).unwrap();
            client.release(entry, te).unwrap();
            client.release(table, tt).unwrap();
        }
        let (frames, messages) = totals();
        assert!(frames <= messages, "{frames} frames for {messages} messages");
        if frames < messages {
            coalesced = true;
            break;
        }
    }
    assert!(coalesced, "5000 release+release+request bursts and not one shared a frame");
    // Frames spanning a burst still deliver in per-link order.
    let findings = flight.findings();
    assert!(findings.is_empty(), "auditor (link_fifo among its checks): {findings:?}");
    cluster.shutdown();
}

/// A per-node observer that tallies `Granted` spans and tracks, per lock,
/// which of its node's tickets are live (granted and not yet released).
#[derive(Default)]
struct Holders {
    granted: HashMap<(NodeId, Ticket), u32>,
    live: HashMap<(NodeId, LockId), Vec<Ticket>>,
    /// Most tickets one node ever held at once on one lock.
    max_live: usize,
}

impl Holders {
    fn observer(shared: &Arc<Mutex<Holders>>) -> Option<Box<dyn Observer + Send>> {
        let shared = Arc::clone(shared);
        Some(Box::new(move |_at: u64, event: &ProtocolEvent| {
            let mut h = shared.lock().unwrap();
            match *event {
                ProtocolEvent::Granted { node, lock, span, .. } => {
                    *h.granted.entry((node, span.ticket)).or_default() += 1;
                    let live = h.live.entry((node, lock)).or_default();
                    live.push(span.ticket);
                    let n = live.len();
                    h.max_live = h.max_live.max(n);
                }
                ProtocolEvent::Released { node, lock, ticket, .. } => {
                    h.live.entry((node, lock)).or_default().retain(|t| *t != ticket);
                }
                _ => {}
            }
        }))
    }
}

#[test]
fn caller_runs_stress_keeps_every_invariant() {
    // Four threads share node 1's handle and run protocol steps on their
    // own threads, against each other and against the worker applying
    // what nodes 0 and 2 — writing the same locks — send. Each thread
    // owns one lock at its node (two overlapping tickets of one node on
    // one lock are the shape of the open release-crosses-grant bug, see
    // ROADMAP) and cycles through `IR`, `R`, `IW`, `W` on it, so local
    // grants (retained `IR`, a token parked here), copy grants, token
    // transfers and recalls all interleave. The online auditor watches
    // link FIFO, grant legitimacy, token uniqueness and span balance.
    const THREADS: usize = 4;
    const ROUNDS: usize = 2_000;
    const MODES: [Mode; 4] = [Mode::IntentRead, Mode::Read, Mode::IntentWrite, Mode::Write];
    let holders = Arc::new(Mutex::new(Holders::default()));
    let config = ProtocolConfig::default();
    let (cluster, flight) = Cluster::spawn_recorded(
        3,
        move |i| LockSpace::new(NodeId(i as u32), THREADS, NodeId(0), config),
        None,
        |_| Holders::observer(&holders),
    )
    .unwrap();
    let acquired: usize = std::thread::scope(|scope| {
        let cluster = &cluster;
        let mut drivers = Vec::new();
        for k in 0..THREADS {
            drivers.push(scope.spawn(move || {
                let (node, lock) = (cluster.node(1), LockId(k as u32));
                for round in 0..ROUNDS {
                    let mode = MODES[(round + k) % MODES.len()];
                    let t = node.acquire(lock, mode, TIMEOUT).unwrap();
                    node.release(lock, t).unwrap();
                }
                ROUNDS
            }));
        }
        for writer in [0usize, 2] {
            drivers.push(scope.spawn(move || {
                let node = cluster.node(writer);
                for round in 0..ROUNDS {
                    let lock = LockId((round % THREADS) as u32);
                    let t = node.acquire(lock, Mode::Write, TIMEOUT).unwrap();
                    node.release(lock, t).unwrap();
                }
                ROUNDS
            }));
        }
        drivers.into_iter().map(|d| d.join().unwrap()).sum()
    });
    for i in 0..cluster.len() {
        cluster.node(i).is_quiescent().unwrap();
    }
    cluster.shutdown();
    let findings = flight.findings();
    assert!(findings.is_empty(), "auditor: {findings:?}");
    let holders = holders.lock().unwrap();
    assert_eq!(holders.granted.len(), acquired, "a ticket was never granted");
    assert!(holders.granted.values().all(|n| *n == 1), "a ticket was granted twice");
    assert!(holders.live.values().all(Vec::is_empty), "a grant outlived its release");
    assert_eq!(holders.max_live, 1, "each (node, lock) was driven one ticket at a time");
}

#[test]
fn one_callers_release_then_request_apply_in_program_order() {
    // `release(X)` then `request(X)` from one thread: were the request
    // ever applied first, the node would hold two live tickets on `X`
    // (`IR` and `R` are compatible, so the protocol would grant both).
    // The modes alternate so the pair is sometimes all-local (retained
    // `IR`), sometimes leaves messages behind for the worker.
    let holders = Arc::new(Mutex::new(Holders::default()));
    let config = ProtocolConfig::default();
    let cluster = Cluster::spawn_observed(
        2,
        move |i| LockSpace::new(NodeId(i as u32), 1, NodeId(0), config),
        |_| Holders::observer(&holders),
    )
    .unwrap();
    let (node, lock) = (cluster.node(1), LockId(0));
    let mut held = node.acquire(lock, Mode::IntentRead, TIMEOUT).unwrap();
    for round in 0..5_000 {
        let mode = if round % 3 == 0 { Mode::Read } else { Mode::IntentRead };
        node.release(lock, held).unwrap();
        held = node.request(lock, mode).unwrap();
        node.wait(held, TIMEOUT).unwrap();
    }
    node.release(lock, held).unwrap();
    cluster.shutdown();
    let holders = holders.lock().unwrap();
    assert_eq!(holders.max_live, 1, "a request overtook the release before it");
    assert!(holders.live.values().all(Vec::is_empty));
}
