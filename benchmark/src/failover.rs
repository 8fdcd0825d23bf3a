//! `failover`: trials of a three-node recovery cluster. Each survivor
//! issues one write per 250 µs on a fixed schedule (open loop, timed from
//! the due time; the two survivors in antiphase); the token home — which
//! holds a long-lived intent on the table, so the table token stays with
//! it — is killed at 250 ms and the trial ends at 1 s. The rate keeps
//! the hosts busy enough that wake-up latency from idle does not set the
//! numbers. The only workload
//! where `core::recovery`, the dial-backoff failure detector and epoch
//! fencing do the work; requests due while no token exists are counted,
//! not skipped.

use crate::check::HolderTable;
use crate::harness::{plan, Client, LockApi, Meter, Round, Snapshot, GRANT_DEADLINE, TABLE};
use crate::script::{generate, Lane, Workload, FAILOVER_KILL_US, FAILOVER_TRIAL_US};
use crate::tcp::{node_observer, ObservedCounts};
use crate::trace::now_ns;
use hlock_core::{
    LockSpace, Mode, NodeId, Observer, ProtocolConfig, ProtocolEvent, RecoverySpace, SharedAuditor,
};
use hlock_net::Cluster;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

pub const NODES: usize = 3;
/// The table plus one entry both survivors write.
pub const LOCKS: usize = 2;
pub const PROBE_INTERVAL: Duration = Duration::from_millis(100);
/// Closed-loop operations per survivor before the schedule starts.
pub const WARMUP_OPS: usize = 200;
/// An operation issued this long after it was due counts as late.
pub const LATE_NS: u64 = 1_000_000;

/// What one survivor's generator measured beyond the client log.
#[derive(Default)]
struct Lateness {
    late: u64,
    issue_delay_ns: Vec<u64>,
}

/// One survivor's open-loop generator. Operations fall due on a fixed
/// schedule whether or not earlier ones completed, and each is timed
/// from its due time. A node keeps one operation outstanding per entry
/// (see `simw::OpenLoop`), so operations due during an outage queue at
/// the node and are issued, FIFO, as soon as the one ahead released.
fn generate_load<A: LockApi>(
    client: &mut Client<'_, A>,
    lane: &Lane,
    epoch: Instant,
    epoch_ns: u64,
) -> Lateness {
    let mut lateness = Lateness::default();
    // The generator's own delay is measured from when an operation
    // could first be issued: its due time, or the release ahead of it.
    let mut free_since = epoch;
    for (id, op) in lane.ops.iter().enumerate() {
        let id = id as u64;
        let due = epoch + Duration::from_micros(op.at_us);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let issue_delay = Instant::now().saturating_duration_since(due.max(free_since));
        lateness.issue_delay_ns.push(issue_delay.as_nanos() as u64);
        lateness.late += u64::from(issue_delay.as_nanos() as u64 > LATE_NS);
        client.out.attempted += 1;
        let steps = plan(op);
        let tickets = steps.map(|(lock, mode)| client.request(id, lock, mode).expect("node is up"));
        let give_up = due.max(Instant::now()) + GRANT_DEADLINE;
        let mut granted = 0;
        for (&(lock, mode), &ticket) in steps.iter().zip(&tickets) {
            let timeout = give_up.saturating_duration_since(Instant::now());
            if client.await_grant(id, lock, mode, ticket, timeout).is_err() {
                break;
            }
            granted += 1;
        }
        if granted == steps.len() {
            client.completed(epoch_ns + op.at_us * 1_000, now_ns());
        } else {
            eprintln!("op {id} failed: grant missed the {GRANT_DEADLINE:?} deadline");
            client.out.failed += 1;
            for (&(lock, _), &ticket) in steps.iter().zip(&tickets).skip(granted + 1) {
                let _ = client.api.cancel(lock, ticket);
            }
        }
        for (&(lock, mode), &ticket) in steps.iter().zip(&tickets).take(granted).rev() {
            client.release(id, lock, mode, ticket);
        }
        free_since = Instant::now();
    }
    lateness
}

/// Recovery milestones stamped on the trace clock by the observers.
#[derive(Default)]
struct Milestones {
    started: Vec<u64>,
    completed: Vec<u64>,
    regenerated: u64,
    fenced: u64,
}

pub fn trial(seed: u64, index: u64, traced: bool) -> Result<Round, String> {
    let setup_started = Instant::now();
    let script = generate(Workload::Failover, seed, index);
    let config = ProtocolConfig::default();
    let counts = Arc::new(ObservedCounts::default());
    let auditor = SharedAuditor::new(None);
    let milestones = Arc::new(Mutex::new(Milestones::default()));
    let cluster = if traced {
        let probe = PROBE_INTERVAL.as_micros() as u64;
        Cluster::spawn_observed(
            NODES,
            move |i| {
                RecoverySpace::<LockSpace>::new(
                    NodeId(i as u32),
                    LOCKS,
                    NodeId(0),
                    NODES as u32,
                    config,
                )
                .with_probe_interval(probe)
            },
            |_| {
                let mut inner = node_observer(&counts, &auditor).expect("observer");
                let milestones = Arc::clone(&milestones);
                Some(Box::new(move |at: u64, event: &ProtocolEvent| {
                    inner.on_event(at, event);
                    let mut m = milestones.lock().expect("milestones");
                    match event {
                        ProtocolEvent::RecoveryStarted { .. } => m.started.push(now_ns()),
                        ProtocolEvent::RecoveryCompleted { .. } => m.completed.push(now_ns()),
                        ProtocolEvent::TokenRegenerated { .. } => m.regenerated += 1,
                        ProtocolEvent::StaleEpochFenced { .. } => m.fenced += 1,
                        _ => {}
                    }
                }) as Box<dyn Observer + Send>)
            },
        )
    } else {
        Cluster::spawn_hierarchical_recovery(NODES, LOCKS, config, PROBE_INTERVAL)
    }
    .map_err(|e| format!("spawn: {e}"))?;

    // A long-running transaction at the home: its intent keeps the table
    // token there (the token node copy-grants weaker-or-equal requests),
    // so every survivor operation depends on the home being alive.
    cluster
        .node(0)
        .acquire(TABLE, Mode::IntentWrite, GRANT_DEADLINE)
        .map_err(|e| format!("home intent: {e}"))?;

    let snapshot = || {
        let nodes = (0..cluster.len()).map(|i| cluster.node(i).runtime_counters());
        Snapshot::of(&cluster.message_stats(), cluster.bytes_sent(), nodes)
    };
    let mut round = Round { traced, exact: true, ..Round::default() };
    let holders = HolderTable::new(LOCKS);
    let warm = Barrier::new(script.lanes.len() + 1);
    let go = Barrier::new(script.lanes.len() + 1);
    // The epoch is fixed by the main thread before `go`, slightly in the
    // future, so both generators share one schedule origin.
    let epoch_cell: Mutex<Option<(Instant, u64)>> = Mutex::new(None);
    let mut kill_ns = 0u64;
    let (clients, before, meter) = std::thread::scope(|scope| {
        let handles: Vec<_> = script
            .lanes
            .iter()
            .map(|lane| {
                let (holders, warm, go, epoch_cell) = (&holders, &warm, &go, &epoch_cell);
                let node = cluster.node(lane.node as usize);
                scope.spawn(move || {
                    let mut warmup = Client::new(node, holders, lane.node, false);
                    for (i, op) in lane.ops.iter().take(WARMUP_OPS).enumerate() {
                        warmup.closed_loop_op(i as u64, op);
                    }
                    let mut client = Client::new(node, holders, lane.node, traced);
                    client.keep_done = true;
                    warm.wait();
                    go.wait();
                    let (epoch, epoch_ns) = epoch_cell.lock().expect("epoch").expect("epoch set");
                    let lateness = generate_load(&mut client, lane, epoch, epoch_ns);
                    (client.out, client.spans, warmup.out.failed, lateness)
                })
            })
            .collect();
        warm.wait();
        round.setup = setup_started.elapsed();
        let before = snapshot();
        let meter = Meter::start();
        let epoch = Instant::now() + Duration::from_millis(2);
        let epoch_ns = now_ns() + 2_000_000;
        *epoch_cell.lock().expect("epoch") = Some((epoch, epoch_ns));
        go.wait();
        std::thread::sleep(
            (epoch + Duration::from_micros(FAILOVER_KILL_US))
                .saturating_duration_since(Instant::now()),
        );
        cluster.kill(0);
        kill_ns = now_ns();
        let clients: Vec<_> = handles.into_iter().map(|h| h.join().expect("generator")).collect();
        (clients, before, meter)
    });
    // The measured window is the trial's fixed length, whatever the
    // generators' drain time: ops/s is completions over schedule time.
    meter.stop(&mut round);
    round.elapsed = round.elapsed.max(Duration::from_micros(FAILOVER_TRIAL_US));
    round.record_counters(before, snapshot());
    cluster.shutdown();

    let (mut late, mut issued, mut worst) = (0u64, 0u64, Vec::new());
    for (log, spans, warmup_failed, lateness) in clients {
        if warmup_failed > 0 {
            return Err(format!("{warmup_failed} warm-up operation(s) failed"));
        }
        late += lateness.late;
        issued += lateness.issue_delay_ns.len() as u64;
        worst.extend(lateness.issue_delay_ns);
        round.absorb_client(log, spans);
    }
    holders.verdict()?;
    worst.sort_unstable();
    round.host.push(("gen.late_frac", late as f64 / issued.max(1) as f64));
    round.host.push(("gen.late_p99_us", crate::stats::percentile(&worst, 0.99) as f64 / 1e3));

    // Unavailability: from the kill to the end of the longest gap
    // between consecutive completions.
    let mut done = round.done_ns.clone();
    done.sort_unstable();
    let resumed_ns = done
        .windows(2)
        .max_by_key(|w| w[1] - w[0])
        .map(|w| w[1])
        .ok_or("no operation completed in the trial")?;
    if resumed_ns <= kill_ns {
        return Err("the kill of the token home caused no service gap".into());
    }
    round.host.push(("recovery.unavail_ms", (resumed_ns - kill_ns) as f64 / 1e6));

    if traced {
        counts.into_host(&mut round);
        if !auditor.is_clean() {
            return Err(format!("invariant auditor findings: {:?}", auditor.findings()));
        }
        let m = milestones.lock().expect("milestones");
        let started = m.started.iter().copied().filter(|&t| t >= kill_ns).min();
        let completed = m.completed.iter().copied().filter(|&t| t >= kill_ns).min();
        let (Some(started), Some(completed)) = (started, completed) else {
            return Err("no recovery epoch was started and completed after the kill".into());
        };
        let unavail = (resumed_ns - kill_ns) as f64;
        let detect = (started - kill_ns) as f64;
        let elect = completed.saturating_sub(started) as f64;
        let resume = resumed_ns.saturating_sub(completed) as f64;
        round.host.extend([
            ("recovery.detect_ms", detect / 1e6),
            ("recovery.elect_ms", elect / 1e6),
            ("recovery.resume_ms", resume / 1e6),
            ("recovery.detect_share", detect / unavail),
            ("recovery.elect_share", elect / unavail),
            ("recovery.resume_share", resume / unavail),
            ("recovery.msgs_per_failover", round.msgs[7] as f64),
            ("recovery.tokens_regenerated", m.regenerated as f64),
            ("recovery.fenced_msgs", (m.fenced.max(round.counters.fenced)) as f64),
        ]);
    }
    Ok(round)
}
