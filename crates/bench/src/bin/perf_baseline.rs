//! **Sharded-runtime performance baseline**: a fixed-seed
//! throughput/latency matrix over the real TCP transport, written to
//! `BENCH_perf.json` for the CI perf gate (`scripts/perf_gate.py`).
//!
//! The matrix crosses shard counts (1, 2, 4, 8) with three operation
//! mixes on [`hlock_net::ShardedCluster`]:
//!
//! * `read_heavy` — 90% `R` / 10% `W` over 64 entry locks,
//! * `write_heavy` — 30% `R` / 70% `W` over 64 entry locks,
//! * `hierarchical` — the paper's lock-set pattern: `IR`/`IW` on the
//!   whole-table lock, then `R`/`W` on one entry,
//!
//! plus a 256-node connection-scaling cell on the mux transport, two
//! single-lock exclusive baseline rows (Naimi–Trehel and Raymond on the
//! unsharded [`hlock_net::Cluster`]) so shard scaling can be read against
//! the classic token algorithms, and the same exclusive loop with the
//! flight recorder and online auditor attached.
//!
//! Every run uses one fixed seed per (mix, thread) pair, so two
//! invocations on the same machine do the identical operation sequence
//! — the CI gate compares throughput and p99 request-to-grant latency
//! against the committed `BENCH_perf.json`. (The deterministic open-loop
//! scenario cells are not wall-clock numbers: they live in the
//! `scenarios` block of EXPERIMENTS.md, checked exactly by `experiments
//! --check`.)
//!
//! ```text
//! cargo run --release -p hlock-bench --bin perf_baseline [--quick] [--out PATH]
//! ```

use hlock_core::rng::Rng;
use hlock_core::{LockId, Mode, NodeId, ProtocolConfig};
use hlock_naimi::NaimiSpace;
use hlock_net::{Cluster, ShardedCluster};
use hlock_raymond::RaymondSpace;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Locks per node: the whole-table lock (id 0) plus 63 entry locks.
const LOCKS: usize = 64;
/// Concurrent driver threads, all on node 0 (the token home), so the
/// measured bottleneck is the runtime, not the wire.
const THREADS: usize = 8;
const TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq)]
enum Mix {
    ReadHeavy,
    WriteHeavy,
    Hierarchical,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::ReadHeavy => "read_heavy",
            Mix::WriteHeavy => "write_heavy",
            Mix::Hierarchical => "hierarchical",
        }
    }
}

/// Latency percentiles over one run's per-op request-to-grant times.
struct LatencySummary {
    p50: u64,
    p90: u64,
    p99: u64,
    p999: u64,
    mean: f64,
    max: u64,
}

fn summarize(mut samples: Vec<u64>) -> LatencySummary {
    assert!(!samples.is_empty());
    samples.sort_unstable();
    let pct = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize];
    LatencySummary {
        p50: pct(0.50),
        p90: pct(0.90),
        p99: pct(0.99),
        p999: pct(0.999),
        mean: samples.iter().sum::<u64>() as f64 / samples.len() as f64,
        max: *samples.last().unwrap(),
    }
}

/// One row of the matrix.
struct Entry {
    protocol: &'static str,
    shards: usize,
    mix: &'static str,
    ops: u64,
    elapsed_micros: u64,
    throughput: f64,
    latency: LatencySummary,
}

/// One measured run of a cell: total grants, elapsed wall time and the
/// per-grant latencies in micros.
type Run = (u64, Duration, Vec<u64>);

/// Outstanding requests a driver thread keeps in flight. Pipelining
/// decouples driver threads from per-op wakeup latency so the measured
/// bottleneck is the shard workers' dispatch throughput — the thing
/// sharding scales — rather than condvar round trips.
const PIPELINE: usize = 64;

/// Drives `ops_per_thread` operations of `mix` from every thread.
///
/// Each thread acquires entry locks only from its own partition
/// (`lock % THREADS == t`), and the shared whole-table lock only in
/// intent modes (which are mutually compatible), so pipelined holds can
/// never form a cross-thread wait cycle: every ticket's blockers are the
/// same thread's earlier tickets, whose releases are already enqueued.
fn drive_sharded(cluster: &ShardedCluster, mix: Mix, ops_per_thread: u64) -> Run {
    let node = cluster.node(0);
    let started = Instant::now();
    let lat: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    // Seed fixed per (mix, thread): identical sequences
                    // on every invocation.
                    let mut rng = Rng::new(((t as u64 + 1) << 8) ^ mix.name().len() as u64);
                    let mine: Vec<LockId> = (1..LOCKS as u32)
                        .map(LockId)
                        .filter(|l| l.0 as usize % THREADS == t)
                        .collect();
                    let mut lat = Vec::with_capacity(ops_per_thread as usize);
                    let mut inflight: std::collections::VecDeque<(
                        LockId,
                        hlock_core::Ticket,
                        Instant,
                    )> = std::collections::VecDeque::with_capacity(PIPELINE + 1);
                    let drain_one = |q: &mut std::collections::VecDeque<_>, lat: &mut Vec<u64>| {
                        let (lock, ticket, t0): (LockId, hlock_core::Ticket, Instant) =
                            q.pop_front().unwrap();
                        node.wait(lock, ticket, TIMEOUT).expect("grant");
                        lat.push(t0.elapsed().as_micros() as u64);
                        node.release(lock, ticket).expect("release");
                    };
                    for _ in 0..ops_per_thread {
                        match mix {
                            Mix::ReadHeavy | Mix::WriteHeavy => {
                                let lock = mine[rng.index(mine.len())];
                                let write_pct = if mix == Mix::ReadHeavy { 10 } else { 70 };
                                let mode = if rng.below(100) < write_pct {
                                    Mode::Write
                                } else {
                                    Mode::Read
                                };
                                let t0 = Instant::now();
                                let ticket = node.request(lock, mode).expect("request");
                                inflight.push_back((lock, ticket, t0));
                            }
                            Mix::Hierarchical => {
                                // Table intent lock, then one entry: the
                                // CCS lock-set pattern.
                                let entry = mine[rng.index(mine.len())];
                                let write = rng.below(100) < 10;
                                let (ti, te) = if write {
                                    (Mode::IntentWrite, Mode::Write)
                                } else {
                                    (Mode::IntentRead, Mode::Read)
                                };
                                let t0 = Instant::now();
                                let table = node.request(LockId(0), ti).expect("table");
                                inflight.push_back((LockId(0), table, t0));
                                let leaf = node.request(entry, te).expect("entry");
                                inflight.push_back((entry, leaf, t0));
                            }
                        }
                        while inflight.len() >= PIPELINE {
                            drain_one(&mut inflight, &mut lat);
                        }
                    }
                    while !inflight.is_empty() {
                        drain_one(&mut inflight, &mut lat);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver thread")).collect()
    });
    let elapsed = started.elapsed();
    let samples: Vec<u64> = lat.into_iter().flatten().collect();
    (samples.len() as u64, elapsed, samples)
}

/// Nodes in the connection-scaling cell: enough that the mux serves
/// hundreds of links from its fixed worker pool, small enough that the
/// cell stays sub-second even on stingy CI runners.
const CONN_NODES: usize = 256;

/// Connection-scaling cell: one grant per node on a `CONN_NODES`-node
/// mux mesh — the `mux_smoke` sweep, measured. Every node dials the
/// token home at once, so the row tracks the event loop's cold-connect
/// and dispatch throughput at mesh scale rather than single-link
/// runtime speed (what the sharded rows measure).
fn drive_conn_scaling() -> Run {
    let cluster = Cluster::spawn_hierarchical(CONN_NODES, CONN_NODES, ProtocolConfig::default())
        .expect("spawn mux mesh");
    let started = Instant::now();
    let mut tickets = Vec::with_capacity(CONN_NODES);
    for i in 1..CONN_NODES {
        let t0 = Instant::now();
        let ticket = cluster.node(i).request(LockId(i as u32), Mode::Write).expect("request");
        tickets.push((i, ticket, t0));
    }
    let mut samples = Vec::with_capacity(CONN_NODES);
    for &(i, ticket, t0) in &tickets {
        cluster.node(i).wait(ticket, TIMEOUT).expect("grant");
        samples.push(t0.elapsed().as_micros() as u64);
    }
    for &(i, ticket, _) in &tickets {
        cluster.node(i).release(LockId(i as u32), ticket).expect("release");
    }
    let elapsed = started.elapsed();
    cluster.shutdown();
    (samples.len() as u64, elapsed, samples)
}

/// Exclusive-lock baseline on the unsharded event-loop cluster.
fn drive_baseline<P>(node: &hlock_net::NodeHandle<P>, ops_per_thread: u64) -> Run
where
    P: hlock_core::ConcurrencyProtocol + Send + 'static,
    P::Message: hlock_wire::WireCodec + Send + 'static,
{
    let started = Instant::now();
    let lat: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(ops_per_thread as usize);
                    for _ in 0..ops_per_thread {
                        let t0 = Instant::now();
                        let ticket = node.acquire(LockId(0), Mode::Write, TIMEOUT).expect("grant");
                        lat.push(t0.elapsed().as_micros() as u64);
                        node.release(LockId(0), ticket).expect("release");
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("driver thread")).collect()
    });
    let elapsed = started.elapsed();
    let samples: Vec<u64> = lat.into_iter().flatten().collect();
    (samples.len() as u64, elapsed, samples)
}

/// The fastest of `reps` runs. Scheduling noise dominates tail latency
/// on short runs; keeping the best-throughput repetition of each cell
/// (standard best-of-N benchmarking) puts the committed baseline and the
/// CI rerun both near the machine's actual capability.
fn best_of(reps: usize, mut run: impl FnMut() -> Run) -> Run {
    (0..reps).map(|_| run()).min_by_key(|r| r.1).expect("at least one rep")
}

/// Appends `run` as a row of the matrix and prints it.
fn record(
    entries: &mut Vec<Entry>,
    protocol: &'static str,
    shards: usize,
    mix: &'static str,
    (ops, elapsed, samples): Run,
) {
    let micros = elapsed.as_micros().max(1) as u64;
    let e = Entry {
        protocol,
        shards,
        mix,
        ops,
        elapsed_micros: micros,
        throughput: ops as f64 * 1e6 / micros as f64,
        latency: summarize(samples),
    };
    println!(
        "{:<22} shards={} mix={:<12} {:>9.0} ops/s  p50={}us p99={}us p99.9={}us",
        e.protocol, e.shards, e.mix, e.throughput, e.latency.p50, e.latency.p99, e.latency.p999
    );
    entries.push(e);
}

fn usage(arg: &str) -> ! {
    eprintln!("usage: perf_baseline [--quick] [--out PATH] (at `{arg}`)");
    std::process::exit(2);
}

fn main() {
    let (mut quick, mut out_path) = (false, "BENCH_perf.json".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().unwrap_or_else(|| usage(&arg)),
            _ => usage(&arg),
        }
    }
    let ops_per_thread: u64 = if quick { 500 } else { 10_000 };
    let reps = if quick { 1 } else { 3 };

    let mut entries: Vec<Entry> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        for mix in [Mix::ReadHeavy, Mix::WriteHeavy, Mix::Hierarchical] {
            let run = best_of(reps, || {
                let cluster =
                    ShardedCluster::spawn_hierarchical(2, LOCKS, shards, ProtocolConfig::default())
                        .expect("spawn sharded cluster");
                let run = drive_sharded(&cluster, mix, ops_per_thread);
                cluster.shutdown();
                run
            });
            record(&mut entries, "sharded-hierarchical", shards, mix.name(), run);
        }
    }

    // Connection-scaling cell on the mux transport: spawn cost is part
    // of what the cell guards (cold dials ride the measured path), so
    // the whole spawn-sweep-shutdown cycle repeats per rep.
    let run = best_of(reps, drive_conn_scaling);
    record(&mut entries, "mux-hierarchical", 1, "conn_scaling_256", run);

    // Exclusive single-lock baselines for scale reference (same best-of-N
    // policy: these calibration rows must not be noisier than the rows
    // they contextualize).
    let run = best_of(reps, || {
        let cluster = Cluster::spawn(2, |i| NaimiSpace::new(NodeId(i as u32), 1, NodeId(0)))
            .expect("spawn naimi");
        let run = drive_baseline(cluster.node(0), ops_per_thread);
        cluster.shutdown();
        run
    });
    record(&mut entries, "naimi", 1, "write_only", run);
    let run = best_of(reps, || {
        let cluster = Cluster::spawn(2, |i| RaymondSpace::new(NodeId(i as u32), 2, 1, NodeId(0)))
            .expect("spawn raymond");
        let run = drive_baseline(cluster.node(0), ops_per_thread);
        cluster.shutdown();
        run
    });
    record(&mut entries, "raymond", 1, "write_only", run);

    // Flight-recorder-enabled cell: the same exclusive write loop with
    // the per-node ring recorder, HLC wire stamping, and the online
    // invariant auditor all live. Its row sits next to the unrecorded
    // baselines so the "observability on" tax stays visible (and gated
    // against collapse) rather than assumed negligible.
    let run = best_of(reps, || {
        let (cluster, flight) = Cluster::spawn_recorded(
            2,
            |i| {
                hlock_core::LockSpace::new(
                    NodeId(i as u32),
                    LOCKS,
                    NodeId(0),
                    ProtocolConfig::default(),
                )
            },
            None,
            |_| None,
        )
        .expect("spawn recorded cluster");
        let run = drive_baseline(cluster.node(0), ops_per_thread);
        assert!(flight.is_clean(), "auditor flagged the clean benchmark: {:?}", flight.findings());
        cluster.shutdown();
        run
    });
    record(&mut entries, "mux-hierarchical-flight", 1, "write_only", run);

    let tput = |shards: usize| {
        entries
            .iter()
            .find(|e| {
                e.protocol == "sharded-hierarchical" && e.shards == shards && e.mix == "read_heavy"
            })
            .map_or(0.0, |e| e.throughput)
    };
    let speedup = tput(4) / tput(1).max(1e-9);
    println!("speedup read_heavy 4 shards vs 1: {speedup:.2}x");

    write_json(&out_path, quick, ops_per_thread, &entries, speedup);
    println!("wrote {out_path}");
}

/// Hand-rolled JSON, matching the repo's no-serde-for-artifacts
/// convention: the v3 schema is documented in docs/PERFORMANCE.md.
fn write_json(out_path: &str, quick: bool, ops_per_thread: u64, entries: &[Entry], speedup: f64) {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"hlock-perf-baseline/v3\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"nodes\": 2,");
    let _ = writeln!(json, "  \"locks\": {LOCKS},");
    let _ = writeln!(json, "  \"threads\": {THREADS},");
    let _ = writeln!(json, "  \"ops_per_thread\": {ops_per_thread},");
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"protocol\": \"{}\", \"shards\": {}, \"mix\": \"{}\", \"ops\": {}, \
             \"elapsed_micros\": {}, \"throughput_ops_per_sec\": {:.1}, \
             \"latency_micros\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \
             \"mean\": {:.1}, \"max\": {}}}}}{}",
            e.protocol,
            e.shards,
            e.mix,
            e.ops,
            e.elapsed_micros,
            e.throughput,
            e.latency.p50,
            e.latency.p90,
            e.latency.p99,
            e.latency.p999,
            e.latency.mean,
            e.latency.max,
            comma
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"derived\": {{\"speedup_read_heavy_4_shards\": {speedup:.3}}}");
    json.push_str("}\n");
    std::fs::write(out_path, json).expect("write BENCH_perf.json");
}
