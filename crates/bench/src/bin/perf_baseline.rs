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
//! plus two single-lock exclusive baseline rows (Naimi–Trehel and
//! Raymond on the unsharded [`hlock_net::Cluster`]) so shard scaling can
//! be read against the classic token algorithms.
//!
//! Every run uses one fixed seed per (mix, thread) pair, so two
//! invocations on the same machine do the identical operation sequence
//! — the CI gate compares throughput and p99 request-to-grant latency
//! against the committed `BENCH_perf.json`.
//!
//! Alongside the wall-clock matrix, the bin runs the **open-loop
//! scenario library** (`hlock_workload::scenario_presets`): Zipfian hot
//! locks, a flash crowd, multi-tenant namespaces, a filesystem-metadata
//! tree and a deliberately saturated cell, each executed in the
//! deterministic simulator (virtual time, fixed seeds) so the recorded
//! offered/achieved throughput and sojourn tails are bit-identical
//! across machines — which is what lets `scripts/perf_gate.py` hold
//! them to tight per-cell backstops. Each cell's summary and
//! offered-vs-achieved time series land in
//! `target/experiments/scenarios/<name>.jsonl`, and every cell's
//! flight-recorder window is dumped under
//! `target/experiments/scenarios/flight/<name>/` for post-mortems.
//!
//! ```text
//! cargo run --release -p hlock-bench --bin perf_baseline [--quick] [--out PATH]
//!     [--scenarios-only | --no-scenarios] [--scenario SUBSTR]...
//!     [--inject-tail MULT]
//! ```
//!
//! `--scenario` filters the scenario matrix by substring (repeatable);
//! `--inject-tail` multiplies one op-in-256's hold time to fake a tail
//! regression — it exists to prove the perf gate's p99.9 backstop fires.

use hlock_core::rng::Rng;
use hlock_core::{
    ClusterRecorder, LockId, Mode, NodeId, Observer, ProtocolConfig, DEFAULT_FLIGHT_CAPACITY,
};
use hlock_naimi::NaimiSpace;
use hlock_net::{Cluster, ShardedCluster};
use hlock_raymond::RaymondSpace;
use hlock_workload::{run_observed_scenario, scenario_presets, ScenarioReport};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;
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

/// Outstanding requests a driver thread keeps in flight. Pipelining
/// decouples driver threads from per-op wakeup latency so the measured
/// bottleneck is the shard workers' dispatch throughput — the thing
/// sharding scales — rather than condvar round trips.
const PIPELINE: usize = 64;

/// Drives `ops_per_thread` operations of `mix` from every thread and
/// returns (total grants, elapsed, per-grant latencies in micros).
///
/// Each thread acquires entry locks only from its own partition
/// (`lock % THREADS == t`), and the shared whole-table lock only in
/// intent modes (which are mutually compatible), so pipelined holds can
/// never form a cross-thread wait cycle: every ticket's blockers are the
/// same thread's earlier tickets, whose releases are already enqueued.
fn drive_sharded(
    cluster: &ShardedCluster,
    mix: Mix,
    ops_per_thread: u64,
) -> (u64, Duration, Vec<u64>) {
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
fn drive_conn_scaling() -> (u64, Duration, Vec<u64>) {
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
fn drive_baseline<P>(
    node: &hlock_net::NodeHandle<P>,
    ops_per_thread: u64,
) -> (u64, Duration, Vec<u64>)
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

fn entry(
    protocol: &'static str,
    shards: usize,
    mix: &'static str,
    ops: u64,
    elapsed: Duration,
    samples: Vec<u64>,
) -> Entry {
    let micros = elapsed.as_micros().max(1) as u64;
    Entry {
        protocol,
        shards,
        mix,
        ops,
        elapsed_micros: micros,
        throughput: ops as f64 * 1e6 / micros as f64,
        latency: summarize(samples),
    }
}

/// Runs the open-loop scenario matrix (deterministic simulator cells),
/// writing one JSONL (summary + per-second windows) and one directory
/// of flight-recorder dumps per cell under `target/experiments/`.
fn run_scenarios(quick: bool, filters: &[String], inject_tail: f64) -> Vec<ScenarioReport> {
    let dir = Path::new("target/experiments/scenarios");
    std::fs::create_dir_all(dir).expect("create scenario artifact dir");
    let mut reports = Vec::new();
    for preset in scenario_presets() {
        if !filters.is_empty() && !filters.iter().any(|f| preset.name.contains(f.as_str())) {
            continue;
        }
        let mut scenario = if quick { preset.quick() } else { preset };
        if inject_tail > 1.0 {
            scenario = scenario.with_tail_injection(inject_tail);
        }
        let recorder =
            Rc::new(RefCell::new(ClusterRecorder::new(scenario.nodes, DEFAULT_FLIGHT_CAPACITY)));
        let sink = Rc::clone(&recorder);
        let observer =
            move |at: u64, e: &hlock_core::ProtocolEvent| sink.borrow_mut().on_event(at, e);
        let r = run_observed_scenario(&scenario, Some(Box::new(observer)));
        println!(
            "scenario {:<22} [{:<14}] offered {:>7.0}/s achieved {:>7.0}/s  \
             p50={}us p99={}us p99.9={}us  msgs/grant={:.2}",
            r.name,
            r.protocol,
            r.offered_rate,
            r.achieved_rate,
            r.sojourn_p50,
            r.sojourn_p99,
            r.sojourn_p999,
            r.messages_per_grant
        );

        // Flight window per cell: the artifact CI uploads when the gate
        // trips, so a tail regression arrives with its event history.
        let flight_dir = dir.join("flight").join(&r.name);
        let _ = std::fs::remove_dir_all(&flight_dir);
        recorder.borrow().dump_all(&flight_dir).expect("dump flight windows");

        // Summary line + one line per offered/achieved window.
        let mut jsonl = String::new();
        let _ = writeln!(jsonl, "{}", scenario_json(&r));
        for (i, w) in r.windows.iter().enumerate() {
            let _ = writeln!(
                jsonl,
                "{{\"scenario\": \"{}\", \"window_s\": {}, \"arrivals\": {}, \"completions\": {}}}",
                r.name, i, w.arrivals, w.completions
            );
        }
        std::fs::write(dir.join(format!("{}.jsonl", r.name)), jsonl).expect("write scenario jsonl");
        reports.push(r);
    }
    reports
}

/// One scenario cell as a JSON object (shared by the JSONL artifact and
/// the `scenarios` array of `BENCH_perf.json`).
fn scenario_json(r: &ScenarioReport) -> String {
    format!(
        "{{\"name\": \"{}\", \"protocol\": \"{}\", \"nodes\": {}, \"locks\": {}, \
         \"offered_ops\": {}, \"completed_ops\": {}, \"offered_rate\": {:.1}, \
         \"achieved_rate\": {:.1}, \
         \"sojourn_micros\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}, \
         \"mean\": {:.1}, \"max\": {}}}, \
         \"messages\": {}, \"grants\": {}, \"messages_per_grant\": {:.3}, \
         \"messages_per_op\": {:.3}, \"max_in_flight\": {}, \"end_time_micros\": {}}}",
        r.name,
        r.protocol,
        r.nodes,
        r.locks,
        r.offered_ops,
        r.completed_ops,
        r.offered_rate,
        r.achieved_rate,
        r.sojourn_p50,
        r.sojourn_p90,
        r.sojourn_p99,
        r.sojourn_p999,
        r.sojourn_mean,
        r.sojourn_max,
        r.messages,
        r.grants,
        r.messages_per_grant,
        r.messages_per_op,
        r.max_in_flight,
        r.end_time_micros
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scenarios_only = args.iter().any(|a| a == "--scenarios-only");
    let no_scenarios = args.iter().any(|a| a == "--no-scenarios");
    if scenarios_only && no_scenarios {
        eprintln!("--scenarios-only and --no-scenarios are mutually exclusive");
        std::process::exit(2);
    }
    let scenario_filters: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| a.as_str() == "--scenario")
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect();
    let inject_tail: f64 = args
        .iter()
        .position(|a| a == "--inject-tail")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--inject-tail takes a multiplier >= 1"))
        .unwrap_or(1.0);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_perf.json".to_string());
    let ops_per_thread: u64 = if quick { 500 } else { 10_000 };

    let scenarios = if no_scenarios {
        Vec::new()
    } else {
        run_scenarios(quick, &scenario_filters, inject_tail)
    };
    if scenarios_only {
        write_json(&out_path, quick, ops_per_thread, &[], &scenarios);
        println!("wrote {out_path}");
        return;
    }

    // Scheduling noise dominates tail latency on short runs; keep the
    // best-throughput repetition of each cell (standard
    // best-of-N benchmarking) so the committed baseline and the CI rerun
    // both sit near the machine's actual capability.
    let reps = if quick { 1 } else { 3 };
    let mut entries: Vec<Entry> = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        for mix in [Mix::ReadHeavy, Mix::WriteHeavy, Mix::Hierarchical] {
            let mut best: Option<(u64, Duration, Vec<u64>)> = None;
            for _ in 0..reps {
                let cluster =
                    ShardedCluster::spawn_hierarchical(2, LOCKS, shards, ProtocolConfig::default())
                        .expect("spawn sharded cluster");
                let run = drive_sharded(&cluster, mix, ops_per_thread);
                cluster.shutdown();
                let faster = best.as_ref().is_none_or(|(_, e, _)| run.1 < *e);
                if faster {
                    best = Some(run);
                }
            }
            let (ops, elapsed, samples) = best.expect("at least one rep");
            let e = entry("sharded-hierarchical", shards, mix.name(), ops, elapsed, samples);
            println!(
                "{:<22} shards={} mix={:<12} {:>9.0} ops/s  p50={}us p99={}us p99.9={}us",
                e.protocol,
                e.shards,
                e.mix,
                e.throughput,
                e.latency.p50,
                e.latency.p99,
                e.latency.p999
            );
            entries.push(e);
        }
    }

    // Connection-scaling cell on the mux transport: spawn cost is part
    // of what the cell guards (cold dials ride the measured path), so
    // the whole spawn-sweep-shutdown cycle repeats per rep.
    {
        let mut best: Option<(u64, Duration, Vec<u64>)> = None;
        for _ in 0..reps {
            let run = drive_conn_scaling();
            if best.as_ref().is_none_or(|(_, e, _)| run.1 < *e) {
                best = Some(run);
            }
        }
        let (ops, elapsed, samples) = best.expect("at least one rep");
        let e = entry("mux-hierarchical", 1, "conn_scaling_256", ops, elapsed, samples);
        println!(
            "{:<22} shards={} mix={:<12} {:>9.0} ops/s  p50={}us p99={}us p99.9={}us",
            e.protocol, e.shards, e.mix, e.throughput, e.latency.p50, e.latency.p99, e.latency.p999
        );
        entries.push(e);
    }

    // Exclusive single-lock baselines for scale reference (same best-of-N
    // policy: these calibration rows must not be noisier than the rows
    // they contextualize).
    {
        let mut best: Option<(u64, Duration, Vec<u64>)> = None;
        for _ in 0..reps {
            let cluster = Cluster::spawn(2, |i| NaimiSpace::new(NodeId(i as u32), 1, NodeId(0)))
                .expect("spawn naimi");
            let run = drive_baseline(cluster.node(0), ops_per_thread);
            cluster.shutdown();
            if best.as_ref().is_none_or(|(_, e, _)| run.1 < *e) {
                best = Some(run);
            }
        }
        let (ops, elapsed, samples) = best.expect("at least one rep");
        let e = entry("naimi", 1, "write_only", ops, elapsed, samples);
        println!(
            "{:<22} shards={} mix={:<12} {:>9.0} ops/s  p50={}us p99={}us p99.9={}us",
            e.protocol, e.shards, e.mix, e.throughput, e.latency.p50, e.latency.p99, e.latency.p999
        );
        entries.push(e);
    }
    {
        let mut best: Option<(u64, Duration, Vec<u64>)> = None;
        for _ in 0..reps {
            let cluster =
                Cluster::spawn(2, |i| RaymondSpace::new(NodeId(i as u32), 2, 1, NodeId(0)))
                    .expect("spawn raymond");
            let run = drive_baseline(cluster.node(0), ops_per_thread);
            cluster.shutdown();
            if best.as_ref().is_none_or(|(_, e, _)| run.1 < *e) {
                best = Some(run);
            }
        }
        let (ops, elapsed, samples) = best.expect("at least one rep");
        let e = entry("raymond", 1, "write_only", ops, elapsed, samples);
        println!(
            "{:<22} shards={} mix={:<12} {:>9.0} ops/s  p50={}us p99={}us p99.9={}us",
            e.protocol, e.shards, e.mix, e.throughput, e.latency.p50, e.latency.p99, e.latency.p999
        );
        entries.push(e);
    }

    // Flight-recorder-enabled cell: the same exclusive write loop with
    // the per-node ring recorder, HLC wire stamping, and the online
    // invariant auditor all live. Its row sits next to the unrecorded
    // baselines so the "observability on" tax stays visible (and gated
    // against collapse) rather than assumed negligible.
    {
        let mut best: Option<(u64, Duration, Vec<u64>)> = None;
        for _ in 0..reps {
            let (cluster, flight) = Cluster::spawn_recorded(
                2,
                |i| {
                    hlock_core::LockSpace::new(
                        hlock_core::NodeId(i as u32),
                        LOCKS,
                        hlock_core::NodeId(0),
                        ProtocolConfig::default(),
                    )
                },
                None,
                |_| None,
            )
            .expect("spawn recorded cluster");
            let run = drive_baseline(cluster.node(0), ops_per_thread);
            assert!(
                flight.auditor().is_clean(),
                "auditor flagged the clean benchmark: {:?}",
                flight.auditor().findings()
            );
            cluster.shutdown();
            if best.as_ref().is_none_or(|(_, e, _)| run.1 < *e) {
                best = Some(run);
            }
        }
        let (ops, elapsed, samples) = best.expect("at least one rep");
        let e = entry("mux-hierarchical-flight", 1, "write_only", ops, elapsed, samples);
        println!(
            "{:<22} shards={} mix={:<12} {:>9.0} ops/s  p50={}us p99={}us p99.9={}us",
            e.protocol, e.shards, e.mix, e.throughput, e.latency.p50, e.latency.p99, e.latency.p999
        );
        entries.push(e);
    }

    let tput = |shards: usize, mix: &str| {
        entries
            .iter()
            .find(|e| e.protocol == "sharded-hierarchical" && e.shards == shards && e.mix == mix)
            .map(|e| e.throughput)
            .unwrap_or(0.0)
    };
    let speedup = tput(4, "read_heavy") / tput(1, "read_heavy").max(1e-9);
    println!("speedup read_heavy 4 shards vs 1: {speedup:.2}x");

    write_json(&out_path, quick, ops_per_thread, &entries, &scenarios);
    println!("wrote {out_path}");
}

/// Hand-rolled JSON, matching the repo's no-serde-for-artifacts
/// convention: the v2 schema is documented in docs/PERFORMANCE.md.
/// Sections the invocation skipped stay empty arrays, and derived
/// metrics are emitted only when their inputs ran — the gate scopes its
/// checks to the populated sections via `--cells`.
fn write_json(
    out_path: &str,
    quick: bool,
    ops_per_thread: u64,
    entries: &[Entry],
    scenarios: &[ScenarioReport],
) {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"hlock-perf-baseline/v2\",");
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
    json.push_str("  \"scenarios\": [\n");
    for (i, r) in scenarios.iter().enumerate() {
        let comma = if i + 1 < scenarios.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{}", scenario_json(r), comma);
    }
    json.push_str("  ],\n");

    let mut derived: Vec<String> = Vec::new();
    if !entries.is_empty() {
        let tput = |shards: usize, mix: &str| {
            entries
                .iter()
                .find(|e| {
                    e.protocol == "sharded-hierarchical" && e.shards == shards && e.mix == mix
                })
                .map(|e| e.throughput)
                .unwrap_or(0.0)
        };
        let speedup = tput(4, "read_heavy") / tput(1, "read_heavy").max(1e-9);
        derived.push(format!("\"speedup_read_heavy_4_shards\": {speedup:.3}"));
    }
    let cell = |name: &str| scenarios.iter().find(|r| r.name == name);
    if let (Some(hier), Some(flat)) = (cell("zipf_read_heavy"), cell("zipf_read_heavy_flat")) {
        // The paper's headline: intention modes + release suppression
        // make the hierarchical protocol cheaper per grant than the
        // flat exclusive baseline doing the identical offered work.
        let ratio = flat.messages_per_grant / hier.messages_per_grant.max(1e-9);
        derived.push(format!("\"zipf_flat_over_hier_messages_per_grant\": {ratio:.3}"));
    }
    if let Some(sat) = cell("saturation") {
        // < 1.0 is the saturation knee: the open-loop driver kept
        // offering load the cell could not serve.
        let knee = sat.achieved_rate / sat.offered_rate.max(1e-9);
        derived.push(format!("\"saturation_achieved_over_offered\": {knee:.3}"));
    }
    let _ = writeln!(json, "  \"derived\": {{{}}}", derived.join(", "));
    json.push_str("}\n");
    std::fs::write(out_path, json).expect("write BENCH_perf.json");
}
