//! **Observability smoke test**: runs a short hierarchical workload and a
//! crash-recovery scenario, each observed by one flight handle
//! (`SharedAuditor`), writes their artifacts and checks them — exiting
//! non-zero on any failure so CI can gate on it.
//!
//! Artifacts (under `target/experiments/`):
//!
//! * `obs_smoke/flight-node-<i>.jsonl` — the healthy run's JSONL log:
//!   its flight dump, one HLC-stamped JSON object per protocol event
//! * `flight/flight-node-<i>.jsonl` — the crash run's flight dump
//! * `obs_smoke_metrics.prom` — Prometheus text exposition dump with
//!   request-to-grant latency quantiles per mode
//!
//! `timeline <dump-dir> <out.json>` renders either dump as a Chrome
//! trace and `scripts/validate_obs.py <dump-dir>` parses it line by line;
//! CI runs both on both dumps.
//!
//! Checks, per run: the invariant auditor finds nothing (every span
//! opened is closed exactly once, end of stream included), no dump fires
//! without a violation, and every node's window is dumped. The healthy
//! run's rings drop nothing and its dumps hold one line per observed
//! event, with as many `request_issued` lines as the simulator's own
//! metrics count requests; the crash closes the dead node's spans with
//! `request_aborted`; the metrics dump contains what dashboards expect.
//!
//! ```text
//! cargo run --release -p hlock-bench --bin obs_smoke
//! ```

use hlock_core::{
    LockSpace, MetricsRegistry, NodeId, Observer, ProtocolConfig, ProtocolEvent, SharedAuditor,
};
use hlock_sim::{Duration as SimDuration, LatencyModel, NodeCrash, SimConfig, SimTime};
use hlock_workload::{run_experiment, run_recovery_experiment, ProtocolKind, WorkloadConfig};
use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::rc::Rc;

const NODES: usize = 5;

fn fail(msg: &str) -> ! {
    eprintln!("obs_smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// A flight handle for one run, dumping into a fresh `dir`.
fn flight(dir: &Path) -> SharedAuditor {
    if dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(dir) {
            fail(&format!("cannot clear {}: {e}", dir.display()));
        }
    }
    SharedAuditor::recording(NODES, Some(dir.to_path_buf()))
}

/// Ends the run's audit at `end`, checks it, dumps every node's window
/// and returns the dump's lines.
fn dumped_lines(flight: &SharedAuditor, end: u64, run: &str) -> Vec<String> {
    flight.finish(end);
    if !flight.is_clean() {
        fail(&format!("auditor flagged the {run}: {:?}", flight.findings()));
    }
    if flight.dumped() {
        fail(&format!("{run}: flight dump triggered without a violation"));
    }
    let paths = flight.dump().unwrap_or_else(|e| fail(&format!("cannot dump the {run}: {e}")));
    if paths.len() != NODES {
        fail(&format!("{run}: dumped {} flight windows for {NODES} nodes", paths.len()));
    }
    let mut lines = Vec::new();
    for path in &paths {
        match std::fs::read_to_string(path) {
            Ok(text) => lines.extend(text.lines().map(String::from)),
            Err(e) => fail(&format!("cannot read back {}: {e}", path.display())),
        }
    }
    lines
}

fn count(lines: &[String], event: &str) -> usize {
    let needle = format!("\"event\":\"{event}\"");
    lines.iter().filter(|l| l.contains(&needle)).count()
}

fn main() {
    let dir = PathBuf::from("target/experiments");
    let healthy_dir = dir.join("obs_smoke");
    let prom_path = dir.join("obs_smoke_metrics.prom");

    // 1. One short mixed-mode run, flight-recorded and metered.
    let healthy = flight(&healthy_dir);
    let registry = Rc::new(RefCell::new(MetricsRegistry::new()));
    let observed = Rc::new(Cell::new(0u64));
    let (mut f, r, n) = (healthy.clone(), Rc::clone(&registry), Rc::clone(&observed));
    let observer = move |at: u64, e: &ProtocolEvent| {
        f.on_event(at, e);
        r.borrow_mut().on_event(at, e);
        n.set(n.get() + 1);
    };
    let workload = WorkloadConfig { entries: 4, ops_per_node: 6, seed: 42, ..Default::default() };
    let report = match run_experiment(
        ProtocolKind::Hierarchical(ProtocolConfig::paper()),
        NODES,
        &workload,
        LatencyModel::paper(),
        1,
        Some(Box::new(observer)),
    ) {
        Ok(r) => r,
        Err(e) => fail(&format!("run violated an invariant: {e}")),
    };
    if !report.quiescent {
        fail("run did not quiesce");
    }
    if healthy.dropped() != 0 {
        fail(&format!("the healthy run's rings dropped {} events", healthy.dropped()));
    }
    let lines = dumped_lines(&healthy, report.end_time.0, "healthy run");
    if lines.is_empty() || lines.len() as u64 != observed.get() {
        fail(&format!("dumps hold {} lines for {} observed events", lines.len(), observed.get()));
    }
    let requests = count(&lines, "request_issued") as u64;
    if requests != report.metrics.total_requests() {
        fail(&format!(
            "request_issued events ({requests}) disagree with metrics ({})",
            report.metrics.total_requests()
        ));
    }

    // 2. The Prometheus dump has the request-to-grant histogram per mode.
    let prom = registry.borrow().render();
    for needle in ["hlock_request_to_grant_micros", "mode=", "quantile=", "hlock_grants_total"] {
        if !prom.contains(needle) {
            fail(&format!("metrics dump missing {needle}"));
        }
    }
    if let Err(e) = std::fs::write(&prom_path, &prom) {
        fail(&format!("cannot write {}: {e}", prom_path.display()));
    }

    // 3. Crash-recovery scenario: kill the token home mid-workload and
    //    let the survivors elect a new epoch. The auditor must stay
    //    silent (the protocol is correct) and the dead node's open spans
    //    must close via `request_aborted` (no span leak on crash).
    let flight_dir = dir.join("flight");
    let crashed = flight(&flight_dir);
    // Entry tokens spread over nodes 1..n, so node 0's entry requests
    // travel the wire: crashing it mid-run both loses a token (forcing
    // an election) and strands open request spans (forcing aborts).
    let wl = WorkloadConfig {
        entries: 4,
        ops_per_node: 6,
        seed: 13,
        spread_token_homes: true,
        ..Default::default()
    };
    let sim = SimConfig {
        check_every: 1,
        crashes: vec![NodeCrash { node: NodeId(0), at: SimTime::from_millis(600) }],
        watchdog: Some(SimDuration::from_millis(60_000)),
        ..SimConfig::default()
    };
    let recovery = match run_recovery_experiment(
        |id, homes| LockSpace::with_homes(id, homes, ProtocolConfig::default()),
        NODES,
        &wl,
        sim,
        Some(Box::new(crashed.clone())),
    ) {
        Ok(r) => r,
        Err(e) => fail(&format!("recovery run violated an invariant: {e}")),
    };
    if !recovery.report.quiescent {
        fail("recovery run did not quiesce");
    }
    if recovery.max_epoch == 0 {
        fail("crash did not trigger a recovery round");
    }
    let crash_lines = dumped_lines(&crashed, recovery.report.end_time.0, "recovery run");
    let aborted = count(&crash_lines, "request_aborted");
    if aborted == 0 {
        fail("crash closed no spans via request_aborted");
    }

    println!(
        "obs_smoke: OK — {} events, {requests} requests, spans balanced, {NODES} dumps",
        lines.len()
    );
    println!(
        "obs_smoke: crash scenario OK — epoch {}, {aborted} spans aborted, auditor clean, \
         {NODES} dumps",
        recovery.max_epoch
    );
    println!("  {}", healthy_dir.display());
    println!("  {}", prom_path.display());
    println!("  {}", flight_dir.display());
}
