//! **Observability smoke test**: runs a short hierarchical workload with
//! every exporter attached, writes the artifacts, and validates them —
//! exiting non-zero on any failure so CI can gate on it.
//!
//! Artifacts (under `target/experiments/`):
//!
//! * `obs_smoke.jsonl` — one JSON object per protocol event
//! * `obs_smoke_trace.json` — Chrome-trace document (Trace Event
//!   Format); load it in `chrome://tracing` or <https://ui.perfetto.dev>
//! * `obs_smoke_metrics.prom` — Prometheus text exposition dump with
//!   request-to-grant latency quantiles per mode
//!
//! Checks: the JSONL parses line-by-line, the invariant auditor finds
//! nothing in the event stream (every span opened is closed exactly
//! once, end of stream included), event counts agree with the
//! simulator's own metrics, and the trace/metrics dumps contain what
//! dashboards expect.
//!
//! ```text
//! cargo run --release -p hlock-bench --bin obs_smoke
//! ```

use hlock_core::{
    ChromeTraceObserver, InvariantAuditor, JsonlObserver, LockSpace, MetricsRegistry, NodeId,
    Observer, ProtocolConfig, ProtocolEvent, RecordingAuditor, DEFAULT_FLIGHT_CAPACITY,
};
use hlock_sim::{Duration as SimDuration, LatencyModel, NodeCrash, SimConfig, SimTime};
use hlock_workload::{run_experiment, run_recovery_experiment, ProtocolKind, WorkloadConfig};
use std::cell::RefCell;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::rc::Rc;

fn fail(msg: &str) -> ! {
    eprintln!("obs_smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// Minimal structural validation of one JSONL line: an object with
/// balanced braces outside string literals and the fields every event
/// carries. Not a JSON parser — just enough to catch corrupt output.
fn validate_jsonl_line(line: &str) -> Result<(), String> {
    if !line.starts_with('{') || !line.ends_with('}') {
        return Err(format!("not an object: {line}"));
    }
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escape = false;
    for c in line.chars() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '{' if !in_str => depth += 1,
            '}' if !in_str => depth -= 1,
            _ => {}
        }
    }
    if depth != 0 || in_str {
        return Err(format!("unbalanced braces or quotes: {line}"));
    }
    for field in ["\"at\":", "\"event\":", "\"node\":"] {
        if !line.contains(field) {
            return Err(format!("missing {field}: {line}"));
        }
    }
    Ok(())
}

fn main() {
    let dir = PathBuf::from("target/experiments");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        fail(&format!("cannot create {}: {e}", dir.display()));
    }
    let jsonl_path = dir.join("obs_smoke.jsonl");
    let trace_path = dir.join("obs_smoke_trace.json");
    let prom_path = dir.join("obs_smoke_metrics.prom");

    // One short mixed-mode run with all three exporters fanned out.
    let file = match File::create(&jsonl_path) {
        Ok(f) => f,
        Err(e) => fail(&format!("cannot create {}: {e}", jsonl_path.display())),
    };
    let jsonl = Rc::new(RefCell::new(JsonlObserver::new(BufWriter::new(file))));
    let chrome = Rc::new(RefCell::new(ChromeTraceObserver::new()));
    let registry = Rc::new(RefCell::new(MetricsRegistry::new()));
    let events: Rc<RefCell<Vec<ProtocolEvent>>> = Rc::default();

    let (j, c, r, ev) =
        (Rc::clone(&jsonl), Rc::clone(&chrome), Rc::clone(&registry), Rc::clone(&events));
    let observer = move |at: u64, e: &ProtocolEvent| {
        j.borrow_mut().on_event(at, e);
        c.borrow_mut().on_event(at, e);
        r.borrow_mut().on_event(at, e);
        ev.borrow_mut().push(e.clone());
    };

    let workload = WorkloadConfig { entries: 4, ops_per_node: 6, seed: 42, ..Default::default() };
    let report = match run_experiment(
        ProtocolKind::Hierarchical(ProtocolConfig::paper()),
        5,
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

    // 1. The in-memory stream is causally sound.
    let events = events.borrow();
    if events.is_empty() {
        fail("no events observed");
    }
    let findings = InvariantAuditor::audit_stream(events.iter());
    if !findings.is_empty() {
        fail(&format!("auditor flagged the observed run: {findings:?}"));
    }
    let requests = events.iter().filter(|e| e.name() == "request_issued").count() as u64;
    if requests != report.metrics.total_requests() {
        fail(&format!(
            "request_issued events ({requests}) disagree with metrics ({})",
            report.metrics.total_requests()
        ));
    }

    // 2. The JSONL artifact is complete and parses.
    {
        let mut jsonl = jsonl.borrow_mut();
        if let Some(e) = jsonl.take_error() {
            fail(&format!("JSONL write error: {e}"));
        }
        if jsonl.lines() != events.len() as u64 {
            fail(&format!("wrote {} lines for {} events", jsonl.lines(), events.len()));
        }
    }
    drop(jsonl); // flush the BufWriter via into_inner on the sole owner
    let text = match std::fs::read_to_string(&jsonl_path) {
        Ok(t) => t,
        Err(e) => fail(&format!("cannot read back {}: {e}", jsonl_path.display())),
    };
    let mut lines = 0u64;
    for line in text.lines() {
        if let Err(e) = validate_jsonl_line(line) {
            fail(&e);
        }
        lines += 1;
    }
    if lines != events.len() as u64 {
        fail(&format!("file has {lines} lines for {} events", events.len()));
    }

    // 3. The Chrome trace is a loadable document with request spans.
    let trace = chrome.borrow().finish();
    if !trace.starts_with("{\"traceEvents\":[") || !trace.trim_end().ends_with("]}") {
        fail("chrome trace is not a traceEvents document");
    }
    if !trace.contains("\"ph\":\"b\"") || !trace.contains("\"ph\":\"e\"") {
        fail("chrome trace has no async request spans");
    }
    if let Err(e) = std::fs::write(&trace_path, &trace) {
        fail(&format!("cannot write {}: {e}", trace_path.display()));
    }

    // 4. The Prometheus dump has the request-to-grant histogram per mode.
    let prom = registry.borrow().render();
    for needle in ["hlock_request_to_grant_micros", "mode=", "quantile=", "hlock_grants_total"] {
        if !prom.contains(needle) {
            fail(&format!("metrics dump missing {needle}"));
        }
    }
    if let Err(e) = std::fs::write(&prom_path, &prom) {
        fail(&format!("cannot write {}: {e}", prom_path.display()));
    }

    // 5. Crash-recovery scenario, flight-recorded and live-audited:
    //    kill the token home mid-workload, let the survivors elect a
    //    new epoch, and stream every event through the invariant
    //    auditor. The auditor must stay silent (the protocol is
    //    correct), the dead node's open spans must close via
    //    `request_aborted` (no span leak on crash), and every node's
    //    flight window is dumped for the `timeline` merger.
    let flight_dir = dir.join("flight");
    let _ = std::fs::remove_dir_all(&flight_dir);
    const CRASH_NODES: usize = 5;
    let auditor = Rc::new(RefCell::new(RecordingAuditor::new(
        CRASH_NODES,
        DEFAULT_FLIGHT_CAPACITY,
        Some(flight_dir.clone()),
    )));
    let crash_events: Rc<RefCell<Vec<ProtocolEvent>>> = Rc::default();
    let (a, ev) = (Rc::clone(&auditor), Rc::clone(&crash_events));
    let crash_observer = move |at: u64, e: &ProtocolEvent| {
        a.borrow_mut().on_event(at, e);
        ev.borrow_mut().push(e.clone());
    };
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
        CRASH_NODES,
        &wl,
        sim,
        Some(Box::new(crash_observer)),
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
    let mut auditor = auditor.borrow_mut();
    auditor.auditor.finish(recovery.report.end_time.0);
    if !auditor.auditor.is_clean() {
        fail(&format!("auditor flagged a clean recovery run: {:?}", auditor.auditor.findings()));
    }
    if auditor.dumped() {
        fail("flight dump triggered without a violation");
    }
    let crash_events = crash_events.borrow();
    let aborted = crash_events.iter().filter(|e| e.name() == "request_aborted").count();
    if aborted == 0 {
        fail("crash closed no spans via request_aborted");
    }
    let paths = match auditor.recorder.dump_all(&flight_dir) {
        Ok(p) => p,
        Err(e) => fail(&format!("cannot dump flight windows: {e}")),
    };
    if paths.len() != CRASH_NODES {
        fail(&format!("dumped {} flight windows for {CRASH_NODES} nodes", paths.len()));
    }

    println!(
        "obs_smoke: OK — {} events, {} requests, spans balanced",
        events.len(),
        report.metrics.total_requests()
    );
    println!(
        "obs_smoke: crash scenario OK — epoch {}, {} spans aborted, auditor clean, {} dumps",
        recovery.max_epoch,
        aborted,
        paths.len()
    );
    println!("  {}", jsonl_path.display());
    println!("  {}", trace_path.display());
    println!("  {}", prom_path.display());
    println!("  {}", flight_dir.display());
}
