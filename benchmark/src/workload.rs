//! One workload, one process: runs the rounds of a workload, derives its
//! metrics and checks that every declared metric was measured.

use crate::harness::{end_to_end, host_layers, Round, ROUNDS};
use crate::metrics::{zero_when_absent, END_TO_END, PER_LAYER};
use crate::script::{generate, script_digest, Workload, FAILOVER_TRIAL_US, SIM_NODES};
use crate::stats::{median, Metric, Report};
use crate::trace::Span;
use crate::{failover, ledger, sharded, simw, tcp};
use std::time::{Duration, Instant};

/// Rounds (fresh clusters) the window of a TCP workload is split into:
/// the median over many short rounds shrugs off a burst of interference
/// that would own a fifth of the window.
const TCP_ROUNDS: usize = 10;

/// Spans of operations beyond this index stay out of the trace file
/// (they are still in every metric), which keeps the file readable.
const TRACE_FILE_OPS: u64 = 2_000;

pub struct Outcome {
    /// The declared metrics of this run, in declaration order.
    pub metrics: Vec<Metric>,
    /// Host-specific figures outside the declared lists (text report and
    /// results file only).
    pub extras: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub script_digest: u64,
    pub rounds: usize,
    /// Spans for `<workload>.trace.jsonl` (traced runs).
    pub spans: Vec<Span>,
}

/// Runs the workload's rounds for `seconds` of measured window.
/// Untraced runs split the window into [`ROUNDS`] rounds; traced runs
/// alternate untraced and traced rounds so the tracing overhead is the
/// difference between rounds of one process.
fn rounds(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Vec<Round>, String> {
    let is_traced = |i: usize| traced && i % 2 == 1;
    let mut out = Vec::new();
    match workload {
        Workload::TcpReadHot | Workload::TcpWriteHot | Workload::ShardedPipeline => {
            let count = if traced { TCP_ROUNDS + 2 } else { TCP_ROUNDS };
            let window = Duration::from_secs_f64(seconds / count as f64);
            for i in 0..count {
                out.push(compacted(match workload {
                    Workload::ShardedPipeline => {
                        sharded::round(seed, i as u64, window, is_traced(i))
                    }
                    _ => tcp::round(workload, seed, i as u64, window, is_traced(i)),
                })?);
            }
        }
        Workload::SimReadHot | Workload::SimFlashCrowd => {
            // Fixed virtual length per round; rounds repeat (fresh seeds)
            // until the wall-clock window is spent. The first ROUNDS
            // untraced rounds are the exact function of the seed.
            let started = Instant::now();
            let least = if traced { 2 * ROUNDS } else { ROUNDS };
            let mut i = 0;
            while i < least || started.elapsed().as_secs_f64() < seconds {
                let index = if traced { i / 2 } else { i } as u64;
                out.push(compacted(simw::round(workload, seed, index, is_traced(i)))?);
                i += 1;
            }
        }
        Workload::Failover => {
            let trial_s = FAILOVER_TRIAL_US as f64 / 1e6;
            let least = if traced { 4 } else { 3 };
            let count = ((seconds / trial_s) as usize).max(least);
            for i in 0..count {
                out.push(compacted(failover::trial(seed, i as u64, is_traced(i)))?);
            }
        }
    }
    Ok(out)
}

/// Runs one round and reduces its samples before the next one starts.
fn compacted(round: Result<Round, String>) -> Result<Round, String> {
    round.map(|mut r| {
        r.compact();
        r
    })
}

/// Median over the rounds that carry host value `name`.
fn host_median(rounds: &[Round], name: &str) -> Option<f64> {
    let values: Vec<f64> = rounds.iter().filter_map(|r| r.host_value(name)).collect();
    (!values.is_empty()).then(|| median(&values))
}

/// Longest a run waits for the machine to come to rest.
const SETTLE_MAX: Duration = Duration::from_secs(12);
/// A blocking wake-up round trip between two threads takes 2-3 us on a
/// machine at rest and 30-40 us on one that is not (see below).
const RESTING_WAKEUP_US: f64 = 10.0;

/// Waits until the machine is at rest before anything is measured.
///
/// On the small VMs this benchmark runs on, the host treats the guest's
/// CPUs differently for about nine seconds after any spell of sustained
/// load — a build, a CPU-bound run just before: waking a blocked thread
/// then costs over ten times as much, and the socket-bound workloads run
/// about 2.4x slower. Which state a run starts in would otherwise depend
/// on what ran before it. The state shows directly in the round-trip
/// time of two threads waking each other through a condition variable,
/// so the run probes that, a few milliseconds at a time, and starts once
/// it reads as at rest twice in a row (at once on a machine that already
/// is; after [`SETTLE_MAX`] at the latest, so a machine whose wake-ups are
/// always slow still runs). Not part of `setup_s`.
fn settle_machine() {
    let started = Instant::now();
    let mut resting = 0;
    while resting < 2 && started.elapsed() < SETTLE_MAX {
        resting =
            if crate::sys::wakeup_round_trip_us() < RESTING_WAKEUP_US { resting + 1 } else { 0 };
        if resting < 2 {
            std::thread::sleep(Duration::from_millis(200));
        }
    }
}

pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    settle_machine();
    let rounds = rounds(workload, seed, seconds, traced)?;
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    if attempted == 0 {
        return Err("no operation was attempted".into());
    }
    for r in &rounds {
        if r.attempted != r.completed() + r.failed {
            return Err(format!(
                "accounting: {} attempted but {} completed + {} failed",
                r.attempted,
                r.completed(),
                r.failed
            ));
        }
    }

    let mut report = Report::default();
    let mut spans = Vec::new();
    if traced {
        host_layers(&rounds, &mut report);
        let merged = generate(workload, seed, 0).merged();
        let nodes = match workload {
            Workload::TcpReadHot | Workload::TcpWriteHot => tcp::NODES as u32,
            Workload::ShardedPipeline => sharded::NODES as u32,
            Workload::SimReadHot | Workload::SimFlashCrowd => SIM_NODES,
            Workload::Failover => failover::NODES as u32,
        };
        let pipelined = !matches!(workload, Workload::TcpReadHot | Workload::TcpWriteHot);
        let script =
            ledger::Script { ops: &merged, nodes, window: workload.in_flight(), pipelined };
        let ledger = ledger::run(&script, &mut report)?;

        let p50s: Vec<f64> = rounds
            .iter()
            .filter(|r| r.traced)
            .filter_map(|r| r.summary)
            .map(|s| s.p50_ns / 1e3)
            .collect();
        report.once("net.residual_us_per_op", "us", median(&p50s) - ledger.blocking_ns_p50 / 1e3);
        report.once("gen.ops_measured", "count", attempted as f64);
        for (name, value) in &ledger.api {
            if report.get(name).is_none() {
                report.once(name, "ns", *value);
            }
        }
        spans.extend(ledger.spans.into_iter().filter(|s| s.op < TRACE_FILE_OPS));
        for r in &rounds {
            let first = r.spans.iter().map(|s| s.op).min().unwrap_or(0);
            spans.extend(r.spans.iter().filter(|s| s.op < first + TRACE_FILE_OPS).map(|s| {
                // Lanes of the live drivers are offset past the replay's
                // lane 0 so the two sources stay apart in the file.
                Span { lane: s.lane + 1, ..*s }
            }));
        }
    } else {
        end_to_end(&rounds, &mut report);
    }

    // Declared metrics, in declaration order; host values fill what the
    // shared derivations did not produce.
    let declared: Vec<(&'static str, &'static str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let measured = report.metrics.iter().find(|m| m.name == name).cloned().or_else(|| {
            let value = host_median(&rounds, name).or(zero_when_absent(name).then_some(0.0))?;
            Some(Metric::single(name, unit, value, rounds.len() as u64))
        });
        let metric = measured.ok_or_else(|| format!("metric {name} was not measured"))?;
        if !metric.value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        assert_eq!(metric.unit, unit, "{name} is reported in its declared unit");
        metrics.push(metric);
    }

    let extras = EXTRAS
        .into_iter()
        .filter_map(|(name, unit)| {
            let value = host_median(&rounds, name)?;
            Some(Metric::single(name, unit, value, rounds.len() as u64))
        })
        .collect();
    Ok(Outcome {
        metrics,
        extras,
        attempted,
        failed,
        script_digest: script_digest(workload, seed),
        rounds: rounds.len(),
        spans,
    })
}

/// Host-specific figures reported beside the declared metrics.
const EXTRAS: [(&str, &str); 7] = [
    ("recovery.unavail_ms", "ms"),
    ("recovery.detect_ms", "ms"),
    ("recovery.elect_ms", "ms"),
    ("recovery.resume_ms", "ms"),
    ("gen.late_p99_us", "us"),
    ("sim.ns_per_event", "ns"),
    ("observe.host_events_per_op", "count"),
];
