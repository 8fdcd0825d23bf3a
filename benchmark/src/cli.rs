//! The command line. Three ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints its metrics; the last line is
//!   the machine-readable result (`--trace 0`: end-to-end metrics,
//!   `--trace 1`: per-layer metrics).
//! * `run [--seed <n>] [--seconds <s>] [--traced] [--smoke]` runs every
//!   workload, each in a child process of its own, and writes
//!   `results.json` under the output directory.
//! * `compare A.json B.json` applies the declared bounds to two result
//!   files and exits non-zero on a regression.

use crate::json::Json;
use crate::script::Workload;
use crate::{compare, run_all, stats, sys, trace, workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Exit code of a run that measured something incorrect (a safety
/// violation, an unaccounted operation, an unmeasured metric).
pub const EXIT_INCORRECT: u8 = 1;
const EXIT_USAGE: u8 = 2;
/// Exit code of a run the watchdog had to stop.
const EXIT_WATCHDOG: u8 = 3;

/// A single workload must finish well inside the harness's 180 s limit.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Where result and trace files go: `benchmark/` under the cargo target
/// directory (the benchmark's own `target/` when none is set).
pub fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/target"))
        .join("benchmark")
}

pub struct Args(pub Vec<String>);

impl Args {
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    pub fn value<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        let raw = self.0.remove(i + 1);
        self.0.remove(i);
        raw.parse().map(Some).map_err(|_| format!("bad value for {name}: {raw}"))
    }

    pub fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument: {extra}")),
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  hlock-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n  \
     hlock-benchmark run [--seed <n>] [--seconds <s>] [--traced] [--smoke] [--out <dir>]\n  \
     hlock-benchmark compare <A.json> <B.json>\n  hlock-benchmark manifest | digests [--seed <n>]\nworkloads: tcp_read_hot tcp_write_hot \
     sharded_pipeline sim_read_hot sim_flash_crowd failover"
}

/// Runs one workload in this process and prints its report.
fn single(mut args: Args) -> Result<ExitCode, String> {
    let name: String = args.value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::from_name(&name).ok_or(format!("unknown workload: {name}"))?;
    let seed: u64 = args.value("--seed")?.unwrap_or(1);
    let seconds: f64 = args.value("--seconds")?.unwrap_or(crate::manifest::RUN_SECONDS as f64);
    let traced = match args.value::<u8>("--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    args.finish()?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be within (0, 120]".into());
    }
    // The load comes from at most two generator threads; the hosts' own
    // threads are the system under test and need the other core.
    if sys::nproc() < 2 {
        return Err("the benchmark drives two generator threads and needs at least 2 cores".into());
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("watchdog: workload still running after {WATCHDOG:?}; giving up");
        std::process::exit(i32::from(EXIT_WATCHDOG));
    });

    let outcome = match workload::run(workload, seed, seconds, traced) {
        Ok(outcome) => outcome,
        Err(violation) => {
            eprintln!("INCORRECT: {}: {violation}", workload.name());
            return Ok(ExitCode::from(EXIT_INCORRECT));
        }
    };

    println!(
        "workload {} seed {seed} seconds {seconds} trace {} rounds {} script_digest {:016x}",
        workload.name(),
        u8::from(traced),
        outcome.rounds,
        outcome.script_digest
    );
    for m in outcome.metrics.iter().chain(&outcome.extras) {
        println!(
            "  {:<32} {:>16.4} {:<6} (rounds min {:.4} max {:.4}, n={})",
            m.name, m.value, m.unit, m.min, m.max, m.samples
        );
    }
    println!("  attempted {} failed {}", outcome.attempted, outcome.failed);
    if traced {
        let path = output_dir().join(format!("{}.trace.jsonl", workload.name()));
        let header = Json::obj([
            ("workload", Json::str(workload.name())),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Num(outcome.spans.len() as f64)),
            ("note", Json::str("lane 0 = replay ledger; lanes >= 1 = live driver threads")),
        ]);
        trace::write_jsonl(&path, &header.render(), &outcome.spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  trace {}", path.display());
    }
    let metric_json =
        |m: &stats::Metric| Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
    // Sidecar with the in-run spread, for `run` and `compare`.
    let detail = Json::obj([
        ("script_digest", Json::str(format!("{:016x}", outcome.script_digest))),
        ("rounds", Json::Num(outcome.rounds as f64)),
        (
            "spread",
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .chain(&outcome.extras)
                    .map(|m| {
                        let spread = Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                            ("min", Json::Num(m.min)),
                            ("max", Json::Num(m.max)),
                            ("iqr", Json::Num(m.iqr)),
                            ("samples", Json::Num(m.samples as f64)),
                        ]);
                        (m.name.to_string(), spread)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("detail {}", detail.render());
    let result = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::Obj(
                outcome.metrics.iter().map(|m| (m.name.to_string(), metric_json(m))).collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
    Ok(ExitCode::SUCCESS)
}

/// What a seed pins down, per workload (BASELINE.json records seed 1).
fn digests(mut args: Args) -> Result<ExitCode, String> {
    let seed: u64 = args.value("--seed")?.unwrap_or(1);
    args.finish()?;
    let digests = Workload::ALL
        .map(|w| (w.name(), Json::str(format!("{:016x}", crate::script::script_digest(w, seed)))));
    println!("{}", Json::obj(digests).render());
    Ok(ExitCode::SUCCESS)
}

pub fn main() -> ExitCode {
    let mut args = Args(std::env::args().skip(1).collect());
    let outcome = match args.0.first().map(String::as_str) {
        Some("run") => {
            args.0.remove(0);
            run_all::run(args)
        }
        Some("compare") => {
            args.0.remove(0);
            compare::run(&args.0)
        }
        Some("digests") => {
            args.0.remove(0);
            digests(args)
        }
        Some("manifest") => {
            // What BENCHMARK.json at the repo root must contain.
            print!("{}", crate::manifest::benchmark_json().pretty());
            return ExitCode::SUCCESS;
        }
        Some("--help" | "-h") | None => {
            println!("{}", usage());
            return ExitCode::from(EXIT_USAGE);
        }
        Some(_) => single(args),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            ExitCode::from(EXIT_USAGE)
        }
    }
}
