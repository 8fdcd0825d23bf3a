//! `run`: every workload, each in a child process of its own (so CPU and
//! peak RSS are per workload), under a wall-clock watchdog, collected
//! into one results file with the environment fingerprint.

use crate::cli::{output_dir, Args, EXIT_INCORRECT};
use crate::json::{self, Json};
use crate::script::Workload;
use crate::sys;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// A child gets its measured window, generous set-up and tear-down, and
/// is killed past that; all of `run` stays well under the cap the
/// harness puts on six workloads.
fn child_limit(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds * 4.0 + 30.0)
}

struct Child {
    workload: Workload,
    wall: Duration,
    /// `None` when the watchdog killed the child or it printed no result.
    result: Option<(Json, Json)>,
    exit: Option<i32>,
    killed: bool,
}

fn run_child(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning child: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let limit = child_limit(seconds);
    let mut killed = false;
    let status = loop {
        match child.try_wait().map_err(|e| format!("waiting for child: {e}"))? {
            Some(status) => break status,
            None if started.elapsed() > limit => {
                eprintln!("watchdog: {} exceeded {limit:?}; killing it", workload.name());
                let _ = child.kill();
                killed = true;
                break child.wait().map_err(|e| format!("reaping child: {e}"))?;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader.join().expect("stdout reader");
    print!("{text}");
    let mut lines = text.lines().rev();
    let result = lines.next().and_then(|l| json::parse(l).ok());
    let detail =
        lines.next().and_then(|l| l.strip_prefix("detail ")).and_then(|l| json::parse(l).ok());
    Ok(Child {
        workload,
        wall: started.elapsed(),
        result: if status.success() && !killed { result.zip(detail) } else { None },
        exit: status.code(),
        killed,
    })
}

pub fn run(mut args: Args) -> Result<ExitCode, String> {
    let smoke = args.flag("--smoke");
    let traced = args.flag("--traced");
    let seed: u64 = args.value("--seed")?.unwrap_or(1);
    let seconds: f64 = args.value("--seconds")?.unwrap_or(if smoke {
        1.0
    } else {
        crate::manifest::RUN_SECONDS as f64
    });
    let out: PathBuf = args.value::<String>("--out")?.map_or_else(output_dir, PathBuf::from);
    args.finish()?;

    let environment = sys::fingerprint();
    let started = Instant::now();
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let child = run_child(workload, seed, seconds, traced)?;
        let mut entry = vec![
            ("wall_s".to_string(), Json::Num(child.wall.as_secs_f64())),
            ("killed".to_string(), Json::Bool(child.killed)),
        ];
        match child.result {
            Some((result, detail)) => {
                let get = |k: &str| result.get(k).cloned().unwrap_or(Json::Null);
                entry.push(("correct".into(), get("correct")));
                entry.push(("attempted".into(), get("attempted")));
                entry.push(("failed".into(), get("failed")));
                entry.push((
                    "script_digest".into(),
                    detail.get("script_digest").cloned().unwrap_or(Json::Null),
                ));
                entry.push(("metrics".into(), detail.get("spread").cloned().unwrap_or(Json::Null)));
                all_ok &= result.get("failed").and_then(Json::as_f64) == Some(0.0);
            }
            None => {
                // A child that was killed or exited non-zero measured
                // nothing usable: every remaining operation failed.
                eprintln!(
                    "{}: no result (exit {:?}, killed {})",
                    child.workload.name(),
                    child.exit,
                    child.killed
                );
                entry.push(("correct".into(), Json::Bool(false)));
                all_ok = false;
            }
        }
        workloads.push((child.workload.name().to_string(), Json::Obj(entry)));
    }

    let results = Json::obj([
        ("schema", Json::str("hlock-benchmark/v1")),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("traced", Json::Bool(traced)),
        ("wall_s", Json::Num(started.elapsed().as_secs_f64())),
        (
            "environment",
            Json::Obj(
                environment.into_iter().map(|(k, v)| (k.to_string(), Json::Str(v))).collect(),
            ),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let path = out.join(if traced { "results.traced.json" } else { "results.json" });
    std::fs::write(&path, results.pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("results {} ({:.1} s)", path.display(), started.elapsed().as_secs_f64());
    Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::from(EXIT_INCORRECT) })
}
