//! Runs the benchmark end to end in smoke mode (about a second per
//! workload) and validates what it prints and writes against
//! `BENCHMARK.json`.

use hlock_benchmark::json::{self, Json};
use hlock_benchmark::manifest::benchmark_json;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_hlock-benchmark");

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ sits in the repo").into()
}

fn manifest() -> Json {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(String::from);
            (field("name").expect("name"), field("unit").unwrap_or_default())
        })
        .collect()
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn committed_manifest_matches_the_declarations_in_the_code() {
    assert_eq!(
        manifest(),
        benchmark_json(),
        "BENCHMARK.json is stale: regenerate it with `hlock-benchmark manifest`"
    );
    let doc = manifest();
    let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert!((2..=8).contains(&names(&doc, "workloads").len()));
    assert!((1..=16).contains(&names(&doc, "end_to_end").len()));
    assert!((1..=128).contains(&names(&doc, "per_layer").len()));
    for key in ["workloads", "end_to_end", "per_layer"] {
        assert!(names(&doc, key).iter().all(|(n, _)| name_ok(n)), "{key}");
    }
}

/// The smoke runs time real sockets on a small machine: one at a time.
static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// `run --smoke [--traced]` into a scratch directory; returns the parsed
/// results file and the child's stdout.
fn smoke(traced: bool) -> (Json, String) {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = std::env::temp_dir().join(format!(
        "hlock-benchmark-smoke-{}-{}",
        std::process::id(),
        if traced { "traced" } else { "plain" }
    ));
    let mut cmd = Command::new(BIN);
    cmd.args(["run", "--smoke", "--seed", "7", "--out"]).arg(&out);
    if traced {
        cmd.arg("--traced");
    }
    // Trace files follow the cargo target dir; keep them in the scratch dir.
    cmd.env("CARGO_TARGET_DIR", &out);
    let output = cmd.output().expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "run --smoke failed ({}):\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let file = out.join(if traced { "results.traced.json" } else { "results.json" });
    let results = json::parse(&std::fs::read_to_string(&file).expect("results file")).unwrap();
    if traced {
        for (workload, _) in names(&manifest(), "workloads") {
            let trace = out.join("benchmark").join(format!("{workload}.trace.jsonl"));
            let text = std::fs::read_to_string(&trace).expect("trace file");
            assert!(text.lines().count() > 100, "{workload}: trace has spans");
            assert!(text.lines().skip(1).all(|l| json::parse(l).is_ok()), "{workload}: JSON lines");
        }
    }
    std::fs::remove_dir_all(&out).expect("scratch dir removed");
    (results, stdout)
}

fn check_results(results: &Json, stdout: &str, declared: &[(String, String)]) {
    let doc = manifest();
    assert_eq!(results.get("schema").and_then(Json::as_str), Some("hlock-benchmark/v1"));
    for key in ["nproc", "cpu_model", "kernel", "rustc", "git_commit", "loadavg_at_start"] {
        assert!(results.get("environment").unwrap().get(key).is_some(), "fingerprint has {key}");
    }
    for (workload, _) in names(&doc, "workloads") {
        let w = results.get("workloads").unwrap().get(&workload).expect("workload ran");
        assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{workload}");
        assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0), "{workload}: failed ops");
        assert!(w.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0, "{workload}");
        assert_eq!(w.get("script_digest").and_then(Json::as_str).map(str::len), Some(16));
        let metrics = w.get("metrics").and_then(Json::as_obj).expect("metrics");
        for (name, unit) in declared {
            let m = w.get("metrics").unwrap().get(name);
            let m = m.unwrap_or_else(|| panic!("{workload}: {name} is declared but not emitted"));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{workload}: {name}"
            );
            assert!(m.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite), "{name}");
        }
        assert!(metrics.iter().all(|(n, _)| name_ok(n)), "{workload}: metric names");
    }
    // The last line of every child is the machine-readable result with
    // exactly the contract's keys and exactly the declared metrics.
    let finals: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(finals.len(), names(&doc, "workloads").len());
    for result in finals {
        let keys: Vec<&str> = result.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let emitted: Vec<&str> = result
            .get("metrics")
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let expected: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(emitted, expected);
    }
}

#[test]
fn smoke_run_emits_every_end_to_end_metric_for_every_workload() {
    let (results, stdout) = smoke(false);
    let declared = names(&manifest(), "end_to_end");
    check_results(&results, &stdout, &declared);
    // End-to-end metrics are never zero.
    for (workload, _) in names(&manifest(), "workloads") {
        for (name, _) in &declared {
            let path = ["workloads", &workload, "metrics", name, "value"];
            let value = path.iter().try_fold(&results, |doc, k| doc.get(k));
            assert!(value.and_then(Json::as_f64).unwrap() > 0.0, "{workload}: {name} is zero");
        }
    }
}

#[test]
fn traced_smoke_run_emits_every_per_layer_metric_and_trace_files() {
    let (results, stdout) = smoke(true);
    check_results(&results, &stdout, &names(&manifest(), "per_layer"));
}

#[test]
fn bad_usage_and_unknown_workloads_exit_non_zero_without_a_result() {
    for args in
        [&["--workload", "nope"][..], &["--workload", "failover", "--trace", "2"], &["compare"]]
    {
        let output = Command::new(BIN).args(args).output().unwrap();
        assert!(!output.status.success(), "{args:?}");
        assert!(!String::from_utf8_lossy(&output.stdout).contains("\"correct\""), "{args:?}");
    }
}
