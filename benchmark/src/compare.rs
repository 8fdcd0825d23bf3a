//! `compare A.json B.json`: the declared bounds applied to two result
//! files, one row per end-to-end metric and workload.
//!
//! A row is a *regression* when B is worse than A by more than the
//! metric's bound, *unresolved* when either side's own in-run spread
//! (the interquartile range over rounds, as a share of the value) is wider
//! than the bound — the metric cannot carry a verdict on that workload, and the
//! row says so instead of widening the bound — and a *pass* otherwise.
//! Any failed operation in B that A did not have is a regression.

use crate::cli::EXIT_INCORRECT;
use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END};
use crate::script::Workload;
use std::process::ExitCode;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("hlock-benchmark/v1") => Ok(doc),
        other => Err(format!("{path}: unknown schema {other:?}")),
    }
}

struct Side {
    value: f64,
    /// In-run spread as a share of the value.
    spread: f64,
}

fn side(doc: &Json, workload: &str, metric: &str) -> Option<Side> {
    let m = doc.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let iqr = m.get("iqr")?.as_f64()?;
    Some(Side { value, spread: if value != 0.0 { iqr / value.abs() } else { 0.0 } })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regression,
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(worse_by: f64, bound: f64, spread_a: f64, spread_b: f64) -> Verdict {
    if spread_a.max(spread_b) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Pass
    }
}

pub fn run(paths: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = paths else {
        return Err("compare takes exactly two result files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    for key in ["seed", "seconds", "traced"] {
        if a.get(key) != b.get(key) {
            eprintln!("note: {key} differs: {:?} vs {:?}", a.get(key), b.get(key));
        }
    }
    println!(
        "{:<18} {:<15} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    let (mut regressions, mut unresolved) = (0, 0);
    for workload in Workload::ALL.map(Workload::name) {
        for m in &END_TO_END {
            let (Some(sa), Some(sb)) = (side(&a, workload, m.name), side(&b, workload, m.name))
            else {
                println!("{workload:<18} {:<15} missing on one side  REGRESSION", m.name);
                regressions += 1;
                continue;
            };
            let worse_by = worsening(m.better, sa.value, sb.value);
            let v = verdict(worse_by, m.bound, sa.spread, sb.spread);
            let label = match v {
                Verdict::Pass => "pass".to_string(),
                Verdict::Regression => {
                    regressions += 1;
                    "REGRESSION".to_string()
                }
                Verdict::Unresolved => {
                    unresolved += 1;
                    format!(
                        "unresolved (in-run spread {:.1}% > bound: no verdict from this metric here)",
                        sa.spread.max(sb.spread) * 100.0
                    )
                }
            };
            println!(
                "{workload:<18} {:<15} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%  {label}",
                m.name,
                sa.value,
                sb.value,
                worse_by * 100.0,
                m.bound * 100.0
            );
        }
        let failed = |doc: &Json| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("failed"))
                .and_then(Json::as_f64)
        };
        match (failed(&a), failed(&b)) {
            (Some(fa), Some(fb)) if fb <= fa => {}
            (fa, fb) => {
                println!("{workload:<18} failed operations {fa:?} -> {fb:?}  REGRESSION");
                regressions += 1;
            }
        }
    }
    println!("{regressions} regression(s), {unresolved} unresolved");
    Ok(if regressions == 0 { ExitCode::SUCCESS } else { ExitCode::from(EXIT_INCORRECT) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert!((worsening(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(worsening(Better::Higher, 100.0, 120.0) < 0.0);
        assert_eq!(verdict(0.12, 0.10, 0.02, 0.03), Verdict::Regression);
        assert_eq!(verdict(0.08, 0.10, 0.02, 0.03), Verdict::Pass);
        assert_eq!(verdict(-0.30, 0.10, 0.02, 0.03), Verdict::Pass);
        assert_eq!(verdict(0.12, 0.10, 0.02, 0.13), Verdict::Unresolved);
    }
}
