//! # hlock-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§4), plus ablation sweeps, the perf baseline and smoke
//! drivers.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `tables` | Tables 1(a), 1(b), 2(a), 2(b) — the protocol rule tables |
//! | `fig5_message_overhead` | Figure 5 — messages per request vs nodes |
//! | `fig6_latency` | Figure 6 — request latency factor vs nodes |
//! | `fig7_breakdown` | Figure 7 — per-kind message overhead vs nodes |
//! | `ablations` | extension: contribution of each design ingredient |
//! | `summary` | §4/§6 headline-claims check (3 vs 4 msgs, 90 vs 160×) |
//!
//! Results are printed as aligned text tables and also written as CSV to
//! `target/experiments/`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use hlock_sim::{Duration, LatencyModel, Metrics};
use hlock_workload::{run_experiment, ProtocolKind, WorkloadConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

/// The node counts swept in the paper's figures (x-axis 0–120).
pub const PAPER_SWEEP: [usize; 10] = [2, 5, 10, 20, 30, 40, 60, 80, 100, 120];

/// A shorter sweep for quick runs (`--quick`).
pub const QUICK_SWEEP: [usize; 5] = [2, 5, 10, 20, 40];

/// Common experiment parameters for all figures.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Workload parameters (paper defaults).
    pub workload: WorkloadConfig,
    /// Latency model (paper: exponential, mean 150 ms).
    pub latency: LatencyModel,
    /// Seeds averaged per data point.
    pub seeds: u64,
    /// Node counts to sweep.
    pub sweep: Vec<usize>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            workload: WorkloadConfig::default(),
            latency: LatencyModel::paper(),
            seeds: 3,
            sweep: PAPER_SWEEP.to_vec(),
        }
    }
}

impl Harness {
    /// Parses `--quick` (short sweep, one seed) from process args.
    pub fn from_args() -> Harness {
        let quick = std::env::args().any(|a| a == "--quick");
        if quick {
            Harness { seeds: 1, sweep: QUICK_SWEEP.to_vec(), ..Harness::default() }
        } else {
            Harness::default()
        }
    }

    /// The paper's base latency unit (mean network latency).
    pub fn base_latency(&self) -> Duration {
        self.latency.mean()
    }

    /// Runs `kind` at `nodes`, averaged over the configured seeds.
    ///
    /// # Panics
    ///
    /// Panics on an invariant violation (protocol bug).
    pub fn measure(&self, kind: ProtocolKind, nodes: usize) -> Metrics {
        let mut merged = Metrics::new();
        for s in 0..self.seeds {
            let wl = WorkloadConfig { seed: self.workload.seed + s, ..self.workload };
            let report = run_experiment(kind, nodes, &wl, self.latency, 0)
                .expect("experiment run violated an invariant");
            assert!(report.quiescent, "run did not quiesce");
            merged.merge(&report.metrics);
        }
        merged
    }
}

/// A printable/exportable results table: one row per swept node count,
/// one column per series.
#[derive(Debug, Clone)]
pub struct ResultTable {
    title: String,
    x_label: String,
    columns: Vec<String>,
    rows: Vec<(usize, Vec<f64>)>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>, columns: Vec<String>) -> Self {
        ResultTable { title: title.into(), x_label: x_label.into(), columns, rows: Vec::new() }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the column count.
    pub fn push_row(&mut self, x: usize, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len());
        self.rows.push((x, values));
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Rows in insertion order.
    pub fn rows(&self) -> &[(usize, Vec<f64>)] {
        &self.rows
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let width = 22usize;
        let _ = write!(out, "{:>8}", self.x_label);
        for c in &self.columns {
            let _ = write!(out, " {c:>width$}");
        }
        let _ = writeln!(out);
        for (x, values) in &self.rows {
            let _ = write!(out, "{x:>8}");
            for v in values {
                let _ = write!(out, " {v:>width$.3}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label);
        for c in &self.columns {
            let _ = write!(out, ",{c}");
        }
        let _ = writeln!(out);
        for (x, values) in &self.rows {
            let _ = write!(out, "{x}");
            for v in values {
                let _ = write!(out, ",{v:.6}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Writes the CSV under `target/experiments/<name>.csv` and returns
    /// the path (best effort: returns `None` if the directory cannot be
    /// created).
    pub fn save_csv(&self, name: &str) -> Option<PathBuf> {
        let dir = PathBuf::from("target/experiments");
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, self.to_csv()).ok()?;
        Some(path)
    }

    /// The last row's value in column `col` (for headline summaries).
    pub fn last(&self, col: usize) -> Option<f64> {
        self.rows.last().map(|(_, v)| v[col])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_and_csv() {
        let mut t = ResultTable::new("T", "nodes", vec!["a".into(), "b".into()]);
        t.push_row(2, vec![1.0, 2.0]);
        t.push_row(5, vec![3.0, 4.5]);
        let text = t.render();
        assert!(text.contains("nodes"));
        assert!(text.contains("4.500"));
        let csv = t.to_csv();
        assert!(csv.starts_with("nodes,a,b\n"));
        assert!(csv.contains("5,3.000000,4.500000"));
        assert_eq!(t.last(1), Some(4.5));
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    fn harness_measure_small() {
        let h = Harness {
            workload: WorkloadConfig { entries: 4, ops_per_node: 4, ..Default::default() },
            seeds: 1,
            sweep: vec![3],
            ..Harness::default()
        };
        let m = h.measure(ProtocolKind::NaimiPure, 3);
        assert_eq!(m.total_requests(), 12);
    }

    #[test]
    #[should_panic]
    fn row_width_mismatch_panics() {
        let mut t = ResultTable::new("T", "n", vec!["a".into()]);
        t.push_row(1, vec![1.0, 2.0]);
    }
}
