//! # hlock-bench
//!
//! The experiment harness. The numeric content of `EXPERIMENTS.md` is
//! this crate's output: every table there sits between
//! `<!-- generated:<figure> -->` and `<!-- /generated -->` markers, and
//! [`render`] produces the block for each name in [`FIGURES`]. The
//! `experiments` binary prints the blocks, splices them into the file
//! (`--write`) or diffs them against it (`--check`, which CI runs at full
//! size). Every block is a function of the seed alone.
//!
//! Figures 5–7 and the headline table are projections of one sweep: a
//! [`Sweep`] simulates each (workload, protocol, nodes, seed) once and
//! every figure reads the cached [`Cell`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use hlock_core::{MessageKind, Meter, ProtocolConfig};
use hlock_session::SessionConfig;
use hlock_sim::{Duration, LatencyModel, SimConfig};
use hlock_workload::{
    run_experiment, run_scenario, run_session_experiment, scenario_presets, ModeMix, ProtocolKind,
    ScenarioReport, WorkloadConfig,
};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Common experiment parameters for all figures.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Workload parameters (paper defaults); figures vary single fields.
    pub workload: WorkloadConfig,
    /// Latency model (paper: exponential, mean 150 ms).
    pub latency: LatencyModel,
    /// Seeds averaged per data point.
    pub seeds: u64,
    /// Node counts to sweep (the paper's x-axis runs 0–120).
    pub sweep: Vec<usize>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness {
            workload: WorkloadConfig::default(),
            latency: LatencyModel::paper(),
            seeds: 3,
            sweep: vec![2, 5, 10, 20, 30, 40, 60, 80, 100, 120],
        }
    }
}

/// One measured data point: a protocol at a node count, over the seeds.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Metrics merged over the seeds whose run quiesced.
    pub metrics: Meter,
    /// Workload seeds whose run ended with requests still outstanding.
    /// They are left out of `metrics`; figures name them in a footnote.
    pub stuck: Vec<u64>,
}

impl Harness {
    /// Runs `kind` at `nodes` on `workload`, once per configured seed.
    ///
    /// # Panics
    ///
    /// Panics on an invariant violation (protocol bug).
    pub fn measure(&self, workload: &WorkloadConfig, kind: ProtocolKind, nodes: usize) -> Cell {
        let mut cell = Cell { metrics: Meter::new(), stuck: Vec::new() };
        for s in 0..self.seeds {
            let wl = WorkloadConfig { seed: workload.seed + s, ..*workload };
            let report = run_experiment(kind, nodes, &wl, self.latency, 0, None)
                .expect("experiment run violated an invariant");
            if report.quiescent {
                cell.metrics.merge(&report.metrics);
            } else {
                cell.stuck.push(wl.seed);
            }
        }
        cell
    }
}

/// [`Harness::measure`], memoised: each (workload, protocol, nodes) is
/// simulated once per invocation, however many figures read it.
#[derive(Debug)]
pub struct Sweep {
    harness: Harness,
    cells: HashMap<(WorkloadConfig, ProtocolKind, usize), Cell>,
    simulations: u64,
    notes: Vec<String>,
}

impl Sweep {
    /// An empty sweep over `harness`.
    pub fn new(harness: Harness) -> Sweep {
        Sweep { harness, cells: HashMap::new(), simulations: 0, notes: Vec::new() }
    }

    /// Simulator runs executed so far.
    pub fn simulations(&self) -> u64 {
        self.simulations
    }

    /// The cell for `kind` at `nodes` on the harness's own workload.
    fn cell(&mut self, kind: ProtocolKind, nodes: usize) -> &Cell {
        self.cell_on(kind.label(), self.harness.workload, kind, nodes)
    }

    /// [`Sweep::cell`] on a variation of the workload; `label` names the
    /// cell in the footnote a stuck seed earns.
    fn cell_on(
        &mut self,
        label: &str,
        workload: WorkloadConfig,
        kind: ProtocolKind,
        nodes: usize,
    ) -> &Cell {
        let (harness, simulations) = (&self.harness, &mut self.simulations);
        let cell = self.cells.entry((workload, kind, nodes)).or_insert_with(|| {
            *simulations += harness.seeds;
            harness.measure(&workload, kind, nodes)
        });
        if !cell.stuck.is_empty() {
            let note = format!(
                "{label}, {nodes} nodes: workload seed(s) {:?} did not quiesce; \
                 the row is from the other {}",
                cell.stuck,
                self.harness.seeds - cell.stuck.len() as u64
            );
            if !self.notes.contains(&note) {
                self.notes.push(note);
            }
        }
        cell
    }
}

/// A column of a figure: its header and the cell it prints for a row.
pub type Column<'a, R> = (&'a str, &'a dyn Fn(&R) -> String);

/// Renders `rows` as a markdown table padded to column width. A column
/// whose every cell starts with a digit or a sign is right-aligned.
pub fn table<R>(rows: &[R], columns: &[Column<'_, R>]) -> String {
    let numeric = |c: &String| c.starts_with(|ch: char| ch.is_ascii_digit() || "+-".contains(ch));
    let columns: Vec<(&str, Vec<String>, usize, bool)> = columns
        .iter()
        .map(|(header, cell)| {
            let cells: Vec<String> = rows.iter().map(cell).collect();
            let width =
                cells.iter().map(|c| c.chars().count()).fold(header.chars().count(), usize::max);
            let right = cells.iter().all(numeric);
            (*header, cells, width.max(3), right)
        })
        .collect();
    let pad = |text: &str, w: usize, right: bool| {
        if right {
            format!("| {text:>w$} ")
        } else {
            format!("| {text:<w$} ")
        }
    };
    let mut out = String::new();
    for line in 0..rows.len() + 2 {
        for (header, cells, w, right) in &columns {
            out += &match line {
                0 => pad(header, *w, *right),
                1 if *right => pad(&format!("{}:", "-".repeat(w - 1)), *w, true),
                1 => pad(&format!(":{}", "-".repeat(w - 1)), *w, false),
                _ => pad(&cells[line - 2], *w, *right),
            };
        }
        out += "|\n";
    }
    out
}

fn num(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

fn ours() -> ProtocolKind {
    ProtocolKind::Hierarchical(ProtocolConfig::paper())
}

fn tables(_: &mut Sweep) -> String {
    format!(
        "```text\n{}\n{}\n{}\n{}\nstrength order (Definition 1): 0 < IR < R < U = IW < W\n```\n",
        hlock_core::compatibility_table(),
        hlock_core::child_grant_table(),
        hlock_core::queue_forward_table(),
        hlock_core::freeze_table()
    )
}

/// One row per swept node count: `project` applied to the cell of each
/// of the paper's three systems, in its legend order (and to the node count).
fn paper_rows<T>(sweep: &mut Sweep, project: impl Fn(&Cell, usize) -> T) -> Vec<(usize, [T; 3])> {
    let mut rows = Vec::new();
    for nodes in sweep.harness.sweep.clone() {
        let system = |kind: ProtocolKind| project(sweep.cell(kind, nodes), nodes);
        rows.push((
            nodes,
            [ProtocolKind::NaimiSameWork, ProtocolKind::NaimiPure, ours()].map(system),
        ));
    }
    rows
}

fn fig5(sweep: &mut Sweep) -> String {
    // Operations per node count: the same logical operations for all three
    // systems, over the seeds that quiesced.
    let (per_node, seeds) = (sweep.harness.workload.ops_per_node, sweep.harness.seeds);
    let rows = paper_rows(sweep, |cell, nodes| {
        let ops = nodes as u64 * u64::from(per_node) * (seeds - cell.stuck.len() as u64);
        let m = &cell.metrics;
        (m.messages_per_request(), m.total_messages() as f64 / ops as f64)
    });
    table(
        &rows,
        &[
            ("nodes", &|r| r.0.to_string()),
            ("Naimi same work", &|r| num(r.1[0].0, 3)),
            ("Naimi pure", &|r| num(r.1[1].0, 3)),
            ("Our protocol", &|r| num(r.1[2].0, 3)),
            ("per op: same work", &|r| num(r.1[0].1, 2)),
            ("pure", &|r| num(r.1[1].1, 2)),
            ("ours", &|r| num(r.1[2].1, 2)),
        ],
    )
}

fn fig6(sweep: &mut Sweep) -> String {
    let base = sweep.harness.latency.mean();
    let rows = paper_rows(sweep, |cell, _| cell.metrics.latency_factor(base));
    table(
        &rows,
        &[
            ("nodes", &|r| r.0.to_string()),
            ("Naimi same work", &|r| num(r.1[0], 1)),
            ("Naimi pure", &|r| num(r.1[1], 1)),
            ("Our protocol", &|r| num(r.1[2], 1)),
        ],
    )
}

fn fig7(sweep: &mut Sweep) -> String {
    let mut rows = Vec::new();
    for nodes in sweep.harness.sweep.clone() {
        rows.push((nodes, sweep.cell(ours(), nodes).metrics.clone()));
    }
    let of = |r: &(usize, Meter), kinds: &[MessageKind]| {
        num(kinds.iter().map(|&k| r.1.messages_per_request_of_kind(k)).sum(), 3)
    };
    table(
        &rows,
        &[
            ("nodes", &|r| r.0.to_string()),
            ("request", &|r| of(r, &[MessageKind::Request])),
            ("grant copy", &|r| of(r, &[MessageKind::Grant])),
            ("transfer token", &|r| of(r, &[MessageKind::Token])),
            ("release", &|r| of(r, &[MessageKind::Release])),
            // Both are fairness traffic; the paper plots them as one series.
            ("freeze+update", &|r| of(r, &[MessageKind::Freeze, MessageKind::Update])),
            ("total", &|r| num(r.1.messages_per_request(), 3)),
        ],
    )
}

fn headline(sweep: &mut Sweep) -> String {
    let base = sweep.harness.latency.mean();
    let nodes = *sweep.harness.sweep.last().expect("sweep nonempty");
    let mid = sweep.harness.sweep[sweep.harness.sweep.len() / 2];
    let percent = |from: f64, to: f64| (to / from.max(1e-9) - 1.0) * 100.0;
    let pure = sweep.cell(ProtocolKind::NaimiPure, nodes).metrics.messages_per_request();
    let same = sweep.cell(ProtocolKind::NaimiSameWork, nodes).metrics.latency_factor(base);
    let at_mid = sweep.cell(ours(), mid).metrics.messages_per_request();
    let m = sweep.cell(ours(), nodes).metrics.clone();
    let msgs = m.messages_per_request();
    let claims = [
        (
            "message overhead, ours vs Naimi pure",
            "3 vs 4 (-20 %)",
            format!("{msgs:.2} vs {pure:.2} ({:+.0} %)", percent(pure, msgs)),
        ),
        (
            "message overhead asymptotically flat",
            "flat after the initial rise",
            format!("{:+.0} % from {mid} to {nodes} nodes", percent(at_mid, msgs)),
        ),
        (
            "response time, ours vs Naimi same-work",
            "90× vs 160×",
            format!("{:.0}× vs {same:.0}×", m.latency_factor(base)),
        ),
    ];
    let measured = format!("measured at {nodes} nodes");
    let claims = table(
        &claims,
        &[("claim", &|r| r.0.into()), ("paper", &|r| r.1.into()), (&measured, &|r| r.2.clone())],
    );
    let modes = table(
        &m.latency_by_mode(),
        &[
            ("mode (ours)", &|r| r.0.to_string()),
            ("mean latency ms", &|r| num(r.1.as_millis_f64(), 1)),
            ("grants", &|r| r.2.to_string()),
        ],
    );
    format!("{claims}\n{modes}")
}

fn ablations(sweep: &mut Sweep) -> String {
    let base = sweep.harness.latency.mean().as_millis_f64();
    let paper = ProtocolConfig::paper();
    // (variant, protocol switches, entry-lock token homes spread over the nodes)
    let variants = [
        ("paper (all on)", paper, false),
        ("no absorption (Rule 4)", paper.without_absorption(), false),
        ("no release suppression (Rule 5.2)", paper.without_release_suppression(), false),
        ("no freezing (Rule 6)", paper.without_freezing(), false),
        ("no path compression", paper.without_path_compression(), false),
        ("eager transfers (Rule 3.2 to the letter)", paper.with_eager_transfers(), false),
        ("token homes spread over the nodes", paper, true),
    ];
    // Relative deltas: two mid-size systems suffice. At 120 nodes only the
    // pair that decides whether path compression keeps its flag; the
    // first of the two is the Figure-5 cell.
    let cells = [10, 40].into_iter().flat_map(|nodes| variants.map(|v| (nodes, v)));
    let cells = cells.chain([variants[0], variants[4]].map(|v| (120, v)));
    let mut rows = Vec::new();
    for (nodes, (name, cfg, spread_token_homes)) in cells {
        let workload = WorkloadConfig { spread_token_homes, ..sweep.harness.workload };
        let cell = sweep.cell_on(name, workload, ProtocolKind::Hierarchical(cfg), nodes);
        rows.push((nodes, name, cell.metrics.clone()));
    }
    let factor = |latency: Duration| num(latency.as_millis_f64() / base, 1);
    table(
        &rows,
        &[
            ("nodes", &|r| r.0.to_string()),
            ("variant", &|r| r.1.to_string()),
            ("msgs/request", &|r| num(r.2.messages_per_request(), 2)),
            ("mean latency ×", &|r| factor(r.2.mean_latency())),
            ("p99 ×", &|r| factor(r.2.latency_percentile(0.99))),
            ("max ×", &|r| factor(r.2.max_latency())),
            ("busiest sender × mean", &|r| num(r.2.load_imbalance(), 1)),
        ],
    )
}

fn baselines(sweep: &mut Sweep) -> String {
    let base = sweep.harness.latency.mean();
    // Single-lock exclusive workload: every op is a whole-table W.
    let workload = WorkloadConfig {
        entries: 1,
        mix: ModeMix { weights: [0, 0, 0, 0, 1] },
        ..sweep.harness.workload
    };
    let kinds =
        [ProtocolKind::NaimiPure, ProtocolKind::RaymondPure, ProtocolKind::SuzukiPure, ours()];
    let mut rows = Vec::new();
    for nodes in sweep.harness.sweep.clone() {
        let measure = |kind: ProtocolKind| {
            let m = &sweep.cell_on(kind.label(), workload, kind, nodes).metrics;
            (m.messages_per_request(), m.latency_factor(base))
        };
        rows.push((nodes, kinds.map(measure)));
    }
    table(
        &rows,
        &[
            ("nodes", &|r| r.0.to_string()),
            ("msgs/request: Naimi", &|r| num(r.1[0].0, 2)),
            ("Raymond", &|r| num(r.1[1].0, 2)),
            ("Suzuki–Kasami", &|r| num(r.1[2].0, 2)),
            ("ours (W only)", &|r| num(r.1[3].0, 2)),
            ("latency ×: Naimi", &|r| num(r.1[0].1, 1)),
            ("Raymond", &|r| num(r.1[1].1, 1)),
            ("Suzuki–Kasami", &|r| num(r.1[2].1, 1)),
            ("ours (W only)", &|r| num(r.1[3].1, 1)),
        ],
    )
}

fn mix(sweep: &mut Sweep) -> String {
    let base = sweep.harness.latency.mean();
    // (write-ish percent, mix): from read-only through the paper's mix
    // to a write storm.
    let mixes = [
        (0, ModeMix { weights: [85, 15, 0, 0, 0] }),
        (6, ModeMix::paper()),
        (25, ModeMix { weights: [55, 20, 5, 15, 5] }),
        (50, ModeMix { weights: [35, 15, 10, 25, 15] }),
        (80, ModeMix { weights: [10, 10, 20, 30, 30] }),
    ];
    let mut rows = Vec::new();
    for (pct, mix) in mixes {
        let workload = WorkloadConfig { mix, ..sweep.harness.workload };
        let measure = |kind: ProtocolKind| {
            let label = format!("{} at {pct} % write-ish", kind.label());
            let m = &sweep.cell_on(&label, workload, kind, 40).metrics;
            (m.messages_per_request(), m.latency_factor(base))
        };
        rows.push((pct, [ours(), ProtocolKind::NaimiPure].map(measure)));
    }
    table(
        &rows,
        &[
            ("write-ish %", &|r| r.0.to_string()),
            ("ours msgs/request", &|r| num(r.1[0].0, 2)),
            ("pure msgs/request", &|r| num(r.1[1].0, 2)),
            ("ours latency ×", &|r| num(r.1[0].1, 1)),
            ("pure latency ×", &|r| num(r.1[1].1, 1)),
            ("pure / ours latency", &|r| num(r.1[1].1 / r.1[0].1, 1)),
        ],
    )
}

fn lossy(sweep: &mut Sweep) -> String {
    let mut rows = Vec::new();
    for drop_probability in [0.0, 0.05, 0.1, 0.2, 0.3] {
        for rto_ms in [50, 150, 450, 1_350] {
            let session = SessionConfig {
                rto_micros: rto_ms * 1_000,
                max_backoff_micros: rto_ms * 16_000,
                ..SessionConfig::default()
            };
            let sim = SimConfig {
                latency: sweep.harness.latency,
                drop_probability,
                // A generous stall bound: the workload idles ~150 ms
                // between ops, so minutes of silence means wedged.
                watchdog: Some(Duration::from_millis(120_000)),
                ..SimConfig::default()
            };
            let workload = &sweep.harness.workload;
            let run = run_session_experiment(ProtocolConfig::paper(), session, 10, workload, sim)
                .expect("session layer must mask link loss");
            rows.push((drop_probability, rto_ms, run));
        }
    }
    table(
        &rows,
        &[
            ("drop", &|r| r.0.to_string()),
            ("RTO ms", &|r| r.1.to_string()),
            ("grants", &|r| r.2.report.metrics.total_grants().to_string()),
            ("requests", &|r| r.2.report.metrics.total_requests().to_string()),
            ("mean ms", &|r| num(r.2.report.metrics.mean_latency().as_millis_f64(), 1)),
            ("p99 ms", &|r| num(r.2.report.metrics.latency_percentile(0.99).as_millis_f64(), 1)),
            ("data frames", &|r| r.2.session.data_frames.to_string()),
            ("retransmits", &|r| r.2.session.retransmits.to_string()),
            ("acks", &|r| r.2.session.acks.to_string()),
            ("duplicates dropped", &|r| r.2.session.duplicates_dropped.to_string()),
            ("reordered", &|r| r.2.session.reordered_buffered.to_string()),
            ("end s", &|r| num(r.2.report.end_time.as_millis_f64() / 1e3, 1)),
        ],
    )
}

fn scenarios(_: &mut Sweep) -> String {
    let rows: Vec<ScenarioReport> = scenario_presets().iter().map(run_scenario).collect();
    table(
        &rows,
        &[
            ("preset", &|r| format!("`{}`", r.name)),
            ("protocol", &|r| r.protocol.clone()),
            ("offered/s", &|r| num(r.offered_rate, 0)),
            ("achieved/s", &|r| num(r.achieved_rate, 0)),
            ("sojourn p50 ms", &|r| num(r.sojourn_p50 as f64 / 1e3, 1)),
            ("p99.9 ms", &|r| num(r.sojourn_p999 as f64 / 1e3, 1)),
            ("msgs/grant", &|r| num(r.messages_per_grant, 2)),
            ("msgs/op", &|r| num(r.messages_per_op, 2)),
            ("peak in flight", &|r| r.max_in_flight.to_string()),
        ],
    )
}

/// Renders one figure's block off the sweep.
pub type Figure = fn(&mut Sweep) -> String;

/// Every figure, in the order its block appears in `EXPERIMENTS.md`.
pub const FIGURES: [(&str, Figure); 10] = [
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("tables", tables),
    ("headline", headline),
    ("ablations", ablations),
    ("baselines", baselines),
    ("mix", mix),
    ("lossy", lossy),
    ("scenarios", scenarios),
];

/// Renders the block of figure `name` — `None` for an unknown name —
/// with a `†` footnote for every cell that lost a seed.
pub fn render(name: &str, sweep: &mut Sweep) -> Option<String> {
    let (_, figure) = FIGURES.iter().find(|(n, _)| *n == name)?;
    let mut out = figure(sweep);
    for note in sweep.notes.drain(..) {
        let _ = write!(out, "\n† {note}\n");
    }
    Some(out)
}

/// Byte range of the body of block `name` in `doc`: what lies between
/// the line `<!-- generated:name -->` and the next `<!-- /generated -->`.
fn block(doc: &str, name: &str) -> Result<std::ops::Range<usize>, String> {
    let open = format!("<!-- generated:{name} -->\n");
    let start = doc.find(&open).map(|at| at + open.len());
    let end = start.and_then(|start| Some(start + doc[start..].find("<!-- /generated -->")?));
    start.zip(end).map(|(start, end)| start..end).ok_or(format!("has no block `{name}`"))
}

/// `doc` with the body of block `name` replaced by `body`.
///
/// # Errors
///
/// Says so if the document has no such block.
pub fn splice(doc: &str, name: &str, body: &str) -> Result<String, String> {
    let span = block(doc, name)?;
    Ok(format!("{}{body}{}", &doc[..span.start], &doc[span.end..]))
}

/// Compares block `name` of `doc` with a fresh `body`.
///
/// # Errors
///
/// A report naming the block and every line that differs, or saying that
/// the block is missing.
pub fn check(doc: &str, name: &str, body: &str) -> Result<(), String> {
    let committed = &doc[block(doc, name)?];
    if committed == body {
        return Ok(());
    }
    let mut report = format!("block `{name}` is stale:\n");
    let (old, new): (Vec<&str>, Vec<&str>) = (committed.lines().collect(), body.lines().collect());
    for line in 0..old.len().max(new.len()) {
        let (old, new) = (old.get(line).unwrap_or(&""), new.get(line).unwrap_or(&""));
        if old != new {
            let _ = writeln!(report, "  line {}:\n  - {old}\n  + {new}", line + 1);
        }
    }
    Err(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Harness {
        Harness {
            workload: WorkloadConfig { entries: 4, ops_per_node: 4, ..Default::default() },
            seeds: 2,
            sweep: vec![3, 4],
            ..Harness::default()
        }
    }

    #[test]
    fn table_renders_padded_markdown() {
        let rows = [(2, "all on", 1.0), (120, "none", 4.5)];
        let text = table(
            &rows,
            &[
                ("nodes", &|r| r.0.to_string()),
                ("variant", &|r| r.1.into()),
                ("b", &|r| num(r.2, 3)),
            ],
        );
        let expected = "\
| nodes | variant |     b |
| ----: | :------ | ----: |
|     2 | all on  | 1.000 |
|   120 | none    | 4.500 |
";
        assert_eq!(text, expected);
    }

    #[test]
    fn harness_measure_small() {
        let harness = small();
        let cell = harness.measure(&harness.workload, ProtocolKind::NaimiPure, 3);
        assert_eq!(cell.metrics.total_requests(), 2 * 12);
        assert!(cell.stuck.is_empty());
    }

    /// Figures 5, 6, 7 and the headline table are four projections of one
    /// sweep: each (protocol, nodes, seed) is simulated once, and the
    /// ablation and placement rows that coincide with it are cache hits.
    #[test]
    fn the_paper_sweep_is_simulated_once() {
        let mut sweep = Sweep::new(small());
        let first: Vec<String> = ["fig5", "fig6", "fig7", "headline"]
            .iter()
            .map(|f| render(f, &mut sweep).expect("known figure"))
            .collect();
        // 3 protocols × 2 node counts × 2 seeds.
        assert_eq!(sweep.simulations(), 12);
        // Rendered again — off the cache, and off a fresh sweep — the
        // blocks are byte-identical: every number is a function of the seed.
        let mut fresh = Sweep::new(small());
        for (figure, block) in ["fig5", "fig6", "fig7", "headline"].iter().zip(&first) {
            assert_eq!(render(figure, &mut sweep).as_ref(), Some(block));
            assert_eq!(render(figure, &mut fresh).as_ref(), Some(block));
        }
        assert_eq!(sweep.simulations(), 12);
        assert!(render("fig8", &mut sweep).is_none());
    }

    #[test]
    fn a_stuck_seed_is_a_footnote_not_a_sample() {
        let mut sweep = Sweep::new(small());
        let stuck = Cell { metrics: Meter::new(), stuck: vec![2] };
        let key = (sweep.harness.workload, ProtocolKind::NaimiPure, 3);
        sweep.cells.insert(key, stuck);
        let block = render("fig6", &mut sweep).expect("known figure");
        assert!(
            block.contains("† Naimi - Pure, 3 nodes: workload seed(s) [2] did not quiesce"),
            "{block}"
        );
        assert_eq!(block.matches('†').count(), 1, "one footnote per cell:\n{block}");
        assert!(sweep.notes.is_empty(), "footnotes belong to the figure that read the cell");
    }

    #[test]
    fn check_names_the_stale_block_and_write_repairs_it() {
        let body = render("tables", &mut Sweep::new(small())).expect("known figure");
        let doc = format!(
            "intro\n<!-- generated:fig5 -->\n| 1 |\n<!-- /generated -->\nprose\n\
             <!-- generated:tables -->\n{body}<!-- /generated -->\ntail\n"
        );
        assert_eq!(check(&doc, "tables", &body), Ok(()));
        // One digit flipped inside the block.
        let at =
            block(&doc, "tables").expect("block exists").start + body.find("1(a)").expect("title");
        let mut stale = doc.clone();
        stale.replace_range(at..at + 1, "7");
        let report = check(&stale, "tables", &body).expect_err("stale block");
        assert!(
            report.starts_with("block `tables` is stale:\n  line 2:\n  - Table 7(a)"),
            "{report}"
        );
        assert!(report.contains("\n  + Table 1(a)"), "{report}");
        assert_eq!(report.matches("line ").count(), 1, "only the changed line:\n{report}");
        // `--write` puts it back and touches nothing else.
        assert_eq!(splice(&stale, "tables", &body), Ok(doc.clone()));
        assert!(check(&doc, "fig7", &body).expect_err("no such block").contains("`fig7`"));
        assert_eq!(splice(&doc, "fig7", &body), check(&doc, "fig7", &body).map(|()| doc.clone()));
    }
}
