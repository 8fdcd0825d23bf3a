//! Scenario presets: named open-loop workloads over the lock hierarchy.
//!
//! Each [`Scenario`] fixes a lock topology, an arrival process (Poisson,
//! seeded), a key-popularity distribution (usually [`Zipfian`]) and a
//! protocol, and [`run_scenario`] executes it in the deterministic
//! simulator — so every cell of EXPERIMENTS.md's `scenarios` block is
//! a pure function of its seed and compares exactly across machines. The
//! library covers the contention shapes closed-loop benchmarks cannot
//! produce: Zipfian-skewed hot locks, a flash crowd (mid-run write
//! burst on one subtree), multi-tenant namespaces (thousands of
//! independent hierarchies on the sharded runtime), a
//! filesystem-metadata tree, and a deliberately saturated cell whose
//! achieved throughput sits well below its offered load (the knee).
//!
//! Get the presets with [`scenario_presets`]; run one with
//! [`run_scenario`]:
//!
//! ```
//! use hlock_workload::{run_scenario, scenario_presets};
//!
//! let preset = scenario_presets().into_iter().find(|s| s.name == "saturation").unwrap();
//! let report = run_scenario(&preset.quick());
//! assert!(report.achieved_rate < report.offered_rate);
//! ```

use crate::experiment::run_sim;
use crate::open_loop::{OpenLoopDriver, OpenLoopOp, OpenLoopStats};
use crate::sampler::{poisson_schedule, Zipfian};
use hlock_core::rng::Rng;
use hlock_core::{
    LockId, LockPlan, LockSpace, Mode, NodeId, ProtocolConfig, ShardSpec, ShardedSpace,
};
use hlock_naimi::NaimiSpace;
use hlock_sim::Duration;
use hlock_sim::{sample_exponential, LatencyModel, SimConfig, SimReport, SimTime};

/// Which runtime executes a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioProtocol {
    /// The paper's hierarchical protocol ([`LockSpace`]).
    Hierarchical,
    /// The hierarchical protocol on the sharded runtime with this many
    /// shards per node ([`ShardedSpace`]).
    Sharded(usize),
    /// Flat exclusive-only baseline ([`NaimiSpace`]): one lock per leaf,
    /// no intention modes, every access exclusive — the "same work"
    /// yardstick the hierarchical protocol is measured against.
    FlatExclusive,
}

impl ScenarioProtocol {
    /// Short label for artifacts and tables.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioProtocol::Hierarchical => "hierarchical",
            ScenarioProtocol::Sharded(_) => "sharded",
            ScenarioProtocol::FlatExclusive => "flat-exclusive",
        }
    }
}

/// The workload shape; private so presets stay the single source of
/// scenario truth (figures and tests select by name).
#[derive(Debug, Clone)]
enum Kind {
    /// Reads/writes over `entries` leaves of one table, leaf popularity
    /// Zipfian(`theta`), `write_pct`% of ops exclusive.
    ZipfHot { entries: usize, theta: f64, write_pct: u32 },
    /// Uniform reads over `entries` leaves, plus a write burst on leaf 0
    /// from every node during `[burst_from, burst_until)`.
    FlashCrowd { entries: usize, burst_from: SimTime, burst_until: SimTime, burst_rate: f64 },
    /// `tenants` independent root+leaves hierarchies; tenant popularity
    /// mildly Zipfian, 10% writes.
    MultiTenant { tenants: usize, leaves: usize },
    /// Filesystem-metadata tree: root / `dirs` directories /
    /// `files_per_dir` files each; stat/readdir/create/rename mix with
    /// directory popularity Zipfian(`theta`).
    FsMetadata { dirs: usize, files_per_dir: usize, theta: f64 },
    /// Every op an exclusive write on the single leaf of a one-entry
    /// table — offered load deliberately past capacity.
    Saturation,
}

/// A named open-loop workload: topology + arrival process + protocol.
///
/// Construct via [`scenario_presets`]; shrink with [`Scenario::quick`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique preset name (figures and tests key cells by it).
    pub name: String,
    /// Which runtime executes the workload.
    pub protocol: ScenarioProtocol,
    /// Cluster size.
    pub nodes: usize,
    /// Arrival window: ops are scheduled in `[0, duration)` of virtual
    /// time (completions may land later — that is the backlog draining).
    pub duration: Duration,
    /// Poisson arrival rate per node, ops/second.
    pub rate_per_node: f64,
    /// Base seed; every derived RNG (schedules, keys, holds, network)
    /// is a pure function of it.
    pub seed: u64,
    /// Mean critical-section hold time (exponential).
    pub hold_mean: Duration,
    /// Mean one-way network latency (exponential).
    pub net_mean: Duration,
    kind: Kind,
}

impl Scenario {
    /// Shrinks the run (a quarter of the arrival window) to test size
    /// while keeping the workload shape.
    pub fn quick(mut self) -> Scenario {
        self.duration = Duration(self.duration.as_micros() / 4);
        if let Kind::FlashCrowd { burst_from, burst_until, .. } = &mut self.kind {
            *burst_from = SimTime(burst_from.as_micros() / 4);
            *burst_until = SimTime(burst_until.as_micros() / 4);
        }
        self
    }

    /// One-line description for docs.
    pub fn describe(&self) -> String {
        let what = match &self.kind {
            Kind::ZipfHot { entries, theta, write_pct } => {
                format!("Zipfian(theta={theta}) over {entries} entries, {write_pct}% writes")
            }
            Kind::FlashCrowd { entries, burst_from, burst_until, burst_rate } => format!(
                "uniform reads over {entries} entries + {burst_rate}/s/node write burst on one leaf in [{}ms,{}ms)",
                burst_from.as_micros() / 1_000,
                burst_until.as_micros() / 1_000
            ),
            Kind::MultiTenant { tenants, leaves } => {
                format!("{tenants} independent hierarchies x {leaves} leaves, 10% writes")
            }
            Kind::FsMetadata { dirs, files_per_dir, theta } => format!(
                "fs tree root/{dirs} dirs/{files_per_dir} files, stat/readdir/create/rename mix, dir skew theta={theta}"
            ),
            Kind::Saturation => "exclusive writes on a single leaf, offered >> capacity".into(),
        };
        format!(
            "{} [{}] {} nodes, {:.0} ops/s/node for {} ms: {what}",
            self.name,
            self.protocol.label(),
            self.nodes,
            self.rate_per_node,
            self.duration.as_micros() / 1_000
        )
    }

    /// Total locks in the scenario's topology.
    pub fn lock_count(&self) -> usize {
        match (&self.kind, self.protocol) {
            // Flat baseline: one lock per leaf, no table/root locks.
            (Kind::ZipfHot { entries, .. }, ScenarioProtocol::FlatExclusive) => *entries,
            (Kind::ZipfHot { entries, .. }, _) => 1 + entries,
            (Kind::FlashCrowd { entries, .. }, _) => 1 + entries,
            (Kind::MultiTenant { tenants, leaves }, _) => tenants * (1 + leaves),
            (Kind::FsMetadata { dirs, files_per_dir, .. }, _) => 1 + dirs + dirs * files_per_dir,
            (Kind::Saturation, _) => 2,
        }
    }

    /// Initial token-home placement: roots at node 0, finer granules
    /// spread over the other nodes (multi-tenant spreads whole tenants).
    fn token_homes(&self) -> Vec<NodeId> {
        let n = self.nodes;
        if let Kind::MultiTenant { tenants: _, leaves } = &self.kind {
            return (0..self.lock_count()).map(|l| NodeId((l / (1 + leaves) % n) as u32)).collect();
        }
        (0..self.lock_count())
            .map(
                |l| {
                    if l > 0 && n > 1 {
                        NodeId((1 + (l - 1) % (n - 1)) as u32)
                    } else {
                        NodeId(0)
                    }
                },
            )
            .collect()
    }

    /// Materializes the per-node open-loop scripts. Pure in `self`:
    /// equal scenarios produce byte-identical scripts, and the
    /// `FlatExclusive` twin of a preset samples the *same* arrival times
    /// and keys (the RNG streams do not depend on the protocol), so
    /// protocol comparisons see identical offered work.
    fn scripts(&self) -> Vec<Vec<OpenLoopOp>> {
        (0..self.nodes).map(|n| self.node_script(n)).collect()
    }

    fn node_script(&self, node: usize) -> Vec<OpenLoopOp> {
        let node_seed = self.seed ^ ((node as u64 + 1) << 20);
        let arrivals = poisson_schedule(self.rate_per_node, self.duration, node_seed);
        // Separate streams for key choice and hold times, so adding a
        // sampler never perturbs the arrival process.
        let mut keys = Rng::new(node_seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut holds = Rng::new(node_seed ^ 0x5851_F42D_4C95_7F2D);
        let flat = self.protocol == ScenarioProtocol::FlatExclusive;
        let mut ops: Vec<OpenLoopOp> = arrivals
            .into_iter()
            .map(|at| {
                let plan = self.sample_plan(&mut keys, flat);
                let hold = Duration(sample_exponential(&mut holds, self.hold_mean).as_micros());
                OpenLoopOp { at, plan, hold }
            })
            .collect();
        if let Kind::FlashCrowd { burst_from, burst_until, burst_rate, .. } = self.kind {
            // The crowd: every node hammers leaf 0 with writes for the
            // burst window, on top of its baseline read stream.
            let window = Duration(burst_until.as_micros() - burst_from.as_micros());
            let burst = poisson_schedule(burst_rate, window, node_seed ^ 0xB5_15_7E_42);
            ops.extend(burst.into_iter().map(|at| OpenLoopOp {
                at: burst_from + (at - SimTime::ZERO),
                plan: if flat {
                    LockPlan::single(LockId(0), Mode::Write)
                } else {
                    LockPlan::for_leaf(&[LockId(0)], LockId(1), Mode::Write)
                },
                hold: Duration(sample_exponential(&mut holds, self.hold_mean).as_micros()),
            }));
            ops.sort_by_key(|op| op.at);
        }
        ops
    }

    /// Draws one operation's lock plan. `flat` collapses it to a single
    /// exclusive lock on the leaf (the baseline's "same work").
    fn sample_plan(&self, rng: &mut Rng, flat: bool) -> LockPlan {
        match &self.kind {
            Kind::ZipfHot { entries, theta, write_pct } => {
                let zipf = Zipfian::new(*entries, *theta);
                let entry = zipf.sample(rng);
                let write = rng.below(100) < u64::from(*write_pct);
                if flat {
                    LockPlan::single(LockId(entry as u32), Mode::Write)
                } else {
                    let mode = if write { Mode::Write } else { Mode::Read };
                    LockPlan::for_leaf(&[LockId(0)], LockId(1 + entry as u32), mode)
                }
            }
            Kind::FlashCrowd { entries, .. } => {
                let entry = rng.index(*entries);
                if flat {
                    LockPlan::single(LockId(entry as u32), Mode::Write)
                } else {
                    LockPlan::for_leaf(&[LockId(0)], LockId(1 + entry as u32), Mode::Read)
                }
            }
            Kind::MultiTenant { tenants, leaves } => {
                // Mild tenant skew: some tenants are busier, none dominates.
                let zipf = Zipfian::new(*tenants, 0.5);
                let tenant = zipf.sample(rng);
                let leaf = rng.index(*leaves);
                let write = rng.below(100) < 10;
                let base = (tenant * (1 + leaves)) as u32;
                let mode = if write { Mode::Write } else { Mode::Read };
                if flat {
                    LockPlan::single(LockId(base + 1 + leaf as u32), Mode::Write)
                } else {
                    LockPlan::for_leaf(&[LockId(base)], LockId(base + 1 + leaf as u32), mode)
                }
            }
            Kind::FsMetadata { dirs, files_per_dir, theta } => {
                let zipf = Zipfian::new(*dirs, *theta);
                let dir = zipf.sample(rng);
                let file = rng.index(*files_per_dir);
                let root = LockId(0);
                let dir_lock = LockId(1 + dir as u32);
                let file_lock = LockId((1 + dirs + dir * files_per_dir + file) as u32);
                let op = rng.below(100);
                if flat {
                    let leaf = if op < 85 { file_lock } else { dir_lock };
                    return LockPlan::single(leaf, Mode::Write);
                }
                if op < 70 {
                    // stat: read one file's metadata
                    LockPlan::for_leaf(&[root, dir_lock], file_lock, Mode::Read)
                } else if op < 85 {
                    // readdir: read the directory itself
                    LockPlan::for_leaf(&[root], dir_lock, Mode::Read)
                } else if op < 95 {
                    // create/write: exclusive on the file
                    LockPlan::for_leaf(&[root, dir_lock], file_lock, Mode::Write)
                } else {
                    // rename/rmdir: exclusive on the whole directory
                    LockPlan::for_leaf(&[root], dir_lock, Mode::Write)
                }
            }
            Kind::Saturation => {
                if flat {
                    LockPlan::single(LockId(0), Mode::Write)
                } else {
                    LockPlan::for_leaf(&[LockId(0)], LockId(1), Mode::Write)
                }
            }
        }
    }
}

/// The measured outcome of one scenario cell.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Preset name.
    pub name: String,
    /// Protocol label ([`ScenarioProtocol::label`]).
    pub protocol: String,
    /// Ops whose arrival fired (scheduled offered load).
    pub offered_ops: u64,
    /// Ops fully granted.
    pub completed_ops: u64,
    /// Offered rate over the arrival window, ops/s.
    pub offered_rate: f64,
    /// Achieved throughput to the last completion, ops/s. Below
    /// `offered_rate` when the cell saturates (the knee).
    pub achieved_rate: f64,
    /// Sojourn (arrival → fully granted) percentiles, microseconds.
    pub sojourn_p50: u64,
    /// 99.9th-percentile sojourn, microseconds.
    pub sojourn_p999: u64,
    /// Total protocol messages on the wire.
    pub messages: u64,
    /// Total grants (lock-level, not op-level).
    pub grants: u64,
    /// Messages per lock-level grant — the paper's efficiency metric;
    /// release suppression and intention coalescing push it down.
    pub messages_per_grant: f64,
    /// Messages per completed operation (plans differ in step count
    /// across protocols; this normalizes to application work).
    pub messages_per_op: f64,
    /// Largest number of ops simultaneously in flight (backlog depth).
    pub max_in_flight: u64,
}

impl ScenarioReport {
    fn new(s: &Scenario, report: &SimReport, stats: &OpenLoopStats) -> ScenarioReport {
        let duration_s = s.duration.as_micros() as f64 / 1e6;
        ScenarioReport {
            name: s.name.clone(),
            protocol: s.protocol.label().to_string(),
            offered_ops: stats.offered,
            completed_ops: stats.completed,
            offered_rate: stats.offered as f64 / duration_s,
            achieved_rate: stats.achieved_ops_per_sec(),
            sojourn_p50: stats.sojourn_percentile(0.50),
            sojourn_p999: stats.sojourn_percentile(0.999),
            messages: report.metrics.total_messages(),
            grants: report.metrics.total_grants(),
            messages_per_grant: report.metrics.total_messages() as f64
                / report.metrics.total_grants().max(1) as f64,
            messages_per_op: report.metrics.total_messages() as f64 / stats.completed.max(1) as f64,
            max_in_flight: stats.max_in_flight,
        }
    }
}

/// The stats window length for the offered-vs-achieved time series.
const WINDOW: Duration = Duration(1_000_000);

/// Runs a scenario to quiescence in the deterministic simulator.
///
/// # Panics
///
/// Panics if the run violates a protocol invariant or fails to quiesce —
/// either is a bug, not a measurement.
pub fn run_scenario(scenario: &Scenario) -> ScenarioReport {
    run_configured(scenario, ProtocolConfig::default())
}

/// [`run_scenario`] with the hierarchical runtimes built from `pc`
/// instead of the paper's configuration (the flat baseline has no
/// configuration to vary).
fn run_configured(scenario: &Scenario, pc: ProtocolConfig) -> ScenarioReport {
    let (driver, stats) = OpenLoopDriver::new(scenario.scripts(), WINDOW);
    let lock_count = scenario.lock_count();
    let cfg = SimConfig {
        seed: scenario.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(scenario.nodes as u64),
        latency: LatencyModel::Exponential { mean: scenario.net_mean },
        lock_count,
        check_every: 0,
        watchdog: Some(Duration(60_000_000)),
        ..SimConfig::default()
    };
    let ids = (0..scenario.nodes as u32).map(NodeId);
    let result = match scenario.protocol {
        ScenarioProtocol::Hierarchical => {
            let homes = scenario.token_homes();
            let spaces = ids.map(|id| LockSpace::with_homes(id, &homes, pc)).collect();
            run_sim(spaces, driver, cfg, None).map(|r| r.0)
        }
        ScenarioProtocol::Sharded(shards) => {
            let homes = scenario.token_homes();
            let spec = ShardSpec::new(shards);
            let spaces = ids.map(|id| ShardedSpace::with_homes(id, &homes, pc, spec)).collect();
            run_sim(spaces, driver, cfg, None).map(|r| r.0)
        }
        ScenarioProtocol::FlatExclusive => {
            let spaces = ids.map(|id| NaimiSpace::new(id, lock_count, NodeId(0))).collect();
            run_sim(spaces, driver, cfg, None).map(|r| r.0)
        }
    };
    let report = result.unwrap_or_else(|e| panic!("scenario violated an invariant: {e}"));
    assert!(report.quiescent, "scenario '{}' did not quiesce", scenario.name);
    let stats = stats.borrow();
    ScenarioReport::new(scenario, &report, &stats)
}

/// The scenario library: every row of EXPERIMENTS.md's `scenarios` block.
///
/// Sizes are chosen so the full library runs in seconds of wall time
/// (virtual time is free; compute scales with event count). Cells:
///
/// | name                  | protocol       | shape |
/// |-----------------------|----------------|-------|
/// | `zipf_read_heavy`     | hierarchical   | Zipfian θ=0.99, 10% writes |
/// | `zipf_read_heavy_flat`| flat-exclusive | identical arrivals/keys, exclusive leaves |
/// | `zipf_write_heavy`    | hierarchical   | Zipfian θ=0.99, 50% writes |
/// | `flash_crowd`         | hierarchical   | uniform reads + mid-run write burst on one leaf |
/// | `multi_tenant`        | sharded (4)    | 1500 tenants × 2 leaves |
/// | `fs_metadata`         | hierarchical   | root/16 dirs/256 files, stat-heavy mix |
/// | `saturation`          | hierarchical   | single hot leaf, offered ≫ capacity |
pub fn scenario_presets() -> Vec<Scenario> {
    let base = Scenario {
        name: String::new(),
        protocol: ScenarioProtocol::Hierarchical,
        nodes: 8,
        duration: Duration(10_000_000),
        rate_per_node: 50.0,
        seed: 0xC0FFEE,
        hold_mean: Duration(500),
        net_mean: Duration(2_000),
        kind: Kind::Saturation,
    };
    vec![
        Scenario {
            name: "zipf_read_heavy".into(),
            kind: Kind::ZipfHot { entries: 64, theta: 0.99, write_pct: 10 },
            ..base.clone()
        },
        Scenario {
            name: "zipf_read_heavy_flat".into(),
            protocol: ScenarioProtocol::FlatExclusive,
            kind: Kind::ZipfHot { entries: 64, theta: 0.99, write_pct: 10 },
            ..base.clone()
        },
        Scenario {
            name: "zipf_write_heavy".into(),
            rate_per_node: 30.0,
            kind: Kind::ZipfHot { entries: 64, theta: 0.99, write_pct: 50 },
            ..base.clone()
        },
        Scenario {
            name: "flash_crowd".into(),
            rate_per_node: 25.0,
            kind: Kind::FlashCrowd {
                entries: 64,
                burst_from: SimTime(4_000_000),
                burst_until: SimTime(6_000_000),
                burst_rate: 40.0,
            },
            ..base.clone()
        },
        Scenario {
            name: "multi_tenant".into(),
            protocol: ScenarioProtocol::Sharded(4),
            rate_per_node: 60.0,
            kind: Kind::MultiTenant { tenants: 1_500, leaves: 2 },
            ..base.clone()
        },
        Scenario {
            name: "fs_metadata".into(),
            rate_per_node: 40.0,
            kind: Kind::FsMetadata { dirs: 16, files_per_dir: 16, theta: 0.8 },
            ..base.clone()
        },
        Scenario {
            name: "saturation".into(),
            nodes: 4,
            rate_per_node: 100.0,
            hold_mean: Duration(2_000),
            kind: Kind::Saturation,
            ..base
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn preset(name: &str) -> Scenario {
        scenario_presets().into_iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn preset_names_are_unique_and_described() {
        let presets = scenario_presets();
        let mut names: Vec<_> = presets.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), presets.len());
        for p in &presets {
            assert!(p.describe().contains(&p.name));
            assert!(p.lock_count() > 0);
        }
    }

    #[test]
    fn scripts_are_deterministic_and_sorted() {
        let s = preset("zipf_read_heavy");
        let (a, b) = (s.scripts(), s.scripts());
        assert_eq!(a, b, "equal scenarios must produce byte-identical scripts");
        for node in &a {
            assert!(node.windows(2).all(|w| w[0].at <= w[1].at));
        }
    }

    #[test]
    fn flat_twin_sees_identical_arrivals() {
        let hier = preset("zipf_read_heavy");
        let flat = preset("zipf_read_heavy_flat");
        let (h, f) = (hier.scripts(), flat.scripts());
        assert_eq!(h.len(), f.len());
        for (hn, fn_) in h.iter().zip(&f) {
            assert_eq!(
                hn.iter().map(|o| o.at).collect::<Vec<_>>(),
                fn_.iter().map(|o| o.at).collect::<Vec<_>>(),
                "protocol choice must not perturb the arrival process"
            );
            // Flat plans are single exclusive steps of the same work.
            assert!(fn_.iter().all(|o| o.plan.steps().len() == 1));
            assert!(fn_.iter().all(|o| o.plan.steps()[0].mode == Mode::Write));
        }
    }

    #[test]
    fn quick_runs_complete_for_every_preset() {
        for s in scenario_presets() {
            let s = s.quick();
            let r = run_scenario(&s);
            assert!(r.offered_ops > 0, "{}: no offered load", r.name);
            assert_eq!(r.offered_ops, r.completed_ops, "{}: lost ops", r.name);
            assert!(r.sojourn_p999 >= r.sojourn_p50, "{}", r.name);
            assert!(r.messages > 0 && r.grants > 0, "{}", r.name);
        }
    }

    #[test]
    fn saturation_preset_shows_the_knee() {
        let r = run_scenario(&preset("saturation").quick());
        assert!(
            r.achieved_rate < 0.9 * r.offered_rate,
            "saturation cell must saturate: offered {:.0}/s achieved {:.0}/s",
            r.offered_rate,
            r.achieved_rate
        );
        assert!(r.max_in_flight > 20, "backlog must build, got {}", r.max_in_flight);
    }

    #[test]
    fn zipf_hierarchical_beats_flat_on_messages_per_grant() {
        let hier = run_scenario(&preset("zipf_read_heavy").quick());
        let flat = run_scenario(&preset("zipf_read_heavy_flat").quick());
        assert!(
            hier.messages_per_grant < flat.messages_per_grant,
            "hierarchical {:.2} msgs/grant vs flat {:.2}",
            hier.messages_per_grant,
            flat.messages_per_grant
        );
    }

    /// Regression guard for the per-operation cost of the hierarchy on
    /// Zipf read-heavy arrivals (ROADMAP: "4.80 messages/op against 2.55
    /// flat"). Retaining the table's `IR` (Rule 5.3) takes the table
    /// intent off the wire for nine operations in ten: ≈3.1 messages/op.
    /// Without release suppression — and with it retention — every
    /// release travels and the figure is back above the old 4.8. The flat
    /// twin still wins per operation: what remains is the entry path
    /// (request, grant, release of the leaf `R`/`W`) plus the writers'
    /// `IW` on the table, neither of which is retained.
    #[test]
    fn retained_intent_keeps_zipf_messages_per_op_near_three() {
        let scenario = preset("zipf_read_heavy");
        let retained = run_scenario(&scenario);
        let eager =
            run_configured(&scenario, ProtocolConfig::paper().without_release_suppression());
        let flat = run_scenario(&preset("zipf_read_heavy_flat"));
        assert_eq!(retained.offered_ops, eager.offered_ops, "identical arrivals");
        assert!(
            retained.messages_per_op < 3.4,
            "hierarchical with retention: {:.2} msgs/op (expected ≈3.1)",
            retained.messages_per_op
        );
        assert!(
            eager.messages_per_op > retained.messages_per_op + 1.5,
            "without suppression/retention {:.2} msgs/op vs {:.2} with",
            eager.messages_per_op,
            retained.messages_per_op
        );
        assert!(
            flat.messages_per_op < retained.messages_per_op,
            "flat {:.2} msgs/op vs hierarchical {:.2}: the entry path and IW remain",
            flat.messages_per_op,
            retained.messages_per_op
        );
        assert!(
            retained.messages_per_op < flat.messages_per_op + 1.0,
            "the per-op gap to flat ({:.2}) stays under one message, was 2.25",
            flat.messages_per_op
        );
    }
}
