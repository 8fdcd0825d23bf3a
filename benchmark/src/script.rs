//! The six workloads and their seed-determined scripts.
//!
//! Every workload uses one table lock (`LockId(0)`) plus entry locks
//! `1..=ENTRIES` and hierarchical plans: `IR`/`IW` on the table, then
//! `R`/`W` on one entry. A script is one lane of operations per logical
//! client; closed-loop drivers walk their lane cyclically, open-loop
//! drivers fire each operation at its due time.

use crate::rng::{poisson_arrivals, Rng, Zipf};

/// Entry locks under the table lock.
pub const ENTRIES: u32 = 64;
/// Locks per node: the table plus the entries.
pub const LOCKS: usize = ENTRIES as usize + 1;
/// Zipf exponent of the hot-key workloads.
pub const ZIPF_THETA: f64 = 0.99;

/// Virtual length of one simulator round.
pub const SIM_ROUND_US: u64 = 100_000_000;
/// Simulated nodes.
pub const SIM_NODES: u32 = 8;
/// The flash crowd hammers this entry during the middle fifth of a round.
pub const FLASH_ENTRY: u32 = 1;
/// Per-node write rate on [`FLASH_ENTRY`] during the burst window.
pub const FLASH_WRITES_PER_S: f64 = 30.0;

/// Length of one failover trial and the instant the token home dies.
pub const FAILOVER_TRIAL_US: u64 = 1_000_000;
pub const FAILOVER_KILL_US: u64 = 250_000;
/// Each survivor issues one write per period.
pub const FAILOVER_PERIOD_US: u64 = 250;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TcpReadHot,
    TcpWriteHot,
    ShardedPipeline,
    SimReadHot,
    SimFlashCrowd,
    Failover,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::TcpReadHot,
        Workload::TcpWriteHot,
        Workload::ShardedPipeline,
        Workload::SimReadHot,
        Workload::SimFlashCrowd,
        Workload::Failover,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TcpReadHot => "tcp_read_hot",
            Workload::TcpWriteHot => "tcp_write_hot",
            Workload::ShardedPipeline => "sharded_pipeline",
            Workload::SimReadHot => "sim_read_hot",
            Workload::SimFlashCrowd => "sim_flash_crowd",
            Workload::Failover => "failover",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations a closed-loop client keeps outstanding (the replay
    /// ledger keeps the same number in flight cluster-wide).
    pub fn in_flight(self) -> usize {
        match self {
            Workload::TcpReadHot | Workload::TcpWriteHot | Workload::Failover => 2,
            Workload::ShardedPipeline => 2 * crate::sharded::PIPELINE,
            Workload::SimReadHot | Workload::SimFlashCrowd => SIM_NODES as usize,
        }
    }
}

/// One hierarchical operation: intent on the table, then `entry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Due time in µs from the start of the round (0 in closed loops).
    pub at_us: u64,
    /// Entry lock id, `1..=ENTRIES`.
    pub entry: u32,
    pub write: bool,
    /// Time the fully acquired plan is held before release.
    pub hold_us: u32,
}

/// The operations of one logical client, issued at `node`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lane {
    pub node: u32,
    pub ops: Vec<Op>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    pub lanes: Vec<Lane>,
}

impl Script {
    pub fn ops(&self) -> usize {
        self.lanes.iter().map(|l| l.ops.len()).sum()
    }

    /// Share of operations that write.
    pub fn write_share(&self) -> f64 {
        let writes: usize =
            self.lanes.iter().map(|l| l.ops.iter().filter(|o| o.write).count()).sum();
        writes as f64 / self.ops().max(1) as f64
    }

    /// FNV-1a over every field of every operation, in lane order.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for lane in &self.lanes {
            eat(u64::from(lane.node));
            eat(lane.ops.len() as u64);
            for op in &lane.ops {
                eat(op.at_us);
                eat(u64::from(op.entry) | u64::from(op.write) << 32);
                eat(u64::from(op.hold_us));
            }
        }
        h
    }

    /// All operations tagged with their node, merged in due-time order
    /// (lane order breaks ties; closed-loop lanes interleave round-robin).
    pub fn merged(&self) -> Vec<(u32, Op)> {
        let mut all: Vec<(u64, usize, u32, Op)> = Vec::with_capacity(self.ops());
        for lane in &self.lanes {
            for (i, op) in lane.ops.iter().enumerate() {
                all.push((op.at_us, i, lane.node, *op));
            }
        }
        all.sort_by_key(|&(at, i, node, _)| (at, i, node));
        all.into_iter().map(|(_, _, node, op)| (node, op)).collect()
    }
}

/// Closed-loop lane length: long enough that a round rarely wraps.
const CLOSED_LANE_OPS: usize = 1 << 16;

fn closed_lane(
    rng: &mut Rng,
    node: u32,
    write_pct: u64,
    mut pick: impl FnMut(&mut Rng) -> u32,
) -> Lane {
    let ops = (0..CLOSED_LANE_OPS)
        .map(|_| Op { at_us: 0, entry: pick(rng), write: rng.percent(write_pct), hold_us: 0 })
        .collect();
    Lane { node, ops }
}

/// The seed of round `round` of a run under `seed`: mixed, so that the
/// rounds of neighbouring seeds share nothing.
pub fn round_seed(seed: u64, round: u64) -> u64 {
    let mut state = seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F);
    crate::rng::splitmix64(&mut state)
}

/// The script of `round` of `workload` under `seed`. Rounds draw from
/// independent streams of the same seed.
pub fn generate(workload: Workload, seed: u64, round: u64) -> Script {
    let stream = |lane: u64| Rng::fork(round_seed(seed, round), lane + 1);
    let lanes = match workload {
        Workload::TcpReadHot | Workload::TcpWriteHot => {
            let write_pct = if workload == Workload::TcpReadHot { 10 } else { 50 };
            // One popularity ranking shared by both nodes: the hot
            // entries are contended across the wire.
            let zipf = Zipf::new(ENTRIES as usize, ZIPF_THETA);
            [1u32, 2]
                .into_iter()
                .map(|node| {
                    let mut rng = stream(u64::from(node));
                    closed_lane(&mut rng, node, write_pct, |r| 1 + zipf.sample(r) as u32)
                })
                .collect()
        }
        Workload::ShardedPipeline => {
            // Disjoint halves per driver: pipelined holds can never form
            // a cross-thread wait cycle (the table is only ever taken in
            // mutually compatible intent modes).
            let half = u64::from(ENTRIES / 2);
            [0u32, 1]
                .into_iter()
                .map(|node| {
                    let mut rng = stream(u64::from(node));
                    let base = 1 + node * (ENTRIES / 2);
                    closed_lane(&mut rng, node, 10, |r| base + r.below(half) as u32)
                })
                .collect()
        }
        Workload::SimReadHot => {
            let zipf = Zipf::new(ENTRIES as usize, ZIPF_THETA);
            (0..SIM_NODES)
                .map(|node| {
                    let mut rng = stream(u64::from(node));
                    let ops = poisson_arrivals(&mut rng, 50.0, 0, SIM_ROUND_US)
                        .into_iter()
                        .map(|at_us| Op {
                            at_us,
                            entry: 1 + zipf.sample(&mut rng) as u32,
                            write: rng.percent(10),
                            hold_us: rng.exponential(500.0) as u32,
                        })
                        .collect();
                    Lane { node, ops }
                })
                .collect()
        }
        Workload::SimFlashCrowd => (0..SIM_NODES)
            .map(|node| {
                let mut rng = stream(u64::from(node));
                let mut ops: Vec<Op> = poisson_arrivals(&mut rng, 25.0, 0, SIM_ROUND_US)
                    .into_iter()
                    .map(|at_us| Op {
                        at_us,
                        entry: 1 + rng.below(u64::from(ENTRIES)) as u32,
                        write: false,
                        hold_us: rng.exponential(500.0) as u32,
                    })
                    .collect();
                let (from, until) = (SIM_ROUND_US * 2 / 5, SIM_ROUND_US * 3 / 5);
                ops.extend(
                    poisson_arrivals(&mut rng, FLASH_WRITES_PER_S, from, until).into_iter().map(
                        |at_us| Op {
                            at_us,
                            entry: FLASH_ENTRY,
                            write: true,
                            hold_us: rng.exponential(500.0) as u32,
                        },
                    ),
                );
                ops.sort_by_key(|op| op.at_us);
                Lane { node, ops }
            })
            .collect(),
        Workload::Failover => {
            // Fixed period, survivors in antiphase (so whether their
            // writes collide is not left to the seed); only where the
            // schedule starts within a period comes from the seed.
            let phase = stream(0).below(FAILOVER_PERIOD_US / 2);
            [1u32, 2]
                .into_iter()
                .map(|node| {
                    let first = phase + u64::from(node - 1) * FAILOVER_PERIOD_US / 2;
                    let ops = (0..)
                        .map(|k| first + k * FAILOVER_PERIOD_US)
                        .take_while(|&at| at < FAILOVER_TRIAL_US)
                        .map(|at_us| Op { at_us, entry: 1, write: true, hold_us: 0 })
                        .collect();
                    Lane { node, ops }
                })
                .collect()
        }
    };
    Script { lanes }
}

/// Digest of the first five rounds' scripts: what `--seed` pins down.
pub fn script_digest(workload: Workload, seed: u64) -> u64 {
    (0..5).fold(0u64, |acc, round| acc.rotate_left(13) ^ generate(workload, seed, round).digest())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_byte_identical_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            assert_eq!(generate(w, 42, 0), generate(w, 42, 0), "{}", w.name());
            assert_eq!(script_digest(w, 42), script_digest(w, 42), "{}", w.name());
            assert_ne!(script_digest(w, 42), script_digest(w, 43), "{}", w.name());
            assert_ne!(generate(w, 42, 0).digest(), generate(w, 42, 1).digest(), "{}", w.name());
        }
    }

    #[test]
    fn write_shares_are_within_tolerance() {
        let share = |w| generate(w, 9, 0).write_share();
        assert!((share(Workload::TcpReadHot) - 0.10).abs() < 0.01);
        assert!((share(Workload::TcpWriteHot) - 0.50).abs() < 0.01);
        assert!((share(Workload::ShardedPipeline) - 0.10).abs() < 0.01);
        assert!((share(Workload::SimReadHot) - 0.10).abs() < 0.01);
        assert_eq!(share(Workload::Failover), 1.0);
        // 8 nodes x 30 writes/s x 20 s against 8 x 25 reads/s x 100 s.
        assert!((share(Workload::SimFlashCrowd) - 4800.0 / 24800.0).abs() < 0.02);
    }

    #[test]
    fn hot_key_share_and_lane_shapes() {
        let script = generate(Workload::TcpReadHot, 5, 0);
        let zipf = Zipf::new(ENTRIES as usize, ZIPF_THETA);
        let hot = script.lanes.iter().flat_map(|l| &l.ops).filter(|o| o.entry == 1).count() as f64
            / script.ops() as f64;
        assert!((hot - zipf.mass(0)).abs() < 0.01, "hot share {hot}");
        assert!(script.lanes.iter().flat_map(|l| &l.ops).all(|o| (1..=ENTRIES).contains(&o.entry)));

        let sharded = generate(Workload::ShardedPipeline, 5, 0);
        assert!(sharded.lanes[0].ops.iter().all(|o| (1..=32).contains(&o.entry)));
        assert!(sharded.lanes[1].ops.iter().all(|o| (33..=64).contains(&o.entry)));

        for w in [Workload::SimReadHot, Workload::SimFlashCrowd, Workload::Failover] {
            for lane in generate(w, 5, 0).lanes {
                assert!(lane.ops.windows(2).all(|p| p[0].at_us <= p[1].at_us), "{}", w.name());
            }
        }
        let failover = generate(Workload::Failover, 5, 0);
        assert_eq!(failover.lanes.len(), 2);
        assert_eq!(failover.lanes[0].ops.len(), (FAILOVER_TRIAL_US / FAILOVER_PERIOD_US) as usize);
    }
}
