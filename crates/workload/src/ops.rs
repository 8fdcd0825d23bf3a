//! Operation plans: the per-node sequence of application operations,
//! generated deterministically from the workload seed so every protocol
//! variant executes literally the same work.

use crate::mix::WorkloadConfig;
use hlock_core::rng::Rng;
use hlock_core::Mode;
use hlock_sim::{sample_exponential, Duration};

/// One application operation of the airline-reservation workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Read one fare entry: table `IR`, then entry `R`
    /// (principal request mode `IR`).
    EntryRead(usize),
    /// Update one fare entry: table `IW`, then entry `W`
    /// (principal request mode `IW`).
    EntryWrite(usize),
    /// Browse the whole table: table `R`.
    TableRead,
    /// Bulk-reprice the whole table: table `W`.
    TableWrite,
    /// Read-then-reprice: table `U`, read, upgrade to `W`, write.
    TableUpgrade,
}

impl OpKind {
    /// The principal mode whose frequency the paper's mix controls.
    pub fn principal_mode(self) -> Mode {
        match self {
            OpKind::EntryRead(_) => Mode::IntentRead,
            OpKind::EntryWrite(_) => Mode::IntentWrite,
            OpKind::TableRead => Mode::Read,
            OpKind::TableWrite => Mode::Write,
            OpKind::TableUpgrade => Mode::Upgrade,
        }
    }

    /// Number of lock requests this operation issues in the hierarchical
    /// protocol (upgrades count as an extra request, per §4).
    pub fn hierarchical_requests(self) -> u32 {
        match self {
            OpKind::EntryRead(_) | OpKind::EntryWrite(_) => 2,
            OpKind::TableRead | OpKind::TableWrite => 1,
            OpKind::TableUpgrade => 2,
        }
    }
}

/// One planned operation with its sampled durations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpPlan {
    /// What to do.
    pub kind: OpKind,
    /// Idle (think) time before the operation starts.
    pub idle: Duration,
    /// Critical-section hold time.
    pub cs: Duration,
    /// Second hold time for the write phase of an upgrade.
    pub cs2: Duration,
}

/// Generates node `node`'s operation sequence. Deterministic in
/// `(config.seed, node)` and *independent of the protocol*, so the
/// hierarchical run, "Naimi same work" and "Naimi pure" all execute the
/// same logical operations with the same hold/idle times.
pub fn plan_for_node(config: &WorkloadConfig, node: u32) -> Vec<OpPlan> {
    let mut rng =
        Rng::new(config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(u64::from(node) + 1));
    (0..config.ops_per_node)
        .map(|_| {
            let mode = config.mix.sample(&mut rng);
            let kind = match mode {
                Mode::IntentRead => OpKind::EntryRead(rng.index(config.entries)),
                Mode::IntentWrite => OpKind::EntryWrite(rng.index(config.entries)),
                Mode::Read => OpKind::TableRead,
                Mode::Write => OpKind::TableWrite,
                Mode::Upgrade => OpKind::TableUpgrade,
            };
            OpPlan {
                kind,
                idle: sample_exponential(&mut rng, config.idle_mean),
                cs: sample_exponential(&mut rng, config.cs_mean),
                cs2: sample_exponential(&mut rng, config.cs_mean),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::ModeMix;

    #[test]
    fn plans_are_deterministic_per_node() {
        let cfg = WorkloadConfig::default();
        assert_eq!(plan_for_node(&cfg, 3), plan_for_node(&cfg, 3));
        assert_ne!(plan_for_node(&cfg, 3), plan_for_node(&cfg, 4));
    }

    #[test]
    fn entry_indices_in_range() {
        let cfg = WorkloadConfig { entries: 5, ops_per_node: 200, ..WorkloadConfig::default() };
        for node in 0..4 {
            for op in plan_for_node(&cfg, node) {
                if let OpKind::EntryRead(e) | OpKind::EntryWrite(e) = op.kind {
                    assert!(e < 5);
                }
            }
        }
    }

    #[test]
    fn principal_modes_follow_mix() {
        let cfg = WorkloadConfig {
            ops_per_node: 20_000,
            mix: ModeMix::paper(),
            ..WorkloadConfig::default()
        };
        let plan = plan_for_node(&cfg, 0);
        let reads = plan.iter().filter(|p| matches!(p.kind, OpKind::EntryRead(_))).count() as f64;
        assert!((reads / 20_000.0 - 0.80).abs() < 0.02);
    }

    #[test]
    fn request_counts() {
        assert_eq!(OpKind::EntryRead(0).hierarchical_requests(), 2);
        assert_eq!(OpKind::TableWrite.hierarchical_requests(), 1);
        assert_eq!(OpKind::TableUpgrade.hierarchical_requests(), 2);
        assert_eq!(OpKind::TableUpgrade.principal_mode(), Mode::Upgrade);
    }
}
