//! Request-mode mixes and workload parameters.

use hlock_core::rng::Rng;
use hlock_core::Mode;
use hlock_sim::Duration;

/// Relative frequencies of the five request modes.
///
/// The paper's experiment randomizes the mode of each iteration so that
/// "the IR, R, U, IW and W requests are 80 %, 10 %, 4 %, 5 % and 1 % of
/// the total requests" — reads dominate writes, as in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModeMix {
    /// Weights for `[IR, R, U, IW, W]`, in that order.
    pub weights: [u32; 5],
}

impl ModeMix {
    /// The paper's mix: IR 80 %, R 10 %, U 4 %, IW 5 %, W 1 %.
    pub fn paper() -> ModeMix {
        ModeMix { weights: [80, 10, 4, 5, 1] }
    }

    /// A read-only mix (IR and R only), useful for ablations.
    pub fn read_only() -> ModeMix {
        ModeMix { weights: [80, 20, 0, 0, 0] }
    }

    /// A write-heavy mix, useful for stress tests and ablations.
    pub fn write_heavy() -> ModeMix {
        ModeMix { weights: [20, 10, 10, 30, 30] }
    }

    /// Total weight.
    pub fn total(&self) -> u32 {
        self.weights.iter().sum()
    }

    /// Samples one mode according to the weights.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero.
    pub fn sample(&self, rng: &mut Rng) -> Mode {
        let total = self.total();
        assert!(total > 0, "mode mix must have a positive weight");
        let mut pick = rng.below(u64::from(total)) as u32;
        for (i, w) in self.weights.iter().enumerate() {
            if pick < *w {
                return [
                    Mode::IntentRead,
                    Mode::Read,
                    Mode::Upgrade,
                    Mode::IntentWrite,
                    Mode::Write,
                ][i];
            }
            pick -= w;
        }
        unreachable!("weights sum to total")
    }
}

impl Default for ModeMix {
    fn default() -> Self {
        ModeMix::paper()
    }
}

/// Parameters of the multi-airline reservation experiment (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadConfig {
    /// Number of fare-table entries `E` (each guarded by its own lock;
    /// the table itself is one more lock in the hierarchical protocol).
    pub entries: usize,
    /// Lock-request iterations per node.
    pub ops_per_node: u32,
    /// Mean critical-section length (paper: 15 ms), exponential.
    pub cs_mean: Duration,
    /// Mean inter-request idle time (paper: 150 ms), exponential.
    pub idle_mean: Duration,
    /// Request-mode mix.
    pub mix: ModeMix,
    /// Workload seed (combined with node ids; the *same* seed produces
    /// the *same* operation sequence for every protocol, which is what
    /// makes the "Naimi same work" comparison same-work).
    pub seed: u64,
    /// Distribute initial token homes: the table lock stays at node 0,
    /// entry lock `e` starts at node `1 + e mod (n-1)` (extension
    /// experiment; the paper starts all tokens at one node).
    pub spread_token_homes: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            entries: 32,
            ops_per_node: 20,
            cs_mean: Duration::from_millis(15),
            idle_mean: Duration::from_millis(150),
            mix: ModeMix::paper(),
            seed: 1,
            spread_token_homes: false,
        }
    }
}

impl WorkloadConfig {
    /// Locks needed by the hierarchical protocol: the table plus one per
    /// entry. Lock 0 is the table; lock `1 + i` guards entry `i`.
    pub fn hierarchical_lock_count(&self) -> usize {
        self.entries + 1
    }

    /// Locks needed by "Naimi same work": one per entry (no table lock —
    /// the baseline has no granularities).
    pub fn naimi_lock_count(&self) -> usize {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mix_frequencies() {
        let mix = ModeMix::paper();
        let mut rng = Rng::new(9);
        let mut counts = [0u32; 5];
        let n = 100_000;
        for _ in 0..n {
            let m = mix.sample(&mut rng);
            counts[m.wire_tag() as usize] += 1;
        }
        let frac = |c: u32| f64::from(c) / f64::from(n);
        assert!((frac(counts[0]) - 0.80).abs() < 0.01, "IR {:.3}", frac(counts[0]));
        assert!((frac(counts[1]) - 0.10).abs() < 0.01, "R {:.3}", frac(counts[1]));
        assert!((frac(counts[2]) - 0.04).abs() < 0.01, "U {:.3}", frac(counts[2]));
        assert!((frac(counts[3]) - 0.05).abs() < 0.01, "IW {:.3}", frac(counts[3]));
        assert!((frac(counts[4]) - 0.01).abs() < 0.005, "W {:.3}", frac(counts[4]));
    }

    #[test]
    fn read_only_mix_never_writes() {
        let mix = ModeMix::read_only();
        let mut rng = Rng::new(2);
        for _ in 0..1_000 {
            let m = mix.sample(&mut rng);
            assert!(matches!(m, Mode::IntentRead | Mode::Read));
        }
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_mix_panics() {
        let mix = ModeMix { weights: [0; 5] };
        let mut rng = Rng::new(2);
        let _ = mix.sample(&mut rng);
    }

    #[test]
    fn lock_counts() {
        let cfg = WorkloadConfig { entries: 10, ..WorkloadConfig::default() };
        assert_eq!(cfg.hierarchical_lock_count(), 11);
        assert_eq!(cfg.naimi_lock_count(), 10);
    }
}
