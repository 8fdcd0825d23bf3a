//! `BENCHMARK.json`, generated from the declarations in this crate so
//! the file at the repo root and the code cannot drift apart (an
//! integration test compares them).

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::script::Workload;

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 8;

/// The command the driver appends `--workload … --seed … --seconds …
/// --trace …` to. `--offline`: every dependency is a path in this repo.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["benchmark"];

impl Workload {
    /// Why the workload is in the benchmark, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::TcpReadHot => {
                "3-node mux cluster, 2 closed-loop clients, Zipf keys shared across nodes, 10% \
                 writes: every op crosses wire, mux and a socket; copysets and release \
                 suppression do the protocol work"
            }
            Workload::TcpWriteHot => {
                "same cluster, clients and keys at 50% writes: token transfers, freezing and \
                 local queues; a gain for readers that costs writers shows as the two tcp rows \
                 diverging"
            }
            Workload::ShardedPipeline => {
                "2 sharded nodes x 2 shards, 2 drivers pipelining up to 32 ops over disjoint \
                 entries: CPU-bound shard queues, workers, coalescing, router and egress; the \
                 socket does little"
            }
            Workload::SimReadHot => {
                "8 simulated nodes, open-loop Poisson 50 ops/s/node, Zipf keys, 10% writes, 2 ms \
                 mean delay: core::node does all the work; exact msgs/op and virtual-time latency"
            }
            Workload::SimFlashCrowd => {
                "same simulated cluster, uniform reads plus a mid-round write burst on one \
                 entry: bypasses the read fast path; retained modes or reordered queues pay here \
                 in the tail"
            }
            Workload::Failover => {
                "3-node recovery cluster, survivors write on a 250 us schedule, token home killed \
                 at 250 ms: the only workload where recovery, failure detection and epoch \
                 fencing do the work"
            }
        }
    }
}

pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    Json::obj([
        ("command", strings(&COMMAND)),
        ("paths", strings(&PATHS)),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_stays_inside_the_contract_limits() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(COMMAND.len() <= 32 && (1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().pretty().len() < 64 * 1024);
    }
}
