//! Large-scale smoke tests at the paper's full system size. Slow —
//! run explicitly with `cargo test --release --test scale -- --ignored`.

use hlock::core::ProtocolConfig;
use hlock::sim::LatencyModel;
use hlock::workload::{run_experiment, ProtocolKind, WorkloadConfig};

#[test]
#[ignore = "slow: 120-node full-size simulation with per-event checking"]
fn full_size_hierarchical_run_checked() {
    let wl = WorkloadConfig { ops_per_node: 10, seed: 7, ..Default::default() };
    let report = run_experiment(
        ProtocolKind::Hierarchical(ProtocolConfig::default()),
        120,
        &wl,
        LatencyModel::paper(),
        1, // safety checked after every delivered message
        None,
    )
    .expect("safe at full scale");
    assert!(report.quiescent);
    assert_eq!(report.metrics.total_grants(), report.metrics.total_requests());
    let mpr = report.metrics.messages_per_request();
    assert!(mpr < 5.0, "asymptote holds at 120 nodes: {mpr:.2}");
}

#[test]
#[ignore = "slow: 120-node eager-transfer (literal Rule 3.2) run"]
fn full_size_eager_transfers_still_safe() {
    let wl = WorkloadConfig { ops_per_node: 6, seed: 8, ..Default::default() };
    let report = run_experiment(
        ProtocolKind::Hierarchical(ProtocolConfig::paper().with_eager_transfers()),
        120,
        &wl,
        LatencyModel::paper(),
        1,
        None,
    )
    .expect("literal Rule 3.2 is safe (just slower)");
    assert!(report.quiescent);
}

#[test]
#[ignore = "slow: 120-node baseline runs"]
fn full_size_baselines_run() {
    let wl = WorkloadConfig { ops_per_node: 6, seed: 9, ..Default::default() };
    for kind in [ProtocolKind::NaimiSameWork, ProtocolKind::NaimiPure, ProtocolKind::RaymondPure] {
        let report = run_experiment(kind, 120, &wl, LatencyModel::paper(), 0, None)
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert!(report.quiescent, "{kind:?}");
    }
}
