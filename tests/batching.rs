//! Integration tests for the batched effect runtime: per-destination
//! coalescing must put strictly fewer frames than logical messages on
//! the wire when hierarchical lock sets share an acquisition path, and
//! batching must not disturb safety, liveness or grant counts.

use hlock::core::{LockId, LockPlan, LockSpace, Mode, NodeId, ProtocolConfig};
use hlock::sim::{Duration, LatencyModel, Sim, SimConfig};
use hlock::wire::frame;
use hlock::workload::{run_experiment, PlanDriver, ProtocolKind, WorkloadConfig};

/// Sizes frames exactly as the TCP transport would.
fn wire_sizer<M: hlock::wire::WireCodec>(messages: &[M]) -> u64 {
    let mut buf = Vec::new();
    frame::write_batch(&mut buf, NodeId(0), messages);
    buf.len() as u64
}

#[test]
fn lock_set_over_shared_path_coalesces_frames() {
    // Every node pipelines the canonical §3.1 lock set — IR on the table,
    // then R or W on its own entry — and all token homes coincide at node
    // 0. Both requests of a set leave in one effect step, so they must
    // share a frame: strictly fewer wire frames than logical messages.
    let nodes = 6;
    let table = LockId(0);
    let plans: Vec<Vec<LockPlan>> = (0..nodes)
        .map(|i| {
            if i == 0 {
                Vec::new()
            } else {
                let entry = LockId(i as u32);
                vec![
                    LockPlan::for_leaf(&[table], entry, Mode::Read),
                    LockPlan::for_leaf(&[table], entry, Mode::Write),
                ]
            }
        })
        .collect();
    let expected_grants = 2 * 2 * (nodes - 1) as u64;
    let spaces: Vec<LockSpace> = (0..nodes)
        .map(|i| LockSpace::new(NodeId(i as u32), nodes, NodeId(0), ProtocolConfig::default()))
        .collect();
    let driver =
        PlanDriver::new(plans, Duration::from_millis(10), Duration::from_millis(30)).pipelined();
    let cfg = SimConfig { seed: 7, lock_count: nodes, check_every: 1, ..SimConfig::default() };
    let report = Sim::new(spaces, driver, cfg)
        .with_frame_sizer(wire_sizer)
        .run()
        .expect("batched lock sets stay safe");
    assert!(report.quiescent);
    assert_eq!(report.metrics.total_grants(), expected_grants);
    let frames = report.metrics.total_frames();
    let logical = report.metrics.total_messages();
    assert!(
        frames < logical,
        "shared-path lock sets must coalesce: {frames} frames vs {logical} logical messages"
    );
    assert!(report.metrics.coalesce_ratio() > 1.0);
    assert!(report.metrics.wire_bytes() > 0, "frame sizer must feed byte accounting");
    assert!(report.metrics.bytes_per_grant() > 0.0);
}

#[test]
fn sequential_acquisition_still_one_message_per_frame() {
    // Without pipelining each step waits for its grant, so no two sends
    // to the same peer ever share an effect step: every frame carries
    // exactly one logical message and the ratio stays 1.0. This pins the
    // boundary of the optimisation — batching never pads frames.
    let plans = vec![vec![], vec![LockPlan::for_leaf(&[LockId(0)], LockId(1), Mode::Write)]];
    let spaces: Vec<LockSpace> = (0..2)
        .map(|i| LockSpace::new(NodeId(i as u32), 2, NodeId(0), ProtocolConfig::default()))
        .collect();
    let driver = PlanDriver::new(plans, Duration::from_millis(10), Duration::from_millis(30));
    let cfg = SimConfig { seed: 3, lock_count: 2, check_every: 1, ..SimConfig::default() };
    let report = Sim::new(spaces, driver, cfg).with_frame_sizer(wire_sizer).run().expect("safe");
    assert!(report.quiescent);
    assert_eq!(report.metrics.total_frames(), report.metrics.total_messages());
    assert!((report.metrics.coalesce_ratio() - 1.0).abs() < f64::EPSILON);
}

#[test]
fn batching_does_not_change_experiment_outcomes() {
    // The stock experiment runner (sequential drivers) routed through the
    // batched runtime must deliver the same logical behaviour as always:
    // quiescent, all requests granted, and frame accounting wired up.
    let wl = WorkloadConfig { entries: 6, ops_per_node: 8, seed: 13, ..Default::default() };
    let r = run_experiment(
        ProtocolKind::Hierarchical(ProtocolConfig::default()),
        6,
        &wl,
        LatencyModel::paper(),
        1,
        None,
    )
    .expect("safe");
    assert!(r.quiescent);
    assert_eq!(r.metrics.total_grants(), r.metrics.total_requests());
    assert!(r.metrics.total_frames() > 0);
    assert!(r.metrics.total_frames() <= r.metrics.total_messages());
    assert!(r.metrics.wire_bytes() > 0);
}
