//! Property tests over the whole stack, as seeded case loops: random
//! workloads through the simulator must always be safe and quiescent;
//! random scripts through the model checker must never violate a
//! property; the mode algebra obeys the paper's definitions for all
//! inputs.

use hlock::check::{Action, Checker, Scenario};
use hlock::core::rng::{check_cases, Rng};
use hlock::core::{
    compatible_owned, frozen_modes, grantable, owned_strength, queue_or_forward, LockId, Mode,
    NodeId, ProtocolConfig, QueueDecision, Ticket, ALL_MODES,
};
use hlock::sim::LatencyModel;
use hlock::workload::{run_experiment, ModeMix, ProtocolKind, WorkloadConfig};

fn arb_mode(rng: &mut Rng) -> Mode {
    ALL_MODES[rng.index(5)]
}

/// Rule 3.1 soundness: whatever a non-token node may grant is
/// compatible with (and no stronger than) its owned mode.
#[test]
fn grantable_is_sound() {
    check_cases(64, |rng| {
        let (owned, req) = (arb_mode(rng), arb_mode(rng));
        if grantable(Some(owned), req) {
            assert!(owned.compatible(req));
            assert!(owned.strength() >= req.strength());
        }
    });
}

/// Table 2(a) totality: every (pending, incoming) pair has a decision,
/// and queuing implies guaranteed later service.
#[test]
fn queue_decision_guarantees_service() {
    check_cases(64, |rng| {
        let (pending, incoming) = (arb_mode(rng), arb_mode(rng));
        if queue_or_forward(Some(pending), incoming) == QueueDecision::Queue {
            let guaranteed = grantable(Some(pending), incoming)
                || matches!(pending, Mode::Upgrade | Mode::Write);
            assert!(guaranteed, "{pending:?} queues {incoming:?}");
        }
    });
}

/// Rule 6: the frozen set of a waiting mode is exactly its conflict set.
#[test]
fn frozen_set_is_conflict_set() {
    check_cases(64, |rng| {
        let waiting = arb_mode(rng);
        let frozen = frozen_modes(waiting);
        for m in ALL_MODES {
            assert_eq!(frozen.contains(m), !m.compatible(waiting));
        }
    });
}

/// ∅ behaves as the bottom element of the mode order.
#[test]
fn empty_owned_mode_is_bottom() {
    check_cases(64, |rng| {
        let m = arb_mode(rng);
        assert!(compatible_owned(None, m));
        assert!(owned_strength(None) < m.strength());
        assert!(!grantable(None, m));
    });
}

/// One hierarchical run of a small workload: safe (checked every event)
/// and fully served.
fn hierarchical_workload_is_safe(seed: u64, nodes: usize, entries: usize, ops: u32, mix: ModeMix) {
    let config = WorkloadConfig { entries, ops_per_node: ops, mix, seed, ..Default::default() };
    let report = run_experiment(
        ProtocolKind::Hierarchical(ProtocolConfig::default()),
        nodes,
        &config,
        LatencyModel::paper(),
        1,
        None,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    assert!(report.quiescent);
    assert_eq!(report.metrics.total_grants(), report.metrics.total_requests());
}

/// Any small random workload on the hierarchical protocol is safe and
/// quiescent. Whole-system runs are slower; fewer cases.
#[test]
fn random_workloads_safe_and_quiescent() {
    // A case that failed once (from the proptest regression file this
    // loop replaces), kept ahead of the generated ones.
    hierarchical_workload_is_safe(8525, 6, 3, 2, ModeMix { weights: [2, 4, 6, 2, 4] });
    check_cases(12, |rng| {
        let seed = rng.below(10_000);
        let nodes = rng.range(2..7) as usize;
        let entries = rng.range(1..5) as usize;
        let ops = rng.range(1..7) as u32;
        let [ir, r, u, iw, w] = [1..50, 0..20, 0..10, 0..10, 0..5].map(|w| rng.range(w) as u32);
        hierarchical_workload_is_safe(
            seed,
            nodes,
            entries,
            ops,
            ModeMix { weights: [ir, r, u, iw, w] },
        );
    });
}

/// The same property for the Naimi baseline.
#[test]
fn random_workloads_safe_for_naimi() {
    check_cases(12, |rng| {
        let config = WorkloadConfig {
            seed: rng.below(10_000),
            entries: rng.range(1..4) as usize,
            ops_per_node: rng.range(1..6) as u32,
            ..Default::default()
        };
        let nodes = rng.range(2..7) as usize;
        let report = run_experiment(
            ProtocolKind::NaimiSameWork,
            nodes,
            &config,
            LatencyModel::paper(),
            1,
            None,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        assert!(report.quiescent);
    });
}

/// Random two-node scripts explored exhaustively: every interleaving
/// of every generated script is safe and deadlock-free.
#[test]
fn random_scripts_model_checked() {
    check_cases(8, |rng| {
        let (m1, m2, m3) = (arb_mode(rng), arb_mode(rng), arb_mode(rng));
        let scenario = Scenario::new(3, 1)
            .script(
                NodeId(1),
                vec![
                    Action::request(LockId(0), m1, Ticket(1)),
                    Action::release(LockId(0), Ticket(1)),
                    Action::request(LockId(0), m2, Ticket(2)),
                    Action::release(LockId(0), Ticket(2)),
                ],
            )
            .script(
                NodeId(2),
                vec![
                    Action::request(LockId(0), m3, Ticket(3)),
                    Action::release(LockId(0), Ticket(3)),
                ],
            );
        Checker::hierarchical(ProtocolConfig::default())
            .run(&scenario)
            .unwrap_or_else(|e| panic!("{m1:?} {m2:?} {m3:?}: {e}"));
    });
}
