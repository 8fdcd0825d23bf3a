//! Cross-crate tests of the sharded lock-space runtime's deterministic
//! twin: `ShardedSpace` under the simulator and the exhaustive model
//! checker. The threaded TCP runtime (`hlock::net::ShardedCluster`)
//! routes exactly like `ShardSpec` here, so these proofs carry over to
//! the real transport — see `tests/tcp_cluster.rs` for the socket side.

use hlock::check::{Action, Checker, Scenario};
use hlock::core::{LockId, Mode, NodeId, ProtocolConfig, ShardSpec, ShardedSpace, Ticket};
use hlock::session::SessionConfig;
use hlock::sim::LatencyModel;
use hlock::workload::{run_experiment, ProtocolKind, WorkloadConfig};

fn wl(seed: u64) -> WorkloadConfig {
    WorkloadConfig { entries: 6, ops_per_node: 8, seed, ..Default::default() }
}

/// Two lock ids that `spec` maps to *different* shards (panics if the
/// spec is degenerate for the searched range — callers pick specs where
/// that cannot happen).
fn locks_on_distinct_shards(spec: ShardSpec) -> (LockId, LockId) {
    let a = LockId(0);
    let b = (1..64).map(LockId).find(|l| spec.shard_of(*l) != spec.shard_of(a));
    (a, b.expect("64 locks over >1 shard hit at least two shards"))
}

/// Two lock ids that *collide* on one shard, exercising the FIFO of a
/// shared shard inbox.
fn locks_on_same_shard(spec: ShardSpec) -> (LockId, LockId) {
    let a = LockId(0);
    let b = (1..64).map(LockId).find(|l| spec.shard_of(*l) == spec.shard_of(a));
    (a, b.expect("64 locks over few shards collide somewhere"))
}

#[test]
fn sharded_sim_is_deterministic_and_quiescent_across_seeds() {
    for seed in 0..8 {
        let kind = ProtocolKind::ShardedHierarchical(ProtocolConfig::default(), 4);
        let a = run_experiment(kind, 7, &wl(seed), LatencyModel::paper(), 1, None)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(a.quiescent, "seed {seed} did not quiesce");
        assert_eq!(a.metrics.total_grants(), a.metrics.total_requests());
        // Same seed, same binary: bit-identical schedule and metrics.
        let b = run_experiment(kind, 7, &wl(seed), LatencyModel::paper(), 1, None).unwrap();
        assert_eq!(a.metrics.total_messages(), b.metrics.total_messages(), "seed {seed}");
        assert_eq!(a.metrics.total_grants(), b.metrics.total_grants());
        assert_eq!(a.end_time, b.end_time, "seed {seed}: virtual clocks diverged");
        assert_eq!(a.events, b.events);
    }
}

#[test]
fn sharded_sim_grants_match_unsharded_run() {
    // The shard layer is pure routing: the same operation plan must
    // produce the same number of grants as the monolithic space.
    for shards in [1, 2, 4, 8] {
        let sharded = run_experiment(
            ProtocolKind::ShardedHierarchical(ProtocolConfig::default(), shards),
            6,
            &wl(5),
            LatencyModel::paper(),
            1,
            None,
        )
        .unwrap();
        let flat = run_experiment(
            ProtocolKind::Hierarchical(ProtocolConfig::default()),
            6,
            &wl(5),
            LatencyModel::paper(),
            1,
            None,
        )
        .unwrap();
        assert!(sharded.quiescent && flat.quiescent);
        assert_eq!(
            sharded.metrics.total_grants(),
            flat.metrics.total_grants(),
            "{shards} shards granted a different op count"
        );
    }
}

#[test]
fn checker_proves_sharded_routing_safe_across_shards() {
    // Two writers per lock, the locks living on different shards:
    // exhaustively explore every interleaving of requests, transfers and
    // round-robin shard drains.
    let spec = ShardSpec::new(4);
    let (la, lb) = locks_on_distinct_shards(spec);
    let locks = (la.index().max(lb.index())) + 1;
    let scenario = Scenario::new(3, locks)
        .script(
            NodeId(1),
            vec![
                Action::request(la, Mode::Write, Ticket(1)),
                Action::release(la, Ticket(1)),
                Action::request(lb, Mode::Write, Ticket(2)),
                Action::release(lb, Ticket(2)),
            ],
        )
        .script(
            NodeId(2),
            vec![
                Action::request(lb, Mode::Write, Ticket(3)),
                Action::release(lb, Ticket(3)),
                Action::request(la, Mode::Write, Ticket(4)),
                Action::release(la, Ticket(4)),
            ],
        );
    let stats = Checker::hierarchical_sharded(ProtocolConfig::default(), 4)
        .run(&scenario)
        .expect("sharded routing is safe");
    assert!(stats.states > 100, "nontrivial exploration: {stats:?}");
}

#[test]
fn checker_proves_colliding_locks_share_a_shard_safely() {
    // Both locks hash onto one shard: their messages interleave in a
    // single shard inbox, so this exercises per-lock FIFO inside a
    // shared queue rather than across queues.
    let spec = ShardSpec::new(2);
    let (la, lb) = locks_on_same_shard(spec);
    let locks = (la.index().max(lb.index())) + 1;
    let scenario = Scenario::new(3, locks)
        .script(
            NodeId(1),
            vec![
                Action::request(la, Mode::Write, Ticket(1)),
                Action::release(la, Ticket(1)),
                Action::request(lb, Mode::Read, Ticket(2)),
                Action::release(lb, Ticket(2)),
            ],
        )
        .script(
            NodeId(2),
            vec![
                Action::request(la, Mode::Read, Ticket(3)),
                Action::release(la, Ticket(3)),
                Action::request(lb, Mode::Write, Ticket(4)),
                Action::release(lb, Ticket(4)),
            ],
        );
    Checker::hierarchical_sharded(ProtocolConfig::default(), 2)
        .run(&scenario)
        .expect("colliding shard assignment is safe");
}

#[test]
fn sharded_space_never_reorders_one_locks_messages() {
    // The per-lock order property behind the whole design: feed one
    // batch interleaving two locks' traffic through a sharded node and a
    // monolithic node; the sharded node must do exactly what the
    // monolithic one does (same grants, same sends), because routing by
    // lock then draining round-robin preserves each lock's subsequence.
    use hlock::core::{ConcurrencyProtocol, EffectSink, LockSpace};
    let cfg = ProtocolConfig::default();
    let spec = ShardSpec::new(4);
    let (la, lb) = locks_on_distinct_shards(spec);
    let locks = (la.index().max(lb.index())) + 1;
    let mut flat = LockSpace::new(NodeId(0), locks, NodeId(0), cfg);
    let mut sharded = ShardedSpace::new(NodeId(0), locks, NodeId(0), cfg, spec);
    let mut fx_flat = EffectSink::new();
    let mut fx_sharded = EffectSink::new();
    flat.request(la, Mode::Write, Ticket(1), &mut fx_flat).unwrap();
    sharded.request(la, Mode::Write, Ticket(1), &mut fx_sharded).unwrap();
    let flat_fx: Vec<_> = fx_flat.drain().collect();
    let sharded_fx: Vec<_> = fx_sharded.drain().collect();
    assert_eq!(flat_fx, sharded_fx, "sharding changed a lock's effect stream");
    flat.release(la, Ticket(1), &mut fx_flat).unwrap();
    sharded.release(la, Ticket(1), &mut fx_sharded).unwrap();
    assert_eq!(fx_flat.drain().collect::<Vec<_>>(), fx_sharded.drain().collect::<Vec<_>>());
    assert_eq!(flat.is_quiescent(), sharded.is_quiescent());
    let _ = lb;
}

#[test]
fn session_layer_composes_with_sharded_space() {
    // Reliable sessions wrap the sharded space exactly as they wrap the
    // monolithic one (generic over ConcurrencyProtocol), and the
    // exhaustive checker still proves safety of the composition.
    use hlock::session::SessionSpace;
    let cfg = ProtocolConfig::default();
    let session = SessionConfig::for_model_checking();
    let spec = ShardSpec::new(2);
    let mut checker = Checker::with_factory(move |nodes, locks| {
        (0..nodes)
            .map(|i| {
                SessionSpace::new(
                    ShardedSpace::new(NodeId(i as u32), locks, NodeId(0), cfg, spec),
                    session,
                )
            })
            .collect()
    });
    // Same state-space hygiene as Checker::hierarchical_session: session
    // retransmit candidates make duplicate in-flight frames common.
    checker.collapse_duplicate_inflight = true;
    let scenario = Scenario::new(2, 2).hold(NodeId(1), LockId(0), Mode::Write, Ticket(1)).hold(
        NodeId(0),
        LockId(1),
        Mode::Read,
        Ticket(2),
    );
    checker.run(&scenario).expect("sessions over shards are safe");
}

#[test]
fn shard_spec_spreads_the_airline_lock_table() {
    // Sanity on the hash: the workload's table+entries lock set should
    // not all collapse onto one shard for any small shard count.
    for shards in [2, 4, 8] {
        let spec = ShardSpec::new(shards);
        let used: std::collections::HashSet<usize> =
            (0..32).map(|l| spec.shard_of(LockId(l))).collect();
        assert!(used.len() > 1, "{shards} shards: all 32 locks on one shard");
    }
}

/// The four-shard runtime under the recovery layer.
fn four_shards(id: NodeId, homes: &[NodeId]) -> ShardedSpace {
    ShardedSpace::with_homes(id, homes, ProtocolConfig::default(), ShardSpec::new(4))
}

#[test]
fn sharded_recovery_crash_schedule_seed_matrix() {
    use hlock::core::ConcurrencyProtocol;
    use hlock::sim::{Duration, NodeCrash, SimConfig, SimTime};
    use hlock::workload::run_recovery_experiment;
    // Crash the token home at a different point of the schedule for each
    // seed. Recovery replaces the tokens the dead node owned, but shards
    // that never lost a token must keep their in-flight grants: nothing
    // dropped (live-scoped quiescence would fail and the watchdog would
    // flag the stall) and nothing reordered (per-step invariant checks,
    // `check_every: 1`, audit every shard's queues and copysets at every
    // event).
    for seed in 0..6u64 {
        let sim = SimConfig {
            check_every: 1,
            crashes: vec![NodeCrash {
                node: NodeId(0),
                at: SimTime::from_millis(200 + seed * 150),
            }],
            watchdog: Some(Duration::from_millis(60_000)),
            ..SimConfig::default()
        };
        let r = run_recovery_experiment(four_shards, 5, &wl(seed), sim, None)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(r.max_epoch >= 1, "seed {seed}: the crash must force a recovery epoch");
        assert!(r.report.quiescent, "seed {seed}: survivors must drain every in-flight grant");
        // Every surviving node converged on the same epoch.
        for s in r.spaces.iter().filter(|s| s.inner().node_id() != NodeId(0)) {
            assert_eq!(s.epoch(), r.max_epoch, "seed {seed}: a survivor was left behind");
        }
    }
}

#[test]
fn sharded_recovery_wrapper_is_invisible_without_crashes() {
    use hlock::sim::SimConfig;
    use hlock::workload::run_recovery_experiment;
    let sim = SimConfig { check_every: 1, ..SimConfig::default() };
    let r =
        run_recovery_experiment(four_shards, 5, &wl(7), sim, None).expect("crash-free run is safe");
    assert_eq!(r.max_epoch, 0, "no crash, no recovery round");
    assert!(r.report.quiescent);
    assert_eq!(r.report.metrics.total_grants(), r.report.metrics.total_requests());
}
