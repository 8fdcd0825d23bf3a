//! Cross-host integration tests for the reliable session layer: the
//! same `SessionSpace` wrapper is driven by the wire codec, the model
//! checker, the simulator and the TCP cluster — this file stitches those
//! hosts together and checks the layer behaves identically everywhere.

use hlock::check::{Action, Checker, Scenario};
use hlock::core::{
    ConcurrencyProtocol, Effect, EffectSink, LockId, LockSpace, Mode, NodeId, ProtocolConfig,
    Ticket,
};
use hlock::session::{SessionConfig, SessionFrame, SessionSpace, TIMER_NAMESPACE};
use hlock::sim::{LatencyModel, SimConfig};
use hlock::workload::{run_session_experiment, WorkloadConfig};

const L: LockId = LockId(0);

#[test]
fn session_config_validation_rejects_nonsense() {
    assert!(SessionConfig::default().validate().is_ok());
    assert!(SessionConfig::for_model_checking().validate().is_ok());
    let zero_rto = SessionConfig { rto_micros: 0, ..SessionConfig::default() };
    assert!(zero_rto.validate().unwrap_err().contains("rto_micros"));
    let backoff_below_rto =
        SessionConfig { rto_micros: 1_000, max_backoff_micros: 10, ..SessionConfig::default() };
    assert!(backoff_below_rto.validate().unwrap_err().contains("max_backoff_micros"));
    let zero_window = SessionConfig { recv_window: 0, ..SessionConfig::default() };
    assert!(zero_window.validate().unwrap_err().contains("recv_window"));
    let jitter_above_rto =
        SessionConfig { rto_micros: 500, jitter_micros: 501, ..SessionConfig::default() };
    assert!(jitter_above_rto.validate().unwrap_err().contains("jitter_micros"));
}

#[test]
#[should_panic(expected = "invalid SessionConfig")]
fn session_space_panics_on_invalid_config() {
    let bad = SessionConfig { recv_window: 0, ..SessionConfig::default() };
    let _ = SessionSpace::new(LockSpace::new(NodeId(0), 1, NodeId(0), Default::default()), bad);
}

#[test]
fn session_timers_live_in_their_own_namespace() {
    // The wrapper multiplexes its retransmission timers with the inner
    // protocol's timers on one token space; they must never collide.
    let cfg = SessionConfig { jitter_micros: 0, ..SessionConfig::default() };
    let mut a =
        SessionSpace::new(LockSpace::new(NodeId(1), 1, NodeId(0), ProtocolConfig::default()), cfg);
    let mut fx = EffectSink::new();
    a.request(L, Mode::Read, Ticket(1), &mut fx).unwrap();
    let timers: Vec<u64> = fx
        .drain()
        .filter_map(|e| match e {
            Effect::SetTimer { token, .. } => Some(token),
            _ => None,
        })
        .collect();
    assert!(!timers.is_empty(), "sending a request must arm a retransmission timer");
    for t in timers {
        assert_eq!(t & TIMER_NAMESPACE, TIMER_NAMESPACE, "token {t:#x} outside namespace");
        assert_eq!(t & 0xFFFF_FFFF, 0, "low bits must encode the peer (node 0)");
    }
}

#[test]
fn wire_roundtrip_preserves_session_frames() {
    // Capture a real frame from a session-wrapped node and push it
    // through the production codec.
    use hlock::wire::WireCodec;
    let cfg = SessionConfig { jitter_micros: 0, ..SessionConfig::default() };
    let mut a =
        SessionSpace::new(LockSpace::new(NodeId(1), 1, NodeId(0), ProtocolConfig::default()), cfg);
    let mut fx = EffectSink::new();
    a.request(L, Mode::Write, Ticket(7), &mut fx).unwrap();
    let frame = fx
        .drain()
        .find_map(|e| match e {
            Effect::Send { message, .. } => Some(message),
            _ => None,
        })
        .expect("request must go on the wire");
    let mut buf = Vec::new();
    frame.encode(&mut buf);
    let mut bytes = buf.as_slice();
    let decoded = SessionFrame::decode(&mut bytes).expect("decode");
    assert_eq!(frame, decoded);
}

#[test]
fn model_checker_passes_session_wrapped_contention() {
    // Two writers and a reader race through the session layer; every
    // interleaving of frames, acks and retransmission timers must stay
    // safe and live.
    let checker = Checker::hierarchical_session(
        ProtocolConfig::default(),
        SessionConfig::for_model_checking(),
    );
    let scenario = Scenario::new(2, 1)
        .script(
            NodeId(0),
            vec![
                Action::Request { lock: L, mode: Mode::Write, ticket: Ticket(1) },
                Action::Release { lock: L, ticket: Ticket(1) },
            ],
        )
        .script(
            NodeId(1),
            vec![
                Action::Request { lock: L, mode: Mode::Read, ticket: Ticket(2) },
                Action::Release { lock: L, ticket: Ticket(2) },
            ],
        );
    let stats = checker.run(&scenario).expect("no violation in any interleaving");
    assert!(stats.states > 0 && stats.terminals > 0);
}

#[test]
fn model_checker_survives_adversarial_drop_budget() {
    let mut checker = Checker::hierarchical_session(
        ProtocolConfig::default(),
        SessionConfig::for_model_checking(),
    );
    checker.adversary.max_drops = 1;
    let scenario = Scenario::new(2, 1).script(
        NodeId(1),
        vec![
            Action::Request { lock: L, mode: Mode::Write, ticket: Ticket(1) },
            Action::Release { lock: L, ticket: Ticket(1) },
        ],
    );
    let stats = checker.run(&scenario).expect("retransmission must mask any single drop");
    assert!(stats.terminals > 0, "every maximal path must still terminate cleanly");
}

#[test]
fn simulator_session_runs_are_deterministic() {
    let wl = WorkloadConfig { entries: 4, ops_per_node: 5, seed: 21, ..Default::default() };
    let sim = || SimConfig {
        latency: LatencyModel::paper(),
        drop_probability: 0.15,
        check_every: 1,
        ..SimConfig::default()
    };
    let run = || {
        run_session_experiment(ProtocolConfig::default(), SessionConfig::default(), 4, &wl, sim())
            .expect("safe")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.report.end_time, b.report.end_time);
    assert_eq!(a.report.events, b.report.events);
    assert_eq!(a.session, b.session, "session counters must replay exactly");
}

#[test]
fn tcp_cluster_session_grants_and_acks() {
    use hlock::core::MessageKind;
    use std::time::Duration;
    let cluster = hlock::net::Cluster::spawn(3, |i| {
        let space = LockSpace::new(NodeId(i as u32), 2, NodeId(0), ProtocolConfig::default());
        SessionSpace::new(space, SessionConfig::default())
    })
    .unwrap();
    let timeout = Duration::from_secs(10);
    for n in 0..3 {
        let t = cluster.node(n).acquire(L, Mode::Write, timeout).unwrap();
        cluster.node(n).release(L, t).unwrap();
    }
    let stats = cluster.message_stats();
    assert!(stats[&MessageKind::Ack] > 0, "session acks must flow over TCP");
    cluster.shutdown();
}
