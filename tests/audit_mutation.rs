//! Mutation-testing harness for the online invariant auditor: replay a
//! real run's event stream with one seeded fault and assert the
//! auditor kills the mutant (flags exactly that invariant), while the
//! unmutated replay of the same stream stays clean. Clean-run silence
//! is also asserted directly against the linear-stream hosts
//! (simulator, recovery simulator, TCP mux cluster). The model checker
//! is exercised separately at the vocabulary level: its observer sees
//! every DFS branch of the state exploration merged into one stream, so
//! a stateful auditor would flag cross-branch "duplicates" that are
//! really alternate histories — linearity is not a property that stream
//! has. The last mutant is seeded in a node's state instead, and the
//! simulator's safety oracle must kill it.

use hlock::check::{Checker, Scenario};
use hlock::core::{
    CancelOutcome, Classify, ConcurrencyProtocol, EffectSink, Inspect, InvariantAuditor, LockId,
    LockNode, LockSpace, MessageKind, Mode, NodeId, Observer, Priority, ProtocolConfig,
    ProtocolError, ProtocolEvent, RecoveryEnvelope, RecoverySpace, Ticket,
};
use hlock::net::Cluster;
use hlock::sim::{NodeCrash, Sim, SimConfig, SimTime};
use hlock::workload::{
    run_experiment, run_recovery_experiment, HierarchicalDriver, ProtocolKind, WorkloadConfig,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Streams a hierarchical sim run and returns its `(at, event)` trace.
fn sim_trace() -> Vec<(u64, ProtocolEvent)> {
    let events: Rc<RefCell<Vec<(u64, ProtocolEvent)>>> = Rc::default();
    let sink = Rc::clone(&events);
    let wl = WorkloadConfig { entries: 4, ops_per_node: 6, seed: 42, ..Default::default() };
    let report = run_experiment(
        ProtocolKind::Hierarchical(ProtocolConfig::paper()),
        5,
        &wl,
        hlock::sim::LatencyModel::paper(),
        1,
        Some(Box::new(move |at: u64, e: &ProtocolEvent| {
            sink.borrow_mut().push((at, e.clone()));
        })),
    )
    .expect("clean run");
    assert!(report.quiescent);
    Rc::try_unwrap(events).expect("sim dropped").into_inner()
}

/// Streams a crash-recovery run (node 0 dies mid-workload, survivors
/// elect a new epoch) and returns its trace.
fn recovery_trace() -> Vec<(u64, ProtocolEvent)> {
    let events: Rc<RefCell<Vec<(u64, ProtocolEvent)>>> = Rc::default();
    let sink = Rc::clone(&events);
    let wl = WorkloadConfig {
        entries: 4,
        ops_per_node: 6,
        seed: 13,
        spread_token_homes: true,
        ..Default::default()
    };
    let sim = SimConfig {
        check_every: 1,
        crashes: vec![NodeCrash { node: NodeId(0), at: SimTime::from_millis(600) }],
        watchdog: Some(hlock::sim::Duration::from_millis(60_000)),
        ..SimConfig::default()
    };
    let r = run_recovery_experiment(
        |id, homes| LockSpace::with_homes(id, homes, ProtocolConfig::default()),
        5,
        &wl,
        sim,
        Some(Box::new(move |at: u64, e: &ProtocolEvent| {
            sink.borrow_mut().push((at, e.clone()));
        })),
    )
    .expect("clean recovery run");
    assert!(r.report.quiescent);
    assert!(r.max_epoch > 0, "crash must trigger an election");
    Rc::try_unwrap(events).expect("sim dropped").into_inner()
}

/// Replays a trace into a fresh auditor, letting `mutate` rewrite or
/// inject at each position; returns the invariants flagged.
fn audit_replayed(
    trace: &[(u64, ProtocolEvent)],
    mut mutate: impl FnMut(usize, &ProtocolEvent) -> Vec<ProtocolEvent>,
) -> Vec<&'static str> {
    let mut auditor = InvariantAuditor::new();
    for (i, (at, e)) in trace.iter().enumerate() {
        for ev in mutate(i, e) {
            auditor.on_event(*at, &ev);
        }
    }
    auditor.findings().iter().map(|f| f.invariant).collect()
}

/// The identity replay — the mutant harness's survival baseline.
fn identity(_: usize, e: &ProtocolEvent) -> Vec<ProtocolEvent> {
    vec![e.clone()]
}

#[test]
fn clean_sim_replay_produces_zero_findings() {
    let trace = sim_trace();
    assert!(trace.iter().any(|(_, e)| e.name() == "token_sent"), "trace exercises the token path");
    let flagged = audit_replayed(&trace, identity);
    assert!(flagged.is_empty(), "clean sim replay flagged: {flagged:?}");
}

#[test]
fn clean_recovery_replay_produces_zero_findings() {
    let trace = recovery_trace();
    assert!(trace.iter().any(|(_, e)| e.name() == "request_aborted"), "crash closes spans");
    assert!(trace.iter().any(|(_, e)| e.name() == "recovery_completed"), "epoch installed");
    let flagged = audit_replayed(&trace, identity);
    assert!(flagged.is_empty(), "clean recovery replay flagged: {flagged:?}");
}

#[test]
fn checker_crash_closes_open_spans_via_abort() {
    // The checker's observer stream merges every explored DFS branch,
    // so auditor cleanliness is undefined over it; what the checker
    // does guarantee is that every crash schedule stays safe AND that
    // a node dying with an open request closes its span with
    // `request_aborted` in the narrated stream (the same no-span-leak
    // contract the linear hosts are audited for above).
    let names: Rc<RefCell<Vec<&'static str>>> = Rc::default();
    let sink = Rc::clone(&names);
    let l = LockId(0);
    let scenario = Scenario::new(3, 1).hold(NodeId(1), l, Mode::Write, Ticket(1)).hold(
        NodeId(2),
        l,
        Mode::Write,
        Ticket(2),
    );
    // Crash a non-home requester: its request travels the wire to the
    // token home (n0), so reachable states exist where its span is
    // open — the crash step must abort it.
    let mut checker = Checker::hierarchical_recovery(ProtocolConfig::default())
        .with_observer(move |_at: u64, e: &ProtocolEvent| sink.borrow_mut().push(e.name()));
    checker.adversary.crash_candidates = vec![NodeId(1)];
    let stats = checker.run(&scenario).expect("every crash schedule stays safe");
    assert!(stats.terminals > 0, "exploration must reach terminals");
    let names = names.borrow();
    assert!(
        names.iter().any(|n| n == &"request_aborted"),
        "no crash schedule aborted an open span"
    );
}

#[test]
fn clean_tcp_run_produces_zero_findings() {
    let (cluster, flight) = Cluster::spawn_recorded(
        3,
        |i| LockSpace::new(NodeId(i as u32), 4, NodeId(0), ProtocolConfig::default()),
        None,
        |_| None,
    )
    .expect("cluster spawns");
    let timeout = Duration::from_secs(10);
    for round in 0..3 {
        for n in 0..3 {
            let lock = LockId((round + n) as u32 % 4);
            let t = cluster.node(n).acquire(lock, Mode::Write, timeout).expect("granted");
            cluster.node(n).release(lock, t).expect("released");
        }
    }
    cluster.shutdown();
    assert!(flight.is_clean(), "TCP run flagged: {:?}", flight.findings());
    assert!(!flight.dumped(), "no violation, no dump");
}

#[test]
fn mutant_double_token_is_killed() {
    // Re-deliver the first token receipt at a different node: two live
    // copies of one token.
    let trace = sim_trace();
    let mut armed = true;
    let flagged = audit_replayed(&trace, |_, e| {
        let mut out = vec![e.clone()];
        if armed {
            if let ProtocolEvent::TokenReceived { node, lock, span, mode } = e {
                armed = false;
                let clone_holder = NodeId(node.0 + 1);
                out.push(ProtocolEvent::TokenReceived {
                    node: clone_holder,
                    lock: *lock,
                    span: *span,
                    mode: *mode,
                });
            }
        }
        out
    });
    assert!(!armed, "trace never moved a token");
    assert!(flagged.contains(&"token_unique"), "mutant survived: {flagged:?}");
}

#[test]
fn mutant_double_open_is_killed() {
    // Re-issue an already-open request with no recovery in between.
    let trace = sim_trace();
    let mut armed = true;
    let flagged = audit_replayed(&trace, |_, e| {
        let mut out = vec![e.clone()];
        if armed && e.name() == "request_issued" {
            armed = false;
            out.push(e.clone());
        }
        out
    });
    assert!(flagged.contains(&"span_balance"), "mutant survived: {flagged:?}");
}

#[test]
fn mutant_orphan_close_is_killed() {
    // Close a span that never opened.
    let trace = sim_trace();
    let mut armed = true;
    let flagged = audit_replayed(&trace, |_, e| {
        let mut out = vec![e.clone()];
        if armed {
            if let ProtocolEvent::Granted { node, lock, mode, .. } = e {
                armed = false;
                out.push(ProtocolEvent::Granted {
                    node: *node,
                    lock: *lock,
                    span: hlock::core::SpanId::new(NodeId(97), Ticket(9_999)),
                    mode: *mode,
                });
            }
        }
        out
    });
    assert!(flagged.contains(&"span_balance"), "mutant survived: {flagged:?}");
}

#[test]
fn mutant_illegitimate_grant_is_killed() {
    // A node with neither the token nor a copyset membership grants
    // locally right after another node demonstrably takes the token.
    let trace = sim_trace();
    let mut armed = true;
    let flagged = audit_replayed(&trace, |_, e| {
        let mut out = vec![e.clone()];
        if armed {
            if let ProtocolEvent::TokenReceived { lock, span, mode, .. } = e {
                armed = false;
                out.push(ProtocolEvent::Granted {
                    node: NodeId(98),
                    lock: *lock,
                    span: *span,
                    mode: *mode,
                });
            }
        }
        out
    });
    assert!(!armed, "trace never moved a token");
    assert!(flagged.contains(&"grant_legitimacy"), "mutant survived: {flagged:?}");
}

#[test]
fn mutant_never_sent_delivery_is_killed() {
    // Deliver a frame on a link whose sender never sent that kind.
    let trace = sim_trace();
    let mut armed = true;
    let flagged = audit_replayed(&trace, |_, e| {
        let mut out = vec![e.clone()];
        if armed {
            if let ProtocolEvent::Delivered { node, kind, .. } = e {
                armed = false;
                out.push(ProtocolEvent::Delivered { node: *node, from: NodeId(96), kind: *kind });
            }
        }
        out
    });
    assert!(!armed, "trace never delivered a frame");
    assert!(flagged.contains(&"link_fifo"), "mutant survived: {flagged:?}");
}

#[test]
fn mutant_epoch_regression_is_killed() {
    // Re-install an already-installed epoch: epochs must be monotone.
    let trace = recovery_trace();
    let mut armed = true;
    let flagged = audit_replayed(&trace, |_, e| {
        let mut out = vec![e.clone()];
        if armed {
            if let ProtocolEvent::RecoveryCompleted { node, epoch } = e {
                armed = false;
                out.push(ProtocolEvent::RecoveryCompleted { node: *node, epoch: *epoch });
            }
        }
        out
    });
    assert!(!armed, "trace never completed a recovery");
    assert!(flagged.contains(&"epoch_fencing"), "mutant survived: {flagged:?}");
}

#[test]
fn mutant_fence_above_installed_epoch_is_killed() {
    // Fence a message at an epoch >= the fencing node's own installed
    // epoch — fencing must only reject strictly older traffic.
    let trace = recovery_trace();
    let mut armed = true;
    let flagged = audit_replayed(&trace, |_, e| {
        let mut out = vec![e.clone()];
        if armed {
            if let ProtocolEvent::RecoveryCompleted { node, epoch } = e {
                armed = false;
                out.push(ProtocolEvent::StaleEpochFenced {
                    node: *node,
                    from: NodeId(95),
                    epoch: *epoch,
                });
            }
        }
        out
    });
    assert!(!armed, "trace never completed a recovery");
    assert!(flagged.contains(&"epoch_fencing"), "mutant survived: {flagged:?}");
}

/// The seeded fault for the simulator's safety oracle: once node 1 has
/// installed a recovery epoch that a peer has already spoken at, it
/// shows the host the epoch before and a `W` on the table lock held
/// there — an older-epoch hold, incompatible with every newest-epoch
/// grant on the table. (Waiting for the peer keeps a newer epoch in view
/// whenever the hold shows.) Everything else is the wrapped node's.
struct StaleHold {
    node: RecoverySpace<LockSpace>,
    /// The newest installed epoch a peer has spoken at.
    heard: u64,
}

impl StaleHold {
    /// Lock-protocol traffic is stamped with its sender's installed
    /// epoch (election traffic may carry a proposed one).
    fn hear(&mut self, messages: &[RecoveryEnvelope]) {
        for m in messages.iter().filter(|m| m.kind() != MessageKind::Recovery) {
            self.heard = self.heard.max(m.epoch().unwrap_or(0));
        }
    }

    fn seeded(&self) -> bool {
        let epoch = self.node.epoch();
        self.node.node_id() == NodeId(1) && epoch > 0 && self.heard >= epoch
    }
}

impl Inspect for StaleHold {
    fn held_modes(&self, lock: LockId) -> Vec<Mode> {
        let mut held = self.node.held_modes(lock);
        if self.seeded() && lock == LockId(0) {
            held.push(Mode::Write);
        }
        held
    }
    fn holds_token(&self, lock: LockId) -> bool {
        self.node.holds_token(lock)
    }
    fn lock_node(&self, lock: LockId) -> Option<&LockNode> {
        self.node.lock_node(lock)
    }
    fn epoch(&self) -> u64 {
        self.node.epoch() - u64::from(self.seeded())
    }
    fn suspects(&self, peer: NodeId) -> bool {
        Inspect::suspects(&self.node, peer)
    }
    fn frozen(&self) -> bool {
        Inspect::frozen(&self.node)
    }
    fn open_requests(&self) -> Vec<(LockId, Ticket)> {
        self.node.open_requests()
    }
}

type Fx = EffectSink<RecoveryEnvelope>;

impl ConcurrencyProtocol for StaleHold {
    type Message = RecoveryEnvelope;
    fn node_id(&self) -> NodeId {
        self.node.node_id()
    }
    fn request(&mut self, l: LockId, m: Mode, t: Ticket, fx: &mut Fx) -> Result<(), ProtocolError> {
        self.node.request(l, m, t, fx)
    }
    fn request_with_priority(
        &mut self,
        l: LockId,
        m: Mode,
        t: Ticket,
        p: Priority,
        fx: &mut Fx,
    ) -> Result<(), ProtocolError> {
        self.node.request_with_priority(l, m, t, p, fx)
    }
    fn release(&mut self, l: LockId, t: Ticket, fx: &mut Fx) -> Result<(), ProtocolError> {
        self.node.release(l, t, fx)
    }
    fn upgrade(&mut self, l: LockId, t: Ticket, fx: &mut Fx) -> Result<(), ProtocolError> {
        self.node.upgrade(l, t, fx)
    }
    fn try_request(
        &mut self,
        l: LockId,
        m: Mode,
        t: Ticket,
        fx: &mut Fx,
    ) -> Result<bool, ProtocolError> {
        self.node.try_request(l, m, t, fx)
    }
    fn downgrade(
        &mut self,
        l: LockId,
        t: Ticket,
        m: Mode,
        fx: &mut Fx,
    ) -> Result<(), ProtocolError> {
        self.node.downgrade(l, t, m, fx)
    }
    fn cancel(
        &mut self,
        l: LockId,
        t: Ticket,
        fx: &mut Fx,
    ) -> Result<CancelOutcome, ProtocolError> {
        self.node.cancel(l, t, fx)
    }
    fn on_message(&mut self, from: NodeId, message: RecoveryEnvelope, fx: &mut Fx) {
        self.hear(std::slice::from_ref(&message));
        self.node.on_message(from, message, fx)
    }
    fn on_message_batch(&mut self, from: NodeId, messages: Vec<RecoveryEnvelope>, fx: &mut Fx) {
        self.hear(&messages);
        self.node.on_message_batch(from, messages, fx)
    }
    fn on_timer(&mut self, token: u64, fx: &mut Fx) {
        self.node.on_timer(token, fx)
    }
    fn on_link_reset(&mut self, peer: NodeId, fx: &mut Fx) {
        self.node.on_link_reset(peer, fx)
    }
    fn is_quiescent(&self) -> bool {
        self.node.is_quiescent()
    }
    fn fence_epoch(&self) -> Option<u64> {
        self.node.fence_epoch()
    }
    fn on_suspect(&mut self, dead: &[NodeId], fx: &mut Fx) -> bool {
        self.node.on_suspect(dead, fx)
    }
    fn on_stale_message(&mut self, from: NodeId, epoch: u64, fx: &mut Fx) {
        self.node.on_stale_message(from, epoch, fx)
    }
}

/// A crash-only run cannot falsely suspect a live node, so no live node
/// can be running at a voided epoch: the simulator compares every live
/// node with every other, whatever epoch each shows, and kills the
/// older-epoch hold of [`StaleHold`] the first time a newest-epoch grant
/// on the table meets it.
#[test]
fn mutant_older_epoch_hold_is_killed_on_a_crash_only_run() {
    let wl = WorkloadConfig { entries: 4, ops_per_node: 6, seed: 13, ..Default::default() };
    let locks = wl.hierarchical_lock_count();
    let nodes: Vec<StaleHold> = (0..5)
        .map(|i| {
            let space =
                RecoverySpace::new(NodeId(i), locks, NodeId(0), 5, ProtocolConfig::default());
            StaleHold { node: space.with_probe_interval(5_000_000), heard: 0 }
        })
        .collect();
    let sim = SimConfig {
        seed: 13,
        lock_count: locks,
        check_every: 1,
        crashes: vec![NodeCrash { node: NodeId(0), at: SimTime::from_millis(600) }],
        watchdog: Some(hlock::sim::Duration::from_millis(60_000)),
        ..SimConfig::default()
    };
    let err = Sim::new(nodes, HierarchicalDriver::new(&wl, 5), sim)
        .run()
        .expect_err("an older-epoch hold incompatible with a newest-epoch grant must be flagged");
    let report = err.to_string();
    assert!(report.contains("incompatible holders on L0: n1:W vs"), "{report}");
    assert!(report.contains("[holder_compatibility]"), "{report}");
}
