//! One protocol, different hosts: the same strictly-sequential operation
//! sequence executed (a) by hand-delivering messages between in-memory
//! `LockSpace`s and (b) over the real TCP cluster must produce **exactly
//! the same protocol traffic** — same number of messages of every kind.
//! The state machines are deterministic; hosts only move bytes.
//!
//! The second test is the differential oracle of the TCP transport: a
//! crash-recovery scenario runs on the mux cluster and on the
//! hand-delivered host, and after normalizing away transport-private
//! noise (message counts, timer cadence, redial timing) the per-node
//! streams of protocol-visible outcomes must be identical: every
//! locally-issued grant and release in order, each node's recovery rounds
//! in order, and the set of locks whose tokens were regenerated. The
//! reference is deterministic and moves no bytes, so a frame the
//! transport sheds, duplicates or reorders shows up as a divergence (or
//! as a grant that never arrives).
//!
//! Grant and recovery events are compared as *separate* per-node
//! streams: over TCP, recovery completion races grant delivery in real
//! time, so their relative interleaving is scenario noise, while the
//! order within each stream is a protocol guarantee.

use hlock::core::{
    Classify, ConcurrencyProtocol, Effect, EffectSink, LockId, LockSpace, MessageKind, Mode,
    NodeId, Observer, ProtocolConfig, ProtocolEvent, RecoverySpace, Ticket,
};
use hlock::net::Cluster;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The scripted workload: (node, lock, mode) acquire+release, in order.
fn script() -> Vec<(usize, LockId, Mode)> {
    vec![
        (1, LockId(0), Mode::Read),
        (2, LockId(0), Mode::Read),
        (0, LockId(0), Mode::Write),
        (1, LockId(1), Mode::IntentWrite),
        (2, LockId(1), Mode::IntentRead),
        (1, LockId(0), Mode::Upgrade),
        (2, LockId(0), Mode::IntentRead),
        (0, LockId(1), Mode::Write),
        (2, LockId(0), Mode::Write),
    ]
}

/// The reference host: in-memory nodes (`None` once killed) and one
/// global FIFO of messages, delivered by hand straight into each node's
/// `on_message` — no host runtime, no batching, no epoch fence — until
/// none is left, so every API call runs to completion before the next.
/// Without a probe interval the recovery layer sets no timers, so there
/// is no clock to model.
struct ManualHost<P: ConcurrencyProtocol> {
    nodes: Vec<Option<P>>,
    fx: EffectSink<P::Message>,
    /// Messages sent, by kind.
    sent: HashMap<MessageKind, u64>,
}

impl<P: ConcurrencyProtocol> ManualHost<P> {
    fn new(nodes: impl Iterator<Item = P>, observing: bool) -> Self {
        let mut fx = EffectSink::new();
        fx.set_observing(observing);
        ManualHost { nodes: nodes.map(Some).collect(), fx, sent: HashMap::new() }
    }

    /// Runs one API call at node `at` and everything it causes: each
    /// step's events go to `observe` with the stepping node, its sends
    /// onto the wire. A killed node's inbox is discarded.
    fn call(
        &mut self,
        mut at: usize,
        api: impl FnOnce(&mut P, &mut EffectSink<P::Message>),
        observe: &mut impl FnMut(usize, &ProtocolEvent),
    ) {
        api(self.nodes[at].as_mut().expect("API calls go to live nodes"), &mut self.fx);
        let mut wire: VecDeque<(usize, NodeId, P::Message)> = VecDeque::new();
        loop {
            for event in self.fx.take_events() {
                observe(at, &event);
            }
            wire.extend(self.fx.drain().filter_map(|e| match e {
                Effect::Send { to, message } => Some((at, to, message)),
                _ => None,
            }));
            let Some((src, dst, message)) = wire.pop_front() else { return };
            *self.sent.entry(message.kind()).or_insert(0) += 1;
            at = dst.index();
            if let Some(node) = &mut self.nodes[at] {
                node.on_message(NodeId(src as u32), message, &mut self.fx);
            }
        }
    }
}

/// Manual host: one op fully completes before the next starts.
fn run_manual() -> HashMap<MessageKind, u64> {
    let cfg = ProtocolConfig::default();
    let mut host =
        ManualHost::new((0..3).map(|i| LockSpace::new(NodeId(i), 2, NodeId(0), cfg)), false);
    let ignore = &mut |_, _: &ProtocolEvent| {};
    for (i, (node, lock, mode)) in script().into_iter().enumerate() {
        let t = Ticket(i as u64 + 1);
        host.call(node, |n, fx| n.request(lock, mode, t, fx).expect("request accepted"), ignore);
        if mode == Mode::Upgrade {
            host.call(node, |n, fx| n.upgrade(lock, t, fx).expect("upgrade accepted"), ignore);
        }
        host.call(node, |n, fx| n.release(lock, t, fx).expect("held"), ignore);
    }
    assert!(host.nodes.iter().flatten().all(|n| n.is_quiescent()));
    host.sent
}

/// TCP host: the same sequence over localhost sockets (strictly
/// sequential: each acquire blocks before the next op starts).
fn run_tcp() -> HashMap<MessageKind, u64> {
    let cluster = Cluster::spawn_hierarchical(3, 2, ProtocolConfig::default()).unwrap();
    let timeout = Duration::from_secs(30);
    // Barrier: wait until every node's protocol is drained (twice in a
    // row, so in-flight messages between nodes have landed too).
    let quiesce = |cluster: &Cluster<LockSpace>| {
        let mut stable = 0;
        while stable < 2 {
            let all = (0..3).all(|i| cluster.node(i).is_quiescent().unwrap());
            if all {
                stable += 1;
            } else {
                stable = 0;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    for (node, lock, mode) in script() {
        let t = cluster.node(node).acquire(lock, mode, timeout).unwrap();
        if mode == Mode::Upgrade {
            cluster.node(node).upgrade(lock, t, timeout).unwrap();
        }
        cluster.node(node).release(lock, t).unwrap();
        // Make the run strictly sequential at the *protocol* level: the
        // manual host fully drains between ops, so must the TCP host.
        quiesce(&cluster);
    }
    let stats: HashMap<MessageKind, u64> =
        cluster.message_stats().into_iter().filter(|&(_, v)| v > 0).collect();
    cluster.shutdown();
    stats
}

#[test]
fn manual_and_tcp_hosts_produce_identical_traffic() {
    let manual = run_manual();
    let tcp = run_tcp();
    assert_eq!(manual, tcp, "the sans-I/O protocol must behave identically under any host");
    // Sanity: the script exercises several message kinds.
    assert!(manual.get(&MessageKind::Request).copied().unwrap_or(0) >= 5);
    assert!(manual.get(&MessageKind::Token).copied().unwrap_or(0) >= 1);
    assert!(manual.get(&MessageKind::Grant).copied().unwrap_or(0) >= 1);
    assert!(manual.get(&MessageKind::Release).copied().unwrap_or(0) >= 1);
}

/// The normalized, host-independent residue of one crash-recovery run.
#[derive(Debug, PartialEq, Eq, Default)]
struct Trace {
    /// Per node: local grants/releases in the order the node saw them.
    ops: Vec<Vec<String>>,
    /// Per node: recovery rounds in the order the node saw them.
    recovery: Vec<Vec<String>>,
    /// Locks whose tokens were regenerated (any coordinator).
    regenerated: BTreeSet<u32>,
}

/// Collects one node's protocol-visible outcomes. Host-dependent events
/// (message/delivery counts, timers, backpressure) are dropped.
struct Collect {
    node: NodeId,
    sink: Arc<Mutex<Trace>>,
}

impl Observer for Collect {
    fn on_event(&mut self, _at_micros: u64, event: &ProtocolEvent) {
        let slot = self.node.0 as usize;
        match event {
            ProtocolEvent::Granted { node, lock, mode, .. } if *node == self.node => {
                self.sink.lock().unwrap().ops[slot].push(format!("granted {} {mode:?}", lock.0));
            }
            ProtocolEvent::Released { node, lock, mode, .. } if *node == self.node => {
                self.sink.lock().unwrap().ops[slot].push(format!("released {} {mode:?}", lock.0));
            }
            ProtocolEvent::RecoveryStarted { node, epoch, dead } if *node == self.node => {
                self.sink.lock().unwrap().recovery[slot]
                    .push(format!("recovery_started e{epoch} dead={dead}"));
            }
            ProtocolEvent::RecoveryCompleted { node, epoch } if *node == self.node => {
                self.sink.lock().unwrap().recovery[slot]
                    .push(format!("recovery_completed e{epoch}"));
            }
            ProtocolEvent::TokenRegenerated { lock, .. } => {
                self.sink.lock().unwrap().regenerated.insert(lock.0);
            }
            _ => {}
        }
    }
}

/// One step of the crash-recovery script.
enum Step {
    /// Acquire the lock in `Write` at the node, then release it.
    WriteCycle(usize, LockId),
    /// Crash-stop the node.
    Kill(usize),
    /// Tell the node's failure detector that node 0 crashed.
    SuspectHome(usize),
}

/// The scenario: a warm-up grant pulls lock 0's token to node 1, the
/// token home is killed while the mesh is quiet (so exactly lock 1's
/// token dies with it — no racing in-flight transfers), suspicion is
/// raised explicitly (so the run does not race the failure detector's
/// backoff schedule), and the survivors then work through recovery:
/// node 1 re-takes the token it already holds, node 2 needs lock 1's
/// token regenerated, and post-recovery traffic keeps serializing.
fn recovery_script() -> Vec<Step> {
    use Step::*;
    let (l0, l1) = (LockId(0), LockId(1));
    vec![
        // Warm up: lock 0's token migrates home -> node 1 and stays there.
        WriteCycle(1, l0),
        // Quiet crash of the home, then explicit suspicion from both
        // survivors.
        Kill(0),
        SuspectHome(1),
        SuspectHome(2),
        // Survivors' work drains through the recovery round.
        WriteCycle(1, l0),
        WriteCycle(2, l1),
        WriteCycle(1, l0),
        WriteCycle(2, l0),
        WriteCycle(1, l0),
        WriteCycle(2, l0),
    ]
}

const RECOVERY_NODES: usize = 3;

fn recovery_space(i: usize) -> RecoverySpace<LockSpace> {
    let n = RECOVERY_NODES as u32;
    RecoverySpace::new(NodeId(i as u32), 2, NodeId(0), n, ProtocolConfig::default())
}

fn empty_trace() -> Arc<Mutex<Trace>> {
    Arc::new(Mutex::new(Trace {
        ops: vec![Vec::new(); RECOVERY_NODES],
        recovery: vec![Vec::new(); RECOVERY_NODES],
        regenerated: BTreeSet::new(),
    }))
}

fn run_recovery_tcp() -> Trace {
    let sink = empty_trace();
    let cluster = Cluster::spawn_observed(RECOVERY_NODES, recovery_space, |node| {
        Some(Box::new(Collect { node, sink: sink.clone() }) as Box<dyn Observer + Send>)
    })
    .unwrap();
    for step in recovery_script() {
        match step {
            Step::WriteCycle(i, lock) => {
                let t = cluster.node(i).acquire(lock, Mode::Write, Duration::from_secs(30));
                cluster.node(i).release(lock, t.unwrap()).unwrap();
            }
            Step::Kill(i) => cluster.kill(i),
            Step::SuspectHome(i) => cluster.node(i).suspect(&[NodeId(0)]).unwrap(),
        }
    }
    cluster.shutdown();
    // `shutdown` joined every event loop, so ours is the last reference.
    Arc::try_unwrap(sink).expect("all observers dropped").into_inner().unwrap()
}

fn run_recovery_manual() -> Trace {
    let sink = empty_trace();
    let mut observers: Vec<Collect> = (0..RECOVERY_NODES as u32)
        .map(|i| Collect { node: NodeId(i), sink: sink.clone() })
        .collect();
    let observe = &mut |at: usize, event: &ProtocolEvent| observers[at].on_event(0, event);
    let mut host = ManualHost::new((0..RECOVERY_NODES).map(recovery_space), true);
    for (i, step) in recovery_script().into_iter().enumerate() {
        match step {
            Step::WriteCycle(at, lock) => {
                let t = Ticket(i as u64 + 1);
                host.call(
                    at,
                    |n, fx| n.request(lock, Mode::Write, t, fx).expect("accepted"),
                    observe,
                );
                // Not held unless the request was granted: a wedge fails here.
                host.call(at, |n, fx| n.release(lock, t, fx).expect("held"), observe);
            }
            Step::Kill(at) => host.nodes[at] = None,
            Step::SuspectHome(at) => {
                host.call(at, |n, fx| _ = n.on_suspect(&[NodeId(0)], fx), observe)
            }
        }
    }
    drop(observers);
    Arc::try_unwrap(sink).expect("all observers dropped").into_inner().unwrap()
}

#[test]
fn recovery_outcomes_identical_on_manual_and_tcp_hosts() {
    let mux = run_recovery_tcp();
    let reference = run_recovery_manual();

    assert_eq!(
        mux, reference,
        "the mux transport and the hand-delivered reference host diverged on \
         protocol-visible outcomes"
    );
    // And the run did what the scenario says: a recovery round happened
    // and the dead home's lost token was regenerated on both hosts.
    assert!(
        mux.recovery[1].iter().any(|e| e.starts_with("recovery_completed")),
        "node 1 must complete recovery: {:?}",
        mux.recovery[1]
    );
    assert_eq!(mux.regenerated, BTreeSet::from([1]), "exactly lock 1's token died with the home");
}
