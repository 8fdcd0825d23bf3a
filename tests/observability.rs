//! Cross-component observability contract: the simulator, the model
//! checker and the TCP transport all narrate their runs in the **same**
//! [`ProtocolEvent`] vocabulary, with causally-linked request spans that
//! open exactly once and close exactly once.

use hlock::check::{Checker, Scenario};
use hlock::core::{
    InvariantAuditor, LockId, LockSpace, Mode, NodeId, ProtocolConfig, ProtocolEvent, SpanId,
    Ticket,
};
use hlock::net::Cluster;
use hlock::sim::{Driver, Sim, SimApi, SimConfig};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

const L: LockId = LockId(0);

/// Every name the event vocabulary can produce (see
/// `ProtocolEvent::name`); components must not invent others.
const VOCABULARY: &[&str] = &[
    "request_issued",
    "request_queued",
    "request_forwarded",
    "copy_granted",
    "copy_revoked",
    "token_sent",
    "token_received",
    "release_sent",
    "release_suppressed",
    "granted",
    "released",
    "request_cancelled",
    "message_sent",
    "delivered",
    "dropped",
    "recovery_started",
    "recovery_completed",
    "token_regenerated",
    "stale_epoch_fenced",
    "backpressure",
    "request_aborted",
    "link_down",
];

/// One exclusive acquire→hold→release per node.
struct OneShotEach;

impl Driver for OneShotEach {
    fn start(&mut self, node: NodeId, api: &mut SimApi) {
        api.request(L, Mode::Write, Ticket(u64::from(node.0) + 1));
    }
    fn on_granted(&mut self, _n: NodeId, lock: LockId, t: Ticket, _m: Mode, api: &mut SimApi) {
        api.release(lock, t);
    }
    fn on_timer(&mut self, _n: NodeId, _t: u64, _api: &mut SimApi) {}
}

fn sim_event_names() -> BTreeSet<String> {
    let names: Rc<RefCell<BTreeSet<String>>> = Rc::default();
    let sink = Rc::clone(&names);
    let spaces = (0..3)
        .map(|i| LockSpace::new(NodeId(i), 1, NodeId(0), ProtocolConfig::default()))
        .collect();
    let cfg = SimConfig { seed: 9, check_every: 1, ..SimConfig::default() };
    Sim::new(spaces, OneShotEach, cfg)
        .with_observer(move |_at: u64, e: &ProtocolEvent| {
            sink.borrow_mut().insert(e.name().to_string());
        })
        .run()
        .expect("safe");
    Rc::try_unwrap(names).expect("observer dropped with the sim").into_inner()
}

fn checker_event_names() -> BTreeSet<String> {
    let names: Rc<RefCell<BTreeSet<String>>> = Rc::default();
    let sink = Rc::clone(&names);
    let scenario = Scenario::new(2, 1).hold(NodeId(0), L, Mode::Write, Ticket(1)).hold(
        NodeId(1),
        L,
        Mode::Write,
        Ticket(2),
    );
    Checker::hierarchical(ProtocolConfig::default())
        .with_observer(move |_at: u64, e: &ProtocolEvent| {
            sink.borrow_mut().insert(e.name().to_string());
        })
        .run(&scenario)
        .expect("safe");
    Rc::try_unwrap(names).expect("observer dropped with the checker").into_inner()
}

fn net_event_names() -> BTreeSet<String> {
    let names: Arc<Mutex<BTreeSet<String>>> = Arc::default();
    let cluster = Cluster::spawn_observed(
        2,
        |i| LockSpace::new(NodeId(i as u32), 1, NodeId(0), ProtocolConfig::default()),
        |_| {
            let sink = Arc::clone(&names);
            Some(Box::new(move |_at: u64, e: &ProtocolEvent| {
                sink.lock().expect("not poisoned").insert(e.name().to_string());
            }))
        },
    )
    .expect("cluster spawns");
    let timeout = Duration::from_secs(10);
    let t = cluster.node(1).acquire(L, Mode::Write, timeout).expect("granted");
    cluster.node(1).release(L, t).expect("released");
    cluster.shutdown();
    Arc::try_unwrap(names).expect("all event loops joined").into_inner().expect("not poisoned")
}

#[test]
fn all_components_share_one_event_vocabulary() {
    let sim = sim_event_names();
    let check = checker_event_names();
    let net = net_event_names();

    // Nothing outside the shared vocabulary, anywhere.
    for (who, set) in [("sim", &sim), ("check", &check), ("net", &net)] {
        for name in set {
            assert!(VOCABULARY.contains(&name.as_str()), "{who} invented event {name:?}");
        }
    }
    // The core request lifecycle is narrated identically by all three.
    for name in ["request_issued", "granted", "released", "message_sent", "delivered"] {
        assert!(sim.contains(name), "sim missing {name}: {sim:?}");
        assert!(check.contains(name), "check missing {name}: {check:?}");
        assert!(net.contains(name), "net missing {name}: {net:?}");
    }
}

#[test]
fn spans_open_once_close_once_and_grants_match_requests() {
    let events: Rc<RefCell<Vec<ProtocolEvent>>> = Rc::default();
    let sink = Rc::clone(&events);
    let spaces = (0..4)
        .map(|i| LockSpace::new(NodeId(i), 1, NodeId(0), ProtocolConfig::default()))
        .collect();
    let cfg = SimConfig { seed: 3, check_every: 1, ..SimConfig::default() };
    let report = Sim::new(spaces, OneShotEach, cfg)
        .with_observer(move |_at: u64, e: &ProtocolEvent| sink.borrow_mut().push(e.clone()))
        .run()
        .expect("safe");
    assert!(report.quiescent);

    let events = events.borrow();
    let findings = InvariantAuditor::audit_stream(events.iter());
    assert!(findings.is_empty(), "every span closes exactly once: {findings:?}");

    // Every Granted carries the span its RequestIssued opened, and each
    // closes at most once.
    let mut opened: HashMap<SpanId, u32> = HashMap::new();
    let mut closed: HashMap<SpanId, u32> = HashMap::new();
    for e in events.iter() {
        match e {
            ProtocolEvent::RequestIssued { span, .. } => *opened.entry(*span).or_insert(0) += 1,
            ProtocolEvent::Granted { span, .. } => *closed.entry(*span).or_insert(0) += 1,
            _ => {}
        }
    }
    assert_eq!(opened.len() as u64, report.metrics.total_requests());
    for (span, n) in &closed {
        assert_eq!(*n, 1, "span {span:?} closed {n} times");
        assert!(opened.contains_key(span), "grant for never-issued span {span:?}");
    }
    // This driver's requests all complete, so the sets coincide.
    assert_eq!(opened.len(), closed.len());
}
