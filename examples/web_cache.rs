//! Distributed web-cache coherence — the paper's introduction motivates
//! the protocol for "web caching or embedded computing with distributed
//! objects". Here, cache nodes keep local copies of origin objects:
//!
//! * a **read-through** takes `R` on the object's lock, refreshing the
//!   local copy if its version is stale — many caches may do this
//!   concurrently;
//! * an **origin update** takes `W`, bumping version and content
//!   atomically — the lock excludes all readers, so no cache can ever
//!   observe a *torn* (version, content) pair.
//!
//! The run asserts coherence at every single read, across thousands of
//! interleaved reads and updates on a simulated 12-node cluster.
//!
//! ```text
//! cargo run --release --example web_cache
//! ```

use hlock::core::rng::Rng;
use hlock::core::{LockId, LockSpace, Mode, NodeId, ProtocolConfig, Ticket};
use hlock::sim::{Driver, Duration, Sim, SimApi, SimConfig};

const CACHES: usize = 12;
const OBJECTS: usize = 6;
const OPS_PER_NODE: u32 = 30;
const T_NEXT: u64 = 1;
const T_DONE: u64 = 2;

/// An origin object: content is derived from version, so a torn pair is
/// detectable (`content != version * 1000`).
#[derive(Debug, Clone, Copy)]
struct Object {
    version: u64,
    content: u64,
}

#[derive(Debug, Clone, Copy)]
struct CurrentOp {
    object: usize,
    ticket: Ticket,
    is_update: bool,
}

struct CacheDriver {
    origin: Vec<Object>,
    /// Per-cache local copies (None = cold).
    caches: Vec<Vec<Option<Object>>>,
    rng: Vec<Rng>,
    remaining: Vec<u32>,
    current: Vec<Option<CurrentOp>>,
    next_ticket: Vec<u64>,
    reads: u64,
    refreshes: u64,
    updates: u64,
}

impl CacheDriver {
    fn new() -> Self {
        CacheDriver {
            origin: vec![Object { version: 1, content: 1000 }; OBJECTS],
            caches: vec![vec![None; OBJECTS]; CACHES],
            rng: (0..CACHES as u64).map(|i| Rng::new(77 + i)).collect(),
            remaining: vec![OPS_PER_NODE; CACHES],
            current: vec![None; CACHES],
            next_ticket: vec![1; CACHES],
            reads: 0,
            refreshes: 0,
            updates: 0,
        }
    }
}

impl Driver for CacheDriver {
    fn start(&mut self, node: NodeId, api: &mut SimApi) {
        api.set_timer(Duration(1_000 * (node.0 as u64 + 1)), T_NEXT);
    }

    fn on_granted(&mut self, node: NodeId, _l: LockId, _t: Ticket, _m: Mode, api: &mut SimApi) {
        let op = self.current[node.index()].expect("grant matches the op in flight");
        if op.is_update {
            // Origin update under W: bump version and content together.
            let obj = &mut self.origin[op.object];
            obj.version += 1;
            obj.content = obj.version * 1000;
            self.updates += 1;
        } else {
            // Read-through under R: refresh if stale, then verify
            // coherence. A torn pair here would mean the lock failed.
            let origin = self.origin[op.object];
            let slot = &mut self.caches[node.index()][op.object];
            match slot {
                Some(copy) if copy.version == origin.version => {}
                _ => {
                    *slot = Some(origin);
                    self.refreshes += 1;
                }
            }
            let copy = slot.expect("filled above");
            assert_eq!(
                copy.content,
                copy.version * 1000,
                "torn read observed at cache {node} for object {}",
                op.object
            );
            self.reads += 1;
        }
        // Hold briefly (serving the cached object / writing the origin).
        api.set_timer(Duration::from_millis(5), T_DONE);
    }

    fn on_timer(&mut self, node: NodeId, timer: u64, api: &mut SimApi) {
        let i = node.index();
        match timer {
            T_NEXT => {
                if self.remaining[i] == 0 {
                    return;
                }
                self.remaining[i] -= 1;
                let object = self.rng[i].index(OBJECTS);
                let is_update = self.rng[i].chance(0.15);
                let ticket = Ticket(self.next_ticket[i]);
                self.next_ticket[i] += 1;
                self.current[i] = Some(CurrentOp { object, ticket, is_update });
                let mode = if is_update { Mode::Write } else { Mode::Read };
                api.request(LockId(object as u32), mode, ticket);
            }
            T_DONE => {
                let op = self.current[i].take().expect("op in flight");
                api.release(LockId(op.object as u32), op.ticket);
                api.set_timer(Duration::from_millis(30), T_NEXT);
            }
            _ => unreachable!(),
        }
    }
}

fn main() {
    println!(
        "{CACHES} cache nodes × {OBJECTS} objects, {OPS_PER_NODE} ops each \
         (85% reads / 15% origin updates)…"
    );
    let nodes: Vec<LockSpace> = (0..CACHES as u32)
        .map(|i| LockSpace::new(NodeId(i), OBJECTS, NodeId(0), ProtocolConfig::default()))
        .collect();
    let cfg = SimConfig { seed: 2024, lock_count: OBJECTS, check_every: 10, ..Default::default() };
    let (report, _nodes) = Sim::new(nodes, CacheDriver::new(), cfg)
        .run_with_nodes()
        .expect("coherence and protocol invariants hold");
    assert!(report.quiescent);
    println!(
        "\ncompleted {} lock requests in {:.1}s simulated time ({} messages, {:.2}/request)",
        report.metrics.total_requests(),
        report.end_time.as_millis_f64() / 1000.0,
        report.metrics.total_messages(),
        report.metrics.messages_per_request(),
    );
    println!("every read observed a coherent (version, content) pair — no torn reads.");
    println!(
        "R-mode sharing let caches read concurrently; W-mode updates excluded them all.\n\
         (rerun with ProtocolConfig::without_freezing() and heavy read load to watch\n\
         updates starve — see examples/fairness_freezing.rs)"
    );
}
