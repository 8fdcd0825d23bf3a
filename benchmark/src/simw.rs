//! `sim_read_hot` / `sim_flash_crowd`: eight `LockSpace` nodes under
//! `hlock_sim::Sim`, exponential one-way delay (mean 2 ms), driven open
//! loop by a benchmark-owned [`Driver`]. `core::node` does all the work
//! and `wire`/`net` none; latencies and message counts are virtual-time
//! figures and exact functions of the seed.

use crate::check::HolderTable;
use crate::harness::{plan, Meter, Round};
use crate::script::{generate, Lane, Workload, LOCKS, SIM_NODES};
use hlock_core::{
    InvariantAuditor, LockId, LockSpace, MessageKind, Mode, NodeId, Observer, ProtocolConfig,
    ProtocolEvent, Ticket,
};
use hlock_sim::{Driver, Duration as SimDuration, LatencyModel, Sim, SimApi, SimConfig};
use hlock_wire::{frame, BytesMut};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Mean injected one-way message delay.
pub const MEAN_DELAY_MS: u64 = 2;

/// What the open-loop driver measured, shared out of `Sim::run`.
#[derive(Debug, Default)]
pub struct SimLog {
    pub offered: u64,
    /// Due time → last grant, virtual µs, one per completed op.
    pub latencies_us: Vec<u64>,
    /// Completion instants, virtual µs.
    pub done_us: Vec<u64>,
    pub in_flight: u64,
    pub max_in_flight: u64,
    /// Operations still in flight when the last arrival fired.
    pub backlog_at_last_arrival: u64,
}

/// Fires every lane's operations at their due times regardless of how
/// many are still in flight; both steps of a plan are issued in one
/// step, held for the op's hold time once fully granted, and released
/// leaf-first. Timer ids and tickets encode `(op index, step)`.
///
/// One rule bounds the concurrency: a node never has two operations
/// outstanding on the same entry. A later arrival waits in the node's
/// own table ([`EntrySlot`]) until the earlier one released — its
/// latency still runs from its due time. (Without the rule the protocol
/// under test wedges the entry for good about once per half million
/// operations; see the README's findings.)
struct OpenLoop {
    lanes: Vec<Lane>,
    /// Outstanding steps per op (0 = complete or not yet arrived).
    remaining: Vec<Vec<u8>>,
    /// Per node and entry lock.
    slots: Vec<Vec<EntrySlot>>,
    holders: Rc<HolderTable>,
    log: Rc<RefCell<SimLog>>,
}

/// A node's own serialisation point for one entry.
#[derive(Debug, Default, Clone)]
struct EntrySlot {
    busy: bool,
    /// Arrived operations (indices into the lane) waiting their turn.
    waiting: std::collections::VecDeque<usize>,
}

impl OpenLoop {
    fn issue(&mut self, node: NodeId, idx: usize, api: &mut SimApi) {
        let steps = plan(&self.lanes[node.index()].ops[idx]);
        self.remaining[node.index()][idx] = steps.len() as u8;
        for (s, (lock, mode)) in steps.into_iter().enumerate() {
            api.request(lock, mode, Ticket(idx as u64 * 2 + s as u64));
        }
    }
}

const ARRIVAL: u64 = 0;
const HOLD_DONE: u64 = 1;

impl Driver for OpenLoop {
    fn start(&mut self, node: NodeId, api: &mut SimApi) {
        if let Some(first) = self.lanes[node.index()].ops.first() {
            api.set_timer(SimDuration(first.at_us), ARRIVAL);
        }
    }

    fn on_granted(
        &mut self,
        node: NodeId,
        lock: LockId,
        ticket: Ticket,
        mode: Mode,
        api: &mut SimApi,
    ) {
        self.holders.granted(lock, mode);
        let idx = (ticket.0 / 2) as usize;
        let left = &mut self.remaining[node.index()][idx];
        *left -= 1;
        if *left == 0 {
            let op = &self.lanes[node.index()].ops[idx];
            let now = api.now().as_micros();
            let mut log = self.log.borrow_mut();
            log.latencies_us.push(now - op.at_us);
            log.done_us.push(now);
            log.in_flight -= 1;
            api.set_timer(SimDuration(u64::from(op.hold_us)), idx as u64 * 2 + HOLD_DONE);
        }
    }

    fn on_timer(&mut self, node: NodeId, timer: u64, api: &mut SimApi) {
        let idx = (timer / 2) as usize;
        let op = self.lanes[node.index()].ops[idx];
        let slot = &mut self.slots[node.index()][op.entry as usize];
        if timer % 2 == ARRIVAL {
            if slot.busy {
                slot.waiting.push_back(idx);
            } else {
                slot.busy = true;
                self.issue(node, idx, api);
            }
            let mut log = self.log.borrow_mut();
            log.offered += 1;
            log.in_flight += 1;
            log.max_in_flight = log.max_in_flight.max(log.in_flight);
            log.backlog_at_last_arrival = log.in_flight - 1;
            if let Some(next) = self.lanes[node.index()].ops.get(idx + 1) {
                let now = api.now().as_micros();
                api.set_timer(SimDuration(next.at_us - now), (idx as u64 + 1) * 2 + ARRIVAL);
            }
        } else {
            for (s, (lock, mode)) in plan(&op).into_iter().enumerate().rev() {
                self.holders.released(lock, mode);
                api.release(lock, Ticket(idx as u64 * 2 + s as u64));
            }
            match slot.waiting.pop_front() {
                Some(next) => self.issue(node, next, api),
                None => slot.busy = false,
            }
        }
    }
}

/// Observer of a traced round: event count plus the online auditor.
struct Audit {
    events: u64,
    auditor: InvariantAuditor,
}

pub fn round(workload: Workload, seed: u64, index: u64, traced: bool) -> Result<Round, String> {
    let setup_started = Instant::now();
    let script = generate(workload, seed, index);
    assert_eq!(script.lanes.len(), SIM_NODES as usize);
    let holders = Rc::new(HolderTable::new(LOCKS));
    let log = Rc::new(RefCell::new(SimLog::default()));
    let driver = OpenLoop {
        slots: vec![vec![EntrySlot::default(); LOCKS]; SIM_NODES as usize],
        remaining: script.lanes.iter().map(|l| vec![0; l.ops.len()]).collect(),
        lanes: script.lanes,
        holders: Rc::clone(&holders),
        log: Rc::clone(&log),
    };
    let nodes = (0..SIM_NODES)
        .map(|i| LockSpace::new(NodeId(i), LOCKS, NodeId(0), ProtocolConfig::default()))
        .collect();
    let config = SimConfig {
        seed: crate::script::round_seed(seed, index),
        latency: LatencyModel::Exponential { mean: SimDuration::from_millis(MEAN_DELAY_MS) },
        lock_count: LOCKS,
        check_every: if traced { 256 } else { 0 },
        // Fail loud: a wedged request ends the run with a diagnosis
        // instead of draining the queue silently.
        watchdog: Some(SimDuration::from_millis(20_000)),
        ..SimConfig::default()
    };
    let mut sim = Sim::new(nodes, driver, config);
    let audit = Rc::new(RefCell::new(Audit { events: 0, auditor: InvariantAuditor::new() }));
    if traced {
        let sink = Rc::clone(&audit);
        sim = sim
            .with_observer(move |at: u64, event: &ProtocolEvent| {
                let mut a = sink.borrow_mut();
                a.events += 1;
                a.auditor.on_event(at, event);
            })
            .with_frame_sizer(|batch| {
                let mut buf = BytesMut::new();
                frame::write_batch(&mut buf, NodeId(0), batch);
                buf.len() as u64
            });
    }

    let mut round =
        Round { traced, exact: index < crate::harness::ROUNDS as u64, ..Round::default() };
    round.setup = setup_started.elapsed();
    let meter = Meter::start();
    let outcome = sim.run();
    meter.stop(&mut round);
    let report = outcome.map_err(|e| format!("simulator: {e}"))?;

    let log = Rc::try_unwrap(log).expect("simulator dropped the driver").into_inner();
    if !report.quiescent {
        return Err(format!(
            "simulation did not end quiescent (offered {}, completed {}, in flight {})",
            log.offered,
            log.latencies_us.len(),
            log.in_flight
        ));
    }
    if log.offered != log.latencies_us.len() as u64 || log.in_flight != 0 {
        return Err(format!(
            "offered {} operations but completed {}",
            log.offered,
            log.latencies_us.len()
        ));
    }
    holders.verdict()?;
    if traced {
        let audit = audit.borrow();
        if !audit.auditor.is_clean() {
            return Err(format!("invariant auditor findings: {:?}", audit.auditor.findings()));
        }
        round
            .host
            .push(("observe.host_events_per_op", audit.events as f64 / log.offered.max(1) as f64));
    }

    round.attempted = log.offered;
    round.msgs = MessageKind::ALL.map(|k| report.metrics.messages_of_kind(k));
    round.bytes = report.metrics.wire_bytes();
    round.counters.logical_messages = report.metrics.total_messages();
    round.counters.frames = report.metrics.total_frames();
    round.counters.grants = report.metrics.total_grants();
    round.host.extend([
        ("sim.events_per_op", report.events as f64 / log.offered.max(1) as f64),
        ("sim.max_in_flight", log.max_in_flight as f64),
        ("sim.end_backlog_ops", log.backlog_at_last_arrival as f64),
        ("sim.ns_per_event", round.elapsed.as_nanos() as f64 / report.events.max(1) as f64),
    ]);
    round.completed = log.latencies_us.len() as u64;
    round.done_ns = log.done_us.iter().map(|us| us * 1_000).collect();
    round.latencies_ns = log.latencies_us.iter().map(|us| us * 1_000).collect();
    Ok(round)
}
