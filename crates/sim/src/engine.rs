//! The discrete-event simulation engine.
//!
//! Substitutes for the paper's 120-node Linux cluster: virtual time, a
//! randomized-latency network (per-link FIFO by default, like the TCP
//! links of the original testbed), seeded and fully deterministic.
//!
//! The engine is generic over the protocol (`hlock-core`'s [`LockSpace`]
//! or `hlock-naimi`'s `NaimiSpace`) and over a [`Driver`] that models the
//! application: the driver issues requests, holds critical sections for
//! sampled durations via timers, and releases.
//!
//! [`LockSpace`]: hlock_core::LockSpace

use crate::latency::LatencyModel;
use crate::time::{Duration, SimTime};
use crate::world::{Action, Out, Step, World};
use hlock_core::rng::Rng;
use hlock_core::{
    Classify, ConcurrencyProtocol, EpochScope, Inspect, LockId, Meter, Mode, NodeId, NullObserver,
    Observer, Priority, ProtocolError, Ticket, PROBE_TIMER_TOKEN,
};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed: identical seeds reproduce identical runs bit-for-bit.
    pub seed: u64,
    /// Network latency model (the paper: exponential, mean 150 ms).
    pub latency: LatencyModel,
    /// Deliver messages per-link FIFO (models the paper's TCP links).
    pub fifo_links: bool,
    /// Number of locks in the system (for invariant checks).
    pub lock_count: usize,
    /// Run the safety oracle (`hlock_core::audit`) every N delivered
    /// messages and at the end of the run (0 disables checking).
    pub check_every: u64,
    /// Hard stop: abort the run if virtual time exceeds this bound.
    pub max_virtual_time: SimTime,
    /// Fault injection: probability that a sent message is silently
    /// dropped. The protocol assumes reliable links (like the paper's
    /// TCP testbed); dropping messages must never violate *safety*, but
    /// liveness is forfeited — useful for assumption-validation tests.
    pub drop_probability: f64,
    /// Fault injection: probability that a sent message is delivered
    /// twice (with independent latencies).
    pub duplicate_probability: f64,
    /// Fault injection: probability that a sent message bypasses the
    /// per-link FIFO clock and gains an extra uniform latency in
    /// `[0, reorder_max_skew]`, letting it overtake (or fall behind)
    /// neighboring messages on the same link.
    pub reorder_probability: f64,
    /// Maximum extra skew a reordered message can gain.
    pub reorder_max_skew: Duration,
    /// Fault injection: timed network partitions. While a partition is
    /// active, messages crossing its cut are dropped at send time;
    /// partitions heal when their window closes.
    pub partitions: Vec<Partition>,
    /// Fault injection: node pause windows (crash-stop with resume).
    /// Messages arriving at a paused node are lost; the node's timers
    /// freeze and fire after resume with their remaining delay intact.
    pub pauses: Vec<NodePause>,
    /// Fault injection: permanent crash-stop schedules. From its crash
    /// time on, a node receives nothing (arriving frames are dropped on
    /// the floor), its timers are discarded, and it is excluded from the
    /// watchdog, the end-of-run safety invariants and the quiescence
    /// check. Messages it sent *before* crashing stay in flight — the
    /// network does not retract them.
    pub crashes: Vec<NodeCrash>,
    /// Liveness watchdog: if set, the run fails with a stuck-state
    /// report when requests are outstanding but no request or grant has
    /// happened for this long — instead of draining the queue with
    /// wedged requests. Without one, a run whose requests wait while only
    /// keepalive probes ([`hlock_core::PROBE_TIMER_TOKEN`]) are pending
    /// ends with the same report: every run ends.
    pub watchdog: Option<Duration>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            latency: LatencyModel::paper(),
            fifo_links: true,
            lock_count: 1,
            check_every: 0,
            max_virtual_time: SimTime(u64::MAX),
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            reorder_probability: 0.0,
            reorder_max_skew: Duration::ZERO,
            partitions: Vec::new(),
            pauses: Vec::new(),
            crashes: Vec::new(),
            watchdog: None,
        }
    }
}

impl SimConfig {
    /// Checks the fault knobs for consistency: probabilities must be
    /// finite and within `[0, 1]` (feeding NaN or an out-of-range value
    /// to the RNG would otherwise panic deep inside the run, or worse,
    /// silently misbehave), and every partition or pause window must
    /// close after it opens.
    ///
    /// # Errors
    ///
    /// Names the offending knob and its value.
    pub fn validate(&self) -> Result<(), String> {
        let probabilities = [
            ("drop_probability", self.drop_probability),
            ("duplicate_probability", self.duplicate_probability),
            ("reorder_probability", self.reorder_probability),
        ];
        for (name, p) in probabilities {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a finite probability in [0, 1], got {p}"));
            }
        }
        for p in &self.partitions {
            if p.until <= p.from {
                return Err(format!(
                    "partition window must close after it opens (from {}, until {})",
                    p.from, p.until
                ));
            }
            if p.island.is_empty() {
                return Err("partition island must name at least one node".into());
            }
        }
        for p in &self.pauses {
            if p.until <= p.from {
                return Err(format!(
                    "pause window for {} must close after it opens (from {}, until {})",
                    p.node, p.from, p.until
                ));
            }
        }
        let mut crashed: Vec<NodeId> = Vec::new();
        for c in &self.crashes {
            if crashed.contains(&c.node) {
                return Err(format!("node {} has more than one crash scheduled", c.node));
            }
            crashed.push(c.node);
        }
        Ok(())
    }
}

/// A timed network partition separating `island` from everyone else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// Nodes on one side of the cut.
    pub island: Vec<NodeId>,
    /// Virtual time at which the partition opens.
    pub from: SimTime,
    /// Virtual time at which the partition heals (exclusive).
    pub until: SimTime,
}

impl Partition {
    /// Whether a message from `a` to `b` sent at `at` crosses the cut.
    pub fn severs(&self, a: NodeId, b: NodeId, at: SimTime) -> bool {
        at >= self.from && at < self.until && (self.island.contains(&a) != self.island.contains(&b))
    }
}

/// A timed pause of one node (crash-stop that later resumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodePause {
    /// The paused node.
    pub node: NodeId,
    /// Virtual time at which the node stops.
    pub from: SimTime,
    /// Virtual time at which the node resumes (exclusive).
    pub until: SimTime,
}

impl NodePause {
    /// Whether `node` is paused at `at`.
    pub fn covers(&self, node: NodeId, at: SimTime) -> bool {
        node == self.node && at >= self.from && at < self.until
    }
}

/// A permanent crash-stop of one node (never resumes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCrash {
    /// The crashing node.
    pub node: NodeId,
    /// Virtual time at which the node dies (inclusive).
    pub at: SimTime,
}

impl NodeCrash {
    /// Whether `node` is dead at `at`.
    pub fn covers(&self, node: NodeId, at: SimTime) -> bool {
        node == self.node && at >= self.at
    }
}

/// The driver's handle to the simulation during a callback. Its calls
/// and timers are applied once the callback returns; the buffers are the
/// simulator's own and are reused from callback to callback.
#[derive(Debug, Default)]
pub struct SimApi {
    now: SimTime,
    calls: Vec<Action>,
    timers: Vec<(Duration, u64)>,
}

impl SimApi {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Issues a lock request (the grant arrives via `Driver::on_granted`).
    pub fn request(&mut self, lock: LockId, mode: Mode, ticket: Ticket) {
        self.request_with_priority(lock, mode, ticket, Priority::NORMAL);
    }

    /// Issues a lock request with an explicit priority.
    pub fn request_with_priority(
        &mut self,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        priority: Priority,
    ) {
        self.calls.push(Action::RequestWithPriority { lock, mode, ticket, priority });
    }

    /// Releases a granted lock.
    pub fn release(&mut self, lock: LockId, ticket: Ticket) {
        self.calls.push(Action::Release { lock, ticket });
    }

    /// Upgrades a held `U` lock to `W`.
    pub fn upgrade(&mut self, lock: LockId, ticket: Ticket) {
        self.calls.push(Action::Upgrade { lock, ticket });
    }

    /// Downgrades a held lock to a weaker mode.
    pub fn downgrade(&mut self, lock: LockId, ticket: Ticket, mode: Mode) {
        self.calls.push(Action::Downgrade { lock, ticket, to: mode });
    }

    /// Schedules `Driver::on_timer(node, timer)` after `delay`.
    pub fn set_timer(&mut self, delay: Duration, timer: u64) {
        self.timers.push((delay, timer));
    }
}

/// The application model running on top of the protocol.
///
/// One driver instance models *all* nodes (callbacks carry the node id),
/// which keeps per-node state in one place and the engine simple.
pub trait Driver {
    /// Called once per node at time zero.
    fn start(&mut self, node: NodeId, api: &mut SimApi);

    /// A request previously issued with `ticket` was granted `mode`.
    fn on_granted(
        &mut self,
        node: NodeId,
        lock: LockId,
        ticket: Ticket,
        mode: Mode,
        api: &mut SimApi,
    );

    /// A timer set via [`SimApi::set_timer`] fired.
    fn on_timer(&mut self, node: NodeId, timer: u64, api: &mut SimApi);
}

/// What a heap entry makes happen when its time comes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    /// In-flight frame `id` arrives.
    Deliver(u64),
    /// A protocol timer fires.
    Timer { node: NodeId, token: u64 },
    /// A driver timer, set via [`SimApi::set_timer`], fires.
    App { node: NodeId, timer: u64 },
    /// The end of a [`NodePause`]: queued from the start, so a run never
    /// ends (and is never judged) while a node is still paused.
    Resume(NodeId),
}

/// Result of a completed simulation run.
#[derive(Debug)]
pub struct SimReport {
    /// Collected measurements.
    pub metrics: Meter,
    /// Virtual time when the event queue drained.
    pub end_time: SimTime,
    /// Whether every node reported protocol quiescence at the end.
    pub quiescent: bool,
    /// Number of events processed.
    pub events: u64,
}

/// A violated safety invariant; carries a human-readable explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation(pub String);

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invariant violated: {}", self.0)
    }
}

impl std::error::Error for InvariantViolation {}

/// The discrete-event simulator: a scheduler over a [`World`]. Its heap
/// orders `(time, seq, due)` entries; the frames, the protocol state and
/// the armed timers live in the world.
pub struct Sim<P: ConcurrencyProtocol, D> {
    config: SimConfig,
    world: World<P>,
    driver: D,
    api: SimApi,
    /// The call buffer of the step being applied, swapped with `api`'s.
    calls: Vec<Action>,
    /// What the step being applied did, in effect order.
    out: Vec<Out>,
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<(SimTime, u64, Due)>>,
    /// Heap entries that are keepalive probe timers.
    keepalives: usize,
    rng: Rng,
    /// Per-link FIFO clocks, indexed `from * n + to`.
    link_clock: Vec<SimTime>,
    outstanding: HashMap<(NodeId, LockId, Ticket), (SimTime, Mode)>,
    metrics: Meter,
    /// Computes the encoded size of one outgoing batch (one wire frame),
    /// for wire-byte accounting; `None` counts frames but zero bytes.
    #[allow(clippy::type_complexity)]
    frame_sizer: Option<Box<dyn Fn(&[P::Message]) -> u64>>,
    delivered: u64,
    observer: Box<dyn Observer>,
    /// Whether an observer is attached. Protocol-event emission is
    /// enabled only then, so an unobserved run constructs no events.
    observing: bool,
    /// Sees every world step the run applies ([`Sim::with_recorder`]).
    #[allow(clippy::type_complexity)]
    recorder: Option<Box<dyn FnMut(&Step, &World<P>)>>,
    /// Virtual time of the last request or grant, for the watchdog.
    last_progress: SimTime,
    /// The suspect set the watchdog last reported via
    /// [`ConcurrencyProtocol::on_suspect`]; a wedged run fails only once
    /// suspicion has been raised and a full window passed without progress.
    last_suspects: BTreeSet<NodeId>,
}

impl<P, D> Sim<P, D>
where
    P: ConcurrencyProtocol + Inspect,
    D: Driver,
{
    /// Creates a simulator over `nodes` (indexed by [`NodeId`]) and an
    /// application `driver`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty, node ids are not dense `0..n`, or the
    /// config fails [`SimConfig::validate`] (NaN / out-of-range fault
    /// probabilities, inverted fault windows).
    pub fn new(nodes: Vec<P>, driver: D, config: SimConfig) -> Self {
        assert!(!nodes.is_empty(), "need at least one node");
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.node_id().index(), i, "node ids must be dense 0..n");
        }
        if let Err(e) = config.validate() {
            panic!("invalid SimConfig: {e}");
        }
        let rng = Rng::new(config.seed);
        let links = nodes.len() * nodes.len();
        Sim {
            config,
            world: World::new(nodes, false),
            driver,
            api: SimApi::default(),
            calls: Vec::new(),
            out: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            keepalives: 0,
            rng,
            link_clock: vec![SimTime::ZERO; links],
            outstanding: HashMap::new(),
            metrics: Meter::new(),
            frame_sizer: None,
            delivered: 0,
            observer: Box::new(NullObserver),
            observing: false,
            recorder: None,
            last_progress: SimTime::ZERO,
            last_suspects: BTreeSet::new(),
        }
    }

    /// Attaches an [`Observer`] receiving every
    /// [`ProtocolEvent`](hlock_core::ProtocolEvent) of the run — protocol
    /// lifecycle transitions from the nodes, transport events from the
    /// world — stamped with virtual time in
    /// microseconds. Attach a `hlock_core::SharedAuditor` to audit and
    /// flight-record the run (its dump is the run's JSONL log, which the
    /// `timeline` binary renders as a Chrome trace), a `Meter` to meter
    /// it from events, or a plain closure. The engine feeds
    /// [`SimReport::metrics`] directly either way.
    #[must_use]
    pub fn with_observer(mut self, observer: impl Observer + 'static) -> Self {
        self.observer = Box::new(observer);
        self.observing = true;
        // Nothing has run yet: the same spaces, in a world that records
        // each step's events.
        self.world = World::new(self.world.into_spaces(), true);
        self
    }

    /// Attaches a frame sizer: given the messages of one outgoing batch
    /// (delivered as one wire frame), returns its encoded size in bytes.
    /// Enables [`Meter::wire_bytes`] accounting; without it frames are
    /// still counted but bytes stay zero.
    #[must_use]
    pub fn with_frame_sizer(mut self, sizer: impl Fn(&[P::Message]) -> u64 + 'static) -> Self {
        self.frame_sizer = Some(Box::new(sizer));
        self
    }

    /// Hands every world step the run applies, and the world right after
    /// it, to `recorder`: the steps are what a replay folds
    /// [`World::step`] over.
    #[must_use]
    pub fn with_recorder(mut self, recorder: impl FnMut(&Step, &World<P>) + 'static) -> Self {
        self.recorder = Some(Box::new(recorder));
        self
    }

    /// Runs to completion (event queue drained) and reports.
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantViolation`] if safety checking is enabled and
    /// a check fails, if virtual time exceeds the configured bound
    /// (which indicates livelock), or if the run wedges (see
    /// [`SimConfig::watchdog`]).
    pub fn run(self) -> Result<SimReport, InvariantViolation> {
        self.run_with_nodes().map(|(report, _)| report)
    }

    /// Like [`Sim::run`] but also hands back the final protocol states,
    /// for post-mortem inspection in tests and debugging.
    ///
    /// # Errors
    ///
    /// Same as [`Sim::run`].
    pub fn run_with_nodes(mut self) -> Result<(SimReport, Vec<P>), InvariantViolation> {
        // Time zero: give every node's application a chance to start.
        for i in 0..self.world.spaces().len() {
            let node = NodeId(i as u32);
            self.driver.start(node, &mut self.api);
            self.execute(node)?;
        }
        for i in 0..self.config.pauses.len() {
            let pause = self.config.pauses[i];
            self.push(pause.until, Due::Resume(pause.node));
        }
        loop {
            // A keepalive probe is not pending work: without a watchdog
            // nobody is ever suspected, so a probe can only meet a peer
            // at its own epoch, which answers nothing.
            if self.heap.len() == self.keepalives
                && self.keepalives > 0
                && self.config.watchdog.is_none()
                && self.has_live_outstanding()
            {
                let report = self.stuck_report().unwrap_or_default();
                return Err(InvariantViolation(format!(
                    "run ended not quiescent: only keepalive probes pending: {report}"
                )));
            }
            let Some(Reverse((time, _, due))) = self.heap.pop() else {
                // Queue drained. If live requests are wedged behind a
                // dead or paused node, raise suspicion — the recovery
                // traffic refills the queue and the run continues.
                if let Some(window) = self.config.watchdog {
                    if self.has_live_outstanding() && self.raise_suspicion(window)? {
                        continue;
                    }
                }
                break;
            };
            if let Due::Timer { token: PROBE_TIMER_TOKEN, .. } = due {
                self.keepalives -= 1;
            }
            debug_assert!(time >= self.now, "time must not go backwards");
            self.now = time;
            self.apply_crashes();
            if self.now > self.config.max_virtual_time {
                return Err(InvariantViolation(format!(
                    "virtual time bound exceeded at {} ({} events): likely livelock",
                    self.now, self.delivered
                )));
            }
            self.check_watchdog()?;
            let node = match due {
                Due::Deliver(id) => self.world.flight(id).to,
                Due::Timer { node, .. } | Due::App { node, .. } | Due::Resume(node) => node,
            };
            // Crash-stop: the world loses frames arriving at a dead node,
            // and its timers and application never run again.
            if self.world.crashed()[node.index()] {
                if let Due::Deliver(id) = due {
                    self.apply(&Step::Deliver(id), &mut Vec::new()).expect("a loss cannot fail");
                }
                continue;
            }
            // Node pauses: a paused node loses arriving frames too, but
            // its timers freeze and fire after resume with their
            // remaining delay intact.
            if let Some(p) = self.config.pauses.iter().find(|p| p.covers(node, time)).copied() {
                match due {
                    Due::Deliver(id) => self.lose(id),
                    _ => self.push(p.until + (time - p.from), due),
                }
                continue;
            }
            match due {
                Due::Deliver(id) => {
                    let before = self.delivered;
                    self.delivered += self.world.flight(id).messages.len() as u64;
                    self.step(node, &Step::Deliver(id))?;
                    self.execute(node)?;
                    // `delivered` counts logical messages; a frame checks
                    // once when it crosses a `check_every` boundary.
                    let every = self.config.check_every;
                    if every > 0 && before / every != self.delivered / every {
                        self.check_invariants(false)?;
                    }
                }
                Due::App { node, timer } => {
                    self.api.now = self.now;
                    self.driver.on_timer(node, timer, &mut self.api);
                    self.execute(node)?;
                }
                Due::Timer { node, token } => {
                    self.step(node, &Step::Timer { node, token })?;
                    self.execute(node)?;
                }
                Due::Resume(_) => {}
            }
        }
        if let Some(report) = self.stuck_report() {
            if self.config.watchdog.is_some() {
                return Err(InvariantViolation(format!(
                    "liveness watchdog: event queue drained with wedged requests: {report}"
                )));
            }
        }
        if self.config.check_every > 0 {
            self.check_invariants(true)?;
        }
        // A crashed node is out of the system; only survivors owe
        // quiescence.
        let quiescent = self.world.live().all(|n| n.is_quiescent());
        let report = SimReport {
            metrics: self.metrics,
            end_time: self.now,
            quiescent,
            events: self.delivered,
        };
        Ok((report, self.world.into_spaces()))
    }

    /// Applies what the driver asked for in its last callback at `node`:
    /// its timers go on the heap and its calls run as one step, then the
    /// driver's reactions to that step's grants, until it asks for nothing.
    fn execute(&mut self, node: NodeId) -> Result<(), InvariantViolation> {
        loop {
            for i in 0..self.api.timers.len() {
                let (delay, timer) = self.api.timers[i];
                self.push(self.now + delay, Due::App { node, timer });
            }
            self.api.timers.clear();
            if self.api.calls.is_empty() {
                return Ok(());
            }
            std::mem::swap(&mut self.calls, &mut self.api.calls);
            for &call in &self.calls {
                // An upgrade is itself a lock request (for W). The node
                // itself emits `RequestIssued` (span open).
                let (lock, ticket, mode) = match call {
                    Action::Request { lock, mode, ticket }
                    | Action::RequestWithPriority { lock, mode, ticket, .. } => {
                        (lock, ticket, mode)
                    }
                    Action::Upgrade { lock, ticket } => (lock, ticket, Mode::Write),
                    _ => continue,
                };
                self.metrics.count_request();
                self.last_progress = self.now;
                self.outstanding.insert((node, lock, ticket), (self.now, mode));
            }
            let step = Step::Call { node, calls: std::mem::take(&mut self.calls) };
            self.step(node, &step)?;
            if let Step::Call { mut calls, .. } = step {
                calls.clear();
                self.calls = calls;
            }
        }
    }

    /// Applies one world step at `node` and schedules what it did: new
    /// frames go on the network, grants to the metrics and the driver
    /// (whose reactions stay in `api` for the caller), protocol timers on
    /// the heap.
    fn step(&mut self, node: NodeId, step: &Step) -> Result<bool, InvariantViolation> {
        let mut out = std::mem::take(&mut self.out);
        let handled = self
            .apply(step, &mut out)
            .map_err(|e| InvariantViolation(format!("driver misuse at {node}: {e}")))?;
        for &done in &out {
            match done {
                Out::Sent(id) => self.send(node, id),
                Out::Granted { lock, ticket, mode } => {
                    self.last_progress = self.now;
                    // The node itself emits `Granted` (span close).
                    if let Some((start, req_mode)) = self.outstanding.remove(&(node, lock, ticket))
                    {
                        debug_assert!(
                            req_mode == mode || mode == Mode::Write,
                            "grant mode matches request (or upgraded to W)"
                        );
                        self.metrics.record_grant(req_mode, self.now - start);
                    }
                    self.api.now = self.now;
                    self.driver.on_granted(node, lock, ticket, mode, &mut self.api);
                }
                Out::Armed { token, delay } => {
                    self.push(self.now + delay, Due::Timer { node, token })
                }
            }
        }
        out.clear();
        self.out = out;
        Ok(handled)
    }

    /// Applies `step` to the world, shows it to the recorder and hands
    /// its events to the observer.
    fn apply(&mut self, step: &Step, out: &mut Vec<Out>) -> Result<bool, ProtocolError> {
        let result = self.world.step(step, out);
        if let Some(record) = &mut self.recorder {
            record(step, &self.world);
        }
        for event in self.world.events() {
            self.observer.on_event(self.now.0, event);
        }
        result
    }

    /// Loses in-flight frame `id`.
    fn lose(&mut self, id: u64) {
        self.apply(&Step::Drop(id), &mut Vec::new()).expect("a loss cannot fail");
    }

    /// Puts frame `id`, just sent by `from`, on the network: metered, then
    /// lost to a partition or a drop draw, or scheduled — once, or twice
    /// if duplicated — at a sampled latency behind its link's FIFO clock.
    fn send(&mut self, from: NodeId, id: u64) {
        let frame = self.world.flight(id);
        let to = frame.to;
        for message in &frame.messages {
            self.metrics.count_message_from(from, message.kind());
        }
        let bytes = self.frame_sizer.as_ref().map_or(0, |sizer| sizer(&frame.messages));
        self.metrics.count_frame(frame.messages.len(), bytes);
        // Fault injection applies to the frame — the network transfer
        // unit — so a fault hits or spares the whole batch, exactly as a
        // lost or duplicated TCP segment would.
        let p = &self.config;
        if p.partitions.iter().any(|p| p.severs(from, to, self.now))
            || (p.drop_probability > 0.0 && self.rng.chance(p.drop_probability))
        {
            return self.lose(id);
        }
        let mut copies = [Some(id), None];
        if p.duplicate_probability > 0.0 && self.rng.chance(p.duplicate_probability) {
            let mut copy = Vec::new();
            self.apply(&Step::Duplicate(id), &mut copy).expect("a copy cannot fail");
            if let Some(&Out::Sent(twin)) = copy.first() {
                copies[1] = Some(twin);
            }
        }
        for id in copies.into_iter().flatten() {
            let latency = self.config.latency.sample(&mut self.rng);
            let mut at = self.now + latency;
            // A reordered frame skips the FIFO clock and gains bounded
            // extra skew, so it can overtake (or fall behind) its link
            // neighbors.
            let reorder = self.config.reorder_probability;
            if reorder > 0.0 && self.rng.chance(reorder) {
                let skew = self.config.reorder_max_skew.as_micros();
                if skew > 0 {
                    at += Duration(self.rng.range_inclusive(0..=skew));
                }
            } else if self.config.fifo_links {
                let clock =
                    &mut self.link_clock[from.index() * self.world.spaces().len() + to.index()];
                if at <= *clock {
                    at = SimTime(clock.0 + 1);
                }
                *clock = at;
            }
            self.push(at, Due::Deliver(id));
        }
    }

    fn push(&mut self, time: SimTime, due: Due) {
        self.seq += 1;
        if let Due::Timer { token: PROBE_TIMER_TOKEN, .. } = due {
            self.keepalives += 1;
        }
        self.heap.push(Reverse((time, self.seq, due)));
    }

    /// Crash-stops, once each, every node whose scheduled crash time has
    /// passed. The world's `Crash` step closes the node's open request
    /// spans, so span balance holds across crash-recovery runs.
    fn apply_crashes(&mut self) {
        for i in 0..self.config.crashes.len() {
            let NodeCrash { node, at } = self.config.crashes[i];
            if self.now >= at && !self.world.crashed()[node.index()] {
                self.outstanding.retain(|&(n, _, _), _| n != node);
                self.apply(&Step::Crash(node), &mut Vec::new()).expect("a crash cannot fail");
            }
        }
    }

    /// Whether any still-live node has a request outstanding.
    fn has_live_outstanding(&self) -> bool {
        self.outstanding.keys().any(|&(n, _, _)| !self.world.crashed()[n.index()])
    }

    /// Describes every wedged request from a still-live node (node, lock,
    /// ticket, mode, age), or `None` when nothing live is outstanding.
    /// A crashed node's requests die with it and are not wedged.
    fn stuck_report(&self) -> Option<String> {
        let mut entries: Vec<_> = self
            .outstanding
            .iter()
            .filter(|((n, _, _), _)| !self.world.crashed()[n.index()])
            .collect();
        if entries.is_empty() {
            return None;
        }
        entries.sort_by_key(|((n, l, t), _)| (n.0, l.0, t.0));
        let listed = entries
            .iter()
            .map(|((node, lock, ticket), (since, mode))| {
                format!("{node} waits for {lock} {mode} ({ticket}, {} old)", self.now - *since)
            })
            .collect::<Vec<_>>()
            .join("; ");
        Some(format!("{} outstanding: {listed}", entries.len()))
    }

    /// Acts when the watchdog window elapses with live requests
    /// outstanding and no progress. If some node is dead or paused, the
    /// watchdog first *suspects* it (via [`Sim::raise_suspicion`]) and
    /// re-arms, giving a recovery-capable protocol one full window to
    /// regenerate state and grant the survivors. Only when suspicion has
    /// already been raised (or there is nobody to suspect), and no node
    /// resumed from a pause within the last window, does the run fail
    /// with a stuck-state report.
    fn check_watchdog(&mut self) -> Result<(), InvariantViolation> {
        let Some(window) = self.config.watchdog else { return Ok(()) };
        // The elapsed time first: it is one subtraction, the outstanding
        // scan is not.
        if self.now - self.last_progress <= window || !self.has_live_outstanding() {
            return Ok(());
        }
        if self.raise_suspicion(window)? {
            return Ok(());
        }
        // A node that resumed from a pause gets one full window of its
        // own to rejoin. Suspicion has had its turn first and
        // `last_progress` is left alone, so the pause was still suspected
        // like a death.
        let now = self.now;
        if self.config.pauses.iter().any(|p| p.until <= now && now - p.until <= window) {
            return Ok(());
        }
        let report = self.stuck_report().unwrap_or_default();
        Err(InvariantViolation(format!(
            "liveness watchdog: no request or grant for {} (> {window}): {report}",
            self.now - self.last_progress
        )))
    }

    /// Reports every node that was dead or paused at the virtual moment
    /// the watchdog would have fired (`last_progress + window`) to the
    /// live nodes, as a world `Suspect` step each. Evaluating fault
    /// coverage at the *deadline* rather than the current event time
    /// matters when virtual time jumps over a long fault window: the
    /// watchdog of a real deployment would have fired inside it.
    ///
    /// Returns `true` if any node started recovering — the watchdog then
    /// re-arms for a full window of recovery traffic. A suspect set that
    /// was already reported is not reported again: if recovery itself
    /// stalls, the run must fail rather than spin.
    fn raise_suspicion(&mut self, window: Duration) -> Result<bool, InvariantViolation> {
        let deadline = self.last_progress + window;
        let suspects: BTreeSet<NodeId> = (0..self.world.spaces().len() as u32)
            .map(NodeId)
            .filter(|&n| {
                self.world.crashed()[n.index()]
                    || self.config.crashes.iter().any(|c| c.covers(n, deadline))
                    || self.config.pauses.iter().any(|p| p.covers(n, deadline))
            })
            .collect();
        if suspects.is_empty() || suspects == self.last_suspects {
            return Ok(false);
        }
        self.last_suspects = suspects.clone();
        let dead: Vec<NodeId> = suspects.iter().copied().collect();
        let mut recovering = false;
        for i in 0..self.world.spaces().len() {
            let node = NodeId(i as u32);
            let paused = self.config.pauses.iter().any(|p| p.covers(node, self.now));
            if suspects.contains(&node) || self.world.crashed()[i] || paused {
                continue;
            }
            recovering |= self.step(node, &Step::Suspect { at: node, dead: dead.clone() })?;
            self.execute(node)?;
        }
        if recovering {
            // Recovery traffic is in flight; give it a full window.
            self.last_progress = self.now;
        }
        Ok(recovering)
    }

    /// The safety oracle over the nodes that have not crashed
    /// ([`World::audit`]): [`hlock_core::audit_live`] in every checked
    /// state and, at the end of the run, [`hlock_core::audit_at_rest`] —
    /// once every live node is quiescent (a faulted run may legitimately
    /// be wedged) and every crash has been suspected: a crash the
    /// watchdog never had cause to suspect still owes its recovery, so
    /// its token may be missing. The structural audit runs while no node
    /// has crashed or been suspected in a pause.
    fn check_invariants(&mut self, at_end: bool) -> Result<(), InvariantViolation> {
        // A pause is the one fault that makes a live node look dead: the
        // watchdog suspects it like a crash.
        let scope = EpochScope::for_run(!self.config.pauses.is_empty());
        let (locks, now) = (self.config.lock_count, self.now);
        if let Some(first) = self.world.audit(locks, scope, now.0, false).first() {
            return Err(InvariantViolation(first.to_string()));
        }
        let unsuspected_crash = self
            .config
            .crashes
            .iter()
            .any(|c| c.at <= now && !self.last_suspects.contains(&c.node));
        if !at_end || unsuspected_crash || !self.world.live().all(|n| n.is_quiescent()) {
            return Ok(());
        }
        let findings = self.world.audit(locks, scope, now.0, true);
        match findings.first() {
            Some(first) => Err(InvariantViolation(format!(
                "quiescent-state audit failed ({} findings): {first}",
                findings.len()
            ))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_bad_probabilities() {
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let cfg = SimConfig { drop_probability: bad, ..SimConfig::default() };
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("drop_probability"), "{err}");
            let cfg = SimConfig { duplicate_probability: bad, ..SimConfig::default() };
            assert!(cfg.validate().unwrap_err().contains("duplicate_probability"));
            let cfg = SimConfig { reorder_probability: bad, ..SimConfig::default() };
            assert!(cfg.validate().unwrap_err().contains("reorder_probability"));
        }
        assert!(SimConfig::default().validate().is_ok());
        let full =
            SimConfig { drop_probability: 1.0, duplicate_probability: 0.0, ..SimConfig::default() };
        assert!(full.validate().is_ok(), "boundary values are legal");
    }

    #[test]
    fn validate_rejects_inverted_windows() {
        let cfg = SimConfig {
            partitions: vec![Partition {
                island: vec![NodeId(0)],
                from: SimTime(100),
                until: SimTime(100),
            }],
            ..SimConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("partition"));
        let cfg = SimConfig {
            pauses: vec![NodePause { node: NodeId(1), from: SimTime(9), until: SimTime(3) }],
            ..SimConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("pause"));
        let cfg = SimConfig {
            partitions: vec![Partition { island: vec![], from: SimTime(0), until: SimTime(1) }],
            ..SimConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("island"));
    }

    #[test]
    fn validate_rejects_double_crash() {
        let cfg = SimConfig {
            crashes: vec![
                NodeCrash { node: NodeId(2), at: SimTime(5) },
                NodeCrash { node: NodeId(2), at: SimTime(9) },
            ],
            ..SimConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("more than one crash"));
        let cfg = SimConfig {
            crashes: vec![
                NodeCrash { node: NodeId(2), at: SimTime(5) },
                NodeCrash { node: NodeId(3), at: SimTime(5) },
            ],
            ..SimConfig::default()
        };
        assert!(cfg.validate().is_ok(), "distinct nodes may share a crash time");
    }

    #[test]
    fn crash_covers_everything_after_its_time() {
        let c = NodeCrash { node: NodeId(1), at: SimTime(10) };
        assert!(!c.covers(NodeId(1), SimTime(9)));
        assert!(c.covers(NodeId(1), SimTime(10)));
        assert!(c.covers(NodeId(1), SimTime(u64::MAX)));
        assert!(!c.covers(NodeId(0), SimTime(50)));
    }

    #[test]
    fn partition_severs_only_across_the_cut_during_the_window() {
        let p =
            Partition { island: vec![NodeId(0), NodeId(1)], from: SimTime(10), until: SimTime(20) };
        // Crossing the cut, inside the window.
        assert!(p.severs(NodeId(0), NodeId(2), SimTime(10)));
        assert!(p.severs(NodeId(2), NodeId(1), SimTime(19)));
        // Same side: never severed.
        assert!(!p.severs(NodeId(0), NodeId(1), SimTime(15)));
        assert!(!p.severs(NodeId(2), NodeId(3), SimTime(15)));
        // Outside the window: healed.
        assert!(!p.severs(NodeId(0), NodeId(2), SimTime(9)));
        assert!(!p.severs(NodeId(0), NodeId(2), SimTime(20)));
    }

    #[test]
    fn pause_covers_its_node_and_window() {
        let p = NodePause { node: NodeId(3), from: SimTime(5), until: SimTime(8) };
        assert!(p.covers(NodeId(3), SimTime(5)));
        assert!(p.covers(NodeId(3), SimTime(7)));
        assert!(!p.covers(NodeId(3), SimTime(8)));
        assert!(!p.covers(NodeId(2), SimTime(6)));
    }
}
