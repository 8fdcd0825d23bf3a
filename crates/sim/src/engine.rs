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
use hlock_core::rng::Rng;
use hlock_core::{
    audit_at_rest, audit_live, BatchHost, Classify, ConcurrencyProtocol, EffectSink, EpochScope,
    HostRuntime, Inspect, LockId, Meter, Mode, NodeId, NullObserver, Observer, Priority,
    ProtocolEvent, SpanId, Ticket,
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
    /// happened for this long — instead of spinning silently until
    /// `max_virtual_time`, or draining the queue with wedged requests.
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

/// Commands a [`Driver`] can issue from its callbacks.
///
/// Accumulated in [`SimApi`] and executed by the engine after the
/// callback returns.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    Request { lock: LockId, mode: Mode, ticket: Ticket, priority: Priority },
    Release { lock: LockId, ticket: Ticket },
    Upgrade { lock: LockId, ticket: Ticket },
    Downgrade { lock: LockId, ticket: Ticket, mode: Mode },
    Timer { delay: Duration, timer: u64 },
}

/// The driver's handle to the simulation during a callback.
#[derive(Debug)]
pub struct SimApi {
    now: SimTime,
    commands: Vec<Command>,
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
        self.commands.push(Command::Request { lock, mode, ticket, priority });
    }

    /// Releases a granted lock.
    pub fn release(&mut self, lock: LockId, ticket: Ticket) {
        self.commands.push(Command::Release { lock, ticket });
    }

    /// Upgrades a held `U` lock to `W`.
    pub fn upgrade(&mut self, lock: LockId, ticket: Ticket) {
        self.commands.push(Command::Upgrade { lock, ticket });
    }

    /// Downgrades a held lock to a weaker mode.
    pub fn downgrade(&mut self, lock: LockId, ticket: Ticket, mode: Mode) {
        self.commands.push(Command::Downgrade { lock, ticket, mode });
    }

    /// Schedules `Driver::on_timer(node, timer)` after `delay`.
    pub fn set_timer(&mut self, delay: Duration, timer: u64) {
        self.commands.push(Command::Timer { delay, timer });
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

#[derive(Debug)]
enum EventKind<M> {
    /// One network hop: a whole per-destination batch (one wire frame)
    /// arriving atomically, messages in per-link emission order.
    Deliver { from: NodeId, to: NodeId, messages: Vec<M> },
    /// A driver (application) timer, set via [`SimApi::set_timer`].
    Timer { node: NodeId, timer: u64 },
    /// A protocol timer, requested via [`hlock_core::Effect::SetTimer`].
    ProtocolTimer { node: NodeId, token: u64 },
    /// The end of a [`NodePause`]: queued from the start, so a run never
    /// ends (and is never judged) while a node is still paused.
    Resume { node: NodeId },
}

struct Event<M> {
    time: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
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

/// The discrete-event simulator.
pub struct Sim<P: ConcurrencyProtocol, D> {
    config: SimConfig,
    nodes: Vec<P>,
    driver: D,
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Event<P::Message>>>,
    rng: Rng,
    link_clock: HashMap<(NodeId, NodeId), SimTime>,
    outstanding: HashMap<(NodeId, LockId, Ticket), (SimTime, Mode)>,
    metrics: Meter,
    fx: EffectSink<P::Message>,
    runtime: HostRuntime<P::Message>,
    /// Computes the encoded size of one outgoing batch (one wire frame),
    /// for wire-byte accounting; `None` counts frames but zero bytes.
    #[allow(clippy::type_complexity)]
    frame_sizer: Option<Box<dyn Fn(&[P::Message]) -> u64>>,
    delivered: u64,
    observer: Box<dyn Observer>,
    /// Whether an observer is attached. Protocol-event emission is
    /// enabled only then, so an unobserved run constructs no events.
    observing: bool,
    /// Host-level events recorded while the observer is checked out
    /// during [`HostRuntime::dispatch_observed`] (the step host borrows
    /// the whole simulator); flushed right after the dispatch returns.
    host_events: Vec<ProtocolEvent>,
    /// Virtual time of the last request or grant, for the watchdog.
    last_progress: SimTime,
    /// The suspect set the watchdog last reported via
    /// [`ConcurrencyProtocol::on_suspect`]; a wedged run fails only once
    /// suspicion has been raised and a full window passed without progress.
    last_suspects: BTreeSet<NodeId>,
    /// Nodes whose scheduled crash has already closed its open request
    /// spans (each crash aborts exactly once).
    crash_aborted: BTreeSet<NodeId>,
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
        Sim {
            config,
            nodes,
            driver,
            now: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            rng,
            link_clock: HashMap::new(),
            outstanding: HashMap::new(),
            metrics: Meter::new(),
            fx: EffectSink::new(),
            runtime: HostRuntime::new(),
            frame_sizer: None,
            delivered: 0,
            observer: Box::new(NullObserver),
            observing: false,
            host_events: Vec::new(),
            last_progress: SimTime::ZERO,
            last_suspects: BTreeSet::new(),
            crash_aborted: BTreeSet::new(),
        }
    }

    /// Attaches an [`Observer`] receiving every [`ProtocolEvent`] of the
    /// run — protocol lifecycle transitions from the nodes, transport
    /// events from the engine — stamped with virtual time in
    /// microseconds. Attach a `hlock_core::SharedAuditor` to audit and
    /// flight-record the run (its dump is the run's JSONL log, which the
    /// `timeline` binary renders as a Chrome trace), a `Meter` to meter
    /// it from events, or a plain closure. The engine feeds
    /// [`SimReport::metrics`] directly either way.
    #[must_use]
    pub fn with_observer(mut self, observer: impl Observer + 'static) -> Self {
        self.observer = Box::new(observer);
        self.observing = true;
        self.fx.set_observing(true);
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

    /// Closes the open request spans of every node whose scheduled
    /// crash time has now passed: each still-outstanding request of a
    /// dead node gets a terminal [`ProtocolEvent::RequestAborted`], so
    /// span balance holds across crash-recovery runs. Runs once per
    /// crash (tracked in `crash_aborted`).
    fn flush_crash_aborts(&mut self) {
        if self.crash_aborted.len() == self.config.crashes.len() {
            return;
        }
        let now = self.now;
        let newly: Vec<NodeId> = self
            .config
            .crashes
            .iter()
            .filter(|c| now >= c.at && !self.crash_aborted.contains(&c.node))
            .map(|c| c.node)
            .collect();
        for node in newly {
            self.crash_aborted.insert(node);
            let mut dead: Vec<(LockId, Ticket)> = self
                .outstanding
                .keys()
                .filter(|&&(n, _, _)| n == node)
                .map(|&(_, lock, ticket)| (lock, ticket))
                .collect();
            dead.sort_unstable();
            for (lock, ticket) in dead {
                self.outstanding.remove(&(node, lock, ticket));
                self.observe_with(|| ProtocolEvent::RequestAborted {
                    node,
                    lock,
                    span: SpanId::new(node, ticket),
                });
            }
        }
    }

    /// Records a host-level event; like `EffectSink::emit_with`, the
    /// closure never runs when no observer is attached.
    fn observe_with(&mut self, event: impl FnOnce() -> ProtocolEvent) {
        if self.observing {
            let event = event();
            self.observer.on_event(self.now.0, &event);
        }
    }

    /// Delivers events buffered by [`SimStepHost`] while the observer
    /// was checked out for a dispatch.
    fn flush_host_events(&mut self) {
        if self.host_events.is_empty() {
            return;
        }
        let mut events = std::mem::take(&mut self.host_events);
        for event in events.drain(..) {
            self.observer.on_event(self.now.0, &event);
        }
        self.host_events = events;
    }

    /// Runs to completion (event queue drained) and reports.
    ///
    /// # Errors
    ///
    /// Returns an [`InvariantViolation`] if safety checking is enabled and
    /// a check fails, or if virtual time exceeds the configured bound
    /// (which indicates livelock).
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
        for i in 0..self.nodes.len() {
            let node = NodeId(i as u32);
            let mut api = SimApi { now: self.now, commands: Vec::new() };
            self.driver.start(node, &mut api);
            self.execute(node, api.commands)?;
        }
        for pause in self.config.pauses.clone() {
            self.push_event(pause.until, EventKind::Resume { node: pause.node });
        }
        loop {
            let Some(Reverse(ev)) = self.events.pop() else {
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
            debug_assert!(ev.time >= self.now, "time must not go backwards");
            self.now = ev.time;
            self.flush_crash_aborts();
            if self.now > self.config.max_virtual_time {
                return Err(InvariantViolation(format!(
                    "virtual time bound exceeded at {} ({} events): likely livelock",
                    self.now, self.delivered
                )));
            }
            self.check_watchdog()?;
            let event_node = match &ev.kind {
                EventKind::Deliver { to, .. } => *to,
                EventKind::Timer { node, .. }
                | EventKind::ProtocolTimer { node, .. }
                | EventKind::Resume { node } => *node,
            };
            // Crash-stop: a dead node loses arriving messages and its
            // timers are discarded outright — it never runs again.
            if self.is_crashed(event_node, ev.time) {
                if let EventKind::Deliver { from, to, messages } = ev.kind {
                    for message in &messages {
                        let kind = message.kind();
                        self.observe_with(|| ProtocolEvent::Dropped { node: to, from, kind });
                    }
                }
                continue;
            }
            // Node pauses: a paused node loses arriving messages
            // (crash-stop) but keeps its timers frozen — they fire after
            // resume with their remaining delay intact.
            if let Some(pause) =
                self.config.pauses.iter().find(|p| p.covers(event_node, ev.time)).copied()
            {
                match ev.kind {
                    EventKind::Deliver { from, to, messages } => {
                        for message in &messages {
                            let kind = message.kind();
                            self.observe_with(|| ProtocolEvent::Dropped { node: to, from, kind });
                        }
                    }
                    kind => {
                        let resume_at = pause.until + (ev.time - pause.from);
                        self.push_event(resume_at, kind);
                    }
                }
                continue;
            }
            match ev.kind {
                EventKind::Deliver { from, to, messages } => {
                    for message in &messages {
                        let kind = message.kind();
                        self.observe_with(|| ProtocolEvent::Delivered { node: to, from, kind });
                    }
                    let before = self.delivered;
                    self.delivered += messages.len() as u64;
                    // Delivery goes through the runtime so stale-epoch
                    // messages are fenced before the protocol sees them.
                    self.runtime.deliver(&mut self.nodes[to.index()], from, messages, &mut self.fx);
                    self.process_effects(to)?;
                    // `delivered` counts logical messages; a batch checks
                    // once when it crosses a `check_every` boundary.
                    if self.config.check_every > 0
                        && before / self.config.check_every
                            != self.delivered / self.config.check_every
                    {
                        self.check_invariants(false)?;
                    }
                }
                EventKind::Timer { node, timer } => {
                    self.observe_with(|| ProtocolEvent::TimerFired { node, token: timer });
                    let mut api = SimApi { now: self.now, commands: Vec::new() };
                    self.driver.on_timer(node, timer, &mut api);
                    self.execute(node, api.commands)?;
                }
                EventKind::ProtocolTimer { node, token } => {
                    self.observe_with(|| ProtocolEvent::TimerFired { node, token });
                    self.nodes[node.index()].on_timer(token, &mut self.fx);
                    self.process_effects(node)?;
                }
                EventKind::Resume { .. } => {}
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
        let quiescent = self
            .nodes
            .iter()
            .filter(|n| !self.is_crashed(n.node_id(), self.now))
            .all(|n| n.is_quiescent());
        Ok((
            SimReport {
                metrics: self.metrics,
                end_time: self.now,
                quiescent,
                events: self.delivered,
            },
            self.nodes,
        ))
    }

    fn execute(&mut self, node: NodeId, commands: Vec<Command>) -> Result<(), InvariantViolation> {
        self.execute_inner(node, commands)?;
        self.process_effects(node)
    }

    /// Drains the effect sink after any protocol step at `node` through
    /// the shared [`HostRuntime`]: sends coalesce per destination into one
    /// simulated hop (one wire frame), grants dispatch to the driver
    /// (which may enqueue further commands, processed in the same instant).
    fn process_effects(&mut self, node: NodeId) -> Result<(), InvariantViolation> {
        loop {
            if self.fx.is_empty() && self.fx.events().is_empty() {
                return Ok(());
            }
            let mut fx = std::mem::replace(&mut self.fx, EffectSink::new());
            let mut runtime = std::mem::take(&mut self.runtime);
            let mut commands: Vec<(NodeId, Vec<Command>)> = Vec::new();
            if self.observing {
                // The step host borrows the whole simulator, so the
                // observer is checked out for the duration of the
                // dispatch; host-side drops land in `host_events`.
                let mut observer = std::mem::replace(&mut self.observer, Box::new(NullObserver));
                let now = self.now.0;
                runtime.dispatch_observed(
                    &mut fx,
                    &mut SimStepHost { sim: self, node, commands: &mut commands },
                    node,
                    &mut *observer,
                    now,
                );
                self.observer = observer;
                self.flush_host_events();
            } else {
                runtime.dispatch(
                    &mut fx,
                    &mut SimStepHost { sim: self, node, commands: &mut commands },
                );
            }
            self.runtime = runtime;
            self.fx = fx;
            for (n, cmds) in commands {
                // Execute driver reactions; their effects are picked up by
                // the next loop iteration.
                self.execute_inner(n, cmds)?;
            }
        }
    }

    /// Like `execute` but without draining effects (the caller loops).
    fn execute_inner(
        &mut self,
        node: NodeId,
        commands: Vec<Command>,
    ) -> Result<(), InvariantViolation> {
        for cmd in commands {
            match cmd {
                Command::Request { lock, mode, ticket, priority } => {
                    // The node itself emits `RequestIssued` (span open).
                    self.metrics.count_request();
                    self.last_progress = self.now;
                    self.outstanding.insert((node, lock, ticket), (self.now, mode));
                    self.nodes[node.index()]
                        .request_with_priority(lock, mode, ticket, priority, &mut self.fx)
                        .map_err(|e| InvariantViolation(format!("driver misuse at {node}: {e}")))?;
                }
                Command::Release { lock, ticket } => {
                    self.nodes[node.index()]
                        .release(lock, ticket, &mut self.fx)
                        .map_err(|e| InvariantViolation(format!("driver misuse at {node}: {e}")))?;
                }
                Command::Upgrade { lock, ticket } => {
                    // An upgrade is itself a lock request (for W).
                    self.metrics.count_request();
                    self.last_progress = self.now;
                    self.outstanding.insert((node, lock, ticket), (self.now, Mode::Write));
                    self.nodes[node.index()]
                        .upgrade(lock, ticket, &mut self.fx)
                        .map_err(|e| InvariantViolation(format!("driver misuse at {node}: {e}")))?;
                }
                Command::Downgrade { lock, ticket, mode } => {
                    self.nodes[node.index()]
                        .downgrade(lock, ticket, mode, &mut self.fx)
                        .map_err(|e| InvariantViolation(format!("driver misuse at {node}: {e}")))?;
                }
                Command::Timer { delay, timer } => {
                    let time = self.now + delay;
                    self.push_event(time, EventKind::Timer { node, timer });
                }
            }
        }
        Ok(())
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind<P::Message>) {
        self.seq += 1;
        self.events.push(Reverse(Event { time, seq: self.seq, kind }));
    }

    /// Whether `node` has crash-stopped at or before `at`.
    fn is_crashed(&self, node: NodeId, at: SimTime) -> bool {
        self.config.crashes.iter().any(|c| c.covers(node, at))
    }

    /// Whether `node` is currently inside a pause window.
    fn is_paused(&self, node: NodeId) -> bool {
        self.config.pauses.iter().any(|p| p.covers(node, self.now))
    }

    /// Whether any still-live node has a request outstanding.
    fn has_live_outstanding(&self) -> bool {
        self.outstanding.keys().any(|&(n, _, _)| !self.is_crashed(n, self.now))
    }

    /// Describes every wedged request from a still-live node (node, lock,
    /// ticket, mode, age), or `None` when nothing live is outstanding.
    /// A crashed node's requests die with it and are not wedged.
    fn stuck_report(&self) -> Option<String> {
        #[allow(clippy::type_complexity)]
        let mut entries: Vec<(&(NodeId, LockId, Ticket), &(SimTime, Mode))> = self
            .outstanding
            .iter()
            .filter(|((n, _, _), _)| !self.is_crashed(*n, self.now))
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
        if !self.has_live_outstanding() || self.now - self.last_progress <= window {
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
    /// live nodes via [`ConcurrencyProtocol::on_suspect`]. Evaluating
    /// fault coverage at the *deadline* rather than the current event
    /// time matters when virtual time jumps over a long fault window:
    /// the watchdog of a real deployment would have fired inside it.
    ///
    /// Returns `true` if any node started recovering — the watchdog then
    /// re-arms for a full window of recovery traffic. A suspect set that
    /// was already reported is not reported again: if recovery itself
    /// stalls, the run must fail rather than spin.
    fn raise_suspicion(&mut self, window: Duration) -> Result<bool, InvariantViolation> {
        let deadline = self.last_progress + window;
        let suspects: BTreeSet<NodeId> = (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| {
                self.is_crashed(n, deadline)
                    || self.is_crashed(n, self.now)
                    || self.config.pauses.iter().any(|p| p.covers(n, deadline))
            })
            .collect();
        if suspects.is_empty() || suspects == self.last_suspects {
            return Ok(false);
        }
        self.last_suspects = suspects.clone();
        let dead: Vec<NodeId> = suspects.iter().copied().collect();
        let mut recovering = false;
        for i in 0..self.nodes.len() {
            let node = NodeId(i as u32);
            if suspects.contains(&node) || self.is_crashed(node, self.now) || self.is_paused(node) {
                continue;
            }
            recovering |= self.nodes[i].on_suspect(&dead, &mut self.fx);
            self.process_effects(node)?;
        }
        if recovering {
            // Recovery traffic is in flight; give it a full window.
            self.last_progress = self.now;
        }
        Ok(recovering)
    }

    /// The safety oracle over the nodes that have not crashed:
    /// [`hlock_core::audit_live`] in every checked state and, at the end
    /// of the run, [`hlock_core::audit_at_rest`] — once every live node
    /// is quiescent (a faulted run may legitimately be wedged) and every
    /// crash has been suspected: a crash the watchdog never had cause to
    /// suspect still owes its recovery, so its token may be missing. The
    /// structural audit runs while no node has been suspected at all.
    fn check_invariants(&mut self, at_end: bool) -> Result<(), InvariantViolation> {
        let (crashes, now) = (&self.config.crashes, self.now);
        let live: Vec<(NodeId, &P)> = self
            .nodes
            .iter()
            .map(|n| (n.node_id(), n))
            .filter(|&(id, _)| !crashes.iter().any(|c| c.covers(id, now)))
            .collect();
        // A pause is the one fault that makes a live node look dead: the
        // watchdog suspects it like a crash.
        let scope = EpochScope::for_run(!self.config.pauses.is_empty());
        let locks = self.config.lock_count;
        if let Some(first) = audit_live(&live, locks, scope, now.0).first() {
            return Err(InvariantViolation(first.to_string()));
        }
        let unsuspected_crash =
            crashes.iter().any(|c| c.at <= now && !self.last_suspects.contains(&c.node));
        if !at_end || unsuspected_crash || !live.iter().all(|(_, n)| n.is_quiescent()) {
            return Ok(());
        }
        let whole = self.last_suspects.is_empty();
        let findings = audit_at_rest(&live, locks, scope, whole, now.0, &mut *self.observer);
        match findings.first() {
            Some(first) => Err(InvariantViolation(format!(
                "quiescent-state audit failed ({} findings): {first}",
                findings.len()
            ))),
            None => Ok(()),
        }
    }
}

/// One effect-step's host adapter: borrows the simulator and routes the
/// shared runtime's step effects into the event queue, the metrics and
/// the driver. `node` is the node whose protocol step produced the sink.
struct SimStepHost<'a, P: ConcurrencyProtocol, D> {
    sim: &'a mut Sim<P, D>,
    node: NodeId,
    /// Driver reactions to grants, executed by the caller after dispatch
    /// (their effects belong to the *next* step, never this batch).
    commands: &'a mut Vec<(NodeId, Vec<Command>)>,
}

impl<P, D> BatchHost<P::Message> for SimStepHost<'_, P, D>
where
    P: ConcurrencyProtocol + Inspect,
    D: Driver,
{
    #[allow(clippy::assign_op_pattern)]
    fn on_batch(&mut self, to: NodeId, messages: Vec<P::Message>) {
        let sim = &mut *self.sim;
        let from = self.node;
        for message in &messages {
            sim.metrics.count_message_from(from, message.kind());
        }
        let bytes = sim.frame_sizer.as_ref().map_or(0, |sizer| sizer(&messages));
        sim.metrics.count_frame(messages.len(), bytes);
        // Fault injection applies to the frame — the network transfer
        // unit — so a fault hits or spares the whole batch, exactly as a
        // lost or duplicated TCP segment would.
        if sim.config.partitions.iter().any(|p| p.severs(from, to, sim.now)) {
            if sim.observing {
                for message in &messages {
                    sim.host_events.push(ProtocolEvent::Dropped {
                        node: to,
                        from,
                        kind: message.kind(),
                    });
                }
            }
            return;
        }
        if sim.config.drop_probability > 0.0 && sim.rng.chance(sim.config.drop_probability) {
            if sim.observing {
                for message in &messages {
                    sim.host_events.push(ProtocolEvent::Dropped {
                        node: to,
                        from,
                        kind: message.kind(),
                    });
                }
            }
            return;
        }
        let copies = if sim.config.duplicate_probability > 0.0
            && sim.rng.chance(sim.config.duplicate_probability)
        {
            2
        } else {
            1
        };
        let mut remaining = Some(messages);
        for copy in 0..copies {
            let latency = sim.config.latency.sample(&mut sim.rng);
            let mut at = sim.now + latency;
            // A reordered frame skips the FIFO clock and gains bounded
            // extra skew, so it can overtake (or fall behind) its link
            // neighbors.
            let reordered = sim.config.reorder_probability > 0.0
                && sim.rng.chance(sim.config.reorder_probability);
            if reordered {
                let skew = sim.config.reorder_max_skew.as_micros();
                if skew > 0 {
                    at = at + Duration(sim.rng.range_inclusive(0..=skew));
                }
            } else if sim.config.fifo_links {
                let clock = sim.link_clock.entry((from, to)).or_insert(SimTime::ZERO);
                if at <= *clock {
                    at = SimTime(clock.0 + 1);
                }
                *clock = at;
            }
            // The common single-copy case moves the batch without cloning;
            // only a duplicated frame pays for a copy.
            let batch = if copy + 1 == copies {
                remaining.take().expect("one batch per copy")
            } else {
                remaining.as_ref().expect("one batch per copy").clone()
            };
            sim.push_event(at, EventKind::Deliver { from, to, messages: batch });
        }
    }

    fn on_granted(&mut self, lock: LockId, ticket: Ticket, mode: Mode) {
        let sim = &mut *self.sim;
        let node = self.node;
        sim.last_progress = sim.now;
        // The node itself emits `Granted` (span close).
        if let Some((start, req_mode)) = sim.outstanding.remove(&(node, lock, ticket)) {
            debug_assert!(
                req_mode == mode || mode == Mode::Write,
                "grant mode matches request (or upgraded to W)"
            );
            sim.metrics.record_grant(req_mode, sim.now - start);
        }
        let mut api = SimApi { now: sim.now, commands: Vec::new() };
        sim.driver.on_granted(node, lock, ticket, mode, &mut api);
        self.commands.push((node, api.commands));
    }

    fn on_set_timer(&mut self, token: u64, delay_micros: u64) {
        let at = self.sim.now + Duration(delay_micros);
        let node = self.node;
        self.sim.push_event(at, EventKind::ProtocolTimer { node, token });
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
