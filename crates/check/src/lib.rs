//! # hlock-check
//!
//! An exhaustive-interleaving model checker for the locking protocols of
//! this workspace. For small scenarios (2–4 nodes, a handful of
//! operations) it explores **every** possible ordering of message
//! deliveries and application actions, asserting in every reachable
//! state:
//!
//! * **Safety** — [`hlock_core::audit_live`]: at most one token per lock
//!   and pairwise-compatible holders (for the exclusive baseline: at
//!   most one holder);
//! * **Progress** — every terminal state (no more possible steps) has
//!   every scripted request granted and every node protocol-quiescent,
//!   i.e. no deadlock and no lost request, and passes
//!   [`hlock_core::audit_at_rest`].
//!
//! Scenarios are scripts of [`Action`]s per node, executed in order; a
//! release or upgrade only becomes enabled once its ticket is granted,
//! so hold durations interleave arbitrarily with message deliveries.
//!
//! ## Crash schedules
//!
//! With a non-empty [`Checker::crash_candidates`] the adversary may
//! crash-stop each candidate at **every** reachable point: the node's
//! pending timers die, frames addressed to it are lost, and survivors'
//! failure detectors report the dead set (a `suspect` step per
//! survivor, kept enabled so no terminal state precedes full
//! detection). Deliveries route through [`HostRuntime::deliver`] so
//! epoch fencing behaves exactly as in the simulator and the TCP
//! transport. Safety then holds over the **live** nodes, and progress
//! means every **surviving** requester is granted after recovery —
//! crashed nodes' scripts are exempt. Only recovery-capable protocols
//! (see [`Checker::hierarchical_recovery`]) pass; raw protocols deadlock.
//!
//! [`Checker::false_suspect_candidates`] additionally lets the
//! adversary's detectors name **live** nodes dead — the false-positive
//! scenario epoch fencing exists for, including schedules where a
//! coordinator that already installed an epoch is recovered around.
//! Safety is then asserted per epoch ([`hlock_core::EpochScope`]).
//!
//! ```
//! use hlock_check::{Action, Checker, Scenario};
//! use hlock_core::{LockId, LockSpace, Mode, NodeId, ProtocolConfig, Ticket};
//!
//! let scenario = Scenario::new(2, 1)
//!     .script(NodeId(1), vec![
//!         Action::request(LockId(0), Mode::Write, Ticket(1)),
//!         Action::release(LockId(0), Ticket(1)),
//!     ]);
//! let cfg = ProtocolConfig::default();
//! let stats = Checker::hierarchical(cfg).run(&scenario).expect("all interleavings safe");
//! assert!(stats.states > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use hlock_core::{
    audit_at_rest, audit_live, BatchHost, Classify, ConcurrencyProtocol, EffectSink, EpochScope,
    HostRuntime, Inspect, LockId, LockSpace, Mode, NodeId, Observer, Priority, ProtocolConfig,
    ProtocolEvent, RecoverySpace, ShardSpec, ShardedSpace, SpanId, Ticket,
};
use hlock_naimi::NaimiSpace;
use hlock_session::{SessionConfig, SessionSpace};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

/// One scripted application step at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Request `lock` in `mode` under `ticket`.
    Request {
        /// Lock to request.
        lock: LockId,
        /// Requested mode.
        mode: Mode,
        /// Correlation ticket.
        ticket: Ticket,
    },
    /// Release the grant held by `ticket` (enabled once granted).
    Release {
        /// Lock to release.
        lock: LockId,
        /// The granted ticket.
        ticket: Ticket,
    },
    /// Upgrade the `U` held by `ticket` to `W` (enabled once granted).
    Upgrade {
        /// Lock to upgrade on.
        lock: LockId,
        /// The granted ticket.
        ticket: Ticket,
    },
    /// Request with an explicit priority.
    RequestWithPriority {
        /// Lock to request.
        lock: LockId,
        /// Requested mode.
        mode: Mode,
        /// Correlation ticket.
        ticket: Ticket,
        /// Priority for queue ordering.
        priority: Priority,
    },
    /// Cancel `ticket`'s request (enabled while requested but not yet
    /// granted — cancels race against in-flight grants by construction).
    Cancel {
        /// Lock concerned.
        lock: LockId,
        /// The outstanding ticket.
        ticket: Ticket,
    },
    /// Downgrade the lock held by `ticket` to `to` (enabled once granted).
    Downgrade {
        /// Lock concerned.
        lock: LockId,
        /// The granted ticket.
        ticket: Ticket,
        /// Target mode (must be a legal downgrade).
        to: Mode,
    },
}

impl Action {
    /// Shorthand for [`Action::Request`].
    pub fn request(lock: LockId, mode: Mode, ticket: Ticket) -> Action {
        Action::Request { lock, mode, ticket }
    }
    /// Shorthand for [`Action::Release`].
    pub fn release(lock: LockId, ticket: Ticket) -> Action {
        Action::Release { lock, ticket }
    }
    /// Shorthand for [`Action::Upgrade`].
    pub fn upgrade(lock: LockId, ticket: Ticket) -> Action {
        Action::Upgrade { lock, ticket }
    }
    /// Shorthand for [`Action::Cancel`].
    pub fn cancel(lock: LockId, ticket: Ticket) -> Action {
        Action::Cancel { lock, ticket }
    }
    /// Shorthand for [`Action::Downgrade`].
    pub fn downgrade(lock: LockId, ticket: Ticket, to: Mode) -> Action {
        Action::Downgrade { lock, ticket, to }
    }
}

/// A checkable configuration: node count, lock count and per-node scripts.
#[derive(Debug, Clone)]
pub struct Scenario {
    nodes: usize,
    locks: usize,
    scripts: Vec<Vec<Action>>,
}

impl Scenario {
    /// A scenario with `nodes` nodes and `locks` locks, empty scripts.
    pub fn new(nodes: usize, locks: usize) -> Self {
        Scenario { nodes, locks, scripts: vec![Vec::new(); nodes] }
    }

    /// Sets node `node`'s script.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn script(mut self, node: NodeId, actions: Vec<Action>) -> Self {
        self.scripts[node.index()] = actions;
        self
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of locks.
    pub fn locks(&self) -> usize {
        self.locks
    }
}

/// Exploration statistics of a successful check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckStats {
    /// Distinct states visited.
    pub states: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Terminal (fully quiescent) states reached.
    pub terminals: u64,
}

/// A property violation, with the trace of steps that reaches it.
#[derive(Debug, Clone)]
pub struct CheckError {
    /// What went wrong.
    pub message: String,
    /// Human-readable steps from the initial state to the violation.
    pub trace: Vec<String>,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.message)?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {i}: {step}")?;
        }
        Ok(())
    }
}

impl std::error::Error for CheckError {}

/// In-flight wire frame: a whole per-destination batch from one effect
/// step, delivered (or lost) atomically — the frame is the network
/// transfer unit, exactly as on the TCP transport.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Flight<M> {
    from: NodeId,
    to: NodeId,
    /// Per-link sequence number (for FIFO-link mode).
    seq: u64,
    /// The batch, in per-link emission order; never empty.
    messages: Vec<M>,
}

#[derive(Clone)]
struct State<P: ConcurrencyProtocol> {
    nodes: Vec<P>,
    inflight: Vec<Flight<P::Message>>,
    /// Next action index per node.
    pc: Vec<usize>,
    /// Tickets granted so far, per node: (lock, ticket, mode).
    granted: Vec<Vec<(LockId, Ticket, Mode)>>,
    /// Tickets requested so far, per node (grant may be outstanding).
    requested: Vec<Vec<(LockId, Ticket)>>,
    /// Tickets cancelled, per node (their grants never surface).
    cancelled: Vec<Vec<(LockId, Ticket)>>,
    /// Monotonic per-link sequence counter.
    link_seq: u64,
    /// Pending protocol timer tokens per node, kept sorted.
    timers: Vec<Vec<u64>>,
    /// Messages lost so far (bounded by [`Checker::max_drops`]).
    drops_used: u32,
    /// Crash-stopped nodes (never processes anything again).
    crashed: Vec<bool>,
    /// Per-node: has this survivor's failure detector reported the
    /// *current* dead set? Reset on every new crash.
    suspected: Vec<bool>,
    /// False suspicions spent so far (bounded by
    /// [`Checker::max_false_suspects`]).
    false_suspects_used: u32,
}

/// The model checker, parameterized by protocol factory.
pub struct Checker<P: ConcurrencyProtocol> {
    make: Box<dyn Fn(usize, usize) -> Vec<P>>,
    /// Deliver messages per-link FIFO (TCP-like) instead of arbitrary order.
    pub fifo_links: bool,
    /// Abort after this many distinct states (guards against explosion).
    pub max_states: u64,
    /// Budget of in-flight messages the adversary may silently lose.
    /// `0` (the default) models reliable links; with a positive budget a
    /// `drop` step becomes enabled for every deliverable message, which
    /// only session-wrapped protocols survive (via retransmission).
    pub max_drops: u32,
    /// Collapse byte-identical in-flight duplicates on the same link into
    /// one. Sound only for idempotent transports (the session layer
    /// drops duplicates at the receiver), where delivering a clone twice
    /// is equivalent to delivering it once; unsound for raw protocols.
    pub collapse_duplicate_inflight: bool,
    /// Nodes the adversary may crash-stop, each at most once, at any
    /// reachable point. Empty (the default) disables crash steps. With
    /// candidates present every explored path eventually crashes them
    /// all and suspects them at every survivor, so the terminal-state
    /// liveness check ("every surviving requester granted") covers
    /// recovery on every path.
    pub crash_candidates: Vec<NodeId>,
    /// **Live** nodes the adversary's failure detectors may *falsely*
    /// suspect (modelling a severed link or a pause past the watchdog
    /// timeout), in addition to the actually-crashed set. A false
    /// suspicion at one survivor spreads to the rest through report
    /// merging, so a single step explores full recovered-around
    /// schedules — including the one where a coordinator that already
    /// installed an epoch is then suspected before its install lands.
    /// Each suspicion spends one unit of [`Checker::max_false_suspects`].
    pub false_suspect_candidates: Vec<NodeId>,
    /// Budget of false suspicions per explored path (`0`, the default,
    /// disables the step). With a positive budget the safety oracle
    /// compares nodes per epoch ([`hlock_core::EpochScope::PerEpoch`]):
    /// a falsely-suspected node keeps running at its stale epoch until
    /// fenced on contact, and its token and grants are voided leases.
    pub max_false_suspects: u32,
    /// Optional event sink: when attached, every explored transition
    /// emits the same [`ProtocolEvent`] vocabulary as the simulator and
    /// the TCP transport (see [`Checker::with_observer`]).
    observer: Option<RefCell<Box<dyn Observer>>>,
    /// Transition counter standing in for time: the checker is
    /// time-abstract, so events are stamped with the DFS step at which
    /// their transition executed.
    steps: Cell<u64>,
}

impl<P: ConcurrencyProtocol> Checker<P> {
    /// A checker over an arbitrary protocol factory (nodes, locks) →
    /// per-node protocol instances, with reliable FIFO links.
    pub fn with_factory(make: impl Fn(usize, usize) -> Vec<P> + 'static) -> Checker<P> {
        Checker {
            make: Box::new(make),
            fifo_links: true,
            max_states: 5_000_000,
            max_drops: 0,
            collapse_duplicate_inflight: false,
            crash_candidates: Vec::new(),
            false_suspect_candidates: Vec::new(),
            max_false_suspects: 0,
            observer: None,
            steps: Cell::new(0),
        }
    }

    /// Attaches an [`Observer`] receiving every [`ProtocolEvent`] the
    /// exploration produces, in DFS transition order. Because the
    /// checker is time-abstract, the timestamp is a transition counter
    /// rather than microseconds; events from different interleavings of
    /// the same scenario interleave in the stream.
    #[must_use]
    pub fn with_observer(mut self, observer: impl Observer + 'static) -> Self {
        self.observer = Some(RefCell::new(Box::new(observer)));
        self
    }

    /// Records a host-level event (delivery, drop, timer, audit); the
    /// closure never runs when no observer is attached.
    fn observe_with(&self, event: impl FnOnce() -> ProtocolEvent) {
        if let Some(obs) = &self.observer {
            let event = event();
            obs.borrow_mut().on_event(self.steps.get(), &event);
        }
    }
}

impl Checker<LockSpace> {
    /// A checker for the paper's hierarchical protocol.
    pub fn hierarchical(config: ProtocolConfig) -> Checker<LockSpace> {
        Checker::with_factory(move |nodes, locks| {
            (0..nodes).map(|i| LockSpace::new(NodeId(i as u32), locks, NodeId(0), config)).collect()
        })
    }
}

impl Checker<ShardedSpace> {
    /// A checker for the hierarchical protocol partitioned into `shards`
    /// shards per node — the deterministic twin of the threaded sharded
    /// runtime. Exhaustively verifies that hashing locks onto shards and
    /// round-robin shard draining never reorder one lock's messages or
    /// break mutual exclusion.
    pub fn hierarchical_sharded(config: ProtocolConfig, shards: usize) -> Checker<ShardedSpace> {
        let spec = ShardSpec::new(shards);
        Checker::with_factory(move |nodes, locks| {
            (0..nodes)
                .map(|i| ShardedSpace::new(NodeId(i as u32), locks, NodeId(0), config, spec))
                .collect()
        })
    }
}

impl Checker<RecoverySpace<LockSpace>> {
    /// A checker for the hierarchical protocol wrapped in the crash
    /// recovery layer. Pair with [`Checker::crash_candidates`] to let
    /// the adversary kill token homes at every reachable point; the
    /// survivors' epoch election must then regenerate lost tokens
    /// without ever producing two live ones, and every surviving
    /// scripted request must still be granted.
    ///
    /// Keep the cluster large enough that one crash leaves a majority
    /// (≥ 3 nodes): a minority remainder correctly stalls its election
    /// rather than regenerate a token a majority side might also own.
    pub fn hierarchical_recovery(config: ProtocolConfig) -> Checker<RecoverySpace<LockSpace>> {
        Checker::with_factory(move |nodes, locks| {
            (0..nodes)
                .map(|i| {
                    RecoverySpace::new(NodeId(i as u32), locks, NodeId(0), nodes as u32, config)
                })
                .collect()
        })
    }
}

impl Checker<RecoverySpace<ShardedSpace>> {
    /// A checker for the *sharded* hierarchical runtime wrapped in the
    /// crash recovery layer — proves that a crash (and the recovery
    /// round it triggers) cannot reorder or drop another shard's
    /// in-flight grants.
    pub fn hierarchical_sharded_recovery(
        config: ProtocolConfig,
        shards: usize,
    ) -> Checker<RecoverySpace<ShardedSpace>> {
        let spec = ShardSpec::new(shards);
        Checker::with_factory(move |nodes, locks| {
            (0..nodes)
                .map(|i| {
                    RecoverySpace::wrap(
                        ShardedSpace::new(NodeId(i as u32), locks, NodeId(0), config, spec),
                        (0..nodes as u32).map(NodeId),
                    )
                })
                .collect()
        })
    }
}

impl Checker<SessionSpace<LockSpace>> {
    /// A checker for the hierarchical protocol wrapped in the reliable
    /// session layer. Use [`SessionConfig::for_model_checking`] (retry
    /// cap off, jitter off) so the link state space stays finite; raise
    /// [`Checker::max_drops`] above zero to let the adversary lose
    /// frames and prove that retransmission restores every grant.
    pub fn hierarchical_session(
        config: ProtocolConfig,
        session: SessionConfig,
    ) -> Checker<SessionSpace<LockSpace>> {
        let mut checker = Checker::with_factory(move |nodes, locks| {
            (0..nodes)
                .map(|i| {
                    SessionSpace::new(
                        LockSpace::new(NodeId(i as u32), locks, NodeId(0), config),
                        session,
                    )
                })
                .collect()
        });
        checker.collapse_duplicate_inflight = true;
        checker
    }
}

impl Checker<NaimiSpace> {
    /// A checker for the Naimi–Trehel baseline.
    pub fn naimi() -> Checker<NaimiSpace> {
        Checker::with_factory(move |nodes, locks| {
            (0..nodes).map(|i| NaimiSpace::new(NodeId(i as u32), locks, NodeId(0))).collect()
        })
    }
}

impl<P> Checker<P>
where
    P: ConcurrencyProtocol + Inspect + Clone + Hash,
    P::Message: Hash + Debug + Clone + PartialEq,
{
    /// Explores all interleavings of `scenario`.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckError`] with a repro trace on the first violated
    /// property, or if the state budget is exhausted.
    pub fn run(&self, scenario: &Scenario) -> Result<CheckStats, CheckError> {
        let initial = State {
            nodes: (self.make)(scenario.nodes, scenario.locks),
            inflight: Vec::new(),
            pc: vec![0; scenario.nodes],
            granted: vec![Vec::new(); scenario.nodes],
            requested: vec![Vec::new(); scenario.nodes],
            cancelled: vec![Vec::new(); scenario.nodes],
            link_seq: 0,
            timers: vec![Vec::new(); scenario.nodes],
            drops_used: 0,
            crashed: vec![false; scenario.nodes],
            suspected: vec![false; scenario.nodes],
            false_suspects_used: 0,
        };
        let mut visited: HashSet<u64> = HashSet::new();
        visited.insert(fingerprint(&initial));
        let mut stats = CheckStats { states: 1, transitions: 0, terminals: 0 };
        // DFS with explicit stack of (state, trace).
        let mut stack: Vec<(State<P>, Vec<String>)> = vec![(initial, Vec::new())];
        while let Some((state, trace)) = stack.pop() {
            let steps = self.enabled_steps(scenario, &state);
            if steps.is_empty() {
                stats.terminals += 1;
                self.check_terminal(scenario, &state, &trace)?;
                continue;
            }
            for step in steps {
                let mut next = state.clone();
                let label = self
                    .apply(scenario, &mut next, step)
                    .map_err(|msg| CheckError { message: msg, trace: trace.clone() })?;
                stats.transitions += 1;
                self.check_safety(scenario, &next, &trace, &label)?;
                let fp = fingerprint(&next);
                if visited.insert(fp) {
                    stats.states += 1;
                    if stats.states > self.max_states {
                        return Err(CheckError {
                            message: format!("state budget exceeded ({} states)", stats.states),
                            trace,
                        });
                    }
                    let mut t = trace.clone();
                    t.push(label);
                    stack.push((next, t));
                }
            }
        }
        Ok(stats)
    }

    fn enabled_steps(&self, scenario: &Scenario, s: &State<P>) -> Vec<Step> {
        let mut steps = Vec::new();
        // Message deliveries (and, within the drop budget, losses).
        for (i, f) in s.inflight.iter().enumerate() {
            if self.fifo_links {
                // Only the oldest message per (from, to) link is deliverable.
                let oldest = s
                    .inflight
                    .iter()
                    .filter(|g| g.from == f.from && g.to == f.to)
                    .min_by_key(|g| g.seq)
                    .map(|g| g.seq);
                if oldest != Some(f.seq) {
                    continue;
                }
            }
            steps.push(Step::Deliver(i));
            if s.drops_used < self.max_drops {
                steps.push(Step::Drop(i));
            }
        }
        // Protocol timer firings (time-abstract: any pending timer may
        // fire whenever the scheduler chooses).
        for (n, tokens) in s.timers.iter().enumerate() {
            for &token in tokens {
                steps.push(Step::Timer { node: NodeId(n as u32), token });
            }
        }
        // Adversarial crash-stop failures: each candidate may die at any
        // reachable point, at most once.
        for &c in &self.crash_candidates {
            if !s.crashed[c.index()] {
                steps.push(Step::Crash(c));
            }
        }
        // Failure detection: once anything has crashed, every survivor's
        // watchdog eventually reports the full dead set. For protocols
        // with a failure detector the step stays enabled until the
        // node's own dead view covers every crashed peer — so a heal
        // triggered by a pre-crash in-flight message re-arms it, exactly
        // as a real watchdog re-fires while requests stay outstanding.
        // No terminal state precedes complete detection: recovery is
        // forced on every path. Detector-less protocols fall back to
        // the one-shot `suspected` flag (their on_suspect is a no-op,
        // so introspection would re-enable the step forever).
        if s.crashed.iter().any(|&c| c) {
            for n in 0..scenario.nodes {
                if s.crashed[n] || s.suspected[n] {
                    continue;
                }
                let undetected = (0..scenario.nodes)
                    .any(|c| s.crashed[c] && !s.nodes[n].suspects(NodeId(c as u32)));
                if undetected {
                    steps.push(Step::Suspect(NodeId(n as u32)));
                }
            }
        }
        // Adversarial false suspicion: any live detector may, within the
        // budget, name a live candidate dead alongside the real crashed
        // set — the trigger for epoch fencing and for the
        // concurrent-coordinator election schedules.
        if s.false_suspects_used < self.max_false_suspects {
            for &victim in &self.false_suspect_candidates {
                if s.crashed[victim.index()] {
                    continue;
                }
                for n in 0..scenario.nodes {
                    if !s.crashed[n] && NodeId(n as u32) != victim {
                        steps.push(Step::FalseSuspect { at: NodeId(n as u32), victim });
                    }
                }
            }
        }
        // Script actions (crashed nodes execute nothing further).
        for n in 0..scenario.nodes {
            if s.crashed[n] {
                continue;
            }
            let Some(action) = scenario.scripts[n].get(s.pc[n]) else { continue };
            let enabled = match *action {
                Action::Request { .. } | Action::RequestWithPriority { .. } => true,
                Action::Release { lock, ticket }
                | Action::Upgrade { lock, ticket }
                | Action::Downgrade { lock, ticket, .. } => {
                    s.granted[n].iter().any(|&(l, t, _)| l == lock && t == ticket)
                }
                // Cancel races the grant: always enabled once requested.
                // If the grant won, the cancel degrades to a release
                // (mirroring the transport's timeout behavior).
                Action::Cancel { lock, ticket } => {
                    s.requested[n].iter().any(|&(l, t)| l == lock && t == ticket)
                }
            };
            if enabled {
                steps.push(Step::Script(NodeId(n as u32)));
            }
        }
        steps
    }

    fn apply(&self, _scenario: &Scenario, s: &mut State<P>, step: Step) -> Result<String, String> {
        self.steps.set(self.steps.get() + 1);
        let mut fx = EffectSink::new();
        fx.set_observing(self.observer.is_some());
        let label;
        match step {
            Step::Deliver(i) => {
                let f = s.inflight.remove(i);
                label = format!("deliver {} {}→{}", batch_label(&f.messages), f.from, f.to);
                for m in &f.messages {
                    let kind = m.kind();
                    self.observe_with(|| ProtocolEvent::Delivered {
                        node: f.to,
                        from: f.from,
                        kind,
                    });
                }
                // Route through the shared runtime so stale-epoch frames
                // are fenced exactly as in the simulator and on TCP.
                let mut fencer: HostRuntime<P::Message> = HostRuntime::new();
                fencer.deliver(&mut s.nodes[f.to.index()], f.from, f.messages, &mut fx);
                self.absorb(s, f.to, fx)?;
            }
            Step::Drop(i) => {
                // The whole frame is lost: batched messages share fate on
                // the wire, so the adversary cannot split a batch.
                let f = s.inflight.remove(i);
                s.drops_used += 1;
                label = format!("drop {} {}→{}", batch_label(&f.messages), f.from, f.to);
                for m in &f.messages {
                    let kind = m.kind();
                    self.observe_with(|| ProtocolEvent::Dropped { node: f.to, from: f.from, kind });
                }
            }
            Step::Crash(node) => {
                label = format!("{node} crashes");
                s.crashed[node.index()] = true;
                // Close every span the dead node still had open: its
                // outstanding requests can never be granted, and an
                // observer tracking span balance must see a terminal
                // event for each (mirrors the simulator's crash aborts).
                let mut dead_reqs = s.nodes[node.index()].open_requests();
                dead_reqs.sort_unstable();
                for (lock, ticket) in dead_reqs {
                    self.observe_with(|| ProtocolEvent::RequestAborted {
                        node,
                        lock,
                        span: SpanId::new(node, ticket),
                    });
                }
                // Crash-stop: nothing addressed to the dead node is ever
                // processed — discarding those frames now is equivalent
                // and keeps the state space smaller. Its timers die too.
                s.inflight.retain(|f| f.to != node);
                s.timers[node.index()].clear();
                // A new failure means every survivor's detector must
                // (re-)report before any terminal state is reachable.
                for v in s.suspected.iter_mut() {
                    *v = false;
                }
            }
            Step::Suspect(node) => {
                let dead: Vec<NodeId> = (0..s.crashed.len())
                    .filter(|&i| s.crashed[i])
                    .map(|i| NodeId(i as u32))
                    .collect();
                label = format!("{node} suspects {dead:?}");
                // A detector-backed protocol (on_suspect handled) is
                // re-armed through `Inspect::suspects` introspection in
                // `enabled_steps`; only detector-less protocols latch
                // the one-shot flag here.
                let handled = s.nodes[node.index()].on_suspect(&dead, &mut fx);
                s.suspected[node.index()] = !handled;
                self.absorb(s, node, fx)?;
            }
            Step::FalseSuspect { at, victim } => {
                let mut dead: Vec<NodeId> = (0..s.crashed.len())
                    .filter(|&i| s.crashed[i])
                    .map(|i| NodeId(i as u32))
                    .collect();
                dead.push(victim);
                label = format!("{at} falsely suspects {victim}");
                s.false_suspects_used += 1;
                s.nodes[at.index()].on_suspect(&dead, &mut fx);
                self.absorb(s, at, fx)?;
            }
            Step::Timer { node, token } => {
                label = format!("{node} timer {token:#x}");
                s.timers[node.index()].retain(|&t| t != token);
                self.observe_with(|| ProtocolEvent::TimerFired { node, token });
                s.nodes[node.index()].on_timer(token, &mut fx);
                self.absorb(s, node, fx)?;
            }
            Step::Script(node) => {
                let action = {
                    let pc = s.pc[node.index()];
                    s.pc[node.index()] = pc + 1;
                    // scripts are static; re-fetch by index
                    _scenario.scripts[node.index()][pc]
                };
                match action {
                    Action::Request { lock, mode, ticket } => {
                        label = format!("{node} request {mode} on {lock}");
                        s.requested[node.index()].push((lock, ticket));
                        s.nodes[node.index()]
                            .request(lock, mode, ticket, &mut fx)
                            .map_err(|e| format!("script misuse: {e}"))?;
                    }
                    Action::RequestWithPriority { lock, mode, ticket, priority } => {
                        label = format!("{node} request {mode} {priority} on {lock}");
                        s.requested[node.index()].push((lock, ticket));
                        s.nodes[node.index()]
                            .request_with_priority(lock, mode, ticket, priority, &mut fx)
                            .map_err(|e| format!("script misuse: {e}"))?;
                    }
                    Action::Release { lock, ticket } => {
                        label = format!("{node} release {ticket} on {lock}");
                        s.granted[node.index()].retain(|&(l, t, _)| !(l == lock && t == ticket));
                        s.nodes[node.index()]
                            .release(lock, ticket, &mut fx)
                            .map_err(|e| format!("script misuse: {e}"))?;
                    }
                    Action::Upgrade { lock, ticket } => {
                        label = format!("{node} upgrade {ticket} on {lock}");
                        // The W grant will be re-recorded via effects.
                        s.granted[node.index()].retain(|&(l, t, _)| !(l == lock && t == ticket));
                        s.nodes[node.index()]
                            .upgrade(lock, ticket, &mut fx)
                            .map_err(|e| format!("script misuse: {e}"))?;
                    }
                    Action::Cancel { lock, ticket } => {
                        let won = s.granted[node.index()]
                            .iter()
                            .any(|&(l, t, _)| l == lock && t == ticket);
                        if won {
                            // Grant raced ahead: cancel degrades to release.
                            label = format!("{node} cancel->release {ticket} on {lock}");
                            s.granted[node.index()]
                                .retain(|&(l, t, _)| !(l == lock && t == ticket));
                            s.nodes[node.index()]
                                .release(lock, ticket, &mut fx)
                                .map_err(|e| format!("script misuse: {e}"))?;
                        } else {
                            label = format!("{node} cancel {ticket} on {lock}");
                            s.cancelled[node.index()].push((lock, ticket));
                            s.nodes[node.index()]
                                .cancel(lock, ticket, &mut fx)
                                .map_err(|e| format!("script misuse: {e}"))?;
                        }
                    }
                    Action::Downgrade { lock, ticket, to } => {
                        label = format!("{node} downgrade {ticket} to {to} on {lock}");
                        for g in &mut s.granted[node.index()] {
                            if g.0 == lock && g.1 == ticket {
                                g.2 = to;
                            }
                        }
                        s.nodes[node.index()]
                            .downgrade(lock, ticket, to, &mut fx)
                            .map_err(|e| format!("script misuse: {e}"))?;
                    }
                }
                self.absorb(s, node, fx)?;
            }
        }
        Ok(label)
    }

    /// Moves effects into state through the shared [`HostRuntime`]: each
    /// per-destination batch becomes one in-flight frame, grants are
    /// recorded, timers become pending (time-abstract) firings.
    fn absorb(
        &self,
        s: &mut State<P>,
        node: NodeId,
        mut fx: EffectSink<P::Message>,
    ) -> Result<(), String> {
        let mut runtime = HostRuntime::new();
        let mut host =
            CheckHost { s, node, collapse_duplicate_inflight: self.collapse_duplicate_inflight };
        if let Some(obs) = &self.observer {
            let mut obs = obs.borrow_mut();
            runtime.dispatch_observed(&mut fx, &mut host, node, &mut **obs, self.steps.get());
        } else {
            runtime.dispatch(&mut fx, &mut host);
        }
        Ok(())
    }

    /// Safety in every state: [`hlock_core::audit_live`] over the live
    /// nodes. A crashed node's frozen state is dead by definition, and
    /// the whole point of epoch fencing is that the regenerated token
    /// can never coexist with a *live* copy of the old one.
    fn check_safety(
        &self,
        scenario: &Scenario,
        s: &State<P>,
        trace: &[String],
        label: &str,
    ) -> Result<(), CheckError> {
        let findings = audit_live(&live(s), scenario.locks, self.scope(), self.steps.get());
        match findings.into_iter().next() {
            Some(first) => Err(self.err(first.detail, trace, label)),
            None => Ok(()),
        }
    }

    /// The oracle's [`EpochScope`]: per epoch when the adversary may
    /// falsely suspect a live node (see [`Checker::max_false_suspects`]).
    fn scope(&self) -> EpochScope {
        EpochScope::for_run(self.max_false_suspects > 0)
    }

    /// Terminal states must have completed every script and be quiescent.
    fn check_terminal(
        &self,
        scenario: &Scenario,
        s: &State<P>,
        trace: &[String],
    ) -> Result<(), CheckError> {
        if !s.inflight.is_empty() {
            // Unreachable: deliveries are always enabled.
            return Err(self.err("terminal state with in-flight messages".into(), trace, "end"));
        }
        // Per-node failure-detector/epoch summary, appended to liveness
        // failures so stuck-election states are diagnosable from the
        // error alone.
        let diag = || {
            (0..scenario.nodes)
                .map(|n| {
                    if s.crashed[n] {
                        return format!("n{n}: crashed");
                    }
                    let node = &s.nodes[n];
                    let suspects: Vec<u32> =
                        (0..scenario.nodes as u32).filter(|&p| node.suspects(NodeId(p))).collect();
                    format!(
                        "n{n}: epoch {}{}{}",
                        node.epoch(),
                        if node.frozen() { ", frozen" } else { "" },
                        if suspects.is_empty() {
                            String::new()
                        } else {
                            format!(", suspects {suspects:?}")
                        }
                    )
                })
                .collect::<Vec<_>>()
                .join("; ")
        };
        for n in 0..scenario.nodes {
            // A crashed node's remaining script is exempt — liveness is
            // owed to survivors only.
            if s.crashed[n] {
                continue;
            }
            if s.pc[n] != scenario.scripts[n].len() {
                return Err(self.err(
                    format!(
                        "deadlock: node n{n} stuck at script step {} of {} \
                         (a request was never granted) [{}]",
                        s.pc[n],
                        scenario.scripts[n].len(),
                        diag()
                    ),
                    trace,
                    "end",
                ));
            }
            if !s.nodes[n].is_quiescent() {
                return Err(self.err(
                    format!("node n{n} not quiescent in terminal state [{}]", diag()),
                    trace,
                    "end",
                ));
            }
        }
        // At rest: one live token per lock — after a recovery, the
        // regenerated (or surviving) one — and, while no node has crashed
        // or been recovered around, a consistent tree.
        let whole = !s.crashed.contains(&true) && s.false_suspects_used == 0;
        let (live, at) = (live(s), self.steps.get());
        let mut report = |_, e: &ProtocolEvent| self.observe_with(|| e.clone());
        match audit_at_rest(&live, scenario.locks, self.scope(), whole, at, &mut report).first() {
            Some(f) => Err(self.err(format!("terminal-state audit: {}", f.detail), trace, "end")),
            None => Ok(()),
        }
    }

    fn err(&self, message: String, trace: &[String], label: &str) -> CheckError {
        let mut t = trace.to_vec();
        t.push(label.to_string());
        CheckError { message, trace: t }
    }
}

/// The live nodes of `s`, for the safety oracle.
fn live<P: ConcurrencyProtocol + Inspect>(s: &State<P>) -> Vec<(NodeId, &P)> {
    s.nodes
        .iter()
        .zip(&s.crashed)
        .filter(|(_, &dead)| !dead)
        .map(|(n, _)| (n.node_id(), n))
        .collect()
}

/// The model checker's [`BatchHost`]: state mutation only, no I/O. The
/// runtime's counters and scratch never enter [`State`], so fingerprints
/// are unaffected by accounting.
struct CheckHost<'a, P: ConcurrencyProtocol> {
    s: &'a mut State<P>,
    node: NodeId,
    collapse_duplicate_inflight: bool,
}

impl<P> BatchHost<P::Message> for CheckHost<'_, P>
where
    P: ConcurrencyProtocol,
    P::Message: PartialEq,
{
    fn on_batch(&mut self, to: NodeId, messages: Vec<P::Message>) {
        let node = self.node;
        // A crash-stopped destination never processes anything: the
        // frame would sit in a dead socket buffer, so it never enters
        // the in-flight set at all.
        if self.s.crashed[to.index()] {
            return;
        }
        if self.collapse_duplicate_inflight
            && self
                .s
                .inflight
                .iter()
                .any(|g| g.from == node && g.to == to && g.messages == messages)
        {
            return;
        }
        self.s.link_seq += 1;
        let seq = self.s.link_seq;
        self.s.inflight.push(Flight { from: node, to, seq, messages });
    }

    fn on_granted(&mut self, lock: LockId, ticket: Ticket, mode: Mode) {
        debug_assert!(
            !self.s.cancelled[self.node.index()].contains(&(lock, ticket)),
            "cancelled tickets never surface grants"
        );
        self.s.granted[self.node.index()].push((lock, ticket, mode));
    }

    fn on_set_timer(&mut self, token: u64, _delay_micros: u64) {
        // Delays are abstracted away; only the pending-firing set
        // matters. Re-arming an armed timer is a no-op.
        let pending = &mut self.s.timers[self.node.index()];
        if let Err(at) = pending.binary_search(&token) {
            pending.insert(at, token);
        }
    }
}

/// Human-readable kinds of one batch, e.g. `[request+grant]`.
fn batch_label<M: Classify>(messages: &[M]) -> String {
    let kinds: Vec<String> = messages.iter().map(|m| format!("{:?}", m.kind())).collect();
    format!("[{}]", kinds.join("+"))
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Deliver(usize),
    Drop(usize),
    Timer {
        node: NodeId,
        token: u64,
    },
    Script(NodeId),
    /// Crash-stop `node` permanently (adversarial schedule point).
    Crash(NodeId),
    /// `node`'s failure detector reports the current dead set.
    Suspect(NodeId),
    /// `at`'s failure detector falsely names the live `victim` dead
    /// (alongside the real crashed set).
    FalseSuspect {
        at: NodeId,
        victim: NodeId,
    },
}

fn fingerprint<P>(s: &State<P>) -> u64
where
    P: ConcurrencyProtocol + Hash,
    P::Message: Hash,
{
    let mut h = DefaultHasher::new();
    s.nodes.hash(&mut h);
    s.pc.hash(&mut h);
    s.granted.hash(&mut h);
    s.requested.hash(&mut h);
    s.cancelled.hash(&mut h);
    s.timers.hash(&mut h);
    s.drops_used.hash(&mut h);
    s.crashed.hash(&mut h);
    s.suspected.hash(&mut h);
    s.false_suspects_used.hash(&mut h);
    // In-flight frames as an (unordered) multiset: combine per-frame
    // hashes commutatively, keeping per-link order via seq normalization.
    let mut flight_hash: u64 = 0;
    for f in &s.inflight {
        let mut fh = DefaultHasher::new();
        f.from.hash(&mut fh);
        f.to.hash(&mut fh);
        f.messages.hash(&mut fh);
        // Relative order on the link matters; absolute seq does not.
        let rank =
            s.inflight.iter().filter(|g| g.from == f.from && g.to == f.to && g.seq < f.seq).count();
        rank.hash(&mut fh);
        flight_hash = flight_hash.wrapping_add(fh.finish());
    }
    flight_hash.hash(&mut h);
    h.finish()
}

/// Messages need `Hash` for fingerprints; provide it for the core types.
mod hash_impls {
    // Payload and Envelope derive Hash? They contain Vec<QueueEntry> etc.
    // hlock-core derives Hash where needed; nothing to do here.
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_writers() -> Scenario {
        Scenario::new(3, 1)
            .script(
                NodeId(1),
                vec![
                    Action::request(LockId(0), Mode::Write, Ticket(1)),
                    Action::release(LockId(0), Ticket(1)),
                ],
            )
            .script(
                NodeId(2),
                vec![
                    Action::request(LockId(0), Mode::Write, Ticket(2)),
                    Action::release(LockId(0), Ticket(2)),
                ],
            )
    }

    #[test]
    fn hierarchical_two_writers_all_interleavings() {
        let stats =
            Checker::hierarchical(ProtocolConfig::default()).run(&two_writers()).expect("safe");
        assert!(stats.states > 10);
        assert!(stats.terminals > 0);
    }

    #[test]
    fn naimi_two_writers_all_interleavings() {
        let stats = Checker::naimi().run(&two_writers()).expect("safe");
        assert!(stats.states > 10);
    }

    #[test]
    fn observer_reports_shared_event_vocabulary() {
        use std::rc::Rc;
        let names: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let sink = Rc::clone(&names);
        let stats = Checker::hierarchical(ProtocolConfig::default())
            .with_observer(move |_at: u64, e: &ProtocolEvent| sink.borrow_mut().push(e.name()))
            .run(&two_writers())
            .expect("safe");
        assert!(stats.states > 10);
        let names = names.borrow();
        // The checker speaks the exact vocabulary of the simulator and
        // the TCP transport: node lifecycle events plus transport legs.
        for expected in ["request_issued", "granted", "released", "message_sent", "delivered"] {
            assert!(names.iter().any(|n| n == &expected), "missing {expected}");
        }
    }

    #[test]
    fn unobserved_exploration_is_unperturbed_by_observer() {
        let plain =
            Checker::hierarchical(ProtocolConfig::default()).run(&two_writers()).expect("safe");
        let observed = Checker::hierarchical(ProtocolConfig::default())
            .with_observer(|_: u64, _: &ProtocolEvent| {})
            .run(&two_writers())
            .expect("safe");
        assert_eq!(plain.states, observed.states, "observation must not change the state graph");
        assert_eq!(plain.transitions, observed.transitions);
        assert_eq!(plain.terminals, observed.terminals);
    }

    #[test]
    fn readers_and_writer_mix() {
        let scenario = Scenario::new(3, 1)
            .script(
                NodeId(0),
                vec![
                    Action::request(LockId(0), Mode::Read, Ticket(1)),
                    Action::release(LockId(0), Ticket(1)),
                ],
            )
            .script(
                NodeId(1),
                vec![
                    Action::request(LockId(0), Mode::Read, Ticket(2)),
                    Action::release(LockId(0), Ticket(2)),
                ],
            )
            .script(
                NodeId(2),
                vec![
                    Action::request(LockId(0), Mode::Write, Ticket(3)),
                    Action::release(LockId(0), Ticket(3)),
                ],
            );
        let stats = Checker::hierarchical(ProtocolConfig::default()).run(&scenario).expect("safe");
        assert!(stats.terminals > 0);
    }

    #[test]
    fn upgrade_scenario() {
        let scenario = Scenario::new(2, 1)
            .script(
                NodeId(0),
                vec![
                    Action::request(LockId(0), Mode::Upgrade, Ticket(1)),
                    Action::upgrade(LockId(0), Ticket(1)),
                    Action::release(LockId(0), Ticket(1)),
                ],
            )
            .script(
                NodeId(1),
                vec![
                    Action::request(LockId(0), Mode::Read, Ticket(2)),
                    Action::release(LockId(0), Ticket(2)),
                ],
            );
        Checker::hierarchical(ProtocolConfig::default())
            .run(&scenario)
            .expect("upgrade interleavings safe");
    }

    #[test]
    fn session_wrapped_writer_all_interleavings() {
        // Reliable links: the wrapper must be invisible — every grant
        // still arrives, quiescence still reached in every terminal.
        let scenario = Scenario::new(2, 1).script(
            NodeId(1),
            vec![
                Action::request(LockId(0), Mode::Write, Ticket(1)),
                Action::release(LockId(0), Ticket(1)),
            ],
        );
        let stats = Checker::hierarchical_session(
            ProtocolConfig::default(),
            SessionConfig::for_model_checking(),
        )
        .run(&scenario)
        .expect("session wrapper preserves safety and progress");
        assert!(stats.terminals > 0);
    }

    #[test]
    fn session_survives_adversarial_message_loss() {
        // With a drop budget, the adversary may lose any deliverable
        // frame. Raw protocols deadlock (the request or grant vanishes);
        // the session layer must retransmit until every scripted grant
        // lands and every terminal state is quiescent.
        let scenario = Scenario::new(2, 1).script(
            NodeId(1),
            vec![
                Action::request(LockId(0), Mode::Write, Ticket(1)),
                Action::release(LockId(0), Ticket(1)),
            ],
        );
        let mut checker = Checker::hierarchical_session(
            ProtocolConfig::default(),
            SessionConfig::for_model_checking(),
        );
        checker.max_drops = 1;
        let stats = checker.run(&scenario).expect("retransmission restores liveness");
        assert!(stats.terminals > 0, "some execution must still terminate");
        assert!(stats.states > 10);
    }

    #[test]
    fn raw_protocol_deadlocks_under_message_loss() {
        // The inverse: the same drop budget against the raw hierarchical
        // protocol must produce a progress violation — this is exactly
        // the gap the session layer exists to close.
        let scenario = Scenario::new(2, 1).script(
            NodeId(1),
            vec![
                Action::request(LockId(0), Mode::Write, Ticket(1)),
                Action::release(LockId(0), Ticket(1)),
            ],
        );
        let mut checker = Checker::hierarchical(ProtocolConfig::default());
        checker.max_drops = 1;
        let err = checker.run(&scenario).expect_err("a lost frame must wedge raw links");
        assert!(
            err.message.contains("deadlock") || err.message.contains("not quiescent"),
            "unexpected violation: {}",
            err.message
        );
    }

    #[test]
    fn session_readers_and_writer_under_loss() {
        let scenario = Scenario::new(2, 1)
            .script(
                NodeId(0),
                vec![
                    Action::request(LockId(0), Mode::Read, Ticket(1)),
                    Action::release(LockId(0), Ticket(1)),
                ],
            )
            .script(
                NodeId(1),
                vec![
                    Action::request(LockId(0), Mode::Write, Ticket(2)),
                    Action::release(LockId(0), Ticket(2)),
                ],
            );
        let mut checker = Checker::hierarchical_session(
            ProtocolConfig::default(),
            SessionConfig::for_model_checking(),
        );
        checker.max_drops = 1;
        let stats = checker.run(&scenario).expect("mixed modes safe under loss");
        assert!(stats.terminals > 0);
    }

    #[test]
    fn batching_preserves_per_link_fifo() {
        // A single effect step that sends twice to the same peer must
        // yield ONE in-flight frame with both messages in emission order
        // — and the scenario sharing that path must still pass every
        // interleaving under FIFO links (the default), proving batching
        // cannot reorder a link.
        let checker = Checker::hierarchical(ProtocolConfig::default());
        let mut s = State {
            nodes: (checker.make)(2, 2),
            inflight: Vec::new(),
            pc: vec![0; 2],
            granted: vec![Vec::new(); 2],
            requested: vec![Vec::new(); 2],
            cancelled: vec![Vec::new(); 2],
            link_seq: 0,
            timers: vec![Vec::new(); 2],
            drops_used: 0,
            crashed: vec![false; 2],
            suspected: vec![false; 2],
            false_suspects_used: 0,
        };
        let mut fx = EffectSink::new();
        s.nodes[1]
            .request_batch(
                &[(LockId(0), Mode::IntentRead, Ticket(1)), (LockId(1), Mode::Read, Ticket(2))],
                &mut fx,
            )
            .expect("fresh tickets");
        checker.absorb(&mut s, NodeId(1), fx).unwrap();
        assert_eq!(s.inflight.len(), 1, "two requests to the token home share one frame");
        assert_eq!(s.inflight[0].to, NodeId(0));
        assert_eq!(s.inflight[0].messages.len(), 2, "both messages ride the frame in order");

        let scenario = Scenario::new(2, 2)
            .script(
                NodeId(0),
                vec![
                    Action::request(LockId(0), Mode::IntentWrite, Ticket(10)),
                    Action::release(LockId(0), Ticket(10)),
                ],
            )
            .script(
                NodeId(1),
                vec![
                    Action::request(LockId(0), Mode::IntentRead, Ticket(1)),
                    Action::request(LockId(1), Mode::Read, Ticket(2)),
                    Action::release(LockId(1), Ticket(2)),
                    Action::release(LockId(0), Ticket(1)),
                ],
            );
        let stats = Checker::hierarchical(ProtocolConfig::default())
            .run(&scenario)
            .expect("batched frames keep every interleaving safe and live");
        assert!(stats.terminals > 0);
    }

    #[test]
    fn recovery_flat_crash_token_home_every_point() {
        // Flat topology: one lock homed at n0, two surviving writers.
        // The adversary kills n0 at every reachable point; in every
        // state at most one live token may exist, and in every terminal
        // state both survivors' scripts completed post-recovery.
        use std::rc::Rc;
        let scenario = two_writers();
        let names: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let sink = Rc::clone(&names);
        let mut checker = Checker::hierarchical_recovery(ProtocolConfig::default())
            .with_observer(move |_: u64, e: &ProtocolEvent| sink.borrow_mut().push(e.name()));
        checker.crash_candidates = vec![NodeId(0)];
        let stats = checker.run(&scenario).expect("recovery keeps every crash schedule safe");
        assert!(stats.terminals > 0, "every path must reach a recovered terminal");
        // Inverse assertions: the crash schedules actually exercised
        // the election and at least one schedule lost the token.
        let names = names.borrow();
        for expected in ["recovery_started", "recovery_completed", "token_regenerated"] {
            assert!(names.iter().any(|n| n == &expected), "missing {expected}");
        }
    }

    #[test]
    fn recovery_hierarchical_crash_token_home_every_point() {
        // Hierarchical topology: intention locking on a parent/child
        // pair, token home n0 crashed at every reachable point.
        let scenario = Scenario::new(3, 2)
            .script(
                NodeId(1),
                vec![
                    Action::request(LockId(0), Mode::IntentWrite, Ticket(1)),
                    Action::request(LockId(1), Mode::Write, Ticket(2)),
                    Action::release(LockId(1), Ticket(2)),
                    Action::release(LockId(0), Ticket(1)),
                ],
            )
            .script(
                NodeId(2),
                vec![
                    Action::request(LockId(0), Mode::IntentRead, Ticket(3)),
                    Action::release(LockId(0), Ticket(3)),
                ],
            );
        let mut checker = Checker::hierarchical_recovery(ProtocolConfig::default());
        checker.crash_candidates = vec![NodeId(0)];
        let stats =
            checker.run(&scenario).expect("hierarchical scripts survive every crash schedule");
        assert!(stats.terminals > 0);
    }

    #[test]
    fn recovery_sharded_crash_preserves_other_shards() {
        // Sharded topology: two locks hashed onto two shards; a crash
        // during one shard's recovery must not drop or reorder the
        // other shard's in-flight grants.
        let scenario = Scenario::new(3, 2)
            .script(
                NodeId(1),
                vec![
                    Action::request(LockId(0), Mode::Write, Ticket(1)),
                    Action::release(LockId(0), Ticket(1)),
                ],
            )
            .script(
                NodeId(2),
                vec![
                    Action::request(LockId(1), Mode::Write, Ticket(2)),
                    Action::release(LockId(1), Ticket(2)),
                ],
            );
        let mut checker = Checker::hierarchical_sharded_recovery(ProtocolConfig::default(), 2);
        checker.crash_candidates = vec![NodeId(0)];
        let stats = checker.run(&scenario).expect("sharded recovery safe on every schedule");
        assert!(stats.terminals > 0);
    }

    #[test]
    fn recovery_survives_adversarial_false_suspicion() {
        // The adversary may once, at every reachable point and from
        // either survivor's detector, falsely suspect the live token
        // home n0. The others recover around it; n0's stale-epoch token
        // is a voided lease fenced on contact, so safety is epoch-scoped
        // (never two live tokens at the SAME epoch) and every live
        // node's script must still drain to a quiescent terminal.
        let scenario = two_writers();
        let mut checker = Checker::hierarchical_recovery(ProtocolConfig::default());
        checker.false_suspect_candidates = vec![NodeId(0)];
        checker.max_false_suspects = 1;
        let stats = checker.run(&scenario).expect("false suspicion keeps every schedule safe");
        assert!(stats.terminals > 0, "every path must still reach a quiescent terminal");
    }

    #[test]
    fn recovery_crash_plus_false_suspicion_converges() {
        // The compound schedule behind the same-epoch double-install
        // bug: n0 really crashes AND one survivor may falsely suspect
        // the other (including the election coordinator, possibly after
        // it has already installed). Total install ordering plus
        // teach-back must keep every interleaving safe and drain both
        // scripts.
        let scenario = two_writers();
        let mut checker = Checker::hierarchical_recovery(ProtocolConfig::default());
        checker.crash_candidates = vec![NodeId(0)];
        checker.false_suspect_candidates = vec![NodeId(1), NodeId(2)];
        checker.max_false_suspects = 1;
        let stats = checker.run(&scenario).expect("crash + false suspicion must converge");
        assert!(stats.terminals > 0);
    }

    #[test]
    fn raw_protocol_deadlocks_under_crash() {
        // The inverse: without the recovery wrapper the same crash
        // schedule must produce a progress violation — the token dies
        // with n0 and a survivor's request is never granted.
        let scenario = Scenario::new(3, 1).script(
            NodeId(1),
            vec![
                Action::request(LockId(0), Mode::Write, Ticket(1)),
                Action::release(LockId(0), Ticket(1)),
            ],
        );
        let mut checker = Checker::hierarchical(ProtocolConfig::default());
        checker.crash_candidates = vec![NodeId(0)];
        let err = checker.run(&scenario).expect_err("a dead token home must wedge raw protocols");
        assert!(
            err.message.contains("deadlock") || err.message.contains("token"),
            "unexpected violation: {}",
            err.message
        );
    }

    #[test]
    fn hierarchical_two_locks_intentions() {
        let scenario = Scenario::new(2, 2)
            .script(
                NodeId(0),
                vec![
                    Action::request(LockId(0), Mode::IntentWrite, Ticket(1)),
                    Action::request(LockId(1), Mode::Write, Ticket(2)),
                    Action::release(LockId(1), Ticket(2)),
                    Action::release(LockId(0), Ticket(1)),
                ],
            )
            .script(
                NodeId(1),
                vec![
                    Action::request(LockId(0), Mode::IntentRead, Ticket(3)),
                    Action::release(LockId(0), Ticket(3)),
                ],
            );
        Checker::hierarchical(ProtocolConfig::default())
            .run(&scenario)
            .expect("hierarchical scripts safe");
    }
}
