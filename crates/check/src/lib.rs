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
//! The state is the simulator's [`World`] plus each script's progress:
//! the search is a depth-first walk over [`World::enabled`] and
//! [`World::step`], so a step does here exactly what it does in the
//! simulator. Scenarios are scripts of [`Action`]s per node, executed in
//! order; a release or upgrade only becomes enabled once its ticket is
//! granted, so hold durations interleave arbitrarily with message
//! deliveries.
//!
//! ## Crash schedules
//!
//! With a non-empty [`Adversary::crash_candidates`] the adversary may
//! crash-stop each candidate at **every** reachable point: the node's
//! pending timers die, frames addressed to it are lost, and survivors'
//! failure detectors report the dead set (a `suspect` step per
//! survivor, kept enabled so no terminal state precedes full
//! detection). Deliveries are fenced by epoch exactly as in the
//! simulator and the TCP transport. Safety then holds over the **live**
//! nodes, and progress means every **surviving** requester is granted
//! after recovery — crashed nodes' scripts are exempt. Only
//! recovery-capable protocols (see [`Checker::hierarchical_recovery`])
//! pass; raw protocols deadlock.
//!
//! [`Adversary::false_suspect_candidates`] additionally lets the
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
    Classify, ConcurrencyProtocol, EpochScope, Inspect, LockId, LockSpace, Mode, NodeId, Observer,
    ProtocolConfig, ProtocolEvent, RecoverySpace, ShardSpec, ShardedSpace, Ticket,
};
use hlock_naimi::NaimiSpace;
use hlock_session::{SessionConfig, SessionSpace};
pub use hlock_sim::{Action, Adversary};
use hlock_sim::{Out, Step, World};
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};

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

    /// Sets node `node`'s script to request `lock` in `mode` under
    /// `ticket`, then release it.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn hold(self, node: NodeId, lock: LockId, mode: Mode, ticket: Ticket) -> Self {
        self.script(node, vec![Action::request(lock, mode, ticket), Action::release(lock, ticket)])
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

/// A search state: the world and each script's progress.
#[derive(Clone)]
struct State<P: ConcurrencyProtocol> {
    world: World<P>,
    /// Next action index per node.
    pc: Vec<usize>,
    /// Tickets granted so far, per node: (lock, ticket, mode).
    granted: Vec<Vec<(LockId, Ticket, Mode)>>,
    /// Tickets requested so far, per node (grant may be outstanding).
    requested: Vec<Vec<(LockId, Ticket)>>,
    /// Tickets cancelled, per node (their grants never surface).
    cancelled: Vec<Vec<(LockId, Ticket)>>,
}

/// The model checker, parameterized by protocol factory.
pub struct Checker<P: ConcurrencyProtocol> {
    make: Box<dyn Fn(usize, usize) -> Vec<P>>,
    /// What the adversary may do besides delivering frames in link order
    /// and firing timers: lose frames, crash nodes, suspect live ones.
    /// The default models reliable links and no faults.
    pub adversary: Adversary,
    /// Abort after this many distinct states (guards against explosion).
    pub max_states: u64,
    /// Collapse byte-identical in-flight duplicates on the same link into
    /// one. Sound only for idempotent transports (the session layer
    /// drops duplicates at the receiver), where delivering a clone twice
    /// is equivalent to delivering it once; unsound for raw protocols.
    pub collapse_duplicate_inflight: bool,
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
            adversary: Adversary::default(),
            max_states: 5_000_000,
            collapse_duplicate_inflight: false,
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

    /// Hands `event` to the observer, if one is attached.
    fn observe(&self, event: &ProtocolEvent) {
        if let Some(obs) = &self.observer {
            obs.borrow_mut().on_event(self.steps.get(), event);
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
    /// recovery layer. Pair with [`Adversary::crash_candidates`] to let
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
    /// [`Adversary::max_drops`] above zero to let the adversary lose
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
        let n = scenario.nodes;
        let spaces = (self.make)(n, scenario.locks);
        let initial = State {
            world: World::new(spaces, self.observer.is_some()),
            pc: vec![0; n],
            granted: vec![Vec::new(); n],
            requested: vec![Vec::new(); n],
            cancelled: vec![Vec::new(); n],
        };
        let mut visited: HashSet<u64> = HashSet::new();
        visited.insert(fingerprint(&initial));
        let mut stats = CheckStats { states: 1, transitions: 0, terminals: 0 };
        // DFS with explicit stack of (state, trace).
        let mut stack: Vec<(State<P>, Vec<String>)> = vec![(initial, Vec::new())];
        while let Some((state, trace)) = stack.pop() {
            let steps = self.enabled(scenario, &state);
            if steps.is_empty() {
                stats.terminals += 1;
                self.check_terminal(scenario, &state, &trace)?;
                continue;
            }
            for step in steps {
                let mut next = state.clone();
                let label = self
                    .apply(&mut next, step)
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

    /// The world's enabled steps, then each live node's next script
    /// action if it is enabled: a release, upgrade or downgrade once its
    /// ticket is granted, a cancel once requested (it races the grant).
    fn enabled(&self, scenario: &Scenario, s: &State<P>) -> Vec<Step> {
        let mut steps = Vec::new();
        s.world.enabled(&self.adversary, &mut steps);
        for n in (0..scenario.nodes).filter(|&n| !s.world.crashed()[n]) {
            let Some(&action) = scenario.scripts[n].get(s.pc[n]) else { continue };
            let holds =
                |lock, ticket| s.granted[n].iter().any(|&(l, t, _)| l == lock && t == ticket);
            let enabled = match action {
                Action::Request { .. } | Action::RequestWithPriority { .. } => true,
                Action::Release { lock, ticket }
                | Action::Upgrade { lock, ticket }
                | Action::Downgrade { lock, ticket, .. } => holds(lock, ticket),
                Action::Cancel { lock, ticket } => s.requested[n].contains(&(lock, ticket)),
            };
            if enabled {
                steps.push(Step::Call { node: NodeId(n as u32), calls: vec![action] });
            }
        }
        steps
    }

    /// Applies `step` to `s` and returns its trace label. A script step
    /// advances its node's script; a cancel whose grant raced ahead
    /// degrades to a release, as on the transport's timeout path.
    fn apply(&self, s: &mut State<P>, step: Step) -> Result<String, String> {
        self.steps.set(self.steps.get() + 1);
        let w = &s.world;
        let (label, node, step) = match step {
            Step::Call { node, ref calls } => {
                let (label, call) = Self::script(s, node, calls[0]);
                s.pc[node.index()] += 1;
                (label, node, Step::Call { node, calls: vec![call] })
            }
            Step::Deliver(id) | Step::Drop(id) | Step::Duplicate(id) => {
                let f = w.flight(id);
                // The adversary never duplicates (only the simulator does).
                let verb = if let Step::Drop(_) = step { "drop" } else { "deliver" };
                let kinds: Vec<String> =
                    f.messages.iter().map(|m| format!("{:?}", m.kind())).collect();
                (format!("{verb} [{}] {}→{}", kinds.join("+"), f.from, f.to), f.to, step)
            }
            Step::Timer { node, token } => (format!("{node} timer {token:#x}"), node, step),
            Step::Crash(node) => (format!("{node} crashes"), node, step),
            Step::Suspect { at, ref dead } => {
                let label = match dead.iter().find(|d| !w.crashed()[d.index()]) {
                    Some(victim) => format!("{at} falsely suspects {victim}"),
                    None => format!("{at} suspects {dead:?}"),
                };
                (label, at, step)
            }
        };
        let mut out = Vec::new();
        s.world.step(&step, &mut out).map_err(|e| format!("script misuse: {e}"))?;
        for event in s.world.events() {
            self.observe(event);
        }
        for &done in &out {
            if let Out::Granted { lock, ticket, mode } = done {
                debug_assert!(
                    !s.cancelled[node.index()].contains(&(lock, ticket)),
                    "cancelled tickets never surface grants"
                );
                s.granted[node.index()].push((lock, ticket, mode));
            }
        }
        // A smaller state space: frames no step could deliver to any
        // effect leave the network at once.
        s.world.reduce(&out, self.collapse_duplicate_inflight);
        Ok(label)
    }

    /// The trace label of `node`'s scripted `action`, the call it makes,
    /// and the script's bookkeeping of requested, granted and cancelled
    /// tickets.
    fn script(s: &mut State<P>, node: NodeId, action: Action) -> (String, Action) {
        let n = node.index();
        let forget = |granted: &mut Vec<(LockId, Ticket, Mode)>, lock, ticket| {
            granted.retain(|&(l, t, _)| !(l == lock && t == ticket));
        };
        let label = match action {
            Action::Request { lock, mode, ticket } => {
                s.requested[n].push((lock, ticket));
                format!("{node} request {mode} on {lock}")
            }
            Action::RequestWithPriority { lock, mode, ticket, priority } => {
                s.requested[n].push((lock, ticket));
                format!("{node} request {mode} {priority} on {lock}")
            }
            Action::Release { lock, ticket } => {
                forget(&mut s.granted[n], lock, ticket);
                format!("{node} release {ticket} on {lock}")
            }
            Action::Upgrade { lock, ticket } => {
                // The W grant will be re-recorded from the step's grants.
                forget(&mut s.granted[n], lock, ticket);
                format!("{node} upgrade {ticket} on {lock}")
            }
            Action::Cancel { lock, ticket } => {
                if s.granted[n].iter().any(|&(l, t, _)| l == lock && t == ticket) {
                    forget(&mut s.granted[n], lock, ticket);
                    let label = format!("{node} cancel->release {ticket} on {lock}");
                    return (label, Action::Release { lock, ticket });
                }
                s.cancelled[n].push((lock, ticket));
                format!("{node} cancel {ticket} on {lock}")
            }
            Action::Downgrade { lock, ticket, to } => {
                for g in s.granted[n].iter_mut().filter(|g| g.0 == lock && g.1 == ticket) {
                    g.2 = to;
                }
                format!("{node} downgrade {ticket} to {to} on {lock}")
            }
        };
        (label, action)
    }

    /// Safety in every state: [`World::audit`] over the live nodes. A
    /// crashed node's frozen state is dead by definition, and the whole
    /// point of epoch fencing is that the regenerated token can never
    /// coexist with a *live* copy of the old one.
    fn check_safety(
        &self,
        scenario: &Scenario,
        s: &State<P>,
        trace: &[String],
        label: &str,
    ) -> Result<(), CheckError> {
        let findings = s.world.audit(scenario.locks, self.scope(), self.steps.get(), false);
        match findings.into_iter().next() {
            Some(first) => Err(self.err(first.detail, trace, label)),
            None => Ok(()),
        }
    }

    /// The oracle's [`EpochScope`]: per epoch when the adversary may
    /// falsely suspect a live node (see [`Adversary::max_false_suspects`]).
    fn scope(&self) -> EpochScope {
        EpochScope::for_run(self.adversary.max_false_suspects > 0)
    }

    /// Terminal states must have completed every script and be quiescent.
    fn check_terminal(
        &self,
        scenario: &Scenario,
        s: &State<P>,
        trace: &[String],
    ) -> Result<(), CheckError> {
        if s.world.inflight().next().is_some() {
            // Unreachable: deliveries are always enabled.
            return Err(self.err("terminal state with in-flight messages".into(), trace, "end"));
        }
        // Per-node failure-detector/epoch summary, appended to liveness
        // failures so stuck-election states are diagnosable from the
        // error alone.
        let diag = || {
            (0..scenario.nodes)
                .map(|n| {
                    if s.world.crashed()[n] {
                        return format!("n{n}: crashed");
                    }
                    let node = &s.world.spaces()[n];
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
            if s.world.crashed()[n] {
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
            if !s.world.spaces()[n].is_quiescent() {
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
        match s.world.audit(scenario.locks, self.scope(), self.steps.get(), true).first() {
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

/// The state's fingerprint: the world's, plus the scripts' progress.
fn fingerprint<P>(s: &State<P>) -> u64
where
    P: ConcurrencyProtocol + Inspect + Hash,
    P::Message: Hash,
{
    let mut h = DefaultHasher::new();
    (s.world.fingerprint(), &s.pc, &s.granted, &s.requested, &s.cancelled).hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<P> Checker<P>
    where
        P: ConcurrencyProtocol + Inspect + Clone + Hash,
        P::Message: Hash + Debug + Clone + PartialEq,
    {
        /// `Checker::run`, printing what the search explored and how fast
        /// (the model-check CI job runs these tests with `--nocapture`).
        fn explore(&self, scenario: &Scenario) -> Result<CheckStats, CheckError> {
            let started = std::time::Instant::now();
            let result = self.run(scenario);
            if let Ok(s) = &result {
                let rate = s.states as f64 / started.elapsed().as_secs_f64();
                let test = std::thread::current().name().unwrap_or("?").to_string();
                eprintln!(
                    "{test}: {} states, {} transitions, {rate:.0} states/s",
                    s.states, s.transitions
                );
            }
            result
        }
    }

    /// Node 1 takes and releases the one lock; node 0 holds its token.
    fn one_writer() -> Scenario {
        Scenario::new(2, 1).hold(NodeId(1), LockId(0), Mode::Write, Ticket(1))
    }

    fn two_writers() -> Scenario {
        Scenario::new(3, 1).hold(NodeId(1), LockId(0), Mode::Write, Ticket(1)).hold(
            NodeId(2),
            LockId(0),
            Mode::Write,
            Ticket(2),
        )
    }

    #[test]
    fn hierarchical_two_writers_all_interleavings() {
        let stats =
            Checker::hierarchical(ProtocolConfig::default()).explore(&two_writers()).expect("safe");
        assert!(stats.states > 10);
        assert!(stats.terminals > 0);
    }

    #[test]
    fn naimi_two_writers_all_interleavings() {
        let stats = Checker::naimi().explore(&two_writers()).expect("safe");
        assert!(stats.states > 10);
    }

    #[test]
    fn observer_reports_shared_event_vocabulary() {
        use std::rc::Rc;
        let names: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let sink = Rc::clone(&names);
        let stats = Checker::hierarchical(ProtocolConfig::default())
            .with_observer(move |_at: u64, e: &ProtocolEvent| sink.borrow_mut().push(e.name()))
            .explore(&two_writers())
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
            Checker::hierarchical(ProtocolConfig::default()).explore(&two_writers()).expect("safe");
        let observed = Checker::hierarchical(ProtocolConfig::default())
            .with_observer(|_: u64, _: &ProtocolEvent| {})
            .explore(&two_writers())
            .expect("safe");
        assert_eq!(plain.states, observed.states, "observation must not change the state graph");
        assert_eq!(plain.transitions, observed.transitions);
        assert_eq!(plain.terminals, observed.terminals);
    }

    #[test]
    fn readers_and_writer_mix() {
        let scenario = Scenario::new(3, 1)
            .hold(NodeId(0), LockId(0), Mode::Read, Ticket(1))
            .hold(NodeId(1), LockId(0), Mode::Read, Ticket(2))
            .hold(NodeId(2), LockId(0), Mode::Write, Ticket(3));
        let stats =
            Checker::hierarchical(ProtocolConfig::default()).explore(&scenario).expect("safe");
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
            .hold(NodeId(1), LockId(0), Mode::Read, Ticket(2));
        Checker::hierarchical(ProtocolConfig::default())
            .explore(&scenario)
            .expect("upgrade interleavings safe");
    }

    #[test]
    fn session_wrapped_writer_all_interleavings() {
        // Reliable links: the wrapper must be invisible — every grant
        // still arrives, quiescence still reached in every terminal.
        let scenario = one_writer();
        let stats = Checker::hierarchical_session(
            ProtocolConfig::default(),
            SessionConfig::for_model_checking(),
        )
        .explore(&scenario)
        .expect("session wrapper preserves safety and progress");
        assert!(stats.terminals > 0);
    }

    #[test]
    fn session_survives_adversarial_message_loss() {
        // With a drop budget, the adversary may lose any deliverable
        // frame. Raw protocols deadlock (the request or grant vanishes);
        // the session layer must retransmit until every scripted grant
        // lands and every terminal state is quiescent.
        let scenario = one_writer();
        let mut checker = Checker::hierarchical_session(
            ProtocolConfig::default(),
            SessionConfig::for_model_checking(),
        );
        checker.adversary.max_drops = 1;
        let stats = checker.explore(&scenario).expect("retransmission restores liveness");
        assert!(stats.terminals > 0, "some execution must still terminate");
        assert!(stats.states > 10);
    }

    #[test]
    fn raw_protocol_deadlocks_under_message_loss() {
        // The inverse: the same drop budget against the raw hierarchical
        // protocol must produce a progress violation — this is exactly
        // the gap the session layer exists to close.
        let scenario = one_writer();
        let mut checker = Checker::hierarchical(ProtocolConfig::default());
        checker.adversary.max_drops = 1;
        let err = checker.explore(&scenario).expect_err("a lost frame must wedge raw links");
        assert!(
            err.message.contains("deadlock") || err.message.contains("not quiescent"),
            "unexpected violation: {}",
            err.message
        );
    }

    #[test]
    fn session_readers_and_writer_under_loss() {
        let scenario = Scenario::new(2, 1).hold(NodeId(0), LockId(0), Mode::Read, Ticket(1)).hold(
            NodeId(1),
            LockId(0),
            Mode::Write,
            Ticket(2),
        );
        let mut checker = Checker::hierarchical_session(
            ProtocolConfig::default(),
            SessionConfig::for_model_checking(),
        );
        checker.adversary.max_drops = 1;
        let stats = checker.explore(&scenario).expect("mixed modes safe under loss");
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
        let mut w = World::new((checker.make)(2, 2), false);
        let calls = vec![
            Action::request(LockId(0), Mode::IntentRead, Ticket(1)),
            Action::request(LockId(1), Mode::Read, Ticket(2)),
        ];
        w.step(&Step::Call { node: NodeId(1), calls }, &mut Vec::new()).expect("fresh tickets");
        let frames: Vec<_> = w.inflight().collect();
        let [f] = frames[..] else { panic!("two requests to the token home share one frame") };
        assert_eq!(f.to, NodeId(0));
        assert_eq!(f.messages.len(), 2, "both messages ride the frame in order");

        let scenario =
            Scenario::new(2, 2).hold(NodeId(0), LockId(0), Mode::IntentWrite, Ticket(10)).script(
                NodeId(1),
                vec![
                    Action::request(LockId(0), Mode::IntentRead, Ticket(1)),
                    Action::request(LockId(1), Mode::Read, Ticket(2)),
                    Action::release(LockId(1), Ticket(2)),
                    Action::release(LockId(0), Ticket(1)),
                ],
            );
        let stats = Checker::hierarchical(ProtocolConfig::default())
            .explore(&scenario)
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
        checker.adversary.crash_candidates = vec![NodeId(0)];
        let stats = checker.explore(&scenario).expect("recovery keeps every crash schedule safe");
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
            .hold(NodeId(2), LockId(0), Mode::IntentRead, Ticket(3));
        let mut checker = Checker::hierarchical_recovery(ProtocolConfig::default());
        checker.adversary.crash_candidates = vec![NodeId(0)];
        let stats =
            checker.explore(&scenario).expect("hierarchical scripts survive every crash schedule");
        assert!(stats.terminals > 0);
    }

    #[test]
    fn recovery_sharded_crash_preserves_other_shards() {
        // Sharded topology: two locks hashed onto two shards; a crash
        // during one shard's recovery must not drop or reorder the
        // other shard's in-flight grants.
        let scenario = Scenario::new(3, 2).hold(NodeId(1), LockId(0), Mode::Write, Ticket(1)).hold(
            NodeId(2),
            LockId(1),
            Mode::Write,
            Ticket(2),
        );
        let mut checker = Checker::hierarchical_sharded_recovery(ProtocolConfig::default(), 2);
        checker.adversary.crash_candidates = vec![NodeId(0)];
        let stats = checker.explore(&scenario).expect("sharded recovery safe on every schedule");
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
        checker.adversary.false_suspect_candidates = vec![NodeId(0)];
        checker.adversary.max_false_suspects = 1;
        let stats = checker.explore(&scenario).expect("false suspicion keeps every schedule safe");
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
        checker.adversary.crash_candidates = vec![NodeId(0)];
        checker.adversary.false_suspect_candidates = vec![NodeId(1), NodeId(2)];
        checker.adversary.max_false_suspects = 1;
        let stats = checker.explore(&scenario).expect("crash + false suspicion must converge");
        assert!(stats.terminals > 0);
    }

    #[test]
    fn raw_protocol_deadlocks_under_crash() {
        // The inverse: without the recovery wrapper the same crash
        // schedule must produce a progress violation — the token dies
        // with n0 and a survivor's request is never granted.
        let scenario = Scenario::new(3, 1).hold(NodeId(1), LockId(0), Mode::Write, Ticket(1));
        let mut checker = Checker::hierarchical(ProtocolConfig::default());
        checker.adversary.crash_candidates = vec![NodeId(0)];
        let err =
            checker.explore(&scenario).expect_err("a dead token home must wedge raw protocols");
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
            .hold(NodeId(1), LockId(0), Mode::IntentRead, Ticket(3));
        Checker::hierarchical(ProtocolConfig::default())
            .explore(&scenario)
            .expect("hierarchical scripts safe");
    }
}
