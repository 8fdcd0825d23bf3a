//! The world: every node's protocol state and the network between them,
//! with no clock and no I/O.
//!
//! A [`World`] holds the spaces, the frames in flight, the armed
//! protocol timers and the fault state. [`World::enabled`] lists what
//! may happen next and [`World::step`] applies one [`Step`]: a delivery,
//! a loss, a timer firing, a batch of API calls, a crash or a suspicion.
//! Both hosts are drivers of this one state machine. The model checker
//! searches over `enabled`/`step`; the simulator picks the next step by
//! virtual time, sampled latency and its application [`Driver`].
//!
//! [`Driver`]: crate::Driver

use crate::time::Duration;
use hlock_core::{
    audit_at_rest, audit_live, AuditFinding, BatchHost, Classify, ConcurrencyProtocol, EffectSink,
    EpochScope, HostRuntime, Inspect, LockId, Mode, NodeId, Priority, ProtocolError, ProtocolEvent,
    SpanId, Ticket,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// One API call at a node: the vocabulary of the checker's scripts and
/// of the simulator's [`SimApi`](crate::SimApi).
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
    /// Release the grant held by `ticket`.
    Release {
        /// Lock to release.
        lock: LockId,
        /// The granted ticket.
        ticket: Ticket,
    },
    /// Upgrade the `U` held by `ticket` to `W`.
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
    /// Cancel `ticket`'s request while it is not yet granted.
    Cancel {
        /// Lock concerned.
        lock: LockId,
        /// The outstanding ticket.
        ticket: Ticket,
    },
    /// Downgrade the lock held by `ticket` to `to`.
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

/// One transition of the [`World`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Step {
    /// Deliver in-flight frame `id` to its destination.
    Deliver(u64),
    /// Lose in-flight frame `id`.
    Drop(u64),
    /// Put a second copy of in-flight frame `id` on its link.
    Duplicate(u64),
    /// Fire protocol timer `token` at `node`.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// The protocol-chosen token.
        token: u64,
    },
    /// Apply `calls` at `node` in order, as one protocol step.
    Call {
        /// The calling node.
        node: NodeId,
        /// The calls, in order.
        calls: Vec<Action>,
    },
    /// Crash-stop `node`: its timers die and its open request spans close.
    Crash(NodeId),
    /// `at`'s failure detector reports `dead`; naming a node that has not
    /// crashed spends one false suspicion.
    Suspect {
        /// The detecting node.
        at: NodeId,
        /// The nodes reported dead.
        dead: Vec<NodeId>,
    },
}

/// One in-flight wire frame: a whole per-destination batch from one
/// protocol step, delivered or lost atomically.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Flight<M> {
    /// Unique and increasing: a link's frames in `id` order are in
    /// emission order.
    pub id: u64,
    /// Sender.
    pub from: NodeId,
    /// Destination.
    pub to: NodeId,
    /// The batch, in per-link emission order; never empty.
    pub messages: Vec<M>,
}

/// What a step did at its node, in effect order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Out {
    /// Frame `id` went in flight.
    Sent(u64),
    /// A request of the node was granted.
    Granted {
        /// The lock.
        lock: LockId,
        /// The request's ticket.
        ticket: Ticket,
        /// The granted mode.
        mode: Mode,
    },
    /// The node armed protocol timer `token` to fire after `delay`.
    Armed {
        /// The protocol-chosen token.
        token: u64,
        /// The requested delay.
        delay: Duration,
    },
}

/// What the checker's adversary may do besides delivering each link's
/// oldest frame (links are FIFO, like TCP) and firing timers. The
/// default is reliable links and no faults.
#[derive(Debug, Clone, Default)]
pub struct Adversary {
    /// Frames the adversary may lose on one path (0: reliable links).
    pub max_drops: u32,
    /// Nodes the adversary may crash-stop, each once, at any point. Once
    /// a node has crashed every survivor's detector must report it, so
    /// no terminal state precedes full detection.
    pub crash_candidates: Vec<NodeId>,
    /// Live nodes a detector may falsely name dead (a severed link, or a
    /// pause past the watchdog), alongside the crashed set.
    pub false_suspect_candidates: Vec<NodeId>,
    /// False suspicions per path (0 disables them).
    pub max_false_suspects: u32,
}

/// Every node's space, the network in between and the fault state.
#[derive(Debug, Clone)]
pub struct World<P: ConcurrencyProtocol> {
    /// Per-node protocol state, indexed by [`NodeId`].
    spaces: Vec<P>,
    /// Frames in flight by id: slot `i` holds frame `base + i`, `None`
    /// once it has left. Ids are consecutive, so a frame is found, added
    /// and taken in O(1), however many are in flight.
    inflight: VecDeque<Option<Flight<P::Message>>>,
    /// The id of the front slot.
    base: u64,
    /// Armed protocol timer tokens per node, sorted. Re-arming an armed
    /// token is a no-op; firing disarms it.
    timers: Vec<Vec<u64>>,
    /// Crash-stopped nodes.
    crashed: Vec<bool>,
    /// Per node: has this survivor's detector reported the current dead
    /// set and been ignored (a protocol without a detector)? Reset on
    /// every crash.
    suspected: Vec<bool>,
    /// Frames lost so far.
    drops: u32,
    /// False suspicions spent so far.
    false_suspects: u32,
    /// The events of the last step, while observing.
    events: Vec<ProtocolEvent>,
    next_id: u64,
    fx: EffectSink<P::Message>,
    runtime: HostRuntime<P::Message>,
}

impl<P: ConcurrencyProtocol + Inspect> World<P> {
    /// A world of `spaces` (node ids dense `0..n`) with nothing in flight;
    /// with `observing`, every step records its [`ProtocolEvent`]s.
    pub fn new(spaces: Vec<P>, observing: bool) -> Self {
        let n = spaces.len();
        let mut fx = EffectSink::new();
        fx.set_observing(observing);
        World {
            spaces,
            inflight: VecDeque::new(),
            base: 1,
            timers: vec![Vec::new(); n],
            crashed: vec![false; n],
            suspected: vec![false; n],
            drops: 0,
            false_suspects: 0,
            events: Vec::new(),
            next_id: 0,
            fx,
            runtime: HostRuntime::new(),
        }
    }

    /// Per-node protocol state, indexed by [`NodeId`].
    pub fn spaces(&self) -> &[P] {
        &self.spaces
    }

    /// The spaces, for a host that is done stepping.
    pub fn into_spaces(self) -> Vec<P> {
        self.spaces
    }

    /// Crash-stopped nodes, indexed by [`NodeId`].
    pub fn crashed(&self) -> &[bool] {
        &self.crashed
    }

    /// The events of the last step, while observing.
    pub fn events(&self) -> &[ProtocolEvent] {
        &self.events
    }

    /// The frames in flight, in `id` order.
    pub fn inflight(&self) -> impl Iterator<Item = &Flight<P::Message>> {
        self.inflight.iter().flatten()
    }

    /// A search's reduction, not a step: takes out of flight, without
    /// events, every frame no step could deliver to any effect. Those
    /// are the frames to a crashed node and, with `collapse_twins`, each
    /// frame `sent` by the last step while its twin (same link, same
    /// messages) is already in flight.
    pub fn reduce(&mut self, sent: &[Out], collapse_twins: bool)
    where
        P::Message: PartialEq,
    {
        for &done in sent.iter().filter(|_| collapse_twins) {
            let Out::Sent(id) = done else { continue };
            let f = self.flight(id);
            let twin = |g: &Flight<P::Message>| {
                g.id != id && (g.from, g.to, &g.messages) == (f.from, f.to, &f.messages)
            };
            if self.inflight().any(twin) {
                self.take(id);
            }
        }
        for slot in &mut self.inflight {
            if slot.as_ref().is_some_and(|f| self.crashed[f.to.index()]) {
                *slot = None;
            }
        }
        self.trim();
    }

    /// The frame in flight under `id`.
    ///
    /// # Panics
    ///
    /// Panics if no such frame is in flight.
    pub fn flight(&self, id: u64) -> &Flight<P::Message> {
        let slot = id.checked_sub(self.base).and_then(|i| self.inflight.get(i as usize));
        slot.and_then(Option::as_ref).expect("frame in flight")
    }

    /// Takes frame `id` out of flight.
    fn take(&mut self, id: u64) -> Flight<P::Message> {
        let f = self.inflight[(id - self.base) as usize].take().expect("frame in flight");
        self.trim();
        f
    }

    /// Drops the empty slots at the front.
    fn trim(&mut self) {
        while let Some(None) = self.inflight.front() {
            self.inflight.pop_front();
            self.base += 1;
        }
    }

    /// The spaces that have not crashed.
    pub fn live(&self) -> impl Iterator<Item = &P> {
        self.spaces.iter().zip(&self.crashed).filter(|(_, &dead)| !dead).map(|(s, _)| s)
    }

    /// Appends to `out` every step `adversary` allows now except API
    /// calls, which belong to the host's application: deliveries of each
    /// link's oldest frame (and, within the drop budget, losses) in flight
    /// order, timer firings, crashes, detections of the crashed set, and
    /// false suspicions.
    pub fn enabled(&self, adversary: &Adversary, out: &mut Vec<Step>) {
        let mut links = Vec::new();
        for f in self.inflight() {
            if links.contains(&(f.from, f.to)) {
                continue;
            }
            links.push((f.from, f.to));
            out.push(Step::Deliver(f.id));
            if self.drops < adversary.max_drops {
                out.push(Step::Drop(f.id));
            }
        }
        for (n, tokens) in self.timers.iter().enumerate() {
            out.extend(tokens.iter().map(|&token| Step::Timer { node: NodeId(n as u32), token }));
        }
        for &c in &adversary.crash_candidates {
            if !self.crashed[c.index()] {
                out.push(Step::Crash(c));
            }
        }
        // A detector-backed protocol stays enabled until its own dead view
        // covers every crashed peer, so a heal triggered by a pre-crash
        // frame re-arms it, as a real watchdog re-fires; a detector-less
        // one latches `suspected` instead of re-enabling forever.
        let dead: Vec<NodeId> = self.ids().filter(|n| self.crashed[n.index()]).collect();
        if !dead.is_empty() {
            for n in self.ids() {
                let i = n.index();
                if !self.crashed[i]
                    && !self.suspected[i]
                    && dead.iter().any(|&c| !self.spaces[i].suspects(c))
                {
                    out.push(Step::Suspect { at: n, dead: dead.clone() });
                }
            }
        }
        if self.false_suspects < adversary.max_false_suspects {
            for &victim in &adversary.false_suspect_candidates {
                if self.crashed[victim.index()] {
                    continue;
                }
                for at in self.ids().filter(|&n| !self.crashed[n.index()] && n != victim) {
                    let mut dead = dead.clone();
                    dead.push(victim);
                    out.push(Step::Suspect { at, dead });
                }
            }
        }
    }

    fn ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.spaces.len() as u32).map(NodeId)
    }

    /// Applies `step` through the shared [`HostRuntime`] and appends what
    /// it did at its node to `out`; [`World::events`] then holds its
    /// events. A frame's own fate (delivery, loss, copy) is a step of its
    /// own, and so is a grant's reaction: the host decides both. A crashed
    /// node runs nothing: a delivery to it is a loss, and a timer, call or
    /// suspicion at it does nothing.
    ///
    /// Returns `false` for a suspicion its node ignored and for a timer,
    /// call or suspicion at a crashed node, `true` otherwise.
    ///
    /// # Errors
    ///
    /// An API call the protocol rejects (duplicate ticket, nothing held).
    ///
    /// # Panics
    ///
    /// Panics if a frame step names a frame not in flight.
    pub fn step(&mut self, step: &Step, out: &mut Vec<Out>) -> Result<bool, ProtocolError> {
        self.events.clear();
        let observing = self.fx.observing();
        let mut handled = true;
        let node = match *step {
            Step::Timer { node, .. } | Step::Call { node, .. } | Step::Suspect { at: node, .. }
                if self.crashed[node.index()] =>
            {
                return Ok(false);
            }
            Step::Deliver(id) | Step::Drop(id) => {
                let f = self.take(id);
                let lost = matches!(step, Step::Drop(_)) || self.crashed[f.to.index()];
                for m in f.messages.iter().filter(|_| observing) {
                    let (node, from, kind) = (f.to, f.from, m.kind());
                    self.events.push(match lost {
                        false => ProtocolEvent::Delivered { node, from, kind },
                        true => ProtocolEvent::Dropped { node, from, kind },
                    });
                }
                if lost {
                    // Only the adversary's own losses spend its budget.
                    self.drops += u32::from(matches!(step, Step::Drop(_)));
                    return Ok(true);
                }
                // Through the runtime, so stale-epoch frames are fenced
                // alike on every host.
                self.runtime.deliver(
                    &mut self.spaces[f.to.index()],
                    f.from,
                    f.messages,
                    &mut self.fx,
                );
                f.to
            }
            Step::Duplicate(id) => {
                let copy = Flight { id: self.next_id + 1, ..self.flight(id).clone() };
                self.next_id += 1;
                out.push(Out::Sent(copy.id));
                self.inflight.push_back(Some(copy));
                return Ok(true);
            }
            Step::Timer { node, token } => {
                self.timers[node.index()].retain(|&t| t != token);
                self.spaces[node.index()].on_timer(token, &mut self.fx);
                node
            }
            Step::Call { node, ref calls } => {
                let space = &mut self.spaces[node.index()];
                for &call in calls {
                    call_into(space, call, &mut self.fx)?;
                }
                node
            }
            Step::Crash(node) => {
                self.crashed[node.index()] = true;
                self.timers[node.index()].clear();
                // A new failure: every survivor's detector must report anew.
                self.suspected.iter_mut().for_each(|s| *s = false);
                if observing {
                    let mut open = self.spaces[node.index()].open_requests();
                    open.sort_unstable();
                    for (lock, ticket) in open {
                        let span = SpanId::new(node, ticket);
                        self.events.push(ProtocolEvent::RequestAborted { node, lock, span });
                    }
                }
                return Ok(true);
            }
            Step::Suspect { at, ref dead } => {
                handled = self.spaces[at.index()].on_suspect(dead, &mut self.fx);
                if dead.iter().all(|d| self.crashed[d.index()]) {
                    self.suspected[at.index()] = !handled;
                } else {
                    self.false_suspects += 1;
                }
                at
            }
        };
        let timers = &mut self.timers[node.index()];
        let mut net =
            Net { node, next_id: &mut self.next_id, inflight: &mut self.inflight, timers, out };
        if observing {
            let events = &mut self.events;
            let mut record = |_: u64, e: &ProtocolEvent| events.push(e.clone());
            self.runtime.dispatch_observed(&mut self.fx, &mut net, node, &mut record, 0);
        } else {
            self.runtime.dispatch(&mut self.fx, &mut net);
        }
        Ok(handled)
    }

    /// The safety oracle, called from here by every host: `audit_live`
    /// over the live spaces, or `audit_at_rest` when `at_rest`. The
    /// tree's structure is audited too while no node has crashed or been
    /// falsely suspected, so no recovery has rebuilt it.
    pub fn audit(
        &self,
        locks: usize,
        scope: EpochScope,
        at: u64,
        at_rest: bool,
    ) -> Vec<AuditFinding> {
        let live: Vec<(NodeId, &P)> = self.live().map(|s| (s.node_id(), s)).collect();
        let whole = !self.crashed.contains(&true) && self.false_suspects == 0;
        if at_rest {
            audit_at_rest(&live, locks, scope, whole, at)
        } else {
            audit_live(&live, locks, scope, at)
        }
    }

    /// A hash of the whole state, with the frames in flight taken as a
    /// multiset that keeps each frame's rank on its link: two worlds
    /// that differ only in frame ids fingerprint alike.
    pub fn fingerprint(&self) -> u64
    where
        P: Hash,
        P::Message: Hash,
    {
        let mut h = DefaultHasher::new();
        self.spaces.hash(&mut h);
        self.timers.hash(&mut h);
        self.drops.hash(&mut h);
        self.crashed.hash(&mut h);
        self.suspected.hash(&mut h);
        self.false_suspects.hash(&mut h);
        let mut flights: u64 = 0;
        let mut links = Vec::new();
        for f in self.inflight() {
            let mut fh = DefaultHasher::new();
            let rank = links.iter().filter(|&&link| link == (f.from, f.to)).count();
            links.push((f.from, f.to));
            (f.from, f.to, &f.messages, rank).hash(&mut fh);
            flights = flights.wrapping_add(fh.finish());
        }
        flights.hash(&mut h);
        h.finish()
    }
}

/// Applies one API call to a node's space.
fn call_into<P: ConcurrencyProtocol>(
    space: &mut P,
    call: Action,
    fx: &mut EffectSink<P::Message>,
) -> Result<(), ProtocolError> {
    match call {
        Action::Request { lock, mode, ticket } => space.request(lock, mode, ticket, fx),
        Action::RequestWithPriority { lock, mode, ticket, priority } => {
            space.request_with_priority(lock, mode, ticket, priority, fx)
        }
        Action::Release { lock, ticket } => space.release(lock, ticket, fx),
        Action::Upgrade { lock, ticket } => space.upgrade(lock, ticket, fx),
        Action::Cancel { lock, ticket } => space.cancel(lock, ticket, fx).map(|_| ()),
        Action::Downgrade { lock, ticket, to } => space.downgrade(lock, ticket, to, fx),
    }
}

/// The one [`BatchHost`]: a step's sends become frames in flight and its
/// grants and timers are reported in effect order.
struct Net<'a, M> {
    node: NodeId,
    next_id: &'a mut u64,
    inflight: &'a mut VecDeque<Option<Flight<M>>>,
    timers: &'a mut Vec<u64>,
    out: &'a mut Vec<Out>,
}

impl<M> BatchHost<M> for Net<'_, M> {
    fn on_batch(&mut self, to: NodeId, messages: Vec<M>) {
        *self.next_id += 1;
        let id = *self.next_id;
        self.inflight.push_back(Some(Flight { id, from: self.node, to, messages }));
        self.out.push(Out::Sent(id));
    }

    fn on_granted(&mut self, lock: LockId, ticket: Ticket, mode: Mode) {
        self.out.push(Out::Granted { lock, ticket, mode });
    }

    fn on_set_timer(&mut self, token: u64, delay_micros: u64) {
        if let Err(i) = self.timers.binary_search(&token) {
            self.timers.insert(i, token);
        }
        self.out.push(Out::Armed { token, delay: Duration(delay_micros) });
    }
}
