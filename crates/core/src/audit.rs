//! The safety oracle: what "safe" means, defined once.
//!
//! Hosts that see every node's state (the simulator and the model
//! checker) call these checks rather than writing their own:
//!
//! * [`audit_live`] must hold in **every** state: per lock, at most one
//!   live token and pairwise-compatible holders;
//! * [`audit_at_rest`] must hold once a run is at rest (no pending
//!   requests, no messages in flight): exactly one live token per lock
//!   and, when the whole system is live and unsuspected, the structural
//!   checks of [`audit_lock`].
//!
//! Only **live** nodes count (a crashed node's frozen state is dead by
//! definition), and one rule, [`EpochScope`], says which of them are
//! compared across epochs.
//!
//! [`audit_lock`] checks, given every node's [`LockNode`] for one lock
//! at rest:
//!
//! 1. only the token node has no parent;
//! 2. copysets and parent pointers agree: `C ∈ children(P)` iff
//!    `parent(C) = P ∧ owned(C) ≠ ∅`, and the recorded mode equals `C`'s
//!    actual owned mode — in particular **no node is accounted in two
//!    copysets** (the "phantom child" failure mode);
//! 3. the parent graph is a tree rooted at the token node (no cycles);
//! 4. owned-mode dominance: a parent's owned mode is at least as strong
//!    as each child's;
//! 5. frozen bookkeeping has drained: with no queued requests anywhere,
//!    no mode may remain frozen;
//! 6. an owned mode that no local ticket and no child accounts for is
//!    legal only as the node's *retained* mode (Rule 5.3,
//!    [`LockNode::retained`]): only `IR`, never at the token node, and
//!    only under a configuration that can recall it. A retained mode is
//!    part of `owned()`, so checks 2 and 4 hold it to exactly the rules
//!    of a held one.
//!
//! [`InvariantAuditor`] checks the same invariants from the live event
//! stream, for hosts with no global view of state (the mux cluster, a
//! traced benchmark round): at most one live token per lock, no grant
//! without token or copyset membership, span open/close balance, no
//! never-sent delivery per link, and epoch-fencing consistency. On a
//! violation it records an [`AuditFinding`]. [`SharedAuditor`], the one
//! flight handle every host uses, owns it together with each node's
//! flight recorder and dumps the event window around the first finding.

use crate::ids::{LockId, NodeId};
use crate::message::MessageKind;
use crate::mode::{owned_strength, Mode};
use crate::node::LockNode;
use crate::observe::{
    FlightRecorder, Hlc, Observer, ProtocolEvent, SpanId, DEFAULT_FLIGHT_CAPACITY,
};
use crate::protocol::Inspect;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};
use std::{fs, io};

/// One violated invariant, found by the oracle or by the online
/// [`InvariantAuditor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// Host time at which the violation was observed (0 from a bare
    /// [`audit_lock`]).
    pub at: u64,
    /// Which invariant was violated (stable snake_case label). The
    /// oracle's: `token_unique`, `holder_compatibility`,
    /// `token_at_rest` and `structure` ([`audit_lock`]). The auditor's:
    /// `token_unique`, `grant_legitimacy`, `span_balance`, `link_fifo`,
    /// `epoch_fencing`.
    pub invariant: &'static str,
    /// Human-readable description precise enough to debug from.
    pub detail: String,
}

impl std::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] at={}: {}", self.invariant, self.at, self.detail)
    }
}

/// Which live nodes the oracle compares with one another. The host
/// derives it from its fault plan with [`EpochScope::for_run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochScope {
    /// No live node can be falsely suspected, so none can be running at
    /// a voided epoch: every live node is compared with every other.
    Global,
    /// A live node can be recovered around: nodes are compared only
    /// within an epoch, and at rest the token is counted at the newest
    /// live epoch.
    PerEpoch,
}

impl EpochScope {
    /// The scope of a run whose faults can (or cannot) make a live node
    /// look dead.
    pub fn for_run(can_suspect_live: bool) -> EpochScope {
        if can_suspect_live {
            EpochScope::PerEpoch
        } else {
            EpochScope::Global
        }
    }
}

/// Live-state safety over the `live` nodes, for locks `0..locks`: at
/// most one token per lock and pairwise-compatible holders, compared as
/// `scope` says. Returns every finding, stamped `at` (empty = safe).
pub fn audit_live<P: Inspect + ?Sized>(
    live: &[(NodeId, &P)],
    locks: usize,
    scope: EpochScope,
    at: u64,
) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    let mut held: Vec<(NodeId, Mode, u64)> = Vec::new();
    let mut token_epochs: Vec<u64> = Vec::new();
    for l in 0..locks {
        let lock = LockId(l as u32);
        held.clear();
        token_epochs.clear();
        for &(id, n) in live {
            let epoch = n.epoch();
            held.extend(n.held_modes(lock).into_iter().map(|m| (id, m, epoch)));
            if n.holds_token(lock) {
                token_epochs.push(epoch);
            }
        }
        token_epochs.sort_unstable();
        let same_epoch = token_epochs.windows(2).any(|w| w[0] == w[1]);
        if same_epoch || (scope == EpochScope::Global && token_epochs.len() > 1) {
            findings.push(AuditFinding {
                at,
                invariant: "token_unique",
                detail: format!(
                    "{} live token holders for {lock} (epochs {token_epochs:?})",
                    token_epochs.len()
                ),
            });
        }
        for (i, &(na, ma, ea)) in held.iter().enumerate() {
            for &(nb, mb, eb) in &held[i + 1..] {
                if na != nb && (scope == EpochScope::Global || ea == eb) && !ma.compatible(mb) {
                    findings.push(AuditFinding {
                        at,
                        invariant: "holder_compatibility",
                        detail: format!("incompatible holders on {lock}: {na}:{ma} vs {nb}:{mb}"),
                    });
                }
            }
        }
    }
    findings
}

/// At-rest safety over the `live` nodes, for locks `0..locks`: exactly
/// one live token per lock (at the newest live epoch when `scope` is
/// [`EpochScope::PerEpoch`]). When the system is `whole` — `live` holds
/// every node, none of them recovered around — the token is counted
/// over all of them and [`audit_lock`] runs after it. Hosts run
/// [`audit_live`] too. Findings are returned stamped `at`.
pub fn audit_at_rest<P: Inspect + ?Sized>(
    live: &[(NodeId, &P)],
    locks: usize,
    scope: EpochScope,
    whole: bool,
    at: u64,
) -> Vec<AuditFinding> {
    let newest = live.iter().map(|(_, n)| n.epoch()).max().unwrap_or(0);
    let counted = |n: &P| whole || scope == EpochScope::Global || n.epoch() == newest;
    let mut findings = Vec::new();
    for l in 0..locks {
        let lock = LockId(l as u32);
        let tokens = live.iter().filter(|(_, n)| counted(n) && n.holds_token(lock)).count();
        if tokens != 1 {
            findings.push(AuditFinding {
                at,
                invariant: "token_at_rest",
                detail: format!("{tokens} live tokens for {lock} at quiescence"),
            });
        }
        let states: Vec<&LockNode> = live.iter().filter_map(|(_, n)| n.lock_node(lock)).collect();
        if whole && states.len() == live.len() {
            findings.extend(audit_lock(states).into_iter().map(|f| AuditFinding { at, ..f }));
        }
    }
    findings
}

/// The structural audit of one lock at rest. `nodes` must contain the
/// [`LockNode`] of **every** node in the system, in any order; the
/// token count is [`audit_at_rest`]'s.
///
/// Returns all findings (empty = consistent). Callers should only invoke
/// this at quiescence; with messages in flight the checks do not hold.
pub fn audit_lock<'a>(nodes: impl IntoIterator<Item = &'a LockNode>) -> Vec<AuditFinding> {
    let nodes: Vec<&LockNode> = nodes.into_iter().collect();
    let mut findings = Vec::new();
    let mut f =
        |detail: String| findings.push(AuditFinding { at: 0, invariant: "structure", detail });

    let lock = match nodes.first() {
        Some(n) => n.lock(),
        None => return findings,
    };
    let by_id: BTreeMap<NodeId, &LockNode> = nodes.iter().map(|n| (n.id(), *n)).collect();

    // 1. Token iff parentless.
    for n in &nodes {
        if n.is_token() != n.parent().is_none() {
            f(format!("{lock}: {} token={} but parent={:?}", n.id(), n.is_token(), n.parent()));
        }
    }

    // 2. Copyset/parent agreement and single accounting.
    let mut accounted_at: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for p in &nodes {
        for (&c, &mode) in p.children() {
            if let Some(prev) = accounted_at.insert(c, p.id()) {
                f(format!("{lock}: {c} is accounted in two copysets ({prev} and {})", p.id()));
            }
            match by_id.get(&c) {
                None => f(format!("{lock}: {} lists unknown child {c}", p.id())),
                Some(child) => {
                    if child.parent() != Some(p.id()) {
                        f(format!(
                            "{lock}: {} believes {c} is its child, but {c}'s parent is {:?}",
                            p.id(),
                            child.parent()
                        ));
                    }
                    if child.owned() != Some(mode) {
                        f(format!(
                            "{lock}: {} records child {c} as {mode}, but {c} owns {:?}",
                            p.id(),
                            child.owned()
                        ));
                    }
                }
            }
        }
    }
    // Conversely: every node owning something (except the token) must be
    // accounted exactly once.
    for n in &nodes {
        if !n.is_token() && n.owned().is_some() && !accounted_at.contains_key(&n.id()) {
            f(format!("{lock}: {} owns {:?} but no copyset accounts for it", n.id(), n.owned()));
        }
    }

    // 3. Parent graph acyclic and rooted at the token.
    if nodes.iter().any(|n| n.is_token()) {
        for (n, depth) in nodes.iter().zip(tree_depths(nodes.iter().copied())) {
            if depth.is_none() {
                f(format!(
                    "{lock}: parent chain from {} does not reach the token (unknown parent, \
                     cycle or parentless non-token)",
                    n.id()
                ));
            }
        }
    }

    // 4. Dominance.
    for p in &nodes {
        for (&c, &mode) in p.children() {
            if owned_strength(p.owned()) < mode.strength() {
                f(format!(
                    "{lock}: {} owns {:?} but child {c} owns {mode} (dominance violated)",
                    p.id(),
                    p.owned()
                ));
            }
        }
    }

    // 5. With no queued work anywhere, nothing may stay frozen.
    let any_queued = nodes.iter().any(|n| n.queue_len() > 0);
    if !any_queued {
        for n in &nodes {
            if !n.frozen().is_empty() {
                f(format!(
                    "{lock}: {} still has frozen modes {} with no queued requests anywhere",
                    n.id(),
                    n.frozen()
                ));
            }
        }
    }

    // 6. Retention is IR-only, never at the token, and recallable.
    for n in &nodes {
        let Some(kept) = n.retained() else { continue };
        if n.is_token() {
            f(format!("{lock}: token node {} retains {kept}", n.id()));
        }
        if kept != Mode::IntentRead {
            f(format!("{lock}: {} retains {kept}; only IR may be retained", n.id()));
        }
        let cfg = n.config();
        if !(cfg.suppress_releases && cfg.freezing) {
            f(format!("{lock}: {} retains {kept} but its configuration cannot recall it", n.id()));
        }
    }

    findings
}

/// Depth of every node in the parent tree (root = 0), in node order.
/// Returns `None` for nodes whose chain does not resolve (corrupt state).
///
/// Shallow trees mean short request paths; the lazy transfer policy keeps
/// the tree a near-star while eager (literal Rule 3.2) transfers let
/// depths grow with the transfer history.
pub fn tree_depths<'a>(nodes: impl IntoIterator<Item = &'a LockNode>) -> Vec<Option<usize>> {
    let nodes: Vec<&LockNode> = nodes.into_iter().collect();
    let by_id: BTreeMap<NodeId, &LockNode> = nodes.iter().map(|n| (n.id(), *n)).collect();
    nodes
        .iter()
        .map(|n| {
            let mut cur = *n;
            let mut depth = 0usize;
            while let Some(p) = cur.parent() {
                cur = by_id.get(&p)?;
                depth += 1;
                if depth > nodes.len() {
                    return None;
                }
            }
            cur.is_token().then_some(depth)
        })
        .collect()
}

/// Mean tree depth over all resolvable nodes (0.0 for an empty system).
pub fn mean_tree_depth<'a>(nodes: impl IntoIterator<Item = &'a LockNode>) -> f64 {
    let depths: Vec<usize> = tree_depths(nodes).into_iter().flatten().collect();
    if depths.is_empty() {
        0.0
    } else {
        depths.iter().sum::<usize>() as f64 / depths.len() as f64
    }
}

/// Where one lock's token is, as far as the stream has taught us.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TokenWhere {
    /// No token event observed yet (lazy learning — never a violation).
    Unknown,
    /// Last seen held at this node.
    Held(NodeId),
    /// Sent by this node, receipt not yet observed.
    InFlight(NodeId),
}

/// Per-directed-link delivery bookkeeping for the never-sent check.
#[derive(Debug, Clone, Default)]
struct LinkState {
    /// Kinds sent and not yet matched to a delivery (oldest first).
    sent: VecDeque<MessageKind>,
    /// Recently matched kinds — tolerated as session retransmissions
    /// when delivered again (bounded window).
    recent: VecDeque<MessageKind>,
}

/// How many matched deliveries each link remembers for duplicate
/// (retransmission) tolerance.
const LINK_RECENT_WINDOW: usize = 64;

/// Findings retained before the auditor starts suppressing (a broken
/// run can violate on every event; the first few findings carry all
/// the signal).
const MAX_FINDINGS: usize = 256;

/// A streaming [`Observer`] that audits protocol invariants on the live
/// event stream — the online counterpart of the model checker's offline
/// proofs. Feed it the *merged* cluster stream (all nodes), in dispatch
/// order:
///
/// 1. **Token uniqueness** — at most one live token per lock. Holders
///    are learned lazily from `token_received` / `token_regenerated`;
///    a `token_sent` by a non-holder or a `token_received` while
///    another node demonstrably holds the token is a violation.
///    Recovery events reset holder knowledge (the dead may have held
///    tokens), so clean crash-recovery runs stay silent.
/// 2. **Grant legitimacy** — a local grant requires the token or a
///    copyset membership. Membership is per `(parent, child)` pair: it
///    is learned from `copy_granted` (the span origin joins the
///    granter's copyset) and from `token_sent` (the sender may stay in
///    the receiver's copyset), and dropped on that parent's
///    `copy_revoked` with no remaining owned mode. Keying by the pair
///    matters when a child is re-parented: the new parent's grant can be
///    observed before the old parent's revocation, which must not erase
///    it. Only *positive* contradictions are flagged (the token is known
///    to be elsewhere and the node is in nobody's copyset), so attaching
///    the auditor mid-run is safe.
/// 3. **Span balance** — streaming open/close accounting: a span that
///    opens twice without closing, or closes (`granted` /
///    `request_cancelled` / `request_aborted`) without a matching open,
///    is a violation, and so is a span still open when the host calls
///    [`InvariantAuditor::finish`] at the end of the stream. A re-open
///    is tolerated when a recovery round started in between: token
///    regeneration wipes the wait queues, so survivors legitimately
///    re-issue a still-open request under the same span. Sequential
///    ticket reuse (request → grant → request again) is legal.
/// 4. **Per-link never-sent delivery** — each delivery must match a
///    prior send of the same kind on its directed link. Out-of-order
///    matches are treated as loss (fault injection reorders links on
///    purpose; the session layer restores order above), and a bounded
///    window of matched kinds tolerates retransmission duplicates —
///    but a kind that was *never* sent on the link is a violation.
/// 5. **Epoch fencing** — `stale_epoch_fenced` must name an epoch
///    strictly below the fencing node's installed epoch, and installed
///    epochs (`recovery_completed`) must be monotone per node.
#[derive(Debug, Clone, Default)]
pub struct InvariantAuditor {
    findings: Vec<AuditFinding>,
    suppressed: u64,
    token: HashMap<LockId, TokenWhere>,
    /// Copyset memberships as `(parent, child)` pairs.
    members: HashMap<LockId, HashSet<(NodeId, NodeId)>>,
    /// Open spans, each tagged with the recovery generation at (re-)open.
    open: HashMap<SpanId, u64>,
    links: HashMap<(u32, u32), LinkState>,
    installed: HashMap<u32, u64>,
    /// Bumped on every `recovery_started`; lets span balance tell a
    /// legitimate post-recovery re-issue from a true double open.
    recovery_gen: u64,
}

impl InvariantAuditor {
    /// A fresh auditor with no knowledge of the system.
    pub fn new() -> Self {
        InvariantAuditor::default()
    }

    /// All findings so far (empty = clean).
    pub fn findings(&self) -> &[AuditFinding] {
        &self.findings
    }

    /// Whether no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings dropped beyond the retention cap.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// The end-of-stream check: every span still open is a
    /// `span_balance` finding. Call it once, after the last event.
    pub fn finish(&mut self, at: u64) {
        let mut open: Vec<String> = self.open.keys().map(ToString::to_string).collect();
        if !open.is_empty() {
            open.sort();
            let detail = format!("spans left open at end of stream: {}", open.join(", "));
            self.flag(at, "span_balance", detail);
        }
    }

    /// Audits a whole recorded stream with a fresh auditor, end-of-stream
    /// check included; each event is stamped with its position.
    pub fn audit_stream<'a>(
        events: impl IntoIterator<Item = &'a ProtocolEvent>,
    ) -> Vec<AuditFinding> {
        let mut auditor = InvariantAuditor::new();
        let mut at = 0;
        for event in events {
            auditor.on_event(at, event);
            at += 1;
        }
        auditor.finish(at);
        auditor.findings
    }

    fn flag(&mut self, at: u64, invariant: &'static str, detail: String) {
        if self.findings.len() < MAX_FINDINGS {
            self.findings.push(AuditFinding { at, invariant, detail });
        } else {
            self.suppressed += 1;
        }
    }

    fn token_state(&self, lock: LockId) -> TokenWhere {
        self.token.get(&lock).copied().unwrap_or(TokenWhere::Unknown)
    }
}

impl Observer for InvariantAuditor {
    fn on_event(&mut self, at: u64, event: &ProtocolEvent) {
        // Streaming span balance.
        if event.opens_span() {
            if let Some(span) = event.span() {
                let gen = self.recovery_gen;
                if let Some(opened_gen) = self.open.insert(span, gen) {
                    if opened_gen == gen {
                        self.flag(
                            at,
                            "span_balance",
                            format!("span {span} opened twice without closing"),
                        );
                    }
                    // Else: a recovery round ran since the first open —
                    // the survivor re-issued its wiped request.
                }
            }
        } else if event.closes_span() {
            if let Some(span) = event.span() {
                if self.open.remove(&span).is_none() {
                    self.flag(
                        at,
                        "span_balance",
                        format!("span {span} closed ({}) without a matching open", event.name()),
                    );
                }
            }
        }

        match event {
            ProtocolEvent::TokenSent { node, lock, span, .. } => {
                match self.token_state(*lock) {
                    TokenWhere::Held(h) if h != *node => self.flag(
                        at,
                        "token_unique",
                        format!("{lock}: {node} sent the token but {h} holds it"),
                    ),
                    TokenWhere::InFlight(from) => self.flag(
                        at,
                        "token_unique",
                        format!(
                            "{lock}: {node} sent the token while it is already \
                             in flight from {from}"
                        ),
                    ),
                    _ => {}
                }
                self.token.insert(*lock, TokenWhere::InFlight(*node));
                // Footnote b: a sender that still owns a mode becomes the
                // receiver's child. The event does not say whether it
                // does, so assume membership (never a false positive).
                self.members.entry(*lock).or_default().insert((span.origin, *node));
            }
            ProtocolEvent::TokenReceived { node, lock, .. } => {
                if let TokenWhere::Held(h) = self.token_state(*lock) {
                    if h != *node {
                        self.flag(
                            at,
                            "token_unique",
                            format!("{lock}: {node} received the token while {h} holds it"),
                        );
                    }
                }
                self.token.insert(*lock, TokenWhere::Held(*node));
            }
            ProtocolEvent::TokenRegenerated { node, lock, .. } => {
                // Regeneration is only legal when no live node holds the
                // token; holder knowledge was reset at recovery_started,
                // so just adopt the new holder.
                self.token.insert(*lock, TokenWhere::Held(*node));
            }
            ProtocolEvent::RecoveryStarted { .. } => {
                // Suspected-dead nodes may have held tokens or copies;
                // the stream does not say which nodes died, so forget
                // holder and membership knowledge rather than risk
                // false positives across the epoch boundary.
                self.token.clear();
                self.members.clear();
                self.recovery_gen += 1;
            }
            ProtocolEvent::RecoveryCompleted { node, epoch } => {
                if let Some(&prev) = self.installed.get(&node.0) {
                    if *epoch <= prev {
                        self.flag(
                            at,
                            "epoch_fencing",
                            format!(
                                "{node} installed epoch {epoch} after already \
                                 installing {prev} (epochs must be monotone)"
                            ),
                        );
                    }
                }
                self.installed.insert(node.0, *epoch);
            }
            ProtocolEvent::StaleEpochFenced { node, from, epoch } => {
                if let Some(&installed) = self.installed.get(&node.0) {
                    if *epoch >= installed {
                        self.flag(
                            at,
                            "epoch_fencing",
                            format!(
                                "{node} fenced a message from {from} at epoch {epoch}, \
                                 but its installed epoch is only {installed}"
                            ),
                        );
                    }
                }
            }
            ProtocolEvent::CopyGranted { node, lock, span, .. } => {
                self.members.entry(*lock).or_default().insert((*node, span.origin));
            }
            ProtocolEvent::CopyRevoked { node, lock, child, new_owned: None } => {
                if let Some(m) = self.members.get_mut(lock) {
                    m.remove(&(*node, *child));
                }
            }
            ProtocolEvent::Granted { node, lock, .. } => {
                if let TokenWhere::Held(h) = self.token_state(*lock) {
                    let member = self
                        .members
                        .get(lock)
                        .is_some_and(|m| m.iter().any(|&(_, child)| child == *node));
                    if h != *node && !member {
                        self.flag(
                            at,
                            "grant_legitimacy",
                            format!(
                                "{lock}: {node} granted locally without the token \
                                 (held by {h}) or a copyset membership"
                            ),
                        );
                    }
                }
            }
            ProtocolEvent::MessageSent { node, to, kind } => {
                self.links.entry((node.0, to.0)).or_default().sent.push_back(*kind);
            }
            ProtocolEvent::Delivered { node, from, kind } => {
                let link = self.links.entry((from.0, node.0)).or_default();
                if let Some(pos) = link.sent.iter().position(|k| k == kind) {
                    // Everything before the match is treated as lost
                    // (reordering fault injection skips; the session
                    // layer restores order above this check).
                    link.sent.drain(..=pos);
                    if link.recent.len() == LINK_RECENT_WINDOW {
                        link.recent.pop_front();
                    }
                    link.recent.push_back(*kind);
                } else if !link.recent.contains(kind) {
                    self.flag(
                        at,
                        "link_fifo",
                        format!(
                            "{node} delivered a {} from {from} that {from} \
                             never sent on this link",
                            kind.label()
                        ),
                    );
                }
            }
            ProtocolEvent::Dropped { node, from, kind } => {
                let link = self.links.entry((from.0, node.0)).or_default();
                if let Some(pos) = link.sent.iter().position(|k| k == kind) {
                    link.sent.remove(pos);
                }
            }
            _ => {}
        }
    }
}

/// The flight handle every host shares: one cloneable, thread-safe owner
/// of each node's [`FlightRecorder`], the [`InvariantAuditor`] and the
/// optional dump directory. It audits every event it is fed, records it
/// in its node's ring, and writes the rings out as
/// `flight-node-<i>.jsonl`: on demand ([`SharedAuditor::dump`]), when a
/// mux node is killed ([`SharedAuditor::dump_node`]), and on the
/// auditor's first finding.
///
/// Each host has one source of cross-node causality. Single-threaded
/// hosts (simulator, model checker) feed the handle as an [`Observer`]:
/// each `message_sent` pushes its stamp onto the link's in-flight queue
/// and the matching `delivered` / `dropped` pops it, merging it into the
/// receiver's clock. (Under reordering fault injection the FIFO pop
/// pairs a delivery with the *oldest* in-flight send on its link — a
/// conservative, still-causal bound.) The mux carries stamps on its wire
/// frames instead ([`SharedAuditor::stamp_send`],
/// [`SharedAuditor::observe_remote`]) and feeds events through
/// [`SharedAuditor::on_wire_event`], which pairs nothing.
#[derive(Debug, Clone)]
pub struct SharedAuditor(Arc<Flight>);

#[derive(Debug)]
struct Flight {
    /// One ring per node, indexed by node id; none on an audit-only handle.
    rings: Vec<Mutex<FlightRecorder>>,
    dump_dir: Option<PathBuf>,
    state: Mutex<FlightState>,
}

#[derive(Debug, Default)]
struct FlightState {
    auditor: InvariantAuditor,
    /// Send stamps in flight per `(from, to)` link, oldest first.
    in_flight: HashMap<(NodeId, NodeId), VecDeque<Hlc>>,
    dumped: bool,
    dump_error: Option<String>,
}

fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl SharedAuditor {
    /// An audit-only handle: it records nothing, so it has no window to
    /// dump (pass `None` to only collect findings).
    pub fn new(dump_dir: Option<PathBuf>) -> Self {
        SharedAuditor::recording(0, dump_dir)
    }

    /// A handle that also keeps the last [`DEFAULT_FLIGHT_CAPACITY`]
    /// events of each of nodes `0..nodes`.
    pub fn recording(nodes: usize, dump_dir: Option<PathBuf>) -> Self {
        let rings =
            (0..nodes).map(|_| Mutex::new(FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY))).collect();
        SharedAuditor(Arc::new(Flight { rings, dump_dir, state: Mutex::default() }))
    }

    fn state(&self) -> MutexGuard<'_, FlightState> {
        locked(&self.0.state)
    }

    fn ring(&self, node: NodeId) -> Option<MutexGuard<'_, FlightRecorder>> {
        self.0.rings.get(node.index()).map(locked)
    }

    /// Records and audits one event of a host that stamps its wire
    /// frames: message events are recorded as they are, since the
    /// frames carry the causality.
    pub fn on_wire_event(&self, at: u64, event: &ProtocolEvent) {
        if let Some(mut ring) = self.ring(event.node()) {
            ring.record(at, event);
        }
        self.audit(self.state(), |a| a.on_event(at, event));
    }

    /// Ticks `node`'s clock for an outgoing wire frame; returns the raw
    /// stamp the frame carries (0 when `node` has no ring).
    pub fn stamp_send(&self, node: NodeId, at: u64) -> u64 {
        self.ring(node).map_or(0, |mut ring| ring.stamp_send(at).0)
    }

    /// Folds a received frame's raw stamp into `node`'s clock (a zero
    /// stamp, from an unrecorded sender, is ignored).
    pub fn observe_remote(&self, node: NodeId, raw: u64, at: u64) {
        if raw != 0 {
            if let Some(mut ring) = self.ring(node) {
                ring.observe_remote(Hlc(raw), at);
            }
        }
    }

    /// The auditor's end-of-stream check ([`InvariantAuditor::finish`]).
    pub fn finish(&self, at: u64) {
        self.audit(self.state(), |a| a.finish(at));
    }

    /// Feeds the auditor; its first finding dumps every ring.
    fn audit(&self, mut st: MutexGuard<'_, FlightState>, feed: impl FnOnce(&mut InvariantAuditor)) {
        let clean = st.auditor.is_clean();
        feed(&mut st.auditor);
        if clean && !st.auditor.is_clean() {
            st.dumped =
                self.0.dump_dir.is_some() && self.write(&mut st, 0..self.0.rings.len()).is_ok();
        }
    }

    /// All findings so far.
    pub fn findings(&self) -> Vec<AuditFinding> {
        self.state().auditor.findings().to_vec()
    }

    /// Whether no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.state().auditor.is_clean()
    }

    /// Whether the first finding's dump wrote every window.
    pub fn dumped(&self) -> bool {
        self.state().dumped
    }

    /// The first error any dump hit, if any.
    pub fn dump_error(&self) -> Option<String> {
        self.state().dump_error.clone()
    }

    /// Events evicted from full rings, summed over every node.
    pub fn dropped(&self) -> u64 {
        self.0.rings.iter().map(|ring| locked(ring).dropped()).sum()
    }

    /// Dump on demand: writes every node's window to the dump directory
    /// and returns the paths written (none without a directory).
    ///
    /// # Errors
    ///
    /// The first filesystem error, which [`SharedAuditor::dump_error`]
    /// also keeps.
    pub fn dump(&self) -> io::Result<Vec<PathBuf>> {
        let mut st = self.state();
        self.write(&mut st, 0..self.0.rings.len())
    }

    /// The crash dump of a killed node: writes its window alone. A
    /// failure is kept for [`SharedAuditor::dump_error`], since a killed
    /// node has no caller to return it to.
    pub fn dump_node(&self, node: NodeId) {
        let i = node.index();
        if i < self.0.rings.len() {
            self.write(&mut self.state(), i..i + 1).ok();
        }
    }

    /// The one routine that writes flight windows: node `i`'s ring to
    /// `flight-node-<i>.jsonl` for each `i` in `nodes`. The first error
    /// ends the dump and is kept.
    fn write(&self, st: &mut FlightState, nodes: Range<usize>) -> io::Result<Vec<PathBuf>> {
        let Some(dir) = &self.0.dump_dir else { return Ok(Vec::new()) };
        let written = fs::create_dir_all(dir).and_then(|()| {
            nodes
                .map(|i| {
                    let path = dir.join(format!("flight-node-{i}.jsonl"));
                    fs::write(&path, locked(&self.0.rings[i]).dump_jsonl()).map(|()| path)
                })
                .collect()
        });
        if let Err(e) = &written {
            st.dump_error.get_or_insert_with(|| format!("flight dump to {}: {e}", dir.display()));
        }
        written
    }
}

impl Observer for SharedAuditor {
    fn on_event(&mut self, at: u64, event: &ProtocolEvent) {
        let mut st = self.state();
        if let Some(mut ring) = self.ring(event.node()) {
            match *event {
                ProtocolEvent::MessageSent { node, to, .. } => {
                    let h = ring.record(at, event);
                    st.in_flight.entry((node, to)).or_default().push_back(h);
                }
                ProtocolEvent::Delivered { node, from, .. }
                | ProtocolEvent::Dropped { node, from, .. } => {
                    // A dropped message's stamp never arrives; popping it
                    // keeps later deliveries paired with their own sends.
                    let sent = st.in_flight.get_mut(&(from, node)).and_then(VecDeque::pop_front);
                    if let (Some(h), ProtocolEvent::Delivered { .. }) = (sent, event) {
                        ring.observe_remote(h, at);
                    }
                    ring.record(at, event);
                }
                _ => {
                    ring.record(at, event);
                }
            }
        }
        self.audit(st, |a| a.on_event(at, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolConfig;
    use crate::effect::{Effect, EffectSink};
    use crate::ids::{LockId, Ticket};
    use crate::message::Envelope;
    use crate::mode::Mode;

    const L: LockId = LockId(0);

    fn fresh(n: usize) -> Vec<LockNode> {
        (0..n as u32)
            .map(|i| LockNode::new(NodeId(i), L, NodeId(0), ProtocolConfig::default()))
            .collect()
    }

    /// Delivers all pending messages between nodes until quiet; returns
    /// the protocol events of those steps (none unless `fx` is observing).
    fn pump(
        nodes: &mut [LockNode],
        fx: &mut EffectSink<Envelope>,
        from: NodeId,
    ) -> Vec<ProtocolEvent> {
        let mut events = fx.take_events();
        let mut queue: Vec<(NodeId, NodeId, Envelope)> = fx
            .drain()
            .filter_map(|e| match e {
                Effect::Send { to, message } => Some((from, to, message)),
                _ => None,
            })
            .collect();
        while let Some((src, dst, msg)) = queue.pop() {
            nodes[dst.index()].on_message(src, msg.payload, fx);
            events.extend(fx.take_events());
            queue.extend(fx.drain().filter_map(|e| match e {
                Effect::Send { to, message } => Some((dst, to, message)),
                _ => None,
            }));
        }
        events
    }

    #[test]
    fn initial_state_is_consistent() {
        let nodes = fresh(4);
        assert!(audit_lock(nodes.iter()).is_empty());
    }

    #[test]
    fn post_exchange_state_is_consistent() {
        let mut nodes = fresh(4);
        let mut fx = EffectSink::new();
        // Node 1 takes R, node 2 takes IR, node 3 takes and releases W.
        for (i, mode, t) in
            [(1usize, Mode::Read, 1u64), (2, Mode::IntentRead, 2), (3, Mode::Write, 3)]
        {
            // Release previous holders first for the W request to go through.
            if mode == Mode::Write {
                nodes[1].release(Ticket(1), &mut fx).unwrap();
                pump(&mut nodes, &mut fx, NodeId(1));
                nodes[2].release(Ticket(2), &mut fx).unwrap();
                pump(&mut nodes, &mut fx, NodeId(2));
            }
            nodes[i].request(mode, Ticket(t), &mut fx).unwrap();
            pump(&mut nodes, &mut fx, NodeId(i as u32));
        }
        nodes[3].release(Ticket(3), &mut fx).unwrap();
        pump(&mut nodes, &mut fx, NodeId(3));
        let findings = audit_lock(nodes.iter());
        assert!(findings.is_empty(), "{findings:?}");
    }

    /// A retained `IR` is an owned mode without a ticket: the quiescent
    /// audit accepts it (the parent's copyset accounts for it like a held
    /// one) and it does not count against quiescence.
    #[test]
    fn retained_mode_is_consistent_at_quiescence() {
        let mut nodes = fresh(3);
        let mut fx = EffectSink::new();
        for i in [1usize, 2] {
            nodes[i].request(Mode::IntentRead, Ticket(1), &mut fx).unwrap();
            pump(&mut nodes, &mut fx, NodeId(i as u32));
            nodes[i].release(Ticket(1), &mut fx).unwrap();
            pump(&mut nodes, &mut fx, NodeId(i as u32));
            assert_eq!(nodes[i].retained(), Some(Mode::IntentRead));
            assert!(nodes[i].held().is_empty() && nodes[i].is_quiescent());
        }
        assert_eq!(nodes[0].children().len(), 2, "the token still accounts for both");
        let findings = audit_lock(nodes.iter());
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn tree_depths_of_initial_star() {
        let nodes = fresh(5);
        let depths = tree_depths(nodes.iter());
        assert_eq!(depths[0], Some(0), "token home is the root");
        assert!(depths[1..].iter().all(|d| *d == Some(1)), "{depths:?}");
        assert!((mean_tree_depth(nodes.iter()) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn audit_detects_empty_system() {
        let nodes: Vec<LockNode> = Vec::new();
        assert!(audit_lock(nodes.iter()).is_empty());
    }

    /// What the oracle reads of one node on `L`: epoch, held modes, token.
    struct Seen(u64, Vec<Mode>, bool);

    impl Inspect for Seen {
        fn held_modes(&self, _: LockId) -> Vec<Mode> {
            self.1.clone()
        }
        fn holds_token(&self, _: LockId) -> bool {
            self.2
        }
        fn epoch(&self) -> u64 {
            self.0
        }
    }

    /// Runs the live oracle (`whole == None`) or the at-rest one over
    /// `nodes`; returns `"invariant: detail"` per finding.
    fn oracle(nodes: &[Seen], scope: EpochScope, whole: Option<bool>) -> Vec<String> {
        let view: Vec<(NodeId, &Seen)> =
            nodes.iter().enumerate().map(|(i, n)| (NodeId(i as u32), n)).collect();
        let findings = match whole {
            None => audit_live(&view, 1, scope, 0),
            Some(whole) => audit_at_rest(&view, 1, scope, whole, 0),
        };
        findings.iter().map(|f| format!("{}: {}", f.invariant, f.detail)).collect()
    }

    #[test]
    fn live_oracle_flags_two_tokens_or_an_incompatible_pair_at_one_epoch() {
        for scope in [EpochScope::Global, EpochScope::PerEpoch] {
            let tokens = [Seen(1, vec![], true), Seen(1, vec![], true)];
            let found = oracle(&tokens, scope, None);
            assert_eq!(found, ["token_unique: 2 live token holders for L0 (epochs [1, 1])"]);
            let pair = [Seen(0, vec![Mode::IntentWrite], true), Seen(0, vec![Mode::Read], false)];
            let found = oracle(&pair, scope, None);
            assert_eq!(found, ["holder_compatibility: incompatible holders on L0: n0:IW vs n1:R"]);
            // One node's own tickets, and compatible holders, are fine.
            let fine = [Seen(0, vec![Mode::Read; 2], true), Seen(0, vec![Mode::IntentRead], false)];
            assert!(oracle(&fine, scope, None).is_empty());
        }
    }

    /// A stale-epoch hold is a voided lease only where a live node can
    /// be falsely suspected; a crash-only run compares it like any other.
    #[test]
    fn live_oracle_compares_across_epochs_only_in_global_scope() {
        let nodes = [Seen(0, vec![Mode::Write], true), Seen(1, vec![Mode::IntentRead], true)];
        let global = oracle(&nodes, EpochScope::Global, None);
        assert_eq!(global.len(), 2, "{global:?}");
        assert!(global[0].starts_with("token_unique") && global[1].starts_with("holder_"));
        assert!(oracle(&nodes, EpochScope::PerEpoch, None).is_empty());
    }

    #[test]
    fn at_rest_oracle_wants_exactly_one_token() {
        for tokens in [0, 2] {
            let nodes: Vec<Seen> = (0..3).map(|i| Seen(0, vec![], i < tokens)).collect();
            let found = oracle(&nodes, EpochScope::Global, Some(true));
            let want = format!("token_at_rest: {tokens} live tokens for L0 at quiescence");
            assert_eq!(found, [want]);
        }
        // Under false suspicion only the newest live epoch's token counts:
        // a recovered-around straggler may rest on its voided one.
        let nodes = [Seen(0, vec![], true), Seen(1, vec![], true), Seen(1, vec![], false)];
        assert!(oracle(&nodes, EpochScope::PerEpoch, Some(false)).is_empty());
        assert_eq!(oracle(&nodes, EpochScope::Global, Some(false)).len(), 1);
    }

    fn span_of(o: u32, t: u64) -> crate::observe::SpanId {
        crate::observe::SpanId::new(NodeId(o), Ticket(t))
    }

    fn issued(o: u32, t: u64) -> ProtocolEvent {
        ProtocolEvent::RequestIssued {
            node: NodeId(o),
            lock: L,
            span: span_of(o, t),
            mode: Mode::Read,
            priority: crate::ids::Priority::NORMAL,
        }
    }

    fn granted_ev(o: u32, t: u64) -> ProtocolEvent {
        ProtocolEvent::Granted { node: NodeId(o), lock: L, span: span_of(o, t), mode: Mode::Read }
    }

    fn token_recv(n: u32) -> ProtocolEvent {
        ProtocolEvent::TokenReceived {
            node: NodeId(n),
            lock: L,
            span: span_of(n, 1),
            mode: Mode::Write,
        }
    }

    fn feed(auditor: &mut InvariantAuditor, evs: &[ProtocolEvent]) {
        for (i, e) in evs.iter().enumerate() {
            auditor.on_event(i as u64, e);
        }
    }

    #[test]
    fn live_auditor_is_silent_on_a_clean_stream() {
        let mut a = InvariantAuditor::new();
        feed(
            &mut a,
            &[
                issued(1, 1),
                ProtocolEvent::MessageSent {
                    node: NodeId(1),
                    to: NodeId(0),
                    kind: MessageKind::Request,
                },
                ProtocolEvent::Delivered {
                    node: NodeId(0),
                    from: NodeId(1),
                    kind: MessageKind::Request,
                },
                ProtocolEvent::CopyGranted {
                    node: NodeId(0),
                    lock: L,
                    span: span_of(1, 1),
                    mode: Mode::Read,
                    copyset_size: 1,
                },
                granted_ev(1, 1),
            ],
        );
        assert!(a.is_clean(), "{:?}", a.findings());
    }

    #[test]
    fn live_auditor_flags_double_token() {
        let mut a = InvariantAuditor::new();
        feed(&mut a, &[token_recv(1), token_recv(2)]);
        assert_eq!(a.findings().len(), 1);
        assert_eq!(a.findings()[0].invariant, "token_unique");
        assert!(a.findings()[0].detail.contains("received the token while"));
    }

    #[test]
    fn live_auditor_flags_token_sent_by_non_holder() {
        let mut a = InvariantAuditor::new();
        feed(
            &mut a,
            &[
                token_recv(1),
                ProtocolEvent::TokenSent {
                    node: NodeId(2),
                    lock: L,
                    span: span_of(2, 1),
                    mode: Mode::Write,
                    queue_len: 0,
                },
            ],
        );
        assert_eq!(a.findings().len(), 1);
        assert_eq!(a.findings()[0].invariant, "token_unique");
    }

    #[test]
    fn live_auditor_accepts_token_handoff_and_recovery_reset() {
        let mut a = InvariantAuditor::new();
        feed(
            &mut a,
            &[
                token_recv(1),
                ProtocolEvent::TokenSent {
                    node: NodeId(1),
                    lock: L,
                    span: span_of(2, 1),
                    mode: Mode::Write,
                    queue_len: 0,
                },
                token_recv(2),
                ProtocolEvent::RecoveryStarted { node: NodeId(3), epoch: 1, dead: 1 },
                ProtocolEvent::TokenRegenerated { node: NodeId(3), lock: L, epoch: 1 },
                ProtocolEvent::RecoveryCompleted { node: NodeId(3), epoch: 1 },
            ],
        );
        assert!(a.is_clean(), "{:?}", a.findings());
    }

    #[test]
    fn live_auditor_flags_grant_without_token_or_membership() {
        let mut a = InvariantAuditor::new();
        feed(&mut a, &[token_recv(1), issued(2, 1), granted_ev(2, 1)]);
        let grant_findings: Vec<_> =
            a.findings().iter().filter(|f| f.invariant == "grant_legitimacy").collect();
        assert_eq!(grant_findings.len(), 1, "{:?}", a.findings());
    }

    /// Regression: a re-parented child's membership is per parent. The
    /// new parent's grant is observed first, the old parent's revocation
    /// later — the late revocation must not erase the live membership,
    /// and the new parent's own revocation still ends it.
    #[test]
    fn live_auditor_keys_membership_by_parent_and_child() {
        let copy_granted = |parent: u32, child: u32, t: u64| ProtocolEvent::CopyGranted {
            node: NodeId(parent),
            lock: L,
            span: span_of(child, t),
            mode: Mode::Read,
            copyset_size: 1,
        };
        let revoked = |parent: u32, child: u32| ProtocolEvent::CopyRevoked {
            node: NodeId(parent),
            lock: L,
            child: NodeId(child),
            new_owned: None,
        };
        let mut a = InvariantAuditor::new();
        feed(
            &mut a,
            &[
                token_recv(1),
                issued(3, 1),
                copy_granted(0, 3, 1),
                granted_ev(3, 1),
                // n3 asks again, is served by the token node n1 and
                // re-parents; n0 learns of it only afterwards.
                issued(3, 2),
                copy_granted(1, 3, 2),
                granted_ev(3, 2),
                revoked(0, 3),
                issued(3, 3),
                granted_ev(3, 3),
            ],
        );
        assert!(a.is_clean(), "{:?}", a.findings());
        feed(&mut a, &[revoked(1, 3), issued(3, 4), granted_ev(3, 4)]);
        assert_eq!(a.findings().len(), 1, "{:?}", a.findings());
        assert_eq!(a.findings()[0].invariant, "grant_legitimacy");
    }

    /// The old token node stays in the new one's copyset when it still
    /// owns a mode (footnote b) — here a retained `IR` — and may keep
    /// granting under it.
    #[test]
    fn live_auditor_accepts_local_grants_at_the_old_token_node() {
        let mut nodes = fresh(2);
        let mut fx = EffectSink::new();
        fx.set_observing(true);
        nodes[0].request(Mode::IntentRead, Ticket(1), &mut fx).unwrap();
        let mut events = fx.take_events();
        // U is compatible with n0's IR and always moves the token.
        nodes[1].request(Mode::Upgrade, Ticket(1), &mut fx).unwrap();
        events.extend(pump(&mut nodes, &mut fx, NodeId(1)));
        assert!(nodes[1].is_token());
        nodes[0].release(Ticket(1), &mut fx).unwrap();
        assert_eq!(nodes[0].retained(), Some(Mode::IntentRead));
        nodes[0].request(Mode::IntentRead, Ticket(2), &mut fx).unwrap();
        events.extend(fx.take_events());
        assert_eq!(nodes[0].held(), &[(Ticket(2), Mode::IntentRead)]);
        let mut a = InvariantAuditor::new();
        feed(&mut a, &events);
        assert!(a.is_clean(), "{:?}", a.findings());
        assert!(events.iter().any(|e| matches!(e, ProtocolEvent::TokenReceived { .. })));
    }

    #[test]
    fn live_auditor_flags_span_imbalance() {
        let mut a = InvariantAuditor::new();
        feed(&mut a, &[issued(1, 1), issued(1, 1)]);
        assert_eq!(a.findings()[0].invariant, "span_balance");
        let mut b = InvariantAuditor::new();
        feed(&mut b, &[granted_ev(1, 1)]);
        assert!(b
            .findings()
            .iter()
            .any(|f| f.invariant == "grant_legitimacy" || f.invariant == "span_balance"));
        assert!(b.findings().iter().any(|f| f.detail.contains("without a matching open")));
    }

    #[test]
    fn span_balance_holds_until_the_end_of_stream() {
        // Sequential ticket reuse is legal, and an abort closes a span.
        let aborted =
            ProtocolEvent::RequestAborted { node: NodeId(0), lock: L, span: span_of(0, 2) };
        let mut evs = vec![issued(0, 1), granted_ev(0, 1), issued(0, 1), granted_ev(0, 1)];
        evs.extend([issued(0, 2), aborted]);
        assert_eq!(InvariantAuditor::audit_stream(&evs), []);
        // A span may be open until the stream ends, but not after.
        evs.push(issued(2, 4));
        let mut a = InvariantAuditor::new();
        feed(&mut a, &evs);
        assert!(a.is_clean(), "{:?}", a.findings());
        a.finish(7);
        let f = a.findings()[0].to_string();
        assert_eq!(f, "[span_balance] at=7: spans left open at end of stream: n2/t4");
        assert_eq!(InvariantAuditor::audit_stream(&evs), a.findings());
    }

    #[test]
    fn live_auditor_flags_never_sent_delivery_but_tolerates_dups_and_reorder() {
        let sent =
            |k: MessageKind| ProtocolEvent::MessageSent { node: NodeId(0), to: NodeId(1), kind: k };
        let delivered =
            |k: MessageKind| ProtocolEvent::Delivered { node: NodeId(1), from: NodeId(0), kind: k };
        // Reorder: request sent then grant sent; grant arrives first.
        let mut a = InvariantAuditor::new();
        feed(
            &mut a,
            &[
                sent(MessageKind::Request),
                sent(MessageKind::Grant),
                delivered(MessageKind::Grant),
                // Duplicate delivery of the grant (session retransmit).
                delivered(MessageKind::Grant),
            ],
        );
        assert!(a.is_clean(), "{:?}", a.findings());
        // A token was never sent on this link.
        a.on_event(99, &delivered(MessageKind::Token));
        assert_eq!(a.findings().len(), 1);
        assert_eq!(a.findings()[0].invariant, "link_fifo");
    }

    #[test]
    fn live_auditor_flags_epoch_inconsistencies() {
        let mut a = InvariantAuditor::new();
        feed(
            &mut a,
            &[
                ProtocolEvent::RecoveryCompleted { node: NodeId(0), epoch: 2 },
                // Clean fence: epoch 1 < installed 2.
                ProtocolEvent::StaleEpochFenced { node: NodeId(0), from: NodeId(1), epoch: 1 },
            ],
        );
        assert!(a.is_clean(), "{:?}", a.findings());
        // Fencing a current-epoch message is a violation.
        a.on_event(
            10,
            &ProtocolEvent::StaleEpochFenced { node: NodeId(0), from: NodeId(1), epoch: 2 },
        );
        // Epoch regression is a violation.
        a.on_event(11, &ProtocolEvent::RecoveryCompleted { node: NodeId(0), epoch: 2 });
        assert_eq!(a.findings().len(), 2);
        assert!(a.findings().iter().all(|f| f.invariant == "epoch_fencing"));
    }

    #[test]
    fn shared_auditor_dumps_on_first_finding() {
        let dir = std::env::temp_dir().join(format!("hlock-audit-dump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut flight = SharedAuditor::recording(3, Some(dir.clone()));
        flight.on_event(0, &token_recv(1));
        assert!(!flight.dumped());
        flight.on_event(1, &token_recv(2));
        assert!(flight.dumped(), "{:?}", flight.dump_error());
        let mut dumps: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        dumps.sort();
        assert_eq!(dumps.len(), 3, "one window per node");
        let dump = std::fs::read_to_string(&dumps[2]).unwrap();
        assert!(dump.contains("\"event\":\"token_received\""));
        assert!(dump.starts_with("{\"hlc\":"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_dump_is_reported_not_counted() {
        let file = std::env::temp_dir().join(format!("hlock-audit-file-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let mut flight = SharedAuditor::recording(3, Some(file.join("flight")));
        flight.on_event(0, &token_recv(1));
        flight.on_event(1, &token_recv(2));
        assert_eq!(flight.findings().len(), 1, "the finding is recorded all the same");
        assert!(!flight.dumped(), "nothing was written");
        let error = flight.dump_error().expect("the dump error is kept");
        assert!(error.contains("hlock-audit-file"), "{error}");
        assert!(flight.dump().is_err());
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn shared_auditor_carries_causality_across_nodes() {
        let mut flight = SharedAuditor::recording(2, None);
        let (n0, n1) = (NodeId(0), NodeId(1));
        // Node 0's clock runs hot (large at); node 1 receives later by
        // wall-clock but must still be stamped after the send.
        flight.on_event(5_000, &issued(0, 1));
        let kind = MessageKind::Request;
        flight.on_event(5_001, &ProtocolEvent::MessageSent { node: n0, to: n1, kind });
        flight.on_event(3, &ProtocolEvent::Delivered { node: n1, from: n0, kind });
        let sent = flight.ring(n0).unwrap().now();
        let delivered = flight.ring(n1).unwrap().now();
        assert!(delivered > sent, "delivered {delivered} !> sent {sent}");
        // A wire host's events pair nothing: its frames carry the stamps.
        let wire = SharedAuditor::recording(2, None);
        wire.on_wire_event(5_001, &ProtocolEvent::MessageSent { node: n0, to: n1, kind });
        wire.on_wire_event(3, &ProtocolEvent::Delivered { node: n1, from: n0, kind });
        assert!(wire.ring(n1).unwrap().now() < wire.ring(n0).unwrap().now());
        wire.observe_remote(n1, wire.stamp_send(n0, 5_002), 4);
        assert!(wire.ring(n1).unwrap().now() > wire.ring(n0).unwrap().now());
    }

    #[test]
    fn audit_detects_phantom_child() {
        // A child was granted by node 0 but then re-pointed elsewhere
        // without node 0 learning — fabricate it via raw message plays.
        let mut nodes = fresh(3);
        let mut fx = EffectSink::new();
        // Node 1 obtains R from the token (copy grant).
        nodes[1].request(Mode::Read, Ticket(1), &mut fx).unwrap();
        pump(&mut nodes, &mut fx, NodeId(1));
        fx.drain().count();
        // Corrupt: node 1 releases, but we drop its release message.
        nodes[1].release(Ticket(1), &mut fx).unwrap();
        let _dropped = fx.drain().count();
        let findings = audit_lock(nodes.iter());
        assert!(
            findings
                .iter()
                .any(|f| f.detail.contains("records child") || f.detail.contains("owns")),
            "stale copyset entry must be flagged: {findings:?}"
        );
    }
}
