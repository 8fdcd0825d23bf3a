//! # hlock-net
//!
//! A real-socket transport for the sans-I/O protocols: every node is a
//! runtime speaking length-prefixed [`hlock_wire`] frames over TCP.
//! This demonstrates the exact same protocol state machines that run in
//! the simulator working over a real network stack (the paper's testbed
//! used switched TCP/IP; a localhost mesh exercises the same code
//! paths).
//!
//! The crate is layered (see `docs/TRANSPORT.md`):
//!
//! - [`transport`](crate) — the shared machinery: the per-node command
//!   vocabulary, the single definition of protocol-event semantics every
//!   host in this crate applies, grant mailboxes, counters.
//! - `conn` — sans-I/O connection state: bounded outboxes with
//!   partial-write cursors, redial/failure-detector backoff.
//! - `mux` — the I/O engine behind [`Cluster`]: a small worker pool
//!   drives every node's sockets and timers from an epoll-style
//!   readiness loop, so a cluster of a thousand nodes needs a handful of
//!   threads, not thousands.
//! - [`sharded`] — [`ShardedCluster`]: one node's lock space split over
//!   worker threads, behind its own reader/router/egress threads.
//!
//! Use [`Cluster::spawn_hierarchical`], or [`Cluster::spawn`] with any
//! other protocol, to bring up an in-process mesh:
//!
//! ```no_run
//! use hlock_core::{LockId, Mode, ProtocolConfig};
//! use hlock_net::Cluster;
//! use std::time::Duration;
//!
//! let cluster = Cluster::spawn_hierarchical(3, 1, ProtocolConfig::default())?;
//! let t = cluster.node(1).acquire(LockId(0), Mode::Read, Duration::from_secs(5))?;
//! cluster.node(1).release(LockId(0), t)?;
//! cluster.shutdown();
//! # Ok::<(), hlock_net::NetError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ccs;
mod conn;
mod mux;
pub mod sharded;
mod transport;

pub use sharded::{ShardedCluster, ShardedNodeHandle};

use hlock_core::{
    ConcurrencyProtocol, Inspect, LockId, LockSpace, MessageKind, Mode, NodeId, Observer, Priority,
    ProtocolConfig, ProtocolEvent, RecoverySpace, RuntimeCounters, SharedAuditor, Ticket,
};
use hlock_wire::WireCodec;
use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;
use transport::{Counters, GrantTable, LoopEvent};

/// Transport-level failures.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure during cluster setup or sending.
    Io(std::io::Error),
    /// A wait timed out before the grant arrived.
    Timeout {
        /// The ticket that was being waited on.
        ticket: Ticket,
    },
    /// The protocol rejected an operation (caller mistake).
    Protocol(hlock_core::ProtocolError),
    /// The node's event loop has shut down.
    Closed,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport I/O error: {e}"),
            NetError::Timeout { ticket } => write!(f, "timed out waiting for grant of {ticket}"),
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
            NetError::Closed => write!(f, "node is shut down"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// One running node: protocol loop + sockets.
pub struct NodeHandle<P: ConcurrencyProtocol> {
    id: NodeId,
    addr: SocketAddr,
    grants: Arc<GrantTable>,
    counters: Arc<Counters>,
    next_ticket: AtomicU64,
    port: mux::MuxPort<P>,
}

impl<P: ConcurrencyProtocol> fmt::Debug for NodeHandle<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NodeHandle").field("id", &self.id).finish()
    }
}

impl<P> NodeHandle<P>
where
    P: ConcurrencyProtocol + Send + 'static,
    P::Message: WireCodec + Send + 'static,
{
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The address this node's listener accepts peer links on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Hands one event to the node's worker, waking it if needed, and
    /// blocks for the answer. A stopped or killed node's events are
    /// dropped by the worker (its queue is shared with the worker's other
    /// nodes and outlives this one), reply channel and all.
    fn ask<R>(
        &self,
        event: impl FnOnce(Sender<R>) -> LoopEvent<P::Message>,
    ) -> Result<R, NetError> {
        let (tx, rx) = channel();
        self.port.send(event(tx))?;
        rx.recv().map_err(|_| NetError::Closed)
    }

    /// Issues an asynchronous lock request; the grant can be awaited with
    /// [`NodeHandle::wait`]. The protocol step runs on the calling
    /// thread: a request this node can grant locally is granted by the
    /// time this returns, without waking any other thread.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the node has shut down.
    pub fn request(&self, lock: LockId, mode: Mode) -> Result<Ticket, NetError> {
        self.request_with_priority(lock, mode, Priority::NORMAL)
    }

    /// Like [`NodeHandle::request`] with an explicit priority.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the node has shut down.
    pub fn request_with_priority(
        &self,
        lock: LockId,
        mode: Mode,
        priority: Priority,
    ) -> Result<Ticket, NetError> {
        let ticket = Ticket(self.next_ticket.fetch_add(1, Ordering::Relaxed));
        self.port.apply(&self.grants, LoopEvent::Request { lock, mode, ticket, priority })?;
        Ok(ticket)
    }

    /// Blocks until `ticket` is granted.
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if the grant does not arrive in time.
    pub fn wait(&self, ticket: Ticket, timeout: Duration) -> Result<Mode, NetError> {
        self.grants.wait(ticket, timeout).map(|(_, m)| m).ok_or(NetError::Timeout { ticket })
    }

    /// Requests and blocks until granted. On timeout the request is
    /// cancelled, so the grant cannot arrive later unobserved.
    ///
    /// # Errors
    ///
    /// Propagates [`NetError::Timeout`] / [`NetError::Closed`].
    pub fn acquire(&self, lock: LockId, mode: Mode, timeout: Duration) -> Result<Ticket, NetError> {
        let ticket = self.request(lock, mode)?;
        match self.wait(ticket, timeout) {
            Ok(_) => Ok(ticket),
            Err(e) => {
                let _ = self.cancel(lock, ticket);
                Err(e)
            }
        }
    }

    /// Attempts a message-free acquisition (CCS-style `try_lock`):
    /// succeeds only if this node can grant locally right now. Returns
    /// the ticket on success, `None` if the lock is not locally
    /// available.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the node has shut down.
    pub fn try_acquire(&self, lock: LockId, mode: Mode) -> Result<Option<Ticket>, NetError> {
        let ticket = Ticket(self.next_ticket.fetch_add(1, Ordering::Relaxed));
        if self.port.try_request(&self.grants, lock, mode, ticket)? {
            // Delivered by that very call, on this thread.
            let claimed = self.grants.wait(ticket, Duration::ZERO);
            debug_assert!(claimed.is_some(), "local grant of {ticket} was not delivered");
            Ok(Some(ticket))
        } else {
            Ok(None)
        }
    }

    /// Downgrades a held lock to a weaker mode (W→R, R→IR, …) without
    /// releasing it.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on an illegal downgrade or unknown ticket.
    pub fn downgrade(&self, lock: LockId, ticket: Ticket, mode: Mode) -> Result<(), NetError> {
        self.ask(|done| LoopEvent::Downgrade { lock, ticket, mode, done })?
    }

    /// Cancels an outstanding request (e.g. after a timeout). If the
    /// grant raced ahead and already arrived, the lock is released.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the node has shut down.
    pub fn cancel(&self, lock: LockId, ticket: Ticket) -> Result<(), NetError> {
        self.ask(|done| LoopEvent::Cancel { lock, ticket, done })?
    }

    /// Releases a granted lock. Does not wait for another thread: the
    /// ticket is checked against this node's record of granted tickets
    /// and the protocol's release step runs on the calling thread; a
    /// message it produces is left for the node's worker to send.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] (`NotHeld`) if `ticket` is unknown, not
    /// granted yet, already released, or was granted on another lock;
    /// [`NetError::Closed`] if the node has shut down.
    pub fn release(&self, lock: LockId, ticket: Ticket) -> Result<(), NetError> {
        self.grants.retire(lock, ticket)?;
        self.port.apply(&self.grants, LoopEvent::Release { lock, ticket })
    }

    /// Upgrades a held `U` to `W`, blocking until the upgrade completes.
    ///
    /// On timeout the pending upgrade is cancelled so it cannot fire
    /// later unobserved: normally the ticket reverts to its original `U`
    /// grant; if the `W` grant raced ahead of the cancellation, the lock
    /// is released entirely (mirroring a timed-out [`NodeHandle::acquire`]).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on misuse, [`NetError::Timeout`] if other
    /// holders do not drain in time.
    pub fn upgrade(&self, lock: LockId, ticket: Ticket, timeout: Duration) -> Result<(), NetError> {
        self.ask(|done| LoopEvent::Upgrade { lock, ticket, done })??;
        match self.wait(ticket, timeout) {
            Ok(_) => Ok(()),
            Err(e) => {
                let _ = self.cancel(lock, ticket);
                Err(e)
            }
        }
    }

    /// Fault injection: forcibly shuts down the outgoing TCP stream to
    /// `peer`. The next frame written to that peer fails, which evicts
    /// the dead socket and starts the reconnect-with-backoff path; on a
    /// session-wrapped cluster every frame lost in between is
    /// retransmitted once the link comes back.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the node has shut down.
    pub fn sever_link(&self, peer: NodeId) -> Result<(), NetError> {
        self.ask(|done| LoopEvent::Sever { peer, done })
    }

    /// Reports `dead` to this node's protocol as suspected crashed, as a
    /// failure detector would. Recovery-capable protocols (see
    /// [`Cluster::spawn_hierarchical_recovery`]) start an epoch election
    /// and rebuild without the dead nodes; plain protocols ignore it.
    /// The transport also raises this signal itself when redialing a
    /// peer keeps failing, so calling it manually is only needed to
    /// accelerate tests or inject false suspicions.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the node has shut down.
    pub fn suspect(&self, dead: &[NodeId]) -> Result<(), NetError> {
        self.ask(|done| LoopEvent::Suspect { dead: dead.to_vec(), done: Some(done) })
    }

    /// Fault injection: crash-stops this node. Every outgoing socket is
    /// shut down first (so nothing half-written escapes and peers see a
    /// dead link at once), then the event loop and reader threads halt.
    /// Unlike a graceful shutdown, nothing is flushed or handed over —
    /// the node's protocol state dies with it, which is exactly what a
    /// recovery epoch election must tolerate.
    ///
    /// Once this returns the node refuses every call with
    /// [`NetError::Closed`] and delivers no further grant.
    pub fn kill(&self) {
        // A second kill finds the slot empty: the worker drops the event
        // and the wait ends on the dropped reply channel.
        let _ = self.ask(|done| LoopEvent::Kill { done });
    }

    /// Whether this node's protocol has no work in flight (no pending or
    /// queued requests). Note: in-flight *messages* between nodes are not
    /// visible here; poll all nodes repeatedly for a stable answer.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the node has shut down.
    pub fn is_quiescent(&self) -> Result<bool, NetError> {
        self.ask(|done| LoopEvent::IsQuiescent { done })
    }

    /// Messages sent by this node so far, by kind.
    pub fn message_stats(&self) -> HashMap<MessageKind, u64> {
        self.counters.snapshot()
    }

    /// Total wire bytes (frames including length prefixes) sent by this
    /// node so far.
    pub fn bytes_sent(&self) -> u64 {
        self.counters.bytes.load(Ordering::Relaxed)
    }

    /// A snapshot of this node's host-runtime counters (steps,
    /// logical messages, frames, grants, timers, max batch). A grant
    /// counts when it is delivered; a message when the node's worker
    /// dispatches it, which may be a moment after the `release` or
    /// `request` that produced it returned.
    pub fn runtime_counters(&self) -> RuntimeCounters {
        self.port.runtime_counters()
    }

    /// The slot is removed by the worker; the worker threads themselves
    /// are joined by [`Cluster::shutdown`].
    fn stop(&self) {
        let _ = self.port.send(LoopEvent::Stop);
    }
}

/// An in-process TCP mesh of protocol nodes.
pub struct Cluster<P: ConcurrencyProtocol> {
    nodes: Vec<Arc<NodeHandle<P>>>,
    /// The mux worker pool; joined at [`Cluster::shutdown`].
    mux: mux::MuxHandle,
}

impl Cluster<LockSpace> {
    /// Spawns `n` nodes running the paper's hierarchical protocol with
    /// `locks` locks (token home: node 0), fully meshed over localhost.
    ///
    /// # Errors
    ///
    /// Any socket error during setup.
    pub fn spawn_hierarchical(
        n: usize,
        locks: usize,
        config: ProtocolConfig,
    ) -> Result<Cluster<LockSpace>, NetError> {
        Cluster::spawn(n, move |i| LockSpace::new(NodeId(i as u32), locks, NodeId(0), config))
    }
}

impl Cluster<RecoverySpace<LockSpace>> {
    /// Spawns `n` hierarchical nodes wrapped in the crash-recovery
    /// layer: every frame is epoch-stamped, survivors of a crash elect a
    /// new epoch (majority quorum) and regenerate lost tokens, and
    /// stale traffic from before the recovery is fenced at dispatch.
    ///
    /// `probe_interval` arms the keepalive probe: while a node has
    /// requests outstanding it periodically pings a peer with its
    /// epoch, which (a) turns a dead token home into repeated redial
    /// failures — the transport's failure detector — and (b) lets a
    /// falsely-suspected straggler discover the new epoch and rejoin.
    /// Keep it well above the mesh round-trip; ~250 ms is plenty for
    /// localhost tests.
    ///
    /// # Errors
    ///
    /// Any socket error during setup.
    pub fn spawn_hierarchical_recovery(
        n: usize,
        locks: usize,
        config: ProtocolConfig,
        probe_interval: Duration,
    ) -> Result<Cluster<RecoverySpace<LockSpace>>, NetError> {
        let micros = probe_interval.as_micros() as u64;
        Cluster::spawn(n, move |i| {
            RecoverySpace::new(NodeId(i as u32), locks, NodeId(0), n as u32, config)
                .with_probe_interval(micros)
        })
    }
}

impl<P> Cluster<P>
where
    P: ConcurrencyProtocol + Inspect + Send + 'static,
    P::Message: WireCodec + Send + 'static,
{
    /// Spawns `n` nodes built by `make`, fully meshed over localhost.
    ///
    /// # Errors
    ///
    /// Any socket error during setup.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `make` returns a protocol whose node id
    /// does not match its index.
    pub fn spawn(n: usize, make: impl Fn(usize) -> P) -> Result<Cluster<P>, NetError> {
        Self::spawn_observed(n, make, |_| None)
    }

    /// Like [`Cluster::spawn`], with a per-node [`Observer`]: `observe`
    /// is called once per node and may hand back a sink that the node
    /// feeds with the same [`ProtocolEvent`] stream the simulator and the
    /// model checker emit (timestamps are microseconds since the node
    /// started). Return `None` for zero-overhead nodes.
    ///
    /// The sink is called in protocol order, under the node's lock, by
    /// whichever thread just ran a protocol step — the node's worker, or
    /// a caller of [`NodeHandle::request`] / [`NodeHandle::release`]. It
    /// must not call back into the node it observes.
    ///
    /// # Errors
    ///
    /// Any socket error during setup.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `make` returns a protocol whose node id
    /// does not match its index.
    pub fn spawn_observed(
        n: usize,
        make: impl Fn(usize) -> P,
        observe: impl Fn(NodeId) -> Option<Box<dyn Observer + Send>>,
    ) -> Result<Cluster<P>, NetError> {
        let (nodes, handle) = mux::spawn_cluster(n, make, observe, None)?;
        Ok(Cluster { nodes, mux: handle })
    }

    /// Spawns `n` nodes on the mux transport with the full runtime
    /// diagnosis layer armed, and returns the cluster's flight handle:
    /// every node's last [`hlock_core::DEFAULT_FLIGHT_CAPACITY`] events in an
    /// HLC-stamped ring whose clock rides the wire format, and every
    /// node's event stream fed to the cluster-wide auditor (token
    /// uniqueness, grant legitimacy, span balance, link FIFO, epoch
    /// fencing).
    ///
    /// With `dump_dir` set, the first auditor finding dumps every
    /// node's window and [`NodeHandle::kill`] dumps the killed node's;
    /// [`SharedAuditor::dump`] dumps on demand. `observe` may add a
    /// per-node sink downstream of the handle (e.g. a shared
    /// [`hlock_core::Meter`]).
    ///
    /// # Errors
    ///
    /// Any socket error during setup.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `make` returns a protocol whose node id
    /// does not match its index.
    pub fn spawn_recorded(
        n: usize,
        make: impl Fn(usize) -> P,
        dump_dir: Option<std::path::PathBuf>,
        observe: impl Fn(NodeId) -> Option<Box<dyn Observer + Send>>,
    ) -> Result<(Cluster<P>, SharedAuditor), NetError> {
        let flight = SharedAuditor::recording(n, dump_dir);
        let node_flight = flight.clone();
        let (nodes, handle) = mux::spawn_cluster(
            n,
            make,
            move |id| {
                let flight = node_flight.clone();
                let mut user = observe(id);
                Some(Box::new(move |at: u64, ev: &ProtocolEvent| {
                    flight.on_wire_event(at, ev);
                    if let Some(u) = user.as_deref_mut() {
                        u.on_event(at, ev);
                    }
                }) as Box<dyn Observer + Send>)
            },
            Some(flight.clone()),
        )?;
        Ok((Cluster { nodes, mux: handle }, flight))
    }

    /// Handle of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &NodeHandle<P> {
        &self.nodes[i]
    }

    /// Fault injection: crash-stops node `i` (see [`NodeHandle::kill`]).
    /// The rest of the cluster keeps running; on a recovery-wrapped
    /// cluster the survivors elect a new epoch and finish their work.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn kill(&self, i: usize) {
        self.nodes[i].kill();
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster is empty (never true for spawned clusters).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total messages sent across the cluster, by kind.
    pub fn message_stats(&self) -> HashMap<MessageKind, u64> {
        let mut total: HashMap<MessageKind, u64> = HashMap::new();
        for n in &self.nodes {
            for (k, v) in n.message_stats() {
                *total.entry(k).or_insert(0) += v;
            }
        }
        total
    }

    /// Total wire bytes sent across the cluster. Combined with
    /// [`Cluster::message_stats`], gives the mean frame size — typically
    /// under 15 bytes with the varint codec.
    pub fn bytes_sent(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_sent()).sum()
    }

    /// Stops every node and joins every transport thread.
    pub fn shutdown(self) {
        for n in &self.nodes {
            n.stop();
        }
        self.mux.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlock_session::{SessionConfig, SessionSpace};
    use std::sync::atomic::AtomicBool;

    #[test]
    fn hierarchical_cluster_read_write_cycle() {
        let cluster = Cluster::spawn_hierarchical(3, 2, ProtocolConfig::default()).unwrap();
        let timeout = Duration::from_secs(10);
        // Two concurrent readers on lock 0.
        let t1 = cluster.node(1).acquire(LockId(0), Mode::Read, timeout).unwrap();
        let t2 = cluster.node(2).acquire(LockId(0), Mode::Read, timeout).unwrap();
        cluster.node(1).release(LockId(0), t1).unwrap();
        cluster.node(2).release(LockId(0), t2).unwrap();
        // A writer on lock 1.
        let t3 = cluster.node(2).acquire(LockId(1), Mode::Write, timeout).unwrap();
        cluster.node(2).release(LockId(1), t3).unwrap();
        let stats = cluster.message_stats();
        assert!(stats.values().sum::<u64>() > 0, "messages flowed: {stats:?}");
        cluster.shutdown();
    }

    #[test]
    fn naimi_cluster_mutual_exclusion() {
        let cluster =
            Cluster::spawn(3, |i| hlock_naimi::NaimiSpace::new(NodeId(i as u32), 1, NodeId(0)))
                .unwrap();
        let timeout = Duration::from_secs(10);
        for i in [1usize, 2, 0, 2, 1] {
            let t = cluster.node(i).acquire(LockId(0), Mode::Write, timeout).unwrap();
            cluster.node(i).release(LockId(0), t).unwrap();
        }
        cluster.shutdown();
    }

    #[test]
    fn upgrade_over_the_wire() {
        let cluster = Cluster::spawn_hierarchical(2, 1, ProtocolConfig::default()).unwrap();
        let timeout = Duration::from_secs(10);
        let t = cluster.node(1).acquire(LockId(0), Mode::Upgrade, timeout).unwrap();
        cluster.node(1).upgrade(LockId(0), t, timeout).unwrap();
        cluster.node(1).release(LockId(0), t).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn release_of_unknown_ticket_is_protocol_error() {
        let cluster = Cluster::spawn_hierarchical(2, 1, ProtocolConfig::default()).unwrap();
        let err = cluster.node(0).release(LockId(0), Ticket(999)).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
        cluster.shutdown();
    }

    pub(crate) fn not_held(r: Result<(), NetError>) -> bool {
        matches!(r, Err(NetError::Protocol(hlock_core::ProtocolError::NotHeld { .. })))
    }

    #[test]
    fn release_is_validated_locally_and_leaves_no_grant_behind() {
        let cluster = Cluster::spawn_hierarchical(2, 2, ProtocolConfig::default()).unwrap();
        let timeout = Duration::from_secs(10);
        let (home, node) = (cluster.node(0), cluster.node(1));
        // Not granted yet: the home's W keeps node 1's request pending.
        let hold = home.acquire(LockId(0), Mode::Write, timeout).unwrap();
        let pending = node.request(LockId(0), Mode::Write).unwrap();
        assert!(not_held(node.release(LockId(0), pending)));
        // Timeout → cancel: whether or not the grant raced the cancel,
        // nothing stays behind (checked at the end).
        assert!(node.wait(pending, Duration::from_millis(50)).is_err());
        node.cancel(LockId(0), pending).unwrap();
        home.release(LockId(0), hold).unwrap();
        // An acquire that gives up at once cancels behind itself — or
        // hands back a ticket, should the grant win the race.
        match node.acquire(LockId(0), Mode::Write, Duration::ZERO) {
            Ok(t) => node.release(LockId(0), t).unwrap(),
            Err(e) => assert!(matches!(e, NetError::Timeout { .. }), "{e}"),
        }
        // Wrong lock, then the right one, then once too often.
        let t = node.acquire(LockId(0), Mode::Read, timeout).unwrap();
        assert!(not_held(node.release(LockId(1), t)));
        node.release(LockId(0), t).unwrap();
        assert!(not_held(node.release(LockId(0), t)));
        // A local grant is claimed by `try_acquire` itself.
        let t = home.try_acquire(LockId(1), Mode::Write).unwrap().expect("home grants locally");
        home.release(LockId(1), t).unwrap();
        for _ in 0..50 {
            let t = node.acquire(LockId(1), Mode::Write, timeout).unwrap();
            node.release(LockId(1), t).unwrap();
        }
        assert_eq!(home.grants.len() + node.grants.len(), 0, "an entry outlived its ticket");
        // A dead node refuses even a ticket it granted.
        let t = node.acquire(LockId(0), Mode::Read, timeout).unwrap();
        node.kill();
        assert!(matches!(node.release(LockId(0), t), Err(NetError::Closed)));
        cluster.shutdown();
    }

    #[test]
    fn release_posted_right_before_kill_or_shutdown_is_harmless() {
        let timeout = Duration::from_secs(10);
        for kill in [false, true] {
            let cluster = Cluster::spawn_hierarchical(2, 1, ProtocolConfig::default()).unwrap();
            let t = cluster.node(1).acquire(LockId(0), Mode::Write, timeout).unwrap();
            cluster.node(1).release(LockId(0), t).unwrap();
            if kill {
                cluster.kill(1);
            }
            // Joins the workers: a panic over the queued release, or a
            // worker parked on an elided wake-up, would surface here.
            cluster.shutdown();
        }
    }

    /// Everything `node`'s worker was handed so far is applied and
    /// dispatched (`is_quiescent` is bracketed by its own steps).
    fn settle<P>(cluster: &Cluster<P>)
    where
        P: ConcurrencyProtocol + Inspect + Send + 'static,
        P::Message: WireCodec + Send + 'static,
    {
        for i in 0..cluster.len() {
            cluster.node(i).is_quiescent().unwrap();
        }
    }

    #[test]
    fn a_recorded_cluster_dumps_on_kill_and_its_wire_stamps_order_deliveries() {
        let dir = std::env::temp_dir().join(format!("hlock-net-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (cluster, flight) = Cluster::spawn_recorded(
            3,
            |i| LockSpace::new(NodeId(i as u32), 2, NodeId(0), ProtocolConfig::default()),
            Some(dir.clone()),
            |_| None,
        )
        .unwrap();
        // Node 0's clock runs an hour fast: only the stamps its frames
        // carry can order its peers' deliveries after its sends.
        flight.observe_remote(NodeId(0), hlock_core::Hlc::pack(3_600_000_000, 0).0, 0);
        let timeout = Duration::from_secs(10);
        for round in 0..20 {
            for i in [1, 2] {
                let lock = LockId(round % 2);
                let t = cluster.node(i).acquire(lock, Mode::Write, timeout).unwrap();
                cluster.node(i).release(lock, t).unwrap();
            }
        }
        settle(&cluster);
        cluster.kill(2);
        let listed = || {
            let mut paths: Vec<_> =
                std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
            paths.sort();
            paths
        };
        let crashed = listed();
        let paths = flight.dump().unwrap();
        assert_eq!(paths, listed());
        assert_eq!(crashed, [paths[2].clone()], "a kill dumps the killed node's window");
        assert_eq!((flight.dropped(), flight.dump_error()), (0, None));
        assert!(flight.is_clean(), "{:?}", flight.findings());

        // Merged by hlc, the k-th delivery on a link sorts after the k-th
        // send on it: the wire stamps carry causality across nodes.
        fn field<'a>(line: &'a str, key: &str) -> &'a str {
            let start = line.find(&format!("\"{key}\":")).unwrap() + key.len() + 3;
            let rest = &line[start..];
            rest[..rest.find([',', '}']).unwrap()].trim_matches('"')
        }
        let text: Vec<String> = paths.iter().map(|p| std::fs::read_to_string(p).unwrap()).collect();
        let mut lines: Vec<(u64, &str)> = text
            .iter()
            .flat_map(|t| t.lines())
            .map(|l| (field(l, "hlc").parse().unwrap(), l))
            .collect();
        lines.sort();
        let (mut sent, mut delivered) = (HashMap::new(), HashMap::new());
        for (_, line) in &lines {
            match field(line, "event") {
                "message_sent" => {
                    *sent.entry((field(line, "node"), field(line, "to"))).or_insert(0) += 1
                }
                "delivered" => {
                    let link = (field(line, "from"), field(line, "node"));
                    let k = delivered.entry(link).or_insert(0);
                    *k += 1;
                    assert!(
                        *k <= sent.get(&link).copied().unwrap_or(0),
                        "sorts before its send: {line}"
                    );
                }
                _ => {}
            }
        }
        assert!(delivered.values().sum::<u32>() > 40, "cross-node traffic: {delivered:?}");
        cluster.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_local_grant_never_leaves_the_calling_thread() {
        let cluster = Cluster::spawn_hierarchical(2, 1, ProtocolConfig::default()).unwrap();
        let timeout = Duration::from_secs(10);
        let node = cluster.node(1);
        // Fetch `IR` from the home once; Rule 5.3 keeps it after release.
        let t = node.acquire(LockId(0), Mode::IntentRead, timeout).unwrap();
        node.release(LockId(0), t).unwrap();
        settle(&cluster);
        let messages = || cluster.message_stats().values().sum::<u64>();
        let wakes = || node.port.waker().wakes.load(Ordering::Relaxed);
        let before = (messages(), wakes(), node.runtime_counters());
        for _ in 0..100 {
            let t = node.acquire(LockId(0), Mode::IntentRead, timeout).unwrap();
            node.release(LockId(0), t).unwrap();
        }
        let after = node.runtime_counters();
        assert_eq!(wakes(), before.1, "a local acquire/release woke the worker");
        assert_eq!(after.grants, before.2.grants + 100, "caller-side grants are counted");
        assert_eq!(after.steps, before.2.steps, "nothing was left for the worker to dispatch");
        settle(&cluster);
        assert_eq!(messages(), before.0, "a retained mode was re-requested");
        cluster.shutdown();
    }

    #[test]
    fn a_grant_behind_a_send_is_claimable_before_the_worker_runs() {
        let config = ProtocolConfig::default();
        let (cluster, flight) = Cluster::spawn_recorded(
            2,
            move |i| LockSpace::new(NodeId(i as u32), 2, NodeId(0), config),
            None,
            |_| None,
        )
        .unwrap();
        let timeout = Duration::from_secs(10);
        let node = cluster.node(1);
        // A read copy of lock 0 (its release is a message to the home) and
        // a retained `IR` on lock 1 (its next grant is local).
        let read = node.acquire(LockId(0), Mode::Read, timeout).unwrap();
        let t = node.acquire(LockId(1), Mode::IntentRead, timeout).unwrap();
        node.release(LockId(1), t).unwrap();
        settle(&cluster);
        let sent = |kind| node.message_stats()[&kind];
        let before = (sent(MessageKind::Release), sent(MessageKind::Request));
        let frames = node.runtime_counters().frames;
        {
            let parked = node.port.waker().park_worker();
            node.release(LockId(0), read).unwrap();
            // The sink holds the `Release`; the grant queued behind it is
            // delivered by this thread all the same.
            let t = node.request(LockId(1), Mode::IntentRead).unwrap();
            assert_eq!(node.wait(t, Duration::ZERO).unwrap(), Mode::IntentRead);
            node.release(LockId(1), t).unwrap();
            // A second message for the home joins the first in the sink.
            let write = node.request(LockId(0), Mode::Write).unwrap();
            assert!(node.wait(write, Duration::from_millis(20)).is_err());
            assert_eq!((sent(MessageKind::Release), sent(MessageKind::Request)), before);
            drop(parked);
            node.wait(write, timeout).unwrap();
            node.release(LockId(0), write).unwrap();
        }
        settle(&cluster);
        // Each left once, in emission order (the auditor's link-FIFO check
        // pairs every `MessageSent` with its `Delivered`), and — applied
        // before the worker got to either — in one frame.
        assert_eq!(sent(MessageKind::Release), before.0 + 1);
        assert_eq!(sent(MessageKind::Request), before.1 + 1);
        assert_eq!(node.runtime_counters().frames, frames + 1);
        let findings = flight.findings();
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(node.grants.len(), 0);
        cluster.shutdown();
    }

    #[test]
    fn a_killed_node_refuses_callers_under_the_lock() {
        let cluster = Cluster::spawn_hierarchical(2, 1, ProtocolConfig::default()).unwrap();
        let timeout = Duration::from_secs(10);
        let node = cluster.node(1);
        let t = node.acquire(LockId(0), Mode::IntentRead, timeout).unwrap();
        node.release(LockId(0), t).unwrap();
        let killed = AtomicBool::new(false);
        let rounds = AtomicU64::new(0);
        let grants_at_kill = std::thread::scope(|scope| {
            // A tight local acquire/release loop (the retained `IR` grants
            // on this thread) racing the kill.
            let looping = scope.spawn(|| loop {
                rounds.fetch_add(1, Ordering::SeqCst);
                let dead = killed.load(Ordering::SeqCst);
                let acquired = node.request(LockId(0), Mode::IntentRead).and_then(|t| {
                    node.wait(t, timeout)?;
                    node.release(LockId(0), t)
                });
                match acquired {
                    Ok(()) => assert!(!dead, "a call that began after kill() returned succeeded"),
                    Err(NetError::Closed) if dead => return,
                    Err(NetError::Closed) => {}
                    Err(e) => panic!("{e}"),
                }
            });
            while rounds.load(Ordering::SeqCst) < 1_000 {
                std::thread::yield_now();
            }
            node.kill();
            let grants = node.runtime_counters().grants;
            killed.store(true, Ordering::SeqCst);
            looping.join().unwrap();
            grants
        });
        assert_eq!(node.runtime_counters().grants, grants_at_kill, "granted by a dead node");
        assert!(matches!(node.try_acquire(LockId(0), Mode::IntentRead), Err(NetError::Closed)));
        assert!(matches!(node.is_quiescent(), Err(NetError::Closed)));
        assert_eq!(node.grants.len(), 0, "an entry outlived its ticket");
        cluster.shutdown();
    }

    #[test]
    fn a_cancel_racing_a_caller_side_grant_leaks_nothing() {
        // One thread's `release` grants the other's queued request — on
        // the releasing thread — while the other gives up and cancels on
        // the worker. The grant's table entry is made under the core lock,
        // so the cancel either withdraws the request or finds the entry
        // and releases; it never answers "nothing to release" for a grant
        // that then lands in the table unowned.
        let cluster = Cluster::spawn_hierarchical(1, 1, ProtocolConfig::default()).unwrap();
        let node = cluster.node(0);
        let timeout = Duration::from_secs(10);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for _ in 0..20_000 {
                    let t = node.acquire(LockId(0), Mode::Write, timeout).unwrap();
                    node.release(LockId(0), t).unwrap();
                }
            });
            scope.spawn(|| {
                for _ in 0..2_000 {
                    match node.acquire(LockId(0), Mode::Write, Duration::ZERO) {
                        Ok(t) => node.release(LockId(0), t).unwrap(),
                        Err(e) => assert!(matches!(e, NetError::Timeout { .. }), "{e}"),
                    }
                }
            });
        });
        // Nothing is held: the lock is free, and no entry is left behind.
        let t = node.try_acquire(LockId(0), Mode::Write).unwrap().expect("a grant was leaked");
        node.release(LockId(0), t).unwrap();
        assert_eq!(node.grants.len(), 0, "an entry outlived its ticket");
        cluster.shutdown();
    }

    #[test]
    fn wire_bytes_are_counted_and_compact() {
        let cluster = Cluster::spawn_hierarchical(3, 1, ProtocolConfig::default()).unwrap();
        let timeout = Duration::from_secs(10);
        for i in [1usize, 2, 1] {
            let t = cluster.node(i).acquire(LockId(0), Mode::Read, timeout).unwrap();
            cluster.node(i).release(LockId(0), t).unwrap();
        }
        let msgs: u64 = cluster.message_stats().values().sum();
        let bytes = cluster.bytes_sent();
        assert!(msgs > 0 && bytes > 0);
        let mean = bytes as f64 / msgs as f64;
        assert!(mean < 32.0, "mean frame size {mean:.1} bytes — codec stays compact");
        cluster.shutdown();
    }

    #[test]
    fn try_acquire_is_message_free_and_honest() {
        let cluster = Cluster::spawn_hierarchical(2, 1, ProtocolConfig::default()).unwrap();
        // Node 1 does not hold anything: local attempt must fail...
        assert!(cluster.node(1).try_acquire(LockId(0), Mode::Read).unwrap().is_none());
        // ...and must not have sent a single message.
        assert_eq!(cluster.node(1).message_stats().values().sum::<u64>(), 0);
        // The token home can always grant itself a compatible mode.
        let t = cluster.node(0).try_acquire(LockId(0), Mode::Write).unwrap().unwrap();
        cluster.node(0).release(LockId(0), t).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn ccs_lock_set_full_cycle() {
        use crate::ccs::LockSetFactory;
        let cluster = Cluster::spawn_hierarchical(3, 2, ProtocolConfig::default()).unwrap();
        let factory = LockSetFactory::new(cluster.node(1), Duration::from_secs(10));
        let set = factory.lock_set(1);
        assert_eq!(set.lock_id(), LockId(1));
        // lock → change_mode (upgrade) → unlock.
        let mut held = set.lock(Mode::Upgrade).unwrap();
        assert_eq!(held.mode(), Mode::Upgrade);
        set.change_mode(&mut held, Mode::Write).unwrap();
        assert_eq!(held.mode(), Mode::Write);
        set.change_mode(&mut held, Mode::Read).unwrap(); // downgrade
        set.unlock(held).unwrap();
        // attempt_lock after a successful blocking lock: now the node
        // owns R, so a local IR attempt succeeds without messages.
        let held_r = set.lock(Mode::Read).unwrap();
        let held_ir = set.attempt_lock(Mode::IntentRead).unwrap().expect("local grant");
        set.unlock(held_ir).unwrap();
        set.unlock(held_r).unwrap();
        cluster.shutdown();
    }

    /// `n` hierarchical nodes (one lock, home node 0) behind the session
    /// layer with its default timing.
    fn session_cluster(n: usize) -> Cluster<SessionSpace<LockSpace>> {
        Cluster::spawn(n, |i| {
            SessionSpace::new(
                LockSpace::new(NodeId(i as u32), 1, NodeId(0), ProtocolConfig::default()),
                SessionConfig::default(),
            )
        })
        .unwrap()
    }

    #[test]
    fn session_cluster_read_write_cycle() {
        let cluster = session_cluster(3);
        let timeout = Duration::from_secs(10);
        for i in [1usize, 2, 1] {
            let t = cluster.node(i).acquire(LockId(0), Mode::Write, timeout).unwrap();
            cluster.node(i).release(LockId(0), t).unwrap();
        }
        let stats = cluster.message_stats();
        assert!(
            stats.get(&MessageKind::Ack).copied().unwrap_or(0) > 0,
            "session layer acknowledges data frames: {stats:?}"
        );
        cluster.shutdown();
    }

    #[test]
    fn session_cluster_survives_link_failure() {
        let cluster = session_cluster(2);
        let timeout = Duration::from_secs(20);
        // Warm up: moves the token to node 1.
        let t = cluster.node(1).acquire(LockId(0), Mode::Write, timeout).unwrap();
        cluster.node(1).release(LockId(0), t).unwrap();
        // Kill node 1's outgoing socket. Node 0's next request forces a
        // token transfer node 1 → node 0; that frame hits the dead
        // socket, fails, and must be recovered by reconnect-with-backoff
        // plus session retransmission.
        cluster.node(1).sever_link(NodeId(0)).unwrap();
        let t = cluster.node(0).acquire(LockId(0), Mode::Write, timeout).unwrap();
        cluster.node(0).release(LockId(0), t).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn upgrade_timeout_cancels_pending_upgrade() {
        let cluster = Cluster::spawn_hierarchical(2, 1, ProtocolConfig::default()).unwrap();
        let timeout = Duration::from_secs(10);
        // Node 1 takes U; node 0 holds R, which blocks the upgrade to W.
        let tu = cluster.node(1).acquire(LockId(0), Mode::Upgrade, timeout).unwrap();
        let tr = cluster.node(0).acquire(LockId(0), Mode::Read, timeout).unwrap();
        let err = cluster.node(1).upgrade(LockId(0), tu, Duration::from_millis(300)).unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }), "{err}");
        // The reader drains. A timed-out upgrade must NOT fire later
        // unobserved: before the cancel-on-timeout fix, the stale queue
        // entry would grab W here and park it in the mailbox forever.
        cluster.node(0).release(LockId(0), tr).unwrap();
        assert!(
            cluster.node(1).wait(tu, Duration::from_millis(500)).is_err(),
            "cancelled upgrade surfaced a grant after its timeout"
        );
        // Node 1 still holds its original U and can release it.
        cluster.node(1).release(LockId(0), tu).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn concurrent_writers_from_threads() {
        let cluster =
            Arc::new(Cluster::spawn_hierarchical(4, 1, ProtocolConfig::default()).unwrap());
        let counter = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        for i in 0..4usize {
            let cluster = cluster.clone();
            let counter = counter.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..5 {
                    let t = cluster
                        .node(i)
                        .acquire(LockId(0), Mode::Write, Duration::from_secs(30))
                        .unwrap();
                    // Critical section: non-atomic read-modify-write made
                    // safe only by the distributed lock.
                    let v = counter.load(Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                    counter.store(v + 1, Ordering::Relaxed);
                    cluster.node(i).release(LockId(0), t).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 20, "no lost updates");
        match Arc::try_unwrap(cluster) {
            Ok(c) => c.shutdown(),
            Err(_) => panic!("all threads joined"),
        }
    }

    #[test]
    fn unobserved_cluster_emits_no_events() {
        // `spawn` (no observer) must keep the event pipeline disabled so
        // the fast path stays allocation- and lock-free per message.
        let cluster = Cluster::spawn_hierarchical(2, 1, ProtocolConfig::default()).unwrap();
        let timeout = Duration::from_secs(10);
        let t = cluster.node(1).acquire(LockId(0), Mode::Write, timeout).unwrap();
        cluster.node(1).release(LockId(0), t).unwrap();
        // Runtime mirrors still work without an observer.
        assert!(cluster.node(1).runtime_counters().logical_messages > 0);
        cluster.shutdown();
    }
}
