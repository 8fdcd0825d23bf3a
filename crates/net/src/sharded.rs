//! The sharded parallel lock-space runtime.
//!
//! The plain [`crate::Cluster`] drives a node's whole [`LockSpace`] from
//! one event-loop thread, so a node serving thousands of locks
//! serializes work the protocol makes independent per lock. This module
//! partitions each node's lock space into N shards (locks hashed by
//! [`ShardSpec`], the same mapping the deterministic
//! [`hlock_core::ShardedSpace`] model uses) and runs one worker thread
//! per shard:
//!
//! ```text
//!   readers (1/peer) ──► router ──► bounded SPSC ──► shard worker 0 ─┐
//!   API callers      ──►  (1)  ──► bounded SPSC ──► shard worker 1 ─┼─► egress ──► sockets
//!                                     …                      …      ─┘    (1)
//! ```
//!
//! * A single **router** thread splits every inbound frame by lock onto
//!   the owning shards' bounded queues; API callers push to the owning
//!   shard directly (computing the same hash). Splitting a frame
//!   preserves the arrival order of each lock's messages, so per-lock
//!   FIFO — which the protocol relies on — survives the handoff; the
//!   model checker proves this on the deterministic
//!   [`hlock_core::ShardedSpace`] twin.
//! * Each **shard worker** owns a full-width [`LockSpace`] (only its
//!   own locks ever receive traffic), its own [`EffectSink`] and its own
//!   [`HostRuntime`], so protocol steps on different shards run truly in
//!   parallel with zero shared state.
//! * A single **egress** thread merges the per-shard batched sends and
//!   owns every outgoing socket, so frames to one peer are written by
//!   exactly one thread — per-link FIFO is preserved by construction.
//!   The sockets are nonblocking and each link buffers through a bounded
//!   `crate::conn::Outbox`, so one slow peer sheds its own newest
//!   frames (surfaced as a backpressure counter) instead of wedging the
//!   writes to every other peer; dead links redial on the shared
//!   `crate::conn::DialBackoff` schedule from the same thread.
//!
//! Per-shard queue depth, routed-message and park counts surface as
//! [`ShardGauges`] ([`ShardedNodeHandle::shard_gauges`]), which the repo
//! benchmark's `sharded_pipeline` workload reads.
//!
//! The sharded runtime hosts the *raw* hierarchical protocol: the
//! session layer keeps per-link sequence state that spans locks, which
//! contradicts per-lock partitioning (TCP already provides the in-order
//! reliable links the raw protocol assumes).

use crate::conn::{DialBackoff, Outbox, Push, DEFAULT_OUTBOX_BYTES};
use crate::transport::{
    apply_event, encode_hello, locked, wait_for, Counters, GrantTable, LoopEvent, PostEvent,
};
use crate::NetError;
use hlock_core::{
    BatchHost, Classify, EffectSink, Envelope, HostRuntime, LockId, LockSpace, MessageKind, Mode,
    NodeId, Priority, ProtocolConfig, RuntimeCounters, ShardGauges, ShardSpec, Ticket,
};
use hlock_wire::frame;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capacity of each shard's inbound queue and of the shared egress
/// queue. Bounded so a slow shard exerts backpressure on the router
/// instead of ballooning memory.
const QUEUE_CAPACITY: usize = 4096;

/// A bounded FIFO queue with blocking push/pop and park/routed/depth
/// accounting. Multi-producer (router + API callers, or the shard
/// workers for egress), single-consumer. Per-lock order survives
/// because one lock's traffic always funnels through one such FIFO.
struct BoundedQueue<T> {
    inner: Mutex<VecDeque<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    pushed: AtomicU64,
    parks: AtomicU64,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
            pushed: AtomicU64::new(0),
            parks: AtomicU64::new(0),
        }
    }

    /// Appends `item`, blocking while the queue is at capacity.
    fn push(&self, item: T) {
        let mut q = locked(&self.inner);
        while q.len() >= self.capacity {
            q = wait_for(&self.not_full, q, Duration::from_millis(50));
        }
        q.push_back(item);
        self.pushed.fetch_add(1, Ordering::Relaxed);
        drop(q);
        self.not_empty.notify_one();
    }

    /// Removes the oldest item, parking while the queue is empty.
    fn pop(&self) -> T {
        let mut q = locked(&self.inner);
        while q.is_empty() {
            self.parks.fetch_add(1, Ordering::Relaxed);
            q = wait_for(&self.not_empty, q, Duration::from_millis(50));
        }
        let item = q.pop_front().expect("non-empty after wait");
        drop(q);
        self.not_full.notify_one();
        item
    }

    /// Like [`BoundedQueue::pop`], but gives up after `timeout` — for a
    /// consumer that also has non-queue work pending (the egress thread
    /// with queued socket bytes or a redial deadline).
    fn pop_timeout(&self, timeout: Duration) -> Option<T> {
        let mut q = locked(&self.inner);
        if q.is_empty() {
            self.parks.fetch_add(1, Ordering::Relaxed);
            q = wait_for(&self.not_empty, q, timeout);
        }
        let item = q.pop_front()?;
        drop(q);
        self.not_full.notify_one();
        Some(item)
    }

    fn depth(&self) -> usize {
        locked(&self.inner).len()
    }

    fn gauges(&self) -> ShardGauges {
        ShardGauges {
            queue_depth: self.depth() as u64,
            routed: self.pushed.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
        }
    }
}

/// What the router receives from the peer-socket readers. API calls
/// skip the router and push straight onto the owning shard's queue —
/// only wire frames need the routing hop, because only they carry
/// several locks' messages in one ordered unit.
enum RouterEvent {
    Frame(NodeId, Vec<Envelope>),
    Stop,
}

/// What the egress thread receives. Each worker sends `Stop` exactly
/// once (after its router `Stop`), so the egress thread exits only after
/// every shard's final frames are on the wire.
enum EgressItem {
    Frame(NodeId, Vec<Envelope>),
    Stop,
}

/// One node of a sharded mesh: router + shard workers + egress.
pub struct ShardedNodeHandle {
    id: NodeId,
    spec: ShardSpec,
    router: Sender<RouterEvent>,
    /// One grant mailbox per shard (callers wait on the shard owning
    /// their lock, so grant delivery doesn't serialize across shards).
    grants: Vec<Arc<GrantTable>>,
    counters: Arc<Counters>,
    shard_runtimes: Vec<Arc<Mutex<RuntimeCounters>>>,
    inbound: Vec<Arc<BoundedQueue<LoopEvent<Envelope>>>>,
    next_ticket: AtomicU64,
    running: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl fmt::Debug for ShardedNodeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedNodeHandle")
            .field("id", &self.id)
            .field("shards", &self.spec.shards())
            .finish()
    }
}

impl ShardedNodeHandle {
    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The lock → shard mapping this node runs.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    fn shard_of(&self, lock: LockId) -> usize {
        self.spec.shard_of(lock)
    }

    /// Hands an API operation straight to the shard owning `lock` —
    /// same-caller program order per lock is preserved because one lock
    /// always lands in one FIFO queue.
    fn send_op(&self, lock: LockId, op: LoopEvent<Envelope>) -> Result<(), NetError> {
        if !self.running.load(Ordering::SeqCst) {
            return Err(NetError::Closed);
        }
        self.inbound[self.shard_of(lock)].push(op);
        Ok(())
    }

    /// Issues an asynchronous lock request; await the grant with
    /// [`ShardedNodeHandle::wait`].
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the node has shut down.
    pub fn request(&self, lock: LockId, mode: Mode) -> Result<Ticket, NetError> {
        let ticket = Ticket(self.next_ticket.fetch_add(1, Ordering::Relaxed));
        self.send_op(lock, LoopEvent::Request { lock, mode, ticket, priority: Priority::NORMAL })?;
        Ok(ticket)
    }

    /// Blocks until `ticket` is granted on `lock` (the lock names the
    /// shard whose mailbox holds the grant).
    ///
    /// # Errors
    ///
    /// [`NetError::Timeout`] if the grant does not arrive in time.
    pub fn wait(&self, lock: LockId, ticket: Ticket, timeout: Duration) -> Result<Mode, NetError> {
        self.grants[self.shard_of(lock)]
            .wait(ticket, timeout)
            .map(|(_, m)| m)
            .ok_or(NetError::Timeout { ticket })
    }

    /// Requests and blocks until granted; cancels on timeout so the
    /// grant cannot arrive later unobserved.
    ///
    /// # Errors
    ///
    /// Propagates [`NetError::Timeout`] / [`NetError::Closed`].
    pub fn acquire(&self, lock: LockId, mode: Mode, timeout: Duration) -> Result<Ticket, NetError> {
        let ticket = self.request(lock, mode)?;
        match self.wait(lock, ticket, timeout) {
            Ok(_) => Ok(ticket),
            Err(e) => {
                let _ = self.cancel(lock, ticket);
                Err(e)
            }
        }
    }

    /// Attempts a message-free acquisition (succeeds only when this node
    /// can grant locally right now). Returns the ticket on success.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the node has shut down.
    pub fn try_acquire(&self, lock: LockId, mode: Mode) -> Result<Option<Ticket>, NetError> {
        let ticket = Ticket(self.next_ticket.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = channel();
        self.send_op(lock, LoopEvent::TryRequest { lock, mode, ticket, done: tx })?;
        let granted = rx.recv().map_err(|_| NetError::Closed)??;
        if granted {
            self.grants[self.shard_of(lock)].claim_confirmed(ticket)?;
            Ok(Some(ticket))
        } else {
            Ok(None)
        }
    }

    /// Releases a granted lock. Does not block: the ticket is checked
    /// against the owning shard's record of granted tickets on the
    /// calling thread (same contract as [`crate::NodeHandle::release`]),
    /// and the release is queued for the shard worker one-way.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] (`NotHeld`) if `ticket` is unknown, not
    /// granted yet, already released, or was granted on another lock;
    /// [`NetError::Closed`] if the node has shut down.
    pub fn release(&self, lock: LockId, ticket: Ticket) -> Result<(), NetError> {
        self.grants[self.shard_of(lock)].retire(lock, ticket)?;
        self.send_op(lock, LoopEvent::Release { lock, ticket })
    }

    /// Alias of [`ShardedNodeHandle::release`], which no longer blocks.
    ///
    /// # Errors
    ///
    /// As [`ShardedNodeHandle::release`].
    pub fn release_async(&self, lock: LockId, ticket: Ticket) -> Result<(), NetError> {
        self.release(lock, ticket)
    }

    /// Upgrades a held `U` to `W`, blocking until it completes. On
    /// timeout the pending upgrade is cancelled (see
    /// [`crate::NodeHandle::upgrade`] for the race semantics).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on misuse, [`NetError::Timeout`] if other
    /// holders do not drain in time.
    pub fn upgrade(&self, lock: LockId, ticket: Ticket, timeout: Duration) -> Result<(), NetError> {
        let (tx, rx) = channel();
        self.send_op(lock, LoopEvent::Upgrade { lock, ticket, done: tx })?;
        rx.recv().map_err(|_| NetError::Closed)??;
        match self.wait(lock, ticket, timeout) {
            Ok(_) => Ok(()),
            Err(e) => {
                let _ = self.cancel(lock, ticket);
                Err(e)
            }
        }
    }

    /// Downgrades a held lock to a weaker mode.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on an illegal downgrade or unknown ticket.
    pub fn downgrade(&self, lock: LockId, ticket: Ticket, mode: Mode) -> Result<(), NetError> {
        let (tx, rx) = channel();
        self.send_op(lock, LoopEvent::Downgrade { lock, ticket, mode, done: tx })?;
        rx.recv().map_err(|_| NetError::Closed)?
    }

    /// Cancels an outstanding request (e.g. after a timeout).
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the node has shut down.
    pub fn cancel(&self, lock: LockId, ticket: Ticket) -> Result<(), NetError> {
        let (tx, rx) = channel();
        self.send_op(lock, LoopEvent::Cancel { lock, ticket, done: tx })?;
        rx.recv().map_err(|_| NetError::Closed)?
    }

    /// Whether every shard of this node is quiescent (no pending or
    /// queued requests; in-flight messages between nodes not included).
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] if the node has shut down.
    pub fn is_quiescent(&self) -> Result<bool, NetError> {
        if !self.running.load(Ordering::SeqCst) {
            return Err(NetError::Closed);
        }
        let (tx, rx) = channel();
        for q in &self.inbound {
            q.push(LoopEvent::IsQuiescent { done: tx.clone() });
        }
        drop(tx);
        let mut all = true;
        for _ in 0..self.spec.shards() {
            all &= rx.recv().map_err(|_| NetError::Closed)?;
        }
        Ok(all)
    }

    /// Messages sent by this node so far, by kind.
    pub fn message_stats(&self) -> HashMap<MessageKind, u64> {
        self.counters.snapshot()
    }

    /// Total wire bytes sent by this node so far.
    pub fn bytes_sent(&self) -> u64 {
        self.counters.bytes.load(Ordering::Relaxed)
    }

    /// The node's [`RuntimeCounters`] summed over all shard workers.
    pub fn runtime_counters(&self) -> RuntimeCounters {
        let mut total = RuntimeCounters::default();
        for mirror in &self.shard_runtimes {
            total.absorb(&locked(mirror));
        }
        total
    }

    /// Per-shard [`RuntimeCounters`] snapshots, indexed by shard.
    pub fn shard_runtime_counters(&self) -> Vec<RuntimeCounters> {
        self.shard_runtimes.iter().map(|m| *locked(m)).collect()
    }

    /// Per-shard queue gauges (current depth, routed messages, worker
    /// parks), indexed by shard.
    pub fn shard_gauges(&self) -> Vec<ShardGauges> {
        self.inbound.iter().map(|q| q.gauges()).collect()
    }

    /// First half of a shutdown: refuse new API calls and stop the router
    /// (which fans `Stop` out to the shard workers, which each forward it
    /// to the egress thread once their final frames are queued). The
    /// egress thread then exits and drops this node's outgoing sockets —
    /// the EOF its peers' readers are blocked waiting for.
    fn begin_stop(&self) {
        if self.running.swap(false, Ordering::SeqCst) {
            let _ = self.router.send(RouterEvent::Stop);
        }
    }

    /// Second half: joins every thread of this node (the listener joins
    /// the readers it spawned), *outside* the handle lock — a reader whose
    /// peer has not hung up blocks up to its socket read timeout.
    fn join(&self) {
        let threads: Vec<JoinHandle<()>> = {
            let mut guard = locked(&self.threads);
            guard.drain(..).collect()
        };
        for t in threads {
            let _ = t.join();
        }
    }
}

/// An in-process TCP mesh of sharded hierarchical nodes.
pub struct ShardedCluster {
    nodes: Vec<Arc<ShardedNodeHandle>>,
}

impl ShardedCluster {
    /// Spawns `n` sharded nodes with `locks` locks (token home: node 0)
    /// and `shards` worker threads per node, fully meshed over
    /// localhost.
    ///
    /// # Errors
    ///
    /// Any socket error during setup.
    pub fn spawn_hierarchical(
        n: usize,
        locks: usize,
        shards: usize,
        config: ProtocolConfig,
    ) -> Result<ShardedCluster, NetError> {
        Self::spawn_hierarchical_with_homes(n, &vec![NodeId(0); locks], shards, config)
    }

    /// Like [`ShardedCluster::spawn_hierarchical`] with one initial
    /// token home per lock (`homes[l]` holds lock `l`'s token), for
    /// spreading hot roots across the mesh.
    ///
    /// # Errors
    ///
    /// Any socket error during setup.
    ///
    /// # Panics
    ///
    /// Panics if `n` or `shards` is zero.
    pub fn spawn_hierarchical_with_homes(
        n: usize,
        homes: &[NodeId],
        shards: usize,
        config: ProtocolConfig,
    ) -> Result<ShardedCluster, NetError> {
        assert!(n >= 1, "need at least one node");
        let spec = ShardSpec::new(shards);
        let listeners: Vec<TcpListener> =
            (0..n).map(|_| TcpListener::bind(("127.0.0.1", 0))).collect::<Result<_, _>>()?;
        let addrs: Vec<SocketAddr> =
            listeners.iter().map(TcpListener::local_addr).collect::<Result<_, _>>()?;
        let mut nodes = Vec::with_capacity(n);
        for (i, listener) in listeners.into_iter().enumerate() {
            let id = NodeId(i as u32);
            nodes.push(spawn_node(id, homes, config, spec, listener, &addrs)?);
        }
        Ok(ShardedCluster { nodes })
    }

    /// Handle of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &ShardedNodeHandle {
        &self.nodes[i]
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

    /// Total wire bytes sent across the cluster.
    pub fn bytes_sent(&self) -> u64 {
        self.nodes.iter().map(|n| n.bytes_sent()).sum()
    }

    /// Stops every node and joins all of their threads. Every node is
    /// told to stop before any is joined, so all egress threads hang up
    /// together and every reader in the mesh sees EOF at once instead of
    /// waiting out its read timeout behind a peer that is joined later.
    pub fn shutdown(self) {
        for n in &self.nodes {
            n.begin_stop();
        }
        for n in &self.nodes {
            n.join();
        }
    }
}

fn spawn_node(
    id: NodeId,
    homes: &[NodeId],
    config: ProtocolConfig,
    spec: ShardSpec,
    listener: TcpListener,
    addrs: &[SocketAddr],
) -> Result<Arc<ShardedNodeHandle>, NetError> {
    let (tx, rx) = channel::<RouterEvent>();
    let counters = Arc::new(Counters::default());
    let running = Arc::new(AtomicBool::new(true));
    let mut links: HashMap<NodeId, EgressLink> = HashMap::new();
    let mut threads = Vec::new();

    // Dial every peer eagerly (so setup errors surface here); the
    // sockets then go nonblocking and move into the egress thread, which
    // is their only writer from now on.
    for (j, addr) in addrs.iter().enumerate() {
        if j == id.index() {
            continue;
        }
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut hello = Vec::new();
        encode_hello(&mut hello, id);
        stream.write_all(&hello)?;
        stream.set_nonblocking(true)?;
        links.insert(
            NodeId(j as u32),
            EgressLink {
                addr: *addr,
                stream: Some(stream),
                outbox: Outbox::new(DEFAULT_OUTBOX_BYTES),
                backoff: DialBackoff::new(),
                redial_at: None,
            },
        );
    }

    // Listener thread: accepts inbound links; each reader feeds the
    // router (the single producer of every shard queue). The listener
    // owns its readers' handles and joins them on its way out, so joining
    // it leaves no thread holding a socket or `running`.
    {
        let tx = tx.clone();
        let running = running.clone();
        listener.set_nonblocking(true)?;
        threads.push(std::thread::spawn(move || {
            let mut readers: Vec<JoinHandle<()>> = Vec::new();
            while running.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_nonblocking(false);
                        let tx = tx.clone();
                        let running = running.clone();
                        // A peer that redials leaves a finished reader
                        // behind each time.
                        readers.retain(|r| !r.is_finished());
                        readers.push(std::thread::spawn(move || reader_loop(stream, tx, running)));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(25));
                    }
                    Err(_) => break,
                }
            }
            for reader in readers {
                let _ = reader.join();
            }
        }));
    }

    let inbound: Vec<Arc<BoundedQueue<LoopEvent<Envelope>>>> =
        (0..spec.shards()).map(|_| Arc::new(BoundedQueue::new(QUEUE_CAPACITY))).collect();
    let egress: Arc<BoundedQueue<EgressItem>> = Arc::new(BoundedQueue::new(QUEUE_CAPACITY));
    let grants: Vec<Arc<GrantTable>> =
        (0..spec.shards()).map(|_| Arc::new(GrantTable::default())).collect();
    let shard_runtimes: Vec<Arc<Mutex<RuntimeCounters>>> =
        (0..spec.shards()).map(|_| Arc::new(Mutex::new(RuntimeCounters::default()))).collect();

    // Router thread.
    {
        let inbound = inbound.clone();
        threads.push(std::thread::spawn(move || router_loop(rx, &inbound, spec)));
    }

    // Shard workers.
    for s in 0..spec.shards() {
        let space = LockSpace::with_homes(id, homes, config);
        let inbound = inbound[s].clone();
        let egress = egress.clone();
        let grants = grants[s].clone();
        let mirror = shard_runtimes[s].clone();
        threads.push(std::thread::spawn(move || {
            shard_worker(space, &inbound, &egress, &grants, &mirror)
        }));
    }

    // Egress thread: the only writer of every outgoing socket.
    {
        let egress = egress.clone();
        let counters = counters.clone();
        let running = running.clone();
        let shards = spec.shards();
        threads.push(std::thread::spawn(move || {
            egress_loop(id, &egress, shards, links, &counters, &running)
        }));
    }

    Ok(Arc::new(ShardedNodeHandle {
        id,
        spec,
        router: tx,
        grants,
        counters,
        shard_runtimes,
        inbound,
        next_ticket: AtomicU64::new(1),
        running,
        threads: Mutex::new(threads),
    }))
}

/// Decodes handshake + frames off one inbound socket, handing every
/// complete frame to the router; returns when the peer hangs up, the
/// router is gone, or — checked at least every read timeout — the node
/// stopped. (The readiness mux drives the same [`frame::Decoder`] from its
/// event loop instead.)
fn reader_loop(mut stream: TcpStream, router: Sender<RouterEvent>, running: Arc<AtomicBool>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut dec = frame::Decoder::new();
    let mut peer: Option<NodeId> = None;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if !running.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => dec.extend(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        if peer.is_none() {
            // First frame is the handshake: a bare varint node id.
            match dec.next_hello() {
                Ok(Some(id)) => peer = Some(id),
                Ok(None) => continue,
                Err(_) => return,
            }
        }
        loop {
            match dec.next::<Envelope>() {
                Ok(Some((from, messages))) => {
                    debug_assert_eq!(Some(from), peer);
                    if router.send(RouterEvent::Frame(from, messages)).is_err() {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => return,
            }
        }
    }
}

/// Routes every event to the shard owning its lock. A frame carrying
/// several locks is split into at most one sub-batch per shard; each
/// sub-batch preserves the frame's internal order, so the messages of
/// one lock are never reordered by the handoff.
fn router_loop(
    rx: Receiver<RouterEvent>,
    inbound: &[Arc<BoundedQueue<LoopEvent<Envelope>>>],
    spec: ShardSpec,
) {
    let mut split: Vec<Vec<Envelope>> = vec![Vec::new(); spec.shards()];
    while let Ok(event) = rx.recv() {
        match event {
            RouterEvent::Frame(from, messages) => {
                if spec.shards() == 1 {
                    inbound[0].push(LoopEvent::Incoming(from, messages));
                    continue;
                }
                for m in messages {
                    split[spec.shard_of(m.lock)].push(m);
                }
                for (s, bucket) in split.iter_mut().enumerate() {
                    if !bucket.is_empty() {
                        inbound[s].push(LoopEvent::Incoming(from, std::mem::take(bucket)));
                    }
                }
            }
            RouterEvent::Stop => break,
        }
    }
    for q in inbound {
        q.push(LoopEvent::Stop);
    }
}

/// One shard's worker: owns its lock partition, effect sink and host
/// runtime; applies each event through the same [`apply_event`] as a mux
/// node's loop, flushes after every one, and forwards batched sends to
/// the egress thread.
fn shard_worker(
    mut space: LockSpace,
    inbound: &BoundedQueue<LoopEvent<Envelope>>,
    egress: &BoundedQueue<EgressItem>,
    grants: &GrantTable,
    runtime_mirror: &Mutex<RuntimeCounters>,
) {
    let mut fx: EffectSink<Envelope> = EffectSink::new();
    let mut runtime: HostRuntime<Envelope> = HostRuntime::new();
    loop {
        match apply_event(&mut space, &mut runtime, &mut fx, grants, inbound.pop()) {
            PostEvent::Handled => {}
            PostEvent::Stop => {
                egress.push(EgressItem::Stop);
                return;
            }
            // The sockets belong to the egress thread and a sharded node
            // has no crash injection: nothing posts these to a shard.
            PostEvent::Sever { .. } | PostEvent::Kill { .. } => {
                unreachable!("Sever/Kill posted to a shard worker")
            }
        }
        let mut host = ShardHost { grants, egress };
        runtime.dispatch(&mut fx, &mut host);
        *locked(runtime_mirror) = *runtime.counters();
    }
}

/// The shard worker's [`BatchHost`]: grants go to the shard's mailbox,
/// batches to the egress thread. The raw hierarchical protocol sets no
/// timers, so `on_set_timer` is unreachable in practice and ignored.
struct ShardHost<'a> {
    grants: &'a GrantTable,
    egress: &'a BoundedQueue<EgressItem>,
}

impl BatchHost<Envelope> for ShardHost<'_> {
    fn on_batch(&mut self, to: NodeId, messages: Vec<Envelope>) {
        self.egress.push(EgressItem::Frame(to, messages));
    }

    fn on_granted(&mut self, lock: LockId, ticket: Ticket, mode: Mode) {
        self.grants.deliver(ticket, lock, mode);
    }

    fn on_set_timer(&mut self, _token: u64, _delay_micros: u64) {
        debug_assert!(false, "raw hierarchical protocol never sets timers");
    }
}

/// One outgoing socket owned by the egress thread: a nonblocking stream
/// (or `None` while the link is down), a bounded outbox of encoded
/// frames, and the redial schedule. No lock, no reconnect thread — the
/// egress loop itself flushes, detects death and redials.
struct EgressLink {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    outbox: Outbox,
    backoff: DialBackoff,
    redial_at: Option<Instant>,
}

/// The single egress thread: encodes each per-shard batch into one wire
/// frame and queues it on the peer's bounded outbox. Being the only
/// writer of every socket, frames to one peer go out in the exact order
/// they were queued — per-link FIFO by construction. Nonblocking writes
/// mean a slow peer fills only its own outbox (newest frames shed as
/// backpressure) while every other link keeps flushing; a dead peer is
/// redialled inline on the shared backoff schedule. Exits after
/// collecting one `Stop` per shard.
fn egress_loop(
    me: NodeId,
    egress: &BoundedQueue<EgressItem>,
    shards: usize,
    mut links: HashMap<NodeId, EgressLink>,
    counters: &Counters,
    running: &Arc<AtomicBool>,
) {
    let mut stops = 0;
    let mut out = Vec::new();
    loop {
        // With queued socket bytes or a pending redial we must keep
        // servicing the links, so only nap on the queue; otherwise park
        // until a shard hands us work.
        let busy = links
            .values()
            .any(|l| (l.stream.is_some() && !l.outbox.is_empty()) || l.redial_at.is_some());
        let item =
            if busy { egress.pop_timeout(Duration::from_millis(1)) } else { Some(egress.pop()) };
        if let Some(item) = item {
            match item {
                EgressItem::Stop => {
                    stops += 1;
                    if stops == shards {
                        return;
                    }
                }
                EgressItem::Frame(to, messages) => {
                    for message in &messages {
                        counters.bump(message.kind());
                    }
                    out.clear();
                    frame::write_batch(&mut out, me, &messages);
                    if let Some(link) = links.get_mut(&to) {
                        match link.outbox.push(&out) {
                            Push::Queued => counters.add_bytes(out.len() as u64),
                            Push::Dropped => counters.bump_backpressure(),
                        }
                    }
                }
            }
        }
        service_links(me, &mut links, running);
    }
}

/// Flushes every link's outbox as far as its socket allows and redials
/// any link whose backoff deadline has passed. A write failure tears the
/// link down (clearing stale queued frames — the raw protocol tolerates
/// a lossy outage) and schedules the redial.
fn service_links(me: NodeId, links: &mut HashMap<NodeId, EgressLink>, running: &Arc<AtomicBool>) {
    let now = Instant::now();
    for link in links.values_mut() {
        if let Some(due) = link.redial_at {
            if !running.load(Ordering::SeqCst) {
                link.redial_at = None;
            } else if now >= due {
                match redial(me, link.addr) {
                    Ok(stream) => {
                        link.stream = Some(stream);
                        link.redial_at = None;
                        link.backoff = DialBackoff::new();
                    }
                    Err(_) => {
                        link.backoff.failure();
                        link.redial_at = Some(now + link.backoff.delay());
                    }
                }
            }
        }
        if let Some(stream) = link.stream.as_mut() {
            if !link.outbox.is_empty() && link.outbox.write_to(stream).is_err() {
                link.stream = None;
                link.outbox.clear();
                link.backoff = DialBackoff::new();
                link.redial_at = Some(now + link.backoff.delay());
            }
        }
    }
}

/// One blocking reconnect attempt: dial, replay the handshake, go
/// nonblocking. Unlike [`crate::Cluster`]'s reconnect, no link-reset
/// notification is needed: the raw protocol assumes reliable links and
/// the sharded runtime carries no session state to resync.
fn redial(me: NodeId, addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut hello = Vec::new();
    encode_hello(&mut hello, me);
    stream.write_all(&hello)?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMEOUT: Duration = Duration::from_secs(10);

    #[test]
    fn sharded_cluster_read_write_cycle() {
        let cluster =
            ShardedCluster::spawn_hierarchical(3, 8, 4, ProtocolConfig::default()).unwrap();
        let t1 = cluster.node(1).acquire(LockId(0), Mode::Read, TIMEOUT).unwrap();
        let t2 = cluster.node(2).acquire(LockId(0), Mode::Read, TIMEOUT).unwrap();
        cluster.node(1).release(LockId(0), t1).unwrap();
        cluster.node(2).release(LockId(0), t2).unwrap();
        let t3 = cluster.node(2).acquire(LockId(5), Mode::Write, TIMEOUT).unwrap();
        cluster.node(2).release(LockId(5), t3).unwrap();
        assert!(cluster.message_stats().values().sum::<u64>() > 0);
        cluster.shutdown();
    }

    #[test]
    fn sharded_mutual_exclusion_per_lock() {
        let cluster =
            ShardedCluster::spawn_hierarchical(3, 4, 2, ProtocolConfig::default()).unwrap();
        for i in [1usize, 2, 0, 2, 1] {
            let t = cluster.node(i).acquire(LockId(3), Mode::Write, TIMEOUT).unwrap();
            cluster.node(i).release(LockId(3), t).unwrap();
        }
        cluster.shutdown();
    }

    #[test]
    fn upgrade_and_downgrade_over_the_sharded_wire() {
        let cluster =
            ShardedCluster::spawn_hierarchical(2, 4, 4, ProtocolConfig::default()).unwrap();
        let t = cluster.node(1).acquire(LockId(2), Mode::Upgrade, TIMEOUT).unwrap();
        cluster.node(1).upgrade(LockId(2), t, TIMEOUT).unwrap();
        cluster.node(1).downgrade(LockId(2), t, Mode::Read).unwrap();
        cluster.node(1).release(LockId(2), t).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn try_acquire_stays_message_free() {
        let cluster =
            ShardedCluster::spawn_hierarchical(2, 4, 2, ProtocolConfig::default()).unwrap();
        assert!(cluster.node(1).try_acquire(LockId(1), Mode::Read).unwrap().is_none());
        assert_eq!(cluster.node(1).message_stats().values().sum::<u64>(), 0);
        let t = cluster.node(0).try_acquire(LockId(1), Mode::Write).unwrap().unwrap();
        cluster.node(0).release(LockId(1), t).unwrap();
        cluster.shutdown();
    }

    #[test]
    fn release_is_validated_locally_and_leaves_no_grant_behind() {
        use crate::tests::not_held;
        let cluster =
            ShardedCluster::spawn_hierarchical(2, 8, 2, ProtocolConfig::default()).unwrap();
        let (home, node) = (cluster.node(0), cluster.node(1));
        assert!(not_held(node.release(LockId(3), Ticket(999))));
        // Not granted yet, then cancelled after a timeout.
        let hold = home.acquire(LockId(3), Mode::Write, TIMEOUT).unwrap();
        let pending = node.request(LockId(3), Mode::Write).unwrap();
        assert!(not_held(node.release(LockId(3), pending)));
        assert!(node.wait(LockId(3), pending, Duration::from_millis(50)).is_err());
        node.cancel(LockId(3), pending).unwrap();
        home.release(LockId(3), hold).unwrap();
        // Wrong lock (same shard or not), the right one, once too often;
        // `release_async` is the same call.
        let t = node.acquire(LockId(3), Mode::Read, TIMEOUT).unwrap();
        for other in [LockId(2), LockId(4)] {
            assert!(not_held(node.release(other, t)));
        }
        node.release_async(LockId(3), t).unwrap();
        assert!(not_held(node.release(LockId(3), t)));
        assert!(not_held(node.release_async(LockId(3), t)));
        let t = home.try_acquire(LockId(5), Mode::Write).unwrap().expect("home grants locally");
        home.release(LockId(5), t).unwrap();
        for l in 0..8u32 {
            for _ in 0..10 {
                let t = node.acquire(LockId(l), Mode::Write, TIMEOUT).unwrap();
                node.release(LockId(l), t).unwrap();
            }
        }
        let entries: usize = [home, node].iter().flat_map(|n| &n.grants).map(|g| g.len()).sum();
        assert_eq!(entries, 0, "an entry outlived its ticket");
        cluster.shutdown();
    }

    #[test]
    fn shutdown_joins_every_reader_thread() {
        let listeners: Vec<TcpListener> =
            (0..3).map(|_| TcpListener::bind(("127.0.0.1", 0)).unwrap()).collect();
        let addrs: Vec<SocketAddr> = listeners.iter().map(|l| l.local_addr().unwrap()).collect();
        // A peer that connects and never says a word: its reader sees no
        // EOF at shutdown and leaves only through its read timeout. Dialed
        // before node 0 exists, so it is first in node 0's accept queue.
        let silent = TcpStream::connect(addrs[0]).unwrap();
        let nodes: Vec<Arc<ShardedNodeHandle>> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                let config = ProtocolConfig::default();
                let (id, homes) = (NodeId(i as u32), [NodeId(0); 4]);
                spawn_node(id, &homes, config, ShardSpec::new(2), listener, &addrs).unwrap()
            })
            .collect();
        let cluster = ShardedCluster { nodes: nodes.clone() };
        // Granted through node 0, which therefore accepted node 1's link —
        // and the silent one queued ahead of it.
        let t = cluster.node(1).acquire(LockId(1), Mode::Write, TIMEOUT).unwrap();
        cluster.node(1).release(LockId(1), t).unwrap();
        cluster.shutdown();
        for node in &nodes {
            let holders = Arc::strong_count(&node.running);
            assert_eq!(holders, 1, "a thread of {:?} outlived shutdown", node.id);
        }
        drop(silent);
    }

    #[test]
    fn quiescence_spans_all_shards() {
        let cluster =
            ShardedCluster::spawn_hierarchical(2, 8, 4, ProtocolConfig::default()).unwrap();
        assert!(cluster.node(0).is_quiescent().unwrap());
        let t = cluster.node(1).acquire(LockId(6), Mode::Write, TIMEOUT).unwrap();
        // Holding a lock is the application's business — still quiescent.
        assert!(cluster.node(1).is_quiescent().unwrap());
        // A request blocked behind node 1's write hold is protocol work
        // in progress: the requester's shard reports non-quiescent.
        let blocked = cluster.node(0).request(LockId(6), Mode::Write).unwrap();
        assert!(cluster.node(0).wait(LockId(6), blocked, Duration::from_millis(100)).is_err());
        assert!(!cluster.node(0).is_quiescent().unwrap());
        cluster.node(1).release(LockId(6), t).unwrap();
        cluster.node(0).wait(LockId(6), blocked, TIMEOUT).unwrap();
        cluster.node(0).release(LockId(6), blocked).unwrap();
        assert!(cluster.node(0).is_quiescent().unwrap());
        cluster.shutdown();
    }

    #[test]
    fn shard_gauges_and_runtime_counters_flow() {
        let cluster =
            ShardedCluster::spawn_hierarchical(2, 16, 4, ProtocolConfig::default()).unwrap();
        for l in 0..16u32 {
            let t = cluster.node(1).acquire(LockId(l), Mode::Read, TIMEOUT).unwrap();
            cluster.node(1).release(LockId(l), t).unwrap();
        }
        // A worker mirrors its counters after the dispatch that woke the
        // caller, and `release` no longer waits for it: round-trip
        // through every shard before reading them.
        cluster.node(1).is_quiescent().unwrap();
        let rt = cluster.node(1).runtime_counters();
        assert!(rt.grants >= 16, "{rt:?}");
        let per_shard = cluster.node(1).shard_runtime_counters();
        assert_eq!(per_shard.len(), 4);
        assert!(per_shard.iter().filter(|c| c.grants > 0).count() >= 2, "work spread over shards");
        let routed: u64 = cluster.node(1).shard_gauges().iter().map(|g| g.routed).sum();
        assert!(routed > 0);
        cluster.shutdown();
    }

    #[test]
    fn locks_on_different_shards_progress_independently() {
        // A writer parks on a contended lock; locks on other shards must
        // keep granting while that shard's queue holds the blocked
        // request.
        let cluster =
            ShardedCluster::spawn_hierarchical(2, 16, 4, ProtocolConfig::default()).unwrap();
        let spec = cluster.node(0).spec();
        let hot = LockId(0);
        let other = (1..16u32)
            .map(LockId)
            .find(|l| spec.shard_of(*l) != spec.shard_of(hot))
            .expect("16 locks over 4 shards span at least two shards");
        let holder = cluster.node(0).acquire(hot, Mode::Write, TIMEOUT).unwrap();
        let blocked = cluster.node(1).request(hot, Mode::Write).unwrap();
        // While `hot`'s shard has a parked writer, the other shard keeps
        // serving grants.
        for _ in 0..5 {
            let t = cluster.node(1).acquire(other, Mode::Write, TIMEOUT).unwrap();
            cluster.node(1).release(other, t).unwrap();
        }
        assert!(
            cluster.node(1).wait(hot, blocked, Duration::from_millis(50)).is_err(),
            "hot lock is still held"
        );
        cluster.node(0).release(hot, holder).unwrap();
        cluster.node(1).wait(hot, blocked, TIMEOUT).unwrap();
        cluster.node(1).release(hot, blocked).unwrap();
        cluster.shutdown();
    }
}
