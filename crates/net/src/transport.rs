//! Transport plumbing shared by every host in this crate: the event
//! vocabulary the per-node loops consume ([`LoopEvent`]), the grant
//! mailbox API callers block on ([`GrantTable`]), wire-level counters,
//! the protocol-side event application shared by the readiness mux and
//! the shard workers ([`apply_event`]), and the `/metrics` scrape
//! endpoint.

use crate::NetError;
use hlock_core::{
    Classify, ConcurrencyProtocol, EffectSink, HostRuntime, LockId, MessageKind, Mode, NodeId,
    Priority, ProtocolEvent, RuntimeCounters, Ticket,
};
use hlock_wire::frame;
use std::collections::hash_map::{Entry, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks `mutex`, poisoned or not — every lock of this crate is taken
/// here, and none has ever poisoned. A thread that panics under a lock
/// has already failed loudly (its join, its test); the host must still
/// answer `shutdown`, `is_quiescent` and the counters afterwards, and the
/// poison flag would only turn that one panic into a cascade of
/// unrelated ones.
pub(crate) fn locked<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `signal` for at most `timeout`; wake-ups may be spurious.
/// Poison-free like [`locked`], whose guard it takes and gives back.
pub(crate) fn wait_for<'a, T>(
    signal: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    signal.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner).0
}

/// One unit of work for a protocol loop: a mux node's, or one shard
/// worker's.
pub(crate) enum LoopEvent<M> {
    /// One decoded wire frame: a whole batch from one peer, in order.
    Incoming(NodeId, Vec<M>),
    Request {
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        priority: Priority,
    },
    /// One-way: the caller already retired the ticket from the
    /// [`GrantTable`] (see [`GrantTable::retire`]), so there is nothing
    /// to report back.
    Release {
        lock: LockId,
        ticket: Ticket,
    },
    Upgrade {
        lock: LockId,
        ticket: Ticket,
        done: Sender<Result<(), NetError>>,
    },
    Cancel {
        lock: LockId,
        ticket: Ticket,
        done: Sender<Result<(), NetError>>,
    },
    IsQuiescent {
        done: Sender<bool>,
    },
    Downgrade {
        lock: LockId,
        ticket: Ticket,
        mode: Mode,
        done: Sender<Result<(), NetError>>,
    },
    TryRequest {
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        done: Sender<Result<bool, NetError>>,
    },
    /// The outgoing link to `peer` was re-established after a failure.
    LinkUp(NodeId),
    /// Failure detection: `dead` are suspected crashed. Recovery-capable
    /// protocols start an epoch election; others ignore it. `done` is
    /// `None` for transport-internal suspicion (repeated redial failure).
    Suspect {
        dead: Vec<NodeId>,
        done: Option<Sender<()>>,
    },
    /// Fault injection: shut down the outgoing socket to `peer`.
    Sever {
        peer: NodeId,
        done: Sender<()>,
    },
    /// Fault injection: crash-stop the node (sever everything at once,
    /// then halt; acknowledged so callers observe the crash happening
    /// before their next step).
    Kill {
        done: Sender<()>,
    },
    Stop,
    /// Mux only, one-way: an API caller ran a protocol step on its own
    /// thread and left sends or timers in the node's sink; the worker
    /// owes the node a dispatch step. Carries nothing — the sink is the
    /// message.
    Flush,
}

impl<M> LoopEvent<M> {
    /// Whether a host that dispatches once per *burst* of events may
    /// leave this event's effects in the sink until the burst ends. True
    /// for the one-way events. Every other event either answers a blocked
    /// caller or ends the node: the host flushes what is pending before
    /// applying it and flushes its own effects right after, so it
    /// observes — and leaves behind — exactly the mailbox and wire state
    /// it would with one dispatch per event. (A `Cancel` must find a
    /// grant that raced ahead of it already delivered; a `Kill` must not
    /// swallow the release applied just before it.)
    pub(crate) fn defers_dispatch(&self) -> bool {
        match self {
            LoopEvent::Incoming(..)
            | LoopEvent::Request { .. }
            | LoopEvent::Release { .. }
            | LoopEvent::LinkUp(_)
            | LoopEvent::Flush => true,
            LoopEvent::Suspect { done, .. } => done.is_none(),
            LoopEvent::Upgrade { .. }
            | LoopEvent::Cancel { .. }
            | LoopEvent::IsQuiescent { .. }
            | LoopEvent::Downgrade { .. }
            | LoopEvent::TryRequest { .. }
            | LoopEvent::Sever { .. }
            | LoopEvent::Kill { .. }
            | LoopEvent::Stop => false,
        }
    }
}

/// What [`apply_event`] could not finish on its own because it needs
/// transport state (sockets, the event loop's lifecycle) the protocol
/// layer does not own.
pub(crate) enum PostEvent {
    Handled,
    Sever { peer: NodeId, done: Sender<()> },
    Kill { done: Sender<()> },
    Stop,
}

/// Applies one [`LoopEvent`] to a node's protocol state. This is the
/// single definition of the API/incoming-frame semantics — the readiness
/// mux and the sharded host's workers both call it, so the two hosts
/// cannot drift. Transport-owned events (`Sever`, `Kill`, `Stop`) are
/// handed back untouched.
pub(crate) fn apply_event<P>(
    protocol: &mut P,
    runtime: &mut HostRuntime<P::Message>,
    fx: &mut EffectSink<P::Message>,
    grants: &GrantTable,
    event: LoopEvent<P::Message>,
) -> PostEvent
where
    P: ConcurrencyProtocol,
{
    let me = protocol.node_id();
    match event {
        LoopEvent::Incoming(from, messages) => {
            if fx.observing() {
                for message in &messages {
                    let kind = message.kind();
                    fx.emit_with(|| ProtocolEvent::Delivered { node: me, from, kind });
                }
            }
            // Route through the shared runtime so frames carrying a
            // stale recovery epoch are fenced before the protocol sees
            // them — identical semantics to the simulator and the model
            // checker.
            runtime.deliver(protocol, from, messages, fx);
        }
        LoopEvent::Request { lock, mode, ticket, priority } => {
            let r = protocol.request_with_priority(lock, mode, ticket, priority, fx);
            // Duplicate tickets cannot happen (monotonic counter).
            debug_assert!(r.is_ok(), "request rejected: {r:?}");
        }
        LoopEvent::Release { lock, ticket } => {
            // The caller retired the ticket's mailbox entry, and an entry
            // exists only for a ticket the protocol granted and has not
            // released (or that recovery voided, which releases as `Ok`).
            let r = protocol.release(lock, ticket, fx);
            debug_assert!(r.is_ok(), "retired ticket rejected by the protocol: {r:?}");
        }
        LoopEvent::Upgrade { lock, ticket, done } => {
            let r = protocol.upgrade(lock, ticket, fx).map_err(NetError::Protocol);
            let _ = done.send(r);
        }
        LoopEvent::Cancel { lock, ticket, done } => {
            // A grant may have raced ahead of the cancel: release it and
            // drop its mailbox entry. Whoever removes the entry owns the
            // protocol-side release, so a caller racing `release` against
            // its own `cancel` cannot release twice.
            let r = match protocol.cancel(lock, ticket, fx) {
                Ok(_) => Ok(()),
                Err(hlock_core::ProtocolError::NotCancellable { .. }) => {
                    if grants.discard(ticket) {
                        protocol.release(lock, ticket, fx).map_err(NetError::Protocol)
                    } else {
                        Ok(())
                    }
                }
                Err(e) => Err(NetError::Protocol(e)),
            };
            let _ = done.send(r);
        }
        LoopEvent::Downgrade { lock, ticket, mode, done } => {
            let r = protocol.downgrade(lock, ticket, mode, fx).map_err(NetError::Protocol);
            let _ = done.send(r);
        }
        LoopEvent::TryRequest { lock, mode, ticket, done } => {
            let r = protocol.try_request(lock, mode, ticket, fx).map_err(NetError::Protocol);
            let _ = done.send(r);
        }
        LoopEvent::IsQuiescent { done } => {
            let _ = done.send(protocol.is_quiescent());
        }
        LoopEvent::LinkUp(peer) => {
            protocol.on_link_reset(peer, fx);
        }
        LoopEvent::Suspect { dead, done } => {
            protocol.on_suspect(&dead, fx);
            if let Some(done) = done {
                let _ = done.send(());
            }
        }
        LoopEvent::Sever { peer, done } => return PostEvent::Sever { peer, done },
        LoopEvent::Kill { done } => return PostEvent::Kill { done },
        LoopEvent::Stop => return PostEvent::Stop,
        LoopEvent::Flush => {}
    }
    PostEvent::Handled
}

/// One granted-and-not-yet-released ticket.
struct Held {
    lock: LockId,
    mode: Mode,
    /// Whether a caller has consumed this grant (`wait`, `try_acquire`).
    claimed: bool,
}

/// The record of every ticket a node has granted and its callers have
/// not yet released, shared between the protocol loop and API callers.
///
/// An entry's life: the loop [`deliver`](GrantTable::deliver)s it when
/// the protocol grants the ticket (again on an upgrade, which re-grants
/// `W` on the held `U` ticket); a caller claims it in
/// [`wait`](GrantTable::wait); `release` [`retire`](GrantTable::retire)s
/// it, or a cancellation that lost the race against the grant
/// [`discard`](GrantTable::discard)s it. Because the entry outlives the
/// claim, `release` can be validated against this table on the caller's
/// thread and posted to the loop one-way; because exactly one caller
/// removes an entry, the loop sees at most one release per grant.
#[derive(Default)]
pub(crate) struct GrantTable {
    table: Mutex<Table>,
    signal: Condvar,
}

#[derive(Default)]
struct Table {
    held: HashMap<Ticket, Held>,
    /// Callers blocked in [`GrantTable::wait`]. Lets a grant nobody is
    /// waiting for yet (a local grant, entered by the very thread that
    /// will claim it) skip the notify and its syscall.
    waiting: usize,
}

impl GrantTable {
    pub(crate) fn deliver(&self, ticket: Ticket, lock: LockId, mode: Mode) {
        if self.insert(ticket, lock, mode) {
            self.notify();
        }
    }

    /// The two halves of [`deliver`](GrantTable::deliver), for a host
    /// whose callers contend with it for the protocol state (the mux):
    /// `insert` runs under the node's core lock, in the same hold that
    /// took the grant out of the sink — a `Cancel` applied right after
    /// must find the entry to discard, or the grant would be leaked into
    /// the table behind it — and `notify` after that lock is dropped, so
    /// a woken waiter does not run straight into it. Returns whether
    /// anyone is blocked in `wait`, that is, whether a `notify` is owed.
    pub(crate) fn insert(&self, ticket: Ticket, lock: LockId, mode: Mode) -> bool {
        let mut table = locked(&self.table);
        table.held.insert(ticket, Held { lock, mode, claimed: false });
        table.waiting > 0
    }

    /// See [`insert`](GrantTable::insert).
    pub(crate) fn notify(&self) {
        self.signal.notify_all();
    }

    /// Drops the entry of a grant nobody will claim (its request was
    /// cancelled). Returns whether there was one.
    pub(crate) fn discard(&self, ticket: Ticket) -> bool {
        locked(&self.table).held.remove(&ticket).is_some()
    }

    /// Blocks until `ticket` has an unclaimed grant, and claims it.
    pub(crate) fn wait(&self, ticket: Ticket, timeout: Duration) -> Option<(LockId, Mode)> {
        let deadline = Instant::now() + timeout;
        let mut table = locked(&self.table);
        loop {
            if let Some(held) = table.held.get_mut(&ticket).filter(|h| !h.claimed) {
                held.claimed = true;
                return Some((held.lock, held.mode));
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            table.waiting += 1;
            table = wait_for(&self.signal, table, deadline - now);
            table.waiting -= 1;
        }
    }

    /// Claims a grant a shard worker has already confirmed to the caller
    /// (`ShardedNodeHandle::try_acquire`): the worker answers before its
    /// dispatch step delivers the grant, so the entry is at most that
    /// step away. The bound only ever expires when the worker died in
    /// between. (A mux node's `try_acquire` runs the step on the caller's
    /// thread and has delivered the grant by the time it looks.)
    ///
    /// # Errors
    ///
    /// `Closed` in that case.
    pub(crate) fn claim_confirmed(&self, ticket: Ticket) -> Result<(), NetError> {
        self.wait(ticket, Duration::from_secs(5)).map(drop).ok_or(NetError::Closed)
    }

    /// Removes the entry of a ticket being released.
    ///
    /// # Errors
    ///
    /// `NotHeld` — the protocol's own answer — when `ticket` is unknown,
    /// not granted yet, already released, or granted on another lock.
    pub(crate) fn retire(&self, lock: LockId, ticket: Ticket) -> Result<(), NetError> {
        match locked(&self.table).held.entry(ticket) {
            Entry::Occupied(held) if held.get().lock == lock => {
                held.remove();
                Ok(())
            }
            _ => Err(NetError::Protocol(hlock_core::ProtocolError::NotHeld { ticket })),
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        locked(&self.table).held.len()
    }
}

/// Per-kind message counters (sent messages) plus total wire bytes and
/// frames dropped to outbox backpressure.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) by_kind: [AtomicU64; MessageKind::ALL.len()],
    pub(crate) bytes: AtomicU64,
    pub(crate) backpressure: AtomicU64,
}

impl Counters {
    fn index(kind: MessageKind) -> usize {
        MessageKind::ALL.iter().position(|k| *k == kind).expect("known kind")
    }
    pub(crate) fn bump(&self, kind: MessageKind) {
        self.by_kind[Self::index(kind)].fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn add_bytes(&self, n: u64) {
        self.bytes.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn bump_backpressure(&self) {
        self.backpressure.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn snapshot(&self) -> HashMap<MessageKind, u64> {
        MessageKind::ALL
            .iter()
            .map(|k| (*k, self.by_kind[Self::index(*k)].load(Ordering::Relaxed)))
            .collect()
    }
}

/// Appends the link handshake frame announcing `me` to `buf`.
pub(crate) fn encode_hello(buf: &mut Vec<u8>, me: NodeId) {
    frame::write_hello(buf, me);
}

/// A running `/metrics` HTTP listener (see
/// [`crate::Cluster::serve_metrics`]).
pub(crate) struct MetricsServer {
    pub(crate) addr: SocketAddr,
    pub(crate) running: Arc<AtomicBool>,
    pub(crate) thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    pub(crate) fn stop(&mut self) {
        self.running.store(false, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Answers one `/metrics` scrape: folds `total` (the per-node runtime
/// counters, summed) into the registry, renders it, and writes a minimal
/// HTTP/1.0 response. Best-effort — scrape failures never disturb the
/// cluster.
pub(crate) fn serve_scrape(
    mut stream: TcpStream,
    metrics: &crate::ClusterMetrics,
    total: RuntimeCounters,
) {
    // Drain (and ignore) the request line + headers, briefly.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut scratch = [0u8; 1024];
    let _ = stream.read(&mut scratch);

    let body = metrics.with(|r| {
        r.record_runtime(&total);
        r.render()
    });
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::not_held;

    const L0: LockId = LockId(0);
    const L1: LockId = LockId(1);
    const T: Ticket = Ticket(7);
    const NOW: Duration = Duration::ZERO;

    #[test]
    fn retire_accepts_exactly_one_release_of_a_granted_ticket_on_its_lock() {
        let table = GrantTable::default();
        assert!(not_held(table.retire(L0, T)), "unknown or not granted yet");
        table.deliver(T, L0, Mode::Read);
        assert!(not_held(table.retire(L1, T)), "granted on another lock");
        assert_eq!(table.len(), 1, "a refused release leaves the entry alone");
        // Claimed or not, a granted ticket may be released.
        table.retire(L0, T).unwrap();
        assert!(not_held(table.retire(L0, T)), "already released");
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn wait_claims_once_and_sees_an_upgrade_regrant() {
        let table = GrantTable::default();
        assert_eq!(table.wait(T, NOW), None, "nothing granted");
        table.deliver(T, L0, Mode::Upgrade);
        assert_eq!(table.wait(T, NOW), Some((L0, Mode::Upgrade)));
        assert_eq!(table.wait(T, NOW), None, "a grant is claimed once");
        // The upgrade re-grants `W` on the held `U` ticket.
        table.deliver(T, L0, Mode::Write);
        assert_eq!(table.wait(T, NOW), Some((L0, Mode::Write)));
        assert_eq!(table.len(), 1, "still one entry for the one held ticket");
        table.retire(L0, T).unwrap();
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn discard_reports_whether_it_removed_the_grant() {
        let table = GrantTable::default();
        assert!(!table.discard(T));
        table.deliver(T, L0, Mode::Write);
        assert!(table.discard(T));
        assert!(!table.discard(T));
        assert_eq!(table.wait(T, NOW), None);
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn wait_wakes_on_a_grant_delivered_from_another_thread() {
        let table = GrantTable::default();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| table.wait(T, Duration::from_secs(30)));
            table.deliver(T, L1, Mode::IntentRead);
            assert_eq!(waiter.join().unwrap(), Some((L1, Mode::IntentRead)));
        });
    }
}
