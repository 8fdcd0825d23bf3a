//! The readiness-driven multiplexed transport: a small worker pool
//! drives every node's sockets and timers from epoll-style readiness
//! events, multiplexing thousands of peer links over nonblocking sockets
//! without a thread per peer.
//!
//! Each worker owns a [`Poller`], a deadline wheel (a min-heap of
//! `(Instant, seq)` keys) and a set of node slots. A node is split in
//! two halves:
//!
//! * the **transport half** ([`NodeIo`]: listener, inbound connections,
//!   outgoing links, encode buffer) lives in the slot and is only ever
//!   touched by that worker thread — no lock;
//! * the **protocol half** ([`NodeCore`]: protocol state machine,
//!   [`HostRuntime`], [`EffectSink`], observer) sits behind one mutex
//!   shared by the slot and the node's [`NodeHandle`].
//!
//! **Caller-runs.** `request`, `release` and `try_acquire` lock the core
//! and run [`apply_event`] *on the calling thread* ([`MuxPort::apply`]).
//! The grants the step produced are taken out of the sink and entered
//! in the [`GrantTable`] at once, so an acquisition the node can grant
//! locally never crosses a thread. Only when a send or a timer is left
//! in the sink is the worker told — one-way, with a [`LoopEvent::Flush`]
//! on its command queue and the elided pipe [`Waker`] — to run the
//! node's next dispatch step; the worker alone writes sockets, so
//! per-link FIFO is untouched. Everything else (`Cancel`, `Upgrade`,
//! `Downgrade`, `IsQuiescent`, `Suspect`, `Sever`, `Kill`, `Stop`)
//! travels the queue and is applied by the worker, as are inbound
//! frames and timers.
//!
//! **Lock rules.** Order: node core → [`GrantTable`] (nested where a
//! grant is entered and on `apply_event`'s cancel-races-grant path,
//! never the other way round); observers take their own locks inside
//! the core lock and must not call back into the node. The core lock is a plain blocking mutex with short holds — no
//! spinning, no `try_lock`-else-queue fallback (a busy lock would then
//! push one caller's `request` behind its own queued `release`). It is
//! never held across (1) a socket, pipe or file syscall, (2) a
//! [`GrantTable::notify`] (the woken caller would run straight into the
//! lock; the table *entry* is made under the lock, so that a `Cancel`
//! applied next finds it), or (3) the wake-up of the worker: both sides
//! drain what they need under the lock into scratch and act on it after
//! unlocking ([`Worker::step`], [`MuxPort::apply`]). One
//! caller's calls apply in its program order, because each has run to
//! completion under the lock before it returns. A killed or stopped
//! node is marked `closed` under the lock, so a caller that races the
//! teardown is refused instead of being granted by a dead node.
//!
//! The worker applies a whole burst of events before it runs one
//! dispatch step per touched node (see [`Worker::run`]).
//!
//! Outgoing links are dialed lazily on first send and carry a bounded
//! [`Outbox`] (queue-and-flush with partial-write cursors); when the
//! bound is hit the newest frame is shed and a
//! [`ProtocolEvent::Backpressure`] event is emitted — a slow peer
//! fills only its own outbox and never blocks the worker. A failed link
//! is redialed from a deadline-wheel entry on the [`DialBackoff`]
//! schedule (10 ms doubling to 1 s); frames sent while it waits out a
//! backoff are shed, re-establishment raises [`LoopEvent::LinkUp`], and
//! the fifth consecutive dial failure raises [`LoopEvent::Suspect`] —
//! the transport's failure detector, which starts recovery elections.

use crate::conn::{DialBackoff, Outbox, Push, DEFAULT_OUTBOX_BYTES};
use crate::transport::{
    apply_event, encode_hello, locked, Counters, GrantTable, LoopEvent, PostEvent,
};
use crate::{NetError, NodeHandle};
use hlock_core::{
    BatchHost, Classify, ConcurrencyProtocol, EffectSink, HostRuntime, Inspect, LinkDownReason,
    LockId, Mode, NodeId, Observer, ProtocolEvent, RuntimeCounters, SharedAuditor, SpanId, Ticket,
};
use hlock_wire::{frame, WireCodec};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(not(unix))]
compile_error!("the hlock-net readiness mux needs a unix platform (epoll or poll)");

use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};

// ---------------------------------------------------------------------
// Raw syscall surface (no libc crate: the build is dependency-frozen).
// ---------------------------------------------------------------------

mod sys {
    #[allow(non_camel_case_types)]
    pub type c_int = i32;

    extern "C" {
        pub fn pipe(fds: *mut c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn connect(fd: c_int, addr: *const u8, len: u32) -> c_int;
        pub fn listen(fd: c_int, backlog: c_int) -> c_int;
    }

    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    pub const O_NONBLOCK: c_int = 2048;
    pub const AF_INET: c_int = 2;
    pub const SOCK_STREAM: c_int = 1;
    pub const EINPROGRESS: i32 = 115;

    #[cfg(target_os = "linux")]
    pub mod epoll {
        use super::c_int;

        #[repr(C)]
        #[cfg_attr(target_arch = "x86_64", repr(packed))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        extern "C" {
            pub fn epoll_create1(flags: c_int) -> c_int;
            pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
            pub fn epoll_wait(
                epfd: c_int,
                events: *mut EpollEvent,
                maxevents: c_int,
                timeout_ms: c_int,
            ) -> c_int;
        }

        pub const EPOLL_CTL_ADD: c_int = 1;
        pub const EPOLL_CTL_DEL: c_int = 2;
        pub const EPOLL_CTL_MOD: c_int = 3;
        pub const EPOLLIN: u32 = 0x1;
        pub const EPOLLOUT: u32 = 0x4;
        pub const EPOLLERR: u32 = 0x8;
        pub const EPOLLHUP: u32 = 0x10;
    }

    #[cfg(all(unix, not(target_os = "linux")))]
    pub mod pollsys {
        use super::c_int;

        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct PollFd {
            pub fd: c_int,
            pub events: i16,
            pub revents: i16,
        }

        extern "C" {
            pub fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: c_int) -> c_int;
        }

        pub const POLLIN: i16 = 0x1;
        pub const POLLOUT: i16 = 0x4;
        pub const POLLERR: i16 = 0x8;
        pub const POLLHUP: i16 = 0x10;
    }
}

fn set_nonblocking_fd(fd: RawFd) -> std::io::Result<()> {
    unsafe {
        let flags = sys::fcntl(fd, sys::F_GETFL, 0);
        if flags < 0 {
            return Err(std::io::Error::last_os_error());
        }
        if sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) < 0 {
            return Err(std::io::Error::last_os_error());
        }
    }
    Ok(())
}

/// One readiness notification: a registration token plus what happened.
#[derive(Clone, Copy)]
struct Readiness {
    token: u64,
    readable: bool,
    writable: bool,
    /// Error or hangup — the registered fd is dead or dying.
    failed: bool,
}

/// A level-triggered readiness selector keyed by caller-chosen `u64`
/// tokens (monotonic, never reused — so a recycled fd number can never
/// alias a stale registration). epoll on Linux, `poll(2)` elsewhere.
struct Poller {
    #[cfg(target_os = "linux")]
    epfd: RawFd,
    #[cfg(all(unix, not(target_os = "linux")))]
    fds: HashMap<RawFd, (u64, bool, bool)>,
}

#[cfg(target_os = "linux")]
impl Poller {
    fn new() -> std::io::Result<Poller> {
        let epfd = unsafe { sys::epoll::epoll_create1(0) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn events_bits(readable: bool, writable: bool) -> u32 {
        let mut bits = 0;
        if readable {
            bits |= sys::epoll::EPOLLIN;
        }
        if writable {
            bits |= sys::epoll::EPOLLOUT;
        }
        bits
    }

    fn ctl(&mut self, op: sys::c_int, fd: RawFd, token: u64, r: bool, w: bool) {
        let mut ev = sys::epoll::EpollEvent { events: Self::events_bits(r, w), data: token };
        unsafe {
            let _ = sys::epoll::epoll_ctl(self.epfd, op, fd, &mut ev);
        }
    }

    fn add(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) {
        self.ctl(sys::epoll::EPOLL_CTL_ADD, fd, token, readable, writable);
    }

    fn modify(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) {
        self.ctl(sys::epoll::EPOLL_CTL_MOD, fd, token, readable, writable);
    }

    fn remove(&mut self, fd: RawFd) {
        self.ctl(sys::epoll::EPOLL_CTL_DEL, fd, 0, false, false);
    }

    fn wait(&mut self, out: &mut Vec<Readiness>, timeout: Duration) {
        out.clear();
        let mut raw = [sys::epoll::EpollEvent { events: 0, data: 0 }; 256];
        let ms = timeout.as_millis().min(200) as sys::c_int;
        // Round sub-millisecond waits up so a near deadline never spins.
        let ms = if ms == 0 && !timeout.is_zero() { 1 } else { ms };
        let n = unsafe { sys::epoll::epoll_wait(self.epfd, raw.as_mut_ptr(), 256, ms) };
        for ev in raw.iter().take(n.max(0) as usize) {
            let bits = ev.events;
            out.push(Readiness {
                token: ev.data,
                readable: bits & sys::epoll::EPOLLIN != 0,
                writable: bits & sys::epoll::EPOLLOUT != 0,
                failed: bits & (sys::epoll::EPOLLERR | sys::epoll::EPOLLHUP) != 0,
            });
        }
    }
}

#[cfg(target_os = "linux")]
impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            let _ = sys::close(self.epfd);
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
impl Poller {
    fn new() -> std::io::Result<Poller> {
        Ok(Poller { fds: HashMap::new() })
    }

    fn add(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) {
        self.fds.insert(fd, (token, readable, writable));
    }

    fn modify(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) {
        self.fds.insert(fd, (token, readable, writable));
    }

    fn remove(&mut self, fd: RawFd) {
        self.fds.remove(&fd);
    }

    fn wait(&mut self, out: &mut Vec<Readiness>, timeout: Duration) {
        use sys::pollsys as p;
        out.clear();
        let order: Vec<(RawFd, (u64, bool, bool))> =
            self.fds.iter().map(|(fd, reg)| (*fd, *reg)).collect();
        let mut raw: Vec<p::PollFd> = order
            .iter()
            .map(|(fd, (_, r, w))| p::PollFd {
                fd: *fd,
                events: if *r { p::POLLIN } else { 0 } | if *w { p::POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let ms = timeout.as_millis().min(200) as sys::c_int;
        let ms = if ms == 0 && !timeout.is_zero() { 1 } else { ms };
        let n = unsafe { p::poll(raw.as_mut_ptr(), raw.len() as u64, ms) };
        if n <= 0 {
            return;
        }
        for (pfd, (_, (token, _, _))) in raw.iter().zip(order.iter()) {
            if pfd.revents == 0 {
                continue;
            }
            out.push(Readiness {
                token: *token,
                readable: pfd.revents & p::POLLIN != 0,
                writable: pfd.revents & p::POLLOUT != 0,
                failed: pfd.revents & (p::POLLERR | p::POLLHUP) != 0,
            });
        }
    }
}

/// Wakes a worker blocked in [`Poller::wait`] from another thread: a
/// self-pipe whose read end is registered at [`WAKER_TOKEN`], plus a
/// `pending` flag that lets all but the first wake-up of a burst skip
/// the `write(2)`.
///
/// Protocol. A producer enqueues its event and *then* calls
/// [`Waker::wake`], which swaps `pending` to `true` and writes the pipe
/// byte only if it was `false`. The worker, on pipe readiness, reads the
/// pipe, swaps `pending` back to `false` ([`Waker::consume`]) and only
/// *then* drains the queue.
///
/// No wake-up is lost. `pending` is `true` exactly from a flip until the
/// `consume` that follows the flipper's byte, and that `consume` always
/// comes: the byte is in the pipe (or about to be written) and readiness
/// is level-triggered. So a producer whose swap found `true` knows a
/// `consume` is still ahead of it in `pending`'s modification order. All
/// accesses are `SeqCst` read-modify-writes, so that `consume` reads from
/// the producer's swap (or a later one in its release sequence) and the
/// queue drain after it sees the event enqueued before the swap. A
/// producer whose swap found `false` writes the byte itself.
pub(crate) struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
    pending: AtomicBool,
    /// Calls of [`Waker::wake`], elided or not.
    #[cfg(test)]
    pub(crate) wakes: AtomicU64,
    /// A test that holds this parks the worker at the top of its next
    /// iteration, before it applies or dispatches anything; `gated`
    /// counts the worker's arrivals there. See [`Waker::park_worker`].
    #[cfg(test)]
    gate: Mutex<()>,
    #[cfg(test)]
    gated: AtomicU64,
}

impl Waker {
    /// Both pipe ends are nonblocking; the caller registers the read end.
    fn new() -> std::io::Result<Waker> {
        let mut fds = [0 as sys::c_int; 2];
        if unsafe { sys::pipe(fds.as_mut_ptr()) } < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // Owned from here on, so an early return closes both ends.
        let waker = Waker {
            read_fd: fds[0],
            write_fd: fds[1],
            pending: AtomicBool::new(false),
            #[cfg(test)]
            wakes: AtomicU64::new(0),
            #[cfg(test)]
            gate: Mutex::new(()),
            #[cfg(test)]
            gated: AtomicU64::new(0),
        };
        set_nonblocking_fd(waker.read_fd)?;
        set_nonblocking_fd(waker.write_fd)?;
        Ok(waker)
    }

    pub(crate) fn wake(&self) {
        #[cfg(test)]
        self.wakes.fetch_add(1, Ordering::Relaxed);
        if !self.pending.swap(true, Ordering::SeqCst) {
            self.write_byte();
        }
    }

    /// Wakes the worker for a signal that does not travel through the
    /// command queue (the pool's `running` flag), which the argument
    /// above does not cover: always writes.
    fn force(&self) {
        self.pending.swap(true, Ordering::SeqCst);
        self.write_byte();
    }

    fn write_byte(&self) {
        let byte = [1u8];
        // A full pipe already guarantees a pending wakeup.
        unsafe {
            let _ = sys::write(self.write_fd, byte.as_ptr(), 1);
        }
    }

    /// Worker side, once per iteration.
    #[cfg(test)]
    fn pass_gate(&self) {
        self.gated.fetch_add(1, Ordering::SeqCst);
        drop(locked(&self.gate));
    }

    /// Parks the worker until the guard drops. On return the worker has
    /// finished whatever iteration it was in and sits at the gate.
    #[cfg(test)]
    pub(crate) fn park_worker(&self) -> std::sync::MutexGuard<'_, ()> {
        let guard = locked(&self.gate);
        let arrivals = self.gated.load(Ordering::SeqCst);
        self.force();
        while self.gated.load(Ordering::SeqCst) == arrivals {
            std::thread::yield_now();
        }
        guard
    }

    /// Worker side, on pipe readiness and before draining the queue. One
    /// read suffices: elision keeps at most a byte or two in the pipe,
    /// and level-triggered readiness re-announces anything left.
    fn consume(&self) {
        let mut sink = [0u8; 64];
        unsafe {
            let _ = sys::read(self.read_fd, sink.as_mut_ptr(), sink.len());
        }
        self.pending.swap(false, Ordering::SeqCst);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            let _ = sys::close(self.read_fd);
            let _ = sys::close(self.write_fd);
        }
    }
}

const WAKER_TOKEN: u64 = 0;

/// Starts a nonblocking TCP connect. For IPv4 this goes through raw
/// `socket(2)`/`connect(2)` so the three-way handshake overlaps with
/// everything else the worker does; completion (or refusal) arrives as
/// a readiness event on the returned socket.
fn connect_nonblocking(addr: SocketAddr) -> std::io::Result<TcpStream> {
    match addr {
        SocketAddr::V4(v4) => {
            let fd = unsafe { sys::socket(sys::AF_INET, sys::SOCK_STREAM, 0) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            // Wrap immediately so the fd is closed on any early return.
            let stream = unsafe { TcpStream::from_raw_fd(fd) };
            stream.set_nonblocking(true)?;
            #[repr(C)]
            struct SockaddrIn {
                family: u16,
                port: u16,
                addr: u32,
                zero: [u8; 8],
            }
            let sin = SockaddrIn {
                family: sys::AF_INET as u16,
                port: v4.port().to_be(),
                addr: u32::from(*v4.ip()).to_be(),
                zero: [0; 8],
            };
            let rc = unsafe {
                sys::connect(
                    fd,
                    &sin as *const SockaddrIn as *const u8,
                    std::mem::size_of::<SockaddrIn>() as u32,
                )
            };
            if rc == 0 {
                return Ok(stream);
            }
            let err = std::io::Error::last_os_error();
            if err.raw_os_error() == Some(sys::EINPROGRESS) {
                Ok(stream)
            } else {
                Err(err)
            }
        }
        // V6 is not used by the localhost mesh; a brief blocking connect
        // keeps the code path honest without more sockaddr plumbing.
        SocketAddr::V6(_) => {
            let stream = TcpStream::connect(addr)?;
            stream.set_nonblocking(true)?;
            Ok(stream)
        }
    }
}

// ---------------------------------------------------------------------
// Per-node slot state.
// ---------------------------------------------------------------------

/// The protocol half of a node: everything `apply_event` + dispatch
/// need, behind the one lock its [`NodeHandle`] and its worker slot
/// share (see the module header for the lock rules).
struct NodeCore<P: ConcurrencyProtocol> {
    protocol: P,
    runtime: HostRuntime<P::Message>,
    fx: EffectSink<P::Message>,
    observer: Option<Box<dyn Observer + Send>>,
    /// Observer timestamps: microseconds since this node started.
    epoch: Instant,
    /// Set by `Kill`/`Stop`: the slot is gone, nobody will dispatch what
    /// a caller leaves in the sink, so callers are refused.
    closed: bool,
    /// A caller posted a [`LoopEvent::Flush`] the worker has not served
    /// yet. Later callers that find their leftovers in the same sink
    /// need not post another: the step that serves the notice drains the
    /// sink whole.
    flush_posted: bool,
}

impl<P: ConcurrencyProtocol> NodeCore<P> {
    /// Hands the events recorded in the sink to the observer. Called by
    /// whoever just applied something, before the lock drops, so the
    /// node's event stream stays in protocol order.
    fn flush_events(&mut self) {
        if let Some(obs) = self.observer.as_deref_mut() {
            let now = self.epoch.elapsed().as_micros() as u64;
            for event in self.fx.take_events() {
                obs.on_event(now, &event);
            }
        }
    }

    /// Marks the node dead and lets go of its observer (the handle keeps
    /// the core alive, so the observer would otherwise outlive
    /// [`crate::Cluster::shutdown`]).
    fn close(&mut self) -> Option<Box<dyn Observer + Send>> {
        self.closed = true;
        self.observer.take()
    }
}

type SharedCore<P> = Arc<Mutex<NodeCore<P>>>;

/// The transport half of a slot.
struct NodeIo<M> {
    me: NodeId,
    /// Loopback sender onto the worker's command queue: transport-raised
    /// events (`LinkUp`, `Suspect`) are queued like any other command so
    /// they flow through `apply_event` like an API call. No wake-up
    /// needed: the worker raises them itself and drains the queue before
    /// it parks.
    self_tx: Sender<Command<M>>,
    /// Whether events were applied since the last dispatch step (the
    /// slot is then listed in [`Worker::dirty`]).
    dirty: bool,
    grants: Arc<GrantTable>,
    counters: Arc<Counters>,
    addrs: Arc<Vec<SocketAddr>>,
    listener: TcpListener,
    listener_token: u64,
    inbound: HashMap<u64, InConn>,
    links: HashMap<NodeId, Link>,
    /// Reusable encode buffer: one frame per (step, destination).
    out: Vec<u8>,
    /// Backpressure drops recorded during a dispatch: `(peer, bytes)`.
    backpressured: Vec<(NodeId, u64)>,
    /// The cluster's flight handle: this node's HLC is the source of
    /// wire stamps (sends tick it, received stamps merge into it), and
    /// a kill dumps this node's window. Event capture itself rides the
    /// observer chain.
    flight: Option<SharedAuditor>,
    /// Mirror of `NodeCore::epoch` so the send path (which runs outside
    /// the core lock) can stamp with the same timeline.
    epoch: Instant,
    /// Link teardowns recorded outside a dispatch: `(peer, reason)`.
    /// Drained into the observer as [`ProtocolEvent::LinkDown`].
    link_events: Vec<(Option<NodeId>, LinkDownReason)>,
}

struct InConn {
    stream: TcpStream,
    dec: frame::Decoder,
    peer: Option<NodeId>,
}

/// One outgoing (write-only) link to a peer.
struct Link {
    state: LinkState,
    outbox: Outbox,
    backoff: DialBackoff,
    /// Whether the next establishment is a REconnect (emits `LinkUp`,
    /// so a session layer resends what the outage lost) rather than the
    /// first lazy dial.
    redial: bool,
}

enum LinkState {
    /// Dial in flight; readiness (writable or failed) decides.
    Connecting { stream: TcpStream, token: u64 },
    /// Connected; frames flush from the outbox on writability.
    Established { stream: TcpStream, token: u64 },
    /// Between a failure and the next backoff-scheduled dial attempt.
    /// Frames sent now are dropped — the lossy-link regime the session
    /// layer recovers from.
    Waiting,
}

impl Link {
    fn new() -> Link {
        Link {
            state: LinkState::Waiting,
            outbox: Outbox::new(DEFAULT_OUTBOX_BYTES),
            backoff: DialBackoff::new(),
            redial: false,
        }
    }
}

struct NodeState<P: ConcurrencyProtocol> {
    core: SharedCore<P>,
    io: NodeIo<P::Message>,
}

/// One entry of a worker's command queue: the addressed slot + its event.
type Command<M> = (usize, LoopEvent<M>);

/// What a registered token points at.
enum Tok {
    Listener(usize),
    Inbound(usize),
    Outbound(usize, NodeId),
}

/// Deadline-wheel payloads.
enum Dl {
    /// A protocol timer (retransmission deadline).
    Timer { slot: usize, token: u64 },
    /// The next dial attempt for a failed link.
    Redial { slot: usize, peer: NodeId },
}

// ---------------------------------------------------------------------
// A dispatch step in two halves: collect under the core lock, perform
// the I/O after it.
// ---------------------------------------------------------------------

/// The part of a dispatch step that waits for the core lock to drop.
enum Deferred<M> {
    Batch { to: NodeId, messages: Vec<M> },
    SetTimer { token: u64, delay_micros: u64 },
}

/// The [`BatchHost`] of the locked half of [`Worker::step`]: grants go
/// into the [`GrantTable`] right away (see [`GrantTable::insert`] for
/// why that half of a delivery belongs under the core lock); batches and
/// timers are recorded, in order, for [`MuxHost`] to perform once the
/// lock is dropped.
struct Collect<'a, M> {
    effects: &'a mut Vec<Deferred<M>>,
    grants: &'a GrantTable,
    /// Whether a grant was entered while someone waited for one.
    notify: bool,
}

impl<M> BatchHost<M> for Collect<'_, M> {
    fn on_batch(&mut self, to: NodeId, messages: Vec<M>) {
        self.effects.push(Deferred::Batch { to, messages });
    }

    fn on_granted(&mut self, lock: LockId, ticket: Ticket, mode: Mode) {
        self.notify |= self.grants.insert(ticket, lock, mode);
    }

    fn on_set_timer(&mut self, token: u64, delay_micros: u64) {
        self.effects.push(Deferred::SetTimer { token, delay_micros });
    }
}

/// The unlocked half: writes frames, arms timers.
struct MuxHost<'a, M> {
    slot: usize,
    io: &'a mut NodeIo<M>,
    poller: &'a mut Poller,
    tokens: &'a mut HashMap<u64, Tok>,
    next_token: &'a mut u64,
    deadlines: &'a mut BinaryHeap<Reverse<(Instant, u64)>>,
    payloads: &'a mut HashMap<u64, Dl>,
    seq: &'a mut u64,
}

impl<M> MuxHost<'_, M> {
    fn schedule(&mut self, at: Instant, payload: Dl) {
        *self.seq += 1;
        self.payloads.insert(*self.seq, payload);
        self.deadlines.push(Reverse((at, *self.seq)));
    }
}

impl<M> MuxHost<'_, M>
where
    M: WireCodec + Classify + Send + 'static,
{
    fn perform(&mut self, effect: Deferred<M>) {
        match effect {
            Deferred::Batch { to, messages } => self.send_batch(to, messages),
            Deferred::SetTimer { token, delay_micros } => {
                let at = Instant::now() + Duration::from_micros(delay_micros);
                let slot = self.slot;
                self.schedule(at, Dl::Timer { slot, token });
            }
        }
    }

    fn send_batch(&mut self, to: NodeId, messages: Vec<M>) {
        for message in &messages {
            self.io.counters.bump(message.kind());
        }
        self.io.out.clear();
        let stamp = match self.io.flight.as_ref() {
            Some(flight) => {
                flight.stamp_send(self.io.me, self.io.epoch.elapsed().as_micros() as u64)
            }
            None => 0,
        };
        frame::write_batch_stamped(&mut self.io.out, self.io.me, stamp, &messages);
        self.io.counters.add_bytes(self.io.out.len() as u64);

        let slot = self.slot;
        let link = self.io.links.entry(to).or_insert_with(Link::new);
        let frame_len = self.io.out.len() as u64;
        match &mut link.state {
            LinkState::Waiting if link.redial => {
                // A failed link waiting out its backoff: frames are shed
                // rather than queued behind a dial that may never succeed.
            }
            LinkState::Waiting => {
                // First use: dial lazily. The handshake goes first and
                // is never shed; the triggering frame rides behind it.
                match connect_nonblocking(self.io.addrs[to.index()]) {
                    Ok(stream) => {
                        let mut hello = Vec::new();
                        encode_hello(&mut hello, self.io.me);
                        link.outbox.push_unbounded(&hello);
                        if link.outbox.push(&self.io.out) == Push::Dropped {
                            self.io.counters.bump_backpressure();
                            self.io.backpressured.push((to, frame_len));
                        }
                        // Inline token/deadline bookkeeping below: a
                        // `&mut self` method call here would conflict
                        // with the live borrow of the link entry.
                        *self.next_token += 1;
                        let token = *self.next_token;
                        self.tokens.insert(token, Tok::Outbound(slot, to));
                        self.poller.add(stream.as_raw_fd(), token, false, true);
                        link.state = LinkState::Connecting { stream, token };
                    }
                    Err(_) => {
                        // Immediate refusal: count it and back off like
                        // any other failed attempt.
                        self.io.link_events.push((Some(to), LinkDownReason::DialFailed));
                        link.redial = true;
                        if link.backoff.failure() {
                            let _ = self
                                .io
                                .self_tx
                                .send((slot, LoopEvent::Suspect { dead: vec![to], done: None }));
                        }
                        let at = Instant::now() + link.backoff.delay();
                        *self.seq += 1;
                        self.payloads.insert(*self.seq, Dl::Redial { slot, peer: to });
                        self.deadlines.push(Reverse((at, *self.seq)));
                    }
                }
            }
            LinkState::Connecting { .. } => {
                if link.outbox.push(&self.io.out) == Push::Dropped {
                    self.io.counters.bump_backpressure();
                    self.io.backpressured.push((to, frame_len));
                }
            }
            LinkState::Established { stream, token } => {
                if link.outbox.push(&self.io.out) == Push::Dropped {
                    self.io.counters.bump_backpressure();
                    self.io.backpressured.push((to, frame_len));
                    return;
                }
                // Fast path: most frames drain inline without ever
                // arming EPOLLOUT.
                match link.outbox.write_to(stream) {
                    Ok(true) => {}
                    Ok(false) => {
                        let (fd, tok) = (stream.as_raw_fd(), *token);
                        self.poller.modify(fd, tok, false, true);
                    }
                    Err(_) => {
                        // Dead socket: tear down and schedule a redial.
                        self.io.link_events.push((Some(to), LinkDownReason::WriteFailed));
                        let (fd, tok) = (stream.as_raw_fd(), *token);
                        let _ = stream.shutdown(Shutdown::Both);
                        self.poller.remove(fd);
                        self.tokens.remove(&tok);
                        link.state = LinkState::Waiting;
                        link.outbox.clear();
                        link.backoff = DialBackoff::new();
                        link.redial = true;
                        let at = Instant::now() + link.backoff.delay();
                        *self.seq += 1;
                        self.payloads.insert(*self.seq, Dl::Redial { slot, peer: to });
                        self.deadlines.push(Reverse((at, *self.seq)));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The worker.
// ---------------------------------------------------------------------

struct Worker<P: ConcurrencyProtocol> {
    poller: Poller,
    waker: Arc<Waker>,
    /// Every API call and loopback event for any of this worker's nodes.
    cmds: Receiver<Command<P::Message>>,
    slots: Vec<Option<NodeState<P>>>,
    /// Slots with events applied but not yet dispatched.
    dirty: Vec<usize>,
    /// Scratch for inbound socket reads.
    read_buf: Vec<u8>,
    /// Scratch for one dispatch step: filled under the node's core lock,
    /// performed after it.
    effects: Vec<Deferred<P::Message>>,
    tokens: HashMap<u64, Tok>,
    next_token: u64,
    deadlines: BinaryHeap<Reverse<(Instant, u64)>>,
    payloads: HashMap<u64, Dl>,
    seq: u64,
    running: Arc<AtomicBool>,
}

impl<P> Worker<P>
where
    P: ConcurrencyProtocol + Inspect + Send + 'static,
    P::Message: WireCodec + Send + 'static,
{
    /// One iteration: wait for readiness, apply what arrived — inbound
    /// frames, due timers, then the command queue until it is empty —
    /// and run one dispatch step per node touched. Everything applied
    /// in between shares that step, and so does whatever API callers
    /// left in the node's sink by the time the step takes the core lock:
    /// a caller's back-to-back `release`, `request` leave as one
    /// coalesced frame when the worker gets there after both.
    /// The waker's flag is cleared before the queue is drained; see
    /// [`Waker`] for why that order loses no wake-up.
    fn run(mut self) {
        let mut ready: Vec<Readiness> = Vec::with_capacity(256);
        while self.running.load(Ordering::SeqCst) {
            let timeout = match self.deadlines.peek() {
                Some(&Reverse((at, _))) => {
                    at.saturating_duration_since(Instant::now()).min(Duration::from_millis(200))
                }
                None => Duration::from_millis(200),
            };
            self.poller.wait(&mut ready, timeout);
            #[cfg(test)]
            self.waker.pass_gate();
            if !self.running.load(Ordering::SeqCst) {
                break;
            }
            for &ev in &ready {
                if ev.token == WAKER_TOKEN {
                    self.waker.consume();
                } else {
                    self.handle_readiness(ev);
                }
            }
            self.fire_deadlines();
            self.drain_commands();
        }
        // What callers did before the shutdown still counts: the message
        // of a `release` right before `Cluster::shutdown` leaves (its
        // flush notice is queued ahead of the node's `Stop`, which steps
        // the node first anyway).
        self.drain_commands();
        // Slots (and their observers) drop here, before the thread is
        // joined — `Cluster::shutdown` leaves no live observer clones.
    }

    /// Runs `f` with slot `i` temporarily taken out of the table (so the
    /// closure can borrow the worker mutably alongside the node). If `f`
    /// returns `false` the slot stays removed — the node is gone.
    fn with_slot(&mut self, i: usize, f: impl FnOnce(&mut Self, &mut NodeState<P>) -> bool) {
        if let Some(mut node) = self.slots.get_mut(i).and_then(Option::take) {
            if f(self, &mut node) {
                self.slots[i] = Some(node);
            }
        }
    }

    fn handle_readiness(&mut self, ev: Readiness) {
        match self.tokens.get(&ev.token) {
            Some(&Tok::Listener(slot)) => self.with_slot(slot, |w, node| {
                w.accept_inbound(slot, node);
                true
            }),
            Some(&Tok::Inbound(slot)) => self.with_slot(slot, |w, node| {
                w.service_inbound(slot, node, ev);
                Self::flush_io_events(node);
                true
            }),
            Some(&Tok::Outbound(slot, peer)) => self.with_slot(slot, |w, node| {
                w.service_outbound(slot, node, peer, ev);
                Self::flush_io_events(node);
                true
            }),
            None => {} // stale token: registration already torn down
        }
    }

    fn accept_inbound(&mut self, slot: usize, node: &mut NodeState<P>) {
        loop {
            match node.io.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.next_token += 1;
                    let token = self.next_token;
                    self.tokens.insert(token, Tok::Inbound(slot));
                    self.poller.add(stream.as_raw_fd(), token, true, false);
                    node.io
                        .inbound
                        .insert(token, InConn { stream, dec: frame::Decoder::new(), peer: None });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Reads what one readiness event announced on an inbound connection
    /// and applies every complete frame through `apply_event` (the core
    /// lock is taken per frame, after the reads); the dispatch step is
    /// left to the end of the worker iteration.
    fn service_inbound(&mut self, slot: usize, node: &mut NodeState<P>, ev: Readiness) {
        use std::io::Read;
        let NodeState { core, io } = node;
        let Some(conn) = io.inbound.get_mut(&ev.token) else {
            return;
        };
        // A failed event with data still readable (EPOLLIN|EPOLLHUP —
        // peer closed after sending) must drain the tail frames first,
        // reading on to EOF; read() then reports the close. Only a pure
        // error event skips straight to teardown.
        let mut dead = ev.failed && !ev.readable;
        if dead {
            io.link_events.push((conn.peer, LinkDownReason::Hangup));
        }
        while !dead {
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    dead = true;
                    io.link_events.push((conn.peer, LinkDownReason::Eof));
                }
                Ok(n) => {
                    conn.dec.extend(&self.read_buf[..n]);
                    // Readiness is level-triggered: whatever a short read
                    // left in the socket is announced again, so asking
                    // twice only buys a `WouldBlock`. A hang-up is the
                    // exception — its tail has to be read to EOF now.
                    if n < self.read_buf.len() && !ev.failed {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    io.link_events.push((conn.peer, LinkDownReason::ReadFailed));
                }
            }
        }
        let mut applied = false;
        loop {
            if conn.peer.is_none() {
                match conn.dec.next_hello() {
                    Ok(Some(id)) => conn.peer = Some(id),
                    Ok(None) => break,
                    Err(_) => {
                        dead = true;
                        io.link_events.push((conn.peer, LinkDownReason::DecodeFailed));
                        break;
                    }
                }
            }
            match conn.dec.next::<P::Message>() {
                Ok(Some((from, messages))) => {
                    debug_assert_eq!(Some(from), conn.peer);
                    if let Some(flight) = io.flight.as_ref() {
                        // Merge the sender's wire stamp so this node's
                        // flight-recorder clock orders after the send.
                        let now = io.epoch.elapsed().as_micros() as u64;
                        flight.observe_remote(io.me, conn.dec.last_hlc(), now);
                    }
                    let mut core = locked(core);
                    let core = &mut *core;
                    let post = apply_event(
                        &mut core.protocol,
                        &mut core.runtime,
                        &mut core.fx,
                        &io.grants,
                        LoopEvent::Incoming(from, messages),
                    );
                    debug_assert!(matches!(post, PostEvent::Handled));
                    applied = true;
                }
                Ok(None) => break,
                Err(_) => {
                    dead = true;
                    io.link_events.push((conn.peer, LinkDownReason::DecodeFailed));
                    break;
                }
            }
        }
        if dead {
            self.poller.remove(conn.stream.as_raw_fd());
            self.tokens.remove(&ev.token);
            io.inbound.remove(&ev.token);
        }
        if applied {
            self.mark_dirty(slot, io);
        }
    }

    fn service_outbound(
        &mut self,
        slot: usize,
        node: &mut NodeState<P>,
        peer: NodeId,
        ev: Readiness,
    ) {
        let link = match node.io.links.get_mut(&peer) {
            Some(l) => l,
            None => return,
        };
        match &mut link.state {
            LinkState::Connecting { stream, token } => {
                let hard_error = ev.failed || !matches!(stream.take_error(), Ok(None));
                if hard_error {
                    node.io.link_events.push((Some(peer), LinkDownReason::DialFailed));
                    let fd = stream.as_raw_fd();
                    let tok = *token;
                    self.poller.remove(fd);
                    self.tokens.remove(&tok);
                    link.state = LinkState::Waiting;
                    link.outbox.clear();
                    link.redial = true;
                    let suspect = link.backoff.failure();
                    let at = Instant::now() + link.backoff.delay();
                    self.schedule(at, Dl::Redial { slot, peer });
                    if suspect {
                        let _ = node
                            .io
                            .self_tx
                            .send((slot, LoopEvent::Suspect { dead: vec![peer], done: None }));
                    }
                    return;
                }
                if !ev.writable {
                    return;
                }
                // Connected: flush the handshake (+ anything queued) and
                // settle interest.
                let _ = stream.set_nodelay(true);
                let was_redial = link.redial;
                link.redial = false;
                link.backoff = DialBackoff::new();
                let fd = stream.as_raw_fd();
                let tok = *token;
                match link.outbox.write_to(stream) {
                    Ok(drained) => {
                        // Moving out of Connecting: rebuild as Established.
                        let stream = match std::mem::replace(&mut link.state, LinkState::Waiting) {
                            LinkState::Connecting { stream, .. } => stream,
                            _ => unreachable!(),
                        };
                        link.state = LinkState::Established { stream, token: tok };
                        self.poller.modify(fd, tok, false, !drained);
                        if was_redial {
                            let _ = node.io.self_tx.send((slot, LoopEvent::LinkUp(peer)));
                        }
                    }
                    Err(_) => {
                        node.io.link_events.push((Some(peer), LinkDownReason::WriteFailed));
                        self.poller.remove(fd);
                        self.tokens.remove(&tok);
                        link.state = LinkState::Waiting;
                        link.outbox.clear();
                        link.redial = true;
                        let suspect = link.backoff.failure();
                        let at = Instant::now() + link.backoff.delay();
                        self.schedule(at, Dl::Redial { slot, peer });
                        if suspect {
                            let _ = node
                                .io
                                .self_tx
                                .send((slot, LoopEvent::Suspect { dead: vec![peer], done: None }));
                        }
                    }
                }
            }
            LinkState::Established { stream, token } => {
                #[allow(clippy::redundant_pattern_matching)]
                let flush_failed = ev.failed || matches!(link.outbox.write_to(stream), Err(_));
                if flush_failed {
                    node.io.link_events.push((Some(peer), LinkDownReason::WriteFailed));
                    let fd = stream.as_raw_fd();
                    let tok = *token;
                    let _ = stream.shutdown(Shutdown::Both);
                    self.poller.remove(fd);
                    self.tokens.remove(&tok);
                    link.state = LinkState::Waiting;
                    link.outbox.clear();
                    link.backoff = DialBackoff::new();
                    link.redial = true;
                    let at = Instant::now() + link.backoff.delay();
                    self.schedule(at, Dl::Redial { slot, peer });
                } else if link.outbox.is_empty() {
                    let (fd, tok) = (stream.as_raw_fd(), *token);
                    self.poller.modify(fd, tok, false, false);
                }
            }
            LinkState::Waiting => {}
        }
    }

    fn fire_deadlines(&mut self) {
        loop {
            #[allow(clippy::match_like_matches_macro)]
            let due = match self.deadlines.peek() {
                Some(&Reverse((at, _))) if at <= Instant::now() => true,
                _ => false,
            };
            if !due {
                return;
            }
            let Reverse((_, seq)) = self.deadlines.pop().expect("peeked");
            match self.payloads.remove(&seq) {
                Some(Dl::Timer { slot, token }) => self.with_slot(slot, |w, node| {
                    {
                        let mut core = locked(&node.core);
                        let core = &mut *core;
                        core.protocol.on_timer(token, &mut core.fx);
                    }
                    w.mark_dirty(slot, &mut node.io);
                    true
                }),
                Some(Dl::Redial { slot, peer }) => self.with_slot(slot, |w, node| {
                    w.redial(slot, node, peer);
                    true
                }),
                None => {}
            }
        }
    }

    /// The backoff-scheduled dial attempt for a failed link.
    fn redial(&mut self, slot: usize, node: &mut NodeState<P>, peer: NodeId) {
        let addr = node.io.addrs[peer.index()];
        let me = node.io.me;
        let link = match node.io.links.get_mut(&peer) {
            Some(l) => l,
            None => return,
        };
        if !matches!(link.state, LinkState::Waiting) {
            return; // a send already restarted the dial
        }
        match connect_nonblocking(addr) {
            Ok(stream) => {
                let mut hello = Vec::new();
                encode_hello(&mut hello, me);
                link.outbox.clear();
                link.outbox.push_unbounded(&hello);
                self.next_token += 1;
                let token = self.next_token;
                self.tokens.insert(token, Tok::Outbound(slot, peer));
                self.poller.add(stream.as_raw_fd(), token, false, true);
                link.state = LinkState::Connecting { stream, token };
            }
            Err(_) => {
                let suspect = link.backoff.failure();
                let at = Instant::now() + link.backoff.delay();
                self.schedule(at, Dl::Redial { slot, peer });
                if suspect {
                    let _ = node
                        .io
                        .self_tx
                        .send((slot, LoopEvent::Suspect { dead: vec![peer], done: None }));
                }
            }
        }
    }

    fn schedule(&mut self, at: Instant, payload: Dl) {
        self.seq += 1;
        self.payloads.insert(self.seq, payload);
        self.deadlines.push(Reverse((at, self.seq)));
    }

    /// Applies the queued commands and dispatches, until the queue is
    /// empty and no node is dirty (a dispatch can raise loopback events:
    /// `Suspect`, `LinkUp`).
    fn drain_commands(&mut self) {
        loop {
            while let Ok((slot, ev)) = self.cmds.try_recv() {
                self.with_slot(slot, |w, node| w.command(slot, node, ev));
            }
            if self.dirty.is_empty() {
                return;
            }
            while let Some(slot) = self.dirty.pop() {
                self.with_slot(slot, |w, node| {
                    // A bracketed command may have stepped it already.
                    if node.io.dirty {
                        w.step(slot, node);
                    }
                    true
                });
            }
        }
    }

    fn mark_dirty(&mut self, slot: usize, io: &mut NodeIo<P::Message>) {
        if !io.dirty {
            io.dirty = true;
            self.dirty.push(slot);
        }
    }

    /// Routes one command through the shared `apply_event` semantics and
    /// handles the transport-owned leftovers. Events that may share a
    /// dispatch step only mark the node dirty; the others are bracketed
    /// by their own steps (see [`LoopEvent::defers_dispatch`]) — the one
    /// before runs whether or not this worker marked the node dirty,
    /// because a caller may have left effects in the sink whose flush
    /// notice is still behind this command. Returns whether the slot
    /// survives.
    fn command(&mut self, slot: usize, node: &mut NodeState<P>, ev: LoopEvent<P::Message>) -> bool {
        if matches!(ev, LoopEvent::Flush) {
            self.mark_dirty(slot, &mut node.io);
            return true;
        }
        let defers = ev.defers_dispatch();
        if !defers {
            self.step(slot, node);
        }
        let mut guard = locked(&node.core);
        let core = &mut *guard;
        let io = &mut node.io;
        match apply_event(&mut core.protocol, &mut core.runtime, &mut core.fx, &io.grants, ev) {
            PostEvent::Handled => drop(guard),
            PostEvent::Sever { peer, done } => {
                drop(guard);
                if let Some(link) = io.links.get(&peer) {
                    if let LinkState::Established { stream, .. }
                    | LinkState::Connecting { stream, .. } = &link.state
                    {
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                }
                let _ = done.send(());
            }
            PostEvent::Kill { done } => {
                // Close the observability spans this node leaves behind:
                // every still-open request gets a terminal abort so span
                // balance holds across the crash, then the flight
                // recorder dumps — the artifact a postmortem starts from.
                // `closed` goes up in the same lock hold as the `Kill`
                // itself: no caller is granted anything after it.
                if let Some(mut obs) = core.close() {
                    let now = core.epoch.elapsed().as_micros() as u64;
                    let me = io.me;
                    for (lock, ticket) in core.protocol.open_requests() {
                        let span = SpanId::new(me, ticket);
                        obs.on_event(now, &ProtocolEvent::RequestAborted { node: me, lock, span });
                    }
                }
                drop(guard);
                if let Some(flight) = io.flight.as_ref() {
                    flight.dump_node(io.me);
                }
                for link in io.links.values() {
                    if let LinkState::Established { stream, .. }
                    | LinkState::Connecting { stream, .. } = &link.state
                    {
                        let _ = stream.shutdown(Shutdown::Both);
                    }
                }
                self.cleanup_node(node);
                let _ = done.send(());
                return false;
            }
            PostEvent::Stop => {
                drop(core.close());
                drop(guard);
                self.cleanup_node(node);
                return false;
            }
        }
        if defers {
            self.mark_dirty(slot, &mut node.io);
        } else {
            self.step(slot, node);
        }
        true
    }

    /// Deregisters every fd a dying node owns so its tokens go stale
    /// before the sockets close (fd numbers get recycled; tokens don't).
    fn cleanup_node(&mut self, node: &mut NodeState<P>) {
        self.poller.remove(node.io.listener.as_raw_fd());
        self.tokens.remove(&node.io.listener_token);
        for (token, conn) in node.io.inbound.drain() {
            self.poller.remove(conn.stream.as_raw_fd());
            self.tokens.remove(&token);
        }
        for link in node.io.links.values_mut() {
            if let LinkState::Established { stream, token }
            | LinkState::Connecting { stream, token } = &link.state
            {
                self.poller.remove(stream.as_raw_fd());
                self.tokens.remove(token);
            }
            link.state = LinkState::Waiting;
        }
    }

    /// One dispatch step covering every event applied to the node since
    /// the previous one, by this worker or by API callers. Under the
    /// core lock: the sink's events go to the observer (`MessageSent`
    /// included, so it still precedes the write), grants are entered in
    /// the table, sends are coalesced and counted into scratch. After it:
    /// waiters are notified, frames written, timers armed.
    fn step(&mut self, slot: usize, node: &mut NodeState<P>) {
        let NodeState { core, io } = node;
        io.dirty = false;
        let mut effects = std::mem::take(&mut self.effects);
        let mut collect = Collect { effects: &mut effects, grants: &io.grants, notify: false };
        {
            let mut core = locked(core);
            let core = &mut *core;
            core.flush_posted = false;
            match core.observer.as_deref_mut() {
                Some(obs) => {
                    let now = core.epoch.elapsed().as_micros() as u64;
                    core.runtime.dispatch_observed(&mut core.fx, &mut collect, io.me, obs, now);
                }
                None => core.runtime.dispatch(&mut core.fx, &mut collect),
            }
        }
        if collect.notify {
            io.grants.notify();
        }
        let mut host = MuxHost {
            slot,
            io,
            poller: &mut self.poller,
            tokens: &mut self.tokens,
            next_token: &mut self.next_token,
            deadlines: &mut self.deadlines,
            payloads: &mut self.payloads,
            seq: &mut self.seq,
        };
        for effect in effects.drain(..) {
            host.perform(effect);
        }
        self.effects = effects;
        Self::flush_io_events(node);
    }

    /// Surfaces what the transport half buffered outside the core lock —
    /// frames shed to backpressure, link teardowns — as
    /// [`ProtocolEvent::Backpressure`] and [`ProtocolEvent::LinkDown`].
    /// Called after every dispatch step and after pure-I/O paths (a
    /// teardown with no frame behind it never reaches a step). Both are
    /// rare, so the lock is only taken when there is something to say.
    fn flush_io_events(node: &mut NodeState<P>) {
        let NodeState { core, io } = node;
        if io.backpressured.is_empty() && io.link_events.is_empty() {
            return;
        }
        let mut core = locked(core);
        let now = core.epoch.elapsed().as_micros() as u64;
        let me = io.me;
        let Some(obs) = core.observer.as_deref_mut() else {
            io.backpressured.clear();
            io.link_events.clear();
            return;
        };
        for (peer, dropped) in io.backpressured.drain(..) {
            obs.on_event(now, &ProtocolEvent::Backpressure { node: me, peer, dropped });
        }
        for (peer, reason) in io.link_events.drain(..) {
            obs.on_event(now, &ProtocolEvent::LinkDown { node: me, peer, reason });
        }
    }
}

// ---------------------------------------------------------------------
// Public-ish surface: port, handle, spawn.
// ---------------------------------------------------------------------

/// The mux transport's per-node plumbing, held by [`NodeHandle`]: the
/// node's protocol half, plus the owning worker's command queue and
/// waker and the node's slot there.
pub(crate) struct MuxPort<P: ConcurrencyProtocol> {
    core: SharedCore<P>,
    cmds: Sender<Command<P::Message>>,
    slot: usize,
    waker: Arc<Waker>,
}

impl<P: ConcurrencyProtocol> MuxPort<P> {
    /// Hands `ev` to the worker: enqueue, then wake — in that order (see
    /// [`Waker`]). The queue outlives a killed node; the worker drops
    /// what is addressed to an empty slot, and with it the reply channel
    /// a blocked caller waits on. Fails only once the whole pool is gone.
    pub(crate) fn send(&self, ev: LoopEvent<P::Message>) -> Result<(), NetError> {
        self.cmds.send((self.slot, ev)).map_err(|_| NetError::Closed)?;
        self.waker.wake();
        Ok(())
    }

    /// Caller-runs: applies a hot-path event (`Request`, `Release`) on
    /// the calling thread. See [`MuxPort::run`].
    pub(crate) fn apply(
        &self,
        grants: &GrantTable,
        ev: LoopEvent<P::Message>,
    ) -> Result<(), NetError> {
        self.run(grants, |core| {
            let post = apply_event(&mut core.protocol, &mut core.runtime, &mut core.fx, grants, ev);
            debug_assert!(matches!(post, PostEvent::Handled), "not a caller-side event");
        })
    }

    /// Caller-runs `try_request`: whether the node could grant `ticket`
    /// locally, right now, without a message. A grant is in `grants` by
    /// the time this returns.
    pub(crate) fn try_request(
        &self,
        grants: &GrantTable,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
    ) -> Result<bool, NetError> {
        self.run(grants, |core| core.protocol.try_request(lock, mode, ticket, &mut core.fx))?
            .map_err(NetError::Protocol)
    }

    /// Runs one protocol step on the calling thread, under the core lock,
    /// and enters every grant the sink holds in `grants` (this step's and
    /// any the worker applied but has not dispatched — a grant is a local
    /// fact, it overtakes nothing a peer can see). Then, with the lock
    /// dropped, notifies waiters and, if sends or timers are left, posts
    /// the worker a one-way [`LoopEvent::Flush`]. A step that only grants
    /// never leaves this thread. Calls of one thread apply in program
    /// order: each has run to completion under the lock before it
    /// returns.
    ///
    /// # Errors
    ///
    /// `Closed` once the node was killed or stopped — checked under the
    /// lock, so a dead node grants nothing.
    fn run<R>(
        &self,
        grants: &GrantTable,
        step: impl FnOnce(&mut NodeCore<P>) -> R,
    ) -> Result<R, NetError> {
        let mut notify = false;
        let (out, flush) = {
            let mut core = locked(&self.core);
            let core = &mut *core;
            if core.closed {
                return Err(NetError::Closed);
            }
            let out = step(core);
            core.flush_events();
            core.runtime.dispatch_grants(&mut core.fx, |lock, ticket, mode| {
                notify |= grants.insert(ticket, lock, mode);
            });
            let flush = !core.fx.is_empty() && !core.flush_posted;
            core.flush_posted |= flush;
            (out, flush)
        };
        if notify {
            grants.notify();
        }
        if flush {
            self.send(LoopEvent::Flush)?;
        }
        Ok(out)
    }

    /// The node's runtime counters, as of now.
    pub(crate) fn runtime_counters(&self) -> RuntimeCounters {
        *locked(&self.core).runtime.counters()
    }

    #[cfg(test)]
    pub(crate) fn waker(&self) -> &Waker {
        &self.waker
    }
}

/// Owns the mux worker pool; joined by [`crate::Cluster::shutdown`].
pub(crate) struct MuxHandle {
    running: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    threads: Vec<JoinHandle<()>>,
}

impl MuxHandle {
    /// Stops the pool. `running` is not a queued command, so the wake-up
    /// is forced rather than elided; should even that byte go missing,
    /// the 200 ms cap on every poll bounds the wait.
    pub(crate) fn shutdown(mut self) {
        self.running.store(false, Ordering::SeqCst);
        for w in &self.wakers {
            w.force();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Worker-pool width: enough parallelism to keep localhost meshes busy
/// without spawning a thread per core for a 2-node test cluster.
fn pool_width(n: usize) -> usize {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    n.min(cores.saturating_sub(1).max(1)).min(8)
}

/// Spawns `n` nodes on the readiness mux: node `i` lives in slot
/// `i / width` of worker `i % width`.
#[allow(clippy::type_complexity)]
pub(crate) fn spawn_cluster<P>(
    n: usize,
    make: impl Fn(usize) -> P,
    observe: impl Fn(NodeId) -> Option<Box<dyn Observer + Send>>,
    flight: Option<SharedAuditor>,
) -> Result<(Vec<Arc<NodeHandle<P>>>, MuxHandle), NetError>
where
    P: ConcurrencyProtocol + Inspect + Send + 'static,
    P::Message: WireCodec + Send + 'static,
{
    assert!(n >= 1, "need at least one node");
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| {
            let l = TcpListener::bind(("127.0.0.1", 0))?;
            // Deepen the accept backlog past std's hardwired 128. Lazy
            // dialing means a cold broadcast storms a hub node with
            // hundreds of simultaneous connects; overflowed connections
            // complete the client-side handshake but are reset by the
            // kernel before the hub ever accepts them, silently eating
            // the first frames. A second listen(2) on the bound fd just
            // resizes the queue (clamped to net.core.somaxconn).
            unsafe { sys::listen(l.as_raw_fd(), 4096) };
            Ok(l)
        })
        .collect::<Result<_, std::io::Error>>()?;
    let addrs: Arc<Vec<SocketAddr>> =
        Arc::new(listeners.iter().map(TcpListener::local_addr).collect::<Result<Vec<_>, _>>()?);

    let width = pool_width(n);
    let running = Arc::new(AtomicBool::new(true));
    let mut workers = Vec::with_capacity(width);
    let mut wakers = Vec::with_capacity(width);
    let mut queues = Vec::with_capacity(width);
    for _ in 0..width {
        let mut poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.add(waker.read_fd, WAKER_TOKEN, true, false);
        wakers.push(waker.clone());
        let (tx, cmds) = channel::<Command<P::Message>>();
        queues.push(tx);
        workers.push(Worker::<P> {
            poller,
            waker,
            cmds,
            slots: Vec::new(),
            dirty: Vec::new(),
            read_buf: vec![0u8; 16 * 1024],
            effects: Vec::new(),
            tokens: HashMap::new(),
            next_token: WAKER_TOKEN,
            deadlines: BinaryHeap::new(),
            payloads: HashMap::new(),
            seq: 0,
            running: running.clone(),
        });
    }

    let mut handles = Vec::with_capacity(n);
    for (i, listener) in listeners.into_iter().enumerate() {
        let id = NodeId(i as u32);
        let protocol = make(i);
        assert_eq!(protocol.node_id(), id, "factory must honour node ids");
        let observer = observe(id);

        let w = i % width;
        let worker = &mut workers[w];
        let slot = worker.slots.len();

        listener.set_nonblocking(true)?;
        worker.next_token += 1;
        let listener_token = worker.next_token;
        worker.tokens.insert(listener_token, Tok::Listener(slot));
        worker.poller.add(listener.as_raw_fd(), listener_token, true, false);

        let grants = Arc::new(GrantTable::default());
        let counters = Arc::new(Counters::default());
        let mut fx = EffectSink::new();
        fx.set_observing(observer.is_some());
        let epoch = Instant::now();

        let core = Arc::new(Mutex::new(NodeCore {
            protocol,
            runtime: HostRuntime::new(),
            fx,
            observer,
            epoch,
            closed: false,
            flush_posted: false,
        }));
        worker.slots.push(Some(NodeState {
            core: core.clone(),
            io: NodeIo {
                me: id,
                self_tx: queues[w].clone(),
                dirty: false,
                grants: grants.clone(),
                counters: counters.clone(),
                addrs: addrs.clone(),
                listener,
                listener_token,
                inbound: HashMap::new(),
                links: HashMap::new(),
                out: Vec::new(),
                backpressured: Vec::new(),
                flight: flight.clone(),
                epoch,
                link_events: Vec::new(),
            },
        }));

        handles.push(Arc::new(NodeHandle {
            id,
            addr: addrs[i],
            grants,
            counters,
            next_ticket: AtomicU64::new(1),
            port: MuxPort { core, cmds: queues[w].clone(), slot, waker: wakers[w].clone() },
        }));
    }

    let threads =
        workers.into_iter().map(|worker| std::thread::spawn(move || worker.run())).collect();
    Ok((handles, MuxHandle { running, wakers, threads }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Producers post events the way [`MuxPort::send`] does — enqueue,
    /// then [`Waker::wake`] — and wait for each to be applied before
    /// posting the next, so the consumer's queue keeps running dry and it
    /// parks in [`Poller::wait`] over and over. The consumer follows
    /// [`Worker::run`]'s order (consume, then drain) but, unlike the
    /// worker, drains *only* when the pipe fires: the worker's 200 ms
    /// poll cap would turn a lost wake-up into a slow one, here it
    /// strands the event for good and the deadline catches it. Producers
    /// finish at different times, so the run ends with a single producer
    /// whose stranded event nobody else's wake-up could rescue.
    #[test]
    fn elided_wake_ups_never_strand_an_event() {
        const PRODUCERS: usize = 4;
        const DEADLINE: Duration = Duration::from_secs(20);
        let events = |producer: usize| 4_000 * (producer + 1);

        let waker = Arc::new(Waker::new().unwrap());
        let mut poller = Poller::new().unwrap();
        poller.add(waker.read_fd, WAKER_TOKEN, true, false);
        let (tx, rx) = channel::<usize>();
        let applied: Vec<AtomicUsize> = (0..PRODUCERS).map(|_| AtomicUsize::new(0)).collect();
        let stop = AtomicBool::new(false);
        let total: usize = (0..PRODUCERS).map(events).sum();

        std::thread::scope(|scope| {
            let (waker, applied, stop) = (&waker, &applied, &stop);
            let consumer = scope.spawn(move || {
                let mut ready = Vec::new();
                let mut seen = 0;
                while seen < total && !stop.load(Ordering::SeqCst) {
                    poller.wait(&mut ready, Duration::from_millis(200));
                    if ready.iter().any(|ev| ev.token == WAKER_TOKEN) {
                        waker.consume();
                        while let Ok(producer) = rx.try_recv() {
                            applied[producer].fetch_add(1, Ordering::SeqCst);
                            seen += 1;
                        }
                    }
                }
                seen
            });
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|producer| {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        for i in 0..events(producer) {
                            tx.send(producer).unwrap();
                            waker.wake();
                            let posted = Instant::now();
                            while applied[producer].load(Ordering::SeqCst) <= i {
                                if posted.elapsed() > DEADLINE {
                                    stop.store(true, Ordering::SeqCst);
                                    waker.force();
                                    return Err(i);
                                }
                                std::thread::yield_now();
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            for (producer, handle) in producers.into_iter().enumerate() {
                let outcome = handle.join().unwrap();
                assert_eq!(outcome, Ok(()), "producer {producer}: an event was never applied");
            }
            assert_eq!(consumer.join().unwrap(), total);
        });
    }
}
