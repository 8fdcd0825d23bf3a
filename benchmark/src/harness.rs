//! What every workload driver shares: the lock API seen from outside,
//! one hierarchical operation against it, the per-round record and the
//! end-to-end metrics derived from the rounds.

use crate::check::HolderTable;
use crate::metrics::Better::{Higher, Lower};
use crate::script::Op;
use crate::stats::{percentile, Report};
use crate::sys;
use crate::trace::{now_ns, Span, Spans, DRIVER_SPAN_CAP};
use hlock_core::{ConcurrencyProtocol, LockId, MessageKind, Mode, RuntimeCounters, Ticket};
use hlock_net::{NetError, NodeHandle, ShardedNodeHandle};
use hlock_wire::WireCodec;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Simulator rounds whose virtual-time figures count: the first five
/// are the exact function of the seed, however many more fit the window.
pub const ROUNDS: usize = 5;
/// Every blocking wait in the drivers gives up after this long; the op
/// then counts as failed (and as missing any latency limit).
pub const GRANT_DEADLINE: Duration = Duration::from_secs(5);
/// Samples a client's log holds before it has to grow.
const LOG_CAPACITY: usize = 1 << 20;
/// The table lock every plan starts with.
pub const TABLE: LockId = LockId(0);

/// The blocking client API of a TCP host, as a caller sees it.
pub trait LockApi: Sync {
    fn request(&self, lock: LockId, mode: Mode) -> Result<Ticket, NetError>;
    fn wait(&self, lock: LockId, ticket: Ticket, timeout: Duration) -> Result<Mode, NetError>;
    fn release(&self, lock: LockId, ticket: Ticket) -> Result<(), NetError>;
    fn cancel(&self, lock: LockId, ticket: Ticket) -> Result<(), NetError>;
}

impl<P> LockApi for NodeHandle<P>
where
    P: ConcurrencyProtocol + Send + 'static,
    P::Message: WireCodec + Send + 'static,
{
    fn request(&self, lock: LockId, mode: Mode) -> Result<Ticket, NetError> {
        NodeHandle::request(self, lock, mode)
    }
    fn wait(&self, _lock: LockId, ticket: Ticket, timeout: Duration) -> Result<Mode, NetError> {
        NodeHandle::wait(self, ticket, timeout)
    }
    fn release(&self, lock: LockId, ticket: Ticket) -> Result<(), NetError> {
        NodeHandle::release(self, lock, ticket)
    }
    fn cancel(&self, lock: LockId, ticket: Ticket) -> Result<(), NetError> {
        NodeHandle::cancel(self, lock, ticket)
    }
}

/// The sharded host is driven pipelined, so releases are fire-and-forget
/// (the discipline `perf_baseline` uses).
impl LockApi for ShardedNodeHandle {
    fn request(&self, lock: LockId, mode: Mode) -> Result<Ticket, NetError> {
        ShardedNodeHandle::request(self, lock, mode)
    }
    fn wait(&self, lock: LockId, ticket: Ticket, timeout: Duration) -> Result<Mode, NetError> {
        ShardedNodeHandle::wait(self, lock, ticket, timeout)
    }
    fn release(&self, lock: LockId, ticket: Ticket) -> Result<(), NetError> {
        ShardedNodeHandle::release_async(self, lock, ticket)
    }
    fn cancel(&self, lock: LockId, ticket: Ticket) -> Result<(), NetError> {
        ShardedNodeHandle::cancel(self, lock, ticket)
    }
}

/// The two steps of an operation's hierarchical plan.
pub fn plan(op: &Op) -> [(LockId, Mode); 2] {
    if op.write {
        [(TABLE, Mode::IntentWrite), (LockId(op.entry), Mode::Write)]
    } else {
        [(TABLE, Mode::IntentRead), (LockId(op.entry), Mode::Read)]
    }
}

/// One logical client: the API it calls, the shared holder table it
/// checks grants against, and (traced runs) its span buffer.
pub struct Client<'a, A: LockApi + ?Sized> {
    pub api: &'a A,
    pub holders: &'a HolderTable,
    pub spans: Option<Spans>,
    pub out: ClientLog,
    /// Whether completion stamps are kept (traced rounds, and failover,
    /// whose service gap is checked on every trial).
    pub keep_done: bool,
}

/// What a client measured.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub attempted: u64,
    pub failed: u64,
    /// First request → last grant, ns, one per completed op.
    pub latencies_ns: Vec<u64>,
    /// Completion stamps on the trace clock (see [`Client::keep_done`]).
    pub done_ns: Vec<u64>,
}

impl<'a, A: LockApi + ?Sized> Client<'a, A> {
    pub fn new(api: &'a A, holders: &'a HolderTable, lane: u32, traced: bool) -> Self {
        let spans = traced.then(|| Spans::capped(lane, DRIVER_SPAN_CAP));
        // Reserved up front (address space, not memory) so that peak RSS
        // follows the samples written, not a growing vector's copies.
        let out = ClientLog {
            latencies_ns: Vec::with_capacity(LOG_CAPACITY),
            done_ns: Vec::with_capacity(if traced { LOG_CAPACITY } else { 0 }),
            ..ClientLog::default()
        };
        Client { api, holders, spans, out, keep_done: traced }
    }

    /// Runs one API call, inside a span when this client is traced.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&A) -> R) -> R {
        match &mut self.spans {
            Some(spans) => spans.time(name, op, || f(self.api)),
            None => f(self.api),
        }
    }

    pub fn request(&mut self, op: u64, lock: LockId, mode: Mode) -> Result<Ticket, NetError> {
        self.span("net.api_request", op, |api| api.request(lock, mode))
    }

    /// Waits for a grant under the deadline and checks it against the
    /// other holders; a timeout cancels the request.
    pub fn await_grant(
        &mut self,
        op: u64,
        lock: LockId,
        mode: Mode,
        ticket: Ticket,
        timeout: Duration,
    ) -> Result<(), NetError> {
        match self.span("net.api_wait", op, |api| api.wait(lock, ticket, timeout)) {
            Ok(_) => {
                self.holders.granted(lock, mode);
                Ok(())
            }
            Err(e) => {
                let _ = self.api.cancel(lock, ticket);
                Err(e)
            }
        }
    }

    /// Books an operation that started (or was due) at `start_ns` and
    /// got its last grant at `end_ns`.
    pub fn completed(&mut self, start_ns: u64, end_ns: u64) {
        self.out.latencies_ns.push(end_ns.saturating_sub(start_ns));
        if self.keep_done {
            self.out.done_ns.push(end_ns);
        }
    }

    pub fn release(&mut self, op: u64, lock: LockId, mode: Mode, ticket: Ticket) {
        self.holders.released(lock, mode);
        if let Err(e) = self.span("net.api_release", op, |api| api.release(lock, ticket)) {
            panic!("release of a granted {lock} failed: {e}");
        }
    }

    /// One closed-loop operation, strictly table → entry (deadlock-free
    /// by lock order), zero hold, released leaf-first.
    pub fn closed_loop_op(&mut self, id: u64, op: &Op) {
        self.out.attempted += 1;
        let [(table, tm), (entry, em)] = plan(op);
        let start_ns = now_ns();
        let outcome = (|| {
            let tt = self.request(id, table, tm)?;
            self.await_grant(id, table, tm, tt, GRANT_DEADLINE)?;
            let te = self
                .request(id, entry, em)
                .and_then(|te| self.await_grant(id, entry, em, te, GRANT_DEADLINE).map(|()| te));
            match te {
                Ok(te) => Ok((tt, te)),
                Err(e) => {
                    self.release(id, table, tm, tt);
                    Err(e)
                }
            }
        })();
        match outcome {
            Ok((tt, te)) => {
                let end_ns = now_ns();
                self.completed(start_ns, end_ns);
                self.release(id, entry, em, te);
                self.release(id, table, tm, tt);
                if let Some(spans) = &mut self.spans {
                    spans.push("op", id, start_ns, now_ns());
                }
            }
            Err(e) => {
                eprintln!("op {id} failed: {e}");
                self.out.failed += 1;
            }
        }
    }
}

/// Latency order statistics of one round, in ns.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub p999_ns: f64,
}

/// Everything measured in one round (one cluster, one trial, or one
/// simulator run).
#[derive(Debug, Default)]
pub struct Round {
    /// Script generation + spawn + connect + warm-up.
    pub setup: Duration,
    /// Wall length of the measured window.
    pub elapsed: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    /// Latency of each completed op in ns (wall, or virtual on sim);
    /// dropped by rounds that only refine wall-clock medians.
    pub latencies_ns: Vec<u64>,
    /// Completion stamps in ns (trace clock, or virtual on sim).
    pub done_ns: Vec<u64>,
    /// Logical messages sent cluster-wide, in `MessageKind::ALL` order.
    pub msgs: [u64; 8],
    pub bytes: u64,
    pub cpu: Duration,
    /// Resident set when the window closed (hosts still up).
    pub rss_mb: f64,
    pub vol_ctx_switches: u64,
    pub counters: RuntimeCounters,
    /// Set by [`Round::compact`]: latency order statistics (`None` when
    /// nothing completed) and the longest gap between completions.
    pub summary: Option<Summary>,
    pub max_gap_ns: Option<u64>,
    /// Whether this round ran with observers and spans attached.
    pub traced: bool,
    /// Whether the round's virtual-time numbers count (sim: the first
    /// [`ROUNDS`] rounds are the exact function of the seed; later ones
    /// only refine the wall-clock medians).
    pub exact: bool,
    pub spans: Vec<Span>,
    /// Host-specific per-layer values of this round.
    pub host: Vec<(&'static str, f64)>,
}

impl Round {
    pub fn completed(&self) -> u64 {
        self.completed
    }

    pub fn absorb_client(&mut self, log: ClientLog, spans: Option<Spans>) {
        self.attempted += log.attempted;
        self.failed += log.failed;
        self.completed += log.latencies_ns.len() as u64;
        if self.latencies_ns.is_empty() {
            (self.latencies_ns, self.done_ns) = (log.latencies_ns, log.done_ns);
        } else {
            self.latencies_ns.extend(log.latencies_ns);
            self.done_ns.extend(log.done_ns);
        }
        if let Some(s) = spans {
            self.spans.extend(s.spans);
        }
    }

    /// Reduces the raw samples to the order statistics the metrics need
    /// and frees them, so a run's memory does not grow with its rounds.
    pub fn compact(&mut self) {
        let mut latencies = std::mem::take(&mut self.latencies_ns);
        latencies.sort_unstable();
        if !latencies.is_empty() {
            let at = |p| percentile(&latencies, p) as f64;
            self.summary = Some(Summary { p50_ns: at(0.50), p99_ns: at(0.99), p999_ns: at(0.999) });
        }
        let mut done = std::mem::take(&mut self.done_ns);
        done.sort_unstable();
        self.max_gap_ns = done.windows(2).map(|w| w[1] - w[0]).max();
    }

    pub fn host_value(&self, name: &str) -> Option<f64> {
        self.host.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The public counters of a cluster at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    msgs: [u64; 8],
    bytes: u64,
    counters: RuntimeCounters,
}

impl Snapshot {
    /// From a cluster's `message_stats()`, `bytes_sent()` and every
    /// node's `runtime_counters()`.
    pub fn of(
        stats: &HashMap<MessageKind, u64>,
        bytes: u64,
        nodes: impl Iterator<Item = RuntimeCounters>,
    ) -> Snapshot {
        let mut counters = RuntimeCounters::default();
        nodes.for_each(|c| counters.absorb(&c));
        let msgs = MessageKind::ALL.map(|k| stats.get(&k).copied().unwrap_or(0));
        Snapshot { msgs, bytes, counters }
    }
}

impl Round {
    /// Books what the cluster's counters moved by over the window.
    pub fn record_counters(&mut self, before: Snapshot, after: Snapshot) {
        self.msgs = std::array::from_fn(|i| after.msgs[i] - before.msgs[i]);
        self.bytes = after.bytes - before.bytes;
        let (a, b) = (after.counters, before.counters);
        self.counters = RuntimeCounters {
            steps: a.steps - b.steps,
            logical_messages: a.logical_messages - b.logical_messages,
            frames: a.frames - b.frames,
            grants: a.grants - b.grants,
            timers: a.timers - b.timers,
            max_batch: a.max_batch,
            fenced: a.fenced - b.fenced,
        };
    }
}

/// Process CPU and context switches consumed while `f` ran.
pub struct Meter {
    start: Instant,
    usage: sys::Usage,
}

impl Meter {
    pub fn start() -> Meter {
        Meter { usage: sys::usage(), start: Instant::now() }
    }

    /// Stores elapsed wall time, CPU, voluntary switches and the resident
    /// set at this instant into `round`.
    pub fn stop(self, round: &mut Round) {
        round.elapsed = self.start.elapsed();
        round.rss_mb = sys::rss_mb();
        let now = sys::usage();
        round.cpu = now.cpu.saturating_sub(self.usage.cpu);
        round.vol_ctx_switches = now.vol_ctx_switches - self.usage.vol_ctx_switches;
    }
}

fn per_round(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(|r| f(r)).collect()
}

/// The end-to-end metrics of a run, from its untraced rounds: the
/// fast-side quartile over rounds for everything timed (see
/// [`crate::stats::good_quartile`]), the median for counts and sizes.
/// Virtual-time figures use the exact rounds only; wall-clock figures
/// use all.
pub fn end_to_end(rounds: &[Round], report: &mut Report) {
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let exact: Vec<&Round> = plain.iter().copied().filter(|r| r.exact).collect();
    assert!(!exact.is_empty(), "a run needs at least one untraced round");
    let done = |r: &Round| r.completed().max(1) as f64;

    report.timed("setup_s", "s", Lower, &per_round(&plain, |r| r.setup.as_secs_f64()));
    report.timed(
        "ops_per_s",
        "1/s",
        Higher,
        &per_round(&plain, |r| done(r) / r.elapsed.as_secs_f64()),
    );
    let summaries: Vec<Summary> = exact.iter().filter_map(|r| r.summary).collect();
    let micros = |f: fn(&Summary) -> f64| summaries.iter().map(|s| f(s) / 1e3).collect::<Vec<_>>();
    report.timed("grant_p50_us", "us", Lower, &micros(|s| s.p50_ns));
    report.timed("grant_p99_us", "us", Lower, &micros(|s| s.p99_ns));
    report.rounds(
        "msgs_per_op",
        "count",
        &per_round(&exact, |r| r.msgs.iter().sum::<u64>() as f64 / done(r)),
    );
    report.timed(
        "cpu_us_per_op",
        "us",
        Lower,
        &per_round(&plain, |r| r.cpu.as_secs_f64() * 1e6 / done(r)),
    );
    report.rounds("rss_mb", "MB", &per_round(&plain, |r| r.rss_mb));
}

/// Host-side per-layer metrics every workload has, from the traced
/// rounds (counters and spans) and the traced-vs-untraced comparison.
pub fn host_layers(rounds: &[Round], report: &mut Report) {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    assert!(!traced.is_empty() && !plain.is_empty(), "a traced run interleaves both kinds");
    let done = |r: &Round| r.completed().max(1) as f64;
    let rate = |set: &[&Round]| {
        crate::stats::median(&per_round(set, |r| done(r) / r.elapsed.as_secs_f64()))
    };
    report.once("trace.overhead_frac", "frac", 1.0 - rate(&traced) / rate(&plain));
    report.once("proc.peak_rss_mb", "MB", sys::usage().peak_rss_mb);

    for (i, kind) in MessageKind::ALL.iter().enumerate() {
        let name = match kind {
            MessageKind::Request => "core.msgs_request_per_op",
            MessageKind::Grant => "core.msgs_grant_per_op",
            MessageKind::Token => "core.msgs_token_per_op",
            MessageKind::Release => "core.msgs_release_per_op",
            MessageKind::Freeze => "core.msgs_freeze_per_op",
            MessageKind::Update => "core.msgs_update_per_op",
            MessageKind::Ack => continue,
            MessageKind::Recovery => "core.msgs_recovery_per_op",
        };
        report.rounds(name, "count", &per_round(&traced, |r| r.msgs[i] as f64 / done(r)));
    }
    report.rounds(
        "core.grants_per_op",
        "count",
        &per_round(&traced, |r| r.counters.grants as f64 / done(r)),
    );
    report.rounds(
        "net.steps_per_op",
        "count",
        &per_round(&traced, |r| r.counters.steps as f64 / done(r)),
    );
    report.rounds(
        "net.frames_per_op",
        "count",
        &per_round(&traced, |r| r.counters.frames as f64 / done(r)),
    );
    report.rounds(
        "net.msgs_per_frame",
        "count",
        &per_round(&traced, |r| {
            r.counters.logical_messages as f64 / r.counters.frames.max(1) as f64
        }),
    );
    report.rounds("net.bytes_per_op", "B", &per_round(&traced, |r| r.bytes as f64 / done(r)));
    report.rounds(
        "net.vol_ctx_switches_per_op",
        "count",
        &per_round(&traced, |r| r.vol_ctx_switches as f64 / done(r)),
    );

    // Tail latency and the longest service gap, per round, over every
    // round of the run (traced or not, exact or not).
    let p999: Vec<f64> = rounds.iter().filter_map(|r| r.summary).map(|s| s.p999_ns / 1e3).collect();
    let stall_ms: Vec<f64> =
        rounds.iter().filter_map(|r| r.max_gap_ns).map(|g| g as f64 / 1e6).collect();
    report.rounds("grant_p999_us", "us", &p999);
    report.rounds("stall_max_ms", "ms", &stall_ms);

    // API hand-off spans (TCP hosts); the simulator has no caller-side
    // API, so its rounds carry no such spans and the values stay absent
    // until `main` fills them from the replay ledger.
    for (metric, span, p) in [
        ("net.api_request_ns_p50", "net.api_request", 0.5),
        ("net.api_wait_ns_p50", "net.api_wait", 0.5),
        ("net.api_wait_ns_p99", "net.api_wait", 0.99),
        ("net.api_release_ns_p50", "net.api_release", 0.5),
    ] {
        let mut d: Vec<u64> =
            traced.iter().flat_map(|r| &r.spans).filter(|s| s.name == span).map(Span::ns).collect();
        d.sort_unstable();
        if !d.is_empty() {
            report.once(metric, "ns", percentile(&d, p) as f64);
        }
    }
}
