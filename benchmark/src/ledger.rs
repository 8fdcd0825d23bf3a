//! The replay ledger: a single-thread, zero-delay, FIFO loopback host
//! owned by the benchmark. It replays a workload's script through the
//! sans-I/O stacks with a span around every public call —
//! `ConcurrencyProtocol::{request,release}`, `HostRuntime::{deliver,
//! dispatch}`, `frame::write_batch`, `Decoder::next` — and counts heap
//! allocations inside them. Layers that wrap another are priced
//! differentially: the same script through `LockSpace`, `ShardedSpace`,
//! `SessionSpace<LockSpace>`, `RecoverySpace<LockSpace>`, and `LockSpace`
//! with observation on.

use crate::alloc;
use crate::harness::plan;
use crate::script::{Op, LOCKS};
use crate::stats::{percentile, Report};
use crate::trace::{now_ns, span_overhead_ns, Span, Spans};
use hlock_core::{
    BatchHost, ConcurrencyProtocol, EffectSink, HostRuntime, Inspect, InvariantAuditor, LockId,
    LockSpace, Mode, NodeId, Observer, ProtocolConfig, ProtocolEvent, RecoverySpace,
    RuntimeCounters, ShardSpec, ShardedSpace, Ticket,
};
use hlock_session::{SessionConfig, SessionSpace};
use hlock_wire::{frame, BytesMut, WireCodec};
use std::collections::VecDeque;

/// Operations replayed per variant (the head of the merged script).
pub const REPLAY_OPS: usize = 20_000;
/// Each variant is replayed this often; the median-cost replay counts.
const REPS: usize = 3;

/// Collects one dispatch's effects for the replay loop.
struct Outbox<M> {
    from: NodeId,
    net: VecDeque<(NodeId, NodeId, Vec<M>)>,
    grants: Vec<(NodeId, Ticket)>,
}

impl<M> BatchHost<M> for Outbox<M> {
    fn on_batch(&mut self, to: NodeId, messages: Vec<M>) {
        self.net.push_back((self.from, to, messages));
    }
    fn on_granted(&mut self, _lock: LockId, ticket: Ticket, _mode: Mode) {
        self.grants.push((self.from, ticket));
    }
    // Zero delay and no loss: retransmission and probe timers never
    // have anything to do, so the replay host never fires them.
    fn on_set_timer(&mut self, _token: u64, _delay_micros: u64) {}
}

/// Counts events and runs the online auditor, as traced hosts do.
#[derive(Default)]
struct Watching {
    events: u64,
    release_sent: u64,
    release_suppressed: u64,
    auditor: InvariantAuditor,
}

impl Observer for Watching {
    fn on_event(&mut self, at: u64, event: &ProtocolEvent) {
        self.events += 1;
        match event {
            ProtocolEvent::ReleaseSent { .. } => self.release_sent += 1,
            ProtocolEvent::ReleaseSuppressed { .. } => self.release_suppressed += 1,
            _ => {}
        }
        self.auditor.on_event(at, event);
    }
}

struct InFlight {
    id: u64,
    node: u32,
    steps: [(LockId, Mode); 2],
    granted: u8,
    start_ns: u64,
}

/// Totals of one replay.
#[derive(Default)]
pub struct Replay {
    pub ops: u64,
    pub spans: Vec<Span>,
    pub counters: RuntimeCounters,
    pub grants: u64,
    pub local_grants: u64,
    pub bytes: u64,
    pub step_allocs: u64,
    pub dispatch_allocs: u64,
    pub wire_allocs: u64,
    pub events: u64,
    pub release_sent: u64,
    pub release_suppressed: u64,
}

impl Replay {
    /// Nanoseconds inside spans called `name`, net of the instrument
    /// (not clipped: a layer that costs less than the clock resolves
    /// reads as noise around zero, not as an exact zero).
    fn ns(&self, name: &str, overhead: f64) -> f64 {
        let (ns, n) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ns, n), s| (ns + s.ns(), n + 1));
        ns as f64 - overhead * n as f64
    }

    fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// All compute the replay host timed: protocol steps, dispatch, codec.
    fn compute_ns(&self, overhead: f64) -> f64 {
        ["core.step", "core.dispatch", "wire.encode", "wire.decode"]
            .iter()
            .map(|n| self.ns(n, overhead))
            .sum()
    }
}

struct Host<P: ConcurrencyProtocol> {
    nodes: Vec<P>,
    runtimes: Vec<HostRuntime<P::Message>>,
    fx: EffectSink<P::Message>,
    out: Outbox<P::Message>,
    spans: Spans,
    watching: Option<Watching>,
    encode: BytesMut,
    decoder: frame::Decoder,
    replay: Replay,
    /// The API call whose effects are currently being pumped.
    cause: u64,
}

impl<P> Host<P>
where
    P: ConcurrencyProtocol + Inspect,
    P::Message: WireCodec + Clone,
{
    /// One protocol step at `node` plus the dispatch of its effects.
    /// Returns the step's result and how many grants it produced.
    fn step<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut P, &mut HostRuntime<P::Message>, &mut EffectSink<P::Message>) -> R,
    ) -> (R, usize) {
        let (i, cause) = (node.index(), self.cause);
        let allocs = alloc::count();
        let grants_before = self.out.grants.len();
        let (protocol, runtime, fx) = (&mut self.nodes[i], &mut self.runtimes[i], &mut self.fx);
        let result = self.spans.time("core.step", cause, || f(protocol, runtime, fx));
        let after_step = alloc::count();
        self.out.from = node;
        let (runtime, fx, out) = (&mut self.runtimes[i], &mut self.fx, &mut self.out);
        match &mut self.watching {
            Some(watching) => self.spans.time("core.dispatch", cause, || {
                runtime.dispatch_observed(fx, out, node, watching, 0)
            }),
            None => self.spans.time("core.dispatch", cause, || runtime.dispatch(fx, out)),
        }
        self.replay.step_allocs += after_step - allocs;
        self.replay.dispatch_allocs += alloc::count() - after_step;
        (result, self.out.grants.len() - grants_before)
    }

    /// Delivers queued batches, FIFO, until the cluster is quiet. Every
    /// batch crosses the wire codec on its way.
    fn pump(&mut self) {
        while let Some((from, to, messages)) = self.out.net.pop_front() {
            let allocs = alloc::count();
            let (encode, decoder, cause) = (&mut self.encode, &mut self.decoder, self.cause);
            self.spans.time("wire.encode", cause, || {
                encode.clear();
                frame::write_batch(encode, from, &messages);
            });
            self.replay.bytes += encode.len() as u64;
            let decoded = self.spans.time("wire.decode", cause, || {
                decoder.extend(encode);
                decoder.next::<P::Message>()
            });
            self.replay.wire_allocs += alloc::count() - allocs;
            let (sender, decoded) =
                decoded.expect("frame decodes").expect("a whole frame was buffered");
            assert_eq!((sender, decoded.len()), (from, messages.len()), "codec round trip");
            self.step(to, |p, rt, fx| rt.deliver(p, from, decoded, fx));
        }
    }
}

/// What to replay and how: the operations (tagged with their node), the
/// cluster size, how many operations stay in flight (the oldest fully
/// granted one is released first), and whether both steps of a plan are
/// issued in one protocol step, as the simulator and the pipelined
/// drivers do, or the entry only once the table is granted.
pub struct Script<'a> {
    pub ops: &'a [(u32, Op)],
    pub nodes: u32,
    pub window: usize,
    pub pipelined: bool,
}

/// Replays `script` through the stack `nodes`, observed or not.
fn replay<P>(
    script: &Script<'_>,
    nodes: Vec<P>,
    observing: bool,
) -> Result<(Replay, Vec<P>), String>
where
    P: ConcurrencyProtocol + Inspect,
    P::Message: WireCodec + Clone,
{
    let Script { ops, window, pipelined, .. } = *script;
    let mut fx = EffectSink::new();
    fx.set_observing(observing);
    let mut host = Host {
        runtimes: nodes.iter().map(|_| HostRuntime::new()).collect(),
        nodes,
        fx,
        out: Outbox { from: NodeId(0), net: VecDeque::new(), grants: Vec::new() },
        spans: Spans::new(0),
        watching: observing.then(Watching::default),
        encode: BytesMut::new(),
        decoder: frame::Decoder::new(),
        replay: Replay::default(),
        cause: 0,
    };
    host.spans.spans.reserve(ops.len() * 24);
    let mut in_flight: VecDeque<InFlight> = VecDeque::new();
    // Tickets encode (op, step), so a grant names its operation.
    let ticket = |id: u64, step: usize| Ticket(id * 2 + step as u64);

    alloc::set_enabled(true);
    let outcome = (|| {
        for (id, (node, op)) in ops.iter().enumerate() {
            let id = id as u64;
            host.cause = id;
            let steps = plan(op);
            let node_id = NodeId(*node);
            // As in the live drivers, a node never has two operations
            // outstanding on one entry: the earlier one is released first.
            while in_flight.iter().any(|f| f.node == *node && f.steps[1].0 == steps[1].0) {
                if !release_oldest_granted(&mut host, &mut in_flight, pipelined, &ticket)? {
                    return Err(format!(
                        "op {id}: the operation ahead on its entry never completes"
                    ));
                }
            }
            host.cause = id;
            in_flight.push_back(InFlight {
                id,
                node: *node,
                steps,
                granted: 0,
                start_ns: now_ns(),
            });
            let request_started = now_ns();
            let (requested, local) = if pipelined {
                host.step(node_id, |p, _, fx| {
                    steps
                        .iter()
                        .enumerate()
                        .try_for_each(|(s, &(lock, mode))| p.request(lock, mode, ticket(id, s), fx))
                })
            } else {
                let (lock, mode) = steps[0];
                host.step(node_id, |p, _, fx| p.request(lock, mode, ticket(id, 0), fx))
            };
            requested.map_err(|e| format!("request: {e}"))?;
            let requested = now_ns();
            host.spans.push("api.request", id, request_started, requested);
            host.replay.local_grants += local as u64;
            settle(&mut host, &mut in_flight, pipelined, &ticket, requested)?;

            while in_flight.len() > window {
                if !release_oldest_granted(&mut host, &mut in_flight, pipelined, &ticket)? {
                    break;
                }
            }
        }
        while !in_flight.is_empty() {
            if !release_oldest_granted(&mut host, &mut in_flight, pipelined, &ticket)? {
                return Err(format!("{} operation(s) never granted", in_flight.len()));
            }
        }
        Ok(())
    })();
    alloc::set_enabled(false);
    outcome?;

    if !host.nodes.iter().all(|n| n.is_quiescent()) {
        return Err("replay did not end quiescent".into());
    }
    let mut out = host.replay;
    out.ops = ops.len() as u64;
    out.spans = host.spans.spans;
    for rt in &host.runtimes {
        out.counters.absorb(rt.counters());
    }
    if let Some(w) = host.watching {
        if !w.auditor.is_clean() {
            return Err(format!("replay auditor findings: {:?}", w.auditor.findings()));
        }
        out.events = w.events;
        out.release_sent = w.release_sent;
        out.release_suppressed = w.release_suppressed;
    }
    Ok((out, host.nodes))
}

/// Pumps to quiescence and books every grant that arrived; in the
/// sequential discipline a table grant triggers the entry request.
fn settle<P>(
    host: &mut Host<P>,
    in_flight: &mut VecDeque<InFlight>,
    pipelined: bool,
    ticket: &impl Fn(u64, usize) -> Ticket,
    mut waiting_since: u64,
) -> Result<(), String>
where
    P: ConcurrencyProtocol + Inspect,
    P::Message: WireCodec + Clone,
{
    loop {
        host.pump();
        if host.out.grants.is_empty() {
            return Ok(());
        }
        let granted_at = now_ns();
        for (node, t) in std::mem::take(&mut host.out.grants) {
            host.replay.grants += 1;
            let (id, step) = (t.0 / 2, (t.0 % 2) as usize);
            let f = in_flight
                .iter_mut()
                .find(|f| f.id == id)
                .ok_or_else(|| format!("grant for unknown op {id}"))?;
            assert_eq!(f.node, node.0, "grant delivered at the requesting node");
            f.granted += 1;
            if id == host.cause {
                host.spans.push("api.wait", id, waiting_since, granted_at);
            }
            if f.granted == 2 {
                host.spans.push("op", id, f.start_ns, granted_at);
            } else if !pipelined && step == 0 {
                let (lock, mode) = f.steps[1];
                let started = now_ns();
                host.cause = id;
                let (requested, local) =
                    host.step(node, |p, _, fx| p.request(lock, mode, ticket(id, 1), fx));
                requested.map_err(|e| format!("request: {e}"))?;
                waiting_since = now_ns();
                host.spans.push("api.request", id, started, waiting_since);
                host.replay.local_grants += local as u64;
            }
        }
    }
}

/// Releases the oldest fully granted operation leaf-first; `false` if
/// none is fully granted.
fn release_oldest_granted<P>(
    host: &mut Host<P>,
    in_flight: &mut VecDeque<InFlight>,
    pipelined: bool,
    ticket: &impl Fn(u64, usize) -> Ticket,
) -> Result<bool, String>
where
    P: ConcurrencyProtocol + Inspect,
    P::Message: WireCodec + Clone,
{
    let Some(pos) = in_flight.iter().position(|f| f.granted == 2) else {
        return Ok(false);
    };
    let f = in_flight.remove(pos).expect("position is in range");
    host.cause = f.id;
    for (s, &(lock, _)) in f.steps.iter().enumerate().rev() {
        let started = now_ns();
        host.step(NodeId(f.node), |p, _, fx| p.release(lock, ticket(f.id, s), fx))
            .0
            .map_err(|e| format!("release: {e}"))?;
        let released = now_ns();
        host.spans.push("api.release", f.id, started, released);
        settle(host, in_flight, pipelined, ticket, released)?;
    }
    Ok(true)
}

/// The replay of one stack variant with the median compute cost, and
/// the stack's end state.
fn median_replay<P>(
    script: &Script<'_>,
    make: impl Fn(u32) -> P,
    observing: bool,
) -> Result<(Replay, Vec<P>), String>
where
    P: ConcurrencyProtocol + Inspect,
    P::Message: WireCodec + Clone,
{
    let mut runs = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        runs.push(replay(script, (0..script.nodes).map(&make).collect(), observing)?);
    }
    runs.sort_by(|a, b| a.0.compute_ns(0.0).total_cmp(&b.0.compute_ns(0.0)));
    Ok(runs.swap_remove(REPS / 2))
}

/// What the ledger hands back besides its metrics.
pub struct Ledger {
    /// Spans of the base (`LockSpace`) replay, for the trace file.
    pub spans: Vec<Span>,
    /// Compute on the blocking path of one op in the base replay (both
    /// request calls and the pumps up to their grants), median, ns.
    pub blocking_ns_p50: f64,
    /// Caller-side API figures of the replay host, for workloads whose
    /// live host has no caller-side API (the simulator).
    pub api: Vec<(&'static str, f64)>,
}

/// Runs every variant over `script` and records the ledger's metrics.
pub fn run(script: &Script<'_>, report: &mut Report) -> Result<Ledger, String> {
    let script = &Script { ops: &script.ops[..script.ops.len().min(REPLAY_OPS)], ..*script };
    let (ops, nodes) = (script.ops, script.nodes);
    let overhead = span_overhead_ns();
    let config = ProtocolConfig::default();
    let space = move |i: u32| LockSpace::new(NodeId(i), LOCKS, NodeId(0), config);
    let shards = ShardSpec::new(2);

    let (base, _) = median_replay(script, space, false)?;
    let (sharded, _) = median_replay(
        script,
        |i| ShardedSpace::new(NodeId(i), LOCKS, NodeId(0), config, shards),
        false,
    )?;
    let (session, session_end) =
        median_replay(script, |i| SessionSpace::new(space(i), SessionConfig::default()), false)?;
    let acks: u64 = session_end.iter().map(|n| n.stats().acks).sum();
    let retransmits: u64 = session_end.iter().map(|n| n.stats().retransmits).sum();
    let (recovery, _) = median_replay(
        script,
        |i| RecoverySpace::<LockSpace>::new(NodeId(i), LOCKS, NodeId(0), nodes, config),
        false,
    )?;
    let (observed, _) = median_replay(script, space, true)?;

    let n = base.ops as f64;
    let msgs = base.counters.logical_messages.max(1) as f64;
    report.once("ledger.msgs_per_op", "count", base.counters.logical_messages as f64 / n);
    report.once("core.step_ns_per_op", "ns", base.ns("core.step", overhead) / n);
    report.once("core.steps_per_op", "count", base.count("core.step") as f64 / n);
    report.once("core.step_allocs_per_op", "count", base.step_allocs as f64 / n);
    report.once(
        "core.local_grant_frac",
        "frac",
        base.local_grants as f64 / base.grants.max(1) as f64,
    );
    report.once(
        "core.release_suppressed_frac",
        "frac",
        observed.release_suppressed as f64
            / (observed.release_suppressed + observed.release_sent).max(1) as f64,
    );
    report.once("core.dispatch_ns_per_op", "ns", base.ns("core.dispatch", overhead) / n);
    report.once("core.dispatch_allocs_per_op", "count", base.dispatch_allocs as f64 / n);
    report.once("core.coalesce_ratio", "count", base.counters.coalesce_ratio());
    report.once("core.max_batch", "count", base.counters.max_batch as f64);
    let tax = |variant: &Replay| (variant.compute_ns(overhead) - base.compute_ns(overhead)) / n;
    report.once("shard.tax_ns_per_op", "ns", tax(&sharded));
    report.once("session.tax_ns_per_op", "ns", tax(&session));
    report.once("session.acks_per_op", "count", acks as f64 / n);
    report.once(
        "session.bytes_tax_per_msg",
        "B",
        (session.bytes as f64 - base.bytes as f64) / msgs,
    );
    report.once("session.retransmits", "count", retransmits as f64);
    report.once("recovery.tax_ns_per_op", "ns", tax(&recovery));
    report.once(
        "recovery.bytes_tax_per_msg",
        "B",
        (recovery.bytes as f64 - base.bytes as f64) / msgs,
    );
    report.once("observe.tax_ns_per_op", "ns", tax(&observed));
    report.once("observe.events_per_op", "count", observed.events as f64 / n);
    report.once("wire.encode_ns_per_msg", "ns", base.ns("wire.encode", overhead) / msgs);
    report.once("wire.decode_ns_per_msg", "ns", base.ns("wire.decode", overhead) / msgs);
    report.once("wire.allocs_per_msg", "count", base.wire_allocs as f64 / msgs);
    report.once("wire.bytes_per_msg", "B", base.bytes as f64 / msgs);
    report.once(
        "wire.bytes_per_frame",
        "B",
        base.bytes as f64 / base.counters.frames.max(1) as f64,
    );

    // Per-op compute on the blocking path: request calls plus waits.
    let mut per_op = vec![0u64; ops.len()];
    for s in base.spans.iter().filter(|s| matches!(s.name, "api.request" | "api.wait")) {
        per_op[s.op as usize] += s.ns();
    }
    per_op.sort_unstable();
    let mut as_spans = Spans::new(0);
    as_spans.spans = base.spans;
    let p = |name: &str, q: f64| {
        let d = as_spans.durations(name);
        if d.is_empty() {
            0.0
        } else {
            percentile(&d, q) as f64
        }
    };
    let api = vec![
        ("net.api_request_ns_p50", p("api.request", 0.5)),
        ("net.api_wait_ns_p50", p("api.wait", 0.5)),
        ("net.api_wait_ns_p99", p("api.wait", 0.99)),
        ("net.api_release_ns_p50", p("api.release", 0.5)),
    ];
    Ok(Ledger { blocking_ns_p50: percentile(&per_op, 0.5) as f64, api, spans: as_spans.spans })
}
