//! Open-loop (arrival-rate) driver: the counterpart of the closed-loop
//! [`crate::PlanDriver`].
//!
//! A closed-loop driver only issues its next operation after the
//! previous one completes, so under overload it silently self-throttles:
//! offered load collapses to match capacity and the system never shows
//! its saturation behavior. The open-loop driver instead fires
//! operations at pre-scheduled *arrival times* regardless of how many
//! are still in flight — exactly like independent clients arriving at a
//! service. Offered load is then a property of the schedule, achieved
//! throughput a property of the system, and the gap between them (plus
//! the growth of sojourn time) is the saturation knee.
//!
//! Each operation is a multi-granularity [`LockPlan`]; all steps of a
//! plan are issued pipelined in one effect step (the same discipline as
//! [`crate::PlanDriver::pipelined`], with the same safety rule: any two
//! concurrent plans may conflict on at most one lock).

use hlock_core::{LockPlan, Reservoir, Ticket};
use hlock_sim::{Driver, Duration, SimApi, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// One scheduled operation of an open-loop script.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopOp {
    /// Virtual arrival time; the driver issues the plan's requests at
    /// this instant whether or not earlier operations have completed.
    pub at: SimTime,
    /// The locks to acquire (root-first; issued pipelined).
    pub plan: LockPlan,
    /// How long to hold the fully-acquired plan before releasing.
    pub hold: Duration,
}

/// Per-window arrival/completion counters (for offered-vs-achieved time
/// series; the window length is fixed at construction).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopWindow {
    /// Operations that arrived in this window.
    pub arrivals: u64,
    /// Operations that completed (all steps granted) in this window.
    pub completions: u64,
}

/// Counters and sojourn-time samples accumulated by an
/// [`OpenLoopDriver`] run. Obtained via the shared handle returned by
/// [`OpenLoopDriver::new`].
#[derive(Debug)]
pub struct OpenLoopStats {
    /// Operations whose arrival fired (load actually offered).
    pub offered: u64,
    /// Operations fully granted (load actually served).
    pub completed: u64,
    /// Virtual time of the last completion, if any.
    pub last_completion: Option<SimTime>,
    /// Arrival-to-fully-granted sojourn times, in microseconds. This is
    /// the open-loop latency: it includes all queueing behind earlier
    /// arrivals, so it is the number that explodes past the knee.
    pub sojourn_micros: Reservoir,
    /// Largest number of operations simultaneously in flight.
    pub max_in_flight: u64,
    in_flight: u64,
    /// Offered/achieved counters per window of `window` virtual time.
    pub windows: Vec<OpenLoopWindow>,
    window: Duration,
}

impl OpenLoopStats {
    fn new(window: Duration) -> Self {
        assert!(window.as_micros() > 0, "window must be positive");
        OpenLoopStats {
            offered: 0,
            completed: 0,
            last_completion: None,
            // Exact (non-sampled) percentiles for any realistic scenario
            // size: EXPERIMENTS.md prints p99.9 off this reservoir, and a
            // sampled estimate would wobble across otherwise-identical
            // runs once op counts pass the default 1024 capacity.
            sojourn_micros: Reservoir::with_capacity(1 << 17),
            max_in_flight: 0,
            in_flight: 0,
            windows: Vec::new(),
            window,
        }
    }

    fn window_at(&mut self, at: SimTime) -> &mut OpenLoopWindow {
        let idx = (at.as_micros() / self.window.as_micros()) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, OpenLoopWindow::default());
        }
        &mut self.windows[idx]
    }

    fn arrival(&mut self, at: SimTime) {
        self.offered += 1;
        self.in_flight += 1;
        self.max_in_flight = self.max_in_flight.max(self.in_flight);
        self.window_at(at).arrivals += 1;
    }

    fn completion(&mut self, arrived: SimTime, at: SimTime) {
        self.completed += 1;
        self.in_flight -= 1;
        self.last_completion = Some(at);
        self.sojourn_micros.record((at - arrived).as_micros());
        self.window_at(at).completions += 1;
    }

    /// Achieved throughput: completions per second of virtual time, over
    /// the span from time zero to the last completion. Under overload
    /// completions keep landing long after the arrival window closed, so
    /// this is *lower* than the offered rate — the saturation signal.
    pub fn achieved_ops_per_sec(&self) -> f64 {
        match self.last_completion {
            Some(end) if end.as_micros() > 0 => {
                self.completed as f64 * 1e6 / end.as_micros() as f64
            }
            _ => 0.0,
        }
    }

    /// Sojourn-time percentile in microseconds (`p` in `0.0..=1.0`).
    pub fn sojourn_percentile(&self, p: f64) -> u64 {
        self.sojourn_micros.percentile(p).unwrap_or(0)
    }
}

#[derive(Debug)]
struct NodeScript {
    ops: Vec<OpenLoopOp>,
    /// Ticket of op `i`'s first step; step `s` uses `base[i] + s`.
    ticket_base: Vec<u64>,
    /// Outstanding steps per op (0 = complete or not yet arrived).
    remaining: Vec<u32>,
    /// Arrival time actually observed per op (set when the timer fires).
    arrived: Vec<SimTime>,
    /// Maps an outstanding step ticket to its op index.
    pending: HashMap<Ticket, usize>,
}

/// Timer ids encode (op index, phase): even = arrival, odd = hold done.
const PHASE_ARRIVAL: u64 = 0;
const PHASE_HOLD_DONE: u64 = 1;

/// Executes per-node open-loop scripts (see the module docs).
///
/// ```
/// use hlock_core::{LockId, LockPlan, LockSpace, Mode, NodeId, ProtocolConfig};
/// use hlock_sim::{Duration, Sim, SimConfig, SimTime};
/// use hlock_workload::{OpenLoopDriver, OpenLoopOp};
///
/// let op = |ms: u64| OpenLoopOp {
///     at: SimTime::from_millis(ms),
///     plan: LockPlan::for_leaf(&[LockId(0)], LockId(1), Mode::Read),
///     hold: Duration::from_millis(1),
/// };
/// let (driver, stats) = OpenLoopDriver::new(
///     vec![vec![], vec![op(1), op(2), op(3)]],
///     Duration::from_millis(1_000),
/// );
/// let nodes = (0..2)
///     .map(|i| LockSpace::new(NodeId(i), 2, NodeId(0), ProtocolConfig::default()))
///     .collect();
/// let cfg = SimConfig { lock_count: 2, check_every: 1, ..Default::default() };
/// let report = Sim::new(nodes, driver, cfg).run().unwrap();
/// assert!(report.quiescent);
/// let stats = stats.borrow();
/// assert_eq!(stats.offered, 3);
/// assert_eq!(stats.completed, 3);
/// ```
#[derive(Debug)]
pub struct OpenLoopDriver {
    scripts: Vec<NodeScript>,
    stats: Rc<RefCell<OpenLoopStats>>,
}

impl OpenLoopDriver {
    /// Builds the driver from one script per node (node-id order; ops
    /// must be sorted by arrival time) plus the stats window length.
    /// Returns the driver and a shared handle to its statistics, for
    /// inspection after [`hlock_sim::Sim::run`] consumes the driver.
    ///
    /// # Panics
    ///
    /// Panics if a script's arrival times are not sorted, or if a plan
    /// contains an [`hlock_core::Mode::Upgrade`] step (two-phase upgrade
    /// holds are a closed-loop pattern; model them as `Write` here).
    pub fn new(
        scripts: Vec<Vec<OpenLoopOp>>,
        stats_window: Duration,
    ) -> (Self, Rc<RefCell<OpenLoopStats>>) {
        let stats = Rc::new(RefCell::new(OpenLoopStats::new(stats_window)));
        let scripts = scripts
            .into_iter()
            .map(|ops| {
                assert!(
                    ops.windows(2).all(|w| w[0].at <= w[1].at),
                    "open-loop ops must be sorted by arrival time"
                );
                let mut ticket_base = Vec::with_capacity(ops.len());
                let mut next = 1u64;
                for op in &ops {
                    assert!(
                        op.plan.steps().iter().all(|s| s.mode != hlock_core::Mode::Upgrade),
                        "open-loop plans must not contain Upgrade steps"
                    );
                    ticket_base.push(next);
                    next += op.plan.steps().len() as u64;
                }
                let remaining = vec![0u32; ops.len()];
                let arrived = vec![SimTime::ZERO; ops.len()];
                NodeScript { ops, ticket_base, remaining, arrived, pending: HashMap::new() }
            })
            .collect();
        (OpenLoopDriver { scripts, stats: Rc::clone(&stats) }, stats)
    }

    /// A fresh handle to the shared statistics.
    pub fn stats(&self) -> Rc<RefCell<OpenLoopStats>> {
        Rc::clone(&self.stats)
    }
}

impl Driver for OpenLoopDriver {
    fn start(&mut self, node: hlock_core::NodeId, api: &mut SimApi) {
        let s = &self.scripts[node.index()];
        if let Some(first) = s.ops.first() {
            api.set_timer(first.at - SimTime::ZERO, PHASE_ARRIVAL);
        }
    }

    fn on_granted(
        &mut self,
        node: hlock_core::NodeId,
        _lock: hlock_core::LockId,
        ticket: Ticket,
        _mode: hlock_core::Mode,
        api: &mut SimApi,
    ) {
        let s = &mut self.scripts[node.index()];
        let idx = s.pending.remove(&ticket).expect("grant for an unknown open-loop ticket");
        s.remaining[idx] -= 1;
        if s.remaining[idx] == 0 {
            let now = api.now();
            self.stats.borrow_mut().completion(s.arrived[idx], now);
            api.set_timer(s.ops[idx].hold, (idx as u64) * 2 + PHASE_HOLD_DONE);
        }
    }

    fn on_timer(&mut self, node: hlock_core::NodeId, timer: u64, api: &mut SimApi) {
        let s = &mut self.scripts[node.index()];
        let idx = (timer / 2) as usize;
        if timer % 2 == PHASE_ARRIVAL {
            // Arrival: issue every step of the plan now, then schedule
            // the next arrival — never waiting on grants (open loop).
            let now = api.now();
            let base = s.ticket_base[idx];
            let op = &s.ops[idx];
            s.remaining[idx] = op.plan.steps().len() as u32;
            s.arrived[idx] = now;
            for (i, step) in op.plan.steps().iter().enumerate() {
                let t = Ticket(base + i as u64);
                s.pending.insert(t, idx);
                api.request(step.lock, step.mode, t);
            }
            self.stats.borrow_mut().arrival(now);
            if let Some(next) = s.ops.get(idx + 1) {
                api.set_timer(next.at - now, ((idx + 1) as u64) * 2 + PHASE_ARRIVAL);
            }
        } else {
            // Hold expired: release leaf-first.
            let base = s.ticket_base[idx];
            let steps = s.ops[idx].plan.steps();
            for (i, step) in steps.iter().enumerate().rev() {
                api.release(step.lock, Ticket(base + i as u64));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlock_core::{LockId, LockSpace, Mode, NodeId, ProtocolConfig};
    use hlock_sim::{LatencyModel, Sim, SimConfig, SimReport};

    /// Exclusive writes on one leaf under a two-node cluster: service
    /// rate is bounded by hold time + token round trips, so arrival
    /// rates above it must queue.
    fn write_burst(
        nodes: usize,
        rate_per_node: f64,
        duration_ms: u64,
        seed: u64,
    ) -> (SimReport, Rc<RefCell<OpenLoopStats>>) {
        let scripts: Vec<Vec<OpenLoopOp>> = (0..nodes)
            .map(|n| {
                crate::poisson_schedule(
                    rate_per_node,
                    Duration::from_millis(duration_ms),
                    seed ^ (n as u64 + 1) << 16,
                )
                .into_iter()
                .map(|at| OpenLoopOp {
                    at,
                    plan: LockPlan::for_leaf(&[LockId(0)], LockId(1), Mode::Write),
                    hold: Duration::from_millis(2),
                })
                .collect()
            })
            .collect();
        let (driver, stats) = OpenLoopDriver::new(scripts, Duration::from_millis(1_000));
        let spaces = (0..nodes)
            .map(|i| LockSpace::new(NodeId(i as u32), 2, NodeId(0), ProtocolConfig::default()))
            .collect();
        let cfg = SimConfig {
            seed,
            latency: LatencyModel::Exponential { mean: Duration::from_millis(2) },
            lock_count: 2,
            check_every: 0,
            ..Default::default()
        };
        let report = Sim::new(spaces, driver, cfg).run().expect("safe");
        (report, stats)
    }

    #[test]
    fn completes_all_ops_below_capacity() {
        let (report, stats) = write_burst(2, 20.0, 2_000, 5);
        let stats = stats.borrow();
        assert!(report.quiescent);
        assert!(stats.offered > 0);
        assert_eq!(stats.offered, stats.completed);
        assert_eq!(stats.offered, stats.sojourn_micros.count());
        // Light load: ops mostly complete within a few round trips.
        assert!(stats.max_in_flight < 10, "max in flight {}", stats.max_in_flight);
    }

    #[test]
    fn overload_shows_knee_not_self_throttling() {
        // One exclusive lock serves ~1/(hold + transfer) ≈ low hundreds
        // of ops/s; offer far more. A closed-loop driver would slow its
        // own arrivals to match; the open-loop driver must not.
        let offered_rate = 600.0; // per node, 2 nodes => 1200/s cluster
        let (report, stats) = write_burst(2, offered_rate, 2_000, 9);
        let stats = stats.borrow();
        assert!(report.quiescent, "all arrivals must eventually be served");

        // (1) No self-throttling: every scheduled arrival fired, and the
        // offered count matches the schedule (independent of service).
        let expected: usize = (0..2)
            .map(|n| {
                crate::poisson_schedule(
                    offered_rate,
                    Duration::from_millis(2_000),
                    9 ^ (n + 1) << 16,
                )
                .len()
            })
            .sum();
        assert_eq!(stats.offered as usize, expected, "arrivals must follow the schedule");

        // (2) The knee: achieved throughput stays well below offered.
        let offered_per_sec = 2.0 * offered_rate;
        let achieved = stats.achieved_ops_per_sec();
        assert!(
            achieved < 0.7 * offered_per_sec,
            "offered {offered_per_sec:.0}/s but achieved {achieved:.0}/s — expected saturation"
        );

        // (3) Queueing delay grows far past the service time: the run
        // drains a backlog, so sojourn p99 must dwarf the 2 ms hold.
        assert!(
            stats.sojourn_percentile(0.99) > 50_000,
            "p99 sojourn {}us too small for an overloaded queue",
            stats.sojourn_percentile(0.99)
        );
        // And the backlog itself was visible.
        assert!(stats.max_in_flight > 100, "max in flight {}", stats.max_in_flight);
    }

    #[test]
    fn achieved_throughput_plateaus_as_offered_doubles() {
        let (_, at_2x) = write_burst(2, 400.0, 2_000, 21);
        let (_, at_4x) = write_burst(2, 800.0, 2_000, 21);
        let a2 = at_2x.borrow().achieved_ops_per_sec();
        let a4 = at_4x.borrow().achieved_ops_per_sec();
        // Doubling offered load past the knee must not double service.
        assert!(
            a4 < 1.5 * a2,
            "achieved throughput should plateau past the knee: {a2:.0}/s -> {a4:.0}/s"
        );
        // ... but queueing must get strictly worse.
        let p99_2 = at_2x.borrow().sojourn_percentile(0.99);
        let p99_4 = at_4x.borrow().sojourn_percentile(0.99);
        assert!(p99_4 > p99_2, "p99 sojourn must grow with overload: {p99_2} -> {p99_4}");
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let (ra, sa) = write_burst(3, 100.0, 1_000, 33);
        let (rb, sb) = write_burst(3, 100.0, 1_000, 33);
        assert_eq!(ra.end_time, rb.end_time);
        assert_eq!(ra.metrics.total_messages(), rb.metrics.total_messages());
        let (sa, sb) = (sa.borrow(), sb.borrow());
        assert_eq!(sa.offered, sb.offered);
        assert_eq!(sa.completed, sb.completed);
        assert_eq!(sa.sojourn_percentile(0.999), sb.sojourn_percentile(0.999));
        assert_eq!(sa.windows, sb.windows);
    }

    #[test]
    fn windows_track_offered_vs_achieved() {
        let (_, stats) = write_burst(2, 500.0, 1_000, 7);
        let stats = stats.borrow();
        // Arrivals stop after the 1 s window; under overload completions
        // keep landing in later windows.
        assert!(stats.windows.len() > 1, "backlog must drain past the arrival window");
        assert_eq!(stats.windows.iter().map(|w| w.arrivals).sum::<u64>(), stats.offered);
        assert_eq!(stats.windows.iter().map(|w| w.completions).sum::<u64>(), stats.completed);
        assert!(stats.windows[0].arrivals > 0);
        assert_eq!(stats.windows.last().unwrap().arrivals, 0, "no arrivals after the window");
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_script_panics() {
        let op = |ms| OpenLoopOp {
            at: SimTime::from_millis(ms),
            plan: LockPlan::single(LockId(0), Mode::Read),
            hold: Duration::ZERO,
        };
        let _ = OpenLoopDriver::new(vec![vec![op(5), op(1)]], Duration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "Upgrade")]
    fn upgrade_plans_are_rejected() {
        let op = OpenLoopOp {
            at: SimTime::ZERO,
            plan: LockPlan::single(LockId(0), Mode::Upgrade),
            hold: Duration::ZERO,
        };
        let _ = OpenLoopDriver::new(vec![vec![op]], Duration::from_millis(1));
    }
}
