//! # hlock-sim
//!
//! Deterministic discrete-event simulator for the locking protocols in
//! this workspace. It substitutes for the Linux cluster of the paper's
//! evaluation (see `DESIGN.md`): the paper's own experiments randomize
//! message latency in software (mean 150 ms), so a seeded simulation of
//! the same latency process reproduces the protocol-level metrics —
//! messages per request and request latency — that Figures 5–7 report.
//!
//! * [`World`] — every node's state and the frames in flight, with no
//!   clock: [`World::step`] applies one [`Step`]. The model checker
//!   (`hlock-check`) searches over the same world.
//! * [`Sim`] — the scheduler over a world: virtual time, per-link FIFO
//!   delivery with a sampled [`LatencyModel`], driver timers, metrics
//!   and optional global safety checking.
//! * [`Driver`] — the application model (issues requests, holds critical
//!   sections, releases); implemented by `hlock-workload` for the
//!   paper's airline-reservation experiment.
//! * [`SimReport::metrics`] — a [`hlock_core::Meter`], everything needed
//!   to regenerate Figures 5, 6 and 7, fed directly by the engine.
//!
//! ```
//! use hlock_core::{LockSpace, NodeId, ProtocolConfig};
//! use hlock_sim::{Driver, LatencyModel, Sim, SimApi, SimConfig};
//! # use hlock_core::{LockId, Mode, Ticket};
//!
//! // A driver where node 1 takes one read lock and releases it.
//! struct OneShot;
//! impl Driver for OneShot {
//!     fn start(&mut self, node: NodeId, api: &mut SimApi) {
//!         if node == NodeId(1) {
//!             api.request(LockId(0), Mode::Read, Ticket(1));
//!         }
//!     }
//!     fn on_granted(&mut self, _: NodeId, lock: LockId, t: Ticket, _: Mode, api: &mut SimApi) {
//!         api.release(lock, t);
//!     }
//!     fn on_timer(&mut self, _: NodeId, _: u64, _: &mut SimApi) {}
//! }
//!
//! let cfg = ProtocolConfig::default();
//! let nodes = (0..2).map(|i| LockSpace::new(NodeId(i), 1, NodeId(0), cfg)).collect();
//! let report = Sim::new(nodes, OneShot, SimConfig::default()).run().unwrap();
//! assert!(report.quiescent);
//! assert_eq!(report.metrics.total_grants(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod latency;
mod time;
mod world;

pub use engine::{
    Driver, InvariantViolation, NodeCrash, NodePause, Partition, Sim, SimApi, SimConfig, SimReport,
};
pub use latency::{sample_exponential, LatencyModel};
pub use time::{Duration, SimTime};
pub use world::{Action, Adversary, Flight, Out, Step, World};

// The simulator speaks the workspace-wide observability vocabulary;
// re-export it so `Sim::with_observer` users need only this crate.
pub use hlock_core::{Observer, ProtocolEvent};

#[cfg(test)]
mod tests {
    use super::*;
    use hlock_core::{LockId, LockSpace, MessageKind, Mode, NodeId, ProtocolConfig, Ticket};
    use hlock_naimi::NaimiSpace;

    /// Every node performs `ops` exclusive lock-hold-release cycles on a
    /// single lock, with think time and critical-section time.
    struct ExclusiveLoop {
        ops: u32,
        remaining: Vec<u32>,
        cs: Duration,
        idle: Duration,
    }

    impl ExclusiveLoop {
        fn new(nodes: usize, ops: u32) -> Self {
            ExclusiveLoop {
                ops,
                remaining: vec![ops; nodes],
                cs: Duration::from_millis(15),
                idle: Duration::from_millis(150),
            }
        }
        fn ticket(&self, node: NodeId, op: u32) -> Ticket {
            Ticket(u64::from(node.0) * 10_000 + u64::from(op))
        }
    }

    const TIMER_NEXT_OP: u64 = 1;
    const TIMER_RELEASE_BASE: u64 = 1_000;

    impl Driver for ExclusiveLoop {
        fn start(&mut self, _node: NodeId, api: &mut SimApi) {
            api.set_timer(self.idle, TIMER_NEXT_OP);
        }

        fn on_granted(
            &mut self,
            _node: NodeId,
            _lock: LockId,
            t: Ticket,
            _m: Mode,
            api: &mut SimApi,
        ) {
            api.set_timer(self.cs, TIMER_RELEASE_BASE + t.0);
        }

        fn on_timer(&mut self, node: NodeId, timer: u64, api: &mut SimApi) {
            if timer == TIMER_NEXT_OP {
                let left = self.remaining[node.index()];
                if left == 0 {
                    return;
                }
                self.remaining[node.index()] = left - 1;
                let op = self.ops - left;
                api.request(LockId(0), Mode::Write, self.ticket(node, op));
            } else {
                let ticket = Ticket(timer - TIMER_RELEASE_BASE);
                api.release(LockId(0), ticket);
                api.set_timer(self.idle, TIMER_NEXT_OP);
            }
        }
    }

    fn run_ours(nodes: usize, ops: u32, seed: u64) -> SimReport {
        let cfg = ProtocolConfig::default();
        let spaces =
            (0..nodes).map(|i| LockSpace::new(NodeId(i as u32), 1, NodeId(0), cfg)).collect();
        let sim_cfg = SimConfig { seed, check_every: 1, ..SimConfig::default() };
        Sim::new(spaces, ExclusiveLoop::new(nodes, ops), sim_cfg).run().expect("invariants hold")
    }

    fn run_naimi(nodes: usize, ops: u32, seed: u64) -> SimReport {
        let spaces = (0..nodes).map(|i| NaimiSpace::new(NodeId(i as u32), 1, NodeId(0))).collect();
        let sim_cfg = SimConfig { seed, check_every: 1, ..SimConfig::default() };
        Sim::new(spaces, ExclusiveLoop::new(nodes, ops), sim_cfg).run().expect("invariants hold")
    }

    #[test]
    fn ours_exclusive_loop_completes_and_is_safe() {
        let report = run_ours(6, 5, 42);
        assert!(report.quiescent);
        assert_eq!(report.metrics.total_grants(), 30);
        assert_eq!(report.metrics.total_requests(), 30);
    }

    #[test]
    fn naimi_exclusive_loop_completes_and_is_safe() {
        let report = run_naimi(6, 5, 42);
        assert!(report.quiescent);
        assert_eq!(report.metrics.total_grants(), 30);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_ours(5, 4, 7);
        let b = run_ours(5, 4, 7);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.events, b.events);
        let stats = |r: &SimReport| MessageKind::ALL.map(|k| r.metrics.messages_of_kind(k));
        assert_eq!(stats(&a), stats(&b), "per-kind message counts");
        assert_eq!(a.metrics.mean_latency(), b.metrics.mean_latency());
        let c = run_ours(5, 4, 8);
        assert!(
            c.end_time != a.end_time || c.metrics.total_messages() != a.metrics.total_messages(),
            "different seed should perturb the run"
        );
    }

    #[test]
    fn message_overhead_is_modest_for_exclusive_ours() {
        // For W-only workloads our protocol degenerates to token passing
        // like Naimi's; overhead per request should stay modest.
        let r = run_ours(10, 6, 3);
        let mpr = r.metrics.messages_per_request();
        assert!(mpr > 0.5 && mpr < 10.0, "messages/request = {mpr}");
    }

    #[test]
    fn naimi_latency_grows_with_contention() {
        let small = run_naimi(2, 6, 9);
        let large = run_naimi(12, 6, 9);
        assert!(
            large.metrics.mean_latency() > small.metrics.mean_latency(),
            "more nodes, more queueing: {} vs {}",
            large.metrics.mean_latency(),
            small.metrics.mean_latency()
        );
    }

    #[test]
    fn observer_sees_balanced_spans_and_transport_events() {
        use hlock_core::InvariantAuditor;
        use std::cell::RefCell;
        use std::rc::Rc;

        let events: Rc<RefCell<Vec<(u64, ProtocolEvent)>>> = Rc::default();
        let sink = Rc::clone(&events);
        let cfg = ProtocolConfig::default();
        let spaces = (0..4).map(|i| LockSpace::new(NodeId(i), 1, NodeId(0), cfg)).collect();
        let sim_cfg = SimConfig { seed: 5, check_every: 1, ..SimConfig::default() };
        let report = Sim::new(spaces, ExclusiveLoop::new(4, 3), sim_cfg)
            .with_observer(move |at: u64, e: &ProtocolEvent| {
                sink.borrow_mut().push((at, e.clone()));
            })
            .run()
            .expect("invariants hold");
        assert!(report.quiescent);

        let events = events.borrow();
        let count = |name: &str| events.iter().filter(|(_, e)| e.name() == name).count();
        // Every request opens a span, every grant closes one.
        assert_eq!(count("request_issued") as u64, report.metrics.total_requests());
        assert_eq!(count("granted") as u64, report.metrics.total_grants());
        // Transport activity is visible with both legs accounted:
        // everything sent was delivered (no fault injection configured).
        assert!(count("message_sent") > 0, "no message_sent events");
        assert_eq!(count("message_sent"), count("delivered"));
        assert_eq!(count("dropped"), 0);
        let findings = InvariantAuditor::audit_stream(events.iter().map(|(_, e)| e));
        assert!(findings.is_empty(), "spans balance: {findings:?}");
        // Timestamps are the virtual clock, which never runs backwards.
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn unobserved_run_matches_observed_run() {
        // Attaching an observer must not perturb the simulation itself.
        let plain = run_ours(5, 4, 21);
        let cfg = ProtocolConfig::default();
        let spaces = (0..5).map(|i| LockSpace::new(NodeId(i), 1, NodeId(0), cfg)).collect();
        let sim_cfg = SimConfig { seed: 21, check_every: 1, ..SimConfig::default() };
        let observed = Sim::new(spaces, ExclusiveLoop::new(5, 4), sim_cfg)
            .with_observer(|_: u64, _: &ProtocolEvent| {})
            .run()
            .expect("invariants hold");
        assert_eq!(plain.end_time, observed.end_time);
        assert_eq!(plain.metrics.total_messages(), observed.metrics.total_messages());
        assert_eq!(plain.metrics.total_grants(), observed.metrics.total_grants());
    }

    #[test]
    fn non_fifo_links_still_safe_for_naimi() {
        let spaces =
            (0..5).map(|i| NaimiSpace::new(NodeId(i as u32), 1, NodeId(0))).collect::<Vec<_>>();
        let sim_cfg =
            SimConfig { seed: 11, fifo_links: false, check_every: 1, ..SimConfig::default() };
        let report = Sim::new(spaces, ExclusiveLoop::new(5, 4), sim_cfg).run().unwrap();
        assert!(report.quiescent);
    }
}
