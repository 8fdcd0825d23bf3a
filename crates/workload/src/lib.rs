//! # hlock-workload
//!
//! The paper's evaluation workload: a **multi-airline reservation
//! system** whose fare table is shared by all nodes. The table is one
//! coarse-granularity lock; each of its `E` entries has its own lock.
//! Every node iterates: think (exponential idle, mean 150 ms), pick an
//! operation (the paper's 80/10/4/5/1 IR/R/U/IW/W mode mix), acquire the
//! locks the operation needs, hold them (exponential critical section,
//! mean 15 ms) and release.
//!
//! Three drivers execute the *identical* operation sequence on the three
//! systems compared in §4: the hierarchical protocol, "Naimi same work"
//! and "Naimi pure" — see [`HierarchicalDriver`], [`NaimiSameWorkDriver`]
//! and [`NaimiPureDriver`], or just call [`run_experiment`]:
//!
//! ```
//! use hlock_core::ProtocolConfig;
//! use hlock_sim::LatencyModel;
//! use hlock_workload::{run_experiment, ProtocolKind, WorkloadConfig};
//!
//! let wl = WorkloadConfig { entries: 4, ops_per_node: 3, ..Default::default() };
//! let report = run_experiment(
//!     ProtocolKind::Hierarchical(ProtocolConfig::default()),
//!     4,                       // nodes
//!     &wl,
//!     LatencyModel::paper(),   // exponential, mean 150 ms
//!     0,                       // invariant checking off
//!     None,                    // no observer
//! ).expect("run completes");
//! assert!(report.quiescent);
//! println!("messages/request = {:.2}", report.metrics.messages_per_request());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod drivers;
mod experiment;
mod mix;
mod open_loop;
mod ops;
mod plan_driver;
mod sampler;
mod scenario;

pub use drivers::{HierarchicalDriver, NaimiPureDriver, NaimiSameWorkDriver};
pub use experiment::{
    run_experiment, run_recovery_experiment, run_session_experiment, ProtocolKind,
    RecoveryExperimentReport, SessionExperimentReport,
};
pub use mix::{ModeMix, WorkloadConfig};
pub use open_loop::{OpenLoopDriver, OpenLoopOp, OpenLoopStats, OpenLoopWindow};
pub use ops::{plan_for_node, OpKind, OpPlan};
pub use plan_driver::PlanDriver;
pub use sampler::{poisson_schedule, Zipfian};
pub use scenario::{run_scenario, scenario_presets, Scenario, ScenarioProtocol, ScenarioReport};
