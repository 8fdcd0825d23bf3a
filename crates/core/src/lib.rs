//! # hlock-core
//!
//! A faithful implementation of the decentralized, token-based protocol
//! for **hierarchical (multi-granularity) distributed locking** from
//!
//! > Nirmit Desai and Frank Mueller. *Scalable Distributed Concurrency
//! > Services for Hierarchical Locking.* ICDCS 2003.
//!
//! The protocol provides the five CORBA Concurrency Service lock modes —
//! intention read (`IR`), read (`R`), upgrade (`U`), intention write
//! (`IW`) and write (`W`) — with an average message overhead that stays
//! *constant* (≈3 messages per request) as the system grows, by combining:
//!
//! * a dynamic logical tree whose root holds the lock *token*,
//! * *copysets* of children holding concurrently granted compatible modes,
//! * *local queues* that absorb requests along the path (Rule 4),
//! * *release suppression* — a parent is told only when its subtree's
//!   owned mode actually weakens (Rule 5), and
//! * *mode freezing* at the token node to preserve FIFO fairness (Rule 6).
//!
//! ## Architecture
//!
//! Everything is **sans-I/O**: [`LockNode`] (one lock) and [`LockSpace`]
//! (all locks of one node) consume API calls and messages and emit
//! [`Effect`]s — messages to send and grants to report. Hosts (the
//! `hlock-sim` discrete-event simulator, the `hlock-check` model checker,
//! the `hlock-net` TCP transport) execute those effects.
//!
//! ## Quick start
//!
//! ```
//! use hlock_core::{ConcurrencyProtocol, Effect, EffectSink, LockId, LockSpace,
//!                  Mode, NodeId, ProtocolConfig, Ticket};
//!
//! # fn main() -> Result<(), hlock_core::ProtocolError> {
//! // Two nodes, one lock; node 0 is the initial token home.
//! let cfg = ProtocolConfig::default();
//! let mut n0 = LockSpace::new(NodeId(0), 1, NodeId(0), cfg);
//! let mut n1 = LockSpace::new(NodeId(1), 1, NodeId(0), cfg);
//! let mut fx = EffectSink::new();
//!
//! // Node 1 asks for a read lock; the request must travel to node 0.
//! n1.request(LockId(0), Mode::Read, Ticket(1), &mut fx)?;
//! let Some(Effect::Send { to, message }) = fx.drain().next() else { panic!() };
//! assert_eq!(to, NodeId(0));
//!
//! // Node 0 serves it (a copy grant under the default lazy-transfer policy).
//! n0.on_message(NodeId(1), message, &mut fx);
//! let Some(Effect::Send { message, .. }) = fx.drain().next() else { panic!() };
//! n1.on_message(NodeId(0), message, &mut fx);
//! assert!(matches!(fx.drain().next(), Some(Effect::Granted { .. })));
//!
//! n1.release(LockId(0), Ticket(1), &mut fx)?;
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod audit;
mod config;
mod effect;
mod error;
mod hierarchy;
mod ids;
mod message;
mod metrics;
mod mode;
mod node;
mod observe;
mod protocol;
mod queue;
mod recovery;
pub mod rng;
mod runtime;
mod shard;
mod space;

pub use audit::{
    audit_at_rest, audit_live, audit_lock, mean_tree_depth, tree_depths, AuditFinding, EpochScope,
    InvariantAuditor, SharedAuditor,
};
pub use config::ProtocolConfig;
pub use effect::{Effect, EffectSink};
pub use error::ProtocolError;
pub use hierarchy::{HierarchyStep, LockPlan, PlanTracker};
pub use ids::{LockId, NodeId, Priority, Stamp, Ticket};
pub use message::{
    Classify, Envelope, LockReport, MessageKind, Payload, RecoveryBody, RecoveryEnvelope,
};
pub use metrics::{Duration, Meter};
pub use mode::{
    can_downgrade, child_grant_table, compatibility_table, compatible_owned, freeze_table,
    frozen_modes, grantable, grantable_set, owned_strength, queue_forward_table, queue_or_forward,
    stronger, token_serve, Mode, ModeSet, QueueDecision, TokenServe, ALL_MODES,
};
pub use node::LockNode;
pub use observe::{
    FlightRecorder, Hlc, HlcClock, LinkDownReason, NullObserver, Observer, ProtocolEvent,
    Reservoir, ShardGauges, SpanId, VecObserver, DEFAULT_FLIGHT_CAPACITY,
    DEFAULT_RESERVOIR_CAPACITY,
};
pub use protocol::{CancelOutcome, ConcurrencyProtocol, Inspect};
pub use queue::{QueueEntry, RequestQueue, Waiter};
pub use recovery::{Recoverable, RecoverySpace, PROBE_TIMER_TOKEN};
pub use runtime::{BatchHost, HostRuntime, RuntimeCounters};
pub use shard::{ShardCounters, ShardSpec, ShardedSpace};
pub use space::LockSpace;
