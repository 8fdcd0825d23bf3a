//! # hlock — scalable distributed concurrency services for hierarchical locking
//!
//! A full Rust implementation of
//!
//! > Nirmit Desai and Frank Mueller. *Scalable Distributed Concurrency
//! > Services for Hierarchical Locking.* ICDCS 2003.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the protocol: CORBA-CCS lock modes
//!   (`IR R U IW W`), rule tables, the sans-I/O node state machine.
//! * [`naimi`] — the Naimi–Trehel baseline used by the
//!   paper's evaluation.
//! * [`sim`] — deterministic discrete-event simulator
//!   (substitutes for the paper's 120-node cluster).
//! * [`check`] — exhaustive-interleaving model checker.
//! * [`wire`] / [`net`] — binary codec and a real
//!   TCP mesh transport.
//! * [`workload`] — the airline-reservation workload and
//!   experiment runners for Figures 5–7.
//!
//! See `examples/` for runnable walkthroughs (`airline_reservation` is
//! the reservation application itself, on real sockets) and
//! `crates/bench` for the binaries that regenerate every table and figure
//! of the paper.
//!
//! ```
//! use hlock::core::{Mode, ALL_MODES};
//! // Table 1(a): IR conflicts only with W.
//! assert!(ALL_MODES.iter().all(|&m| m == Mode::Write || m.compatible(Mode::IntentRead)));
//! ```

#![warn(missing_docs)]

pub use hlock_check as check;
pub use hlock_core as core;
pub use hlock_naimi as naimi;
pub use hlock_net as net;
pub use hlock_raymond as raymond;
pub use hlock_session as session;
pub use hlock_sim as sim;
pub use hlock_suzuki as suzuki;
pub use hlock_wire as wire;
pub use hlock_workload as workload;
