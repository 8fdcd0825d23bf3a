//! End-to-end and per-layer benchmark for the hlock stack, measured from
//! outside through the public APIs of `hlock-core`, `hlock-session`,
//! `hlock-wire`, `hlock-sim` and `hlock-net`. See `README.md`.

pub mod alloc;
pub mod check;
pub mod cli;
pub mod compare;
pub mod failover;
pub mod harness;
pub mod json;
pub mod ledger;
pub mod manifest;
pub mod metrics;
pub mod rng;
pub mod run_all;
pub mod script;
pub mod sharded;
pub mod simw;
pub mod stats;
pub mod sys;
pub mod tcp;
pub mod trace;
pub mod workload;
