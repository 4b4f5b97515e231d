//! End-to-end and per-layer benchmark of the millibalance simulator.
//!
//! The benchmark lives outside the simulator and calls only its public
//! APIs. `main.rs` is the command line; NOTES.md records the workloads,
//! metrics, gates and the spreads measured on the reference host.

pub mod e2e;
pub mod layers;
pub mod outcome;
pub mod result;
pub mod run;
pub mod workloads;
