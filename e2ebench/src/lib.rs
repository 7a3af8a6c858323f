//! End-to-end benchmark of the kbt service (see `README.md`).
//!
//! One load-generating process runs a workload against an in-process
//! [`kbt_service::NetServer`], checks every answer, and prints the
//! end-to-end metrics (or, traced, the per-layer ones) with a JSON result
//! as the last line of standard output.

pub mod calib;
pub mod check;
pub mod hist;
pub mod report;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
