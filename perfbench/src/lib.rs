//! Host-time benchmark of the dSSD simulator.
//!
//! `measure` times fixed simulated windows of each workload end to end;
//! `traced` breaks one run down into per-crate layer metrics. See
//! `perfbench/README.md` for the workloads, metrics and how they relate.

#![warn(missing_docs)]

pub mod calib;
pub mod host;
pub mod measure;
pub mod metrics;
pub mod replay;
pub mod spans;
pub mod traced;
pub mod workload;
