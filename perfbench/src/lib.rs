//! The repository benchmark: three seeded workloads over the APR engine
//! and the simulation service, end-to-end metrics with the telemetry
//! recorder off, and a traced replay that times every layer of the APR
//! step from the benchmark's side. See `perfbench/README.md`.

pub mod replay;
pub mod report;
pub mod serve;
pub mod stepping;
pub mod trace;
pub mod workload;
