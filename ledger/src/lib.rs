//! # memorydb-ledger — the perf ledger
//!
//! The repository's yardstick: paced RESP-over-TCP latency, CPU per
//! operation and recovery time on four named workloads against a real
//! single-shard primary in this process, plus a traced run that attributes
//! the cost layer by layer. `README.md` has the tables; `../BENCHMARK.json`
//! declares the same workloads and metrics to the driver.

pub mod cli;
pub mod compare;
pub mod gen;
pub mod harness;
pub mod json;
pub mod layers;
pub mod loadgen;
pub mod procfs;
pub mod run;
pub mod spec;
