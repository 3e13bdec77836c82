//! Wall-clock benchmark of the RingBFT loopback runtime.
//!
//! Drives `ringbft_net::LocalCluster` — real epoll reactors, real loopback
//! TCP, real HMACs — from one bench-owned load generator, reports the
//! end-to-end metrics with tracing off, and in a separate traced run
//! reads each layer's counters and times each crate's public functions on
//! the workload's own traffic. See `README.md` for the metric catalogue.

pub mod load;
pub mod probes;
pub mod procfs;
pub mod report;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
