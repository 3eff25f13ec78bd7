//! The repo's reference benchmark; see `benchmark/README.md`.
//!
//! Two binaries share this library: `bench` (end-to-end metrics, tracing
//! compiled out) and `trace` (the same workloads with benchmark-side
//! spans, plus per-layer probes). Everything here except
//! [`report::host_header`] stays inside the API footprint the README
//! lists, so the end-to-end binary keeps compiling when the product's
//! internals are reshaped.

pub mod alloc;
pub mod args;
pub mod batch;
pub mod contract;
pub mod inputs;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod workloads;
