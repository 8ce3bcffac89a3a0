//! Benchmark of the dragonfly simulator's three reference workloads.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! theta_pdes1 --seed 0 --seconds 20 --trace 0` from the repository root
//! runs one workload and prints its metrics as one JSON line; see
//! `perfbench/README.md` for the workloads, metrics and checks.

pub mod bench;
pub mod host;
pub mod pipeline;
pub mod probe;
pub mod report;
pub mod unit_costs;
pub mod workload;
