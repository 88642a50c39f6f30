//! # jrpm-bench — evaluation harness
//!
//! Regenerates every table and figure of the TEST paper's evaluation
//! (§6) from the reproduction: run `cargo run --release -p jrpm-bench
//! --bin tables -- all` for the full set, or name a single artifact
//! (`table1` … `table6`, `fig6`, `fig9`, `fig10`, `fig11`,
//! `softslow`). Criterion micro-benchmarks of the tracer itself live
//! in `benches/`.

pub mod ablation;
pub mod diag;
pub mod gate;
pub mod runner;
pub mod tables;

pub use runner::{run_benchmark, BenchResult};
