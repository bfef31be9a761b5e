//! # dqs-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5) plus
//! the ablation studies listed in `DESIGN.md`. The `repro` binary prints
//! the same rows/series the paper reports. Everything here runs on the
//! simulated clock; the serving plane is measured by `perf/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod fingerprint;
pub mod runner;

pub use runner::{run_once, run_repeated, StrategyKind, SEEDS};
