//! # dqs-relop — simulated relational operator library
//!
//! Operators for the DQS reproduction, following the paper's §5.1
//! methodology: operators are *simulated* — they move synthetic tuples and
//! charge the Table 1 instruction costs — so execution behaviour depends only
//! on cardinalities and selectivities, never on data content.
//!
//! The library provides:
//!
//! * [`tuple::Tuple`] — synthetic tuples with deterministic keys;
//! * [`fanout::FanoutAccumulator`] — exact, deterministic fractional
//!   selectivity / join fan-out;
//! * [`hash_table`] — the blocking build side of every join, kept in insert
//!   order in an arena and charged against query memory;
//! * [`ops`] — chain operator specs, compiled chains, batch execution and
//!   the cost estimator that feeds the scheduler's `c_p` metric.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fanout;
pub mod hash_table;
pub mod ops;
pub mod tuple;

pub use fanout::FanoutAccumulator;
pub use hash_table::{HashTableArena, HtId, HtStat, HtStats, SimHashTable};
pub use ops::{estimate_chain, BatchResult, ChainCostEstimate, MorselCursor, OpSpec, PhysChain};
pub use tuple::{synth_key, RelId, Tuple};
