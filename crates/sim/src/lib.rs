//! # dqs-sim — deterministic discrete-event simulation kernel
//!
//! Foundation of the DQS reproduction: virtual time, a deterministic event
//! queue, FIFO resources (CPU/disk), reproducible per-component random
//! streams, and EWMA rate estimation.
//!
//! The paper (§5.1) evaluates its scheduler on a *simulated* platform whose
//! parameters are given in Table 1; [`params::SimParams`] encodes that table
//! verbatim and derives the timing quantities (instruction time, disk batch
//! time, network wire time) the upper layers charge against.
//!
//! Everything here is single-threaded and bit-reproducible: a run is a pure
//! function of the workload description and a `u64` seed.
//!
//! ```
//! use dqs_sim::{EventQueue, SimDuration, SimParams, SimTime};
//!
//! // Table 1: one instruction at 100 MIPS is 10 ns.
//! let params = SimParams::default();
//! assert_eq!(params.instr_time(100), SimDuration::from_micros(1));
//!
//! // The event queue fires in time order with FIFO tie-breaking.
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_nanos(20), "second");
//! q.schedule(SimTime::from_nanos(10), "first");
//! assert_eq!(q.pop().unwrap().1, "first");
//! assert_eq!(q.now(), SimTime::from_nanos(10));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod event;
pub mod params;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use clock::{TimerHeap, WallClock};
pub use event::EventQueue;
pub use params::SimParams;
pub use resource::{FifoResource, Grant};
pub use rng::SeedSplitter;
pub use stats::Ewma;
pub use time::{SimDuration, SimTime};
