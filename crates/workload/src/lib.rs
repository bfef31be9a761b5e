//! # dqs-workload — seeded workload generation and traffic replay
//!
//! The mediator can hold ten thousand concurrent sessions and
//! parallelize each query; this crate generates the *traffic* that
//! proves it — and proves the admission layer's scheduling choices —
//! under realistic skew rather than a single hand-written spec.
//!
//! * [`generate`](mod@generate) — a fully seeded, offline workload
//!   synthesizer: a pool of unique specs drawn from a parameterized
//!   query-shape grammar, Zipf-distributed popularity (so repeated
//!   specs exercise the result cache the way real users do), and
//!   pluggable arrival processes (open-loop Poisson, bursty on/off,
//!   diurnal rate curve);
//! * [`trace`] — the versioned JSON trace-file format that carries a
//!   generated schedule from `dqs workload gen` to `dqs workload
//!   replay`;
//! * [`replay`](mod@replay) — an open-loop, reactor-based driver that
//!   fires a trace at a live mediator honoring timestamps, holds every
//!   session to its terminal frame, and reports throughput and
//!   p50/p99/p999 latency *split into queue wait vs execution* plus the
//!   cache hit rate — the observables an `--admission fifo|sjf` A/B is
//!   judged on.
//!
//! The C10K bench (`dqs bench c10k`) is [`replay()`] of [`Trace::flood`]:
//! every arrival at t = 0.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod generate;
pub mod replay;
pub mod trace;

pub use generate::{generate, Arrival, DelayClass, GenOpts, Grammar};
pub use replay::{replay, LatencySummary, ReplayOpts, ReplayReport};
pub use trace::{Trace, TraceEvent, TINY_SPEC};
