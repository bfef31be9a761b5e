//! # dqs-source — simulated data sources and the communication manager
//!
//! The data-delivery side of the DQS reproduction:
//!
//! * [`delay::DelayModel`] — the paper's delay taxonomy (§1.2: initial,
//!   bursty, slow) plus the §5.1.3 uniform `[0, 2w]` methodology;
//! * [`source::TupleSource`] — the wrapper contract the CM drives, so the
//!   delivery substrate (simulated or real) is pluggable;
//! * [`wrapper::Wrapper`] — black-box remote sources producing synthetic
//!   tuples at the modelled pace: pull-paced, so the same type serves the
//!   simulated clock and the in-process wall clock (its gaps become the
//!   driver's timer deadlines);
//! * [`cached::ReplaySource`] / [`cached::RecordingSource`] — the cache
//!   adapters: instant replay of a completed scan, tee-on-miss recording
//!   of a live one (see `dqs-cache`);
//! * [`net::Frame`] — the length-prefixed binary wire protocol that carries
//!   the §2.1 window protocol (and query submission) over TCP;
//! * [`scan`] — the one mediator-side client of that protocol: the
//!   bounded [`scan::dial`], and [`scan::Scan`], which builds the `Open`,
//!   validates everything a wrapper sends back and returns the window
//!   credits;
//! * [`failover::FailoverSource`] — the remote source and the one
//!   push-paced one (a reader thread feeding a bounded channel, data
//!   before notice): opens its `Scan` on the best live endpoint of a
//!   `dqs_replica::ReplicaSet` and, on a mid-scan death, re-opens on a
//!   peer at the next undelivered index
//!   ([`failover::RemoteWrapper::connect`] spells the one-endpoint case
//!   with a bare address);
//! * [`queue::TupleQueue`] — the bounded communication queues of §2.1;
//! * [`comm::CommManager`] — receives tuples, enforces the window protocol,
//!   charges per-message CPU, estimates delivery rates (EWMA) and raises
//!   `RateChange` when they drift from the scheduler's planning marks.
//!
//! ```
//! use dqs_sim::SimDuration;
//! use dqs_source::DelayModel;
//!
//! // §5.1.3: per-tuple delays uniform in [0, 2w] average to w, so a
//! // 100 K-tuple relation at w = 20 µs takes about 2 s to retrieve.
//! let model = DelayModel::Uniform { mean: SimDuration::from_micros(20) };
//! assert_eq!(model.expected_total(100_000), SimDuration::from_secs(2));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cached;
pub mod comm;
pub mod delay;
pub mod failover;
pub mod net;
pub mod queue;
pub mod scan;
pub mod source;
pub mod wrapper;

pub use cached::{RecordingSource, ReplaySource};
pub use comm::{
    ArrivalOutcome, CommManager, DEFAULT_QUEUE_CAPACITY, DEFAULT_RATE_ALPHA,
    DEFAULT_RATE_CHANGE_THRESHOLD,
};
pub use delay::DelayModel;
pub use failover::{FailoverSource, RemoteWrapper};
pub use net::{read_frame, write_frame, Frame, FrameError, RelStat, RemoteOpen, MAX_FRAME_BYTES};
pub use queue::TupleQueue;
pub use source::{BoxSource, Notice, SourceError, TupleSource};
pub use wrapper::Wrapper;
