//! The `TupleSource` abstraction — what the communication manager needs
//! from a wrapper, independent of *how* tuples come to exist.
//!
//! §2.1 treats wrappers as black boxes that stream result tuples to the
//! mediator. The simulated [`crate::Wrapper`] realizes that contract by
//! drawing inter-tuple gaps from a [`crate::DelayModel`]; the
//! [`crate::FailoverSource`] realizes it with a socket reader thread and
//! a bounded channel. The CM drives either through this trait and cannot
//! tell them apart.

use std::fmt;

use dqs_relop::{RelId, Tuple};
use dqs_sim::SimDuration;

/// Why a push-paced source stopped delivering before its last tuple.
///
/// In-process wrappers cannot fail; remote wrappers can, in all the ways
/// sockets do. The reader side reports the
/// failure out-of-band as a [`Notice::Fault`] so the engine can abort the
/// run with a typed reason instead of hanging on a queue that will never
/// fill.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The peer closed or reset the connection mid-stream.
    Disconnected {
        /// What the transport reported.
        detail: String,
    },
    /// No bytes arrived within the read timeout — the source went silent.
    Timeout {
        /// The timeout that elapsed, in milliseconds.
        millis: u64,
    },
    /// The peer spoke, but not the wrapper protocol.
    Protocol {
        /// What was wrong with the stream.
        detail: String,
    },
    /// Any other transport-level I/O failure.
    Io {
        /// What the transport reported.
        detail: String,
    },
}

impl SourceError {
    /// Stable snake_case discriminant name (used by JSON event sinks).
    pub fn kind(&self) -> &'static str {
        match self {
            SourceError::Disconnected { .. } => "disconnected",
            SourceError::Timeout { .. } => "timeout",
            SourceError::Protocol { .. } => "protocol",
            SourceError::Io { .. } => "io",
        }
    }
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Disconnected { detail } => write!(f, "peer disconnected: {detail}"),
            SourceError::Timeout { millis } => {
                write!(f, "no data within the {millis} ms read timeout")
            }
            SourceError::Protocol { detail } => write!(f, "protocol violation: {detail}"),
            SourceError::Io { detail } => write!(f, "transport error: {detail}"),
        }
    }
}

impl std::error::Error for SourceError {}

/// What a push-paced source announces on the driver's notify channel.
///
/// Data always precedes its notice: by the time the engine sees
/// [`Notice::Arrival`] the matching tuple is waiting in the source's data
/// channel, so [`TupleSource::emit`] never blocks. A [`Notice::Fault`] is
/// terminal for its source — no further notices follow from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Notice {
    /// A tuple from this wrapper is ready to be taken.
    Arrival(RelId),
    /// The source failed; the run cannot complete.
    Fault {
        /// The failed wrapper's relation.
        rel: RelId,
        /// What went wrong.
        error: SourceError,
    },
    /// A replica-backed source opened its scan on this endpoint.
    ReplicaPinned {
        /// The relation whose scan was pinned.
        rel: RelId,
        /// The chosen endpoint address.
        endpoint: String,
    },
    /// A replica-backed source lost its endpoint mid-scan and re-opened
    /// the scan elsewhere, resuming at the next undelivered tuple index.
    Failover {
        /// The relation whose scan moved.
        rel: RelId,
        /// The endpoint that failed.
        from: String,
        /// The endpoint the scan resumed on.
        to: String,
        /// First tuple index the new endpoint delivers.
        resume_from: u64,
    },
    /// An endpoint failed often enough to be put on cooldown. Informational
    /// — unlike [`Notice::Fault`], the scan itself may still complete on a
    /// peer replica.
    ReplicaDegraded {
        /// The relation whose source observed the failure.
        rel: RelId,
        /// The endpoint now on cooldown.
        endpoint: String,
        /// The failure that degraded it.
        error: SourceError,
    },
}

impl Notice {
    /// The relation this notice concerns.
    pub fn rel(&self) -> RelId {
        match self {
            Notice::Arrival(rel)
            | Notice::Fault { rel, .. }
            | Notice::ReplicaPinned { rel, .. }
            | Notice::Failover { rel, .. }
            | Notice::ReplicaDegraded { rel, .. } => *rel,
        }
    }
}

/// A wrapper delivering one relation's tuples to the mediator.
///
/// Pull-paced sources (the simulator) report the gap before their next
/// tuple from [`TupleSource::next_gap`] and the caller schedules the
/// arrival; push-paced sources (threads, sockets) return `None` and the
/// driver learns of arrivals out-of-band, calling [`TupleSource::emit`]
/// only when a tuple is known to be ready.
pub trait TupleSource: std::fmt::Debug {
    /// The relation this source serves.
    fn rel(&self) -> RelId;

    /// Total tuples this source will deliver.
    fn total(&self) -> u64;

    /// Tuples delivered so far.
    fn produced(&self) -> u64;

    /// True when every tuple has been delivered.
    fn exhausted(&self) -> bool {
        self.produced() >= self.total()
    }

    /// Begin producing (sends the sub-query to the wrapper). Pull-paced
    /// sources need no setup; push-paced sources spawn their producer
    /// here, so construction stays side-effect free.
    fn start(&mut self) {}

    /// The gap before the *next* tuple. `None` when exhausted — or always,
    /// for push-paced sources whose arrivals are signalled out-of-band.
    fn next_gap(&mut self) -> Option<SimDuration>;

    /// Take delivery of the next tuple.
    ///
    /// # Panics
    /// Panics when exhausted.
    fn emit(&mut self) -> Tuple;
}

/// An owned, type-erased tuple source.
pub type BoxSource = Box<dyn TupleSource + Send>;
