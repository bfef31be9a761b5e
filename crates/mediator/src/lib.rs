//! # dqs-mediator — the engine as a networked service
//!
//! The paper's architecture (§2.1) is a mediator talking to *autonomous
//! remote* wrappers. This crate makes both halves real processes:
//!
//! * [`wrapper_server::WrapperServer`] — a standalone server that speaks
//!   the wrapper side of the wire protocol in `dqs_source::net`, serving
//!   simulated relations (same delay models, same seeded pacing, same
//!   synthetic keys as the in-process wrappers) to any mediator that
//!   connects;
//! * [`server::MediatorServer`] — the serving mediator: accepts client
//!   connections submitting JSON workload specs, admits up to a configured
//!   number of concurrent queries under an evenly partitioned global
//!   memory budget (backed by `dqs_core::session::SessionTable`), queues
//!   or rejects excess load, runs each admitted query on its own
//!   `RealTimeDriver`, and streams trace and result frames back;
//! * [`client`] — the submitting side, used by `dqs submit`.
//!
//! The three pieces compose into the full topology from the shell:
//!
//! ```text
//! dqs wrapper --listen 127.0.0.1:7401          # wrapper process(es)
//! dqs serve --listen 127.0.0.1:7400 \
//!           --wrappers 127.0.0.1:7401          # the mediator
//! dqs submit spec.json --connect 127.0.0.1:7400  # clients
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
mod refresher;
pub mod server;
pub mod wrapper_server;

pub use client::{invalidate, submit, ClientError, Progress, RemoteMetrics, SubmitOpts};
pub use server::{MediatorServer, ServeOpts, ServerMetrics};
pub use wrapper_server::{ChurnOpts, WrapperServer};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Longest uninterrupted sleep of any service thread, so a stopping server
/// never waits out a probe interval, a refresh cycle or a modelled gap.
const SLEEP_SLICE: Duration = Duration::from_millis(50);

/// Sleep `d` in [`SLEEP_SLICE`]s, looking at `stop` before each one.
/// `false` when `stop` was raised before `d` had passed.
fn sleep_unless(stop: &AtomicBool, d: Duration) -> bool {
    let mut left = d;
    while !left.is_zero() {
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        let slice = left.min(SLEEP_SLICE);
        std::thread::sleep(slice);
        left -= slice;
    }
    true
}
