//! # dqs-reactor — the mediator's non-blocking readiness loop
//!
//! A deliberately small, dependency-free event-notification layer: the
//! C10K substrate the event-driven mediator (and its load generator) run
//! on. Three pieces:
//!
//! * [`Poller`] — OS readiness notification: Linux **epoll** through a
//!   thin FFI shim (no `libc` crate, no tokio — just the four syscalls
//!   the kernel actually exposes). The crate is Linux-only, as the shim's
//!   `epoll_*`/`pipe2` declarations always were. Level-triggered: a
//!   socket that still has unread bytes or writable buffer space keeps
//!   reporting ready, so a handler that drains partially never deadlocks.
//! * [`Waker`] — a self-pipe that makes a [`Poller::wait`] return from
//!   another thread: how engine threads tell an I/O worker "this
//!   connection has frames to flush".
//! * [`TimerWheel`] — a hashed timer wheel for connection deadlines and
//!   backoff: O(1) schedule, expiry in tick order, far-future timers
//!   parked in their slot with their absolute tick instead of unbounded
//!   slots. Nothing is cancelled: a caller recognises a stale token when
//!   it fires.
//!
//! The crate is sans-policy: it neither reads nor writes sockets, it only
//! says *which* registered file descriptors are ready for what. All
//! `unsafe` in the workspace's network path lives here, confined to the
//! syscall shim in [`sys`].

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod poller;
pub mod sys;
mod timer;

pub use poller::{Event, Events, Interest, Poller, Token, Waker};
pub use timer::TimerWheel;
