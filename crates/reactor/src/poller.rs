//! The readiness poller: Linux `epoll(7)` behind a small safe API.

use std::io;
use std::os::fd::RawFd;
use std::sync::Arc;
use std::time::Duration;

use crate::sys;

/// Caller-chosen identifier attached to a registration and echoed back
/// in every [`Event`] for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// The token value reserved for the poller's internal waker pipe; never
/// use it for a registration.
const WAKER_TOKEN: u64 = u64::MAX;

/// Which readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Wake when the fd has bytes to read (or the peer hung up).
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Wake when the fd can accept bytes.
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// The registration for a connection that wants to `read`, `write` or
    /// both. Wanting neither keeps [`Interest::READABLE`]: there is nothing
    /// to wait for, and whoever owns the connection's deadline closes it.
    pub fn wanting(read: bool, write: bool) -> Interest {
        match (read, write) {
            (true, true) => Interest::BOTH,
            (false, true) => Interest::WRITABLE,
            (_, false) => Interest::READABLE,
        }
    }

    fn epoll_mask(&self) -> u32 {
        let mut m = sys::EPOLLRDHUP;
        if self.readable {
            m |= sys::EPOLLIN;
        }
        if self.writable {
            m |= sys::EPOLLOUT;
        }
        m
    }
}

/// One readiness report.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registration's token.
    pub token: Token,
    /// Bytes (or EOF) are available to read.
    pub readable: bool,
    /// The fd can accept bytes.
    pub writable: bool,
    /// Error or hangup: the handler should read/write and observe the
    /// failure (level-triggered, so this keeps firing until handled).
    pub hangup: bool,
}

/// Reusable event buffer filled by [`Poller::wait`].
pub type Events = Vec<Event>;

struct WakeFd(RawFd);

impl Drop for WakeFd {
    fn drop(&mut self) {
        sys::sys_close(self.0);
    }
}

/// Wakes a [`Poller::wait`] from another thread (a self-pipe). Cloneable
/// and cheap; safe to use after the poller is gone (the wake becomes a
/// no-op).
#[derive(Clone)]
pub struct Waker {
    fd: Arc<WakeFd>,
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Waker").field("fd", &self.fd.0).finish()
    }
}

impl Waker {
    /// Make the paired poller's current (or next) `wait` return
    /// promptly. Never blocks; a full pipe or a closed poller both count
    /// as success.
    pub fn wake(&self) {
        match sys::sys_write_byte(self.fd.0) {
            Ok(()) => {}
            // Reader gone (poller dropped): nobody left to wake.
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
            Err(_) => {}
        }
    }
}

/// OS readiness notification for many file descriptors at once.
///
/// Level-triggered: an fd stays ready until the condition is drained, so
/// partial reads/writes are always safe. Not `Sync` — each I/O worker
/// owns its poller; cross-thread signalling goes through the [`Waker`].
pub struct Poller {
    epfd: RawFd,
    buf: Vec<sys::EpollEvent>,
    wake_read: RawFd,
    waker: Waker,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").field("epfd", &self.epfd).finish()
    }
}

impl Poller {
    /// A fresh epoll instance with its waker pipe registered.
    pub fn new() -> io::Result<Poller> {
        let (wake_read, wake_write) = sys::sys_pipe()?;
        let epfd = match sys::sys_epoll_create() {
            Ok(fd) => fd,
            Err(e) => {
                sys::sys_close(wake_read);
                sys::sys_close(wake_write);
                return Err(e);
            }
        };
        sys::sys_epoll_ctl(
            epfd,
            sys::EPOLL_CTL_ADD,
            wake_read,
            sys::EPOLLIN,
            WAKER_TOKEN,
        )?;
        Ok(Poller {
            epfd,
            buf: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
            wake_read,
            waker: Waker {
                fd: Arc::new(WakeFd(wake_write)),
            },
        })
    }

    /// A handle other threads use to interrupt [`Poller::wait`].
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Start watching `fd` for `interest`, reporting it as `token`. The
    /// fd must stay open until [`Poller::deregister`]; `token` must not
    /// be `u64::MAX` (reserved for the internal waker).
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        assert_ne!(token.0, WAKER_TOKEN, "token u64::MAX is reserved");
        sys::sys_epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_ADD,
            fd,
            interest.epoll_mask(),
            token.0,
        )
    }

    /// Change an existing registration's interest (the token may change
    /// too).
    pub fn modify(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        assert_ne!(token.0, WAKER_TOKEN, "token u64::MAX is reserved");
        sys::sys_epoll_ctl(
            self.epfd,
            sys::EPOLL_CTL_MOD,
            fd,
            interest.epoll_mask(),
            token.0,
        )
    }

    /// Stop watching `fd`. Call before closing the fd, or a recycled
    /// descriptor number could alias the stale registration.
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        sys::sys_epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until at least one registration is ready, the timeout
    /// elapses, or a [`Waker`] fires; fill `events` with what's ready.
    /// A waker interruption returns with whatever else was ready
    /// (possibly nothing) — the caller then drains its mailboxes.
    pub fn wait(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        let timeout_ms: sys::CInt = match timeout {
            // Round up so a 100µs deadline doesn't spin at timeout 0.
            Some(d) => {
                d.as_millis().min(i32::MAX as u128) as sys::CInt
                    + sys::CInt::from(d.subsec_nanos() % 1_000_000 != 0)
            }
            None => -1,
        };
        let n = sys::sys_epoll_wait(self.epfd, &mut self.buf, timeout_ms)?;
        for ev in self.buf.iter().take(n) {
            // Copy out of the (packed) struct before using.
            let mask = ev.events;
            let data = ev.data;
            if data == WAKER_TOKEN {
                sys::sys_drain(self.wake_read);
                continue;
            }
            events.push(Event {
                token: Token(data),
                readable: mask & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: mask & sys::EPOLLOUT != 0,
                hangup: mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::sys_close(self.epfd);
        sys::sys_close(self.wake_read);
    }
}
