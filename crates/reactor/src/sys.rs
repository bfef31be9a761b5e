//! The syscall shim: the handful of `extern "C"` declarations the
//! reactor needs, with no `libc` crate in between.
//!
//! Everything here is a direct binding to the C library symbols the
//! platform already links (std itself links libc), so the build stays
//! fully offline. The rest of the crate wraps these in safe types; no
//! `unsafe` escapes this module's callers beyond the documented
//! contracts.

use std::io;
use std::os::fd::RawFd;

/// C `int`.
pub type CInt = i32;

// --- epoll (Linux) ----------------------------------------------------------

/// `EPOLL_CLOEXEC` for `epoll_create1(2)`.
pub const EPOLL_CLOEXEC: CInt = 0x8_0000;
/// Add a new fd to the interest list.
pub const EPOLL_CTL_ADD: CInt = 1;
/// Remove an fd from the interest list.
pub const EPOLL_CTL_DEL: CInt = 2;
/// Change an fd's event mask.
pub const EPOLL_CTL_MOD: CInt = 3;
/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

/// One epoll event, ABI-compatible with the kernel's `struct
/// epoll_event` (packed on x86-64, where the kernel declares it
/// `__attribute__((packed))`).
#[repr(C)]
#[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event mask (`EPOLLIN | ...`).
    pub events: u32,
    /// Caller-owned cookie, returned verbatim (we store the token).
    pub data: u64,
}

// --- pipes ------------------------------------------------------------------

/// `O_NONBLOCK` on Linux.
pub const O_NONBLOCK: CInt = 0x800;
/// `O_CLOEXEC` on Linux.
pub const O_CLOEXEC: CInt = 0x8_0000;

extern "C" {
    fn epoll_create1(flags: CInt) -> CInt;
    fn epoll_ctl(epfd: CInt, op: CInt, fd: CInt, event: *mut EpollEvent) -> CInt;
    fn epoll_wait(epfd: CInt, events: *mut EpollEvent, maxevents: CInt, timeout: CInt) -> CInt;
    fn pipe2(fds: *mut CInt, flags: CInt) -> CInt;
    fn read(fd: CInt, buf: *mut u8, count: usize) -> isize;
    fn write(fd: CInt, buf: *const u8, count: usize) -> isize;
    fn close(fd: CInt) -> CInt;
}

fn cvt(ret: CInt) -> io::Result<CInt> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Create an epoll instance (`EPOLL_CLOEXEC`).
pub fn sys_epoll_create() -> io::Result<RawFd> {
    cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })
}

/// Add/modify/delete `fd` on epoll instance `epfd`.
pub fn sys_epoll_ctl(epfd: RawFd, op: CInt, fd: RawFd, events: u32, data: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events, data };
    cvt(unsafe { epoll_ctl(epfd, op, fd, &mut ev) }).map(|_| ())
}

/// Wait for events; `timeout_ms < 0` blocks indefinitely. Retries on
/// `EINTR` so callers never see a spurious error from a signal.
pub fn sys_epoll_wait(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout_ms: CInt,
) -> io::Result<usize> {
    loop {
        let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as CInt, timeout_ms) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A non-blocking close-on-exec pipe: `(read_end, write_end)`.
pub fn sys_pipe() -> io::Result<(RawFd, RawFd)> {
    let mut fds = [0 as CInt; 2];
    cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
    Ok((fds[0], fds[1]))
}

/// Best-effort single-byte write (the waker's "ding"). A full pipe means
/// a wake is already pending, which is success.
pub fn sys_write_byte(fd: RawFd) -> io::Result<()> {
    let byte = [1u8];
    let n = unsafe { write(fd, byte.as_ptr(), 1) };
    if n >= 0 {
        return Ok(());
    }
    let err = io::Error::last_os_error();
    match err.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted => Ok(()),
        _ => Err(err),
    }
}

/// Drain every pending byte from a non-blocking pipe read end.
pub fn sys_drain(fd: RawFd) {
    let mut buf = [0u8; 64];
    loop {
        let n = unsafe { read(fd, buf.as_mut_ptr(), buf.len()) };
        if n <= 0 {
            return;
        }
    }
}

/// Close an fd owned by this crate (epoll instances, waker pipes).
pub fn sys_close(fd: RawFd) {
    unsafe {
        close(fd);
    }
}
