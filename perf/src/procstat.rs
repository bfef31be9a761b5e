//! What the operating system says about this process and its host:
//! CPU time, context switches and peak memory from `getrusage(2)`, the
//! hypervisor's stolen share from `/proc/stat`, live threads from
//! `/proc/self/status`. Linux on a 64-bit target only, like the reactor
//! the mediator itself runs on.

use std::fs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;
use std::time::Duration;

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

/// `struct rusage` on 64-bit Linux: two `timeval`s (seconds and
/// microseconds, 8 bytes each) followed by fourteen `long` counters.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    unused: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Resource usage accumulated so far by the process or the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User plus system CPU time, seconds.
    pub cpu_secs: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
}

fn usage(who: i32) -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable, properly aligned value whose
    // layout is the 144-byte `struct rusage` of 64-bit Linux (checked at
    // compile time below); getrusage writes that struct and keeps no
    // pointer to it.
    let rc = unsafe { getrusage(who, &mut raw) };
    assert_eq!(rc, 0, "getrusage cannot fail with a valid `who`");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Usage {
        cpu_secs: secs(raw.utime) + secs(raw.stime),
        ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
        peak_rss_mb: raw.maxrss_kb as f64 / 1024.0,
    }
}

const _: () = assert!(std::mem::size_of::<RawRusage>() == 144);
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("dqs-perf reads struct rusage with its 64-bit Linux layout");

/// The whole process, threads that already exited included.
pub fn process_usage() -> Usage {
    usage(RUSAGE_SELF)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_secs() -> f64 {
    usage(RUSAGE_THREAD).cpu_secs
}

/// `(stolen, total)` jiffies over all CPUs since boot. Steal is time the
/// hypervisor ran someone else while this guest had runnable work — the
/// neighbour noise that makes a run on a shared box unrepresentative.
pub fn host_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already counted inside user and nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

fn live_threads() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Peak live thread count while `body` runs, sampled every 10 ms from a
/// helper thread (which counts itself).
pub fn with_thread_peak<T>(body: impl FnOnce() -> T) -> (T, u64) {
    let stop = AtomicBool::new(false);
    let peak = AtomicU64::new(0);
    let out = thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(live_threads(), Ordering::Relaxed);
                thread::sleep(Duration::from_millis(10));
            }
        });
        let out = body();
        stop.store(true, Ordering::Relaxed);
        out
    });
    (out, peak.load(Ordering::Relaxed))
}
