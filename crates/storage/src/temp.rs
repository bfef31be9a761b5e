//! Temporary relations.
//!
//! A `mat` operator (paper §2.2), a degraded chain's materialization fragment
//! MF(p) (§4.4), and the Materialize-All strategy (§5.1.2) all write their
//! input into a *temp relation* on the mediator's local disk, which a
//! downstream fragment later scans.
//!
//! Write path: appended tuples accumulate in the in-memory I/O cache; once a
//! full cache batch (8 pages) is buffered it is written behind asynchronously
//! (the device works while the CPU continues — the paper's §4.4 assumes
//! "asynchronous I/O" for the complement fragment). `seal` flushes the tail.
//!
//! Read path: a cursor scans sequentially; tuples still in the write buffer
//! are served from memory for free, flushed pages are read back in cache-
//! sized batches whose device time the reader must wait for.

use dqs_sim::{SimParams, SimTime};

use crate::disk::{Disk, IoKind, StreamId};

/// Charges a temp-relation operation imposes on the caller.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCharge {
    /// CPU instructions to add to the caller's current batch.
    pub cpu_instr: u64,
    /// Device completion time of any I/O issued. Callers running with
    /// write-behind (the default, §4.4's asynchronous I/O) ignore it;
    /// naive synchronous materializers (the MA baseline) block on it.
    pub device_done: Option<SimTime>,
    /// Pages moved on the device.
    pub pages: u64,
}

/// A temp relation holding tuples of type `T`.
#[derive(Debug)]
pub struct TempRelation<T> {
    tuples: Vec<T>,
    /// Tuples already flushed to disk (prefix of `tuples`).
    flushed: u64,
    /// Tuples covered by the read-ahead cache (prefix; only meaningful for
    /// the flushed region).
    read_cached: u64,
    sealed: bool,
    /// Pages of the cached region known resident in memory (the rest are
    /// in flight until `read_ready_at`).
    read_resident: u64,
    /// Device completion time of the most recent read issued.
    read_ready_at: SimTime,
    write_stream: StreamId,
    read_stream: StreamId,
    tuples_per_page: u64,
    cache_pages: u64,
    /// Read-ahead window in pages.
    window_pages: u64,
    /// Device completion time of the last asynchronous write issued.
    last_write_done: SimTime,
}

impl<T: Clone> TempRelation<T> {
    /// A fresh temp relation. `write_stream`/`read_stream` must be unique
    /// across the disk's users so head movements are accounted.
    pub fn new(params: &SimParams, write_stream: StreamId, read_stream: StreamId) -> Self {
        TempRelation {
            tuples: Vec::new(),
            flushed: 0,
            read_cached: 0,
            sealed: false,
            read_resident: 0,
            read_ready_at: SimTime::ZERO,
            write_stream,
            read_stream,
            tuples_per_page: params.tuples_per_page() as u64,
            cache_pages: params.io_cache_pages as u64,
            window_pages: params.io_cache_pages as u64 * params.readahead_batches as u64,
            last_write_done: SimTime::ZERO,
        }
    }

    /// Total tuples appended so far.
    pub fn len(&self) -> u64 {
        self.tuples.len() as u64
    }

    /// True when nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// True once `seal` was called: no more appends, length is final.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Tuples flushed to the device so far.
    pub fn flushed(&self) -> u64 {
        self.flushed
    }

    /// Device completion time of the last write issued (the relation is not
    /// durably complete before this).
    pub fn last_write_done(&self) -> SimTime {
        self.last_write_done
    }

    /// Append a batch of tuples, writing behind full cache batches.
    ///
    /// # Panics
    /// Panics if the relation is sealed.
    pub fn append_batch(&mut self, batch: &[T], now: SimTime, disk: &mut Disk) -> IoCharge {
        assert!(!self.sealed, "append to sealed temp relation");
        self.tuples.extend_from_slice(batch);
        let buffered = self.len() - self.flushed;
        let full_pages = buffered / self.tuples_per_page;
        if full_pages >= self.cache_pages {
            // Flush all complete cache batches; keep the partial tail
            // buffered.
            let batches = full_pages / self.cache_pages;
            let pages = batches * self.cache_pages;
            let ticket = disk.transfer(now, IoKind::Write, self.write_stream, pages);
            self.flushed += pages * self.tuples_per_page;
            self.last_write_done = self.last_write_done.max(ticket.device_done);
            IoCharge {
                cpu_instr: ticket.cpu_instr,
                device_done: Some(ticket.device_done),
                pages,
            }
        } else {
            IoCharge::default()
        }
    }

    /// Flush the buffered tail and freeze the relation.
    pub fn seal(&mut self, now: SimTime, disk: &mut Disk) -> IoCharge {
        assert!(!self.sealed, "double seal");
        self.sealed = true;
        let buffered = self.len() - self.flushed;
        if buffered == 0 {
            return IoCharge::default();
        }
        let pages = buffered.div_ceil(self.tuples_per_page);
        let ticket = disk.transfer(now, IoKind::Write, self.write_stream, pages);
        self.flushed = self.len();
        self.last_write_done = self.last_write_done.max(ticket.device_done);
        IoCharge {
            cpu_instr: ticket.cpu_instr,
            device_done: Some(ticket.device_done),
            pages,
        }
    }

    /// Tuples contiguously readable from `pos` *without blocking* at
    /// `now`: resident read-ahead pages plus — once the whole flushed
    /// region is resident — the still-buffered memory tail.
    pub fn available(&self, pos: u64, now: SimTime) -> u64 {
        let resident_pages = if now >= self.read_ready_at {
            self.cached_pages()
        } else {
            self.read_resident
        };
        let resident_tuples = (resident_pages * self.tuples_per_page).min(self.flushed);
        if resident_tuples >= self.flushed {
            self.len().saturating_sub(pos)
        } else {
            resident_tuples.saturating_sub(pos)
        }
    }

    /// True while a read-ahead transfer is still on the device at `now`.
    pub fn reading(&self, now: SimTime) -> bool {
        now < self.read_ready_at
    }

    /// Keep the asynchronous read-ahead window
    /// (`SimParams::readahead_batches` I/O-cache batches) open beyond
    /// `pos`, per the paper's §4.4 assumption that complement fragments
    /// overlap CPU and I/O ("asynchronous I/O").
    ///
    /// Returns the CPU instructions for any I/O issued and, if this call
    /// issued a new window, the time its pages become resident: one wake-up
    /// per window, so a window already in flight is not named again.
    pub fn arm_readahead(
        &mut self,
        pos: u64,
        now: SimTime,
        disk: &mut Disk,
    ) -> (u64, Option<SimTime>) {
        if now >= self.read_ready_at {
            self.read_resident = self.cached_pages();
        }
        let pos_page = pos / self.tuples_per_page;
        let want = (pos_page + self.window_pages).min(self.flushed_pages());
        if want <= self.cached_pages() {
            return (0, None);
        }
        let pages = want - self.cached_pages();
        let ticket = disk.transfer(now, IoKind::Read, self.read_stream, pages);
        self.read_cached = want * self.tuples_per_page;
        // Conservative: the new window is resident when the transfer ends.
        self.read_ready_at = ticket.device_done.max(self.read_ready_at);
        (ticket.cpu_instr, Some(self.read_ready_at))
    }

    /// Read up to `max` resident tuples from `pos` and arm further
    /// read-ahead. Never blocks. The wake-up time is that of a window this
    /// call issued or, if the read came back empty, of the one in flight.
    pub fn read_available(
        &mut self,
        pos: u64,
        max: u64,
        now: SimTime,
        disk: &mut Disk,
    ) -> (Vec<T>, u64, Option<SimTime>) {
        let n = self.available(pos, now).min(max);
        let out = self.tuples[pos as usize..(pos + n) as usize].to_vec();
        let (instr, wake) = self.arm_readahead(pos + n, now, disk);
        let wake = wake.or((n == 0 && self.reading(now)).then_some(self.read_ready_at));
        (out, instr, wake)
    }

    fn cached_pages(&self) -> u64 {
        self.read_cached / self.tuples_per_page
    }

    fn flushed_pages(&self) -> u64 {
        self.flushed / self.tuples_per_page + u64::from(self.flushed % self.tuples_per_page != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqs_sim::SimDuration;

    fn setup() -> (SimParams, Disk, TempRelation<u64>) {
        let p = SimParams::default();
        let d = Disk::new(p.clone());
        let t = TempRelation::new(&p, StreamId(10), StreamId(11));
        (p, d, t)
    }

    fn fill(t: &mut TempRelation<u64>, d: &mut Disk, n: u64) {
        let batch: Vec<u64> = (0..n).collect();
        t.append_batch(&batch, SimTime::ZERO, d);
    }

    #[test]
    fn small_appends_stay_buffered() {
        let (_p, mut d, mut t) = setup();
        let c = t.append_batch(&[1, 2, 3], SimTime::ZERO, &mut d);
        assert_eq!(c.pages, 0);
        assert_eq!(t.flushed(), 0);
        assert_eq!(t.len(), 3);
        assert_eq!(d.pages_written(), 0);
    }

    #[test]
    fn full_cache_batch_writes_behind() {
        let (p, mut d, mut t) = setup();
        let n = 8 * p.tuples_per_page() as u64;
        fill(&mut t, &mut d, n);
        assert_eq!(t.flushed(), n);
        assert_eq!(d.pages_written(), 8);
    }

    #[test]
    fn seal_flushes_partial_tail() {
        let (_p, mut d, mut t) = setup();
        t.append_batch(&[1, 2, 3], SimTime::ZERO, &mut d);
        let c = t.seal(SimTime::ZERO, &mut d);
        assert_eq!(c.pages, 1, "3 tuples round up to one page");
        assert!(t.is_sealed());
        assert_eq!(t.flushed(), 3);
        assert_eq!(d.pages_written(), 1);
    }

    #[test]
    fn seal_of_empty_is_free() {
        let (_p, mut d, mut t) = setup();
        let c = t.seal(SimTime::ZERO, &mut d);
        assert_eq!(c.pages, 0);
        assert!(t.is_sealed());
    }

    #[test]
    #[should_panic(expected = "append to sealed")]
    fn append_after_seal_panics() {
        let (_p, mut d, mut t) = setup();
        t.seal(SimTime::ZERO, &mut d);
        t.append_batch(&[1], SimTime::ZERO, &mut d);
    }

    #[test]
    fn buffered_tuples_available_immediately() {
        let (_p, mut d, mut t) = setup();
        t.append_batch(&[10, 20, 30], SimTime::ZERO, &mut d);
        assert_eq!(t.available(0, SimTime::ZERO), 3);
        let (tuples, instr, wake) = t.read_available(0, 2, SimTime::ZERO, &mut d);
        assert_eq!(tuples, vec![10, 20]);
        assert_eq!(instr, 0, "memory tail costs no I/O");
        assert!(wake.is_none());
    }

    #[test]
    fn flushed_tuples_need_prefetch_before_available() {
        let (p, mut d, mut t) = setup();
        let n = 16 * p.tuples_per_page() as u64;
        fill(&mut t, &mut d, n);
        // Nothing resident yet.
        assert_eq!(t.available(0, SimTime::ZERO), 0);
        // Arm the read-ahead; pages become resident at the wake time.
        let (instr, wake) = t.arm_readahead(0, SimTime::ZERO, &mut d);
        assert!(instr > 0);
        let ready = wake.expect("prefetch in flight");
        assert!(ready > SimTime::ZERO);
        assert_eq!(t.available(0, SimTime::ZERO), 0, "still in flight");
        assert!(t.available(0, ready) > 0, "resident after completion");
    }

    #[test]
    fn a_window_in_flight_is_named_once() {
        let (p, mut d, mut t) = setup();
        fill(&mut t, &mut d, 32 * p.tuples_per_page() as u64);
        let (_i, wake) = t.arm_readahead(0, SimTime::ZERO, &mut d);
        assert!(wake.is_some(), "a new window names its ready time");
        let pages_read = d.pages_read();
        // Same instant, nothing new to fetch: no second wake-up.
        assert_eq!(t.arm_readahead(0, SimTime::ZERO, &mut d), (0, None));
        assert_eq!(d.pages_read(), pages_read, "no I/O issued");
    }

    #[test]
    fn empty_read_names_the_window_in_flight() {
        let (p, mut d, mut t) = setup();
        fill(&mut t, &mut d, 32 * p.tuples_per_page() as u64);
        let (_i, wake) = t.arm_readahead(0, SimTime::ZERO, &mut d);
        let ready = wake.unwrap();
        let (tuples, instr, wake) = t.read_available(0, 128, SimTime::ZERO, &mut d);
        assert!(tuples.is_empty());
        assert_eq!(instr, 0);
        assert_eq!(wake, Some(ready), "an empty read has a time to wait for");
    }

    #[test]
    fn steady_scan_stays_ahead_of_consumer() {
        let (p, mut d, mut t) = setup();
        let tpp = p.tuples_per_page() as u64;
        let n = 32 * tpp;
        fill(&mut t, &mut d, n);
        // Cold start: arm and wait.
        let (_i, wake) = t.arm_readahead(0, SimTime::ZERO, &mut d);
        let mut now = wake.unwrap();
        let mut pos = 0u64;
        let mut waits = 0u32;
        while pos < t.flushed() {
            let (tuples, _instr, wake) = t.read_available(pos, 128, now, &mut d);
            if tuples.is_empty() {
                waits += 1;
                now = wake.expect("empty read must come with a wake-up");
                continue;
            }
            pos += tuples.len() as u64;
            // Consumer CPU is slower than the disk here: 50 µs per batch.
            now += SimDuration::from_micros(50);
        }
        // With a slow consumer the two-batch window hides almost all reads.
        assert!(waits <= 3, "slow consumer should rarely wait, got {waits}");
    }

    #[test]
    fn fast_consumer_is_paced_by_the_disk() {
        let (p, mut d, mut t) = setup();
        // Longer than the read-ahead window so the consumer can outrun it.
        let n = 400 * p.tuples_per_page() as u64;
        fill(&mut t, &mut d, n);
        let (_i, wake) = t.arm_readahead(0, SimTime::ZERO, &mut d);
        let mut now = wake.unwrap();
        let mut pos = 0u64;
        let mut waits = 0u32;
        while pos < t.flushed() {
            // Instant consumer: no CPU time between reads.
            let (tuples, _instr, wake) = t.read_available(pos, 100_000, now, &mut d);
            pos += tuples.len() as u64;
            if pos < t.flushed() {
                if let Some(w) = wake {
                    if w > now {
                        waits += 1;
                        now = w;
                    }
                }
            }
        }
        assert!(waits >= 1, "an instant consumer must wait for the device");
    }

    #[test]
    fn read_past_end_clamps() {
        let (_p, mut d, mut t) = setup();
        t.append_batch(&[1, 2], SimTime::ZERO, &mut d);
        let (tuples, _, _) = t.read_available(0, 10, SimTime::ZERO, &mut d);
        assert_eq!(tuples, vec![1, 2]);
        let (empty, instr, wake) = t.read_available(2, 10, SimTime::ZERO, &mut d);
        assert!(empty.is_empty());
        assert_eq!(instr, 0);
        assert!(wake.is_none());
    }

    #[test]
    fn readable_from_tracks_appends() {
        let (_p, mut d, mut t) = setup();
        let now = SimTime::ZERO;
        assert_eq!(t.available(0, now), 0);
        t.append_batch(&[1, 2, 3], now, &mut d);
        assert_eq!(t.available(0, now), 3);
        assert_eq!(t.available(2, now), 1);
        assert_eq!(t.available(5, now), 0);
    }

    #[test]
    fn mixed_flushed_and_tail_reads_in_order() {
        let (p, mut d, mut t) = setup();
        let tpp = p.tuples_per_page() as u64;
        let n = 8 * tpp + 5; // 8 flushed pages plus a 5-tuple memory tail
        fill(&mut t, &mut d, n);
        assert_eq!(t.flushed(), 8 * tpp);
        // Prefetch everything flushed.
        let (_i, wake) = t.arm_readahead(0, SimTime::ZERO, &mut d);
        let now = wake.unwrap();
        // Whole relation (flushed + tail) is contiguously available.
        assert_eq!(t.available(0, now), n);
        let (tuples, _, _) = t.read_available(0, n + 10, now, &mut d);
        assert_eq!(tuples.len() as u64, n);
        assert_eq!(tuples[0], 0);
        assert_eq!(tuples[n as usize - 1], n - 1);
    }
}
