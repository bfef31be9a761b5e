//! Fragment lifecycle and batch processing — the DQP proper.
//!
//! §3.2: "the task of the DQP is to interleave the execution of the query
//! fragments in order to maximize the processor utilization with respect to
//! the priorities defined in the scheduling plan. To do so, the DQP scans
//! the queue associated with the query fragment which has the highest
//! priority and processes a certain amount of tuples called a batch (if
//! any). If the queue does not contain a sufficient amount of tuples, the
//! DQP scans the second queue in the list and so on. After each batch
//! processing, the DQP returns to the highest priority queue."

use std::sync::Arc;

use dqs_relop::Tuple;
use dqs_sim::SimTime;

use crate::driver::{Driver, Signal};
use crate::frag::{FragId, FragSink, FragSource, FragStatus};
use crate::observe::{EngineEvent, EngineObserver};
use crate::policy::{Interrupt, Policy};
use crate::pool::{TaskCtx, WorkerPool};
use crate::runtime::{Engine, Inflight};

/// Morsel granularity in source tuples. Batches at most this size (or
/// chains with no operators) always run serially.
pub(crate) const MORSEL_TUPLES: usize = 64;

/// Modeled dispatch overhead of one morsel, in instructions: a small base
/// cost plus jitter drawn deterministically from the morsel's RNG stream
/// seed `(fragment seed, morsel index)` — reproducible by construction,
/// whatever the worker count or the order the workers ran in.
fn morsel_overhead_instr(frag_seed: u64, index: u64) -> u64 {
    200 + crate::world::morsel_seed(frag_seed, index) % 101
}

impl<P: Policy, O: EngineObserver, D: Driver> Engine<P, O, D> {
    /// Scan the scheduling plan for the next runnable batch and start it;
    /// finalizes completed fragments and loops until a batch is on the CPU,
    /// the query finished, or nothing is runnable (stall).
    pub(crate) fn try_dispatch(&mut self) {
        loop {
            if self.inflight.is_some() || self.output_done_at.is_some() || self.aborted.is_some() {
                return;
            }
            // Finalize every fragment that is complete without further
            // processing (drained sources, zero-tuple relations, sealed and
            // consumed temps). Finalizing only retires fragments, and the
            // range stops at the fragments that exist now.
            let mut last_finalized = None;
            for i in 0..self.frags.len() {
                let f = FragId(i as u32);
                if self.frags.get(f).status != FragStatus::Active {
                    continue;
                }
                self.normalize_source(f);
                if self.frag_complete_now(f) {
                    self.finalize(f);
                    last_finalized = Some(f);
                }
            }
            if let Some(f) = last_finalized {
                if self.output_done_at.is_some() {
                    return;
                }
                self.replan(Interrupt::EndOfQf(f));
                continue; // plan changed; rescan
            }

            // Pick the next batch. Pass 0 is the flow-control emergency
            // lane: a fragment whose wrapper the window protocol suspended
            // is losing retrieval bandwidth every instant its queue stays
            // full, so it is drained first whatever its priority. Pass 1
            // wants a full batch from the highest priority (§3.2's
            // "sufficient amount of tuples"); pass 2 takes anything.
            let batch = self.cfg.batch_size as u64;
            let mut picked = None;
            'pick: for pass in 0..3 {
                for i in 0..self.sp.len() {
                    let f = self.sp[i];
                    if self.frags.get(f).status != FragStatus::Active {
                        continue;
                    }
                    if !self.probes_complete(f) {
                        continue;
                    }
                    self.normalize_source(f);
                    let avail = self.available_input(f);
                    let enough = match pass {
                        0 => {
                            avail > 0
                                && matches!(self.frags.get(f).source, FragSource::Queue(rel)
                                    if self.world.cm.is_suspended(rel))
                        }
                        1 => avail >= batch || (avail > 0 && self.upstream_finished(f)),
                        _ => avail > 0,
                    };
                    if enough {
                        picked = Some(f);
                        break 'pick;
                    }
                }
            }
            match picked {
                Some(f) => {
                    if self.start_batch(f) {
                        return;
                    }
                    // Reservation failed: the policy replanned; rescan
                    // unless we are giving up.
                    continue;
                }
                None => {
                    // Nothing runnable: make sure pending temp reads are in
                    // flight — their completion is what will wake us.
                    let now = self.driver.now();
                    self.arm_all_readahead();
                    // Stall (§3.2): nothing schedulable has data.
                    if !self.stalled {
                        self.stalled = true;
                        self.emit(now, EngineEvent::Stalled);
                    }
                    if !self.timeout_armed && !self.cfg.timeout.is_zero() {
                        self.timeout_armed = true;
                        self.timeout_gen += 1;
                        self.driver
                            .schedule(now + self.cfg.timeout, Signal::Timeout(self.timeout_gen));
                    }
                    return;
                }
            }
        }
    }

    /// Start one batch of `f`. Returns false if a memory reservation failed
    /// (a `MemoryOverflow` planning phase was run instead).
    pub(crate) fn start_batch(&mut self, f: FragId) -> bool {
        let now = self.driver.now();

        // Reserve hash-table memory before the fragment's first build.
        if let FragSink::Build(ht) = self.frags.get(f).sink {
            if !self.ht_mem.contains_key(&ht) && !self.reserve_ht(f, ht) {
                return false;
            }
        }

        self.stalled = false;
        // The stall is over: its pending timer becomes stale.
        if self.timeout_armed {
            self.timeout_armed = false;
            self.timeout_gen += 1;
        }

        // Pull the input batch into the reusable scratch buffer.
        let batch = self.cfg.batch_size;
        let source = self.frags.get(f).source;
        let mut input = std::mem::take(&mut self.in_buf);
        input.clear();
        let (read_wait, read_instr): (Option<SimTime>, u64) = match source {
            FragSource::Queue(rel) => {
                self.world.cm.consume_into(rel, batch, &mut input);
                if let Some(at) = self.world.cm.after_consume(rel, now) {
                    self.driver.schedule(at, Signal::Arrival(rel));
                }
                (None, 0)
            }
            FragSource::Temp { temp, cursor, .. } => {
                let world = &mut self.world;
                let (tuples, instr, wake) = world.temps[temp.0 as usize].read_available(
                    cursor,
                    batch as u64,
                    now,
                    &mut world.disk,
                );
                if let FragSource::Temp { ref mut cursor, .. } = self.frags.get_mut(f).source {
                    *cursor += tuples.len() as u64;
                }
                if let Some(at) = wake {
                    self.driver.schedule(at.max(now), Signal::TempReady);
                }
                self.emit(
                    now,
                    EngineEvent::TempRead {
                        temp,
                        tuples: tuples.len() as u64,
                    },
                );
                input.extend(tuples);
                // Reads are asynchronous (§4.4): the DQP only consumes
                // resident pages and never blocks on the device.
                (None, instr)
            }
        };
        assert!(!input.is_empty(), "dispatched a fragment without input");
        self.emit(
            now,
            EngineEvent::BatchStart {
                frag: f,
                tuples: input.len() as u64,
            },
        );

        {
            let frag = self.frags.get_mut(f);
            frag.started = true;
            frag.tuples_in += input.len() as u64;
        }
        let mut out = std::mem::take(&mut self.out_buf);
        // Chain work: morsel-parallel across the worker pool when configured
        // and worthwhile, serial otherwise. `chain_instr` is the modeled CPU
        // cost charged for the chain — the W-lane makespan on the parallel
        // path, the plain instruction count on the serial one. Either way
        // the *answer* is bit-identical; only modeled time differs.
        let chain_instr = match self.run_batch_morsels(f, &input, &mut out, now) {
            Some(makespan) => makespan,
            None => {
                let frag = self.frags.get_mut(f);
                frag.chain.run_batch_into(
                    &input,
                    &mut out,
                    &mut self.world.arena,
                    &self.world.params,
                )
            }
        };
        let mut instr = chain_instr + read_instr;
        let mut sink_wait: Option<SimTime> = None;
        let mut output = 0u64;

        match self.frags.get(f).sink {
            FragSink::Build(ht) => {
                self.grow_ht_if_needed(f, ht, now);
                if self.aborted.is_some() {
                    self.in_buf = input;
                    self.out_buf = out;
                    return true; // batch charged; abort surfaces next loop
                }
            }
            FragSink::Mat(temp) => {
                // The mat operator moves each tuple into the I/O buffer.
                instr += out.len() as u64 * self.world.params.instr_move_tuple;
                let world = &mut self.world;
                let charge = world.temps[temp.0 as usize].append_batch(&out, now, &mut world.disk);
                instr += charge.cpu_instr;
                self.emit(
                    now,
                    EngineEvent::TempWrite {
                        temp,
                        tuples: out.len() as u64,
                    },
                );
                if self.frags.get(f).sync_mat_io {
                    // Naive synchronous materialization (MA): the batch is
                    // not done until the page write lands.
                    if let Some(done) = charge.device_done {
                        sink_wait = Some(done);
                    }
                }
            }
            FragSink::Output => {
                output = out.len() as u64;
            }
        }
        self.in_buf = input;
        self.out_buf = out;

        let modelled = self.world.params.instr_time(instr);
        let service = self.driver.cpu_service(now, modelled);
        let grant = self.world.cpu.acquire(now, service);
        let done_at = [read_wait, sink_wait]
            .into_iter()
            .flatten()
            .fold(grant.finish, SimTime::max);
        self.driver.schedule(done_at, Signal::BatchDone);
        self.inflight = Some(Inflight { frag: f, output });
        true
    }

    /// Run one admitted batch morsel-parallel across the worker pool.
    ///
    /// Returns the modeled chain cost to charge — the makespan of a greedy
    /// earliest-finish assignment of per-morsel costs onto `workers` lanes —
    /// with `out` holding the merged open-end survivors, or `None` when the
    /// batch should take the serial path instead: parallelism not configured,
    /// batch too small to split, nothing to do per tuple, or no memory for
    /// the per-worker scratch slabs (a *silent* fallback — see
    /// [`Engine::reserve_morsel_slab`]).
    ///
    /// Determinism: morsels are carved at fixed offsets, forked
    /// arithmetically from the master chain state, and merged in morsel-index
    /// order; the modeled makespan likewise assigns morsels to lanes in index
    /// order. Neither the answer, the charged time nor the event stream
    /// depends on which physical worker ran a morsel.
    pub(crate) fn run_batch_morsels(
        &mut self,
        f: FragId,
        input: &[Tuple],
        out: &mut Vec<Tuple>,
        now: SimTime,
    ) -> Option<u64> {
        let workers = self.cfg.workers;
        let morsel = MORSEL_TUPLES;
        if workers <= 1 || input.len() <= morsel {
            return None;
        }
        if self.frags.get(f).chain.spec().is_empty() {
            // A pass-through chain is a memcpy; splitting it buys nothing.
            return None;
        }

        // Account the workers' scratch slabs against the query's memory
        // grant: every morsel's input copy plus the estimated output
        // partitions exist concurrently until the merge.
        let est = dqs_relop::estimate_chain(self.frags.get(f).chain.spec(), &self.world.params);
        let est_out = (input.len() as f64 * est.fanout_total).ceil() as u64;
        let slab_bytes = self
            .world
            .params
            .bytes_for_tuples(input.len() as u64 + est_out);
        let slab = self.reserve_morsel_slab(slab_bytes)?;

        // Prefer the driver- or builder-attached pool; otherwise latch the
        // process-global one on first parallel batch.
        let pool = match &self.pool {
            Some(p) => Arc::clone(p),
            None => {
                let p = Arc::clone(WorkerPool::global());
                self.pool = Some(Arc::clone(&p));
                p
            }
        };

        let frag_seed = self.frags.get(f).seed;
        let stats = self.frags.get(f).chain.snapshot_stats(&self.world.arena);
        let params = self.world.params.clone();

        let mut tasks = Vec::with_capacity(input.len().div_ceil(morsel));
        for (i, chunk) in input.chunks(morsel).enumerate() {
            self.emit(
                now,
                EngineEvent::MorselDispatched {
                    frag: f,
                    index: i as u64,
                    tuples: chunk.len() as u64,
                },
            );
            let cursor = self
                .frags
                .get(f)
                .chain
                .fork_morsel((i * morsel) as u64, &stats);
            let chunk = chunk.to_vec();
            let stats = stats.clone();
            let params = params.clone();
            tasks.push(move |_: TaskCtx| {
                let mut cursor = cursor;
                let mut part = Vec::new();
                let instr = cursor.run_into(&chunk, &mut part, &stats, &params);
                (part, instr)
            });
        }
        let results = pool.execute(tasks);

        // Merge in morsel-index order: partitions into the build table (or
        // the open-end output buffer) and per-morsel costs onto the modeled
        // lanes. Greedy earliest-finish in a fixed order keeps the makespan
        // a pure function of the morsel costs.
        out.clear();
        let build = self.frags.get(f).chain.build_target();
        let mut lanes = vec![0u64; workers];
        for (i, (part, instr)) in results.into_iter().enumerate() {
            let lane = (0..workers).min_by_key(|&j| lanes[j]).expect("workers > 1");
            lanes[lane] += instr + morsel_overhead_instr(frag_seed, i as u64);
            match build {
                Some(ht) => self.world.arena.get_mut(ht).absorb(part.len() as u64),
                None => out.extend_from_slice(&part),
            }
        }

        // Fast-forward the master chain past the batch the morsels executed
        // on its behalf.
        let emitted = self
            .frags
            .get_mut(f)
            .chain
            .advance_source(input.len() as u64, &stats);
        debug_assert_eq!(
            emitted,
            if build.is_some() { 0 } else { out.len() as u64 },
            "arithmetic fast-forward disagrees with executed morsels"
        );

        self.world.memory.release(slab);
        Some(lanes.into_iter().max().unwrap_or(0))
    }

    // ------------------------------------------------------------------
    // Fragment state helpers
    // ------------------------------------------------------------------

    /// Issue asynchronous read-ahead for every active temp-sourced
    /// fragment, scheduling one wake-up per newly issued window.
    pub(crate) fn arm_all_readahead(&mut self) {
        let now = self.driver.now();
        let world = &mut self.world;
        for fr in self
            .frags
            .iter()
            .filter(|fr| fr.status == FragStatus::Active)
        {
            let FragSource::Temp { temp, cursor, .. } = fr.source else {
                continue;
            };
            let (instr, wake) =
                world.temps[temp.0 as usize].arm_readahead(cursor, now, &mut world.disk);
            if instr > 0 {
                let t = world.params.instr_time(instr);
                world.cpu.acquire(now, self.driver.cpu_service(now, t));
            }
            if let Some(at) = wake {
                self.driver.schedule(at.max(now), Signal::TempReady);
            }
        }
    }

    /// Swap a drained-temp source over to its live queue (MF cancelled
    /// hand-off). The retired MF's operators are prepended to the chain —
    /// with their live accumulator state — so tuples that now bypass the
    /// temp still see the same scan predicate with the same deterministic
    /// rounding.
    pub(crate) fn normalize_source(&mut self, f: FragId) {
        let frag = self.frags.get(f);
        if let FragSource::Temp {
            temp,
            cursor,
            then_queue: Some(rel),
        } = frag.source
        {
            let t = self.world.temp(temp);
            if t.is_sealed() && cursor >= t.len() {
                if let Some(mf) = self.frags.get_mut(f).handoff_from.take() {
                    let front = self.frags.take_chain(mf);
                    let back = self.frags.take_chain(f);
                    self.frags.get_mut(f).chain = dqs_relop::PhysChain::concat(front, back);
                }
                self.frags.get_mut(f).source = FragSource::Queue(rel);
            }
        }
    }

    pub(crate) fn available_input(&self, f: FragId) -> u64 {
        match self.frags.get(f).source {
            FragSource::Queue(rel) => self.world.cm.available(rel) as u64,
            FragSource::Temp { temp, cursor, .. } => {
                self.world.temp(temp).available(cursor, self.driver.now())
            }
        }
    }

    /// No more input will ever appear beyond what is currently available.
    pub(crate) fn upstream_finished(&self, f: FragId) -> bool {
        match self.frags.get(f).source {
            FragSource::Queue(rel) => self.world.cm.exhausted(rel),
            FragSource::Temp {
                temp, then_queue, ..
            } => then_queue.is_none() && self.world.temp(temp).is_sealed(),
        }
    }

    pub(crate) fn probes_complete(&self, f: FragId) -> bool {
        self.frags
            .get(f)
            .chain
            .probe_targets()
            .iter()
            .all(|&ht| self.world.arena.get(ht).is_complete())
    }

    pub(crate) fn frag_complete_now(&self, f: FragId) -> bool {
        let frag = self.frags.get(f);
        if frag.status != FragStatus::Active {
            return false;
        }
        match frag.source {
            FragSource::Queue(rel) => self.world.cm.drained(rel),
            FragSource::Temp {
                temp,
                cursor,
                then_queue,
            } => {
                let t = self.world.temp(temp);
                then_queue.is_none() && t.is_sealed() && cursor >= t.len()
            }
        }
    }

    /// Finalize `f` if it has become complete, raising `EndOfQF`.
    pub(crate) fn maybe_finalize(&mut self, f: FragId) {
        self.normalize_source(f);
        if self.frag_complete_now(f) {
            self.finalize(f);
            if self.output_done_at.is_none() {
                self.replan(Interrupt::EndOfQf(f));
            }
        }
    }

    pub(crate) fn finalize(&mut self, f: FragId) {
        let now = self.driver.now();
        self.frags.get_mut(f).status = FragStatus::Done;
        self.emit(now, EngineEvent::InterruptRaised(Interrupt::EndOfQf(f)));
        match self.frags.get(f).sink {
            FragSink::Build(ht) => {
                self.world.arena.get_mut(ht).complete();
            }
            FragSink::Mat(temp) => {
                let world = &mut self.world;
                let charge = world.temps[temp.0 as usize].seal(now, &mut world.disk);
                if charge.cpu_instr > 0 {
                    let t = world.params.instr_time(charge.cpu_instr);
                    world.cpu.acquire(now, self.driver.cpu_service(now, t));
                }
            }
            FragSink::Output => {
                let query = self.plan.chains.chain(self.frags.get(f).pc).query;
                self.output_times.push((query, now));
                self.outputs_pending -= 1;
                if self.outputs_pending == 0 {
                    self.output_done_at = Some(now);
                }
            }
        }
        // This fragment was the sole consumer of the tables it probed:
        // drop their contents and release their memory.
        self.release_probe_memory(f);
    }
}
