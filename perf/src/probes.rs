//! Layer probes: a fixed-count loop over one layer's public functions,
//! timed from here, repeated five times, median reported. Each gives the
//! ceiling of a layer on its own — the number to look at when an
//! end-to-end metric moves and the question is which layer moved it.
//!
//! The deterministic model numbers at the bottom (strategy responses, the
//! LWB) are single runs on the simulated clock: they repeat exactly.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io;
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dqs_adapt::{PermutationPlanner, RateObserver, RateSample, SourceScore};
use dqs_cache::{CacheConfig, CacheKey, EntrySnapshot, ScanCache};
use dqs_core::lwb::lwb;
use dqs_core::session::{AdmissionPolicy, Decision, SessionConfig, SessionTable};
use dqs_core::DsePolicy;
use dqs_exec::{
    json, run_workload, MaPolicy, ScramblingPolicy, SeqPolicy, SpmPolicy, WorkerPool, Workload,
    WorkloadSpec,
};
use dqs_mediator::WrapperServer;
use dqs_plan::{optimize, Catalog, JoinGraph};
use dqs_reactor::{Events, Interest, Poller, TimerWheel, Token};
use dqs_refresh::{rescan_cost_us, Candidate, RefreshPlanner};
use dqs_relop::{FanoutAccumulator, HashTableArena, OpSpec, PhysChain, RelId, Tuple};
use dqs_replica::{HealthConfig, HealthTable};
use dqs_sim::{EventQueue, SimDuration, SimParams, SimTime};
use dqs_source::net::{read_frame, Frame, FrameDecoder, RelStat, WriteBuffer};
use dqs_source::{DelayModel, Notice, RemoteOpen, RemoteWrapper, ReplaySource, TupleSource};
use dqs_storage::{Disk, StreamId, TempRelation};
use dqs_workload::{generate, GenOpts};

use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{sample_done_payload, sample_specs};

const REPS: usize = 5;

/// Nanoseconds per operation of a loop that took `elapsed`.
fn ns_per(elapsed: Duration, ops: u64) -> f64 {
    elapsed.as_secs_f64() * 1e9 / ops as f64
}

fn mb_per_s(bytes: usize, elapsed: Duration) -> f64 {
    bytes as f64 / 1e6 / elapsed.as_secs_f64()
}

/// Run every probe, one span per repetition, into `out`.
pub fn run_all(rec: &mut Recorder, out: &mut BTreeMap<&'static str, f64>) {
    let mut probe = |name: &'static str, rep: &mut dyn FnMut() -> f64| {
        let values: Vec<f64> = (0..REPS).map(|_| rec.time(name, &mut *rep)).collect();
        out.insert(name, median(&values));
    };
    let params = SimParams::default();

    probe("sim.event_queue.ns_per_event", &mut || {
        const N: u64 = 100_000;
        let t = Instant::now();
        let mut q = EventQueue::<u32>::new();
        for i in 0..N {
            q.schedule(
                SimTime::from_nanos(i.wrapping_mul(2_654_435_761) % 1_000_000),
                i as u32,
            );
        }
        while let Some(ev) = q.pop() {
            black_box(ev);
        }
        ns_per(t.elapsed(), N)
    });

    probe("storage.temp.append_scan_ns_per_tuple", &mut || {
        const N: u64 = 100_000;
        let batch: Vec<Tuple> = (0..128).map(|i| Tuple::new(i, RelId(0))).collect();
        let t = Instant::now();
        let mut disk = Disk::new(params.clone());
        let mut temp = TempRelation::new(&params, StreamId(10), StreamId(11));
        let mut now = SimTime::ZERO;
        while temp.len() < N {
            black_box(temp.append_batch(&batch, now, &mut disk));
        }
        black_box(temp.seal(now, &mut disk));
        let mut pos = 0;
        while pos < temp.len() {
            let (got, _, wake) = temp.read_available(pos, 128, now, &mut disk);
            pos += got.len() as u64;
            if got.is_empty() {
                now = wake.expect("an empty read names its wake-up time");
            }
            black_box(got);
        }
        ns_per(t.elapsed(), temp.len())
    });

    probe("relop.hash_build.tuples_per_s", &mut || {
        let tuples: Vec<Tuple> = (0..100_000).map(|i| Tuple::new(i, RelId(0))).collect();
        let t = Instant::now();
        let mut arena = HashTableArena::new();
        let ht = arena.alloc();
        let mut chain = PhysChain::compile(&[OpSpec::Build { table: ht }]);
        black_box(chain.run_batch(&tuples, &mut arena, &params));
        tuples.len() as f64 / t.elapsed().as_secs_f64()
    });

    let mut probed = HashTableArena::new();
    let probed_ht = probed.alloc();
    for i in 0..1_000 {
        probed.get_mut(probed_ht).insert(Tuple::new(i, RelId(0)));
    }
    probed.get_mut(probed_ht).complete();

    probe("relop.hash_probe.tuples_per_s", &mut || {
        let tuples: Vec<Tuple> = (0..100_000).map(|i| Tuple::new(i, RelId(1))).collect();
        let t = Instant::now();
        let mut chain = PhysChain::compile(&[OpSpec::Probe {
            table: probed_ht,
            fanout: 2.0,
        }]);
        black_box(chain.run_batch(&tuples, &mut probed, &params));
        tuples.len() as f64 / t.elapsed().as_secs_f64()
    });

    probe("relop.chain.batch128_ns", &mut || {
        const N: u64 = 2_000;
        let built = probed.alloc();
        let mut chain = PhysChain::compile(&[
            OpSpec::Select { selectivity: 0.8 },
            OpSpec::Probe {
                table: probed_ht,
                fanout: 1.2,
            },
            OpSpec::Build { table: built },
        ]);
        let tuples: Vec<Tuple> = (0..128).map(|i| Tuple::new(i, RelId(1))).collect();
        let t = Instant::now();
        for _ in 0..N {
            black_box(chain.run_batch(&tuples, &mut probed, &params));
        }
        let per_batch = ns_per(t.elapsed(), N);
        probed.discard(built);
        per_batch
    });

    probe("relop.fanout.ns_per_tuple", &mut || {
        const N: u64 = 1_000_000;
        let t = Instant::now();
        let mut acc = FanoutAccumulator::new(1.37);
        let mut total = 0u64;
        for _ in 0..N {
            total += acc.next();
        }
        black_box(total);
        ns_per(t.elapsed(), N)
    });

    let specs = sample_specs(8);
    probe("plan.spec_to_workload_us", &mut || {
        const N: u64 = 1_000;
        let t = Instant::now();
        for i in 0..N as usize {
            let w = WorkloadSpec::from_json(&specs[i % specs.len()])
                .and_then(WorkloadSpec::into_workload)
                .expect("generated specs parse and plan");
            black_box(w);
        }
        ns_per(t.elapsed(), N) / 1e3
    });

    probe("plan.optimizer_us_per_query", &mut || {
        const N: u64 = 100;
        // A six-relation chain, the width of the paper's Figure 5 query.
        let mut catalog = Catalog::new();
        let rels: Vec<RelId> = (0..6u64)
            .map(|i| catalog.add(format!("r{i}"), 10_000 + 7_000 * i))
            .collect();
        let mut graph = JoinGraph::new();
        for pair in rels.windows(2) {
            graph.join(pair[0], pair[1], 1e-4);
        }
        let t = Instant::now();
        for _ in 0..N {
            black_box(optimize(&catalog, &graph).expect("a chain is a connected graph"));
        }
        ns_per(t.elapsed(), N) / 1e3
    });

    // The three control frames every session exchanges.
    let done_payload = sample_done_payload();
    let small = [
        Frame::Submit {
            strategy: "dse".into(),
            trace: false,
            no_cache: false,
            seed: None,
            spec_json: specs[0].clone(),
        },
        Frame::Accepted {
            session: 7,
            memory_bytes: 32 << 20,
        },
        Frame::Done {
            metrics_json: done_payload.clone(),
        },
    ];
    probe("source.net.encode_small_ns_per_frame", &mut || {
        const ROUNDS: u64 = 20_000;
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for f in &small {
                black_box(f.encode());
            }
        }
        ns_per(t.elapsed(), ROUNDS * small.len() as u64)
    });
    let small_wire: Vec<u8> = small.iter().flat_map(Frame::encode).collect();
    probe("source.net.decode_small_ns_per_frame", &mut || {
        const ROUNDS: u64 = 20_000;
        let t = Instant::now();
        for _ in 0..ROUNDS {
            let mut wire = small_wire.as_slice();
            while let Some(f) = read_frame(&mut wire).expect("own encoding decodes") {
                black_box(f);
            }
        }
        ns_per(t.elapsed(), ROUNDS * small.len() as u64)
    });

    let bulk = Frame::TupleBatch {
        rel: RelId(3),
        keys: (0..256u64).map(|i| i.wrapping_mul(2_654_435_761)).collect(),
    };
    let bulk_len = bulk.encode().len();
    const BULK_FRAMES: usize = 10_000;
    probe("source.net.encode_bulk_mb_per_s", &mut || {
        let t = Instant::now();
        for _ in 0..BULK_FRAMES {
            black_box(bulk.encode());
        }
        mb_per_s(BULK_FRAMES * bulk_len, t.elapsed())
    });
    let bulk_wire: Vec<u8> = (0..32).flat_map(|_| bulk.encode()).collect();
    probe("source.net.decode_bulk_mb_per_s", &mut || {
        let t = Instant::now();
        let mut decoder = FrameDecoder::new();
        for _ in 0..BULK_FRAMES / 32 {
            // The mediator's read size: whatever one `read` returned.
            for chunk in bulk_wire.chunks(16 * 1024) {
                decoder.feed(chunk);
                while let Some(f) = decoder.next_frame().expect("own encoding decodes") {
                    black_box(f);
                }
            }
        }
        mb_per_s(BULK_FRAMES * bulk_len, t.elapsed())
    });
    probe("source.net.writebuffer_flush_mb_per_s", &mut || {
        let t = Instant::now();
        let mut wb = WriteBuffer::new();
        let mut sink = io::sink();
        for _ in 0..BULK_FRAMES / 32 {
            for _ in 0..32 {
                wb.push(&bulk);
            }
            black_box(wb.flush(&mut sink).expect("a sink accepts every byte"));
        }
        mb_per_s(BULK_FRAMES * bulk_len, t.elapsed())
    });

    // One zero-delay wrapper server for both remote-source probes.
    let wrapper = WrapperServer::bind("127.0.0.1:0").expect("bind wrapper server");
    let wrapper_addr = wrapper.local_addr();
    let open = |total: u64| RemoteOpen {
        rel: RelId(0),
        total,
        window: 816,
        seed: 42,
        stream: "wrapper:probe".into(),
        delay: DelayModel::Constant {
            w: SimDuration::ZERO,
        },
        resume_from: 0,
    };
    probe("source.remote.scan_tuples_per_s", &mut || {
        const N: u64 = 20_000;
        let t = Instant::now();
        let (ntx, nrx) = channel();
        let mut w = RemoteWrapper::connect(wrapper_addr, open(N), ntx, Duration::from_secs(30))
            .expect("connect to the probe wrapper");
        w.start();
        while !w.exhausted() {
            match nrx.recv().expect("the pump holds a sender until Eof") {
                Notice::Arrival(_) => {
                    black_box(w.emit());
                }
                other => panic!("probe scan faulted: {other:?}"),
            }
        }
        N as f64 / t.elapsed().as_secs_f64()
    });
    probe("source.remote.open_us", &mut || {
        const N: u64 = 40;
        let t = Instant::now();
        for _ in 0..N {
            let (ntx, nrx) = channel();
            let mut w = RemoteWrapper::connect(wrapper_addr, open(1), ntx, Duration::from_secs(30))
                .expect("connect to the probe wrapper");
            w.start();
            match nrx.recv().expect("the pump holds a sender until Eof") {
                Notice::Arrival(_) => {
                    black_box(w.emit());
                }
                other => panic!("probe open faulted: {other:?}"),
            }
        }
        ns_per(t.elapsed(), N) / 1e3
    });
    wrapper.shutdown();

    let recorded: Arc<Vec<u64>> = Arc::new((0..200_000u64).collect());
    probe("source.cached.replay_mb_per_s", &mut || {
        let t = Instant::now();
        let mut src = ReplaySource::new(RelId(0), Arc::clone(&recorded));
        while src.next_gap().is_some() {
            black_box(src.emit());
        }
        mb_per_s(recorded.len() * 8, t.elapsed())
    });

    probe("replica.select_ns", &mut || {
        const N: u64 = 100_000;
        let addrs = (0..4).map(|i| format!("10.0.0.{i}:7400")).collect();
        let mut table = HealthTable::new(addrs, HealthConfig::default());
        for idx in 0..4 {
            table.record_open(idx);
            table.record_batch(idx, 100, 1_000_000 * (idx as u64 + 1));
        }
        let t = Instant::now();
        for now in 0..N {
            black_box(table.select(now));
        }
        ns_per(t.elapsed(), N)
    });

    let scan_key = |i: u64| CacheKey::for_scan("w0", RelId(0), 128, i, "wrapper:probe");
    let payload: Vec<u64> = (0..128).collect();
    let entry_bytes = dqs_cache::payload_bytes(payload.len()) + dqs_cache::ENTRY_OVERHEAD_BYTES;
    probe("cache.lookup_ns", &mut || {
        const N: u64 = 100_000;
        let mut cache = ScanCache::new(CacheConfig {
            budget_bytes: 256 * entry_bytes,
            ttl_ms: None,
        });
        let keys: Vec<CacheKey> = (0..256).map(scan_key).collect();
        for k in &keys {
            cache.insert(k.clone(), payload.clone(), 0);
        }
        let t = Instant::now();
        for i in 0..N {
            black_box(cache.lookup(&keys[i as usize % keys.len()], i));
        }
        ns_per(t.elapsed(), N)
    });
    probe("cache.insert_evict_ns", &mut || {
        const N: u64 = 5_000;
        // Room for sixteen entries: all but the first inserts evict.
        let mut cache = ScanCache::new(CacheConfig {
            budget_bytes: 16 * entry_bytes,
            ttl_ms: None,
        });
        let mut scans: Vec<(CacheKey, Vec<u64>)> =
            (0..N).map(|i| (scan_key(i), payload.clone())).collect();
        let t = Instant::now();
        for (i, (key, keys)) in scans.drain(..).enumerate() {
            black_box(cache.insert(key, keys, i as u64));
        }
        ns_per(t.elapsed(), N)
    });

    probe("refresh.plan_ns_per_entry", &mut || {
        const ENTRIES: u64 = 1_000;
        const ROUNDS: u64 = 20;
        let delay = DelayModel::Constant {
            w: SimDuration::from_micros(100),
        };
        // A third current, a third grown insert-only, a third rewritten.
        let candidates: Vec<Candidate> = (0..ENTRIES)
            .map(|i| Candidate {
                snapshot: EntrySnapshot {
                    key: scan_key(i),
                    len: 500,
                    version: 1,
                    hits: i % 17,
                    age_ms: 100 + i,
                    stale: false,
                },
                stat: RelStat {
                    rel: RelId(0),
                    version: 1 + i % 3,
                    total: 500 + 64 * (i % 3),
                    rewrite_version: if i % 3 == 2 { 3 } else { 0 },
                },
                rescan_cost_us: rescan_cost_us(&delay, 500),
            })
            .collect();
        let planner = RefreshPlanner::from_rate(256, Duration::from_secs(1));
        let t = Instant::now();
        for _ in 0..ROUNDS {
            black_box(planner.plan(&candidates));
        }
        ns_per(t.elapsed(), ROUNDS * ENTRIES)
    });

    probe("adapt.observe_ns_per_sample", &mut || {
        const N: u64 = 100_000;
        let mut obs = RateObserver::new(6);
        let t = Instant::now();
        for i in 0..N {
            black_box(obs.observe(
                (i % 6) as usize,
                RateSample {
                    at_nanos: i * 250_000,
                    tuples: i * 3,
                    gap_hint_nanos: Some(80_000.0),
                    flow_controlled: i % 11 == 0,
                },
            ));
        }
        ns_per(t.elapsed(), N)
    });
    probe("adapt.replan_ns", &mut || {
        const N: u64 = 20_000;
        let mut planner = PermutationPlanner::new();
        let t = Instant::now();
        for i in 0..N {
            // Rates rotate, so about every other call re-permutes.
            let live: Vec<SourceScore> = (0..6usize)
                .map(|src| SourceScore {
                    src,
                    rate: Some(1_000.0 * (1 + (src + i as usize / 2) % 6) as f64),
                    lower_bound_nanos: 1_000_000,
                })
                .collect();
            black_box(planner.replan(&live));
        }
        ns_per(t.elapsed(), N)
    });

    probe("exec.pool.dispatch_ns_per_morsel", &mut || {
        const ROUNDS: u64 = 200;
        const MORSELS: u64 = 64;
        let pool = WorkerPool::new(2);
        let t = Instant::now();
        for _ in 0..ROUNDS {
            let tasks: Vec<_> = (0..MORSELS).map(|i| move |_ctx| i).collect();
            black_box(pool.execute(tasks));
        }
        ns_per(t.elapsed(), ROUNDS * MORSELS)
    });
    probe("exec.json.parse_mb_per_s", &mut || {
        const N: usize = 5_000;
        let t = Instant::now();
        for _ in 0..N {
            black_box(json::parse(&done_payload).expect("the mediator writes valid JSON"));
        }
        mb_per_s(N * done_payload.len(), t.elapsed())
    });

    for (name, policy) in [
        ("core.session.submit_finish_fifo_ns", AdmissionPolicy::Fifo),
        ("core.session.submit_finish_sjf_ns", AdmissionPolicy::Sjf),
    ] {
        probe(name, &mut || {
            const ROUNDS: u64 = 200;
            const BACKLOG: u64 = 64;
            let mut table = SessionTable::new(SessionConfig {
                max_concurrent: 2,
                backlog: BACKLOG as usize,
                policy,
                ..SessionConfig::default()
            });
            let t = Instant::now();
            for _ in 0..ROUNDS {
                // Fill both slots and the backlog, then drain: every
                // finish promotes the waiter the policy picks.
                let mut running = Vec::new();
                for i in 0..BACKLOG + 2 {
                    if let Decision::Admit { session, .. } =
                        table.submit_with(i.wrapping_mul(2_654_435_761) % 1_000, i % 4)
                    {
                        running.push(session);
                    }
                }
                while let Some(session) = running.pop() {
                    running.extend(table.finish(session));
                }
            }
            ns_per(t.elapsed(), ROUNDS * (BACKLOG + 2))
        });
    }

    probe("reactor.wake_roundtrip_ns", &mut || {
        const N: u64 = 20_000;
        let mut poller = Poller::new().expect("create poller");
        let waker = poller.waker();
        let mut events = Events::new();
        let t = Instant::now();
        for _ in 0..N {
            waker.wake();
            poller
                .wait(&mut events, Some(Duration::from_secs(1)))
                .expect("wait on the self-pipe");
        }
        ns_per(t.elapsed(), N)
    });
    probe("reactor.timer_schedule_advance_ns", &mut || {
        const N: u64 = 20_000;
        let anchor = Instant::now();
        let mut wheel = TimerWheel::with_anchor(Duration::from_millis(1), 512, anchor);
        let mut expired = Vec::new();
        let t = Instant::now();
        for i in 0..N {
            wheel.schedule(anchor, Duration::from_micros(50 * i % 400_000), Token(i));
        }
        wheel.advance(anchor + Duration::from_millis(500), &mut expired);
        assert_eq!(expired.len() as u64, N, "every timer is due by 500 ms");
        ns_per(t.elapsed(), N)
    });
    probe("reactor.register_modify_ns", &mut || {
        const N: u64 = 20_000;
        let mut poller = Poller::new().expect("create poller");
        let socket = TcpListener::bind("127.0.0.1:0").expect("bind a socket to register");
        let fd = socket.as_raw_fd();
        let t = Instant::now();
        poller
            .register(fd, Token(1), Interest::READABLE)
            .expect("register");
        for i in 0..N {
            let interest = if i % 2 == 0 {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            poller.modify(fd, Token(1), interest).expect("modify");
        }
        poller.deregister(fd).expect("deregister");
        ns_per(t.elapsed(), N)
    });

    probe("workload.generate_ms_per_kevent", &mut || {
        const EVENTS: usize = 20_000;
        let t = Instant::now();
        black_box(generate(&GenOpts {
            events: EVENTS,
            ..GenOpts::default()
        }));
        t.elapsed().as_secs_f64() * 1e3 / (EVENTS as f64 / 1e3)
    });

    model_numbers(rec, out);
}

/// The paper's comparison on one fixed slow-delivery scenario — Figure 6
/// at X = 6 s: relation A's retrieval stretched to six seconds, everything
/// else at `w_min`, seed 101. Virtual time, so every value repeats to the
/// last digit and a change in one is a change in scheduling, not noise.
fn model_numbers(rec: &mut Recorder, out: &mut BTreeMap<&'static str, f64>) {
    let (base, f5) = Workload::fig5();
    let a = f5.rels.a;
    let mean = SimDuration::from_secs(6) / base.catalog.cardinality(a);
    let w = base
        .with_delay(a, DelayModel::Uniform { mean })
        .with_seed(101);

    let seq = rec.time("exec.strategies.model_response_seq_s", || {
        run_workload(&w, SeqPolicy)
    });
    let ma = rec.time("exec.strategies.model_response_ma_s", || {
        run_workload(&w, MaPolicy::default())
    });
    let scr = rec.time("exec.strategies.model_response_scr_s", || {
        run_workload(&w, ScramblingPolicy::new())
    });
    let dse = rec.time("exec.strategies.model_response_dse_s", || {
        run_workload(&w, DsePolicy::new())
    });
    let spm = rec.time("exec.strategies.model_response_spm_s", || {
        run_workload(&w, SpmPolicy::new())
    });
    let bound = rec.time("core.lwb.model_response_s", || {
        lwb(&w).bound().as_secs_f64()
    });

    out.insert("exec.strategies.model_response_seq_s", seq.response_secs());
    out.insert("exec.strategies.model_response_ma_s", ma.response_secs());
    out.insert("exec.strategies.model_response_scr_s", scr.response_secs());
    out.insert("exec.strategies.model_response_dse_s", dse.response_secs());
    out.insert("exec.strategies.model_response_spm_s", spm.response_secs());
    out.insert("adapt.rate_samples", spm.rate_samples as f64);
    out.insert("adapt.permutations", spm.permutations as f64);
    out.insert("core.lwb.model_response_s", bound);
    out.insert("core.dse.over_lwb", dse.response_secs() / bound);
}
