//! Engine-mechanics tests that exercise specific DQP behaviours through
//! the public API: tracing, the window-protocol emergency lane,
//! synchronous vs write-behind materialization, the MF-cancellation
//! hand-off, the stall timer's staleness rule, and the deadlock verdict.

use dqs_exec::{
    run_workload, Engine, EngineEvent, EngineObserver, FragId, Interrupt, MaPolicy, PlanCtx,
    Policy, RunError, SeqPolicy, Workload,
};
use dqs_plan::{Catalog, QepBuilder};
use dqs_relop::RelId;
use dqs_sim::{SimDuration, SimTime};
use dqs_source::DelayModel;

fn two_way(card_a: u64, card_b: u64) -> Workload {
    let mut cat = Catalog::new();
    let a = cat.add("A", card_a);
    let b = cat.add("B", card_b);
    let mut qb = QepBuilder::new();
    let sa = qb.scan(a, 1.0);
    let sb = qb.scan(b, 1.0);
    let j = qb.hash_join(sa, sb, 1.0);
    Workload::new(cat, qb.finish(j).unwrap())
}

/// Counts the typed events a run reports.
#[derive(Default)]
struct Counts {
    arrivals: u64,
    plans: u64,
    end_of_qf: u64,
    timeouts: u64,
}

impl EngineObserver for Counts {
    fn on_event(&mut self, _at: SimTime, ev: &EngineEvent<'_>) {
        match ev {
            EngineEvent::Arrival { .. } => self.arrivals += 1,
            EngineEvent::PlanComputed { .. } => self.plans += 1,
            EngineEvent::InterruptRaised(Interrupt::EndOfQf(_)) => self.end_of_qf += 1,
            EngineEvent::InterruptRaised(Interrupt::Timeout) => self.timeouts += 1,
            _ => {}
        }
    }
}

#[test]
fn trace_records_all_event_kinds() {
    let w = two_way(2_000, 2_000);
    let mut seen = Counts::default();
    let m = Engine::with_observer(&w, SeqPolicy, &mut seen)
        .try_run()
        .unwrap();
    assert_eq!(seen.arrivals, 4_000, "one event per tuple arrival");
    assert_eq!(seen.plans, m.plans, "events and metrics agree on planning");
    assert_eq!(seen.end_of_qf, 2, "one EndOfQF per chain");
    assert_eq!(seen.end_of_qf, m.end_of_qf);
}

#[test]
fn tracing_off_by_default_and_costless() {
    let w = two_way(1_000, 1_000);
    let observed = Engine::with_observer(&w, SeqPolicy, Counts::default())
        .try_run()
        .unwrap();
    let unobserved = Engine::new(&w, SeqPolicy).try_run().unwrap();
    // Virtual-time results are identical whether or not anyone listens.
    assert_eq!(observed.response_time, unobserved.response_time);
    assert_eq!(observed.events, unobserved.events);
}

#[test]
fn window_protocol_bounds_queue_memory() {
    // A tiny queue forces constant suspend/resume; the run must still
    // complete with the same answer, just slower end-to-end retrieval.
    let mut small = two_way(5_000, 5_000);
    small.config.queue_capacity = 130;
    small.config.batch_size = 128;
    let m_small = run_workload(&small, SeqPolicy);

    let mut big = two_way(5_000, 5_000);
    big.config.queue_capacity = 100_000;
    let m_big = run_workload(&big, SeqPolicy);

    assert_eq!(m_small.output_tuples, m_big.output_tuples);
    assert!(
        m_small.response_time >= m_big.response_time,
        "tight flow control cannot be faster: {} vs {}",
        m_small.response_time,
        m_big.response_time
    );
}

#[test]
fn ma_sync_writes_cost_more_than_write_behind() {
    // MA's naive synchronous spooling must be slower than the same volume
    // written behind. Compare MA against a hand-built DSE-free proxy: the
    // same workload with MA's sync flag is what MaPolicy sets; asserting
    // the response exceeds SEQ (which writes nothing) plus the pure
    // transfer time of its pages catches the synchronous stalls.
    let w = two_way(30_000, 30_000);
    let seq = run_workload(&w, SeqPolicy);
    let ma = run_workload(&w, MaPolicy::default());
    let pages = ma.pages_written as f64;
    let transfer = pages * 8_192.0 / 6_000_000.0;
    assert!(
        ma.response_secs() > seq.response_secs() + 0.5 * transfer,
        "MA {:.3}s should pay for its synchronous writes over SEQ {:.3}s (+{:.3}s transfer)",
        ma.response_secs(),
        seq.response_secs(),
        transfer
    );
}

#[test]
fn timeout_zero_disables_the_stall_timer() {
    let mut w = two_way(1_000, 1_000).with_delay(
        RelId(0),
        DelayModel::Initial {
            initial: SimDuration::from_millis(500),
            mean: SimDuration::from_micros(20),
        },
    );
    w.config.timeout = SimDuration::ZERO;
    let m = run_workload(&w, SeqPolicy);
    assert_eq!(m.timeouts, 0, "no timer, no TimeOut interruptions");
    assert_eq!(m.output_tuples, 1_000);
}

#[test]
fn stall_time_matches_initial_delay() {
    // With a 1-second initial delay on the build side and SEQ, the engine
    // must account roughly that second as stall time.
    let w = two_way(2_000, 2_000).with_delay(
        RelId(0),
        DelayModel::Initial {
            initial: SimDuration::from_secs(1),
            mean: SimDuration::from_micros(20),
        },
    );
    let m = run_workload(&w, SeqPolicy);
    let stall = m.stall_time.as_secs_f64();
    assert!(
        (0.9..1.3).contains(&stall),
        "stall {stall:.3}s should be about the 1 s initial delay"
    );
}

#[test]
fn cpu_accounting_is_conserved() {
    // CPU busy time must be strictly positive, at most the response time,
    // and must scale roughly linearly with the input volume.
    let m1 = run_workload(&two_way(5_000, 5_000), SeqPolicy);
    let m2 = run_workload(&two_way(10_000, 10_000), SeqPolicy);
    assert!(m1.cpu_busy > SimDuration::ZERO);
    assert!(m1.cpu_busy <= m1.response_time);
    let ratio = m2.cpu_busy.as_secs_f64() / m1.cpu_busy.as_secs_f64();
    assert!(
        (1.8..2.2).contains(&ratio),
        "doubling tuples should double CPU work: {ratio:.3}"
    );
}

/// The stall-timer events of a run, in order.
#[derive(Debug, Clone, Copy, PartialEq)]
enum StallEvent {
    Stalled,
    TimeOut,
    BatchStart,
}

#[derive(Default)]
struct StallLog(Vec<(SimTime, StallEvent)>);

impl EngineObserver for StallLog {
    fn on_event(&mut self, at: SimTime, ev: &EngineEvent<'_>) {
        let kind = match ev {
            EngineEvent::Stalled => StallEvent::Stalled,
            EngineEvent::InterruptRaised(Interrupt::Timeout) => StallEvent::TimeOut,
            EngineEvent::BatchStart { .. } => StallEvent::BatchStart,
            _ => return,
        };
        self.0.push((at, kind));
    }
}

#[test]
fn a_stale_stall_timer_never_raises_timeout() {
    // A's bursts pause 3 ms and B's 8 ms around a 5 ms timeout: a stall
    // waiting on A ends in a batch before its timer fires, leaving that
    // timer stale in the queue; a stall waiting on B outlasts it.
    let timeout = SimDuration::from_millis(5);
    let bursty = |pause_ms| DelayModel::Bursty {
        burst: 300,
        within: SimDuration::from_micros(10),
        pause: SimDuration::from_millis(pause_ms),
    };
    let mut w = two_way(3_000, 3_000)
        .with_delay(RelId(0), bursty(3))
        .with_delay(RelId(1), bursty(8));
    w.config.timeout = timeout;
    let mut log = StallLog::default();
    let m = Engine::with_observer(&w, SeqPolicy, &mut log)
        .try_run()
        .unwrap();
    let log = log.0;

    // The timer a TimeOut fires from was armed by the latest Stalled or
    // TimeOut, exactly `timeout` earlier, and no batch ran since.
    let mut raised = 0;
    for (i, &(at, kind)) in log.iter().enumerate().skip(1) {
        if kind != StallEvent::TimeOut {
            continue;
        }
        raised += 1;
        let (armed_at, armed_by) = log[i - 1];
        assert_ne!(
            armed_by,
            StallEvent::BatchStart,
            "TimeOut at {at} after a batch ended its stall"
        );
        assert_eq!(armed_at + timeout, at, "TimeOut at {at} from a stale timer");
    }
    assert!(raised > 0, "B's pauses outlast the timeout");
    assert_eq!(m.timeouts, raised);

    // Some stall ended in a batch before its timer: a stale timer fired.
    let outlived = log.windows(2).any(|p| {
        let [(stalled_at, StallEvent::Stalled), (at, StallEvent::BatchStart)] = p else {
            return false;
        };
        *at < *stalled_at + timeout
    });
    assert!(outlived, "no stall ended before its timer");
}

/// Schedules nothing, ever.
struct Idle;

impl Policy for Idle {
    fn name(&self) -> &'static str {
        "IDLE"
    }

    fn plan(&mut self, _ctx: &mut PlanCtx<'_>, _why: Interrupt) -> Vec<FragId> {
        Vec::new()
    }
}

#[test]
fn a_plan_that_never_runs_anything_is_a_deadlock() {
    // Both 5 000-tuple wrappers fill their 816-tuple queues within ~20 ms
    // and the window protocol suspends them; from then on only the 2 s
    // stall timer could fire. The first TimeOut phase after that ends
    // the run instead of re-arming the timer forever.
    let mut seen = Counts::default();
    let err = Engine::with_observer(&two_way(5_000, 5_000), Idle, &mut seen)
        .try_run()
        .expect_err("nothing is ever scheduled");
    assert_eq!(err.kind(), "deadlock", "{err}");
    assert_eq!(err, RunError::Deadlock { sp: Vec::new() });
    assert_eq!(seen.timeouts, 1, "one TimeOut phase, then the verdict");
    assert_eq!(
        seen.arrivals,
        2 * 816,
        "each wrapper fills its queue, no more"
    );
}
