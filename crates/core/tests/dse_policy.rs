//! White-box tests of the DQS scheduling-plan computation (§4.5), driving
//! `DsePolicy::plan` directly against a constructed world.

use dqs_core::DsePolicy;
use dqs_exec::{FragKind, FragTable, Interrupt, PlanCtx, Policy, Workload, World};
use dqs_plan::PcId;
use dqs_sim::{SimDuration, SimTime};

fn fig5_ctx() -> (World, dqs_plan::AnnotatedPlan, FragTable) {
    let (w, _) = Workload::fig5();
    let (world, plan) = World::build(&w);
    let frags = FragTable::from_plan(&plan, 42);
    (world, plan, frags)
}

#[test]
fn initial_plan_schedules_only_c_schedulable_chains() {
    let (mut world, plan, mut frags) = fig5_ctx();
    let mut policy = DsePolicy::new();
    let sp = {
        let mut ctx = PlanCtx {
            now: SimTime::ZERO,
            plan: &plan,
            frags: &mut frags,
            world: &mut world,
            obs: &mut dqs_exec::NullObserver,
            cpu_service: &|_, modelled| modelled,
        };
        policy.plan(&mut ctx, Interrupt::Start)
    };
    // Before any arrivals: no rate estimates, so no degradations; only the
    // dependency-free chains p_A (pc 0) and p_D (pc 3) are schedulable.
    let pcs: Vec<PcId> = sp.iter().map(|&f| frags.get(f).pc).collect();
    assert_eq!(pcs, vec![PcId(0), PcId(3)], "p_A then p_D");
    // Priority: p_A has ~10x the tuples at the same w and similar c, so its
    // critical degree dominates.
    assert!(frags.iter().all(|f| f.kind == FragKind::Whole));
}

#[test]
fn degradation_waits_for_rate_estimates_then_fires() {
    let (mut world, plan, mut frags) = fig5_ctx();
    let mut policy = DsePolicy::new();

    // Warm up wrapper B (rel id 1) with 20 µs arrivals: after the warm-up
    // threshold the CM has an estimate and bmi = 20 / (2·6.7) ≈ 1.49 > 1.
    let rel_b = dqs_relop::RelId(1);
    let (arrivals, _) = world.cm.start(SimTime::ZERO);
    let mut t = arrivals
        .iter()
        .find(|(r, _)| *r == rel_b)
        .map(|&(_, at)| at)
        .unwrap();
    for _ in 0..20 {
        let out = world.cm.on_arrival(rel_b, t);
        t = out.next_arrival.unwrap_or(t + SimDuration::from_micros(20));
    }
    assert!(world.cm.estimated_gap(rel_b).is_some());

    let sp = {
        let mut ctx = PlanCtx {
            now: t,
            plan: &plan,
            frags: &mut frags,
            world: &mut world,
            obs: &mut dqs_exec::NullObserver,
            cpu_service: &|_, modelled| modelled,
        };
        policy.plan(&mut ctx, Interrupt::RateChange)
    };
    // p_B (pc 1) is blocked on p_A's hash table, critical, and now has a
    // rate estimate: it must be degraded, and its MF scheduled.
    assert!(frags.is_degraded(PcId(1)), "p_B degraded");
    let mf = frags.live_mf(PcId(1)).expect("MF of p_B alive");
    assert!(sp.contains(&mf), "MF(p_B) is in the scheduling plan");
    // The whole chain fragment was superseded, not run.
    assert_eq!(
        frags.live_body(PcId(1)).map(|f| frags.get(f).kind),
        Some(FragKind::Cf)
    );
}

/// The chains DSE's first plan schedules for Figure 5 under `budget_mb` of
/// query memory of which `held_mb` is already reserved.
fn start_plan_under(budget_mb: u64, held_mb: u64) -> Vec<PcId> {
    let (mut w, _) = Workload::fig5();
    w.config.memory_bytes = budget_mb * 1024 * 1024;
    let (mut world, plan) = World::build(&w);
    world.memory.reserve(held_mb * 1024 * 1024, "held").unwrap();
    let mut frags = FragTable::from_plan(&plan, 42);
    let sp = DsePolicy::new().plan(
        &mut PlanCtx {
            now: SimTime::ZERO,
            plan: &plan,
            frags: &mut frags,
            world: &mut world,
            obs: &mut dqs_exec::NullObserver,
            cpu_service: &|_, modelled| modelled,
        },
        Interrupt::Start,
    );
    sp.iter().map(|&f| frags.get(f).pc).collect()
}

#[test]
fn memory_gating_excludes_unfundable_builds() {
    // 1 MB free of 8: p_A's 6 MB hash table fits the budget but not what
    // is free now, so it waits for a later planning phase.
    let pcs = start_plan_under(8, 7);
    assert!(
        !pcs.contains(&PcId(0)),
        "p_A (6 MB build) cannot fit 1 MB free: sp = {pcs:?}"
    );
    // p_D (600 KB) does fit.
    assert!(pcs.contains(&PcId(3)), "p_D fits: sp = {pcs:?}");
}

#[test]
fn a_build_beyond_the_whole_budget_stays_scheduled() {
    // 1 MB in all: p_A's 6 MB table cannot fit even alone (§4.2) and no
    // split shrinks it, so waiting for a later phase would wait forever.
    // It stays in the plan for the DQP's reservation to refuse.
    let pcs = start_plan_under(1, 0);
    assert_eq!(pcs, vec![PcId(0), PcId(3)], "sp = {pcs:?}");
}

#[test]
fn plan_is_deterministic() {
    let (mut world_a, plan_a, mut frags_a) = fig5_ctx();
    let (mut world_b, plan_b, mut frags_b) = fig5_ctx();
    let mut pa = DsePolicy::new();
    let mut pb = DsePolicy::new();
    let sp_a = pa.plan(
        &mut PlanCtx {
            now: SimTime::ZERO,
            plan: &plan_a,
            frags: &mut frags_a,
            world: &mut world_a,
            obs: &mut dqs_exec::NullObserver,
            cpu_service: &|_, modelled| modelled,
        },
        Interrupt::Start,
    );
    let sp_b = pb.plan(
        &mut PlanCtx {
            now: SimTime::ZERO,
            plan: &plan_b,
            frags: &mut frags_b,
            world: &mut world_b,
            obs: &mut dqs_exec::NullObserver,
            cpu_service: &|_, modelled| modelled,
        },
        Interrupt::Start,
    );
    assert_eq!(sp_a, sp_b);
}
