//! Stepping-equivalence gates: slicing a run into arbitrary
//! `run_events` / `run_until` / `run_until_before` pieces must be
//! invisible — the final state, report, and event accounting must be
//! byte-identical to one uninterrupted `run_events(u64::MAX)`.
//!
//! This is the foundation the live service front-end stands on: the
//! pacer may stop the simulator at every submission instant, and none
//! of those stops may perturb the machine. The seeded test below runs
//! in tier 1; the `proptest` variant explores adversarial granularity
//! sequences when the optional dev-dependency is restored.

use dssd_kernel::{Rng, SimSpan, SimTime};
use dssd_ssd::{Architecture, DurabilityConfig, RunState, SsdConfig, SsdSim};
use dssd_workload::{open_loop_schedule, AccessPattern, SyntheticWorkload};

fn tiny_sim() -> SsdSim {
    let mut sim = SsdSim::new(SsdConfig::test_tiny(Architecture::DssdFnoc));
    sim.prefill();
    sim
}

fn fingerprint(sim: &mut SsdSim) -> String {
    let digest = sim.state_digest();
    let events = sim.events_handled();
    let p99 = sim.report_mut().latency_percentile(0.99).as_ns();
    let r = sim.report();
    format!(
        "digest={digest:016x} events={events} delivered={} req={} io_bytes={} gc_pages={} mean_ns={} p99_ns={}",
        r.events_delivered,
        r.requests_completed,
        r.io_bw.total_bytes(),
        r.gc_pages_copied,
        r.mean_latency().as_ns(),
        p99,
    )
}

/// Steps `sim` to completion using a `choices`-driven mix of stepping
/// primitives, then finalizes it. Every choice `(kind, amount)` maps to
/// one of the three public stepping calls.
fn step_to_completion(sim: &mut SsdSim, choices: impl Iterator<Item = (u8, u64)>) {
    for (kind, amount) in choices {
        let state = match kind % 3 {
            0 => sim.run_events(1 + amount % 256),
            1 => sim.run_until(sim.now() + SimSpan::from_ns(1 + amount % 300_000)),
            _ => sim.run_until_before(sim.now() + SimSpan::from_ns(1 + amount % 300_000)),
        };
        if state == RunState::Done {
            // Done means the run is over — the queue drained or the one
            // beyond-horizon pop (part of the event-count fingerprint)
            // already happened. Running further would pop a second one
            // the batch path never sees.
            sim.finish_run();
            return;
        }
    }
    // Choices exhausted first: run out the clock like the batch path.
    sim.run_events(u64::MAX);
    sim.finish_run();
}

fn open_loop_plan() -> Vec<(dssd_kernel::SimTime, dssd_workload::Request)> {
    let wl = SyntheticWorkload::mixed(AccessPattern::Random, 4, 0.5).bind(1 << 15);
    let mut rng = Rng::new(77);
    open_loop_schedule(wl, 120_000.0, SimSpan::from_ms(4), &mut rng)
}

#[test]
fn seeded_interleaved_stepping_matches_single_run_open_loop() {
    let plan = open_loop_plan();

    let mut batch = tiny_sim();
    batch.run_trace(plan.clone(), SimSpan::from_ms(4));
    let want = fingerprint(&mut batch);

    for seed in [1u64, 42, 1234] {
        let mut stepped = tiny_sim();
        stepped.begin_open_loop(SimSpan::from_ms(4));
        for (t, r) in plan.clone() {
            stepped.inject_arrival(t, r);
        }
        let mut rng = Rng::new(seed);
        step_to_completion(
            &mut stepped,
            std::iter::from_fn(move || Some((rng.next_u64() as u8, rng.next_u64()))).take(10_000),
        );
        assert_eq!(
            fingerprint(&mut stepped),
            want,
            "granularity seed {seed} perturbed the open-loop run"
        );
    }
}

#[test]
fn seeded_interleaved_stepping_matches_single_run_closed_loop() {
    let wl = || SyntheticWorkload::writes(AccessPattern::Random, 8);
    let mut batch = tiny_sim();
    batch.run_closed_loop(wl(), SimSpan::from_ms(4));
    let want = fingerprint(&mut batch);

    for seed in [7u64, 99] {
        let mut stepped = tiny_sim();
        stepped.begin_closed_loop(wl(), SimSpan::from_ms(4));
        let mut rng = Rng::new(seed);
        step_to_completion(
            &mut stepped,
            std::iter::from_fn(move || Some((rng.next_u64() as u8, rng.next_u64()))).take(10_000),
        );
        assert_eq!(
            fingerprint(&mut stepped),
            want,
            "granularity seed {seed} perturbed the closed-loop run"
        );
    }
}

/// Injecting arrivals live between steps (the service pacer's exact
/// access pattern) must also be invisible: advance to just before each
/// arrival, inject it, repeat.
#[test]
fn live_injection_between_steps_matches_upfront_push() {
    let plan = open_loop_plan();

    let mut batch = tiny_sim();
    batch.run_trace(plan.clone(), SimSpan::from_ms(4));
    let want = fingerprint(&mut batch);

    let mut live = tiny_sim();
    live.begin_open_loop(SimSpan::from_ms(4));
    for (t, r) in plan {
        live.run_until_before(t);
        live.inject_arrival(t, r);
    }
    live.run_events(u64::MAX);
    live.finish_run();
    assert_eq!(fingerprint(&mut live), want, "live injection perturbed the run");
}

/// A target equal to a pending event's instant: `run_until_before(t)`
/// pops nothing at `t`, `run_until(t)` pops everything at `t` and
/// nothing later. Arrivals are the pending events whose instants are
/// known up front. The express engine must pause in exactly the
/// reference engine's state at every target.
#[test]
fn targets_tied_with_pending_events_pause_like_the_reference_engine() {
    let plan = open_loop_plan();
    let mut instants: Vec<SimTime> = plan.iter().map(|&(t, _)| t).collect();
    instants.dedup();

    let mut batch = tiny_sim();
    batch.run_trace(plan.clone(), SimSpan::from_ms(4));
    let want = fingerprint(&mut batch);

    let armed = |express: bool| {
        let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
        cfg.flash_express = express;
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        sim.begin_open_loop(SimSpan::from_ms(4));
        for (t, r) in plan.clone() {
            sim.inject_arrival(t, r);
        }
        sim
    };
    let (mut express, mut reference) = (armed(true), armed(false));
    for &t in instants.iter().step_by(7).take(60) {
        for sim in [&mut express, &mut reference] {
            assert_eq!(sim.run_until_before(t), RunState::Paused);
            assert!(sim.now() < t, "run_until_before({t}) popped an event at {}", sim.now());
            let handled = sim.events_handled();
            assert_eq!(sim.run_until_before(t), RunState::Paused);
            assert_eq!(sim.events_handled(), handled, "a repeated run_until_before moved");
        }
        assert_eq!(express.state_digest(), reference.state_digest(), "before {t}");
        for sim in [&mut express, &mut reference] {
            assert_eq!(sim.run_until(t), RunState::Paused);
            assert_eq!(sim.now(), t, "run_until({t}) missed the arrival due at {t}");
        }
        assert_eq!(express.state_digest(), reference.state_digest(), "until {t}");
    }
    assert!(express.flash_express_diag().0 > 0, "stepped runs never took the express path");
    express.run_events(u64::MAX);
    express.finish_run();
    assert_eq!(fingerprint(&mut express), want, "tied stepping perturbed the run");
}

/// With nothing pending, both calls pause without handling an event and
/// before the power-loss check, as does a pending event past the
/// target: the armed loss strikes only once the loop runs on.
#[test]
fn empty_queue_and_far_event_pause_before_the_power_loss_check() {
    let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
    cfg.durability = Some(DurabilityConfig::default());
    cfg.power_loss.at = SimTime::ZERO + SimSpan::from_ms(1);
    let target = SimTime::ZERO + SimSpan::from_ms(2);

    let mut sim = SsdSim::new(cfg.clone());
    sim.prefill();
    sim.begin_open_loop(SimSpan::from_ms(4));
    assert_eq!(sim.run_until(target), RunState::Paused);
    assert_eq!(sim.run_until_before(target), RunState::Paused);
    assert_eq!(sim.run_until(SimTime::MAX), RunState::Paused);
    assert!(!sim.halted() && sim.events_handled() == 0, "an empty queue moved the loop");
    assert_eq!(sim.run_events(u64::MAX), RunState::Halted);
    assert_eq!(sim.now(), SimTime::ZERO + SimSpan::from_ms(1));
    // Halted, with nothing due before the target: still a pause.
    assert_eq!(sim.run_until(target), RunState::Paused);
    assert_eq!(sim.run_events(1), RunState::Halted);

    let mut sim = SsdSim::new(cfg);
    sim.prefill();
    sim.begin_open_loop(SimSpan::from_ms(4));
    let (far, r) = open_loop_plan().into_iter().find(|&(t, _)| t > target).expect("late arrival");
    sim.inject_arrival(far, r);
    assert_eq!(sim.run_until(target), RunState::Paused);
    assert_eq!(sim.run_until_before(far), RunState::Paused);
    assert!(!sim.halted() && sim.events_handled() == 0, "a far event moved the loop");
    assert_eq!(sim.run_until(far), RunState::Halted);
}

/// A target at `SimTime::MAX` saturates instead of overflowing: both
/// calls run the whole closed-loop run out, including the one
/// beyond-horizon pop, exactly like `run_events(u64::MAX)`.
#[test]
fn targets_at_the_end_of_time_saturate() {
    let wl = || SyntheticWorkload::writes(AccessPattern::Random, 8);
    let mut batch = tiny_sim();
    batch.run_closed_loop(wl(), SimSpan::from_ms(2));
    let want = fingerprint(&mut batch);

    for before in [false, true] {
        let mut sim = tiny_sim();
        sim.begin_closed_loop(wl(), SimSpan::from_ms(2));
        let state = if before {
            sim.run_until_before(SimTime::MAX)
        } else {
            sim.run_until(SimTime::MAX)
        };
        assert_eq!(state, RunState::Done);
        sim.finish_run();
        assert_eq!(fingerprint(&mut sim), want, "run_until(before={before}) at MAX diverged");
    }
}

#[cfg(feature = "proptest")]
mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Arbitrary (kind, amount) stepping programs never diverge
        /// from the single uninterrupted run.
        #[test]
        fn arbitrary_stepping_matches_single_run(
            choices in proptest::collection::vec((any::<u8>(), any::<u64>()), 1..400),
        ) {
            let plan = open_loop_plan();

            let mut batch = tiny_sim();
            batch.run_trace(plan.clone(), SimSpan::from_ms(4));
            let want = fingerprint(&mut batch);

            let mut stepped = tiny_sim();
            stepped.begin_open_loop(SimSpan::from_ms(4));
            for (t, r) in plan {
                stepped.inject_arrival(t, r);
            }
            step_to_completion(&mut stepped, choices.into_iter());
            prop_assert_eq!(fingerprint(&mut stepped), want);
        }
    }
}
