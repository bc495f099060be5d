//! Flash-side express path differential gates.
//!
//! With `flash_express` off the simulator is the unmodified
//! one-event-at-a-time reference engine; with it on (the default), the
//! NoC burst loop, the quiet-router sweep skips, and the flash-leg
//! chain walk coalesce provably conflict-free event chains without
//! going through the central queue. Nothing observable may change:
//! report fingerprints, the state digest, event accounting, and NoC
//! credit-stall counts must be byte-identical across every
//! architecture, workload mix, seed, fault class, and power-loss
//! placement — and a snapshot taken inside an express window must
//! restore to a byte-identical continuation. With observers armed
//! (epoch sampling, a span window, power-loss points) the express path
//! stays on, and the epoch series, trace bytes and recovery report must
//! match the reference engine too.

use dssd_kernel::{SimSpan, SimTime};
use dssd_ssd::{
    Architecture, DurabilityConfig, FaultConfig, RecoveryReport, RunPlan, RunState, SimSnapshot,
    SsdConfig, SsdSim,
};
use dssd_telemetry::chrome::write_chrome_trace;
use dssd_telemetry::TraceConfig;
use dssd_workload::{AccessPattern, SyntheticWorkload};

/// Order-sensitive digest of a finished run: live-state digest, both
/// event counters, the NoC's credit-stall count (counted inside the
/// sweeps the express path elides or replays), and the report numbers
/// the paper's figures are built from.
fn fingerprint(sim: &mut SsdSim) -> String {
    let digest = sim.state_digest();
    let events = sim.events_handled();
    let stalls = sim.noc().map_or(0, |n| n.stats().credit_stalls);
    let p99 = sim.report_mut().latency_percentile(0.99).as_ns();
    let r = sim.report();
    format!(
        "digest={digest:016x} events={events} delivered={} stalls={stalls} req={} io_bytes={} gc_pages={} mean_ns={} p99_ns={}",
        r.events_delivered,
        r.requests_completed,
        r.io_bw.total_bytes(),
        r.gc_pages_copied,
        r.mean_latency().as_ns(),
        p99,
    )
}

fn run(mut cfg: SsdConfig, wl: SyntheticWorkload, ms: u64, express: bool) -> String {
    cfg.flash_express = express;
    let mut sim = SsdSim::new(cfg);
    sim.prefill();
    sim.run_closed_loop(wl, SimSpan::from_ms(ms));
    fingerprint(&mut sim)
}

/// Every architecture × workload-mix × seed: the express run must be
/// byte-identical to the event-level run. The mixes cover the write
/// path (bus + die + GC copies), the read path (die + ECC + sysbus),
/// and the DRAM-hit path (the fig10 scenario), so every leg the chain
/// walk can coalesce is crossed with every architecture's transport.
#[test]
fn randomized_mixes_are_bit_identical_across_architectures_and_seeds() {
    let mixes: [(&str, u32, f64, f64); 3] = [
        ("writes", 8, 0.0, 0.0),
        ("mixed", 4, 0.5, 0.0),
        ("dram_hits", 8, 1.0, 1.0),
    ];
    for arch in Architecture::all() {
        for &(mix, pages, reads, hit) in &mixes {
            for seed_salt in [0u64, 0x5EED] {
                let mut cfg = SsdConfig::test_tiny(arch);
                cfg.gc_continuous = true;
                cfg.seed ^= seed_salt;
                let wl = SyntheticWorkload::mixed(AccessPattern::Random, pages, reads)
                    .with_dram_hit_fraction(hit);
                let on = run(cfg.clone(), wl.clone(), 3, true);
                let off = run(cfg, wl, 3, false);
                assert_eq!(
                    on, off,
                    "{}/{mix}/salt={seed_salt:#x}: express diverged",
                    arch.label()
                );
            }
        }
    }
}

/// Fault injection forces the paths the chain walk must *not* coalesce
/// (read-retry re-issues, program-failure remaps, erase failures, NoC
/// degradations that demote express groups): the deferred-continuation
/// handoff only covers the final clean-path push of each leg handler,
/// so every fault-path push still goes through the queue, in order.
#[test]
fn fault_and_retry_paths_are_bit_identical() {
    let mut f = FaultConfig::none();
    f.read_transient_prob = 0.1;
    f.read_hard_prob = 0.001;
    f.program_fail_prob = 0.005;
    f.erase_fail_prob = 0.02;
    f.noc_degrade_prob = 0.02;
    for arch in [Architecture::Dssd, Architecture::DssdFnoc] {
        for seed_salt in [0u64, 0xFA17] {
            let mut cfg = SsdConfig::test_tiny(arch);
            cfg.gc_continuous = true;
            cfg.faults = f;
            cfg.seed ^= seed_salt;
            let wl = SyntheticWorkload::mixed(AccessPattern::Random, 4, 0.5);
            let on = run(cfg.clone(), wl.clone(), 4, true);
            let off = run(cfg, wl, 4, false);
            assert_eq!(
                on, off,
                "{}/salt={seed_salt:#x}: express diverged under faults",
                arch.label()
            );
        }
    }
}

/// Everything an observer sees of a finished run.
struct Observed {
    fingerprint: String,
    epochs: String,
    trace: Vec<u8>,
    recovery: Option<RecoveryReport>,
    /// `flash_express_diag().0`: leg events the express path coalesced.
    coalesced: u64,
}

/// A prefilled GC-heavy sim with epoch sampling every `epoch` and a 1 ms
/// span window armed.
fn traced(mut cfg: SsdConfig, epoch: SimSpan, express: bool) -> SsdSim {
    cfg.gc_continuous = true;
    cfg.flash_express = express;
    let mut sim = SsdSim::new(cfg);
    sim.enable_tracing(TraceConfig { window: Some(SimSpan::from_ms(1)), epoch: Some(epoch) });
    sim.prefill();
    sim
}

fn writes() -> SyntheticWorkload {
    SyntheticWorkload::writes(AccessPattern::Random, 8)
}

/// A traced 8-page random write run of `ms`.
fn observed(cfg: SsdConfig, epoch: SimSpan, ms: u64, express: bool) -> Observed {
    let mut sim = traced(cfg, epoch, express);
    sim.run_closed_loop(writes(), SimSpan::from_ms(ms));
    let mut trace = Vec::new();
    write_chrome_trace(sim.tracer(), &mut trace).expect("in-memory trace write");
    Observed {
        epochs: sim.epoch_series().expect("epoch sampling armed").to_jsonl_string(),
        trace,
        recovery: sim.report().recovery,
        coalesced: sim.flash_express_diag().0,
        fingerprint: fingerprint(&mut sim),
    }
}

/// Runs `cfg` observed with express on and off, asserts every observable
/// matches, and returns the express run.
fn assert_observed_identical(cfg: &SsdConfig, epoch: SimSpan, ms: u64, what: &str) -> Observed {
    let on = observed(cfg.clone(), epoch, ms, true);
    let off = observed(cfg.clone(), epoch, ms, false);
    assert_eq!(on.fingerprint, off.fingerprint, "{what}: fingerprint diverged");
    assert_eq!(on.epochs, off.epochs, "{what}: epoch series diverged");
    assert!(on.trace == off.trace, "{what}: Chrome-trace bytes diverged");
    assert_eq!(on.recovery, off.recovery, "{what}: recovery report diverged");
    assert_eq!(off.coalesced, 0, "{what}: reference engine coalesced");
    on
}

/// Epoch sampling and a span window are fences, not kill switches: the
/// chain walk and the NoC burst keep running between epoch boundaries,
/// and the series, the trace and the report match the reference engine.
/// The 7 us interval puts a boundary inside many chains.
#[test]
fn epoch_sampling_and_span_window_keep_the_express_path() {
    for arch in [Architecture::Dssd, Architecture::DssdFnoc] {
        for every in [SimSpan::from_ms(1), SimSpan::from_ms(2), SimSpan::from_us(7)] {
            let what = format!("{}/epoch {every}", arch.label());
            let on = assert_observed_identical(&SsdConfig::test_tiny(arch), every, 5, &what);
            assert!(on.coalesced > 0, "{what}: epochs turned the express path off");
            let rows = SimSpan::from_ms(5).as_ns() / every.as_ns();
            assert_eq!(on.epochs.lines().count() as u64, rows, "{what}: epoch rows");
        }
    }
}

/// `test_tiny(arch)` with the durability model on, then adjusted by `f`.
fn durable(arch: Architecture, f: impl FnOnce(&mut SsdConfig)) -> SsdConfig {
    let mut cfg = SsdConfig::test_tiny(arch);
    cfg.durability = Some(DurabilityConfig::default());
    f(&mut cfg);
    cfg
}

/// A chain walk that crosses simulated time, found by forking a stepped
/// express run before every event: `(n, t)` where the walk that pops
/// event `n` runs its next leg in-lane at a later instant `t`. Power
/// loss after event `n` or at `t` must stop the walk there; a walk
/// without the cap or the fence would step over the cut.
fn walk_across_time(arch: Architecture) -> (u64, SimTime) {
    let mut mother = traced(durable(arch, |_| {}), SimSpan::from_ms(1), true);
    mother.begin_closed_loop(writes(), SimSpan::from_ms(3));
    loop {
        let mut fork = mother.clone();
        assert_eq!(mother.run_events(1), RunState::Paused, "no chain walk across time");
        let lane = fork.flash_express_diag().0;
        fork.run_events(2);
        if fork.flash_express_diag().0 > lane && fork.now() > mother.now() {
            return (mother.events_handled(), fork.now());
        }
    }
}

/// Power loss armed at a simulated instant, an exact event count or a
/// drawn instant, with one count and one instant cutting a chain walk
/// (the instant is that of the walk's next in-lane event): the walk and
/// the burst stop at the power-loss instant and at the ordinal, so both
/// runs crash at the same point, with the same epoch rows and trace, and
/// recover to the same state.
#[test]
fn power_loss_placements_are_bit_identical() {
    let fnoc = Architecture::DssdFnoc;
    let at = SimTime::ZERO + SimSpan::from_ms(1) + SimSpan::from_ns(337);
    let mut placements = vec![
        (format!("at {at}"), durable(fnoc, |c| c.power_loss.at = at)),
        (
            "mean time to loss 2 ms".to_string(),
            durable(fnoc, |c| c.power_loss.mean_time_to_loss = SimSpan::from_ms(2)),
        ),
    ];
    for at_event in [5_000, 12_345] {
        placements.push((
            format!("at event {at_event}"),
            durable(fnoc, |c| c.power_loss.at_event = at_event),
        ));
    }
    let walk = Architecture::Dssd;
    let (inside, at) = walk_across_time(walk);
    placements.push((
        format!("at event {inside}, inside a walk"),
        durable(walk, |c| c.power_loss.at_event = inside),
    ));
    placements.push((format!("at {at}, inside a walk"), durable(walk, |c| c.power_loss.at = at)));
    for (what, cfg) in &placements {
        let on = assert_observed_identical(cfg, SimSpan::from_ms(1), 3, what);
        let rec = on.recovery.expect("armed loss must strike inside the run");
        assert!(rec.invariants_hold(), "{what}: recovery invariants violated");
    }
}

/// A snapshot captured while the express path is mid-flight (the cursor
/// lands inside what would be a coalesced chain) must restore and
/// continue byte-identically: `run_events(limit)` demotes the chain
/// continuation to the queue when it hits the limit, so any cursor is a
/// clean cut point.
#[test]
fn snapshot_inside_express_window_restores_byte_identically() {
    let plan = RunPlan {
        workload: SyntheticWorkload::writes(AccessPattern::Random, 8),
        duration: SimSpan::from_ms(3),
    };
    let cfg = || {
        let mut c = SsdConfig::test_tiny(Architecture::DssdFnoc);
        c.gc_continuous = true;
        c
    };
    // Odd cursors make it likely the cut lands mid-chain (flash legs
    // coalesce in runs of 2-6 events).
    for cursor in [777u64, 10_001, 25_003] {
        let mut sim = SsdSim::new(cfg());
        sim.prefill();
        sim.begin_closed_loop(plan.workload.clone(), plan.duration);
        assert_eq!(sim.run_events(cursor), RunState::Paused);
        assert_eq!(sim.events_handled(), cursor, "run_events overshot the limit");
        let snap = SimSnapshot::capture(&sim, &plan);
        let mut resumed = snap.restore(cfg(), &plan).expect("mid-window restore");
        assert_eq!(resumed.state_digest(), sim.state_digest());
        sim.run_events(u64::MAX);
        resumed.run_events(u64::MAX);
        sim.finish_run();
        resumed.finish_run();
        assert_eq!(
            fingerprint(&mut sim),
            fingerprint(&mut resumed),
            "cursor {cursor}: resumed run diverged"
        );
    }
}

/// The express path must actually fire on the architectures that carry
/// flash traffic (otherwise the A/B rows above prove nothing), and its
/// diagnostics must stay zero with the flag off.
#[test]
fn express_diagnostics_report_coalesced_work() {
    let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
    cfg.gc_continuous = true;
    let mut sim = SsdSim::new(cfg.clone());
    sim.prefill();
    sim.run_closed_loop(SyntheticWorkload::writes(AccessPattern::Random, 8), SimSpan::from_ms(3));
    let (coalesced, _demoted) = sim.flash_express_diag();
    assert!(coalesced > 100, "chain walk coalesced only {coalesced} events");

    cfg.flash_express = false;
    let mut off = SsdSim::new(cfg);
    off.prefill();
    off.run_closed_loop(SyntheticWorkload::writes(AccessPattern::Random, 8), SimSpan::from_ms(3));
    assert_eq!(off.flash_express_diag(), (0, 0), "reference engine must not coalesce");
}
