//! Sharded-engine differential gates.
//!
//! With `shards = 1` the simulator runs the unmodified single-queue
//! reference engine; with `shards = N` the future-event list is split
//! across per-shard calendar queues by home resource (channel blocks,
//! fNoC regions, round-robined central events) and merged back in exact
//! global `(time, rank, seq)` order. Nothing observable may change for
//! any shard count: report fingerprints, the state digest, event
//! accounting, and NoC stall counts must be byte-identical across every
//! architecture, workload mix, seed, fault class, power-loss placement,
//! and express-path combination — and snapshots must transfer *between*
//! shard counts, because the shard count is normalized out of the
//! config fingerprint.

use dssd_kernel::{SimSpan, SimTime};
use dssd_ssd::{
    Architecture, DurabilityConfig, FaultConfig, RunPlan, RunState, SimSnapshot, SsdConfig, SsdSim,
};
use dssd_workload::{AccessPattern, SyntheticWorkload};

/// Order-sensitive digest of a finished run (the same surface the
/// flash-express gates check): live-state digest, both event counters,
/// NoC credit stalls, and the report numbers the paper's figures use.
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

fn run(cfg: SsdConfig, wl: SyntheticWorkload, ms: u64, shards: usize) -> String {
    let mut sim = SsdSim::new(cfg.with_shards(shards));
    sim.prefill();
    sim.run_closed_loop(wl, SimSpan::from_ms(ms));
    fingerprint(&mut sim)
}

/// Every architecture × workload-mix × shard count: the sharded engine
/// must be byte-identical to the single-queue engine. The mixes cover
/// the write path (bus + die + GC copies), the read path (die + ECC +
/// sysbus), and the DRAM-hit path, so channel-homed, fNoC-homed, and
/// centrally-homed events all cross every shard boundary.
#[test]
fn randomized_mixes_are_bit_identical_across_shard_counts() {
    let mixes: [(&str, u32, f64, f64); 2] = [
        ("writes", 8, 0.0, 0.0),
        ("dram_mixed", 4, 0.5, 1.0),
    ];
    for arch in Architecture::all() {
        for &(mix, pages, reads, hit) in &mixes {
            let mut cfg = SsdConfig::test_tiny(arch);
            cfg.gc_continuous = true;
            cfg.seed ^= 0x5EED;
            let wl = SyntheticWorkload::mixed(AccessPattern::Random, pages, reads)
                .with_dram_hit_fraction(hit);
            let reference = run(cfg.clone(), wl.clone(), 3, 1);
            for shards in [2, 3, 8] {
                let sharded = run(cfg.clone(), wl.clone(), 3, shards);
                assert_eq!(
                    reference,
                    sharded,
                    "{}/{mix}/shards={shards}: sharded engine diverged",
                    arch.label()
                );
            }
        }
    }
}

/// Fault injection exercises retry re-issues, program-failure remaps,
/// erase failures and NoC degradations — paths that reschedule events
/// across shard homes (a retried read goes back through its channel, a
/// demoted packet re-enters the fNoC region). Order must survive.
#[test]
fn fault_and_retry_paths_are_bit_identical_across_shards() {
    let mut f = FaultConfig::none();
    f.read_transient_prob = 0.1;
    f.read_hard_prob = 0.001;
    f.program_fail_prob = 0.005;
    f.erase_fail_prob = 0.02;
    f.noc_degrade_prob = 0.02;
    for arch in [Architecture::Dssd, Architecture::DssdFnoc] {
        let mut cfg = SsdConfig::test_tiny(arch);
        cfg.gc_continuous = true;
        cfg.faults = f;
        let wl = SyntheticWorkload::mixed(AccessPattern::Random, 4, 0.5);
        let reference = run(cfg.clone(), wl.clone(), 4, 1);
        for shards in [2, 8] {
            assert_eq!(
                reference,
                run(cfg.clone(), wl.clone(), 4, shards),
                "{}/shards={shards}: sharded engine diverged under faults",
                arch.label()
            );
        }
    }
}

/// Power loss at a wall-clock instant or an exact event count must land
/// on the *same* event under every shard count (the merge preserves the
/// global delivery sequence, so event counters agree), and recovery
/// must replay identically with the durability model on.
#[test]
fn power_loss_placements_are_bit_identical_across_shards() {
    let run_loss = |shards: usize, at_event: u64| {
        let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
        cfg.gc_continuous = true;
        cfg.durability = Some(DurabilityConfig::default());
        if at_event > 0 {
            cfg.power_loss.at_event = at_event;
        } else {
            cfg.power_loss.at = SimTime::ZERO + SimSpan::from_ms(1) + SimSpan::from_ns(337);
        }
        let mut sim = SsdSim::new(cfg.with_shards(shards));
        sim.prefill();
        sim.run_closed_loop(SyntheticWorkload::writes(AccessPattern::Random, 8), SimSpan::from_ms(3));
        let rec = sim.report().recovery.expect("armed loss must report recovery");
        assert!(rec.invariants_hold(), "recovery invariants violated");
        fingerprint(&mut sim)
    };
    for at_event in [0u64, 5_000, 12_345] {
        let reference = run_loss(1, at_event);
        for shards in [2, 3] {
            assert_eq!(
                reference,
                run_loss(shards, at_event),
                "power loss (at_event={at_event}) diverged at shards={shards}"
            );
        }
    }
}

/// Sharding composes with both express paths: the flash-side chain
/// walk / NoC burst loop and the fNoC's contention-free packet
/// fast-forwarding each bypass or batch the queue in their own way,
/// and all four on/off combinations must agree with the single-queue
/// engine at every shard count.
#[test]
fn express_paths_compose_with_sharding() {
    for (flash_express, noc_express) in [(true, true), (true, false), (false, true), (false, false)]
    {
        let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
        cfg.gc_continuous = true;
        cfg.flash_express = flash_express;
        cfg.noc = cfg.noc.with_express(noc_express);
        let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
        let reference = run(cfg.clone(), wl.clone(), 3, 1);
        assert_eq!(
            reference,
            run(cfg, wl, 3, 4),
            "flash_express={flash_express}/noc_express={noc_express}: diverged at shards=4"
        );
    }
}

/// Snapshots transfer across shard counts: the shard count is an
/// engine choice, not simulated state, so a snapshot captured under
/// one count restores under another — including cursors cut at odd
/// event counts, where the sharded engine may hold a half-drained
/// extraction batch that a naive capture would race.
#[test]
fn snapshot_cursors_transfer_across_shard_counts() {
    let plan = RunPlan {
        workload: SyntheticWorkload::writes(AccessPattern::Random, 8),
        duration: SimSpan::from_ms(3),
    };
    let cfg = |shards: usize| {
        let mut c = SsdConfig::test_tiny(Architecture::DssdFnoc);
        c.gc_continuous = true;
        c.with_shards(shards)
    };
    for (capture_shards, restore_shards, cursor) in
        [(3usize, 1usize, 777u64), (1, 8, 10_001), (2, 4, 25_003)]
    {
        let mut sim = SsdSim::new(cfg(capture_shards));
        sim.prefill();
        sim.begin_closed_loop(plan.workload.clone(), plan.duration);
        assert_eq!(sim.run_events(cursor), RunState::Paused);
        assert_eq!(sim.events_handled(), cursor, "run_events overshot the limit");
        let snap = SimSnapshot::capture(&sim, &plan);
        let mut resumed = snap
            .restore(cfg(restore_shards), &plan)
            .expect("cross-shard-count restore");
        assert_eq!(resumed.state_digest(), sim.state_digest());
        sim.run_events(u64::MAX);
        resumed.run_events(u64::MAX);
        sim.finish_run();
        resumed.finish_run();
        assert_eq!(
            fingerprint(&mut sim),
            fingerprint(&mut resumed),
            "capture@{capture_shards} → restore@{restore_shards} (cursor {cursor}) diverged"
        );
    }
}

/// The config surface: shard counts outside [1, 64] are rejected, and
/// the default is the single-queue engine.
#[test]
fn shard_count_is_validated() {
    assert_eq!(SsdConfig::test_tiny(Architecture::Dssd).shards, 1);
    assert!(SsdConfig::test_tiny(Architecture::Dssd).with_shards(0).validate().is_err());
    assert!(SsdConfig::test_tiny(Architecture::Dssd).with_shards(65).validate().is_err());
    assert!(SsdConfig::test_tiny(Architecture::Dssd).with_shards(64).validate().is_ok());
}
