//! End-to-end gates for the live front-end.
//!
//! The two load-bearing properties from the design:
//!
//! * **Pacing without perturbing** — a live `serve` run with no QoS
//!   constraint must leave the simulator bit-identical (state digest,
//!   event counts, latency distribution) to a batch `run_trace` over
//!   the same schedule.
//! * **Isolation with accounting** — QoS throttling and admission
//!   control shape *when* commands run and which are bounced, but every
//!   submission is accounted: completed, rejected (explicit `Busy`), or
//!   expired. Nothing is silently dropped.

use dssd_kernel::SimSpan;
use dssd_service::{serve, ServiceReport, ServiceSpec};
use dssd_ssd::{Architecture, SsdConfig, SsdSim};
use dssd_telemetry::chrome::chrome_trace_string;
use dssd_telemetry::TraceConfig;

fn tiny_sim() -> SsdSim {
    let mut sim = SsdSim::new(SsdConfig::test_tiny(Architecture::DssdFnoc));
    sim.prefill();
    sim
}

fn check_conservation(report: &ServiceReport) {
    for t in &report.tenants {
        t.assert_conserved();
        assert!(t.failed <= t.completed, "tenant {} failed > completed", t.name);
        assert!(t.latency.count() as u64 <= t.completed);
    }
}

/// Order-sensitive fingerprint of the simulator after a run.
fn fingerprint(sim: &mut SsdSim) -> String {
    let digest = sim.state_digest();
    let events = sim.events_handled();
    let p99 = sim.report_mut().latency_percentile(0.99).as_ns();
    let r = sim.report();
    format!(
        "digest={digest:016x} events={events} delivered={} req={} io_bytes={} mean_ns={} p99_ns={}",
        r.events_delivered,
        r.requests_completed,
        r.io_bw.total_bytes(),
        r.mean_latency().as_ns(),
        p99,
    )
}

const NO_QOS_SPEC: &str = "\
duration_ms 4
seed 11
tenant alice iops=120000 pages=2 read=0.4
tenant bob   iops=90000  pages=1 read=1.0 pattern=sequential
";

#[test]
fn no_qos_service_run_is_bit_identical_to_batch() {
    let spec = ServiceSpec::parse(NO_QOS_SPEC).unwrap();

    let mut live = tiny_sim();
    let report = serve(&spec, &mut live);
    let live_fp = fingerprint(&mut live);

    let mut batch = tiny_sim();
    let plan = spec.batch_requests(batch.ftl().lpn_count());
    let total = plan.len() as u64;
    batch.run_trace(plan, spec.duration);
    let batch_fp = fingerprint(&mut batch);

    assert_eq!(live_fp, batch_fp, "live pacer perturbed the simulation");

    // With no QoS, nothing throttles, nothing is rejected, and every
    // scheduled submission was offered.
    check_conservation(&report);
    assert_eq!(report.submitted(), total);
    assert_eq!(report.rejected(), 0);
    for t in &report.tenants {
        assert_eq!(t.throttled, 0, "tenant {} throttled without QoS", t.name);
    }
    // The front-end's completion count is the device's.
    assert_eq!(report.completed(), batch.report().requests_completed);
    assert!(report.completed() > 100, "workload too small to be meaningful");
}

#[test]
fn service_run_is_replayable() {
    let spec = ServiceSpec::parse(
        "duration_ms 3\nseed 5\nbacklog 96\n\
         tenant a iops=150000 pages=4 read=0.2 rate=120000 burst=16 qd=24 weight=3\n\
         tenant b iops=100000 pages=1 read=0.9 rate=50000 burst=4 qd=8\n",
    )
    .unwrap();
    let run = || {
        let mut sim = tiny_sim();
        let mut report = serve(&spec, &mut sim);
        (fingerprint(&mut sim), report.to_json())
    };
    let (fp_a, json_a) = run();
    let (fp_b, json_b) = run();
    assert_eq!(fp_a, fp_b, "QoS service run is not replayable");
    assert_eq!(json_a, json_b);
}

/// The pacer steps the simulator with `run_until_before` at every
/// submission instant. Those stepped runs keep the flash-side express
/// path with epoch sampling and a span window armed, and must match
/// the reference engine in every output: device state, tenant report,
/// epoch series and trace bytes.
#[test]
fn observed_qos_run_matches_reference_engine() {
    let spec = ServiceSpec::parse(
        "duration_ms 4\nseed 17\nbacklog 192\n\
         tenant a iops=120000 pages=4 read=0.3 rate=400000 burst=64 qd=48 weight=3\n\
         tenant b iops=80000 pages=1 read=0.9 rate=100000 burst=16 qd=16\n",
    )
    .unwrap();
    let run = |express: bool| {
        let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
        cfg.gc_continuous = true;
        cfg.flash_express = express;
        let mut sim = SsdSim::new(cfg);
        sim.enable_tracing(TraceConfig {
            window: Some(SimSpan::from_ms(1)),
            epoch: Some(SimSpan::from_ms(1)),
        });
        sim.prefill();
        let mut report = serve(&spec, &mut sim);
        check_conservation(&report);
        let epochs = sim.epoch_series().expect("epoch sampling armed").to_jsonl_string();
        let trace = chrome_trace_string(sim.tracer());
        let coalesced = sim.flash_express_diag().0;
        let shaped = report.tenants.iter().any(|t| t.throttled + t.rejected > 0);
        assert!(shaped, "spec too light to exercise QoS: {:?}", report.tenants);
        (fingerprint(&mut sim), report.to_json(), epochs, trace, coalesced)
    };
    let (fp, json, epochs, trace, coalesced) = run(true);
    let reference = run(false);
    assert!(coalesced > 0, "observed pacer run never took the express path");
    assert_eq!(fp, reference.0, "express pacer run diverged");
    assert_eq!(json, reference.1, "tenant reports diverged");
    assert_eq!(epochs, reference.2, "epoch series diverged");
    assert_eq!(trace, reference.3, "trace bytes diverged");
}

#[test]
fn rate_limit_throttles_and_conserves() {
    // 2000 pages/s against ~50k offered single-page IOPS: the bucket is
    // dry almost immediately and nearly everything queues or expires.
    let spec = ServiceSpec::parse(
        "duration_ms 3\nseed 3\ntenant slow iops=50000 pages=1 read=1.0 rate=2000 burst=2\n",
    )
    .unwrap();
    let mut sim = tiny_sim();
    let report = serve(&spec, &mut sim);
    check_conservation(&report);
    let t = &report.tenants[0];
    assert!(t.throttled > 0, "rate limit never throttled: {t:?}");
    assert!(t.expired > 0, "a dry bucket must strand submissions at the horizon");
    // ~2 pages/ms for 3 ms, plus the 2-page burst: single digits.
    assert!(t.completed <= 10, "rate limit leaked: {} completed", t.completed);
    assert!(t.completed >= 2, "bucket never released work: {t:?}");
}

#[test]
fn queue_depth_cap_rejects_busy_without_losing_requests() {
    let spec = ServiceSpec::parse(
        "duration_ms 3\nseed 9\ntenant greedy iops=300000 pages=4 read=0.0 qd=4\n",
    )
    .unwrap();
    let mut sim = tiny_sim();
    let report = serve(&spec, &mut sim);
    check_conservation(&report);
    let t = &report.tenants[0];
    assert!(t.rejected > 0, "queue-depth cap never rejected: {t:?}");
    assert!(t.completed > 0, "admission control starved the device: {t:?}");
    // The cap bounds what can ever be in the system, so rejects dominate
    // at 4x overload.
    assert!(t.rejected > t.completed / 2, "cap too porous: {t:?}");
}

#[test]
fn global_backlog_limit_applies_backpressure() {
    let spec = ServiceSpec::parse(
        "duration_ms 3\nseed 13\nbacklog 8\n\
         tenant a iops=200000 pages=4 read=0.0\n\
         tenant b iops=200000 pages=4 read=0.0\n",
    )
    .unwrap();
    let mut sim = tiny_sim();
    let report = serve(&spec, &mut sim);
    check_conservation(&report);
    assert!(report.rejected() > 0, "backlog threshold never tripped");
    assert!(report.completed() > 0);
    for t in &report.tenants {
        assert!(t.rejected > 0, "backpressure must hit both tenants: {t:?}");
    }
}

/// The ISSUE acceptance gate: a rate-limited saturating co-tenant moves
/// the victim's p99 by at most 5% relative to running with an idle
/// neighbor — while the *unlimited* version of the same co-tenant blows
/// the victim's tail up by far more than that.
#[test]
fn noisy_neighbor_is_isolated_by_rate_limit() {
    // GC headroom: test_tiny prefills to 7 free superblocks against a
    // trigger threshold of 8, so the hog's very first write would set
    // off a GC round whose copyback storm — not the write itself —
    // perturbs the victim. This experiment is about front-end QoS, so
    // keep background GC out of the frame for the light-write cases
    // (the unleashed hog drives free space down and pays full price).
    let quiet_sim = || {
        let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
        cfg.ftl.gc_threshold_free = 4;
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        sim
    };
    // Identical victim stream in all three specs: two tenants, so the
    // namespace split and the per-tenant rng forks line up; only the
    // hog's knobs change.
    let spec_for = |hog: &str| {
        ServiceSpec::parse(&format!(
            "duration_ms 10\nwarmup_ms 2\nseed 21\n\
             tenant victim iops=150000 pages=1 read=1.0 weight=4\n\
             tenant hog {hog}\n"
        ))
        .unwrap()
    };
    let victim_p99_us = |spec: &ServiceSpec, min_completed: u64| {
        let mut sim = quiet_sim();
        let mut report = serve(spec, &mut sim);
        check_conservation(&report);
        let t = &mut report.tenants[0];
        assert_eq!(t.name, "victim");
        assert!(t.completed >= min_completed, "victim barely ran: {t:?}");
        t.latency.percentile(0.99).as_ns() as f64 / 1e3
    };

    // ~0 offered IOPS: the idle-neighbor baseline.
    let baseline = victim_p99_us(&spec_for("iops=0.001 pages=8 read=0.0"), 50);
    // Saturating writer, rate-limited so hard only the initial burst
    // (one request) ever reaches the device inside the horizon.
    let limited = victim_p99_us(
        &spec_for("iops=200000 pages=8 read=0.0 rate=100 burst=8 qd=16"),
        50,
    );
    // The same writer unleashed drowns the device — the victim may not
    // even finish its schedule, which is exactly the point.
    let unleashed = victim_p99_us(&spec_for("iops=200000 pages=8 read=0.0"), 10);

    let delta = (limited - baseline).abs() / baseline;
    assert!(
        delta <= 0.05,
        "rate-limited hog moved victim p99 by {:.1}% (baseline {baseline:.0} us, \
         limited {limited:.0} us)",
        delta * 100.0
    );
    assert!(
        unleashed > baseline * 1.5,
        "unlimited hog should wreck the victim tail (baseline {baseline:.0} us, \
         unleashed {unleashed:.0} us) — workload no longer saturates"
    );
}
