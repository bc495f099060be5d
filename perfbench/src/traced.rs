//! The traced run: per-layer metrics for one workload.
//!
//! A pass makes the measured run with spans around every call into a
//! layer, then re-runs it under the reference-engine ablations, with the
//! tracer flipped, stepped in fixed simulated slices, and as a live and
//! a batch service run; every re-run must reproduce the measured run's
//! simulated outputs. It ends with the layer replays. Passes repeat for
//! the requested host seconds and each metric reports its median.

use std::time::Instant;

use dssd_kernel::{Rng, SimSpan};
use dssd_service::ServiceReport;
use dssd_ssd::StageKind;

use crate::measure::isolated;
use crate::metrics::{median, quantile, Report, PER_LAYER};
use crate::replay;
use crate::spans::Spans;
use crate::workload::{check, run, Drive, Outcome, Plan, Scale, SimOut, Window, Workload};

/// Simulated slices per window for `ssd.slice_*`.
const SLICES: u64 = 100;

/// Events for the kernel replays; requests for the tracer replay.
const QUEUE_STEPS: usize = 1_000_000;
const SERVER_ENQUEUES: usize = 1_000_000;
const TRACER_REQUESTS: u64 = 100_000;

/// Upper bounds on replay inputs taken from the measured run.
const NOC_PACKETS: u64 = 4_000;
const FTL_REQUESTS: u64 = 20_000;

/// Runs traced passes of `workload` for about `seconds` host seconds.
#[must_use]
pub fn traced(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> Report {
    let plan = Plan::new(workload, seed, scale);
    let start = Instant::now();
    let mut report = Report::default();
    let mut spans = Spans::default();
    let mut passes: Vec<Vec<f64>> = Vec::new();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        match pass(&plan, &mut spans, &mut report) {
            Some(values) => passes.push(values),
            // The measured run itself failed: nothing to break down.
            None => break,
        }
    }
    let differing: Vec<String> = PER_LAYER
        .iter()
        .enumerate()
        .filter(|&(i, &(_, unit))| unit == "count" && passes.iter().any(|p| p[i] != passes[0][i]))
        .map(|(i, &(name, _))| {
            let values: Vec<f64> = passes.iter().map(|p| p[i]).collect();
            format!("{name} {values:?}")
        })
        .collect();
    if passes.len() > 1 {
        report.attempt(if differing.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "counts differ between passes: {}",
                differing.join(", ")
            ))
        });
    }
    for (i, &(name, _)) in PER_LAYER.iter().enumerate() {
        let values: Vec<f64> = passes.iter().map(|p| p[i]).collect();
        report.push(name, median(&values));
    }
    for t in spans.totals() {
        report.detail.push(format!(
            "span {:<32} count {:>4}  total {:>10.6} s  self {:>10.6} s",
            t.name, t.count, t.total_s, t.self_s
        ));
    }
    report.detail.push(format!("passes {}", passes.len()));
    report
}

/// Runs `f` as one attempted operation inside a span, on a fresh thread
/// (see [`isolated`]); `None` if it panicked or failed a check.
fn op<T: Send>(
    report: &mut Report,
    spans: &mut Spans,
    name: &'static str,
    f: impl FnOnce(&mut Spans) -> Result<T, String> + Send,
) -> Option<T> {
    let id = spans.open(name);
    let r = isolated(|| f(&mut *spans));
    spans.close(id);
    match r {
        Ok(v) => {
            report.attempt(Ok(()));
            Some(v)
        }
        Err(e) => {
            report.attempt(Err(format!("{name}: {e}")));
            None
        }
    }
}

/// One checked run of `plan` with `window` stepped by `drive`; when
/// `want` is given, its simulated outputs must equal `want` (only its
/// [`SimResults`](crate::workload::SimResults) when the fNoC express
/// path differs, see [`SimOut`]).
fn checked(
    plan: &Plan,
    window: &Window,
    drive: Drive,
    want: Option<(&Plan, &SimOut)>,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let o = run(plan, window, drive, spans);
    check(plan, window, &o)?;
    match want {
        Some((p, w)) if p.noc_express != plan.noc_express && w.results != o.out.results => Err(
            format!("results differ: {:?} vs {:?}", o.out.results, w.results),
        ),
        Some((p, w)) if p.noc_express == plan.noc_express && *w != o.out => {
            Err(format!("outputs differ: {:?} vs {w:?}", o.out))
        }
        _ => Ok(o),
    }
}

/// One traced pass; returns the values of [`PER_LAYER`] in order, or
/// `None` if the measured run failed.
fn pass(plan: &Plan, spans: &mut Spans, report: &mut Report) -> Option<Vec<f64>> {
    let window = plan.window_kind();
    let a = op(report, spans, "pass.measured", |s| {
        checked(plan, &window, Drive::Whole, None, s)
    })?;
    let cfg = plan.config();
    let page = u64::from(cfg.geometry.page_bytes);
    let elapsed_ns = a.out.results.elapsed_ns as f64;
    let mut m: Vec<f64> = Vec::with_capacity(PER_LAYER.len());
    let nan = f64::NAN;

    // ssd: phases of the measured run, then the ablations.
    m.extend([a.new_s, a.prefill_s, a.warmup_s, a.window_s]);
    for (name, flash_express, noc_express) in [
        ("pass.no_flash_express", false, true),
        ("pass.no_noc_express", true, false),
        ("pass.reference", false, false),
    ] {
        let p = Plan {
            flash_express,
            noc_express,
            ..*plan
        };
        let o = op(report, spans, name, |s| {
            checked(&p, &window, Drive::Whole, Some((plan, &a.out)), s)
        });
        m.push(o.map_or(nan, |o| o.window_s));
    }

    // The service pacer: the same spec live and as a batch, untraced.
    let iops = a.out.results.requests as f64 / (elapsed_ns * 1e-9);
    let spec = plan.pacer_spec(iops);
    let quiet = Plan {
        observed: false,
        ..*plan
    };
    let live = op(report, spans, "pass.serve_live", |s| {
        checked(&quiet, &Window::Serve(spec.clone()), Drive::Whole, None, s)
    });
    let batch = live.as_ref().and_then(|l| {
        op(report, spans, "pass.serve_batch", |s| {
            checked(
                &quiet,
                &Window::Batch(spec.clone()),
                Drive::Whole,
                Some((&quiet, &l.out)),
                s,
            )
        })
    });

    // Slices: the measured window, stepped.
    let slice = SimSpan::from_ns(plan.window().as_ns() / SLICES);
    let sliced = op(report, spans, "pass.sliced", |s| {
        checked(plan, &window, Drive::Sliced(slice), Some((plan, &a.out)), s)
    });
    let slices = sliced.map(|o| o.slices_ms).unwrap_or_default();
    let events = a.out.events as f64;
    let (walked, demoted) = a.sim.flash_express_diag();
    m.extend([
        events,
        (a.warmup_s + a.window_s) * 1e9 / events,
        if slices.is_empty() {
            nan
        } else {
            quantile(&slices, 0.5)
        },
        if slices.is_empty() {
            nan
        } else {
            quantile(&slices, 0.99)
        },
        walked as f64,
        demoted as f64,
        if walked + demoted == 0 {
            0.0
        } else {
            walked as f64 / (walked + demoted) as f64
        },
    ]);

    // noc: counters, then a standalone network at the run's packet rate.
    let noc = a.sim.noc().expect("dSSD_f has an fNoC");
    let (st, fx) = (noc.stats(), noc.express_diag());
    m.extend(
        [
            st.injected,
            st.flit_hops,
            st.credit_stalls,
            fx.granted,
            fx.demoted,
            fx.cache_hits,
            fx.forward_pops,
            fx.replay_pops,
        ]
        .map(|c| c as f64),
    );
    let (noc_cfg, rate) = (*noc.config(), st.delivered as f64 / (elapsed_ns * 1e-9));
    let packets = st.delivered.clamp(1, NOC_PACKETS) as usize;
    let noc_ns = op(report, spans, "noc.replay", |_| {
        Ok(replay::noc(noc_cfg, rate, packets, page, plan.seed))
    });
    m.push(noc_ns.unwrap_or(nan));

    // ftl: counters over the window, then a standalone FTL fed the
    // workload's address stream (generation timed as workload.gen_s).
    let fs = a.sim.ftl().stats();
    let host_pages = fs.host_pages_written - a.prefill_host_pages;
    m.extend([
        host_pages as f64,
        fs.gc_pages_copied as f64,
        fs.erases as f64,
        fs.stale_copies as f64,
        if host_pages == 0 {
            0.0
        } else {
            (host_pages + fs.gc_pages_copied) as f64 / host_pages as f64
        },
    ]);
    let lpns = a.sim.ftl().lpn_count();
    let gen = op(report, spans, "workload.gen", |_| {
        let t0 = Instant::now();
        let requests = match plan.workload {
            Workload::QosTraced => plan
                .spec()
                .batch_requests(lpns)
                .into_iter()
                .map(|(_, r)| r)
                .collect(),
            Workload::GcWrite | Workload::HostRead => {
                let mut w = plan.closed_loop().bind(lpns);
                let mut rng = Rng::new(plan.seed).fork(0x5752);
                let n = a.out.results.requests.min(FTL_REQUESTS);
                (0..n).map(|_| w.next_request(&mut rng)).collect::<Vec<_>>()
            }
        };
        Ok((t0.elapsed().as_secs_f64(), requests))
    });
    let (gen_s, requests) = gen.unwrap_or((nan, Vec::new()));
    let ftl = op(report, spans, "ftl.replay", |_| {
        Ok(replay::ftl(&cfg, &requests))
    });
    m.extend(ftl.map_or([nan; 4], |c| {
        [c.write_pages_ns, c.gc_victim_ns, c.copy_ns, c.translate_ns]
    }));

    // kernel: hold-model queue and system-bus server replays at the
    // run's event density and page-transfer rate.
    let hold = match plan.workload {
        Workload::QosTraced => plan
            .spec()
            .tenants
            .iter()
            .map(|t| t.qd_cap * t.pages as usize)
            .sum::<usize>(),
        Workload::GcWrite | Workload::HostRead => {
            let w = plan.closed_loop();
            w.queue_depth() * w.request_pages() as usize
        }
    };
    let gap_ns = elapsed_ns * hold as f64 / events;
    let arrivals = a.out.results.requests as f64 / events;
    let q = op(report, spans, "kernel.queue_replay", |_| {
        Ok(replay::queue(
            hold,
            gap_ns,
            arrivals,
            QUEUE_STEPS,
            plan.seed,
        ))
    });
    let transfers = (a.out.results.io_bytes / page + a.out.results.gc_pages).max(1) as f64;
    let srv = op(report, spans, "kernel.server_replay", |_| {
        let (bw, over) = (cfg.system_bus_bytes_per_sec(), cfg.bus_overhead);
        Ok(replay::server(
            bw,
            over,
            page,
            elapsed_ns / transfers,
            SERVER_ENQUEUES,
            plan.seed,
        ))
    });
    m.extend([q.unwrap_or(nan), srv.unwrap_or(nan)]);

    // ctrl: simulated bus utilisation and per-stage host-I/O latency.
    let r = a.sim.report();
    m.extend([r.sysbus_io_utilization(), r.sysbus_gc_utilization()]);
    m.extend(StageKind::all().map(|k| r.io_breakdown.mean_us(k)));
    let stage_ns = StageKind::all().map(|k| (r.io_breakdown.mean_us(k) * 1e3) as u64);

    // telemetry: the observer pair, then span-call replays.
    let flipped = Plan {
        observed: !plan.observed,
        ..*plan
    };
    let b = op(report, spans, "pass.observer_flipped", |s| {
        checked(&flipped, &window, Drive::Whole, Some((plan, &a.out)), s)
    });
    let (observed, unobserved) = if plan.observed {
        (Some(&a), b.as_ref())
    } else {
        (b.as_ref(), Some(&a))
    };
    let tracer = observed.map(|o| o.sim.tracer());
    m.extend([
        tracer.map_or(nan, |t| t.events_recorded() as f64),
        tracer.map_or(nan, |t| t.events_pruned() as f64),
    ]);
    let gap = (elapsed_ns / a.out.results.requests as f64) as u64;
    for (name, cfg) in [
        ("telemetry.replay_disabled", None),
        ("telemetry.replay_enabled", Some(crate::workload::TRACE)),
    ] {
        let ns = op(report, spans, name, |_| {
            Ok(replay::tracer(cfg, stage_ns, TRACER_REQUESTS, gap))
        });
        m.push(ns.unwrap_or(nan));
    }
    m.push(match (observed, unobserved) {
        (Some(o), Some(u)) => o.window_s - u.window_s,
        _ => nan,
    });

    // service: the pacer pair's live run.
    let service: Option<&ServiceReport> = live.as_ref().and_then(|l| l.service.as_ref());
    let sum = |f: fn(&dssd_service::TenantReport) -> u64| {
        service.map_or(nan, |s| s.tenants.iter().map(f).sum::<u64>() as f64)
    };
    m.extend([
        sum(|t| t.submitted),
        sum(|t| t.completed),
        sum(|t| t.rejected),
        sum(|t| t.throttled),
        sum(|t| t.expired),
        service
            .and_then(|s| s.tenants.last())
            .map_or(nan, |t| t.latency.clone().percentile(0.99).as_us_f64()),
        match (&live, &batch) {
            (Some(l), Some(b)) => l.window_s - b.window_s,
            _ => nan,
        },
        gen_s,
    ]);
    assert_eq!(
        m.len(),
        PER_LAYER.len(),
        "one value per declared per-layer metric"
    );
    Some(m)
}
