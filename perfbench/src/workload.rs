//! The benchmark's workloads and one timed run of each.
//!
//! Every workload drives `SsdConfig::test_tiny(Architecture::DssdFnoc)`,
//! the CLI's default configuration, through the simulator's public API.
//! The seed feeds `SsdConfig::with_seed` and the service spec's `seed`
//! line, so the simulator receives only inputs generated from it.
//!
//! A live `dssd_service::serve` run is one call that cannot be stepped,
//! so it cannot be metered against host-speed drift (see
//! [`crate::calib`]). `qos_traced` therefore replays its service spec's
//! arrivals with `run_trace`, which can be stepped, and the service
//! pacer is priced only in the traced run's pairs.

use std::time::Instant;

use dssd_ftl::FtlStats;
use dssd_kernel::{SimSpan, SimTime};
use dssd_service::{serve, ServiceReport, ServiceSpec};
use dssd_ssd::{Architecture, RunState, SsdConfig, SsdSim, TraceConfig};
use dssd_workload::{AccessPattern, SyntheticWorkload};

use crate::calib::{Lap, Meter};
use crate::host;
use crate::spans::Spans;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, QD 64, random 8-page writes, back-to-back GC rounds.
    GcWrite,
    /// Closed loop, QD 64, random 8-page flash reads, timed after the
    /// prefill-triggered GC round has drained.
    HostRead,
    /// The two-tenant QoS spec's arrivals replayed open loop
    /// (`run_trace` of its `batch_requests`), with the tracer armed.
    QosTraced,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::GcWrite, Workload::HostRead, Workload::QosTraced];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::GcWrite => "gc_write",
            Workload::HostRead => "host_read",
            Workload::QosTraced => "qos_traced",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Simulated run length: `Full` is what the benchmark measures, `Quick`
/// a short window for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured windows.
    Full,
    /// Short windows with every check still applied.
    Quick,
}

/// The arrival spec of the `serve_two_tenant_qos` bench row: tenant a is
/// a rate-, burst- and depth-limited writer, tenant b a latency-sensitive
/// reader (the victim).
const TWO_TENANT_QOS: &str = "backlog 192\n\
    tenant a iops=120000 pages=4 read=0.3 rate=400000 burst=64 qd=48 weight=3\n\
    tenant b iops=80000 pages=1 read=0.9 rate=100000 burst=16 qd=16\n";

/// Tracer settings when a run is observed: a 1 ms span window and 1 ms
/// epoch sampling, the CLI's `--trace-window 1 --epoch-ms 1`.
pub const TRACE: TraceConfig = TraceConfig {
    window: Some(SimSpan::from_ms(1)),
    epoch: Some(SimSpan::from_ms(1)),
};

/// Simulated time the prefill-triggered GC round needs to drain under
/// `host_read` before its timed window opens.
const READ_WARMUP: SimSpan = SimSpan::from_ms(5);

/// Slices a metered warm-up is stepped in.
const WARMUP_SLICES: u64 = 50;

/// What one run simulates: a workload at a seed, plus the execution
/// strategy the reference-engine ablations vary.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Generator seed.
    pub seed: u64,
    /// Window length.
    pub scale: Scale,
    /// `SsdConfig::flash_express`.
    pub flash_express: bool,
    /// `NocConfig::express`.
    pub noc_express: bool,
    /// Whether the tracer is armed (`enable_tracing` with [`TRACE`]).
    pub observed: bool,
}

impl Plan {
    /// The workload as measured: both express paths on, observed only
    /// for `qos_traced`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Plan {
        Plan {
            workload,
            seed,
            scale,
            flash_express: true,
            noc_express: true,
            observed: workload == Workload::QosTraced,
        }
    }

    /// The simulator configuration.
    #[must_use]
    pub fn config(&self) -> SsdConfig {
        let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc).with_seed(self.seed);
        cfg.gc_continuous = self.workload != Workload::HostRead;
        cfg.flash_express = self.flash_express;
        cfg.noc = cfg.noc.with_express(self.noc_express);
        cfg
    }

    /// Simulated time before the timed window opens.
    #[must_use]
    pub fn warmup(&self) -> SimSpan {
        match self.workload {
            Workload::HostRead => READ_WARMUP,
            _ => SimSpan::ZERO,
        }
    }

    /// Simulated length of the timed window.
    #[must_use]
    pub fn window(&self) -> SimSpan {
        let ms = match (self.workload, self.scale) {
            (Workload::GcWrite, Scale::Full) => 10,
            (Workload::HostRead, Scale::Full) => 300,
            (Workload::QosTraced, Scale::Full) => 10,
            (_, Scale::Quick) => 1,
        };
        SimSpan::from_ms(ms)
    }

    /// The closed-loop request generator (`gc_write`, `host_read`).
    #[must_use]
    pub fn closed_loop(&self) -> SyntheticWorkload {
        match self.workload {
            Workload::HostRead => SyntheticWorkload::reads(AccessPattern::Random, 8),
            _ => SyntheticWorkload::writes(AccessPattern::Random, 8),
        }
        .with_queue_depth(64)
    }

    /// The two-tenant QoS spec (`qos_traced`), seeded from the plan.
    ///
    /// # Panics
    ///
    /// Panics if the built-in spec text fails to parse.
    #[must_use]
    pub fn spec(&self) -> ServiceSpec {
        let ms = self.window().as_ns() / 1_000_000;
        let text = format!("duration_ms {ms}\nseed {}\n{TWO_TENANT_QOS}", self.seed);
        ServiceSpec::parse(&text).expect("built-in service spec parses")
    }

    /// The spec whose live and batch runs price the service pacer, with
    /// every QoS limit lifted (so the two runs must agree): the
    /// two-tenant spec, or for a closed loop, one tenant offering the
    /// closed loop's requests at `iops`, its measured completion rate.
    ///
    /// # Panics
    ///
    /// Panics if the generated spec text fails to parse.
    #[must_use]
    pub fn pacer_spec(&self, iops: f64) -> ServiceSpec {
        let mut spec = match self.workload {
            Workload::QosTraced => self.spec(),
            Workload::GcWrite | Workload::HostRead => {
                let ms = match self.scale {
                    Scale::Full => 3,
                    Scale::Quick => 1,
                };
                let w = self.closed_loop();
                let read = u8::from(self.workload == Workload::HostRead);
                let text = format!(
                    "duration_ms {ms}\nseed {}\ntenant {} iops={iops:.3} pages={} read={read}\n",
                    self.seed,
                    self.workload.name(),
                    w.request_pages(),
                );
                ServiceSpec::parse(&text).expect("mirror service spec parses")
            }
        };
        spec.backlog_limit = 0;
        for t in &mut spec.tenants {
            t.rate_pages_per_sec = 0;
            t.qd_cap = 0;
        }
        spec
    }

    /// What this plan's timed window drives.
    #[must_use]
    pub fn window_kind(&self) -> Window {
        match self.workload {
            Workload::QosTraced => Window::Batch(self.spec()),
            Workload::GcWrite | Workload::HostRead => Window::Closed,
        }
    }
}

/// What a run's timed window drives.
#[derive(Debug, Clone)]
pub enum Window {
    /// The plan's closed loop (`begin_closed_loop` .. `finish_run`).
    Closed,
    /// A live `dssd_service::serve` run of the spec.
    Serve(ServiceSpec),
    /// `run_trace` of the spec's `batch_requests`, stepped like the
    /// drive says.
    Batch(ServiceSpec),
}

/// How the event loop is stepped inside the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// One `run_events(u64::MAX)` call (or `serve` for a live window).
    Whole,
    /// `run_until` at every multiple of the slice, each slice timed.
    Sliced(SimSpan),
    /// `run_events` of this many events at a time (which keeps the
    /// express paths' bursts, unlike `run_until`), the warm-up stepped
    /// in simulated slices, with a calibration tick after every step.
    /// The phases' host times exclude the ticks, and the ticks' laps give
    /// the host's slowdown (see [`crate::calib`]).
    Metered(u64),
}

/// The simulated outputs of a run.
///
/// Equal plans must reproduce all of them exactly, whatever the tracer
/// or the flash-side express path. The fNoC express path simulates flit
/// events privately instead of through the event queue, so the queue
/// cursor folded into `digest` and the event count (which the fNoC
/// crate keeps comparable, not equal) legitimately differ with it off;
/// every simulated result in [`SimResults`] must still match.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOut {
    /// `SsdSim::state_digest` after `finish_run`.
    pub digest: u64,
    /// Events delivered (queue pops plus express-path events).
    pub events: u64,
    /// Everything the modelled drive reports.
    pub results: SimResults,
}

/// The simulated results of a run: what the modelled drive did, as
/// opposed to how the host executed it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResults {
    /// Host requests completed.
    pub requests: u64,
    /// Host bytes completed.
    pub io_bytes: u64,
    /// GC pages copied.
    pub gc_pages: u64,
    /// Order-sensitive digest of GC copy issue (`RunReport`).
    pub gc_issue_digest: u64,
    /// Simulated mean host latency, ns.
    pub mean_ns: u64,
    /// Simulated p99 host latency, ns.
    pub p99_ns: u64,
    /// Simulated run length, ns.
    pub elapsed_ns: u64,
    /// Simulated host I/O bandwidth over the run, GB/s.
    pub io_gbps: f64,
    /// Simulated GC copy bandwidth over the run, GB/s.
    pub gc_gbps: f64,
    /// FTL counters.
    pub ftl: FtlStats,
    /// fNoC packets delivered, flit hops and credit stalls.
    pub noc: [u64; 3],
}

/// One timed run: host seconds per phase, the simulated outputs, and
/// the simulator itself for the per-layer counters.
#[derive(Debug)]
pub struct Outcome {
    /// `SsdSim::new`.
    pub new_s: f64,
    /// `SsdSim::prefill`.
    pub prefill_s: f64,
    /// From prefill to the timed window: arming the tracer and the run,
    /// and `host_read`'s warm-up.
    pub warmup_s: f64,
    /// The timed window.
    pub window_s: f64,
    /// Process CPU seconds over the timed window.
    pub cpu_s: f64,
    /// Every calibration tick of the run, warm-up and window (none
    /// unless metered).
    pub lap: Lap,
    /// The calibration ticks inside the timed window.
    pub window_lap: Lap,
    /// FTL host pages written by the prefill, before the window.
    pub prefill_host_pages: u64,
    /// Host milliseconds per simulated slice under [`Drive::Sliced`].
    pub slices_ms: Vec<f64>,
    /// Simulated outputs.
    pub out: SimOut,
    /// The service report of a live window.
    pub service: Option<ServiceReport>,
    /// The finished simulator.
    pub sim: SsdSim,
}

impl Outcome {
    /// Set-up host seconds: new, prefill and warm-up.
    #[must_use]
    pub fn setup_s(&self) -> f64 {
        self.new_s + self.prefill_s + self.warmup_s
    }
}

/// Runs `plan` once with `window` as its timed window.
#[must_use]
pub fn run(plan: &Plan, window: &Window, drive: Drive, spans: &mut Spans) -> Outcome {
    let mut meter = matches!(drive, Drive::Metered(_)).then(Meter::new);
    let lap = |m: &Option<Meter>| m.as_ref().map_or_else(Lap::default, Meter::lap);

    let cfg = plan.config();
    let (mut sim, new_s) = spans.time("ssd.new", || SsdSim::new(cfg));
    let ((), prefill_s) = spans.time("ssd.prefill", || sim.prefill());
    let prefill_host_pages = sim.ftl().stats().host_pages_written;

    let warm = spans.open("ssd.warmup");
    let warm0 = lap(&meter);
    if plan.observed {
        sim.enable_tracing(TRACE);
    }
    let warmup_end = SimTime::ZERO + plan.warmup();
    if let Window::Closed = window {
        sim.begin_closed_loop(plan.closed_loop(), plan.warmup() + plan.window());
        if warmup_end > SimTime::ZERO {
            match meter.as_mut() {
                Some(m) => {
                    let slice = SimSpan::from_ns(plan.warmup().as_ns() / WARMUP_SLICES);
                    let mut t = SimTime::ZERO;
                    while t < warmup_end {
                        t = (t + slice).min(warmup_end);
                        sim.run_until(t);
                        m.tick();
                    }
                }
                None => {
                    sim.run_until(warmup_end);
                }
            }
        }
    }
    let warmup_s = spans.close(warm) - lap(&meter).since(warm0).wall_s;

    let mut slices_ms = Vec::new();
    let window0 = lap(&meter);
    let cpu0 = host::cpu_s();
    let span = spans.open(match window {
        Window::Closed => "ssd.run_events",
        Window::Serve(_) => "service.serve",
        Window::Batch(_) => "ssd.run_trace",
    });
    let service = match window {
        Window::Closed => {
            step(&mut sim, drive, warmup_end, &mut slices_ms, meter.as_mut());
            None
        }
        Window::Serve(spec) => {
            assert_eq!(drive, Drive::Whole, "a live serve window cannot be sliced");
            Some(serve(spec, &mut sim))
        }
        Window::Batch(spec) => {
            let requests = spec.batch_requests(sim.ftl().lpn_count());
            sim.begin_open_loop(spec.duration);
            for (t, r) in requests {
                sim.inject_arrival(t, r);
            }
            step(
                &mut sim,
                drive,
                SimTime::ZERO,
                &mut slices_ms,
                meter.as_mut(),
            );
            None
        }
    };
    let window_lap = lap(&meter).since(window0);
    let window_s = spans.close(span) - window_lap.wall_s;
    let cpu_s = host::cpu_s() - cpu0 - window_lap.cpu_s;

    let out = sim_out(&mut sim);
    Outcome {
        new_s,
        prefill_s,
        warmup_s,
        window_s,
        cpu_s,
        lap: lap(&meter),
        window_lap,
        prefill_host_pages,
        slices_ms,
        out,
        service,
        sim,
    }
}

/// Runs an armed window to its horizon and finishes it, ticking `meter`
/// after every step of a metered drive.
fn step(
    sim: &mut SsdSim,
    drive: Drive,
    from: SimTime,
    slices_ms: &mut Vec<f64>,
    meter: Option<&mut Meter>,
) {
    match drive {
        Drive::Whole => {
            sim.run_events(u64::MAX);
        }
        Drive::Metered(events) => {
            let m = meter.expect("a metered run has a meter");
            while sim.run_events(events) == RunState::Paused {
                m.tick();
            }
            m.tick();
        }
        Drive::Sliced(slice) => {
            let horizon = sim.horizon();
            let mut t = from;
            loop {
                t = (t + slice).min(horizon);
                let t0 = Instant::now();
                let state = sim.run_until(t);
                slices_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if state != RunState::Paused {
                    break;
                }
                if t == horizon {
                    // The whole run pops the first event past the
                    // horizon before it stops; so must the stepped one.
                    sim.run_events(u64::MAX);
                    break;
                }
            }
        }
    }
    sim.finish_run();
}

fn sim_out(sim: &mut SsdSim) -> SimOut {
    let p99_ns = sim.report_mut().latency_percentile(0.99).as_ns();
    let r = sim.report();
    let noc = sim.noc().map_or([0; 3], |n| {
        let st = n.stats();
        [st.delivered, st.flit_hops, st.credit_stalls]
    });
    SimOut {
        digest: sim.state_digest(),
        events: r.events_delivered,
        results: SimResults {
            requests: r.requests_completed,
            io_bytes: r.io_bw.total_bytes(),
            gc_pages: r.gc_pages_copied,
            gc_issue_digest: r.gc_issue_digest,
            mean_ns: r.mean_latency().as_ns(),
            p99_ns,
            elapsed_ns: r.elapsed.as_ns(),
            io_gbps: r.io_bandwidth_gbps(),
            gc_gbps: r.gc_bandwidth_gbps(),
            ftl: sim.ftl().stats(),
            noc,
        },
    }
}

/// Checks a finished run's invariants: work was done, nothing failed,
/// every completed byte and copied page is accounted for, and a service
/// run conserves each tenant's submissions.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn check(plan: &Plan, window: &Window, o: &Outcome) -> Result<(), String> {
    let out = &o.out.results;
    let r = o.sim.report();
    let ftl = o.sim.ftl().stats();
    let page = u64::from(plan.config().geometry.page_bytes);
    let mut bad = Vec::new();
    if out.requests == 0 || out.gc_pages == 0 || out.p99_ns == 0 {
        bad.push(format!(
            "idle run: {} requests, {} GC pages, p99 {} ns",
            out.requests, out.gc_pages, out.p99_ns
        ));
    }
    if r.faults.requests_failed != 0 {
        bad.push(format!("{} requests failed", r.faults.requests_failed));
    }
    if out.gc_pages != ftl.gc_pages_copied + ftl.stale_copies {
        bad.push(format!(
            "report copied {} GC pages, FTL saw {} + {} stale",
            out.gc_pages, ftl.gc_pages_copied, ftl.stale_copies
        ));
    }
    if r.read_latency.count() + r.write_latency.count() != r.io_latency.count()
        || r.io_latency.count() as u64 != out.requests
    {
        bad.push("latency samples do not match completed requests".into());
    }
    match window {
        Window::Closed => {
            let want = out.requests * u64::from(plan.closed_loop().request_pages()) * page;
            if out.io_bytes != want {
                bad.push(format!(
                    "{} host bytes for {} requests",
                    out.io_bytes, out.requests
                ));
            }
            let written = ftl.host_pages_written - o.prefill_host_pages;
            if plan.workload == Workload::HostRead && written != 0 {
                bad.push(format!("read workload wrote {written} host pages"));
            }
        }
        Window::Serve(_) | Window::Batch(_) => {}
    }
    if let Some(s) = &o.service {
        for t in &s.tenants {
            if t.submitted != t.completed + t.rejected + t.expired {
                bad.push(format!(
                    "tenant {}: submitted {} != completed {} + rejected {} + expired {}",
                    t.name, t.submitted, t.completed, t.rejected, t.expired
                ));
            }
            if t.failed != 0 {
                bad.push(format!(
                    "tenant {}: {} failed completions",
                    t.name, t.failed
                ));
            }
        }
        if s.completed() != out.requests {
            bad.push(format!(
                "service completed {} but the device completed {}",
                s.completed(),
                out.requests
            ));
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}
