//! End-to-end measurement: repeat a workload's fixed simulated window,
//! each time from a fresh set-up, for the requested host seconds and
//! report medians.
//!
//! Every repetition is metered ([`Drive::Metered`]): its host times are
//! divided by the slowdown the calibration ticks beside them saw, which
//! puts them at the reference host's speed (see [`crate::calib`]).

use std::thread;
use std::time::Instant;

use crate::host;
use crate::metrics::{median, Report};
use crate::spans::Spans;
use crate::workload::{check, run, Drive, Plan, Scale, SimOut, SimResults, Workload};

/// Repetitions made even when the time budget is already spent.
const MIN_REPS: usize = 3;

/// Repetitions stop once this much host time has gone, whatever the
/// budget, so a run always ends well inside three minutes.
const MAX_SECONDS: f64 = 150.0;

/// Events per metered step: a few host milliseconds, long enough that
/// the simulator has evicted the calibration table from L2 before each
/// tick, so every tick measures the same refill (see [`crate::calib`]).
fn step_events(workload: Workload) -> u64 {
    match workload {
        Workload::GcWrite => 20_000,
        Workload::HostRead => 2_500,
        Workload::QosTraced => 10_000,
    }
}

/// Measures `workload` at `seed` for about `seconds` host seconds.
#[must_use]
pub fn measure(workload: Workload, seed: u64, seconds: f64, scale: Scale) -> Report {
    let plan = Plan::new(workload, seed, scale);
    let window = plan.window_kind();
    let drive = Drive::Metered(step_events(workload));
    let start = Instant::now();
    let mut report = Report::default();
    let (mut wall, mut cpu, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<SimOut> = None;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let reps = report.attempted as usize;
        if (reps >= MIN_REPS && elapsed >= seconds) || elapsed >= MAX_SECONDS {
            break;
        }
        let rep = isolated(|| {
            let o = run(&plan, &window, drive, &mut Spans::default());
            check(&plan, &window, &o)?;
            // `new` and `prefill` are single calls that cannot be
            // stepped: the run's ticks, which follow them within a
            // second, stand in for the host's speed during them.
            let (at_setup, at_window) = (o.lap.slowdown(), o.window_lap.slowdown());
            eprintln!(
                "rep {reps}: setup {:.6} s, window {:.6} s, cpu {:.6} s; slowdown {at_setup:.4} setup, {at_window:.4} window",
                o.setup_s(),
                o.window_s,
                o.cpu_s,
            );
            Ok((
                o.window_s / at_window,
                o.cpu_s / at_window,
                o.setup_s() / at_setup,
                o.out,
            ))
        });
        report.attempt(rep.and_then(|(w, c, s, out)| {
            wall.push(w);
            cpu.push(c);
            setup.push(s);
            match &first {
                None => first = Some(out),
                Some(f) if *f != out => {
                    return Err(format!("rep {reps} differs from rep 0: {out:?} vs {f:?}"));
                }
                Some(_) => {}
            }
            Ok(())
        }));
    }
    let out = first.map(|o| o.results);
    let sim = |f: fn(&SimResults) -> f64| out.as_ref().map_or(f64::NAN, f);
    report.push("wall_s", median(&wall));
    report.push("cpu_s", median(&cpu));
    report.push("setup_s", median(&setup));
    report.push("peak_rss_mb", host::peak_rss_mb());
    report.push("sim_io_gbps", sim(|r| r.io_gbps));
    report.push("sim_gc_gbps", sim(|r| r.gc_gbps));
    report.push("sim_p99_us", sim(|r| r.p99_ns as f64 / 1e3));
    report
}

/// Stack for the thread each run gets: the main thread's default, which
/// the CLI runs the simulator with.
const STACK_BYTES: usize = 8 << 20;

/// Runs `f` on a fresh thread and waits for it, turning a panic into an
/// error carrying its message.
///
/// A fresh thread starts with empty thread-local memo pools (the fNoC
/// express timeline cache keeps resolved timelines per thread across
/// networks), so every run pays what a one-off run of the simulator
/// pays, whatever ran before it in this process.
///
/// # Errors
///
/// Returns `f`'s error, or the panic message if it panicked.
///
/// # Panics
///
/// Panics if the thread cannot be spawned.
pub fn isolated<T: Send>(f: impl FnOnce() -> Result<T, String> + Send) -> Result<T, String> {
    thread::scope(|s| {
        let worker = thread::Builder::new()
            .stack_size(STACK_BYTES)
            .spawn_scoped(s, f)
            .expect("spawn a benchmark thread");
        worker.join().unwrap_or_else(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            Err(format!("panicked: {msg}"))
        })
    })
}
