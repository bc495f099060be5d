//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]`
//!
//! Prints one line per metric (`name value unit`), then the result as a
//! single JSON line: end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`. A failed check shows as `"correct": false`
//! (and a `FAILED` line on stderr); the exit code is 0 whenever a result
//! is printed and 2 on bad arguments.

use std::process::ExitCode;

use dssd_perfbench::measure::measure;
use dssd_perfbench::traced::traced;
use dssd_perfbench::workload::{Scale, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut scale = Scale::Full;
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            scale = Scale::Quick;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join("|"))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("seconds in (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced(args.workload, args.seed, args.seconds, args.scale)
    } else {
        measure(args.workload, args.seed, args.seconds, args.scale)
    };
    for e in &report.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    for line in &report.detail {
        println!("{line}");
    }
    for m in &report.metrics {
        println!(
            "{:<32} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
