//! The benchmark's own checks, on short windows (`Scale::Quick`). Run in
//! release mode: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use dssd_perfbench::measure::measure;
use dssd_perfbench::metrics::{Report, END_TO_END, PER_LAYER};
use dssd_perfbench::spans::Spans;
use dssd_perfbench::traced::traced;
use dssd_perfbench::workload::{run, Drive, Plan, Scale, Workload};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        line[at..at + line[at..].find('"').expect("string closes")].to_string()
    };
    body.lines()
        .filter(|l| l.contains("\"name\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

fn printed(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_benchmark_json() {
    assert_eq!(owned(&END_TO_END), declared("end_to_end"));
    assert_eq!(owned(&PER_LAYER), declared("per_layer"));
    let workloads: Vec<_> = BENCHMARK_JSON
        .lines()
        .filter(|l| l.contains("\"why\""))
        .map(|l| l.split('"').nth(3).expect("workload name").to_string())
        .collect();
    let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn short_windows_pass_every_check_and_print_the_declared_metrics() {
    for w in Workload::ALL {
        let r = measure(w, 7, 0.0, Scale::Quick);
        assert!(r.correct(), "{}: {:?}", w.name(), r.errors);
        assert_eq!(r.attempted, 3);
        assert_eq!(printed(&r), declared("end_to_end"), "{}", w.name());
        assert!(
            r.metrics.iter().all(|m| m.value > 0.0),
            "{}: {:?}",
            w.name(),
            r.metrics
        );

        let t = traced(w, 7, 0.0, Scale::Quick);
        assert!(t.correct(), "{} traced: {:?}", w.name(), t.errors);
        assert_eq!(printed(&t), declared("per_layer"), "{}", w.name());
    }
}

#[test]
fn same_seed_repeats_and_other_seeds_change_the_inputs() {
    for w in Workload::ALL {
        let out = |seed| {
            let plan = Plan::new(w, seed, Scale::Quick);
            run(
                &plan,
                &plan.window_kind(),
                Drive::Whole,
                &mut Spans::default(),
            )
            .out
        };
        assert_eq!(out(3), out(3), "{}", w.name());
        assert_ne!(out(3).digest, out(4).digest, "{}", w.name());
    }
    let requests = |seed| {
        let plan = Plan::new(Workload::QosTraced, seed, Scale::Quick);
        plan.spec().batch_requests(1 << 20)
    };
    assert_eq!(requests(3), requests(3));
    assert_ne!(requests(3), requests(4));
}

#[test]
fn metered_runs_reproduce_the_whole_run() {
    for w in Workload::ALL {
        let plan = Plan::new(w, 9, Scale::Quick);
        let out = |drive| run(&plan, &plan.window_kind(), drive, &mut Spans::default());
        let (whole, metered) = (out(Drive::Whole), out(Drive::Metered(500)));
        assert_eq!(whole.out, metered.out, "{}", w.name());
        assert_eq!(whole.lap.ticks, 0);
        assert!(metered.window_lap.ticks > 1, "{}", w.name());
        assert!(metered.lap.ticks >= metered.window_lap.ticks);
    }
}

#[test]
fn command_line_prints_one_json_result_last() {
    let bin = env!("CARGO_BIN_EXE_dssd-perfbench");
    let out = Command::new(bin)
        .args([
            "--workload",
            "gc_write",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--quick",
        ])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for (name, unit) in END_TO_END {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(
            last.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing"
        );
    }
    let bad = Command::new(bin)
        .args(["--workload", "nope"])
        .output()
        .expect("runs");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
}
