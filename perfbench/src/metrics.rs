//! The result the benchmark prints: named metrics with units, plus the
//! correctness and failure accounting.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), `(name, unit)` in print order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_io_gbps", "GB/s"),
    ("sim_gc_gbps", "GB/s"),
    ("sim_p99_us", "us"),
];

/// Per-layer metrics (`--trace 1`), `(name, unit)` in print order. Host
/// times come from spans and replays; counts from public accessors.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("ssd.new_s", "s"),
    ("ssd.prefill_s", "s"),
    ("ssd.warmup_s", "s"),
    ("ssd.run_s", "s"),
    ("ssd.run_s.no_flash_express", "s"),
    ("ssd.run_s.no_noc_express", "s"),
    ("ssd.run_s.reference", "s"),
    ("ssd.events", "count"),
    ("ssd.ns_per_event", "ns"),
    ("ssd.slice_p50_ms", "ms"),
    ("ssd.slice_p99_ms", "ms"),
    ("ssd.fx_walked", "count"),
    ("ssd.fx_demoted", "count"),
    ("ssd.fx_walk_ratio", "ratio"),
    ("noc.packets", "count"),
    ("noc.flit_hops", "count"),
    ("noc.credit_stalls", "count"),
    ("noc.express_granted", "count"),
    ("noc.express_demoted", "count"),
    ("noc.express_cache_hits", "count"),
    ("noc.express_forward_pops", "count"),
    ("noc.express_replay_pops", "count"),
    ("noc.replay_ns_per_event", "ns"),
    ("ftl.host_pages", "count"),
    ("ftl.gc_pages", "count"),
    ("ftl.erases", "count"),
    ("ftl.stale_copies", "count"),
    ("ftl.write_amp", "ratio"),
    ("ftl.write_pages_ns", "ns"),
    ("ftl.gc_victim_ns", "ns"),
    ("ftl.copy_ns", "ns"),
    ("ftl.translate_ns", "ns"),
    ("kernel.queue_ns", "ns"),
    ("kernel.server_enqueue_ns", "ns"),
    ("ctrl.sysbus_io_util", "ratio"),
    ("ctrl.sysbus_gc_util", "ratio"),
    ("ctrl.stage.flash_chip_us", "us"),
    ("ctrl.stage.flash_bus_us", "us"),
    ("ctrl.stage.system_bus_us", "us"),
    ("ctrl.stage.dram_us", "us"),
    ("ctrl.stage.ecc_us", "us"),
    ("ctrl.stage.fnoc_us", "us"),
    ("telemetry.events_recorded", "count"),
    ("telemetry.events_pruned", "count"),
    ("telemetry.disabled_span_ns", "ns"),
    ("telemetry.enabled_span_ns", "ns"),
    ("telemetry.observer_s", "s"),
    ("service.submitted", "count"),
    ("service.completed", "count"),
    ("service.rejected", "count"),
    ("service.throttled", "count"),
    ("service.expired", "count"),
    ("service.victim_p99_us", "us"),
    ("service.pacer_s", "s"),
    ("workload.gen_s", "s"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A workload's result: metrics plus failed/attempted operations. An
/// operation is one simulator run (or one checked pair of runs); it fails
/// on a panic, a violated invariant or outputs that differ from the
/// reference.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Measurements, in print order.
    pub metrics: Vec<Metric>,
    /// What failed, for stderr.
    pub errors: Vec<String>,
    /// Lines printed before the metrics (span totals of a traced run).
    pub detail: Vec<String>,
}

impl Report {
    /// Records metric `name`, taking its unit from [`END_TO_END`] or
    /// [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither table.
    pub fn push(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"))
            .1;
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one attempted operation that failed with `why` (if any).
    pub fn attempt(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.errors.push(why);
        }
    }

    /// True when every operation passed and every metric is finite.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Non-finite values (which make the result
    /// incorrect) print as 0 to keep the line valid JSON.
    #[must_use]
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The median of `xs` (mean of the middle pair for even counts); 0 when
/// empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics; 0 when empty.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn json_line_is_well_formed() {
        let mut r = Report::default();
        r.attempt(Ok(()));
        r.push("wall_s", 0.25);
        r.push("ssd.events", f64::NAN);
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"ssd.events\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
