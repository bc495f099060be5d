//! Per-tenant service outcome: counters, latency percentiles, and the
//! `dssd-service-report-v1` JSON emitter.
//!
//! The JSON shape is the contract checked by
//! `dssd_telemetry::json::validate_service_report` (and by
//! `dssd-cli validate --service` in CI); keep the two in lockstep.

use dssd_kernel::stats::Histogram;
use dssd_kernel::SimSpan;
use dssd_telemetry::chrome::escape;

/// One tenant's view of a service run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant name from the spec.
    pub name: String,
    /// Submissions offered to the front-end (accepted or not).
    pub submitted: u64,
    /// Commands that reached the device and completed.
    pub completed: u64,
    /// Submissions bounced by admission control with a `Busy` completion.
    pub rejected: u64,
    /// Accepted submissions that could not dispatch immediately because
    /// the tenant's token bucket was dry (they waited in the SQ).
    pub throttled: u64,
    /// Accepted submissions still queued or in flight when the horizon
    /// closed — never silently dropped, just unfinished.
    pub expired: u64,
    /// Completions that reported a media failure.
    pub failed: u64,
    /// Submission-to-completion latency of completed commands submitted
    /// after the spec's warmup window.
    pub latency: Histogram,
}

impl TenantReport {
    pub(crate) fn new(name: String) -> Self {
        TenantReport {
            name,
            submitted: 0,
            completed: 0,
            rejected: 0,
            throttled: 0,
            expired: 0,
            failed: 0,
            latency: Histogram::new(),
        }
    }

    /// Accounting identity: every submission is completed, rejected,
    /// expired — nothing vanishes. Checked in release builds too.
    ///
    /// # Panics
    ///
    /// Panics if the identity does not hold.
    pub fn assert_conserved(&self) {
        assert_eq!(
            self.submitted,
            self.completed + self.rejected + self.expired,
            "tenant {} lost submissions",
            self.name
        );
    }
}

/// The outcome of a service run: one entry per tenant, in spec order.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Run horizon.
    pub duration: SimSpan,
    /// Per-tenant outcomes, in spec declaration order.
    pub tenants: Vec<TenantReport>,
}

impl ServiceReport {
    /// Total submissions across tenants.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.tenants.iter().map(|t| t.submitted).sum()
    }

    /// Total completions across tenants.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Total admission rejections across tenants.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.tenants.iter().map(|t| t.rejected).sum()
    }

    /// Serializes as `dssd-service-report-v1` JSON.
    #[must_use]
    pub fn to_json(&mut self) -> String {
        let mut out = String::with_capacity(256 * (1 + self.tenants.len()));
        out.push_str("{\n  \"schema\": \"dssd-service-report-v1\",\n");
        out.push_str(&format!(
            "  \"duration_ms\": {},\n  \"tenants\": [\n",
            fmt_f64(self.duration.as_ns() as f64 / 1e6)
        ));
        let n = self.tenants.len();
        for (i, t) in self.tenants.iter_mut().enumerate() {
            let us = |s: SimSpan| fmt_f64(s.as_ns() as f64 / 1e3);
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"submitted\": {}, \"completed\": {}, \
                 \"rejected\": {}, \"throttled\": {}, \"expired\": {}, \"failed\": {}, \
                 \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}}}{}\n",
                escape(&t.name),
                t.submitted,
                t.completed,
                t.rejected,
                t.throttled,
                t.expired,
                t.failed,
                us(t.latency.percentile(0.50)),
                us(t.latency.percentile(0.95)),
                us(t.latency.percentile(0.99)),
                us(t.latency.max()),
                if i + 1 < n { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Plain decimal float (never scientific notation, which the validator's
/// strict number grammar accepts but humans diffing reports do not).
fn fmt_f64(v: f64) -> String {
    let s = format!("{v:.3}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssd_telemetry::json::validate_service_report;

    fn sample() -> ServiceReport {
        let mut a = TenantReport::new("alpha".into());
        a.submitted = 10;
        a.completed = 8;
        a.rejected = 1;
        a.expired = 1;
        a.throttled = 3;
        for us in [10u64, 20, 30, 40] {
            a.latency.record(SimSpan::from_us(us));
        }
        let mut b = TenantReport::new("beta".into());
        b.submitted = 5;
        b.completed = 5;
        b.latency.record(SimSpan::from_us(7));
        ServiceReport { duration: SimSpan::from_ms(5), tenants: vec![a, b] }
    }

    #[test]
    fn emitted_json_passes_the_validator() {
        let json = sample().to_json();
        let stats = validate_service_report(&json).expect("validator rejected own emitter");
        assert_eq!(stats.tenants, 2);
        assert_eq!(stats.submitted, 15);
        assert_eq!(stats.completed, 13);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn json_is_deterministic_and_plain_decimal() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        // Numbers render as plain decimals with trailing zeros trimmed.
        assert!(a.contains("\"duration_ms\": 5,"), "{a}");
        assert!(a.contains("\"p50_us\": 20,"), "{a}");
        assert_eq!(fmt_f64(0.0001), "0");
        assert_eq!(fmt_f64(1234.5), "1234.5");
        assert_eq!(fmt_f64(2e6), "2000000");
        assert!(a.contains("\"name\": \"alpha\""));
    }

    #[test]
    fn conservation_identity_holds_for_sample() {
        for t in &sample().tenants {
            t.assert_conserved();
        }
    }

    #[test]
    #[should_panic(expected = "lost submissions")]
    fn conservation_identity_is_checked_in_every_build() {
        let mut t = sample().tenants.remove(0);
        t.expired += 1;
        t.assert_conserved();
    }
}
