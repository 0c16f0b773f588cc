//! Exhaustive reference auditor for differential tests.
//!
//! [`ExhaustiveAuditor`] checks every request after every event and
//! audits the memory/bandwidth books every time, ignoring
//! [`AuditView::touched`]. Runs audited by it and by the touched-request
//! [`aegaeon::InvariantAuditor`] must agree. The file is shared by the
//! test suites of the core crate and the baselines (which include it by
//! path), so it names the core crate `aegaeon` in both.

use aegaeon::audit::{AuditReport, AuditView, Auditor, Violation};
use aegaeon_sim::SimTime;

/// Checks the whole invariant suite over every request on every event.
#[derive(Debug, Default)]
pub struct ExhaustiveAuditor {
    last_now: SimTime,
    last_completed: u64,
    /// Per request: `token_times.len()` at the previous event.
    tokens: Vec<usize>,
    report: AuditReport,
}

impl ExhaustiveAuditor {
    /// A fresh boxed oracle, in the shape auditor factories return.
    pub fn boxed() -> Box<dyn Auditor + Send> {
        Box::<ExhaustiveAuditor>::default()
    }

    fn flag(&mut self, at: SimTime, what: String) {
        self.report.violations.push(Violation { at, what });
    }

    fn sweep(&mut self, now: SimTime, view: &dyn AuditView) {
        self.report.events_checked += 1;
        if now < self.last_now {
            self.flag(now, "causality".into());
        }
        self.last_now = self.last_now.max(now);
        let completed = view.completed_counter();
        if completed < self.last_completed {
            self.flag(now, "completed counter regressed".into());
        }
        self.last_completed = completed;
        let n = view.request_count();
        if completed + view.rejected_counter() + view.migrated_counter() > n as u64 {
            self.flag(now, "conservation: more resolved than requested".into());
        }
        self.tokens.resize(n, 0);
        let mut done = 0u64;
        for i in 0..n {
            let r = view.request(i);
            let times = r.token_times;
            let before = self.tokens[i];
            let sane = r.produced <= r.target
                && times.len() == r.produced as usize
                && times.len() >= before
                && times[before.saturating_sub(1).min(times.len())..]
                    .windows(2)
                    .all(|w| w[0] <= w[1])
                && (times.len() == before || times.last().is_some_and(|&t| t <= now));
            if !sane {
                self.flag(now, format!("request {i} progress"));
            }
            self.tokens[i] = times.len();
            done += r.done as u64;
        }
        if done != completed {
            self.flag(now, format!("completed {completed} != {done} done"));
        }
        if let Some(what) = view.memory_audit() {
            self.flag(now, format!("memory: {what}"));
        }
        if let Some(what) = view.link_audit() {
            self.flag(now, format!("bandwidth: {what}"));
        }
    }
}

/// Asserts that the touched-request auditor and the oracle, run over the
/// same inputs, both pass and checked the same number of events.
pub fn assert_agree(touched: &AuditReport, oracle: &AuditReport) {
    assert!(touched.ok(), "{touched}");
    assert!(oracle.ok(), "oracle: {oracle}");
    assert!(touched.events_checked > 0);
    assert_eq!(touched.events_checked, oracle.events_checked);
}

impl Auditor for ExhaustiveAuditor {
    fn after_event(&mut self, now: SimTime, view: &dyn AuditView) {
        self.sweep(now, view);
    }

    fn at_finish(&mut self, now: SimTime, view: &dyn AuditView) {
        self.sweep(now, view);
        let resolved = view.completed_counter() + view.rejected_counter() + view.migrated_counter();
        if resolved != view.request_count() as u64 {
            self.flag(now, "conservation at finish".into());
        }
    }

    fn take_report(&mut self) -> AuditReport {
        std::mem::take(&mut self.report)
    }
}
