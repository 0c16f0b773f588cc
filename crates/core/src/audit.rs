//! Always-on invariant auditor.
//!
//! Chaos testing is only meaningful if violations are *detected*, not just
//! survived. The [`Auditor`] trait hooks into the serving systems' dispatch
//! loops — Aegaeon's and the baselines' — and is consulted after every
//! dispatched event. When auditing is disabled the hook is a single branch
//! on a `None` option, the same discipline as lazy tracing: the hot path
//! pays nothing.
//!
//! Systems expose their auditable state through [`AuditView`], a read-only
//! facade, which keeps the auditor strictly an *observer*: it can never
//! perturb scheduling, so a run with the auditor on produces bit-identical
//! results to a run with it off (a differential test asserts this).

use aegaeon_sim::SimTime;
use std::fmt;

/// Read-only audit facade over one request's progress.
#[derive(Debug, Clone, Copy)]
pub struct ReqAudit<'a> {
    /// Output tokens produced so far.
    pub produced: u32,
    /// Oracle output length.
    pub target: u32,
    /// True once the request has fully completed.
    pub done: bool,
    /// Generation instants, one per produced token.
    pub token_times: &'a [SimTime],
}

/// Read-only view a serving system exposes to the auditor.
pub trait AuditView {
    /// Requests completed so far (the system's own counter, which the
    /// auditor cross-checks against per-request state).
    fn completed_counter(&self) -> u64;
    /// Requests rejected by admission control (baselines only).
    fn rejected_counter(&self) -> u64 {
        0
    }
    /// Requests handed off to another shard after a total tier loss
    /// (sharded runs only). A migrated request is locally resolved without
    /// completing, so conservation counts it alongside completions and
    /// rejections.
    fn migrated_counter(&self) -> u64 {
        0
    }
    /// Total requests in the trace.
    fn request_count(&self) -> usize;
    /// Audit view of request `i`.
    fn request(&self, i: usize) -> ReqAudit<'_>;
    /// Indices of the requests whose progress changed since the auditor
    /// last ran (duplicates allowed). Backed by a [`TouchedList`].
    fn touched(&self) -> &[usize];
    /// Deep-checks memory accounting (VRAM slabs, KV block ownership);
    /// `Some(description)` on violation.
    fn memory_audit(&self) -> Option<String> {
        None
    }
    /// Deep-checks bandwidth conservation on every fabric link;
    /// `Some(description)` on violation.
    fn link_audit(&self) -> Option<String> {
        None
    }
}

/// The requests a serving system touched since its auditor last ran: the
/// store behind [`AuditView::touched`]. The system marks a request wherever
/// it pushes a token and clears the list after each `after_event`.
/// Recording stays off until an auditor is installed, so an unaudited run
/// pays one branch per token.
#[derive(Debug, Clone, Default)]
pub struct TouchedList {
    on: bool,
    reqs: Vec<usize>,
}

impl TouchedList {
    /// Starts recording marks.
    pub fn enable(&mut self) {
        self.on = true;
    }

    /// Marks request `i` as touched (a no-op while disabled).
    #[inline]
    pub fn mark(&mut self, i: usize) {
        if self.on {
            self.reqs.push(i);
        }
    }

    /// The marks since the last [`TouchedList::clear`].
    pub fn as_slice(&self) -> &[usize] {
        &self.reqs
    }

    /// Forgets every mark.
    pub fn clear(&mut self) {
        self.reqs.clear();
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Simulated time of the event after which the check failed.
    pub at: SimTime,
    /// Human-readable description.
    pub what: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[t={:.6}s] {}", self.at.as_secs_f64(), self.what)
    }
}

/// Outcome of an audited run.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Events after which the full invariant suite ran.
    pub events_checked: u64,
    /// All violations, in detection order.
    pub violations: Vec<Violation>,
    /// Requests turned away at the gateway's admission gate (429s). These
    /// never enter the trace — conservation is audited over admitted
    /// requests only — so the gateway surfaces its rejection book here for
    /// cross-checks against client-observed 429 counts.
    pub rejections: u64,
}

impl AuditReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ok() {
            write!(f, "audit ok ({} events checked)", self.events_checked)
        } else {
            writeln!(
                f,
                "audit FAILED: {} violation(s) over {} events:",
                self.violations.len(),
                self.events_checked
            )?;
            for v in &self.violations {
                writeln!(f, "  {v}")?;
            }
            Ok(())
        }
    }
}

/// Observer invoked by a serving system's dispatch loop.
pub trait Auditor {
    /// Called after every dispatched event with the post-event state.
    fn after_event(&mut self, now: SimTime, view: &dyn AuditView);
    /// Called once when the run drains.
    fn at_finish(&mut self, now: SimTime, view: &dyn AuditView);
    /// Consumes the accumulated report.
    fn take_report(&mut self) -> AuditReport;
}

/// The standard invariant suite:
///
/// 1. **Causality** — observed event times never decrease.
/// 2. **Conservation** — no request is lost or double-completed: the
///    completion counter is monotone and always equals the number of
///    requests whose state says "done"; completed + rejected never exceeds
///    the trace size; at finish every request is accounted for.
/// 3. **Progress sanity** — per-request `produced` never regresses and
///    never exceeds the oracle target; one timestamp per token.
/// 4. **Token monotonicity** — per-token timestamps are nondecreasing and
///    never in the future.
/// 5. **Memory accounting** — delegated to [`AuditView::memory_audit`]
///    (slab/KV block books sum to capacity, no double ownership).
/// 6. **Bandwidth conservation** — delegated to [`AuditView::link_audit`]
///    (per-link started = delivered + in-flight; delivered never exceeds
///    nominal capacity × busy time).
///
/// # Scaling
///
/// Token-level scheduling advances one batch per event and leaves every
/// other request alone, so after each event the auditor checks exactly the
/// requests the event touched ([`AuditView::touched`]), plus any request
/// that appeared since the last event. A running count of the requests it
/// has seen become done keeps `completed == done requests` exact on every
/// event, at any run size. Per-request cost is therefore proportional to
/// the tokens produced, not to requests × events.
///
/// A request that changes without a touched mark is caught at finish: a
/// completeness check compares every request's final `(produced,
/// timestamps)` with the high-water marks the touched checks recorded, and
/// an exhaustive sweep then re-checks every request. A missed mark is
/// reported late, never lost.
///
/// The memory/bandwidth book audits scan whole caches and links. They run
/// after every event up to [`InvariantAuditor::EVERY_EVENT_BOOKS_MAX`]
/// requests and every 256 events above it, and always at finish. All of
/// this is deterministic (purely event-count driven) and observer-only.
#[derive(Debug, Default)]
pub struct InvariantAuditor {
    last_now: SimTime,
    last_completed: u64,
    /// Per-request high-water marks, one per request seen so far.
    marks: Vec<Mark>,
    /// Requests whose latest check saw them done.
    done: u64,
    report: AuditReport,
    /// Cap on recorded violations so a broken run cannot OOM the auditor.
    max_violations: usize,
    /// Events since the last book audit in large runs.
    since_books: u32,
}

/// What the auditor last knew of one request.
#[derive(Debug, Default, Clone, Copy)]
struct Mark {
    /// High-water mark of `produced`.
    produced: u32,
    /// High-water mark of `token_times.len()`.
    tokens: usize,
    /// Done flag at the latest check.
    done: bool,
}

impl InvariantAuditor {
    /// Largest request count whose memory/link books are audited after
    /// every event.
    pub const EVERY_EVENT_BOOKS_MAX: usize = 2048;
    /// Event cadence of the book audits above that size.
    const BOOKS_EVERY: u32 = 256;

    /// A fresh auditor.
    pub fn new() -> Self {
        InvariantAuditor {
            max_violations: 64,
            ..Default::default()
        }
    }

    fn flag(&mut self, at: SimTime, what: String) {
        if self.report.violations.len() < self.max_violations {
            self.report.violations.push(Violation { at, what });
        }
    }

    /// One audit pass: the counter checks, a scan of the touched requests
    /// (or of every request, with `all`), and the book audits when due.
    fn check(&mut self, now: SimTime, view: &dyn AuditView, all: bool) {
        self.report.events_checked += 1;
        if now < self.last_now {
            self.flag(
                now,
                format!(
                    "causality: event at {:.6}s observed after {:.6}s",
                    now.as_secs_f64(),
                    self.last_now.as_secs_f64()
                ),
            );
        }
        self.last_now = self.last_now.max(now);

        let n = view.request_count();
        let completed = view.completed_counter();
        if completed < self.last_completed {
            self.flag(
                now,
                format!(
                    "conservation: completed counter regressed {} -> {}",
                    self.last_completed, completed
                ),
            );
        }
        self.last_completed = self.last_completed.max(completed);
        let rejected = view.rejected_counter();
        let migrated = view.migrated_counter();
        if completed + rejected + migrated > n as u64 {
            self.flag(
                now,
                format!(
                    "conservation: completed {completed} + rejected {rejected} + migrated {migrated} exceeds trace size {n}"
                ),
            );
        }

        // Requests that appeared since the last pass are checked once when
        // first seen, so one that is born done still enters the done count.
        let first_unseen = if all { 0 } else { self.marks.len() };
        self.marks.resize(n, Mark::default());
        for i in first_unseen..n {
            self.scan_request(now, view, i);
        }
        if !all {
            for &i in view.touched() {
                self.scan_request(now, view, i);
            }
        }
        if completed != self.done {
            self.flag(
                now,
                format!(
                    "conservation: completed counter {completed} disagrees with {} done requests",
                    self.done
                ),
            );
        }

        if all || n <= Self::EVERY_EVENT_BOOKS_MAX {
            self.audit_books(now, view);
        } else {
            self.since_books += 1;
            if self.since_books >= Self::BOOKS_EVERY {
                self.since_books = 0;
                self.audit_books(now, view);
            }
        }
    }

    fn audit_books(&mut self, now: SimTime, view: &dyn AuditView) {
        if let Some(what) = view.memory_audit() {
            self.flag(now, format!("memory: {what}"));
        }
        if let Some(what) = view.link_audit() {
            self.flag(now, format!("bandwidth: {what}"));
        }
    }

    /// Validates one request against its high-water marks and updates the
    /// running done count.
    fn scan_request(&mut self, now: SimTime, view: &dyn AuditView, i: usize) {
        let r = view.request(i);
        let mark = self.marks[i];
        if r.produced < mark.produced {
            self.flag(
                now,
                format!(
                    "progress: request {i} produced regressed {} -> {}",
                    mark.produced, r.produced
                ),
            );
        }
        if r.produced > r.target {
            self.flag(
                now,
                format!(
                    "progress: request {i} produced {} beyond target {}",
                    r.produced, r.target
                ),
            );
        }
        if r.token_times.len() != r.produced as usize {
            self.flag(
                now,
                format!(
                    "progress: request {i} has {} token timestamps for {} produced tokens",
                    r.token_times.len(),
                    r.produced
                ),
            );
        }
        // Only the newly appended timestamps need checking; the prefix
        // was validated on earlier events.
        let start = mark.tokens.saturating_sub(1).min(r.token_times.len());
        for w in r.token_times[start..].windows(2) {
            if w[1] < w[0] {
                self.flag(
                    now,
                    format!(
                        "token order: request {i} timestamps go backwards ({:.6}s after {:.6}s)",
                        w[1].as_secs_f64(),
                        w[0].as_secs_f64()
                    ),
                );
            }
        }
        if let Some(&last) = r.token_times.last() {
            if r.token_times.len() > mark.tokens && last > now {
                self.flag(
                    now,
                    format!(
                        "token order: request {i} token stamped {:.6}s in the future of {:.6}s",
                        last.as_secs_f64(),
                        now.as_secs_f64()
                    ),
                );
            }
        }
        match (mark.done, r.done) {
            (false, true) => self.done += 1,
            (true, false) => self.done -= 1,
            _ => {}
        }
        self.marks[i] = Mark {
            produced: mark.produced.max(r.produced),
            tokens: mark.tokens.max(r.token_times.len()),
            done: r.done,
        };
    }

    /// Flags every request whose final progress differs from what the
    /// touched checks recorded: it changed without a touched mark.
    fn check_complete(&mut self, now: SimTime, view: &dyn AuditView) {
        for i in 0..self.marks.len() {
            let r = view.request(i);
            let mark = self.marks[i];
            if (r.produced, r.token_times.len()) != (mark.produced, mark.tokens) {
                self.flag(
                    now,
                    format!(
                        "touched: request {i} changed without a touched mark ({} produced, {} timestamps; last checked at {}, {})",
                        r.produced,
                        r.token_times.len(),
                        mark.produced,
                        mark.tokens
                    ),
                );
            }
        }
    }
}

impl Auditor for InvariantAuditor {
    fn after_event(&mut self, now: SimTime, view: &dyn AuditView) {
        self.check(now, view, false);
    }

    fn at_finish(&mut self, now: SimTime, view: &dyn AuditView) {
        self.check_complete(now, view);
        // The final sweep is always exhaustive.
        self.check(now, view, true);
        // End-of-run conservation: every request completed, rejected, or
        // handed off to another shard.
        let n = view.request_count() as u64;
        let completed = view.completed_counter();
        let rejected = view.rejected_counter();
        let migrated = view.migrated_counter();
        if completed + rejected + migrated != n {
            self.flag(
                now,
                format!(
                    "conservation at finish: completed {completed} + rejected {rejected} + migrated {migrated} != trace size {n}"
                ),
            );
        }
    }

    fn take_report(&mut self) -> AuditReport {
        std::mem::take(&mut self.report)
    }
}

/// Standalone helper shared with the unified schedulers: checks one
/// request's token timestamps are nondecreasing. Returns `Some(description)`
/// on the first violation.
pub fn check_token_order(req_idx: usize, token_times: &[SimTime]) -> Option<String> {
    for w in token_times.windows(2) {
        if w[1] < w[0] {
            return Some(format!(
                "request {req_idx}: token at {:.6}s precedes token at {:.6}s",
                w[1].as_secs_f64(),
                w[0].as_secs_f64()
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-rolled view for exercising the auditor without a full system.
    struct FakeView {
        completed: u64,
        rejected: u64,
        reqs: Vec<(u32, u32, bool, Vec<SimTime>)>,
        touched: Vec<usize>,
        mem: Option<String>,
        link: Option<String>,
    }

    impl AuditView for FakeView {
        fn completed_counter(&self) -> u64 {
            self.completed
        }
        fn rejected_counter(&self) -> u64 {
            self.rejected
        }
        fn request_count(&self) -> usize {
            self.reqs.len()
        }
        fn request(&self, i: usize) -> ReqAudit<'_> {
            let (produced, target, done, times) = &self.reqs[i];
            ReqAudit {
                produced: *produced,
                target: *target,
                done: *done,
                token_times: times,
            }
        }
        fn touched(&self) -> &[usize] {
            &self.touched
        }
        fn memory_audit(&self) -> Option<String> {
            self.mem.clone()
        }
        fn link_audit(&self) -> Option<String> {
            self.link.clone()
        }
    }

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn clean_view() -> FakeView {
        FakeView {
            completed: 1,
            rejected: 0,
            reqs: vec![
                (2, 2, true, vec![t(1.0), t(2.0)]),
                (1, 3, false, vec![t(1.5)]),
            ],
            touched: Vec::new(),
            mem: None,
            link: None,
        }
    }

    /// `n` requests of target 3, none started.
    fn idle_view(n: usize) -> FakeView {
        FakeView {
            completed: 0,
            rejected: 0,
            reqs: vec![(0, 3, false, Vec::new()); n],
            touched: Vec::new(),
            mem: None,
            link: None,
        }
    }

    /// Run sizes on both sides of the every-event book cadence.
    const SIZES: [usize; 2] = [16, 3 * InvariantAuditor::EVERY_EVENT_BOOKS_MAX / 2];

    #[test]
    fn clean_run_passes() {
        let mut a = InvariantAuditor::new();
        let v = clean_view();
        a.after_event(t(2.0), &v);
        a.after_event(t(3.0), &v);
        let mut done = clean_view();
        done.completed = 2;
        done.reqs[1] = (3, 3, true, vec![t(1.5), t(3.5), t(4.0)]);
        done.touched = vec![1];
        a.after_event(t(4.0), &done);
        a.at_finish(t(4.0), &done);
        let report = a.take_report();
        assert!(report.ok(), "{report}");
        assert_eq!(report.events_checked, 4);
    }

    #[test]
    fn detects_time_regression() {
        let mut a = InvariantAuditor::new();
        let v = clean_view();
        a.after_event(t(5.0), &v);
        a.after_event(t(4.0), &v);
        let report = a.take_report();
        assert!(!report.ok());
        assert!(report.violations[0].what.contains("causality"), "{report}");
        assert_eq!(report.violations[0].at, t(4.0));
    }

    #[test]
    fn detects_lost_and_double_completed_requests() {
        let mut a = InvariantAuditor::new();
        let mut v = clean_view();
        v.completed = 2; // claims two done, state says one
        a.after_event(t(3.0), &v);
        let report = a.take_report();
        assert!(!report.ok());
        assert_eq!(report.violations[0].at, t(3.0));

        let mut a = InvariantAuditor::new();
        let mut fin = clean_view();
        fin.reqs[1].2 = false; // never completes
        a.at_finish(t(9.0), &fin);
        let report = a.take_report();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.what.contains("at finish")),
            "{report}"
        );
    }

    #[test]
    fn detects_produced_regression_and_token_disorder() {
        let mut a = InvariantAuditor::new();
        let v = clean_view();
        a.after_event(t(2.0), &v);
        let mut worse = clean_view();
        worse.reqs[0].0 = 1; // produced went backwards
        worse.reqs[0].3.pop();
        worse.touched = vec![0];
        a.after_event(t(2.5), &worse);
        let report = a.take_report();
        assert!(report
            .violations
            .iter()
            .any(|v| v.what.contains("regressed") && v.at == t(2.5)));

        let mut a = InvariantAuditor::new();
        let mut bad = clean_view();
        bad.reqs[0].3 = vec![t(2.0), t(1.0)];
        a.after_event(t(3.0), &bad);
        let report = a.take_report();
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.what.contains("token order") && v.at == t(3.0)),
            "{report}"
        );
    }

    #[test]
    fn surfaces_memory_and_link_violations() {
        let mut a = InvariantAuditor::new();
        let mut v = clean_view();
        v.mem = Some("slab 3 double-assigned".into());
        v.link = Some("link pcie0 over capacity".into());
        a.after_event(t(3.0), &v);
        let report = a.take_report();
        assert_eq!(report.violations.len(), 2);
        assert!(report.violations[0].what.starts_with("memory:"));
        assert!(report.violations[1].what.starts_with("bandwidth:"));
    }

    #[test]
    fn book_audits_thin_out_above_the_cap() {
        let mut a = InvariantAuditor::new();
        let mut v = idle_view(SIZES[1]);
        v.mem = Some("boom".into());
        for i in 0..512 {
            a.after_event(t(i as f64), &v);
        }
        assert_eq!(a.take_report().violations.len(), 2, "every 256 events");
    }

    #[test]
    fn violation_count_is_capped() {
        let mut a = InvariantAuditor::new();
        let mut v = clean_view();
        v.mem = Some("boom".into());
        for i in 0..1000 {
            a.after_event(t(i as f64), &v);
        }
        let report = a.take_report();
        assert_eq!(report.violations.len(), 64);
        assert_eq!(report.events_checked, 1000);
    }

    #[test]
    fn unmarked_change_is_flagged_at_finish() {
        for n in SIZES {
            let mut a = InvariantAuditor::new();
            let mut v = idle_view(n);
            a.after_event(t(1.0), &v);
            // Request 7 gets a token, but the view forgets to mark it.
            v.reqs[7].0 = 1;
            v.reqs[7].3.push(t(1.5));
            a.after_event(t(2.0), &v);
            assert!(a.report.violations.is_empty(), "n={n}: unseen until finish");
            a.at_finish(t(3.0), &v);
            let report = a.take_report();
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.what.contains("request 7 changed without a touched mark")),
                "n={n}: {report}"
            );
        }
    }

    #[test]
    fn touched_violations_are_flagged_on_their_event() {
        for n in SIZES {
            let i = n - 1;
            let mut a = InvariantAuditor::new();
            let mut v = idle_view(n);
            a.after_event(t(1.0), &v);
            v.reqs[i] = (2, 3, false, vec![t(2.0), t(1.5)]);
            v.touched = vec![i];
            a.after_event(t(2.0), &v);
            let report = a.take_report();
            let first = &report.violations[0];
            assert!(first.what.contains("token order"), "n={n}: {report}");
            assert_eq!(first.at, t(2.0), "n={n}");

            let mut a = InvariantAuditor::new();
            let mut v = idle_view(n);
            a.after_event(t(1.0), &v);
            v.reqs[i] = (4, 3, true, vec![t(1.5), t(1.6), t(1.7), t(2.0)]);
            v.completed = 1;
            v.touched = vec![i];
            a.after_event(t(2.0), &v);
            let report = a.take_report();
            assert_eq!(report.violations.len(), 1, "n={n}: {report}");
            assert!(report.violations[0].what.contains("beyond target"));
            assert_eq!(report.violations[0].at, t(2.0));
        }
    }

    #[test]
    fn completed_mismatch_is_flagged_on_its_event() {
        for n in SIZES {
            // The counter moves with no request done.
            let mut a = InvariantAuditor::new();
            let mut v = idle_view(n);
            a.after_event(t(1.0), &v);
            v.completed = 1;
            a.after_event(t(2.0), &v);
            let report = a.take_report();
            assert!(
                report.violations[0].what.contains("disagrees"),
                "n={n}: {report}"
            );
            assert_eq!(report.violations[0].at, t(2.0));

            // A request finishes, the counter does not move.
            let mut a = InvariantAuditor::new();
            let mut v = idle_view(n);
            a.after_event(t(1.0), &v);
            v.reqs[3] = (3, 3, true, vec![t(1.2), t(1.4), t(2.0)]);
            v.touched = vec![3, 3];
            a.after_event(t(2.0), &v);
            let report = a.take_report();
            assert_eq!(report.violations.len(), 1, "n={n}: {report}");
            assert!(report.violations[0]
                .what
                .contains("0 disagrees with 1 done"));
            assert_eq!(report.violations[0].at, t(2.0));
        }
    }

    #[test]
    fn check_token_order_helper() {
        assert!(check_token_order(0, &[]).is_none());
        assert!(check_token_order(0, &[t(1.0), t(1.0)]).is_none());
        assert!(check_token_order(7, &[t(2.0), t(1.0)])
            .unwrap()
            .contains("request 7"));
    }
}
