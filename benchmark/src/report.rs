//! What one run prints: human-readable lines for every metric (with sample
//! counts, and for per-layer metrics the end-to-end metric they move),
//! a metadata line, and as the very last line the result object.

use std::fmt::Write as _;

use crate::stats::Pct;

/// The end-to-end metrics with their units, in report order.
/// `BENCHMARK.json`'s `end_to_end` list names exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("slo_attainment", "ratio"),
    ("ttft_p50_s", "s"),
    ("ttft_p99_s", "s"),
    ("tbt_p50_ms", "ms"),
    ("tbt_p99_ms", "ms"),
    ("gw_req_per_s", "1/s"),
    ("gw_ttft_p50_ms", "ms"),
    ("completed_frac", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a quantile.
    pub samples: Option<usize>,
    /// For per-layer metrics: the end-to-end metric(s) it should move.
    pub moves: String,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Output checks in run order: (what, passed).
    pub checks: Vec<(String, bool)>,
    /// Trigger-property shares: (property, share of the workload).
    pub shares: Vec<(&'static str, f64)>,
    /// Free-form lines, e.g. the spread of repeated timings.
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push(name, value, unit, None, String::new());
    }

    pub fn put_pct(&mut self, name: &str, p: Pct, unit: &'static str) {
        self.push(name, p.value, unit, Some(p.samples), String::new());
    }

    pub fn push(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: Option<usize>,
        moves: String,
    ) {
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            moves,
        });
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn share(&mut self, property: &'static str, share: f64) {
        self.shares.push((property, share));
    }

    /// Records the spread of repeated measurements behind a median.
    pub fn reps(&mut self, what: &str, v: &[f64]) {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.notes.push(format!(
            "{what}: {} repetitions, min {lo:.6} median {:.6} max {hi:.6}; in order {:.0?}",
            v.len(),
            crate::stats::median(v),
            v
        ));
    }

    /// The reported metric names and units, in order.
    pub fn names(&self) -> Vec<(&str, &str)> {
        self.metrics
            .iter()
            .map(|m| (m.name.as_str(), m.unit))
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok) && self.attempted > 0
    }

    /// Prints the report; the result object is the last line of stdout.
    pub fn print(&self, meta: &Meta) {
        println!(
            "workload {} seed {} trace {} commit {} host_parallelism {}",
            meta.workload, meta.seed, meta.trace, meta.commit, meta.host_parallelism
        );
        for (what, ok) in &self.checks {
            println!("check {:4} {what}", if *ok { "ok" } else { "FAIL" });
        }
        for note in &self.notes {
            println!("note {note}");
        }
        for (property, share) in &self.shares {
            println!("share {property:<28} {share:.4}");
        }
        for m in &self.metrics {
            let mut line = format!("metric {:<32} {:>16.6} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(line, "  (n={n})");
            }
            if !m.moves.is_empty() {
                let _ = write!(line, "  -> {}", m.moves);
            }
            println!("{line}");
        }
        println!("{}", meta.json(self));
        println!("{}", self.result_json());
    }

    fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Full-precision JSON number (`{:?}` keeps every digit of an `f64`).
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a JSON number");
    format!("{v:?}")
}

/// Run metadata, printed as its own JSON line before the result.
pub struct Meta {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub commit: String,
    pub host_parallelism: usize,
}

impl Meta {
    fn json(&self, r: &Report) -> String {
        let mut s = format!(
            "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"commit\": \"{}\", \
             \"host_parallelism\": {}, \"samples\": {{",
            self.workload, self.seed, self.trace, self.commit, self.host_parallelism
        );
        let counted = r
            .metrics
            .iter()
            .filter_map(|m| m.samples.map(|n| (&m.name, n)));
        for (i, (name, n)) in counted.enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {n}");
        }
        s.push_str("}, \"moves\": {");
        let mapped = r.metrics.iter().filter(|m| !m.moves.is_empty());
        for (i, m) in mapped.enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{}\": \"{}\"", m.name, m.moves);
        }
        s.push_str("}, \"shares\": {");
        for (i, (property, share)) in r.shares.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{property}\": {}", json_num(*share));
        }
        s.push_str("}}}");
        s
    }
}

/// The checked-out commit, read from `.git` without spawning git; the
/// benchmark may run from an export that has no `.git`.
pub fn commit() -> String {
    fn resolve() -> Option<String> {
        let head = std::fs::read_to_string(".git/HEAD").ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
            return Some(id.trim().to_string());
        }
        let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
        packed.lines().find_map(|l| {
            let (id, name) = l.split_once(' ')?;
            (name == reference).then(|| id.to_string())
        })
    }
    resolve().unwrap_or_else(|| "unknown".to_string())
}
