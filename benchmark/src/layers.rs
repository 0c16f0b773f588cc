//! The per-layer ledger of a traced run. Every layer is measured from
//! outside: the benchmark times its own calls into each layer's public
//! functions and reads the counters those calls return. Nothing here adds
//! a span inside the program.

use std::collections::BTreeMap;
use std::time::Instant;

use aegaeon::RunResult;
use aegaeon_metrics::Stage;
use aegaeon_sim::{EventQueue, SimDur, Timeline};

use crate::report::Report;
use crate::stats::{pct_of, Pct};

/// One per-layer metric: name, unit, which direction is better, the
/// end-to-end metric it should move, and the workloads it is measured on.
/// Elsewhere it reads 0.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

const SIMS: &str = "market agentic sharded_chaos";
const SIM_SPEED: &str = "sim_req_per_s";
const SLO: &str = "slo_attainment ttft_p99_s";
const GW: &str = "gw_ttft_p50_ms completed_frac";

/// The layer ledger, in report order. `BENCHMARK.json`'s `per_layer` list
/// names exactly these.
#[rustfmt::skip]
pub const LAYERS: &[LayerMetric] = &[
    m("workload.build_s", "s", "lower", "setup_s", "all"),
    m("workload.requests", "count", "higher", "setup_s", "all"),
    m("workload.session_turn_share", "ratio", "higher", "setup_s", "all"),
    m("trace.req_per_s", "1/s", "higher", "sim_req_per_s gw_req_per_s (tracing overhead)", "all"),
    m("sim.queue_ns_per_op", "ns", "lower", SIM_SPEED, SIMS),
    m("core.new_s", "s", "lower", SIM_SPEED, "market"),
    m("core.step_s", "s", "lower", SIM_SPEED, "market"),
    m("core.finish_s", "s", "lower", SIM_SPEED, "market"),
    m("core.events", "count", "lower", SIM_SPEED, "market"),
    m("core.ns_per_event", "ns", "lower", SIM_SPEED, "market"),
    m("core.wall_per_sim_s_p50_ms", "ms", "lower", "sim_req_per_s gw_ttft_p50_ms", "market gateway"),
    m("core.wall_per_sim_s_p99_ms", "ms", "lower", "sim_req_per_s gw_ttft_p50_ms", "market gateway"),
    m("core.scale_ups_per_req", "ratio", "lower", SLO, "market"),
    m("core.prefetch_hit_ratio", "ratio", "higher", SLO, "market"),
    m("core.swaps_per_req", "ratio", "lower", SLO, "market"),
    m("core.scale_latency_p50_s", "s", "lower", SLO, "market"),
    m("core.scale_latency_p99_s", "s", "lower", SLO, "market"),
    m("core.gpu_util", "ratio", "higher", SLO, "market"),
    m("core.kv_sync_p99_ms", "ms", "lower", "ttft_p99_s tbt_p99_ms", "market"),
    m("core.wait_share.prefill", "ratio", "lower", "ttft_p99_s", "market"),
    m("core.wait_share.decode", "ratio", "lower", "tbt_p99_ms", "market"),
    m("core.overhead_share.control", "ratio", "lower", "tbt_p99_ms", "market"),
    m("core.overhead_share.data", "ratio", "lower", "tbt_p99_ms", "market"),
    m("session.prefix_hit_ratio", "ratio", "higher", "ttft_p50_s slo_attainment", "market agentic"),
    m("session.reused_token_share", "ratio", "higher", "ttft_p50_s slo_attainment", "market agentic"),
    m("shard.serial_s", "s", "lower", SIM_SPEED, "sharded_chaos"),
    m("shard.parallel_s", "s", "lower", SIM_SPEED, "sharded_chaos"),
    m("shard.speedup", "ratio", "higher", SIM_SPEED, "sharded_chaos"),
    m("audit.overhead_frac", "ratio", "lower", SIM_SPEED, "sharded_chaos"),
    m("audit.violations", "count", "lower", SIM_SPEED, "sharded_chaos"),
    m("telemetry.overhead_frac", "ratio", "lower", "sim_req_per_s peak_rss_mb gw_ttft_p50_ms", "sharded_chaos gateway"),
    m("telemetry.export_s", "s", "lower", "sim_req_per_s peak_rss_mb", "sharded_chaos gateway"),
    m("telemetry.export_mb", "MiB", "lower", "peak_rss_mb", "sharded_chaos gateway"),
    m("telemetry.spans", "count", "lower", "peak_rss_mb", "sharded_chaos gateway"),
    m("baselines.sllm_run_s", "s", "lower", "none gated", "market"),
    m("baselines.sllm_attainment", "ratio", "higher", "none gated", "market"),
    m("gateway.start_s", "s", "lower", "setup_s", "gateway"),
    m("gateway.ttft_ms_p99", "ms", "lower", GW, "gateway"),
    m("gateway.head_ms_p50", "ms", "lower", GW, "gateway"),
    m("gateway.head_ms_p99", "ms", "lower", GW, "gateway"),
    m("gateway.token_lag_ms_p50", "ms", "lower", GW, "gateway"),
    m("gateway.token_lag_ms_p99", "ms", "lower", GW, "gateway"),
    m("gateway.wall_clock_lag_s", "s", "lower", GW, "gateway"),
    m("gateway.rejected", "count", "lower", GW, "gateway"),
    m("gateway.slow_drops", "count", "lower", GW, "gateway"),
];

/// Standing population and operations of the event-queue probe.
const QUEUE_STANDING: u64 = 4096;
const QUEUE_OPS: u64 = 2_000_000;

/// Collects a traced run's layer metrics by name.
#[derive(Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
}

impl Ledger {
    pub fn set(&mut self, name: &str, value: f64) {
        self.insert(name, value, None);
    }

    pub fn set_pct(&mut self, name: &str, p: Pct) {
        self.insert(name, p.value, Some(p.samples));
    }

    fn insert(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let def = LAYERS
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the layer table"));
        assert!(
            self.values.insert(def.name, (value, samples)).is_none(),
            "{name} measured twice"
        );
    }

    /// `workload.*`: input build time, request count, session-turn share.
    pub fn workload(&mut self, build_s: f64, trace: &aegaeon_workload::Trace) {
        let turns = trace
            .requests
            .iter()
            .filter(|r| r.session.is_some())
            .count();
        self.set("workload.build_s", build_s);
        self.set("workload.requests", trace.len() as f64);
        self.set(
            "workload.session_turn_share",
            share(turns as f64, trace.len() as f64),
        );
    }

    /// `sim.queue_ns_per_op`: one pop plus one push against a standing
    /// population, the steady state of the event loop.
    pub fn queue_probe(&mut self) {
        let mut q = EventQueue::<u64>::new();
        for i in 0..QUEUE_STANDING {
            q.schedule_after(
                SimDur::from_nanos(i.wrapping_mul(2_654_435_761) % 100_000),
                i,
            );
        }
        let t = Instant::now();
        let mut acc = 0u64;
        for _ in 0..QUEUE_OPS {
            let (_, e) = q.pop().expect("standing population");
            acc = acc.wrapping_add(e).wrapping_mul(6_364_136_223_846_793_005);
            q.schedule_after(SimDur::from_nanos(acc % 100_000), e);
        }
        std::hint::black_box(acc);
        self.set(
            "sim.queue_ns_per_op",
            t.elapsed().as_nanos() as f64 / QUEUE_OPS as f64,
        );
    }

    /// The scheduler and auto-scaler, read off a run's result.
    pub fn core_counters(&mut self, r: &RunResult) -> Result<(), String> {
        let n = r.total_requests as f64;
        self.set("core.scale_ups_per_req", r.scale_count as f64 / n);
        self.set("core.prefetch_hit_ratio", r.prefetch_hit_ratio());
        self.set("core.swaps_per_req", r.swaps as f64 / n);
        let lat = r.scale_latencies.clone();
        self.set_pct(
            "core.scale_latency_p50_s",
            pct_of(lat.clone(), 0.5, "scale latency")?,
        );
        self.set_pct(
            "core.scale_latency_p99_s",
            pct_of(lat, 0.99, "scale latency")?,
        );
        self.set("core.gpu_util", r.mean_gpu_utilization());
        let sync: Vec<f64> = r.kv_sync_per_request.iter().map(|s| s * 1e3).collect();
        self.set_pct("core.kv_sync_p99_ms", pct_of(sync, 0.99, "kv sync")?);
        let f = r.breakdown.fractions();
        let at = |s: Stage| f[Stage::ALL.iter().position(|x| *x == s).expect("stage")];
        self.set("core.wait_share.prefill", at(Stage::PrefillWait));
        self.set("core.wait_share.decode", at(Stage::DecodeWait));
        self.set("core.overhead_share.control", at(Stage::ControlOverhead));
        self.set("core.overhead_share.data", at(Stage::DataOverhead));
        Ok(())
    }

    /// `core::sessionbook`: prefix hits per session turn, and reused over
    /// all shared-prefix tokens.
    pub fn sessions(&mut self, r: &RunResult, trace: &aegaeon_workload::Trace) {
        let turns = trace
            .requests
            .iter()
            .filter(|q| q.session.is_some())
            .count() as f64;
        self.set(
            "session.prefix_hit_ratio",
            share(r.prefix_hits as f64, turns),
        );
        let shared = (r.prefill_tokens_reused + r.prefill_tokens_recomputed) as f64;
        self.set(
            "session.reused_token_share",
            share(r.prefill_tokens_reused as f64, shared),
        );
    }

    /// `telemetry.export_*` and `telemetry.spans`: the export functions
    /// run over a telemetry-enabled result.
    pub fn telemetry_exports(&mut self, r: &RunResult) {
        let t = Instant::now();
        let lines = aegaeon_telemetry::jsonl(&r.telemetry.spans, &r.telemetry.metrics);
        let doc = aegaeon_telemetry::slo_json(&r.telemetry.slo, &r.telemetry.attrib);
        let bytes = std::hint::black_box(lines.len() + doc.len());
        self.set("telemetry.export_s", t.elapsed().as_secs_f64());
        self.set("telemetry.export_mb", bytes as f64 / (1024.0 * 1024.0));
        self.set("telemetry.spans", r.telemetry.spans.spans().len() as f64);
    }

    /// Adds every layer metric to the report, 0 where this workload does
    /// not measure it.
    pub fn into_report(self, rep: &mut Report) {
        for l in LAYERS {
            match self.values.get(l.name) {
                Some(&(value, samples)) => {
                    let note = format!("{}; {} is better", l.moves, l.better);
                    rep.push(l.name, value, l.unit, samples, note)
                }
                None => rep.push(
                    l.name,
                    0.0,
                    l.unit,
                    None,
                    format!("not measured here; measured on {}", l.on),
                ),
            }
        }
    }
}

/// `part / whole`, 0 for an empty whole.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
