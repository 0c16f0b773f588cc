//! The offline workloads: `market`, `agentic` and `sharded_chaos`.

use std::time::Instant;

use aegaeon::chaos::FaultPlan;
use aegaeon::events::InstKind;
use aegaeon::session::ServingSession;
use aegaeon::{run_sharded, run_sharded_audited, AegaeonConfig, RunResult, ServingSystem};
use aegaeon_baselines::{ServerlessLlm, SllmConfig};
use aegaeon_bench::{market_models, uniform_trace};
use aegaeon_gpu::{ClusterSpec, NodeSpec};
use aegaeon_model::ModelSpec;
use aegaeon_sim::{SimDur, SimRng, SimTime};
use aegaeon_telemetry::TelemetrySpec;
use aegaeon_workload::{LengthDist, SessionBuilder, SloSpec, Trace};

use crate::layers::{share, Ledger};
use crate::report::Report;
use crate::stats::{median, pct_of};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Market,
    Agentic,
    ShardedChaos,
}

/// Input builds per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// Fewest measured repetitions of the workload's run, however long each is.
const MIN_REPS: usize = 2;
/// Simulated seconds per slice when stepping a session in slices.
const SLICE_SECS: f64 = 1.0;

/// `market`: the §7.2 regime at the attainment knee.
const MARKET_MODELS: usize = 64;
const MARKET_RATE: f64 = 0.1;
const MARKET_SECS: f64 = 3000.0;

/// `agentic`: multi-turn sessions whose think gaps straddle the 120 s
/// session-KV TTL.
const AGENTIC_MODELS: u32 = 8;
const AGENTIC_SESSION_RATE: f64 = 0.02;
const AGENTIC_SECS: f64 = 9000.0;

/// `sharded_chaos`: 4×8 H800 partitioned into one shard per node. 1600 s
/// keeps every shard above the auditor's `FULL_SCAN_MAX` (2048 requests);
/// below it every event scans every request (2,590 requests took 14.6 s,
/// 9,049 above it 2.8 s, both on 2 threads).
const CHAOS_SHARDS: usize = 4;
const CHAOS_MODELS: usize = 64;
const CHAOS_RATE: f64 = 0.1;
const CHAOS_SECS: f64 = 1600.0;
/// Threads of `sharded_chaos`'s measured runs. On a shared 2-vCPU host,
/// runs on `nproc` threads measured how free the other CPU was: their speed
/// spread 0.32–0.38 over ten seeds. The `nproc`-thread run is checked on
/// every run and timed in the ledger (`shard.parallel_s`).
const CHAOS_THREADS: usize = 1;

/// The generated inputs of one offline workload.
pub struct Inputs {
    pub cfg: AegaeonConfig,
    pub models: Vec<ModelSpec>,
    pub trace: Trace,
}

/// The fixed fault plan of `sharded_chaos`: shard 0's whole prefill tier
/// crashes at 600–602 s, so its work migrates to shard 1, and decode
/// instance 7 crashes at 900 s. Link degradation and proxy stalls are
/// drawn per shard from the run's seed. Fixed crash times keep the tail
/// latencies steady from seed to seed; random ones did not.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 0x5eed_c4a0,
        crashes: vec![
            (600.0, InstKind::Prefill, 0),
            (601.0, InstKind::Prefill, 1),
            (602.0, InstKind::Prefill, 2),
            (900.0, InstKind::Decode, 7),
        ],
        link_rate: 0.02,
        link_factor: 0.4,
        link_secs: 4.0,
        stall_rate: 0.01,
        stall_secs: 0.5,
        ..FaultPlan::none()
    }
}

pub fn inputs(kind: Kind, seed: u64) -> Inputs {
    match kind {
        Kind::Market => {
            let mut cfg = AegaeonConfig::paper_testbed();
            cfg.seed = seed;
            Inputs {
                cfg,
                models: market_models(MARKET_MODELS),
                trace: uniform_trace(
                    MARKET_MODELS,
                    MARKET_RATE,
                    MARKET_SECS,
                    seed,
                    LengthDist::sharegpt(),
                ),
            }
        }
        Kind::Agentic => {
            let mut cfg = AegaeonConfig::small_testbed(2, 4);
            cfg.seed = seed;
            cfg.session_affinity = true;
            let mut rng = SimRng::seed_from_u64(seed);
            let trace = SessionBuilder::new(
                SimTime::from_secs_f64(AGENTIC_SECS),
                AGENTIC_MODELS,
                AGENTIC_SESSION_RATE,
            )
            .depth(2, 8)
            .think_gap(30.0, 1.0)
            .generate(&mut rng)
            .lower();
            Inputs {
                cfg,
                models: market_models(AGENTIC_MODELS as usize),
                trace,
            }
        }
        Kind::ShardedChaos => {
            let mut cfg = AegaeonConfig::paper_testbed();
            cfg.cluster = ClusterSpec::homogeneous(CHAOS_SHARDS as u32, NodeSpec::h800_node());
            cfg.prefill_instances = 12;
            cfg.seed = seed;
            cfg.faults = chaos_plan();
            cfg.telemetry = TelemetrySpec::enabled();
            Inputs {
                cfg,
                models: market_models(CHAOS_MODELS),
                trace: uniform_trace(
                    CHAOS_MODELS,
                    CHAOS_RATE,
                    CHAOS_SECS,
                    seed,
                    LengthDist::sharegpt(),
                ),
            }
        }
    }
}

/// The workload's measured call, and whether its auditor (if any) found
/// no violation.
fn serve(kind: Kind, i: &Inputs) -> (RunResult, bool) {
    match kind {
        Kind::Market | Kind::Agentic => (ServingSystem::run(&i.cfg, &i.models, &i.trace), true),
        Kind::ShardedChaos => {
            let (r, audit) =
                run_sharded_audited(&i.cfg, &i.models, &i.trace, CHAOS_SHARDS, CHAOS_THREADS);
            if !audit.ok() {
                eprintln!("{audit}");
            }
            (r, audit.ok())
        }
    }
}

/// A session stepped in fixed simulated-time slices, timing each call.
pub struct SliceClock {
    pub new_s: f64,
    pub step_s: f64,
    pub finish_s: f64,
    /// Wall milliseconds per simulated second, one sample per slice.
    pub wall_per_sim_ms: Vec<f64>,
    pub result: RunResult,
}

impl SliceClock {
    pub fn closed(cfg: &AegaeonConfig, models: &[ModelSpec], trace: &Trace) -> SliceClock {
        Self::measure(|| ServingSession::closed(cfg, models, trace))
    }

    pub fn replay(cfg: &AegaeonConfig, models: &[ModelSpec], trace: &Trace) -> SliceClock {
        Self::measure(|| ServingSession::replay(cfg, models, trace))
    }

    fn measure(open: impl FnOnce() -> ServingSession) -> SliceClock {
        let t = Instant::now();
        let mut session = open();
        let new_s = t.elapsed().as_secs_f64();
        let slice = SimDur::from_secs_f64(SLICE_SECS);
        let mut limit = SimTime::ZERO;
        let mut wall_per_sim_ms = Vec::new();
        let mut step_s = 0.0;
        while session.next_due().is_some() {
            limit += slice;
            let t = Instant::now();
            session.step_until(limit);
            let secs = t.elapsed().as_secs_f64();
            step_s += secs;
            wall_per_sim_ms.push(secs * 1e3 / SLICE_SECS);
        }
        let t = Instant::now();
        let (result, _) = session.finish();
        SliceClock {
            new_s,
            step_s,
            finish_s: t.elapsed().as_secs_f64(),
            wall_per_sim_ms,
            result,
        }
    }

    pub fn total_s(&self) -> f64 {
        self.new_s + self.step_s + self.finish_s
    }
}

impl Ledger {
    /// `core.wall_per_sim_s_*`: wall time per simulated second.
    pub fn wall_per_sim(&mut self, s: &SliceClock) -> Result<(), String> {
        let v = s.wall_per_sim_ms.clone();
        self.set_pct(
            "core.wall_per_sim_s_p50_ms",
            pct_of(v.clone(), 0.5, "slices")?,
        );
        self.set_pct("core.wall_per_sim_s_p99_ms", pct_of(v, 0.99, "slices")?);
        Ok(())
    }

    /// `core.{new,step,finish}_s` and the event rate of a sliced run.
    pub fn core_steps(&mut self, s: &SliceClock) {
        self.set("core.new_s", s.new_s);
        self.set("core.step_s", s.step_s);
        self.set("core.finish_s", s.finish_s);
        self.set("core.events", s.result.events as f64);
        self.set(
            "core.ns_per_event",
            s.step_s * 1e9 / s.result.events.max(1) as f64,
        );
    }
}

/// The simulated-time quality metrics of a run: token-level attainment at
/// the paper's SLO and the TTFT/TBT quantiles.
pub fn put_sim_quality(rep: &mut Report, r: &RunResult) -> Result<(), String> {
    rep.put(
        "slo_attainment",
        r.attainment(SloSpec::paper_default()).ratio(),
        "ratio",
    );
    let ttft: Vec<f64> = r.outcomes.iter().filter_map(|o| o.ttft()).collect();
    rep.put_pct("ttft_p50_s", pct_of(ttft.clone(), 0.5, "ttft")?, "s");
    rep.put_pct("ttft_p99_s", pct_of(ttft, 0.99, "ttft")?, "s");
    let tbt: Vec<f64> = r
        .outcomes
        .iter()
        .flat_map(|o| {
            o.token_times
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        })
        .collect();
    rep.put_pct("tbt_p50_ms", pct_of(tbt.clone(), 0.5, "tbt")?, "ms");
    rep.put_pct("tbt_p99_ms", pct_of(tbt, 0.99, "tbt")?, "ms");
    Ok(())
}

/// Trigger-property shares: how much of the workload each layer's
/// mechanism touches.
pub fn put_shares(rep: &mut Report, r: &RunResult, trace: &Trace) {
    let n = r.total_requests as f64;
    let turns = trace
        .requests
        .iter()
        .filter(|q| q.session.is_some())
        .count() as f64;
    rep.share("scale_ups_per_request", share(r.scale_count as f64, n));
    rep.share("swaps_per_request", share(r.swaps as f64, n));
    rep.share("session_turn_share", share(turns, n));
    rep.share("prefix_hit_share", share(r.prefix_hits as f64, n));
    rep.share("events_per_request", share(r.events as f64, n));
    rep.share(
        "failed_share",
        share((r.total_requests - r.completed) as f64, n),
    );
}

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
) -> Result<Report, String> {
    let mut rep = Report::default();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let i = inputs(kind, seed);
        setups.push(t.elapsed().as_secs_f64());
        built = Some(i);
    }
    let inp = built.expect("at least one set-up");

    // The measured loop: repeat the workload's call for `seconds`.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
    let mut walls = Vec::new();
    let mut first: Option<RunResult> = None;
    let mut repeatable = true;
    let mut audit_ok = true;
    while walls.len() < MIN_REPS || Instant::now() < deadline {
        let t = Instant::now();
        let (r, ok) = serve(kind, &inp);
        walls.push(t.elapsed().as_secs_f64());
        audit_ok &= ok;
        match &first {
            Some(f) => repeatable &= f.fingerprint() == r.fingerprint(),
            None => first = Some(r),
        }
    }
    // Before the check runs, which are not the workload's.
    let peak_rss_mb = crate::peak_rss_mb();
    let r = first.expect("at least one repetition");
    rep.check("repeated runs are bit-identical", repeatable);
    if kind == Kind::ShardedChaos {
        rep.check("the auditor reports no violation", audit_ok);
    }
    rep.attempted = r.total_requests as u64;
    rep.failed = (r.total_requests - r.completed) as u64;
    if r.completed == 0 {
        return Err("no request completed".into());
    }
    put_shares(&mut rep, &r, &inp.trace);

    let mut ledger = Ledger::default();
    match kind {
        Kind::Market | Kind::Agentic => {
            let sliced = SliceClock::closed(&inp.cfg, &inp.models, &inp.trace);
            rep.check(
                "sliced ServingSession run matches ServingSystem::run",
                sliced.result.fingerprint() == r.fingerprint(),
            );
            if traced {
                ledger.set(
                    "trace.req_per_s",
                    sliced.result.completed as f64 / sliced.total_s(),
                );
                ledger.sessions(&r, &inp.trace);
            }
            if traced && kind == Kind::Market {
                ledger.core_steps(&sliced);
                ledger.wall_per_sim(&sliced)?;
                ledger.core_counters(&r)?;
                let mut scfg = SllmConfig::new(inp.cfg.cluster.clone());
                scfg.world.seed = seed;
                let t = Instant::now();
                let b = ServerlessLlm::run(&scfg, &inp.models, &inp.trace);
                ledger.set("baselines.sllm_run_s", t.elapsed().as_secs_f64());
                ledger.set(
                    "baselines.sllm_attainment",
                    b.attainment(SloSpec::paper_default()).ratio(),
                );
            }
        }
        Kind::ShardedChaos => {
            if traced {
                chaos_layers(&mut rep, &mut ledger, &inp, &r, &walls, threads);
            } else {
                // One run that differs from the measured one in every
                // observer-only dimension at once: `nproc` threads, no
                // auditor, no telemetry.
                let mut plain = inp.cfg.clone();
                plain.telemetry = TelemetrySpec::disabled();
                let other = run_sharded(&plain, &inp.models, &inp.trace, CHAOS_SHARDS, threads);
                rep.check(
                    "fingerprint equal at nproc threads, unaudited, telemetry off",
                    other.fingerprint() == r.fingerprint(),
                );
            }
        }
    }

    if traced {
        ledger.workload(median(&setups), &inp.trace);
        if kind == Kind::ShardedChaos {
            ledger.set("trace.req_per_s", r.completed as f64 / median(&walls));
        }
        ledger.queue_probe();
        ledger.into_report(&mut rep);
    } else {
        rep.reps("setup_s", &setups);
        rep.put("setup_s", median(&setups), "s");
        let rates: Vec<f64> = walls.iter().map(|w| r.completed as f64 / w).collect();
        rep.reps("sim_req_per_s", &rates);
        rep.put("sim_req_per_s", median(&rates), "1/s");
        rep.put("peak_rss_mb", peak_rss_mb, "MiB");
        put_sim_quality(&mut rep, &r)?;
        // The same deployment serving the workload's own requests live.
        crate::gateway::probe(&mut rep, &inp.cfg, &inp.models, &inp.trace)?;
        rep.put(
            "completed_frac",
            1.0 - rep.failed as f64 / rep.attempted as f64,
            "ratio",
        );
    }
    Ok(rep)
}

/// `sharded_chaos` traced: the measured run against each observer-only
/// variant, each checked for an identical fingerprint.
fn chaos_layers(
    rep: &mut Report,
    ledger: &mut Ledger,
    inp: &Inputs,
    r: &RunResult,
    walls: &[f64],
    threads: usize,
) {
    let timed = |cfg: &AegaeonConfig, audited: bool, threads: usize| {
        let t = Instant::now();
        let (res, violations) = if audited {
            let (res, audit) =
                run_sharded_audited(cfg, &inp.models, &inp.trace, CHAOS_SHARDS, threads);
            (res, audit.violations.len())
        } else {
            (
                run_sharded(cfg, &inp.models, &inp.trace, CHAOS_SHARDS, threads),
                0,
            )
        };
        (t.elapsed().as_secs_f64(), res, violations)
    };
    let serial = median(walls);

    let (parallel, many, violations) = timed(&inp.cfg, true, threads);
    rep.check(
        "fingerprint equal at nproc threads",
        many.fingerprint() == r.fingerprint(),
    );
    ledger.set("shard.serial_s", serial);
    ledger.set("shard.parallel_s", parallel);
    ledger.set("shard.speedup", serial / parallel);

    let (plain_s, plain, _) = timed(&inp.cfg, false, CHAOS_THREADS);
    rep.check(
        "fingerprint equal without the auditor",
        plain.fingerprint() == r.fingerprint(),
    );
    ledger.set("audit.overhead_frac", (serial - plain_s) / plain_s);
    ledger.set("audit.violations", violations as f64);

    let mut quiet = inp.cfg.clone();
    quiet.telemetry = TelemetrySpec::disabled();
    let (quiet_s, off, _) = timed(&quiet, true, CHAOS_THREADS);
    rep.check(
        "fingerprint equal with telemetry off",
        off.fingerprint() == r.fingerprint(),
    );
    ledger.set("telemetry.overhead_frac", (serial - quiet_s) / quiet_s);
    // The sharded merge drops observer artifacts, so the exports run over
    // an unsharded run of the same inputs.
    ledger.telemetry_exports(&ServingSystem::run(&inp.cfg, &inp.models, &inp.trace));
}
