//! The live gateway: an in-process [`Gateway`] in time-warp mode driven by
//! a closed loop of client threads over real sockets. The `gateway`
//! workload is this at [`WARP`] with `nproc - 1` clients (at least one) on
//! its own small deployment; every offline workload also streams its own
//! requests through a gateway on its own deployment at [`PROBE_WARP`] with
//! one client, which gives its `gw_*` metrics.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use aegaeon::session::ServingSession;
use aegaeon::{AegaeonConfig, ServingSystem};
use aegaeon_bench::{market_models, uniform_trace};
use aegaeon_gateway::api::{MAX_INPUT_TOKENS, MAX_MAX_TOKENS};
use aegaeon_gateway::client::{request, SseStream};
use aegaeon_gateway::sse::DONE;
use aegaeon_gateway::{ClockMode, Gateway, GatewayConfig, GatewayReport};
use aegaeon_model::ModelSpec;
use aegaeon_sim::SimTime;
use aegaeon_telemetry::TelemetrySpec;
use aegaeon_workload::{LengthDist, Request, Trace};

use crate::layers::Ledger;
use crate::report::Report;
use crate::sim::{self, SliceClock};
use crate::stats::{median, pct_of};

/// Simulated seconds per wall second of the `gateway` workload. A higher
/// warp leaves the sim thread less slack before the numbers measure its lag
/// instead of serving.
pub const WARP: f64 = 200.0;
/// Simulated seconds per wall second of an offline workload's live phase.
/// Its streams are short, so at [`WARP`] the host's thread wake-ups were
/// 10–35% of a stream's wall time and the numbers followed the host's load
/// (see NOTES.md); at 50 the simulated serving time dominates.
const PROBE_WARP: f64 = 50.0;
const N_MODELS: usize = 4;
/// Gateways started per run; `setup_s` is their median start-up time.
const SETUPS: usize = 15;
/// Offline runs (or replays) per run, at least this many and for at least
/// `REPLAY_SECS`; `sim_req_per_s` is the median of their speeds. The host's
/// speed drifts from second to second, and a 2 s window spread the median
/// 0.26–0.43 over ten seeds.
const REPLAYS: usize = 5;
const REPLAY_SECS: f64 = 8.0;
/// The offline trace behind `gateway`'s `sim_req_per_s`: per-model rate and
/// horizon, a light load like the closed loop's.
const OFFLINE_RATE: f64 = 0.1;
const OFFLINE_SECS: f64 = 2000.0;
/// Streams the `gateway` workload sends at least, whatever its window: 1,000
/// support the p99 of its traced run, and the margin keeps a slow host
/// above that.
const MIN_STREAMS: usize = 1100;
/// Streams an offline workload's live phase sends; its metrics need no
/// tail.
const PROBE_STREAMS: usize = 200;
/// Output cap of an offline workload's live phase: its numbers are about
/// the front end reaching the first token, and full-length streams took 3–9
/// times as long.
const PROBE_MAX_TOKENS: u32 = 16;
/// A stream that delivers no frame for this long counts as failed.
const STREAM_TIMEOUT: Duration = Duration::from_secs(5);
/// Wall seconds the live horizon covers beyond the measured window.
/// `GatewayConfig::local`'s fixed 3600 s horizon ends 18 s into a warp-200
/// run, after which admitted requests get a 200 head and never a token
/// (see NOTES.md).
const HORIZON_MARGIN_SECS: f64 = 120.0;

/// What one client saw of one request.
pub struct Stream {
    status: u16,
    /// `[DONE]` arrived.
    done: bool,
    tokens: u32,
    max_tokens: u32,
    head_ms: f64,
    ttft_ms: Option<f64>,
    /// Traced runs: per token, wall receipt minus `created_ns / WARP`, ms,
    /// both relative to an instant taken before the gateway started.
    lags_ms: Vec<f64>,
}

/// Extracts `created_ns` from a token frame's JSON payload.
pub fn created_ns(payload: &str) -> Option<u64> {
    let rest = payload.split_once("\"created_ns\":")?.1.trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A single-shot completions body with the request's model and prompt
/// length and at most `cap` output tokens, with the `max_tokens` the stream
/// must match. Session fields are left out: with output capped, a turn's
/// `prefix_tokens` would claim more than its predecessor produced (see
/// NOTES.md).
pub fn body(r: &Request, cap: u32) -> (String, u32) {
    let max_tokens = r.output_tokens.clamp(1, cap);
    let body = format!(
        r#"{{"model":"m{}","input_tokens":{},"max_tokens":{max_tokens}}}"#,
        r.model.0,
        r.input_tokens.clamp(1, MAX_INPUT_TOKENS)
    );
    (body, max_tokens)
}

/// One closed-loop request: POST, read the head, then every frame. With a
/// `lag_origin`, also records each token's lag (see [`Stream::lags_ms`]).
fn one(addr: SocketAddr, body: &str, max_tokens: u32, lag_origin: Option<Instant>) -> Stream {
    let sent = Instant::now();
    let mut s = Stream {
        status: 0,
        done: false,
        tokens: 0,
        max_tokens,
        head_ms: 0.0,
        ttft_ms: None,
        lags_ms: Vec::new(),
    };
    let Ok(mut stream) = SseStream::post(addr, "/v1/completions", body, STREAM_TIMEOUT) else {
        return s;
    };
    s.status = stream.status;
    s.head_ms = sent.elapsed().as_secs_f64() * 1e3;
    if s.status != 200 {
        return s;
    }
    while let Ok(Some(data)) = stream.next_data() {
        if data == DONE {
            s.done = true;
            break;
        }
        let at = Instant::now();
        if s.ttft_ms.is_none() {
            s.ttft_ms = Some((at - sent).as_secs_f64() * 1e3);
        }
        s.tokens += 1;
        if let (Some(origin), Some(ns)) = (lag_origin, created_ns(&data)) {
            let recv_ms = (at - origin).as_secs_f64() * 1e3;
            s.lags_ms.push(recv_ms - ns as f64 / WARP / 1e6);
        }
    }
    s
}

/// Everything a live phase produced.
pub struct Live {
    /// The warm-up streams, outside every metric but checked like the rest.
    pub warmup: Vec<Stream>,
    /// The measured streams.
    pub streams: Vec<Stream>,
    /// Wall seconds from the first send to the last client's return.
    pub wall: f64,
    pub report: GatewayReport,
    /// `/metrics` scraped after the load (traced runs only).
    pub metrics_text: String,
}

impl Live {
    fn completed(&self) -> impl Iterator<Item = &Stream> {
        self.streams.iter().filter(|s| s.done)
    }

    fn ttft_ms(&self) -> Vec<f64> {
        self.completed().filter_map(|s| s.ttft_ms).collect()
    }
}

/// Starts a gateway at `warp` whose live horizon covers `window_secs` of
/// load.
pub fn start(
    cfg: &AegaeonConfig,
    models: &[ModelSpec],
    window_secs: f64,
    warp: f64,
) -> Result<Gateway, String> {
    let mut gw_cfg = GatewayConfig::local(ClockMode::Timewarp(warp));
    gw_cfg.live_horizon = SimTime::from_secs_f64((window_secs + HORIZON_MARGIN_SECS) * warp);
    Gateway::start(cfg, models, gw_cfg).map_err(|e| format!("gateway start: {e}"))
}

/// Runs `clients` closed-loop clients against `addr`, cycling through
/// `bodies`, until `window` has passed and `min_streams` streams were sent.
/// Token lags are recorded when `lag_origin` is given.
fn drive(
    addr: SocketAddr,
    bodies: &[(String, u32)],
    clients: usize,
    window: Duration,
    min_streams: usize,
    lag_origin: Option<Instant>,
) -> Vec<Stream> {
    let cursor = AtomicUsize::new(0);
    let deadline = Instant::now() + window;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= min_streams && Instant::now() >= deadline {
                            break;
                        }
                        let (body, max_tokens) = &bodies[i % bodies.len()];
                        mine.push(one(addr, body, *max_tokens, lag_origin));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Warms `gw` with one single-token request per model, so that no model's
/// first load from remote storage lands in the measured streams; then runs
/// the measured streams (see [`drive`]) and shuts the gateway down.
pub fn serve(
    gw: Gateway,
    n_models: usize,
    bodies: &[(String, u32)],
    clients: usize,
    window: Duration,
    min_streams: usize,
    lag_origin: Option<Instant>,
) -> Result<Live, String> {
    let addr = gw.addr();
    let warm: Vec<(String, u32)> = (0..n_models)
        .map(|m| {
            (
                format!(r#"{{"model":"m{m}","input_tokens":1,"max_tokens":1}}"#),
                1,
            )
        })
        .collect();
    let warmup = drive(addr, &warm, clients, Duration::ZERO, warm.len(), None);
    let start = Instant::now();
    let streams = drive(addr, bodies, clients, window, min_streams, lag_origin);
    let wall = start.elapsed().as_secs_f64();
    let mut metrics_text = String::new();
    if lag_origin.is_some() {
        // The first scrape may force a re-render of a stale snapshot; the
        // second, one refresh later, reads it.
        let _ = request(addr, "GET", "/metrics", None, STREAM_TIMEOUT);
        std::thread::sleep(Duration::from_millis(250));
        metrics_text = request(addr, "GET", "/metrics", None, STREAM_TIMEOUT)
            .map_err(|e| format!("scrape /metrics: {e}"))?
            .text();
    }
    let report = gw.shutdown();
    if !streams.iter().any(|s| s.done) {
        return Err("no stream completed".into());
    }
    Ok(Live {
        warmup,
        streams,
        wall,
        report,
        metrics_text,
    })
}

/// Closed-loop client threads on a host with `host_parallelism` CPUs: one
/// CPU is left to the gateway's own threads, so that the load generator
/// does not starve the system it measures.
fn load_clients(host_parallelism: usize) -> usize {
    host_parallelism.saturating_sub(1).max(1)
}

/// Replays a recorded trace offline, returning wall seconds and the result.
fn replay(cfg: &AegaeonConfig, models: &[ModelSpec], trace: &Trace) -> (f64, aegaeon::RunResult) {
    let t = Instant::now();
    let mut s = ServingSession::replay(cfg, models, trace);
    s.step_until(SimTime::MAX);
    let (r, _) = s.finish();
    (t.elapsed().as_secs_f64(), r)
}

/// The output checks of a live phase, its stream accounting, and an
/// offline replay of its trace.
fn check(rep: &mut Report, live: &Live, cfg: &AegaeonConfig, models: &[ModelSpec]) {
    let all: Vec<&Stream> = live.warmup.iter().chain(&live.streams).collect();
    let done = all.iter().filter(|s| s.done).count();
    rep.attempted += all.len() as u64;
    rep.failed += (all.len() - done) as u64;
    rep.check(
        "every 200 stream ended in [DONE] after max_tokens token frames",
        all.iter()
            .filter(|s| s.status == 200)
            .all(|s| s.done && s.tokens == s.max_tokens),
    );
    rep.check(
        "gateway shutdown audit is clean",
        live.report.audit.as_ref().is_some_and(|a| a.ok()),
    );
    rep.check(
        "the live run completed every stream the clients completed",
        live.report.result.completed == done,
    );
    let (_, offline) = replay(cfg, models, &live.report.trace);
    rep.check(
        "offline replay of the gateway trace matches the live fingerprint",
        offline.fingerprint() == live.report.result.fingerprint(),
    );
}

/// The simulator's own speed on the `gateway` deployment and traffic mix:
/// repeated `ServingSystem::run` calls on a seeded light open-loop trace,
/// in completed requests per second. The recorded live trace would not do:
/// its arrival stamps follow the wall clock, so a busy host changes the
/// input along with the timing.
fn offline_rates(cfg: &AegaeonConfig, models: &[ModelSpec], seed: u64) -> Vec<f64> {
    let trace = uniform_trace(
        N_MODELS,
        OFFLINE_RATE,
        OFFLINE_SECS,
        seed,
        LengthDist::sharegpt(),
    );
    let mut rates = Vec::new();
    let t = Instant::now();
    while rates.len() < REPLAYS || t.elapsed().as_secs_f64() < REPLAY_SECS {
        let run = Instant::now();
        let r = ServingSystem::run(cfg, models, &trace);
        rates.push(r.completed as f64 / run.elapsed().as_secs_f64());
    }
    rates
}

/// Puts `gw_req_per_s` and the client-side TTFT median.
fn put_gw(rep: &mut Report, live: &Live) -> Result<(), String> {
    rep.put(
        "gw_req_per_s",
        live.completed().count() as f64 / live.wall,
        "1/s",
    );
    let ttft = pct_of(live.ttft_ms(), 0.5, "gw ttft")?;
    rep.put_pct("gw_ttft_p50_ms", ttft, "ms");
    Ok(())
}

/// An offline workload's live phase: its own deployment serving its own
/// requests, in trace order, for [`PROBE_STREAMS`] streams at
/// [`PROBE_WARP`] from one client, so that the load does not depend on the
/// host.
pub fn probe(
    rep: &mut Report,
    cfg: &AegaeonConfig,
    models: &[ModelSpec],
    trace: &Trace,
) -> Result<(), String> {
    let bodies: Vec<(String, u32)> = trace
        .requests
        .iter()
        .map(|r| body(r, PROBE_MAX_TOKENS))
        .collect();
    let gw = start(cfg, models, 0.0, PROBE_WARP)?;
    let live = serve(
        gw,
        models.len(),
        &bodies,
        1,
        Duration::ZERO,
        PROBE_STREAMS,
        None,
    )?;
    check(rep, &live, cfg, models);
    put_gw(rep, &live)
}

/// The value of an unlabelled series in Prometheus text.
fn scrape(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|l| {
        let (name, v) = l.split_once(' ')?;
        (name == series).then(|| v.trim().parse().ok()).flatten()
    })
}

fn inputs(seed: u64) -> (AegaeonConfig, Vec<ModelSpec>, Vec<(String, u32)>) {
    let mut cfg = AegaeonConfig::small_testbed(1, 2);
    cfg.seed = seed;
    let models = market_models(N_MODELS);
    let trace = uniform_trace(N_MODELS, 1.0, 2000.0, seed, LengthDist::sharegpt());
    let bodies = trace
        .requests
        .iter()
        .map(|r| body(r, MAX_MAX_TOKENS))
        .collect();
    (cfg, models, bodies)
}

/// The `gateway` workload.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    host_parallelism: usize,
) -> Result<Report, String> {
    let clients = load_clients(host_parallelism);
    let mut rep = Report::default();
    let origin = Instant::now();

    // Set-up: inputs plus `Gateway::start`, several times; the last
    // gateway serves the run, the others are shut down idle.
    let mut setups = Vec::new();
    let mut starts = Vec::new();
    let mut builds = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let (cfg, models, bodies) = inputs(seed);
        let built = t.elapsed().as_secs_f64();
        let gw = start(&cfg, &models, seconds, WARP)?;
        let total = t.elapsed().as_secs_f64();
        setups.push(total);
        starts.push(total - built);
        builds.push(built);
        if i + 1 < SETUPS {
            let idle = gw.shutdown();
            rep.check(
                format!("idle gateway {i} drains with a clean audit"),
                idle.audit.as_ref().is_some_and(|a| a.ok()) && idle.trace.requests.is_empty(),
            );
        } else {
            live = Some((cfg, models, bodies, gw));
        }
    }
    let (cfg, models, bodies, gw) = live.expect("at least one set-up");
    let window = Duration::from_secs_f64(seconds);
    let lag_origin = traced.then_some(origin);
    let live = serve(
        gw,
        models.len(),
        &bodies,
        clients,
        window,
        MIN_STREAMS,
        lag_origin,
    )?;
    check(&mut rep, &live, &cfg, &models);

    if !traced {
        rep.reps("setup_s", &setups);
        rep.put("setup_s", median(&setups), "s");
        let rates = offline_rates(&cfg, &models, seed);
        rep.reps("sim_req_per_s", &rates);
        rep.put("sim_req_per_s", median(&rates), "1/s");
        rep.put("peak_rss_mb", crate::peak_rss_mb(), "MiB");
        sim::put_sim_quality(&mut rep, &live.report.result)?;
        put_gw(&mut rep, &live)?;
        rep.put(
            "completed_frac",
            1.0 - rep.failed as f64 / rep.attempted as f64,
            "ratio",
        );
        return Ok(rep);
    }

    // ---- traced: the layer ledger ----------------------------------------
    let mut ledger = Ledger::default();
    ledger.workload(median(&builds), &live.report.trace);
    ledger.set(
        "trace.req_per_s",
        live.completed().count() as f64 / live.wall,
    );
    ledger.set("gateway.start_s", median(&starts));
    ledger.set_pct(
        "gateway.ttft_ms_p99",
        pct_of(live.ttft_ms(), 0.99, "gw ttft")?,
    );
    let heads: Vec<f64> = live
        .streams
        .iter()
        .filter(|s| s.status != 0)
        .map(|s| s.head_ms)
        .collect();
    ledger.set_pct("gateway.head_ms_p50", pct_of(heads.clone(), 0.5, "head")?);
    ledger.set_pct("gateway.head_ms_p99", pct_of(heads, 0.99, "head")?);
    let lags: Vec<f64> = live
        .completed()
        .flat_map(|s| s.lags_ms.iter().copied())
        .collect();
    let floor = lags.iter().copied().fold(f64::INFINITY, f64::min);
    let lags: Vec<f64> = lags.iter().map(|l| l - floor).collect();
    ledger.set_pct(
        "gateway.token_lag_ms_p50",
        pct_of(lags.clone(), 0.5, "token lag")?,
    );
    ledger.set_pct("gateway.token_lag_ms_p99", pct_of(lags, 0.99, "token lag")?);
    let series =
        |name: &str| scrape(&live.metrics_text, name).ok_or(format!("/metrics has no {name}"));
    ledger.set("gateway.wall_clock_lag_s", series("wall_clock_lag_secs")?);
    ledger.set("gateway.rejected", series("gateway_rejected_requests")?);
    ledger.set("gateway.slow_drops", live.report.slow_drops as f64);

    // The core and telemetry, measured on offline replays of the recorded
    // trace: sliced stepping, and telemetry on against off.
    let sliced = SliceClock::replay(&cfg, &models, &live.report.trace);
    rep.check(
        "sliced replay matches the live fingerprint",
        sliced.result.fingerprint() == live.report.result.fingerprint(),
    );
    ledger.wall_per_sim(&sliced)?;
    let mut tcfg = cfg.clone();
    tcfg.telemetry = TelemetrySpec::enabled();
    let mut off = Vec::new();
    let mut on = Vec::new();
    let mut observed = None;
    for _ in 0..REPLAYS {
        off.push(replay(&cfg, &models, &live.report.trace).0);
        let (secs, r) = replay(&tcfg, &models, &live.report.trace);
        on.push(secs);
        observed = Some(r);
    }
    let (off, on) = (median(&off), median(&on));
    ledger.set("telemetry.overhead_frac", (on - off) / off);
    ledger.telemetry_exports(&observed.expect("replayed"));
    ledger.into_report(&mut rep);
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_created_ns_from_token_frames() {
        let frame = aegaeon_gateway::api::completion_chunk(
            7,
            aegaeon_model::ModelId(2),
            0,
            123_456_789,
            false,
            false,
        );
        assert_eq!(created_ns(&frame), Some(123_456_789));
        assert_eq!(created_ns(r#"{"created_ns": 42,"x":1}"#), Some(42));
        assert_eq!(
            created_ns(r#"{"created_ns":18446744073709551615}"#),
            Some(u64::MAX)
        );
    }

    #[test]
    fn bodies_parse_back_to_the_request() {
        let mut r = Request::single(
            aegaeon_workload::RequestId(0),
            aegaeon_model::ModelId(3),
            0,
            40,
            900,
        );
        r.session = aegaeon_workload::SessionId(5);
        r.prefix_tokens = 30;
        let (b, max) = body(&r, 16);
        assert_eq!(max, 16);
        let p = aegaeon_gateway::api::parse_completion(b.as_bytes(), 4).expect("valid body");
        assert_eq!(
            (p.model, p.input_tokens, p.output_tokens),
            (r.model, 40, 16)
        );
        assert!(p.session.is_none(), "capped bodies carry no session fields");
        assert_eq!(body(&r, MAX_MAX_TOKENS).1, 900);
    }

    #[test]
    fn rejects_frames_without_a_stamp() {
        assert_eq!(created_ns(DONE), None);
        assert_eq!(created_ns(r#"{"created_ns":"12"}"#), None);
        assert_eq!(created_ns(r#"{"created_ns":-5}"#), None);
        assert_eq!(created_ns(r#"{"created_ns":99999999999999999999}"#), None);
    }

    #[test]
    fn scrapes_unlabelled_series_only() {
        let text = "# TYPE x gauge\nwall_clock_lag_secs 0.25\nslo_attainment{model=\"m0\"} 1\n";
        assert_eq!(scrape(text, "wall_clock_lag_secs"), Some(0.25));
        assert_eq!(scrape(text, "slo_attainment"), None);
    }
}
