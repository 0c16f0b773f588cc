//! Shared serving machinery for the baseline systems.
//!
//! Baselines are unified (non-disaggregated) servers: each instance runs a
//! vLLM-style loop on its compute lane — pending prefills first, then one
//! decoding step for the whole batch — with continuous batching within the
//! resident model. System-specific behaviour (admission, what to do when an
//! instance drains, compute contention) plugs in through the [`Scheduler`]
//! trait.

use std::collections::VecDeque;

use aegaeon::audit::{AuditReport, AuditView, Auditor, InvariantAuditor, ReqAudit, TouchedList};
use aegaeon::deploy::{build_deploys, ModelDeploy};
use aegaeon::reqstate::ReqState;
use aegaeon_engine::{scale_up_plan, AutoscaleOpts, InitCosts, ScaleCost};
use aegaeon_gpu::{
    ClusterTopology, Completion, Fabric, FabricEvent, GpuId, LinkId, StreamId, StreamOp,
};
use aegaeon_metrics::RequestOutcome;
use aegaeon_model::{ModelId, ModelSpec};
use aegaeon_sim::{EventQueue, FxHashMap, Lift, SimDur, SimRng, SimTime, Timeline};
use aegaeon_telemetry::{CounterId, GaugeId, HistId, SpanId, SpanKind, Telemetry};
use aegaeon_workload::{RequestId, Trace};

use crate::result::BaselineResult;

/// Simulation events.
#[derive(Debug, Clone, PartialEq)]
pub enum BEv {
    /// Fabric event.
    Fabric(FabricEvent),
    /// Arrival of `trace.requests[idx]`.
    Arrive(u32),
    /// Periodic utilization sample.
    Sample,
}

/// Fabric completion tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BTag {
    /// One shard of a TP op.
    Part(u64),
    /// A prefill finished on an instance.
    Prefill {
        /// Instance index.
        inst: u32,
        /// The request.
        req: RequestId,
    },
    /// A decode step finished.
    Step {
        /// Instance index.
        inst: u32,
    },
    /// The last auto-scaling stage finished.
    Scale {
        /// Instance index.
        inst: u32,
    },
}

/// One serving instance (a TP group, or a MuxServe slot on a GPU).
#[derive(Debug)]
pub struct InstState {
    /// Member GPUs.
    pub gpus: Vec<GpuId>,
    /// Compute lanes, one per GPU (MuxServe slots use extra streams).
    pub lanes: Vec<StreamId>,
    /// Resident model.
    pub current: Option<ModelId>,
    /// Target of an in-flight scale (None when not scaling).
    pub scale_target: Option<ModelId>,
    scale_remaining: u32,
    /// Admitted requests awaiting prefill.
    pub prefill_q: VecDeque<RequestId>,
    /// Decoding batch.
    pub batch: Vec<RequestId>,
    /// An op is in flight on the lanes.
    pub busy: bool,
    /// Step/prefill duration multiplier (MuxServe compute sharing).
    pub contention: f64,
    /// Reserved KV tokens (oracle-final contexts of admitted requests).
    pub kv_reserved_tokens: u64,
    /// KV token capacity for the resident model (set at scale time).
    pub kv_cap_tokens: u64,
    /// Model switches performed.
    pub switches: u64,
}

impl InstState {
    /// Creates an idle instance over the given GPUs and compute lanes.
    pub fn new(gpus: Vec<GpuId>, lanes: Vec<StreamId>) -> InstState {
        InstState {
            gpus,
            lanes,
            current: None,
            scale_target: None,
            scale_remaining: 0,
            prefill_q: VecDeque::new(),
            batch: Vec::new(),
            busy: false,
            contention: 1.0,
            kv_reserved_tokens: 0,
            kv_cap_tokens: 0,
            switches: 0,
        }
    }

    /// True if the instance has no work at all.
    pub fn is_empty(&self) -> bool {
        self.prefill_q.is_empty() && self.batch.is_empty()
    }
}

/// System-specific policy hooks.
pub trait Scheduler {
    /// A request reached the system.
    fn on_arrival(&mut self, w: &mut World, idx: usize, q: &mut Qq);
    /// An instance has fully drained.
    fn on_idle(&mut self, w: &mut World, inst: usize, q: &mut Qq);
    /// An instance finished an op (optional bookkeeping).
    fn on_progress(&mut self, _w: &mut World, _inst: usize, _q: &mut Qq) {}
}

/// Event queue alias.
pub type Qq = EventQueue<BEv>;

/// World configuration shared by the baselines.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Cluster hardware.
    pub cluster: aegaeon_gpu::ClusterSpec,
    /// TP degree.
    pub tp: u32,
    /// Scale-plan optimization flags (what the baseline's loader achieves).
    pub opts: AutoscaleOpts,
    /// Component-init costs.
    pub init_costs: InitCosts,
    /// Usable VRAM fraction.
    pub vram_usable: f64,
    /// KV admission headroom (fraction of capacity usable for reservations).
    pub kv_fill: f64,
    /// Remote-registry bandwidth (always cached here; kept for parity).
    pub remote_bw: f64,
    /// Extra fixed cost per model switch (engine/process restart work the
    /// baseline performs that Aegaeon's component reuse removes, §5.1).
    pub extra_switch_cost: SimDur,
    /// Utilization sampling period.
    pub sample_period: SimDur,
    /// Extra time after the horizon before cutting the run.
    pub drain_window: SimDur,
    /// RNG seed.
    pub seed: u64,
    /// Run the always-on invariant auditor alongside the loop (observer
    /// only; results are bit-identical either way).
    pub audit: bool,
    /// Telemetry (request-lifecycle spans + sampled metrics). Observer
    /// only: results are bit-identical either way.
    pub telemetry: aegaeon_telemetry::TelemetrySpec,
}

impl WorldConfig {
    /// ServerlessLLM-style defaults on the paper testbed: warm containers,
    /// fast checkpoint loading (their contribution), no prefetching.
    pub fn sllm_default(cluster: aegaeon_gpu::ClusterSpec) -> WorldConfig {
        WorldConfig {
            cluster,
            tp: 1,
            opts: AutoscaleOpts {
                component_reuse: true,
                explicit_memory: true,
                prefetch: false,
                fine_sync: false,
            },
            init_costs: InitCosts::paper_default(),
            vram_usable: 0.9,
            kv_fill: 0.9,
            remote_bw: 5e9,
            // ServerlessLLM accelerates checkpoint loading but still
            // restarts the serving engine for the new model; Figure 7's
            // breakdown attributes seconds to VRAM GC, KV-cache host-memory
            // pinning and misc component init (2.5 + 4 + 2.3 s), stages the
            // §5.1 component-reuse design removes. We charge a moderate 6 s.
            extra_switch_cost: SimDur::from_secs(6),
            sample_period: SimDur::from_secs(1),
            drain_window: SimDur::from_secs(240),
            seed: 42,
            audit: false,
            telemetry: aegaeon_telemetry::TelemetrySpec::disabled(),
        }
    }
}

/// Pre-registered metric handles for the baseline loop (no string hashing
/// on the hot path).
#[derive(Debug, Clone, Copy)]
struct BTelIds {
    c_switches: CounterId,
    c_completed: CounterId,
    c_rejected: CounterId,
    c_events_dispatched: CounterId,
    c_audit_checks: CounterId,
    c_audit_violations: CounterId,
    g_prefill_queue_depth: GaugeId,
    g_decode_work: GaugeId,
    g_active_models: GaugeId,
    g_kv_reserved: GaugeId,
    h_batch_size: HistId,
}

impl BTelIds {
    fn register(reg: &mut aegaeon_telemetry::MetricsRegistry) -> BTelIds {
        BTelIds {
            c_switches: reg.counter("switches"),
            c_completed: reg.counter("completed_requests"),
            c_rejected: reg.counter("rejected_requests"),
            c_events_dispatched: reg.counter("events_dispatched"),
            c_audit_checks: reg.counter("audit_checks"),
            c_audit_violations: reg.counter("audit_violations"),
            g_prefill_queue_depth: reg.gauge("prefill_queue_depth"),
            g_decode_work: reg.gauge("decode_batch_requests"),
            g_active_models: reg.gauge("active_models"),
            g_kv_reserved: reg.gauge("kv_reserved_tokens"),
            h_batch_size: reg.histogram("batch_size", &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]),
        }
    }
}

/// Per-request span handles (root + the currently open phase).
#[derive(Debug, Clone, Copy)]
struct BReqTel {
    root: SpanId,
    phase: SpanId,
}

impl BReqTel {
    const EMPTY: BReqTel = BReqTel {
        root: SpanId::NONE,
        phase: SpanId::NONE,
    };
}

/// The shared baseline world: instances over the fabric plus request state.
pub struct World {
    /// Configuration.
    pub cfg: WorldConfig,
    /// The fabric.
    pub fabric: Fabric<BTag>,
    /// Topology.
    pub topo: ClusterTopology,
    /// Model deployments.
    pub deploys: Vec<ModelDeploy>,
    /// Instances.
    pub insts: Vec<InstState>,
    /// Request runtime state.
    pub reqs: Vec<ReqState>,
    /// The trace.
    pub trace: Trace,
    /// RNG.
    pub rng: SimRng,
    ready: VecDeque<Completion<BTag>>,
    multis: FxHashMap<u64, (u32, BTag)>,
    next_multi: u64,
    usable_vram: u64,
    /// Completed requests.
    pub completed: usize,
    /// Requests rejected outright (unplaced models).
    pub rejected: usize,
    util_samples: Vec<(SimTime, Vec<f64>)>,
    sample_live: bool,
    arrivals_left: usize,
    /// Request-lifecycle spans and sampled metrics (observer only).
    pub tel: Telemetry,
    tm: BTelIds,
    req_tel: Vec<BReqTel>,
    /// Open switch span per instance (lazily sized: MuxServe rebuilds
    /// `insts` after construction).
    switch_spans: Vec<SpanId>,
    /// Requests that produced a token since the auditor last ran
    /// (recorded only while an auditor is installed).
    touched: TouchedList,
}

impl World {
    /// Builds a world with one instance per TP group using each GPU's
    /// default stream as its lane.
    pub fn new(cfg: WorldConfig, models: &[ModelSpec], trace: Trace) -> World {
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let mut fabric: Fabric<BTag> = Fabric::new();
        let topo = ClusterTopology::build(&cfg.cluster, &mut fabric);
        let gpu_spec = cfg.cluster.nodes[0].gpu.clone();
        let deploys = build_deploys(models, &gpu_spec, cfg.tp, &mut rng);
        let usable_vram = (gpu_spec.vram_bytes as f64 * cfg.vram_usable) as u64;
        let gpu_ids: Vec<GpuId> = topo.gpu_ids().collect();
        let mut insts = Vec::new();
        for group in gpu_ids.chunks(cfg.tp as usize) {
            let lanes = group
                .iter()
                .map(|&g| topo.gpu(g).default_stream)
                .collect();
            insts.push(InstState {
                gpus: group.to_vec(),
                lanes,
                current: None,
                scale_target: None,
                scale_remaining: 0,
                prefill_q: VecDeque::new(),
                batch: Vec::new(),
                busy: false,
                contention: 1.0,
                kv_reserved_tokens: 0,
                kv_cap_tokens: 0,
                switches: 0,
            });
        }
        let reqs = trace
            .requests
            .iter()
            .map(|r| ReqState::new(r.arrival(), r.input_tokens, r.output_tokens))
            .collect();
        let arrivals_left = trace.len();
        let mut tel = Telemetry::new(&cfg.telemetry);
        let tm = BTelIds::register(&mut tel.metrics);
        let req_tel = if tel.is_enabled() {
            vec![BReqTel::EMPTY; trace.len()]
        } else {
            Vec::new()
        };
        World {
            cfg,
            fabric,
            topo,
            deploys,
            insts,
            reqs,
            trace,
            rng,
            ready: VecDeque::new(),
            multis: FxHashMap::default(),
            next_multi: 0,
            usable_vram,
            completed: 0,
            rejected: 0,
            util_samples: Vec::new(),
            sample_live: false,
            arrivals_left,
            touched: TouchedList::default(),
            tel,
            tm,
            req_tel,
            switch_spans: Vec::new(),
        }
    }

    // ----- Telemetry hooks (observer only; no-ops when disabled) --------

    fn tel_poll(&mut self, at: SimTime) {
        let m = &mut self.tel.metrics;
        if !m.is_enabled() {
            return;
        }
        let queue: usize = self.insts.iter().map(|i| i.prefill_q.len()).sum();
        let work: usize = self.insts.iter().map(|i| i.batch.len()).sum();
        let reserved: u64 = self.insts.iter().map(|i| i.kv_reserved_tokens).sum();
        let mut models: Vec<u32> = self
            .insts
            .iter()
            .filter_map(|i| i.current.map(|m| m.0))
            .collect();
        models.sort_unstable();
        models.dedup();
        m.set(self.tm.g_prefill_queue_depth, queue as f64);
        m.set(self.tm.g_decode_work, work as f64);
        m.set(self.tm.g_kv_reserved, reserved as f64);
        m.set(self.tm.g_active_models, models.len() as f64);
        m.sample(at);
    }

    fn tel_req_arrive(&mut self, req: RequestId, now: SimTime) {
        if !self.tel.is_enabled() {
            return;
        }
        let i = req.0 as usize;
        let model = self.trace.requests[i].model;
        let root = self.tel.spans.start(
            || format!("req{i}"),
            SpanKind::Request,
            now,
            SpanId::NONE,
            SpanId::NONE,
            || format!("req{i}:{model}"),
        );
        self.req_tel[i].root = root;
        self.req_tel[i].phase = self.tel.spans.start(
            || format!("req{i}"),
            SpanKind::QueueWait,
            now,
            root,
            SpanId::NONE,
            || "queue-wait",
        );
    }

    fn tel_begin_phase(&mut self, req: RequestId, kind: SpanKind, label: &'static str, now: SimTime) {
        if !self.tel.is_enabled() {
            return;
        }
        let i = req.0 as usize;
        let rt = self.req_tel[i];
        self.tel.spans.end(rt.phase, now);
        self.req_tel[i].phase = self.tel.spans.start(
            || format!("req{i}"),
            kind,
            now,
            rt.root,
            SpanId::NONE,
            || label,
        );
    }

    fn tel_req_done(&mut self, req: RequestId, now: SimTime) {
        if !self.tel.is_enabled() {
            return;
        }
        let i = req.0 as usize;
        let rt = std::mem::replace(&mut self.req_tel[i], BReqTel::EMPTY);
        self.tel.spans.end(rt.phase, now);
        self.tel.spans.end(rt.root, now);
    }

    /// Usable VRAM per GPU.
    pub fn usable_vram(&self) -> u64 {
        self.usable_vram
    }

    /// KV token capacity if `model` were resident alone, given `weights` of
    /// resident bytes on the GPU.
    pub fn kv_tokens_for(&self, model: ModelId, resident_weights: u64) -> u64 {
        let d = &self.deploys[model.0 as usize];
        let kv_bytes = self.usable_vram.saturating_sub(resident_weights);
        kv_bytes / d.kv_token_bytes.max(1)
    }

    /// Oracle-final context of a request (admission reservation).
    pub fn final_ctx(&self, req: RequestId) -> u64 {
        let r = &self.trace.requests[req.0 as usize];
        (r.input_tokens + r.output_tokens) as u64
    }

    /// True if `inst` can reserve KV space for `req`.
    pub fn can_admit(&self, inst: usize, req: RequestId) -> bool {
        let i = &self.insts[inst];
        let cap = (i.kv_cap_tokens as f64 * self.cfg.kv_fill) as u64;
        i.kv_reserved_tokens + self.final_ctx(req) <= cap
    }

    /// Admits `req` to `inst` (reserving KV) and kicks the loop.
    pub fn admit(&mut self, inst: usize, req: RequestId, q: &mut Qq) {
        let ctx = self.final_ctx(req);
        let i = &mut self.insts[inst];
        i.kv_reserved_tokens += ctx;
        i.prefill_q.push_back(req);
        self.kick(inst, q);
    }

    /// Starts scaling `inst` to `model`. KV capacity is set for the target.
    pub fn start_scale(&mut self, inst: usize, model: ModelId, q: &mut Qq) {
        debug_assert!(self.insts[inst].scale_target.is_none(), "already scaling");
        let d = &self.deploys[model.0 as usize];
        let mut plan = scale_up_plan(
            &self.cfg.opts,
            &self.cfg.init_costs,
            d.shard_bytes,
            false,
            true,
            self.cfg.remote_bw,
        );
        if !self.cfg.extra_switch_cost.is_zero() {
            plan.stages.push(aegaeon_engine::ScaleStage {
                kind: aegaeon_engine::StageKind::MiscInit,
                cost: ScaleCost::Fixed(self.cfg.extra_switch_cost),
            });
        }
        let lanes = self.insts[inst].lanes.clone();
        let gpus = self.insts[inst].gpus.clone();
        {
            let i = &mut self.insts[inst];
            i.scale_target = Some(model);
            i.scale_remaining = (plan.stages.len() * lanes.len()) as u32;
            i.switches += 1;
            i.busy = true;
            i.kv_cap_tokens = 0; // set on completion
        }
        self.tel.metrics.inc(self.tm.c_switches, 1);
        if self.tel.is_enabled() {
            if self.switch_spans.len() <= inst {
                self.switch_spans.resize(inst + 1, SpanId::NONE);
            }
            let now = q.now();
            let old = std::mem::replace(&mut self.switch_spans[inst], SpanId::NONE);
            self.tel.spans.end(old, now);
            self.switch_spans[inst] = self.tel.spans.start(
                || format!("inst{inst}"),
                SpanKind::Switch,
                now,
                SpanId::NONE,
                SpanId::NONE,
                || format!("S:{model}"),
            );
        }
        for (lane, g) in lanes.iter().zip(&gpus) {
            let h = self.topo.gpu(*g).clone();
            for st in &plan.stages {
                let tag = BTag::Scale { inst: inst as u32 };
                let op = match st.cost {
                    ScaleCost::Fixed(dur) => StreamOp::Compute { dur, tag },
                    ScaleCost::HostLoad { bytes, efficiency } => StreamOp::Copy {
                        link: h.h2d,
                        bytes: (bytes as f64 / efficiency) as u64,
                        tag,
                    },
                    ScaleCost::DeviceCopy { bytes } => StreamOp::Compute {
                        dur: SimDur::from_secs_f64(bytes as f64 / h.spec.device_copy_bw()),
                        tag,
                    },
                };
                self.submit(*lane, op, q);
            }
        }
    }

    fn submit(&mut self, lane: StreamId, op: StreamOp<BTag>, q: &mut Qq) {
        let cs = self.fabric.submit(lane, op, &mut Lift::new(q, BEv::Fabric));
        self.ready.extend(cs);
    }

    fn multi(&mut self, parts: u32, inner: BTag) -> BTag {
        if parts <= 1 {
            return inner;
        }
        let id = self.next_multi;
        self.next_multi += 1;
        self.multis.insert(id, (parts, inner));
        BTag::Part(id)
    }

    /// Runs the instance loop: prefill first, else a decode step.
    pub fn kick(&mut self, inst: usize, q: &mut Qq) {
        if self.insts[inst].busy || self.insts[inst].scale_target.is_some() {
            return;
        }
        let model = match self.insts[inst].current {
            Some(m) => m,
            None => return, // scheduler must scale first
        };
        if let Some(&req) = self.insts[inst].prefill_q.front() {
            self.insts[inst].prefill_q.pop_front();
            let input = self.reqs[req.0 as usize].input_tokens;
            let base = self.deploys[model.0 as usize]
                .perf
                .prefill_secs(&[input], &mut self.rng);
            let dur = base * self.insts[inst].contention;
            self.reqs[req.0 as usize].prefill_start = Some(q.now());
            self.tel_begin_phase(req, SpanKind::Prefill, "prefill", q.now());
            self.insts[inst].busy = true;
            let lanes = self.insts[inst].lanes.clone();
            let tag = self.multi(
                lanes.len() as u32,
                BTag::Prefill {
                    inst: inst as u32,
                    req,
                },
            );
            for lane in lanes {
                self.submit(lane, StreamOp::Compute { dur, tag: tag.clone() }, q);
            }
        } else if !self.insts[inst].batch.is_empty() {
            let batch = self.insts[inst].batch.clone();
            let ctx: u64 = batch
                .iter()
                .map(|r| self.reqs[r.0 as usize].ctx_tokens() as u64)
                .sum();
            let base = self.deploys[model.0 as usize]
                .perf
                .decode_secs(batch.len(), ctx, &mut self.rng);
            let dur = base * self.insts[inst].contention;
            self.tel.metrics.observe(self.tm.h_batch_size, batch.len() as f64);
            self.insts[inst].busy = true;
            let lanes = self.insts[inst].lanes.clone();
            let tag = self.multi(lanes.len() as u32, BTag::Step { inst: inst as u32 });
            for lane in lanes {
                self.submit(lane, StreamOp::Compute { dur, tag: tag.clone() }, q);
            }
        }
    }

    /// Drives the simulation with `sched` until the trace drains.
    ///
    /// # Panics
    ///
    /// With `cfg.audit` set, panics on any invariant violation, printing
    /// the full report (the violation reproduces from the config's seed).
    pub fn run<S: Scheduler>(self, sched: &mut S) -> BaselineResult {
        if self.cfg.audit {
            let seed = self.cfg.seed;
            let (result, report) = self.run_audited(sched);
            assert!(
                report.ok(),
                "baseline invariant violation (reproduce with seed={seed}):\n{report}"
            );
            result
        } else {
            self.run_inner(sched, None).0
        }
    }

    /// Runs with the standard invariant auditor installed, returning the
    /// audit report alongside the results.
    pub fn run_audited<S: Scheduler>(self, sched: &mut S) -> (BaselineResult, AuditReport) {
        let auditor: Box<dyn Auditor> = Box::new(InvariantAuditor::new());
        let (result, report) = self.run_inner(sched, Some(auditor));
        (result, report.expect("auditor was installed"))
    }

    pub(crate) fn run_inner<S: Scheduler>(
        mut self,
        sched: &mut S,
        mut auditor: Option<Box<dyn Auditor>>,
    ) -> (BaselineResult, Option<AuditReport>) {
        if auditor.is_some() {
            self.touched.enable();
        }
        let mut q: Qq = EventQueue::new();
        for (i, r) in self.trace.requests.iter().enumerate() {
            q.schedule_at(r.arrival(), BEv::Arrive(i as u32));
        }
        let hard_stop = self.trace.horizon + self.cfg.drain_window;
        q.schedule_after(self.cfg.sample_period, BEv::Sample);
        self.sample_live = true;
        let cap: u64 = 400_000_000;
        while let Some((t, ev)) = q.pop() {
            if t > hard_stop || q.events_dispatched() > cap {
                break;
            }
            match ev {
                BEv::Fabric(fe) => {
                    let cs = self.fabric.advance(fe, &mut Lift::new(&mut q, BEv::Fabric));
                    self.ready.extend(cs);
                }
                BEv::Arrive(idx) => {
                    self.arrivals_left -= 1;
                    let rid = self.trace.requests[idx as usize].id;
                    self.tel_req_arrive(rid, q.now());
                    sched.on_arrival(&mut self, idx as usize, &mut q);
                }
                BEv::Sample => {
                    let busy: Vec<f64> = self
                        .topo
                        .gpu_ids()
                        .map(|g| {
                            self.fabric
                                .stream_compute_busy(self.topo.gpu(g).default_stream)
                                .as_secs_f64()
                        })
                        .collect();
                    self.util_samples.push((q.now(), busy));
                    if self.arrivals_left > 0 || self.completed < self.trace.len() {
                        q.schedule_after(self.cfg.sample_period, BEv::Sample);
                    }
                }
            }
            // Drain completions, collecting instances that fully emptied.
            while let Some(c) = self.ready.pop_front() {
                let Completion::Op { tag, .. } = c else { continue };
                match tag {
                    BTag::Part(id) => {
                        let done = {
                            let e = self.multis.get_mut(&id).expect("live multi");
                            e.0 -= 1;
                            e.0 == 0
                        };
                        if done {
                            let (_, inner) = self.multis.remove(&id).expect("live");
                            self.ready.push_front(Completion::Op {
                                stream: aegaeon_gpu::StreamId(0),
                                tag: inner,
                            });
                        }
                    }
                    BTag::Scale { inst } => {
                        let inst = inst as usize;
                        let done = {
                            let i = &mut self.insts[inst];
                            i.scale_remaining -= 1;
                            i.scale_remaining == 0
                        };
                        if done {
                            if let Some(s) = self.switch_spans.get_mut(inst) {
                                let span = std::mem::replace(s, SpanId::NONE);
                                self.tel.spans.end(span, q.now());
                            }
                            let model = self.insts[inst]
                                .scale_target
                                .take()
                                .expect("scaling target");
                            let shard = self.deploys[model.0 as usize].shard_bytes;
                            let cap = self.kv_tokens_for(model, shard);
                            let i = &mut self.insts[inst];
                            i.current = Some(model);
                            i.kv_cap_tokens = cap;
                            i.busy = false;
                            self.kick(inst, &mut q);
                            sched.on_progress(&mut self, inst, &mut q);
                        }
                    }
                    BTag::Prefill { inst, req } => {
                        let inst = inst as usize;
                        self.reqs[req.0 as usize].push_token(q.now());
                        self.touched.mark(req.0 as usize);
                        self.reqs[req.0 as usize].prefill_end = Some(q.now());
                        let mut emptied = false;
                        {
                            let i = &mut self.insts[inst];
                            i.busy = false;
                            if self.reqs[req.0 as usize].is_done() {
                                // Single-token output: request complete.
                                i.kv_reserved_tokens = i
                                    .kv_reserved_tokens
                                    .saturating_sub(self.trace.requests[req.0 as usize].input_tokens as u64 + self.trace.requests[req.0 as usize].output_tokens as u64);
                                emptied = i.is_empty();
                            } else {
                                i.batch.push(req);
                            }
                        }
                        if self.reqs[req.0 as usize].is_done() {
                            self.completed += 1;
                            self.tel.metrics.inc(self.tm.c_completed, 1);
                            self.tel_req_done(req, q.now());
                        } else {
                            self.tel_begin_phase(
                                req,
                                SpanKind::DecodeRound,
                                "decode",
                                q.now(),
                            );
                        }
                        self.kick(inst, &mut q);
                        sched.on_progress(&mut self, inst, &mut q);
                        if emptied {
                            sched.on_idle(&mut self, inst, &mut q);
                        }
                    }
                    BTag::Step { inst } => {
                        let inst = inst as usize;
                        let now = q.now();
                        let batch = self.insts[inst].batch.clone();
                        let mut finished: Vec<RequestId> = Vec::new();
                        for req in batch {
                            let rs = &mut self.reqs[req.0 as usize];
                            rs.push_token(now);
                            self.touched.mark(req.0 as usize);
                            if rs.is_done() {
                                finished.push(req);
                            }
                        }
                        {
                            let i = &mut self.insts[inst];
                            i.busy = false;
                            for req in &finished {
                                i.batch.retain(|r| r != req);
                            }
                        }
                        for req in &finished {
                            let ctx = self.final_ctx(*req);
                            self.insts[inst].kv_reserved_tokens = self.insts[inst]
                                .kv_reserved_tokens
                                .saturating_sub(ctx);
                            self.completed += 1;
                            self.tel.metrics.inc(self.tm.c_completed, 1);
                            self.tel_req_done(*req, now);
                        }
                        let emptied = self.insts[inst].is_empty();
                        self.kick(inst, &mut q);
                        sched.on_progress(&mut self, inst, &mut q);
                        if emptied {
                            sched.on_idle(&mut self, inst, &mut q);
                        }
                    }
                }
            }
            if let Some(a) = auditor.as_deref_mut() {
                a.after_event(q.now(), &self);
                self.touched.clear();
            }
            // Telemetry sampling happens here in the dispatch loop, never as
            // a queue event: the sample boundaries are derived from the
            // popped timestamp, so the run is bit-identical either way.
            while let Some(at) = self.tel.sample_due(t) {
                self.tel_poll(at);
            }
        }
        let report = auditor.map(|mut a| {
            a.at_finish(q.now(), &self);
            a.take_report()
        });
        if let Some(rep) = &report {
            self.tel
                .metrics
                .set_counter(self.tm.c_audit_checks, rep.events_checked);
            self.tel
                .metrics
                .set_counter(self.tm.c_audit_violations, rep.violations.len() as u64);
        }
        (self.finish(&q), report)
    }

    fn finish(mut self, q: &Qq) -> BaselineResult {
        let outcomes = self
            .trace
            .requests
            .iter()
            .map(|r| {
                let rs = &self.reqs[r.id.0 as usize];
                RequestOutcome {
                    id: r.id,
                    model: r.model,
                    arrival: rs.arrival,
                    token_times: rs.token_times.clone(),
                    target_tokens: r.output_tokens,
                }
            })
            .collect();
        let gpu_busy = self
            .topo
            .gpu_ids()
            .map(|g| {
                self.fabric
                    .stream_compute_busy(self.topo.gpu(g).default_stream)
                    .as_secs_f64()
            })
            .collect();
        self.tel
            .metrics
            .set_counter(self.tm.c_events_dispatched, q.events_dispatched());
        self.tel
            .metrics
            .set_counter(self.tm.c_rejected, self.rejected as u64);
        self.tel.finish(q.now());
        BaselineResult {
            outcomes,
            horizon: self.trace.horizon,
            end_time: q.now(),
            completed: self.completed,
            total_requests: self.trace.len(),
            rejected: self.rejected,
            switches: self.insts.iter().map(|i| i.switches).sum(),
            gpu_busy,
            util_samples: self.util_samples,
            telemetry: self.tel,
        }
    }
}

/// Read-only audit facade: the baselines share the same invariant suite as
/// Aegaeon (request conservation, token order, link conservation). KV here
/// is token-count reservations rather than block books, so the memory deep
/// check does not apply.
impl AuditView for World {
    fn completed_counter(&self) -> u64 {
        self.completed as u64
    }

    fn rejected_counter(&self) -> u64 {
        self.rejected as u64
    }

    fn request_count(&self) -> usize {
        self.reqs.len()
    }

    fn request(&self, i: usize) -> ReqAudit<'_> {
        let r = &self.reqs[i];
        ReqAudit {
            produced: r.produced,
            target: r.target_tokens,
            done: r.is_done(),
            token_times: &r.token_times,
        }
    }

    fn touched(&self) -> &[usize] {
        self.touched.as_slice()
    }

    fn link_audit(&self) -> Option<String> {
        for l in 0..self.fabric.link_count() {
            if let Some(e) = self.fabric.link(LinkId(l as u32)).audit() {
                return Some(e);
            }
        }
        None
    }
}
