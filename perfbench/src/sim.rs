//! The two simulator workloads. `sim_cluster_faults` spends its wall time
//! inside `Engine::run` (the simulated Klotski engine); `sim_continuous_serve`
//! spends all of it in the serving loop and never calls an engine.
//!
//! Both are open loops in simulated time at a fixed rate below saturation.
//! Their simulated-time results are deterministic under the seed; the wall
//! time of each serve call is the simulator's own speed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use klotski_core::engine::{KlotskiConfig, KlotskiEngine};
use klotski_core::report::InferenceReport;
use klotski_core::scenario::{Engine, EngineError, Scenario};
use klotski_model::hardware::HardwareSpec;
use klotski_model::spec::ModelSpec;
use klotski_model::workload::Workload;
use klotski_serve::admission::AdmissionPolicy;
use klotski_serve::cluster::{
    serve_cluster_faulty, ClusterConfig, ColdStartModel, FaultPlan, FaultScenario,
    QueueDepthReactive, ToleranceConfig,
};
use klotski_serve::continuous::{serve_continuous, ClassAssign, ContinuousConfig, CostEngine};
use klotski_serve::dispatcher::DispatchPolicy;
use klotski_serve::metrics::{summarize, SloSpec, SloSummary};
use klotski_serve::server::{RequestOutcome, ServeConfig, ServeReport, Traffic};
use klotski_serve::traffic::{generate, Arrivals, LengthDist, Request, TrafficConfig};
use klotski_sim::time::SimDuration;

use crate::trace::Tracer;
use crate::{median, peak_rss_mib, process_cpu_s, Args, Digest, Outcome};

/// Before the first serve call and after every one, set-up is repeated
/// until it has used this much CPU time (at least once); the median over
/// all repetitions is reported, so it covers the same stretch of the run
/// as the serve calls. Set-up here takes microseconds to milliseconds, so
/// one sample would mostly measure cache and scheduler noise.
const SETUP_CPU_S: f64 = 0.05;

/// Second-half over first-half median TTFT above which the backlog is
/// taken to be growing: the rate is then above what the system sustains.
const MAX_TTFT_GROWTH: f64 = 2.0;

/// What one serve call produced, reduced to what the benchmark reports.
struct Served {
    report: ServeReport,
    preemptions: u32,
    refills: u32,
    prefill_chunks: u32,
    occupancy: f64,
    retries: u32,
    hedges: u32,
    wasted_busy_s: f64,
    peak_provisioned: u32,
}

/// One simulator workload: traffic, fleet and the serve entry point.
trait SimWorkload {
    /// Set-up the serve call needs besides the engine: traffic and, for
    /// the cluster, the fault plan.
    fn setup(&mut self, seed: u64, cheap: bool) -> Vec<Request>;
    fn engine(&self) -> Box<dyn Engine>;
    fn serve(&self, engine: &dyn Engine, traffic: &Traffic) -> Served;
    fn slo(&self) -> SloSpec;
}

struct ClusterFaults {
    plan: FaultPlan,
}

const CLUSTER_RATE: f64 = 0.8;

impl SimWorkload for ClusterFaults {
    fn setup(&mut self, seed: u64, cheap: bool) -> Vec<Request> {
        let stream = generate(
            Arrivals::Poisson { rate: CLUSTER_RATE },
            &TrafficConfig {
                num_requests: if cheap { 200 } else { 4800 },
                prompt: LengthDist::Uniform { lo: 64, hi: 160 },
                gen: LengthDist::Uniform { lo: 2, hi: 8 },
                seed,
            },
        );
        // The faults of the `serve_faults` mid tier (two crashes, one
        // straggler window and one stalled cold start) once per 1200
        // requests, spread over the arrival span so faults hit a loaded
        // fleet. That is a fifth of the bin's density (once per 240
        // requests), at which retry_health drops requests on some seeds
        // (19 per call on seed 507), and the workload must fail nothing.
        let tiers = (stream.len() as u32).div_ceil(1200);
        let horizon = stream.last().map_or(SimDuration::from_secs(1), |r| {
            r.arrival.saturating_since(klotski_sim::time::SimTime::ZERO)
        });
        self.plan = FaultPlan::generate(&FaultScenario {
            seed: seed ^ 0x5eed_fa17,
            horizon,
            crashes: 2 * tiers,
            restart_after: Some(SimDuration::from_secs(30)),
            degraded: tiers,
            slowdown_pct: 300,
            degrade_width: SimDuration::from_secs(60),
            coldstart_stalls: tiers,
            coldstart_stall: SimDuration::from_secs(10),
            coldstart_fails: 0,
        });
        stream
    }

    fn engine(&self) -> Box<dyn Engine> {
        Box::new(KlotskiEngine::new(KlotskiConfig::full()))
    }

    fn serve(&self, engine: &dyn Engine, traffic: &Traffic) -> Served {
        let slo = self.slo();
        let cfg = ClusterConfig {
            serve: ServeConfig {
                batch_size: 8,
                policy: AdmissionPolicy::Deadline {
                    n: 8,
                    deadline: slo.ttft / 6,
                },
                seed: 2025,
            },
            dispatch: DispatchPolicy::JoinShortestQueue,
            coldstart: ColdStartModel::Fixed(SimDuration::from_secs(20)),
            tick: SimDuration::from_secs(15),
            slo,
        };
        let report = serve_cluster_faulty(
            engine,
            &ModelSpec::mixtral_8x7b(),
            &HardwareSpec::env1_rtx3090(),
            traffic,
            &cfg,
            &mut QueueDepthReactive::new(2, 4, 1600, 400, 2),
            &self.plan,
            &ToleranceConfig::default(),
        )
        .expect("serve_cluster_faulty");
        Served {
            preemptions: 0,
            refills: 0,
            prefill_chunks: 0,
            occupancy: 0.0,
            retries: report.faults.retries,
            hedges: report.faults.hedges,
            wasted_busy_s: report.faults.wasted_busy.as_secs_f64(),
            peak_provisioned: report.peak_provisioned,
            report: report.serve,
        }
    }

    fn slo(&self) -> SloSpec {
        SloSpec {
            ttft: SimDuration::from_secs(150),
            tpot: SimDuration::from_secs(8),
        }
    }
}

struct ContinuousServe;

/// Bursty arrivals below the rate the slot machine sustains.
const CONTINUOUS_RATE: f64 = 0.1;

impl SimWorkload for ContinuousServe {
    fn setup(&mut self, seed: u64, cheap: bool) -> Vec<Request> {
        generate(
            Arrivals::Bursty {
                rate: CONTINUOUS_RATE,
                burst: 8,
            },
            &TrafficConfig {
                num_requests: if cheap { 2_000 } else { 200_000 },
                prompt: LengthDist::HeavyTail {
                    lo: 32,
                    hi: 128,
                    heavy: 1024,
                    heavy_pct: 15,
                },
                gen: LengthDist::HeavyTail {
                    lo: 2,
                    hi: 8,
                    heavy: 64,
                    heavy_pct: 25,
                },
                seed,
            },
        )
    }

    fn engine(&self) -> Box<dyn Engine> {
        Box::new(CostEngine::new(
            &ModelSpec::mixtral_8x7b(),
            &HardwareSpec::env1_rtx3090(),
        ))
    }

    fn serve(&self, engine: &dyn Engine, traffic: &Traffic) -> Served {
        let report = serve_continuous(
            engine,
            &ModelSpec::mixtral_8x7b(),
            &HardwareSpec::env1_rtx3090(),
            traffic,
            &ContinuousConfig {
                serve: ServeConfig {
                    batch_size: 8,
                    policy: AdmissionPolicy::Deadline {
                        n: 4,
                        deadline: SimDuration::from_secs(2),
                    },
                    seed: 2025,
                },
                refill: true,
                prefill_chunk: 64,
                classes: ClassAssign::ChatShare { chat_pct: 30 },
            },
        )
        .expect("serve_continuous");
        Served {
            preemptions: report.preemptions,
            refills: report.refills,
            prefill_chunks: report.prefill_chunks,
            occupancy: report.occupancy,
            retries: 0,
            hedges: 0,
            wasted_busy_s: 0.0,
            peak_provisioned: 1,
            report: report.serve,
        }
    }

    fn slo(&self) -> SloSpec {
        SloSpec {
            ttft: SimDuration::from_secs(60),
            tpot: SimDuration::from_secs(10),
        }
    }
}

pub fn run_cluster(args: &Args) -> Outcome {
    run(
        args,
        &mut ClusterFaults {
            plan: FaultPlan::none(),
        },
    )
}

pub fn run_continuous(args: &Args) -> Outcome {
    run(args, &mut ContinuousServe)
}

/// Wraps the engine handed to the serve call: times every `Engine::run`
/// as a span and records what the engine was asked to do. Every serve
/// entry point takes `&dyn Engine`, so the program is not touched.
struct TracedEngine<'a> {
    inner: &'a dyn Engine,
    tracer: &'a RefCell<Tracer>,
    /// Every run's group shape and simulated bubble fraction, in call order.
    runs: RefCell<Vec<(Workload, f64)>>,
}

impl Engine for TracedEngine<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn run(&self, scenario: &Scenario) -> Result<InferenceReport, EngineError> {
        let id = self.tracer.borrow_mut().enter("engine.run");
        let out = self.inner.run(scenario);
        self.tracer.borrow_mut().exit(id);
        let bubble = out.as_ref().map_or(0.0, InferenceReport::bubble_fraction);
        self.runs.borrow_mut().push((scenario.workload, bubble));
        out
    }
}

/// Every request id resolved exactly once, in id order.
fn resolved_exactly_once(outcomes: &[RequestOutcome], n: usize) -> bool {
    outcomes.len() == n && outcomes.iter().enumerate().all(|(i, o)| o.id == i as u64)
}

/// Median simulated TTFT of the later half of the arrivals over that of
/// the earlier half; a growing backlog shows as a ratio well above 1.
fn ttft_growth(outcomes: &[RequestOutcome]) -> f64 {
    let ttft = |os: &[RequestOutcome]| {
        median(
            &os.iter()
                .filter(|o| !o.failed)
                .map(|o| o.ttft().as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let (first, second) = outcomes.split_at(outcomes.len() / 2);
    let base = ttft(first);
    if base > 0.0 {
        ttft(second) / base
    } else {
        0.0
    }
}

fn same_report(a: &ServeReport, b: &ServeReport) -> bool {
    a.outcomes == b.outcomes
        && a.groups == b.groups
        && a.replicas == b.replicas
        && a.makespan == b.makespan
}

/// Repeats set-up until it has used `SETUP_CPU_S` of CPU time (at least
/// once), pushing each repetition's CPU seconds onto `setup_s`, and
/// returns the last repetition's traffic and engine. Each earlier
/// repetition's are dropped after its timing ends.
fn setup_reps(
    w: &mut dyn SimWorkload,
    args: &Args,
    tracer: &RefCell<Tracer>,
    setup_s: &mut Vec<f64>,
) -> (Vec<Request>, Box<dyn Engine>) {
    let mut spent = 0.0;
    loop {
        let cpu = process_cpu_s();
        let id = tracer.borrow_mut().enter("serve.traffic_gen");
        let stream = w.setup(args.seed, args.cheap);
        tracer.borrow_mut().exit(id);
        let engine = w.engine();
        let s = process_cpu_s() - cpu;
        setup_s.push(s);
        spent += s;
        if spent >= SETUP_CPU_S {
            return (stream, engine);
        }
    }
}

fn run(args: &Args, w: &mut dyn SimWorkload) -> Outcome {
    let tracer = RefCell::new(Tracer::new(
        args.trace,
        format!("{}-seed{}", args.workload, args.seed),
    ));
    let span = |name| tracer.borrow_mut().enter(name);
    let exit = |id| tracer.borrow_mut().exit(id);
    // Set-up: traffic (and fault plan) generation plus engine
    // construction, in CPU seconds.
    let mut setup_s: Vec<f64> = Vec::new();
    let (stream, engine) = setup_reps(w, args, &tracer, &mut setup_s);
    let n = stream.len();
    let traffic = Traffic::Open(stream);
    let traced = TracedEngine {
        inner: engine.as_ref(),
        tracer: &tracer,
        runs: RefCell::new(Vec::new()),
    };
    // The traced run hands the serve call the wrapper; the untraced run
    // hands it the engine itself.
    let target: &dyn Engine = if args.trace { &traced } else { engine.as_ref() };

    let mut walls: Vec<f64> = Vec::new();
    let mut cpus: Vec<f64> = Vec::new();
    let mut first: Option<Served> = None;
    let mut all_equal = true;
    let loop_start = Instant::now();
    while walls.is_empty() || loop_start.elapsed().as_secs_f64() < args.seconds {
        let id = span("serve.call");
        let cpu = process_cpu_s();
        let t = Instant::now();
        let served = w.serve(target, black_box(&traffic));
        walls.push(t.elapsed().as_secs_f64());
        cpus.push(process_cpu_s() - cpu);
        exit(id);
        match &first {
            None => first = Some(served),
            Some(f) => all_equal &= same_report(&f.report, &served.report),
        }
        drop(setup_reps(w, args, &tracer, &mut setup_s));
    }
    let calls = walls.len();
    let served = first.expect("at least one serve call");
    let report = &served.report;

    let id = span("serve.summarize");
    let summary: SloSummary = summarize(report, &w.slo());
    exit(id);
    let exactly_once = resolved_exactly_once(&report.outcomes, n);
    let growth = ttft_growth(&report.outcomes);
    let failed_per_call = report.outcomes.iter().filter(|o| o.failed).count() as u64;
    let correct = exactly_once && all_equal && growth <= MAX_TTFT_GROWTH;
    let rates: Vec<f64> = walls.iter().map(|s| n as f64 / s).collect();
    let cpu_ms: Vec<f64> = cpus.iter().map(|s| s * 1e3 / n as f64).collect();
    let attainment = summary.slo_met as f64 / summary.requests.max(1) as f64;
    let mut digest = Digest::default();
    for o in &report.outcomes {
        for x in [
            o.id,
            o.arrival.as_nanos(),
            o.dispatched.as_nanos(),
            o.first_token.as_nanos(),
            o.finished.as_nanos(),
            u64::from(o.gen_len),
            u64::from(o.replica),
            u64::from(o.failed),
        ] {
            digest.add(x);
        }
    }
    let mut notes = vec![format!(
        "{}: {} serve calls of {} requests, median {:.0} req/wall-s, {:.5} CPU-ms per request; \
         resolved exactly once: {}, \
         calls identical: {}, TTFT growth {:.3} (limit {}), dropped {}, shed {}, failed {}; \
         simulated: goodput {:.3} tok/s, TTFT p50 {:.3} s p99 {:.3} s, TPOT p99 {:.3} s, \
         SLO attainment {:.4}, replica-hours {:.4}",
        args.workload,
        calls,
        n,
        median(&rates),
        median(&cpu_ms),
        exactly_once,
        all_equal,
        growth,
        MAX_TTFT_GROWTH,
        summary.dropped,
        summary.shed,
        failed_per_call,
        summary.goodput_tps,
        summary.ttft.p50.as_secs_f64(),
        summary.ttft.p99.as_secs_f64(),
        summary.tpot.p99.as_secs_f64(),
        attainment,
        report.replica_hours(),
    )];
    notes.push(digest.line());

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if args.trace {
        let t = tracer.borrow();
        let totals = t.totals();
        let get = |name: &str| totals.get(name).copied().unwrap_or_default();
        let run = get("engine.run");
        let call = get("serve.call");
        let per_call = |x: f64| x / calls as f64;
        values.insert("engine.run_calls", per_call(run.count as f64));
        values.insert("engine.run_ms", per_call(run.total_s() * 1e3));
        if call.total_ns > 0 {
            values.insert("engine.run_share", run.total_s() / call.total_s());
        }
        // Every serve call makes the same engine runs; report the first's.
        let runs = traced.runs.borrow();
        let first_call = &runs[..runs.len() / calls];
        if !first_call.is_empty() {
            values.insert(
                "engine.sim_bubble_frac",
                first_call.iter().map(|r| r.1).sum::<f64>() / first_call.len() as f64,
            );
        }
        values.insert("serve.loop_self_s", per_call(call.self_s()));
        let traffic_gen = get("serve.traffic_gen");
        values.insert(
            "serve.traffic_gen_s",
            traffic_gen.total_s() / traffic_gen.count as f64,
        );
        values.insert("serve.summarize_s", get("serve.summarize").total_s());
        values.insert("sim.req_per_wall_s", median(&rates));
        values.insert("trace.cpu_ms_per_item", median(&cpu_ms));
        drop(t);
        values.insert(
            "model.scenario_gen_ms",
            scenario_gen_ms(first_call, &tracer),
        );
        insert_sim_counts(&mut values, &served, &summary, attainment, growth);
        if let Err(e) = tracer
            .borrow()
            .write(std::path::Path::new(crate::TRACE_DIR))
        {
            eprintln!("perfbench: could not write spans: {e}");
        }
    } else {
        values.insert("cpu_ms_per_item", median(&cpu_ms));
        values.insert("setup_s", median(&setup_s));
        values.insert("peak_rss_mib", peak_rss_mib());
    }
    Outcome {
        correct,
        attempted: (n * calls) as u64,
        failed: failed_per_call * calls as u64,
        values,
        notes,
    }
}

/// Replays `Scenario::generate` over the group shapes the engine was
/// asked to run (a control: no serving change should move it). Mean
/// milliseconds per group; zero when the engine was never called.
fn scenario_gen_ms(runs: &[(Workload, f64)], tracer: &RefCell<Tracer>) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    let spec = ModelSpec::mixtral_8x7b();
    let hw = HardwareSpec::env1_rtx3090();
    for (i, (wl, _)) in runs.iter().enumerate() {
        let id = tracer.borrow_mut().enter("model.scenario_gen");
        black_box(Scenario::generate(spec.clone(), hw.clone(), *wl, i as u64));
        tracer.borrow_mut().exit(id);
    }
    let t = tracer.borrow().totals_of("model.scenario_gen");
    t.total_s() * 1e3 / runs.len() as f64
}

fn insert_sim_counts(
    v: &mut BTreeMap<&'static str, f64>,
    served: &Served,
    s: &SloSummary,
    attainment: f64,
    growth: f64,
) {
    let report = &served.report;
    let generated: u64 = report
        .outcomes
        .iter()
        .filter(|o| !o.failed)
        .map(|o| u64::from(o.gen_len))
        .sum();
    v.insert("serve.groups", report.groups.len() as f64);
    v.insert("serve.mean_queue_delay_s", s.mean_queue_delay.as_secs_f64());
    v.insert("serve.refills", f64::from(served.refills));
    v.insert("serve.preemptions", f64::from(served.preemptions));
    v.insert("serve.prefill_chunks", f64::from(served.prefill_chunks));
    v.insert("serve.occupancy", served.occupancy);
    v.insert("serve.retries", f64::from(served.retries));
    v.insert("serve.dropped", s.dropped as f64);
    v.insert("serve.shed", s.shed as f64);
    v.insert("serve.hedges", f64::from(served.hedges));
    v.insert("serve.wasted_busy_s", served.wasted_busy_s);
    if generated > 0 {
        v.insert(
            "serve.retry_token_frac",
            s.retry_tokens as f64 / generated as f64,
        );
    }
    v.insert("serve.peak_provisioned", f64::from(served.peak_provisioned));
    v.insert("sim.goodput_tok_per_s", s.goodput_tps);
    v.insert("sim.ttft_p50_s", s.ttft.p50.as_secs_f64());
    v.insert("sim.ttft_p99_s", s.ttft.p99.as_secs_f64());
    v.insert("sim.tpot_p99_s", s.tpot.p99.as_secs_f64());
    v.insert("sim.slo_attainment", attainment);
    v.insert("sim.replica_hours", report.replica_hours());
    v.insert("sim.ttft_growth", growth);
}
