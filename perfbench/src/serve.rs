//! `serve_mixed`: open-loop multi-tenant traffic into one `PlanService`.
//!
//! One generator thread sends Poisson arrivals at [`RATE`] into a
//! `PlanService` over a sequential `TiledBackend` (`optimize_plans` on,
//! otherwise `ServeConfig::default()`), shared by three tenants
//! weighted 1/1/2. The job mix:
//!
//! - ½ client-recorded Leyzorek Figure-11 plans at n=128: half of them
//!   repeat a hot pool of [`HOT`] plans (a quarter of the plan cache),
//!   the rest cycle a cold pool larger than the cache, so they miss;
//! - ¼ convergence-free Bellman–Ford plans at n=64 (long tails that CSE
//!   collapses), cycling a pool larger than the cache;
//! - ¼ registry-app payloads with fresh seeds at n ∈ {64, 128}, which
//!   the service records at admission.
//!
//! Latency runs from each job's due time to its terminal `serve`
//! instant. A closed-loop phase that keeps the service busy gives
//! throughput. Every completed output is compared bit for bit with the
//! client's recording (for app payloads, with a recording made after
//! the measured window).

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use simd2::{Backend, ClosureAlgorithm, Parallelism, PassPipeline, RecoveryStats, TiledBackend};
use simd2_apps::AppKind;
use simd2_mxu::Simd2Unit;
use simd2_serve::{
    CacheStats, JobId, JobSpec, JobStatus, PlanService, ServeConfig, TenantId, TenantQuota,
    TenantStats,
};
use simd2_trace::Tracer;

use crate::apps::{self, Recorded};
use crate::common::{mean, mix, ms_since, quantile, ratio, same_bits, timed_setup, Outcome, Rng};
use crate::layers::{self, DenseWork, TileCounters};
use crate::probe::{ClockSink, Meter, Metered, TimedUnit};
use crate::Args;

/// Open-loop arrivals per second: about a quarter of the capacity the
/// closed-loop phase measures (repeated runs at half of capacity spread
/// wider than the regression bounds).
pub const RATE: f64 = 40.0;
/// Backend workers. The service runs one job at a time on mmos of at
/// most 128×128, where splitting each mmo across spawned workers costs
/// about what it saves and makes every job wait on the slowest CPU; the
/// service records app payloads on a sequential backend as well.
pub const WORKERS: usize = 1;
/// Share of the run spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.7;
/// Reported latency percentile: at [`RATE`] over the open-loop phase of
/// a 25 s run, the highest with at least ten samples beyond it.
const TAIL: f64 = 0.98;
/// Dimension of the client-recorded Figure-11 plans.
pub const PLAN_N: usize = 128;
/// Dimension of the Bellman–Ford plans.
pub const BF_N: usize = 64;
/// Dimensions of registry-app payloads.
const APP_NS: [usize; 2] = [64, 128];
/// Hot Figure-11 plans that repeat.
pub const HOT: usize = 32;
/// Plans per cold pool: more than the 128-entry plan cache holds, so a
/// cold plan is always evicted before it comes round again.
pub const COLD: usize = 136;
/// Share of Figure-11 plan jobs drawn from the hot pool.
const HOT_SHARE: f64 = 0.5;
/// Jobs submitted per closed-loop round.
const CLOSED_BATCH: usize = 32;
/// Untimed closed-loop jobs before measuring, so the plan cache is warm.
const WARMUP_JOBS: usize = 64;
/// Tenants and their scheduler weights.
const TENANTS: [(u32, u32); 3] = [(1, 1), (2, 1), (3, 2)];

/// Client-side recordings every plan job is drawn from.
#[derive(Debug)]
pub struct Pools {
    hot: Vec<Recorded>,
    cold: Vec<Recorded>,
    bf: Vec<Recorded>,
}

fn pool(
    seed: u64,
    tag: u64,
    len: usize,
    n: usize,
    alg: ClosureAlgorithm,
    convergence: bool,
    workers: usize,
) -> Result<Vec<Recorded>, String> {
    let apps = AppKind::all();
    (0..len)
        .map(|i| {
            let s = mix(seed ^ mix(tag << 32 | i as u64));
            apps::record(apps[i % apps.len()], n, s, alg, convergence, workers)
        })
        .collect()
}

/// Records and validates the three plan pools.
///
/// # Errors
///
/// When a recording misses its baseline oracle.
pub fn setup(seed: u64, hot: usize, cold: usize, workers: usize) -> Result<Pools, String> {
    use ClosureAlgorithm::{BellmanFord, Leyzorek};
    Ok(Pools {
        hot: pool(seed, 1, hot, PLAN_N, Leyzorek, true, workers)?,
        cold: pool(seed, 2, cold, PLAN_N, Leyzorek, true, workers)?,
        bf: pool(seed, 3, cold, BF_N, BellmanFord, false, workers)?,
    })
}

/// What one job asks for.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Hot Figure-11 plan `i`.
    Hot(usize),
    /// Cold Figure-11 plan `i`.
    Cold(usize),
    /// Bellman–Ford plan `i`.
    Bf(usize),
    /// A registry-app payload.
    App {
        /// The app.
        app: AppKind,
        /// Its dimension.
        n: usize,
        /// Its input seed.
        seed: u64,
    },
}

/// The seeded job stream.
#[derive(Clone, Debug)]
pub struct Mix {
    rng: Rng,
    cold: usize,
    bf: usize,
}

impl Mix {
    /// The stream for run seed `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed, 0x5e4e),
            cold: 0,
            bf: 0,
        }
    }

    /// The next job: its tenant and what it asks for.
    pub fn next(&mut self, pools: &Pools) -> (TenantId, Kind) {
        let tenant = TenantId(TENANTS[self.rng.below(TENANTS.len())].0);
        let u = self.rng.unit();
        let kind = if u < 0.5 {
            if self.rng.unit() < HOT_SHARE {
                Kind::Hot(self.rng.below(pools.hot.len()))
            } else {
                self.cold += 1;
                Kind::Cold((self.cold - 1) % pools.cold.len())
            }
        } else if u < 0.75 {
            self.bf += 1;
            Kind::Bf((self.bf - 1) % pools.bf.len())
        } else {
            let apps = AppKind::all();
            Kind::App {
                app: apps[self.rng.below(apps.len())],
                n: APP_NS[self.rng.below(APP_NS.len())],
                seed: self.rng.next_u64() >> 1,
            }
        };
        (tenant, kind)
    }
}

impl Pools {
    fn recorded(&self, kind: Kind) -> Option<&Recorded> {
        match kind {
            Kind::Hot(i) => Some(&self.hot[i]),
            Kind::Cold(i) => Some(&self.cold[i]),
            Kind::Bf(i) => Some(&self.bf[i]),
            Kind::App { .. } => None,
        }
    }

    /// The submission for `kind`.
    pub fn spec(&self, kind: Kind) -> JobSpec {
        match (self.recorded(kind), kind) {
            (Some(r), _) => JobSpec::plan(r.plan.clone()),
            (None, Kind::App { app, n, seed }) => JobSpec::app(app, n, seed),
            (None, _) => unreachable!("every plan kind has a recording"),
        }
    }

    /// Every recording, for re-running the oracles.
    fn all(&self) -> impl Iterator<Item = &Recorded> {
        self.hot.iter().chain(&self.cold).chain(&self.bf)
    }
}

/// The backend stack every job runs on.
pub type Stack = Metered<TiledBackend<TimedUnit<Simd2Unit>>>;

/// A service over the stack; `traced` adds timing, spans and the
/// global counters.
pub fn service(workers: usize, traced: bool) -> (PlanService<Stack>, Arc<Meter>, Arc<ClockSink>) {
    let meter = Arc::new(Meter::default());
    let sink = Arc::new(if traced {
        ClockSink::with_spans(meter.clone())
    } else {
        ClockSink::terminal_only()
    });
    let mut tiled = TiledBackend::with_unit(TimedUnit::new(Simd2Unit::new(), traced));
    tiled.set_parallelism(Parallelism::Threads(workers));
    let backend = if traced {
        Metered::timed(tiled.with_tracer(Tracer::to(sink.clone())), meter.clone())
    } else {
        Metered::quiet(tiled)
    };
    let config = ServeConfig {
        optimize_plans: true,
        ..ServeConfig::default()
    };
    let mut svc = PlanService::new(backend, config).with_tracer(Tracer::to(sink.clone()));
    for (id, weight) in TENANTS {
        svc.register_tenant(TenantId(id), TenantQuota::default().with_weight(weight));
    }
    (svc, meter, sink)
}

/// One submission and what became of it.
#[derive(Debug)]
struct Sub {
    kind: Kind,
    due: Option<Instant>,
    job: Option<JobId>,
    submit_ms: f64,
}

/// Drives one service: submissions, drains and output checks.
struct Driver<'a> {
    pools: &'a Pools,
    svc: PlanService<Stack>,
    sink: Arc<ClockSink>,
    subs: Vec<Sub>,
    /// Index into `subs` of each admitted job.
    by_job: HashMap<u64, usize>,
    /// App payloads still to be checked against a fresh recording.
    app_outputs: Vec<(Kind, simd2_matrix::Matrix)>,
}

impl<'a> Driver<'a> {
    fn new(pools: &'a Pools, workers: usize, traced: bool) -> (Self, Arc<Meter>) {
        let (svc, meter, sink) = service(workers, traced);
        (
            Self {
                pools,
                svc,
                sink,
                subs: Vec::new(),
                by_job: HashMap::new(),
                app_outputs: Vec::new(),
            },
            meter,
        )
    }

    fn submit(&mut self, tenant: TenantId, kind: Kind, due: Option<Instant>, out: &mut Outcome) {
        let spec = self.pools.spec(kind);
        let t0 = Instant::now();
        let result = self.svc.submit(tenant, spec);
        let submit_ms = ms_since(t0);
        let job = match result {
            Ok(id) => {
                self.by_job.insert(id.0, self.subs.len());
                Some(id)
            }
            Err(rejected) => {
                out.job(Some(format!("{kind:?} rejected: {rejected:?}")));
                None
            }
        };
        self.subs.push(Sub {
            kind,
            due,
            job,
            submit_ms,
        });
    }

    /// Drains the queues and checks every outcome; returns completions.
    fn drain(&mut self, out: &mut Outcome) -> usize {
        self.svc.run_until_idle();
        let mut completed = 0;
        let outcomes = self.svc.take_outcomes();
        for o in outcomes {
            let Some(&i) = self.by_job.get(&o.job.0) else {
                out.fail(format!("outcome for unknown job {:?}", o.job));
                continue;
            };
            let kind = self.subs[i].kind;
            let err = match &o.status {
                JobStatus::Completed { output, .. } => {
                    completed += 1;
                    match self.pools.recorded(kind) {
                        Some(r) if same_bits(output, &r.expected) => None,
                        Some(_) => Some(format!("{kind:?}: output differs from the recording")),
                        None => {
                            self.app_outputs.push((kind, output.clone()));
                            None
                        }
                    }
                }
                other => Some(format!("{kind:?}: {}", other.label())),
            };
            out.job(err);
        }
        completed
    }

    /// Checks app-payload outputs against fresh client-side recordings.
    fn check_apps(&mut self, workers: usize, out: &mut Outcome) {
        for (kind, output) in self.app_outputs.drain(..) {
            let Kind::App { app, n, seed } = kind else {
                continue;
            };
            let err = match apps::record(app, n, seed, ClosureAlgorithm::Leyzorek, true, workers) {
                Ok(r) if same_bits(&output, &r.expected) => continue,
                Ok(_) => format!("{kind:?}: output differs from a client recording"),
                Err(e) => e,
            };
            out.fail(err);
        }
    }

    /// Submits rounds of jobs and drains them until `budget` passes;
    /// returns completed jobs per second.
    fn closed_loop(&mut self, mix: &mut Mix, budget: Duration, out: &mut Outcome) -> f64 {
        let t0 = Instant::now();
        let mut completed = 0;
        while t0.elapsed() < budget {
            for _ in 0..CLOSED_BATCH {
                let (tenant, kind) = mix.next(self.pools);
                self.submit(tenant, kind, None, out);
            }
            completed += self.drain(out);
        }
        ratio(completed as f64, t0.elapsed().as_secs_f64())
    }

    /// Poisson arrivals at `rate` for `budget`, sent by a generator
    /// thread and served as they come. Returns the generator's lag
    /// behind each due time, in ms, and the index of the first
    /// submission of this phase.
    ///
    /// Both threads spin rather than sleep or block: on a virtual
    /// machine a halted CPU can take milliseconds to wake, which would
    /// be measured as service latency. The service is sequential, so the
    /// two threads need two CPUs.
    fn open_loop(
        &mut self,
        mix: &mut Mix,
        rate: f64,
        budget: Duration,
        out: &mut Outcome,
    ) -> (Vec<f64>, usize) {
        let mut schedule = Vec::new();
        let mut at = 0.0;
        loop {
            at += -(1.0 - mix.rng.unit()).ln() / rate;
            if at >= budget.as_secs_f64() {
                break;
            }
            let (tenant, kind) = mix.next(self.pools);
            schedule.push((Duration::from_secs_f64(at), tenant, kind));
        }
        let first = self.subs.len();
        let (tx, rx) = mpsc::channel::<(Instant, TenantId, Kind)>();
        let start = Instant::now();
        let lag = std::thread::scope(|s| {
            let generator = s.spawn(move || {
                let mut lag = Vec::with_capacity(schedule.len());
                for (offset, tenant, kind) in schedule {
                    let due = start + offset;
                    while Instant::now() < due {
                        std::hint::spin_loop();
                    }
                    lag.push(ms_since(due));
                    if tx.send((due, tenant, kind)).is_err() {
                        break;
                    }
                }
                lag
            });
            loop {
                match rx.try_recv() {
                    Ok((due, tenant, kind)) => {
                        self.submit(tenant, kind, Some(due), out);
                        while let Ok((due, tenant, kind)) = rx.try_recv() {
                            self.submit(tenant, kind, Some(due), out);
                        }
                        self.drain(out);
                    }
                    Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
                    Err(mpsc::TryRecvError::Disconnected) => break,
                }
            }
            generator.join().expect("the arrival generator panicked")
        });
        (lag, first)
    }

    /// Latency (ms) from due time to terminal instant of each open-loop
    /// submission from `first` on; `None` for jobs that never finished.
    fn latencies(&self, first: usize) -> Vec<Option<f64>> {
        self.subs[first..]
            .iter()
            .map(|s| {
                let (due, job) = (s.due?, s.job?);
                let done = self.sink.terminal_at(job.0)?;
                Some(done.duration_since(due).as_secs_f64() * 1e3)
            })
            .collect()
    }
}

/// A traced service's counters, read before and after a window.
struct Counters {
    work: DenseWork,
    recovery: RecoveryStats,
    cache: CacheStats,
    submitted: u64,
    rejected: u64,
    expired: u64,
}

impl Driver<'_> {
    fn counters(&self, meter: &Meter) -> Counters {
        let metered = self.svc.resilient().inner();
        let unit = metered.inner().unit();
        let tenants: Vec<TenantStats> = TENANTS
            .iter()
            .filter_map(|(id, _)| self.svc.tenant_stats(TenantId(*id)))
            .collect();
        let sum = |f: fn(&TenantStats) -> u64| tenants.iter().map(f).sum();
        Counters {
            work: DenseWork {
                meter: meter.totals(),
                unit_calls: unit.calls(),
                unit_busy_ns: unit.busy_ns(),
                ops: metered.op_count(),
                counters: TileCounters::now(),
            },
            recovery: self.svc.recovery_stats(),
            cache: self.svc.cache_stats(),
            submitted: sum(|s| s.submitted),
            rejected: sum(TenantStats::rejected),
            expired: sum(|s| s.expired),
        }
    }
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut Outcome) {
    let (pools, setup_s) = timed_setup(|| setup(args.seed, HOT, COLD, WORKERS));
    let pools = match pools {
        Ok(p) => p,
        Err(e) => return out.fail(e),
    };
    let mut mix = Mix::new(args.seed);
    if !args.trace {
        let (mut d, _) = Driver::new(&pools, WORKERS, false);
        for _ in 0..WARMUP_JOBS {
            let (tenant, kind) = mix.next(&pools);
            d.submit(tenant, kind, None, out);
        }
        d.drain(out);
        let (_, first) = d.open_loop(&mut mix, RATE, args.budget(OPEN_SHARE), out);
        let lat = d.latencies(first);
        let jobs_per_s = d.closed_loop(&mut mix, args.budget(1.0 - OPEN_SHARE), out);
        d.check_apps(WORKERS, out);
        let slo = args.slo_ms("serve_mixed");
        let done: Vec<f64> = lat.iter().flatten().copied().collect();
        out.set("setup_s", setup_s);
        out.set("jobs_per_s", jobs_per_s);
        out.set("job_p50_ms", quantile(&done, 0.5));
        out.set("job_tail_ms", quantile(&done, TAIL));
        out.set(
            "slo_attain",
            ratio(
                lat.iter().filter(|l| l.is_some_and(|l| l <= slo)).count() as f64,
                lat.len() as f64,
            ),
        );
        crate::note_latency("open-loop job latency", &done, TAIL);
        return;
    }

    let (mut plain, _) = Driver::new(&pools, WORKERS, false);
    // Both closed-loop phases serve the same job sequence from a cold
    // service, so their ratio is the tracing overhead.
    let mut traced_mix = mix.clone();
    let untraced = plain.closed_loop(&mut mix, args.budget(0.2), out);
    plain.check_apps(WORKERS, out);
    let (mut d, meter) = Driver::new(&pools, WORKERS, true);
    let traced = d.closed_loop(&mut traced_mix, args.budget(0.2), out);

    // Everything below covers the traced open-loop phase only.
    let before = d.counters(&meter);
    d.sink.take_plans();
    let (lag, first) = d.open_loop(&mut traced_mix, RATE, args.budget(0.6), out);
    let after = d.counters(&meter);
    let plans = d.sink.take_plans();
    let jobs = (after.submitted - before.submitted) as f64;
    let work = after.work.since(&before.work);
    layers::check_tile_counts(&work, out);
    let (tile_ns, quantize_ns) = layers::semiring_tile_ns(&work.meter.tiles, args.seed);
    out.set("semiring.mmo_tile_ns", tile_ns);
    out.set("semiring.quantize_tile_ns", quantize_ns);
    layers::report_dense(out, &work, jobs, WORKERS, tile_ns);
    layers::report_plans(out, &plans, jobs);
    let per_job = |x: u64| ratio(x as f64, jobs);
    let (r0, r1) = (before.recovery, after.recovery);
    out.set(
        "core.resilient.verified",
        per_job(r1.verified - r0.verified),
    );
    out.set("core.resilient.retries", per_job(r1.retries - r0.retries));
    out.set(
        "core.resilient.fallbacks",
        per_job(r1.fallbacks - r0.fallbacks),
    );
    let hits = after.cache.hits - before.cache.hits;
    let misses = after.cache.misses - before.cache.misses;
    out.set(
        "serve.cache_hit_frac",
        ratio(hits as f64, (hits + misses) as f64),
    );
    out.set("serve.rejected", per_job(after.rejected - before.rejected));
    out.set("serve.expired", per_job(after.expired - before.expired));

    let subs = &d.subs[first..];
    let submit_ms = |plan: bool| {
        let v: Vec<f64> = subs
            .iter()
            .filter(|s| matches!(s.kind, Kind::App { .. }) != plan)
            .map(|s| s.submit_ms)
            .collect();
        mean(&v)
    };
    out.set("serve.submit_plan_ms", submit_ms(true));
    out.set("serve.submit_app_ms", submit_ms(false));
    let mut waits = Vec::new();
    for s in subs {
        let Some(job) = s.job else { continue };
        let (Some(admitted), Some(done)) = (d.sink.admitted_at(job.0), d.sink.terminal_at(job.0))
        else {
            continue;
        };
        let started = plans
            .iter()
            .find(|p| p.job == Some(job.0))
            .map_or(done, |p| p.begin);
        waits.push(started.saturating_duration_since(admitted).as_secs_f64() * 1e3);
    }
    out.set("serve.queue_wait_ms", mean(&waits));
    let run_ms: Vec<f64> = plans.iter().map(|p| p.ns as f64 / 1e6).collect();
    let overhead: Vec<f64> = plans
        .iter()
        .map(|p| p.ns.saturating_sub(p.backend_ns) as f64 / 1e6)
        .collect();
    out.set("serve.run_ms", mean(&run_ms));
    out.set("serve.replay_overhead_ms", mean(&overhead));

    // Pass costs, re-measured client-side on the plan payloads served.
    let (mut pass_ms, mut before_steps, mut after_steps, mut merged) = (0.0, 0, 0, 0);
    let plan_subs: Vec<&Recorded> = subs.iter().filter_map(|s| pools.recorded(s.kind)).collect();
    for r in &plan_subs {
        let t0 = Instant::now();
        let optimized = PassPipeline::serving().run(r.plan.clone());
        pass_ms += ms_since(t0);
        let report = optimized.report();
        before_steps += report.steps_before;
        after_steps += report.steps_after;
        merged += report.steps_merged;
    }
    let n_plans = plan_subs.len() as f64;
    out.set("core.passes.run_ms", ratio(pass_ms, n_plans));
    out.set(
        "core.passes.steps_before",
        ratio(before_steps as f64, n_plans),
    );
    out.set(
        "core.passes.steps_after",
        ratio(after_steps as f64, n_plans),
    );
    out.set("core.passes.merged", ratio(merged as f64, n_plans));

    d.check_apps(WORKERS, out);
    let baseline: f64 = pools
        .all()
        .map(|r| apps::baseline_ms(r.app, r.n, r.seed))
        .sum();
    out.set("apps.baseline_ms", baseline);
    out.set("apps.record_ms", (setup_s * 1e3 - baseline).max(0.0));
    out.set("harness.gen_lag_p99_ms", quantile(&lag, 0.99));
    crate::note_latency("generator lag", &lag, 0.99);
    out.set("harness.trace_overhead_frac", ratio(untraced, traced) - 1.0);
    out.set("harness.traced_jobs", jobs);
    out.set("harness.workers", WORKERS as f64);
}
