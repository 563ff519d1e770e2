//! `fig11_dense`: closed-loop replays of the eight Table-4 apps.
//!
//! A job is one `PlanExecutor::run` of a recorded app plan at n=384 on
//! `TiledBackend` with one worker per CPU; jobs cycle through
//! [`INPUTS_PER_APP`] recorded inputs of each app, and each output is
//! compared bit for bit with the closure the recording produced.

use std::sync::Arc;

use simd2::{Backend, ClosureAlgorithm, Parallelism, PlanExecutor, TiledBackend};
use simd2_apps::AppKind;
use simd2_mxu::Simd2Unit;
use simd2_trace::Tracer;

use crate::apps::{self, Recorded};
use crate::common::{
    closed_loop, mean, ratio, report_closed_loop, same_bits, timed_setup, Outcome,
};
use crate::layers::{self, DenseWork, TileCounters};
use crate::probe::{ClockSink, Meter, Metered, TimedUnit};
use crate::Args;

/// Problem dimension of every app.
pub const N: usize = 384;
/// Recorded inputs per app: more distinct inputs per cycle make a run's
/// statistics depend less on which graphs one seed happens to draw.
pub const INPUTS_PER_APP: usize = 2;

/// The input seed of app `i` in a run seeded `seed`.
fn app_seed(seed: u64, i: usize) -> u64 {
    crate::common::mix(seed.wrapping_mul(16).wrapping_add(i as u64))
}

/// Records and validates `inputs` inputs of each of the eight apps.
///
/// # Errors
///
/// When an app misses its baseline oracle.
pub fn setup(seed: u64, n: usize, inputs: usize, workers: usize) -> Result<Vec<Recorded>, String> {
    let all = AppKind::all();
    (0..inputs * all.len())
        .map(|i| {
            apps::record(
                all[i % all.len()],
                n,
                app_seed(seed, i),
                ClosureAlgorithm::Leyzorek,
                true,
                workers,
            )
        })
        .collect()
}

/// Replays one job and checks its output.
pub fn job<B: Backend>(exec: &PlanExecutor, app: &Recorded, backend: &mut B) -> Option<String> {
    match exec.run(&app.plan, backend) {
        Ok(replay) => match replay.final_output() {
            Some(d) if same_bits(d, &app.expected) => None,
            _ => Some(format!(
                "{:?}: replay output differs from the recording",
                app.app
            )),
        },
        Err(e) => Some(format!("{:?}: replay failed: {e}", app.app)),
    }
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut Outcome) {
    let workers = crate::common::workers();
    let (apps, setup_s) = timed_setup(|| setup(args.seed, N, INPUTS_PER_APP, workers));
    let apps = match apps {
        Ok(a) => a,
        Err(e) => return out.fail(e),
    };
    let exec = PlanExecutor::new();
    let mut backend = TiledBackend::with_parallelism(Parallelism::Threads(workers));
    // Warm-up: one untimed cycle, so lazy allocation is not measured.
    for app in &apps {
        if let Some(e) = job(&exec, app, &mut backend) {
            return out.fail(e);
        }
    }
    if !args.trace {
        let (lat, jobs_per_s) = closed_loop(&apps, args.budget(1.0), out, |app| {
            job(&exec, app, &mut backend)
        });
        report_closed_loop(out, setup_s, &lat, jobs_per_s, args.slo_ms("fig11_dense"));
        return;
    }

    let (untraced, _) = closed_loop(&apps, args.budget(0.4), out, |app| {
        job(&exec, app, &mut backend)
    });

    let meter = Arc::new(Meter::default());
    let sink = Arc::new(ClockSink::with_spans(meter.clone()));
    let mut tiled = TiledBackend::with_unit(TimedUnit::new(Simd2Unit::new(), true))
        .with_tracer(Tracer::to(sink.clone()));
    tiled.set_parallelism(Parallelism::Threads(workers));
    let mut traced = Metered::timed(tiled, meter.clone());
    let traced_exec = PlanExecutor::new().with_tracer(Tracer::to(sink.clone()));
    let (meter0, counters0) = (meter.totals(), TileCounters::now());
    let (lat, _) = closed_loop(&apps, args.budget(0.6), out, |app| {
        job(&traced_exec, app, &mut traced)
    });
    let unit = traced.inner().unit();
    let work = DenseWork {
        meter: meter.totals().since(&meter0),
        unit_calls: unit.calls(),
        unit_busy_ns: unit.busy_ns(),
        ops: traced.op_count(),
        counters: TileCounters::now().since(counters0),
    };
    layers::check_tile_counts(&work, out);
    let jobs = lat.len() as f64;
    let (tile_ns, quantize_ns) = layers::semiring_tile_ns(&work.meter.tiles, args.seed);
    out.set("semiring.mmo_tile_ns", tile_ns);
    out.set("semiring.quantize_tile_ns", quantize_ns);
    layers::report_dense(out, &work, jobs, workers, tile_ns);
    layers::report_plans(out, &sink.take_plans(), jobs);
    let baseline: f64 = apps
        .iter()
        .map(|r| apps::baseline_ms(r.app, r.n, r.seed))
        .sum();
    out.set("apps.baseline_ms", baseline);
    out.set("apps.record_ms", (setup_s * 1e3 - baseline).max(0.0));
    out.set(
        "harness.trace_overhead_frac",
        ratio(mean(&lat), mean(&untraced)) - 1.0,
    );
    out.set("harness.traced_jobs", jobs);
    out.set("harness.workers", workers as f64);
}
