//! The measurement seams must not change what the program computes:
//! wrapped and bare runs of each workload's first jobs agree bit for bit
//! and in their work counters.

use std::sync::Arc;

use simd2::{Backend, Parallelism, PlanExecutor, TiledBackend};
use simd2_matrix::Matrix;
use simd2_mxu::Simd2Unit;
use simd2_semiring::simd::KernelIsa;
use simd2_semiring::OpKind;
use simd2_serve::{JobStatus, PlanService, ServeConfig, TenantQuota};
use simd2_trace::Tracer;

use crate::common::{quantile, same_bits, END_TO_END, PER_LAYER};
use crate::probe::{ClockSink, Meter, Metered, TimedUnit};
use crate::{fig11, serve, stream};

const WORKERS: usize = 2;

fn flip_low_bit(m: &mut Matrix) {
    let x = &mut m.as_mut_slice()[1];
    *x = f32::from_bits(x.to_bits() ^ 1);
}

fn traced_tiled(sink: &Arc<ClockSink>, meter: &Arc<Meter>) -> serve::Stack {
    let mut tiled = TiledBackend::with_unit(TimedUnit::new(Simd2Unit::new(), true))
        .with_tracer(Tracer::to(sink.clone()));
    tiled.set_parallelism(Parallelism::Threads(WORKERS));
    Metered::timed(tiled, meter.clone())
}

#[test]
fn fig11_first_jobs_are_identical_wrapped_and_bare() {
    let apps = fig11::setup(7, 48, 1, WORKERS).expect("apps validate");
    let meter = Arc::new(Meter::default());
    let sink = Arc::new(ClockSink::with_spans(meter.clone()));
    let mut wrapped = traced_tiled(&sink, &meter);
    let mut bare = TiledBackend::with_parallelism(Parallelism::Threads(WORKERS));
    let traced_exec = PlanExecutor::new().with_tracer(Tracer::to(sink.clone()));
    for app in apps.iter().take(3) {
        let w = traced_exec.run(&app.plan, &mut wrapped).expect("replay");
        let b = PlanExecutor::new()
            .run(&app.plan, &mut bare)
            .expect("replay");
        for step in 0..app.plan.step_count() {
            assert!(same_bits(w.step_output(step), b.step_output(step)));
        }
        let mut plain = Metered::quiet(TiledBackend::new());
        assert!(fig11::job(&PlanExecutor::new(), app, &mut plain).is_none());
        let mut wrong = app.clone();
        flip_low_bit(&mut wrong.expected);
        assert!(fig11::job(&PlanExecutor::new(), &wrong, &mut plain).is_some());
    }
    assert_eq!(wrapped.op_count(), bare.op_count());
    assert_eq!(wrapped.inner().unit().calls(), bare.op_count().tile_mmos);
    assert_eq!(sink.take_plans().len(), 3);
}

#[test]
fn stream_first_jobs_are_identical_wrapped_and_bare() {
    let (jobs, _) = stream::setup(7, 48, 1);
    let meter = Arc::new(Meter::default());
    let mut wrapped = Metered::timed(stream::sparse_backend(WORKERS), meter.clone());
    let mut bare = stream::sparse_backend(WORKERS);
    for j in &jobs {
        let (w, _) = simd2_apps::streaming::simd2(&mut wrapped, &j.work);
        let (b, _) = simd2_apps::streaming::simd2(&mut bare, &j.work);
        assert!(same_bits(&w, &b));
        assert!(stream::job(&mut bare, j).is_none());
        let mut wrong = j.clone();
        flip_low_bit(&mut wrong.expected);
        assert!(stream::job(&mut stream::sparse_backend(WORKERS), &wrong).is_some());
    }
    // `bare` ran each job twice.
    let once = |x: u64| x / 2;
    let (wc, bc) = (wrapped.inner().sparse_count(), bare.sparse_count());
    assert_eq!(wc.fma_terms, once(bc.fma_terms));
    assert_eq!(wc.skipped_terms, once(bc.skipped_terms));
    assert_eq!(wc.sparse_mmos, once(bc.sparse_mmos));
    assert_eq!(
        wrapped.op_count().matrix_mmos,
        once(bare.op_count().matrix_mmos)
    );
    let m = meter.totals();
    assert_eq!(m.calls(), wrapped.op_count().matrix_mmos);
    assert!(m.csr_calls > 0 && m.dense_calls > 0);
}

#[test]
fn serve_first_jobs_are_identical_wrapped_and_bare() {
    let pools = serve::setup(7, 2, 3, WORKERS).expect("pools validate");
    let (mut wrapped, _, sink) = serve::service(WORKERS, true);
    let config = ServeConfig {
        optimize_plans: true,
        ..ServeConfig::default()
    };
    let mut bare = PlanService::new(
        TiledBackend::with_parallelism(Parallelism::Threads(WORKERS)),
        config,
    );
    for t in wrapped.tenants() {
        let quota = TenantQuota::default().with_weight(if t.0 == 3 { 2 } else { 1 });
        bare.register_tenant(t, quota);
    }
    let mut mix = serve::Mix::new(7);
    for _ in 0..12 {
        let (tenant, kind) = mix.next(&pools);
        let spec = pools.spec(kind);
        wrapped.submit(tenant, spec.clone()).expect("admitted");
        bare.submit(tenant, spec).expect("admitted");
    }
    wrapped.run_until_idle();
    bare.run_until_idle();
    let (w, b) = (wrapped.take_outcomes(), bare.take_outcomes());
    assert_eq!(w.len(), 12);
    for (w, b) in w.iter().zip(&b) {
        assert_eq!((w.job, w.tenant), (b.job, b.tenant));
        let out = |s: &JobStatus| s.output().cloned().expect("completed");
        assert!(same_bits(&out(&w.status), &out(&b.status)));
        assert!(sink.terminal_at(w.job.0).is_some());
    }
    assert_eq!(
        wrapped.resilient().inner().op_count(),
        bare.resilient().inner().op_count()
    );
    assert_eq!(wrapped.cache_stats(), bare.cache_stats());
    let plans = sink.take_plans();
    assert_eq!(plans.len() as u64, wrapped.cache_stats().misses);
    assert!(plans.iter().all(|p| p.job.is_some()));
}

#[test]
fn metered_forwards_provided_methods() {
    let mut bare = TiledBackend::with_parallelism(Parallelism::Threads(WORKERS));
    let mut wrapped = Metered::quiet(TiledBackend::with_parallelism(Parallelism::Threads(
        WORKERS,
    )));
    assert_eq!(wrapped.name(), bare.name());
    assert_eq!(wrapped.kernel_isa(), bare.kernel_isa());
    assert_eq!(wrapped.reduced_precision(), bare.reduced_precision());
    // The trait defaults would refuse both of these.
    assert!(wrapped.pin_kernel_isa(KernelIsa::Scalar));
    assert!(bare.pin_kernel_isa(KernelIsa::Scalar));
    assert!(wrapped.force_sequential());
    assert!(bare.force_sequential());
    assert_eq!(wrapped.kernel_isa(), KernelIsa::Scalar);
    wrapped.prepare_chain((32, 32), 2);
    bare.prepare_chain((32, 32), 2);
    let a = Matrix::from_fn(32, 32, |i, j| ((i * 7 + j) % 5) as f32);
    let w = wrapped
        .mmo_sequential(OpKind::MinPlus, &a, &a, &a)
        .expect("mmo");
    let b = bare
        .mmo_sequential(OpKind::MinPlus, &a, &a, &a)
        .expect("mmo");
    assert!(same_bits(&w, &b));
    assert_eq!(wrapped.op_count(), bare.op_count());
    assert_eq!(wrapped.fault_log_dropped(), bare.fault_log_dropped());
    wrapped.reset_count();
    assert_eq!(wrapped.op_count().tile_mmos, 0);
}

#[test]
fn timed_unit_shards_merge_their_timers() {
    let mut be = TiledBackend::with_unit(TimedUnit::new(Simd2Unit::new(), true));
    be.set_parallelism(Parallelism::Threads(WORKERS));
    let a = Matrix::from_fn(80, 80, |i, j| ((i + 3 * j) % 9) as f32);
    be.mmo(OpKind::PlusMul, &a, &a, &a).expect("mmo");
    assert_eq!(be.unit().calls(), be.op_count().tile_mmos);
    assert!(be.unit().busy_ns() > 0);
}

#[test]
fn benchmark_json_names_every_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in crate::WORKLOADS {
        assert!(compact.contains(&format!("\"name\":\"{w}\"")), "{w}");
    }
}

#[test]
fn quantile_interpolates_between_order_statistics() {
    let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
    assert_eq!(quantile(&xs, 0.5), 3.0);
    assert!((quantile(&xs, 0.9) - 4.6).abs() < 1e-12);
    assert_eq!(quantile(&[], 0.5), 0.0);
}
