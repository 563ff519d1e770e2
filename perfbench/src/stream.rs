//! `stream_sparse`: streaming closure maintenance on the sparse backend.
//!
//! A job is one eager `streaming::simd2` call folding one batch of n/8
//! inserted edges into a closure computed during set-up, for min-plus
//! (shortest paths) and or-and (reachability) at n=384 on
//! `SparseTiledBackend` with one worker per CPU. Each output is compared
//! bit for bit with `streaming::baseline`, a full Floyd–Warshall
//! recompute of the updated graph done during set-up.

use std::sync::Arc;
use std::time::Instant;

use simd2::{Backend, Parallelism, TiledBackend};
use simd2_apps::streaming::{self, StreamingWorkload};
use simd2_matrix::Matrix;
use simd2_mxu::{PrecisionMode, Simd2Unit};
use simd2_semiring::OpKind;
use simd2_sparse::SparseTiledBackend;

use crate::common::{
    closed_loop, mean, mix, ms_since, ns_to_ms, quantile, ratio, report_closed_loop, same_bits,
    timed_setup, Outcome,
};
use crate::probe::{Meter, Metered};
use crate::Args;

/// Graph dimension.
pub const N: usize = 384;
/// Insertion batches generated per algebra; each is one job.
pub const BATCHES: usize = 4;
/// The two streaming algebras.
const OPS: [OpKind; 2] = [OpKind::MinPlus, OpKind::OrAnd];

/// One job: a closed graph plus one insertion batch, and the closure of
/// the updated graph.
#[derive(Clone, Debug)]
pub struct StreamJob {
    /// Closed base graph plus one delta.
    pub work: StreamingWorkload,
    /// Full recompute of the updated graph.
    pub expected: Matrix,
}

/// Generates the jobs (algebras interleaved) and their oracles; also
/// returns the time spent in oracles, in ms.
pub fn setup(seed: u64, n: usize, batches: usize) -> (Vec<StreamJob>, f64) {
    let mut per_op = Vec::new();
    let mut oracle_ms = 0.0;
    for (k, op) in OPS.into_iter().enumerate() {
        let w = streaming::generate(op, n, batches, mix(seed ^ mix(k as u64 + 1)));
        let with = |deltas: Vec<Matrix>| StreamingWorkload {
            op,
            base: w.base.clone(),
            deltas,
        };
        let t0 = Instant::now();
        let closed = streaming::baseline(&with(Vec::new()));
        let jobs: Vec<StreamJob> = w
            .deltas
            .iter()
            .map(|delta| StreamJob {
                expected: streaming::baseline(&with(vec![delta.clone()])),
                work: StreamingWorkload {
                    op,
                    base: closed.clone(),
                    deltas: vec![delta.clone()],
                },
            })
            .collect();
        oracle_ms += ms_since(t0);
        per_op.push(jobs);
    }
    let mut jobs = Vec::new();
    for i in 0..batches {
        for op_jobs in &per_op {
            jobs.push(op_jobs[i].clone());
        }
    }
    (jobs, oracle_ms)
}

/// Runs one job and checks its output.
pub fn job<B: Backend>(backend: &mut B, j: &StreamJob) -> Option<String> {
    let (x, stats) = streaming::simd2(backend, &j.work);
    if !stats.converged {
        return Some(format!("{}: update did not converge", j.work.op));
    }
    (!same_bits(&x, &j.expected))
        .then(|| format!("{}: streamed closure differs from the recompute", j.work.op))
}

/// Sparse backend used by every job.
pub fn sparse_backend(workers: usize) -> SparseTiledBackend {
    SparseTiledBackend::new().with_parallelism(Parallelism::Threads(workers))
}

/// Median wall time (ms) of `reps` runs of `f`.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t)
        })
        .collect();
    quantile(&samples, 0.5)
}

/// Time of the sparse backend's dense path over `TiledBackend` on the
/// same operands at the same (fp32) precision: the confirming square
/// `X ⊕ (X ⊗ X)` each job starts with.
fn dense_vs_tiled(jobs: &[StreamJob], workers: usize) -> f64 {
    let mut sparse = sparse_backend(workers);
    let mut tiled = TiledBackend::with_unit(Simd2Unit::with_precision(PrecisionMode::Fp32Input));
    tiled.set_parallelism(Parallelism::Threads(workers));
    let (mut s_ms, mut t_ms) = (0.0, 0.0);
    for j in jobs.iter().take(OPS.len()) {
        let (op, x) = (j.work.op, &j.work.base);
        s_ms += median_ms(3, || {
            drop(sparse.mmo(op, x, x, x).expect("square operands"))
        });
        t_ms += median_ms(3, || drop(tiled.mmo(op, x, x, x).expect("square operands")));
    }
    ratio(s_ms, t_ms)
}

/// Runs the workload.
pub fn run(args: &Args, out: &mut Outcome) {
    let workers = crate::common::workers();
    let ((jobs, oracle_ms), setup_s) = timed_setup(|| setup(args.seed, N, BATCHES));
    let mut backend = sparse_backend(workers);
    for j in &jobs {
        if let Some(e) = job(&mut backend, j) {
            return out.fail(e);
        }
    }
    if !args.trace {
        let (lat, jobs_per_s) = closed_loop(&jobs, args.budget(1.0), out, |j| job(&mut backend, j));
        report_closed_loop(out, setup_s, &lat, jobs_per_s, args.slo_ms("stream_sparse"));
        return;
    }

    let (untraced, _) = closed_loop(&jobs, args.budget(0.4), out, |j| job(&mut backend, j));
    let meter = Arc::new(Meter::default());
    let mut traced = Metered::timed(sparse_backend(workers), meter.clone());
    let (lat, _) = closed_loop(&jobs, args.budget(0.6), out, |j| job(&mut traced, j));
    let jobs_n = lat.len() as f64;
    let m = meter.totals();
    let count = traced.inner().sparse_count();
    let ops = traced.op_count();
    if ops.matrix_mmos != m.calls() {
        out.fail(format!(
            "backend counted {} mmos, the wrapper saw {} calls",
            ops.matrix_mmos,
            m.calls()
        ));
    }
    let per_job = |x: u64| ratio(x as f64, jobs_n);
    out.set("sparse.csr_mmo_ms", ratio(ns_to_ms(m.csr_ns), jobs_n));
    out.set("sparse.dense_mmo_ms", ratio(ns_to_ms(m.dense_ns), jobs_n));
    out.set("sparse.csr_calls", per_job(m.csr_calls));
    out.set("sparse.dense_calls", per_job(m.dense_calls));
    out.set("sparse.fma_terms", per_job(count.fma_terms));
    out.set("sparse.skipped_terms", per_job(count.skipped_terms));
    out.set(
        "sparse.skip_frac",
        ratio(
            count.skipped_terms as f64,
            (count.fma_terms + count.skipped_terms) as f64,
        ),
    );
    out.set("sparse.dense_vs_tiled", dense_vs_tiled(&jobs, workers));
    out.set("core.backend.mmo_calls", per_job(m.calls()));
    out.set("core.backend.mmo_ms", ratio(ns_to_ms(m.ns()), jobs_n));
    out.set("core.backend.tile_mmos", per_job(ops.tile_mmos));
    out.set(
        "core.backend.gops",
        ratio(2.0 * count.fma_terms as f64, m.ns() as f64),
    );
    let (tile_ns, quantize_ns) = crate::layers::semiring_tile_ns(&m.tiles, args.seed);
    out.set("semiring.mmo_tile_ns", tile_ns);
    out.set("semiring.quantize_tile_ns", quantize_ns);
    out.set("apps.baseline_ms", oracle_ms);
    out.set("apps.record_ms", (setup_s * 1e3 - oracle_ms).max(0.0));
    out.set(
        "harness.trace_overhead_frac",
        ratio(mean(&lat), mean(&untraced)) - 1.0,
    );
    out.set("harness.traced_jobs", jobs_n);
    out.set("harness.workers", workers as f64);
}
