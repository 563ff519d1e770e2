//! Client-side recording of registry apps into validated plans.

use std::hint::black_box;
use std::time::Instant;

use simd2::{ClosureAlgorithm, Parallelism, Plan, TiledBackend};
use simd2_apps::harness::MST_EXTRA_DENSITY;
use simd2_apps::{aplp, apsp, gtc, knn, mst, paths, run_app, streaming, AppKind};
use simd2_matrix::Matrix;
use simd2_semiring::OpKind;

use crate::common::ms_since;
use crate::probe::Metered;

/// One app run recorded as a plan, with the output its last step
/// produced while recording.
#[derive(Clone, Debug)]
pub struct Recorded {
    /// The recorded app.
    pub app: AppKind,
    /// Its dimension.
    pub n: usize,
    /// Its input seed.
    pub seed: u64,
    /// Its plan.
    pub plan: Plan,
    /// The recorded final output every replay must reproduce bit for bit.
    pub expected: Matrix,
}

/// Records `app` at dimension `n` on a `TiledBackend` with `workers`
/// threads and validates it against the app's baseline oracle within
/// the registry tolerance.
///
/// # Errors
///
/// When the recorded run misses its oracle or records no step.
pub fn record(
    app: AppKind,
    n: usize,
    seed: u64,
    algorithm: ClosureAlgorithm,
    convergence: bool,
    workers: usize,
) -> Result<Recorded, String> {
    let backend = TiledBackend::with_parallelism(Parallelism::Threads(workers));
    let mut be = Metered::quiet(backend).keeping_last();
    let run = run_app(&mut be, app, n, seed, algorithm, convergence);
    if !run.passed() {
        return Err(format!(
            "{app:?} n={n} seed={seed}: diff {} exceeds tolerance {}",
            run.diff,
            app.spec().tolerance
        ));
    }
    let expected = be
        .take_last()
        .ok_or_else(|| format!("{app:?} n={n} seed={seed}: recorded no step"))?;
    Ok(Recorded {
        app,
        n,
        seed,
        plan: run.plan,
        expected,
    })
}

/// Wall time of generating `app`'s input and running its baseline
/// oracle alone — the part of [`record`] that is not SIMD² work.
pub fn baseline_ms(app: AppKind, n: usize, seed: u64) -> f64 {
    let t0 = Instant::now();
    match app {
        AppKind::Apsp => drop(black_box(apsp::baseline(&apsp::generate(n, seed)))),
        AppKind::Aplp => drop(black_box(aplp::baseline(&aplp::generate(n, seed)))),
        AppKind::Mcp => drop(black_box(paths::baseline(
            OpKind::MaxMin,
            &paths::generate_mcp(n, seed),
        ))),
        AppKind::MaxRp => drop(black_box(paths::baseline(
            OpKind::MaxMul,
            &paths::generate_maxrp(n, seed),
        ))),
        AppKind::MinRp => drop(black_box(paths::baseline(
            OpKind::MinMul,
            &paths::generate_minrp(n, seed),
        ))),
        AppKind::Mst => drop(black_box(mst::baseline(&mst::generate(
            n,
            MST_EXTRA_DENSITY,
            seed,
        )))),
        AppKind::Gtc => drop(black_box(gtc::baseline(&gtc::generate(n, seed)))),
        AppKind::Knn => drop(black_box(knn::baseline(&knn::generate(n, seed), knn::K))),
        AppKind::StreamingApsp | AppKind::StreamingBfs => {
            let w = streaming::generate(app.spec().op, n, streaming::DEFAULT_BATCHES, seed);
            drop(black_box(streaming::baseline(&w)));
        }
    }
    ms_since(t0)
}
