//! Per-layer accounting shared by the workloads: counter deltas,
//! kernel microbenchmarks and the `core.backend` / `mxu` / `core.plan`
//! metrics derived from them.

use std::hint::black_box;
use std::time::Instant;

use simd2::OpCount;
use simd2_matrix::ISA_TILE;
use simd2_semiring::simd::{self, KernelIsa};
use simd2_semiring::OpKind;

use crate::common::{ns_to_ms, quantile, ratio, Outcome, Rng};
use crate::probe::{MeterTotals, PlanSpan};

/// The process-global `core.*` tile counters, read through
/// [`simd2_trace::snapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileCounters {
    /// `core.tile_mmos`.
    pub tile_mmos: u64,
    /// `core.tile_loads`.
    pub tile_loads: u64,
    /// `core.tile_stores`.
    pub tile_stores: u64,
}

impl TileCounters {
    /// The counters now.
    pub fn now() -> Self {
        let snap = simd2_trace::snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value)
        };
        Self {
            tile_mmos: get("core.tile_mmos"),
            tile_loads: get("core.tile_loads"),
            tile_stores: get("core.tile_stores"),
        }
    }

    /// `self − before`.
    pub fn since(self, before: Self) -> Self {
        Self {
            tile_mmos: self.tile_mmos - before.tile_mmos,
            tile_loads: self.tile_loads - before.tile_loads,
            tile_stores: self.tile_stores - before.tile_stores,
        }
    }
}

/// Work the dense tiled stack did over a traced window.
#[derive(Clone, Debug, Default)]
pub struct DenseWork {
    /// Backend calls and time ([`crate::probe::Metered`]).
    pub meter: MeterTotals,
    /// Tile executions seen by the unit wrapper.
    pub unit_calls: u64,
    /// Time inside the unit, summed over workers.
    pub unit_busy_ns: u64,
    /// [`simd2::Backend::op_count`] delta.
    pub ops: OpCount,
    /// Process-global counter delta.
    pub counters: TileCounters,
}

impl DenseWork {
    /// `self − before`.
    pub fn since(&self, before: &DenseWork) -> DenseWork {
        let (a, b) = (self.ops, before.ops);
        DenseWork {
            meter: self.meter.since(&before.meter),
            unit_calls: self.unit_calls - before.unit_calls,
            unit_busy_ns: self.unit_busy_ns - before.unit_busy_ns,
            ops: OpCount {
                matrix_mmos: a.matrix_mmos - b.matrix_mmos,
                tile_mmos: a.tile_mmos - b.tile_mmos,
                tile_loads: a.tile_loads - b.tile_loads,
                tile_stores: a.tile_stores - b.tile_stores,
            },
            counters: self.counters.since(before.counters),
        }
    }
}

/// Bytes one 16×16 fp32 tile load or store moves.
const TILE_BYTES: u64 = (ISA_TILE * ISA_TILE * 4) as u64;
/// Semiring operations (one ⊗ and one ⊕ per term) in one tile mmo.
const TILE_OPS: u64 = (2 * ISA_TILE * ISA_TILE * ISA_TILE) as u64;

/// Checks that every source of the tile count agrees exactly: the
/// backend's `op_count`, the global counters, the unit wrapper's call
/// count and the tile-grid volume the backend wrapper submitted.
pub fn check_tile_counts(w: &DenseWork, out: &mut Outcome) {
    let sources = [
        ("op_count", w.ops.tile_mmos),
        ("core.tile_mmos counter", w.counters.tile_mmos),
        ("unit calls", w.unit_calls),
        ("submitted tile grids", w.meter.tile_volume()),
    ];
    if sources.iter().any(|&(_, v)| v != w.ops.tile_mmos)
        || w.counters.tile_loads != w.ops.tile_loads
        || w.counters.tile_stores != w.ops.tile_stores
    {
        out.fail(format!("tile accounting disagrees: {sources:?} {w:?}"));
    }
}

/// Reports the `mxu` and `core.backend` metrics per job.
pub fn report_dense(out: &mut Outcome, w: &DenseWork, jobs: f64, workers: usize, tile_ns: f64) {
    let per_job = |x: u64| ratio(x as f64, jobs);
    let busy_capacity = w.meter.ns() as f64 * workers as f64;
    out.set("mxu.execute_calls", per_job(w.unit_calls));
    out.set("mxu.execute_busy_ms", ratio(ns_to_ms(w.unit_busy_ns), jobs));
    out.set("core.backend.mmo_calls", per_job(w.meter.calls()));
    out.set("core.backend.mmo_ms", ratio(ns_to_ms(w.meter.ns()), jobs));
    out.set("core.backend.tile_mmos", per_job(w.ops.tile_mmos));
    out.set("core.backend.tile_loads", per_job(w.ops.tile_loads));
    out.set("core.backend.tile_stores", per_job(w.ops.tile_stores));
    out.set(
        "core.backend.bytes_computed",
        per_job((w.ops.tile_loads + w.ops.tile_stores) * TILE_BYTES),
    );
    out.set(
        "core.backend.gops",
        ratio((w.ops.tile_mmos * TILE_OPS) as f64, w.meter.ns() as f64),
    );
    out.set(
        "core.backend.unit_frac",
        ratio(w.unit_busy_ns as f64, busy_capacity),
    );
    out.set(
        "core.backend.kernel_frac",
        ratio(w.unit_calls as f64 * tile_ns, busy_capacity),
    );
}

/// Reports the `core.plan` metrics per job from the traced plan spans.
pub fn report_plans(out: &mut Outcome, plans: &[PlanSpan], jobs: f64) {
    let sum = |f: fn(&PlanSpan) -> u64| plans.iter().map(f).sum::<u64>();
    let replay = sum(|p| p.ns);
    let backend = sum(|p| p.backend_ns);
    out.set("core.plan.replay_ms", ratio(ns_to_ms(replay), jobs));
    out.set(
        "core.plan.self_ms",
        ratio(ns_to_ms(replay.saturating_sub(backend)), jobs),
    );
    out.set("core.plan.steps", ratio(sum(|p| p.steps) as f64, jobs));
    out.set("core.plan.waves", ratio(sum(|p| p.waves) as f64, jobs));
}

/// Operand values for `op` that keep every kernel on its common path
/// (small integers; booleans for or-and).
fn operand(op: OpKind, rng: &mut Rng) -> f32 {
    match op {
        OpKind::OrAnd => (rng.below(2)) as f32,
        _ => (1 + rng.below(8)) as f32,
    }
}

/// Median of `rounds` timings of `f`, each long enough to span ~10 ms,
/// in ns per call.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    const ROUNDS: usize = 5;
    const ROUND_NS: f64 = 1e7;
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed().as_nanos() < 1_000_000 {
        f();
        calls += 1;
    }
    let per_round = ((ROUND_NS / (t0.elapsed().as_nanos() as f64 / calls as f64)) as u64).max(1);
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_round {
                f();
            }
            t.elapsed().as_nanos() as f64 / per_round as f64
        })
        .collect();
    quantile(&samples, 0.5)
}

/// Hot-loop cost of one 16×16 tile through `simd::mmo_tile` and
/// `simd::quantize_f16_slice` on the selected kernel ISA, the first
/// averaged over `ops` weighted by tile count.
pub fn semiring_tile_ns(ops: &[(OpKind, u64)], seed: u64) -> (f64, f64) {
    let isa: KernelIsa = simd::selected_isa();
    let nn = ISA_TILE * ISA_TILE;
    let mut rng = Rng::new(seed, 0x5e31);
    let mut weighted = 0.0;
    let mut total = 0u64;
    for &(op, tiles) in ops {
        let tile = |rng: &mut Rng| (0..nn).map(|_| operand(op, rng)).collect::<Vec<f32>>();
        let (a, b, c) = (tile(&mut rng), tile(&mut rng), tile(&mut rng));
        let mut d = vec![0.0f32; nn];
        let ns = ns_per_call(|| {
            simd::mmo_tile(
                isa,
                op,
                black_box(&a),
                black_box(&b),
                black_box(&c),
                &mut d,
                ISA_TILE,
            );
            black_box(&d);
        });
        weighted += ns * tiles as f64;
        total += tiles;
    }
    let src: Vec<f32> = (0..nn).map(|i| i as f32 * 0.37 - 11.0).collect();
    let mut buf = src.clone();
    let quantize = ns_per_call(|| {
        buf.copy_from_slice(black_box(&src));
        simd::quantize_f16_slice(isa, &mut buf);
        black_box(&buf);
    });
    (ratio(weighted, total as f64), quantize)
}
