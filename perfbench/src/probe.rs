//! Measurement seams attached from outside the program: a [`Backend`]
//! wrapper, an [`MmoUnit`] wrapper and a timestamping trace [`Sink`].
//!
//! None of them changes what the wrapped code computes; `tests.rs`
//! checks wrapped and unwrapped runs for bit-identical outputs and
//! equal work counters.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use simd2::{Backend, BackendError, MatrixRef, MmoArgs, OpCount};
use simd2_fault::{MmoUnit, TileCoord};
use simd2_matrix::{Matrix, Tile, ISA_TILE};
use simd2_mxu::PrecisionMode;
use simd2_semiring::simd::KernelIsa;
use simd2_semiring::OpKind;
use simd2_trace::{span, EventKind, Field, Sink, Value};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked while holding a meter")
}

fn nanos_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Backend time and call counts, split by operand representation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MeterTotals {
    /// Calls whose operands are all declared dense.
    pub dense_calls: u64,
    /// Wall time inside dense calls.
    pub dense_ns: u64,
    /// Calls with at least one operand declared compressed (CSR or 2:4).
    pub csr_calls: u64,
    /// Wall time inside compressed calls.
    pub csr_ns: u64,
    /// 16×16 tile-grid volume (`m_tiles · n_tiles · k_tiles`) submitted,
    /// per semiring operation.
    pub tiles: Vec<(OpKind, u64)>,
}

impl MeterTotals {
    /// Every call, either class.
    pub fn calls(&self) -> u64 {
        self.dense_calls + self.csr_calls
    }

    /// Wall time inside every call.
    pub fn ns(&self) -> u64 {
        self.dense_ns + self.csr_ns
    }

    /// Tile-grid volume over every operation.
    pub fn tile_volume(&self) -> u64 {
        self.tiles.iter().map(|(_, t)| t).sum()
    }

    /// `self − before`, field by field.
    pub fn since(&self, before: &MeterTotals) -> MeterTotals {
        let tiles = self
            .tiles
            .iter()
            .map(|&(op, t)| {
                let was = before
                    .tiles
                    .iter()
                    .find(|(o, _)| *o == op)
                    .map_or(0, |(_, t)| *t);
                (op, t - was)
            })
            .filter(|&(_, t)| t > 0)
            .collect();
        MeterTotals {
            dense_calls: self.dense_calls - before.dense_calls,
            dense_ns: self.dense_ns - before.dense_ns,
            csr_calls: self.csr_calls - before.csr_calls,
            csr_ns: self.csr_ns - before.csr_ns,
            tiles,
        }
    }
}

/// Shared, switchable accumulator behind a [`Metered`] backend. Trace
/// sinks hold a clone to read backend time at span boundaries.
#[derive(Debug, Default)]
pub struct Meter {
    totals: Mutex<MeterTotals>,
}

impl Meter {
    /// A snapshot of the totals so far.
    pub fn totals(&self) -> MeterTotals {
        lock(&self.totals).clone()
    }

    fn add(&self, csr: bool, ns: u64, work: &[(OpKind, u64)]) {
        let mut t = lock(&self.totals);
        if csr {
            t.csr_calls += 1;
            t.csr_ns += ns;
        } else {
            t.dense_calls += 1;
            t.dense_ns += ns;
        }
        for &(op, tiles) in work {
            match t.tiles.iter_mut().find(|(o, _)| *o == op) {
                Some((_, n)) => *n += tiles,
                None => t.tiles.push((op, tiles)),
            }
        }
    }
}

/// Tile-grid volume of one `m×k · k×n` operation.
fn tile_volume(a: &Matrix, b: &Matrix) -> u64 {
    let t = |x: usize| x.div_ceil(ISA_TILE) as u64;
    t(a.rows()) * t(b.cols()) * t(a.cols())
}

/// A [`Backend`] decorator that times every entry point and classifies
/// each call by operand representation, optionally keeping the last
/// output (the recorded closure a replay is compared with).
///
/// Every trait method is forwarded explicitly, provided ones included:
/// relying on a default would route the call through a different code
/// path than the bare backend takes.
#[derive(Debug)]
pub struct Metered<B> {
    inner: B,
    meter: Option<Arc<Meter>>,
    keep_last: bool,
    last: Option<Matrix>,
}

impl<B: Backend> Metered<B> {
    /// Wraps `inner` without timing (the untraced configuration).
    pub fn quiet(inner: B) -> Self {
        Self {
            inner,
            meter: None,
            keep_last: false,
            last: None,
        }
    }

    /// Wraps `inner`, timing every call into `meter`.
    pub fn timed(inner: B, meter: Arc<Meter>) -> Self {
        Self {
            meter: Some(meter),
            ..Self::quiet(inner)
        }
    }

    /// Keeps a copy of each call's output for [`take_last`](Self::take_last).
    pub fn keeping_last(mut self) -> Self {
        self.keep_last = true;
        self
    }

    /// The output of the most recent call, if kept.
    pub fn take_last(&mut self) -> Option<Matrix> {
        self.last.take()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn call(
        &mut self,
        csr: bool,
        work: &[(OpKind, u64)],
        f: impl FnOnce(&mut B) -> Result<Matrix, BackendError>,
    ) -> Result<Matrix, BackendError> {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        if let Some(meter) = &self.meter {
            meter.add(csr, nanos_since(t0), work);
        }
        if self.keep_last {
            if let Ok(d) = &out {
                self.last = Some(d.clone());
            }
        }
        out
    }
}

impl<B: Backend> Backend for Metered<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reduced_precision(&self) -> bool {
        self.inner.reduced_precision()
    }

    fn mmo(
        &mut self,
        op: OpKind,
        a: &Matrix,
        b: &Matrix,
        c: &Matrix,
    ) -> Result<Matrix, BackendError> {
        self.call(false, &[(op, tile_volume(a, b))], |be| be.mmo(op, a, b, c))
    }

    fn mmo_sequential(
        &mut self,
        op: OpKind,
        a: &Matrix,
        b: &Matrix,
        c: &Matrix,
    ) -> Result<Matrix, BackendError> {
        self.call(false, &[(op, tile_volume(a, b))], |be| {
            be.mmo_sequential(op, a, b, c)
        })
    }

    fn mmo_ref(
        &mut self,
        op: OpKind,
        a: MatrixRef<'_>,
        b: MatrixRef<'_>,
        c: MatrixRef<'_>,
    ) -> Result<Matrix, BackendError> {
        let csr = [a, b, c].iter().any(|r| !r.repr.is_dense());
        self.call(csr, &[(op, tile_volume(a.matrix, b.matrix))], |be| {
            be.mmo_ref(op, a, b, c)
        })
    }

    /// A batch is timed as one call per step sharing the batch's wall
    /// time equally; it counts as compressed when any step is.
    fn mmo_batch(&mut self, steps: &[MmoArgs<'_>]) -> Result<Vec<Matrix>, BackendError> {
        let t0 = Instant::now();
        let out = self.inner.mmo_batch(steps);
        if let (Some(meter), false) = (&self.meter, steps.is_empty()) {
            let csr = steps.iter().any(|s| !s.is_dense());
            let share = nanos_since(t0) / steps.len() as u64;
            for s in steps {
                meter.add(csr, share, &[(s.op, tile_volume(s.a, s.b))]);
            }
        }
        if self.keep_last {
            if let Ok(ds) = &out {
                self.last = ds.last().cloned();
            }
        }
        out
    }

    fn kernel_isa(&self) -> KernelIsa {
        self.inner.kernel_isa()
    }

    fn pin_kernel_isa(&mut self, isa: KernelIsa) -> bool {
        self.inner.pin_kernel_isa(isa)
    }

    fn force_sequential(&mut self) -> bool {
        self.inner.force_sequential()
    }

    fn fault_log_dropped(&self) -> u64 {
        self.inner.fault_log_dropped()
    }

    fn prepare_chain(&mut self, shape: (usize, usize), steps: usize) {
        self.inner.prepare_chain(shape, steps);
    }

    fn op_count(&self) -> OpCount {
        self.inner.op_count()
    }

    fn reset_count(&mut self) {
        self.inner.reset_count();
    }
}

/// An [`MmoUnit`] decorator counting tile executions and the time spent
/// inside them. Worker shards start from zero and [`absorb`] adds their
/// timers back, so totals cover every worker.
///
/// [`absorb`]: MmoUnit::absorb
#[derive(Clone, Debug)]
pub struct TimedUnit<U> {
    inner: U,
    timing: bool,
    calls: u64,
    busy_ns: u64,
}

impl<U: MmoUnit> TimedUnit<U> {
    /// Wraps `inner`; with `timing` off only calls are counted.
    pub fn new(inner: U, timing: bool) -> Self {
        Self {
            inner,
            timing,
            calls: 0,
            busy_ns: 0,
        }
    }

    /// Tile executions so far, every worker included.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Time inside tile executions so far, summed over workers.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    fn time<T>(&mut self, f: impl FnOnce(&mut U) -> T) -> T {
        self.calls += 1;
        if !self.timing {
            return f(&mut self.inner);
        }
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.busy_ns += nanos_since(t0);
        out
    }
}

impl<U: MmoUnit> MmoUnit for TimedUnit<U> {
    fn execute_tile<const N: usize>(
        &mut self,
        op: OpKind,
        a: &Tile<N>,
        b: &Tile<N>,
        c: &Tile<N>,
    ) -> Tile<N> {
        self.time(|u| u.execute_tile(op, a, b, c))
    }

    fn execute_tile_at<const N: usize>(
        &mut self,
        coord: TileCoord,
        op: OpKind,
        a: &Tile<N>,
        b: &Tile<N>,
        c: &Tile<N>,
    ) -> Tile<N> {
        self.time(|u| u.execute_tile_at(coord, op, a, b, c))
    }

    fn begin_matrix_mmo(&mut self) {
        self.inner.begin_matrix_mmo();
    }

    fn reduced_precision(&self) -> bool {
        self.inner.reduced_precision()
    }

    fn kernel_isa(&self) -> KernelIsa {
        self.inner.kernel_isa()
    }

    fn repin_kernel(&mut self, isa: KernelIsa) -> bool {
        self.inner.repin_kernel(isa)
    }

    fn fault_dropped(&self) -> u64 {
        self.inner.fault_dropped()
    }

    fn precision(&self) -> PrecisionMode {
        self.inner.precision()
    }

    fn shard(&self) -> Option<Self> {
        self.inner
            .shard()
            .map(|inner| Self::new(inner, self.timing))
    }

    fn absorb(&mut self, shard: Self) {
        self.calls += shard.calls;
        self.busy_ns += shard.busy_ns;
        self.inner.absorb(shard.inner);
    }
}

/// One `plan` span seen by [`ClockSink`].
#[derive(Clone, Copy, Debug)]
pub struct PlanSpan {
    /// When the replay began.
    pub begin: Instant,
    /// Replay wall time.
    pub ns: u64,
    /// Backend time inside the span (from the shared [`Meter`]).
    pub backend_ns: u64,
    /// Steps the replayed plan holds.
    pub steps: u64,
    /// Dispatch waves the replay executed.
    pub waves: u64,
    /// The serve job whose terminal instant followed the span.
    pub job: Option<u64>,
}

#[derive(Debug, Default)]
struct SinkState {
    open: Option<(Instant, u64, u64)>,
    waves: u64,
    plans: Vec<PlanSpan>,
    admitted: HashMap<u64, Instant>,
    terminal: HashMap<u64, Instant>,
}

/// A trace sink stamping the events the benchmark reads with a
/// monotonic clock: serve admission and terminal instants (keyed by job
/// id) and, when `spans` is on, `plan` spans with the backend time they
/// contain. Every other event is dropped before any locking.
#[derive(Debug, Default)]
pub struct ClockSink {
    spans: bool,
    meter: Option<Arc<Meter>>,
    state: Mutex<SinkState>,
}

/// Serve stages after which a job produces no further events.
const TERMINAL: [&str; 4] = ["completed", "expired", "failed", "quarantined"];

fn field_u64(fields: &[Field], key: &str) -> Option<u64> {
    fields
        .iter()
        .find(|f| f.key == key)
        .and_then(|f| match f.value {
            Value::U64(v) => Some(v),
            _ => None,
        })
}

fn field_str(fields: &[Field], key: &str) -> Option<&'static str> {
    fields
        .iter()
        .find(|f| f.key == key)
        .and_then(|f| match f.value {
            Value::Str(s) => Some(s),
            _ => None,
        })
}

impl ClockSink {
    /// Stamps serve terminal instants only (the untraced configuration).
    pub fn terminal_only() -> Self {
        Self::default()
    }

    /// Stamps serve instants and `plan` spans, reading backend time
    /// from `meter` at each span boundary.
    pub fn with_spans(meter: Arc<Meter>) -> Self {
        Self {
            spans: true,
            meter: Some(meter),
            state: Mutex::default(),
        }
    }

    fn backend_ns(&self) -> u64 {
        self.meter.as_ref().map_or(0, |m| m.totals().ns())
    }

    /// When job `job` reached a terminal stage.
    pub fn terminal_at(&self, job: u64) -> Option<Instant> {
        lock(&self.state).terminal.get(&job).copied()
    }

    /// When job `job` was admitted (recorded only with spans on).
    pub fn admitted_at(&self, job: u64) -> Option<Instant> {
        lock(&self.state).admitted.get(&job).copied()
    }

    /// Drains the completed `plan` spans.
    pub fn take_plans(&self) -> Vec<PlanSpan> {
        std::mem::take(&mut lock(&self.state).plans)
    }
}

impl Sink for ClockSink {
    fn record(&self, name: &'static str, kind: EventKind, fields: &[Field]) {
        match (name, kind) {
            (span::SERVE, EventKind::Instant) => {
                let Some(stage) = field_str(fields, "stage") else {
                    return;
                };
                let Some(job) = field_u64(fields, "job") else {
                    return;
                };
                let terminal = TERMINAL.contains(&stage);
                if !(terminal || (self.spans && stage == "admitted")) {
                    return;
                }
                let now = Instant::now();
                let mut st = lock(&self.state);
                if terminal {
                    st.terminal.insert(job, now);
                    for p in st.plans.iter_mut().rev() {
                        if p.job.is_some() {
                            break;
                        }
                        p.job = Some(job);
                    }
                } else {
                    st.admitted.insert(job, now);
                }
            }
            (span::PLAN, EventKind::Begin) if self.spans => {
                let steps = field_u64(fields, "steps").unwrap_or(0);
                let backend = self.backend_ns();
                let mut st = lock(&self.state);
                st.open = Some((Instant::now(), backend, steps));
                st.waves = 0;
            }
            (span::PLAN_WAVE, EventKind::End) if self.spans => lock(&self.state).waves += 1,
            (span::PLAN, EventKind::End) if self.spans => {
                let backend = self.backend_ns();
                let mut st = lock(&self.state);
                if let Some((begin, backend0, steps)) = st.open.take() {
                    let waves = st.waves;
                    st.plans.push(PlanSpan {
                        begin,
                        ns: nanos_since(begin),
                        backend_ns: backend - backend0,
                        steps,
                        waves,
                        job: None,
                    });
                }
            }
            _ => {}
        }
    }
}
