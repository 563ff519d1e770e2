//! Representation-aware sparse execution backend.
//!
//! [`SparseTiledBackend`] implements the core [`Backend`] trait, so any
//! algorithm written against the trait — the closure solvers, the plan
//! recorder/executor, the serving layer — runs on sparse operands
//! unchanged. Every operation runs through **one Gustavson row kernel**
//! over a *row view* of each operand; representation declarations,
//! arriving through [`Backend::mmo_ref`], only choose which terms the
//! views yield. A dense operand's view yields every entry, one declared
//! [`OperandRepr::Csr`] its stored entries, and one declared
//! [`OperandRepr::Structured24`] the occupied slots of its
//! [`Compressed24`] image — the walk of the 2:4 sparse pipe. With both
//! operands dense the kernel is the IKJ form of
//! [`simd2_matrix::reference::mmo`] and reproduces it bit for bit. With
//! reduced precision on, each operand's values are quantized to fp16
//! once, while its view is built.
//!
//! **The bit-identity contract.** A representation declaration is a
//! schedule hint, never a semantic change: a view skips only terms that
//! combine through the algebra's annihilator ([`OpKind::no_edge_f32`]),
//! and such terms leave the reduction bit-identical for every extension
//! op — except max-mul, where a skipped `0.0` product can still lift a
//! `-∞`-seeded accumulator. The kernel counts the terms each output
//! element received; a max-mul element short of `k` terms folds a
//! single `⊕ 0.0` correction at the end, exactly reproducing the dense
//! fold. Every element folds its terms in ascending `k`, so outputs are
//! bit-identical between the dense datapath and every declaration, at
//! any worker count.
//!
//! **Sharded panels.** Row panels of the output are disjoint slabs
//! handed to a [`std::thread::scope`] worker pool via `split_at_mut`;
//! each worker folds its rows in the reference order and returns its own
//! term counts, merged in panel order. A panicking worker is contained
//! and surfaces as [`BackendError::WorkerPanic`] after the remaining
//! workers drain.
//!
//! The Fig 13 pruning experiment (`A` forced through 2:4 magnitude
//! pruning, losses measured honestly) lives on as
//! [`SparseTiledBackend::mmo_pruned`] and [`pruning_quality`]; its tiles
//! run on a held sequential [`TiledBackend`].

use std::borrow::Cow;
use std::ops::Range;

use simd2::{
    Backend, BackendError, MatrixRef, MmoArgs, OpCount, OperandRepr, Parallelism, TiledBackend,
};
use simd2_matrix::{reference, Matrix, ShapeError};
use simd2_semiring::precision::{quantize_f16_slice, quantized_f16};
use simd2_semiring::OpKind;

use crate::structured::{prune_2_4, Compressed24};
use crate::Csr;

/// Work counters of the sparse backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SparseOpCount {
    /// Whole-matrix operations executed.
    pub matrix_mmos: u64,
    /// 16×16 tile operations executed on the sparse pipe (the
    /// [`SparseTiledBackend::mmo_pruned`] datapath).
    pub tile_mmos: u64,
    /// Operand values discarded by 2:4 pruning across all operations.
    pub pruned_values: u64,
    /// Whole-matrix operations with at least one sparse-declared operand
    /// (CSR or 2:4) rather than two dense ones.
    pub sparse_mmos: u64,
    /// Semiring `⊕(⊗)` terms actually folded by the row kernel.
    pub fma_terms: u64,
    /// Annihilator terms skipped by sparse row views relative to the
    /// dense `m·n·k` term count.
    pub skipped_terms: u64,
}

impl std::ops::AddAssign for SparseOpCount {
    fn add_assign(&mut self, rhs: Self) {
        self.matrix_mmos += rhs.matrix_mmos;
        self.tile_mmos += rhs.tile_mmos;
        self.pruned_values += rhs.pruned_values;
        self.sparse_mmos += rhs.sparse_mmos;
        self.fma_terms += rhs.fma_terms;
        self.skipped_terms += rhs.skipped_terms;
    }
}

/// A representation-aware whole-matrix engine: one Gustavson row kernel
/// over dense, CSR and 2:4 row views behind [`Backend::mmo_ref`],
/// bit-identical to the reference oracle, with row-panel sharding across
/// a scoped worker pool.
///
/// # Example
///
/// ```
/// use simd2::Backend;
/// use simd2_matrix::Matrix;
/// use simd2_semiring::OpKind;
/// use simd2_sparse::backend::SparseTiledBackend;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]); // violates 2:4
/// let b = Matrix::filled(4, 1, 1.0);
/// let c = Matrix::zeros(1, 1);
/// let mut be = SparseTiledBackend::new();
///
/// // The trait datapath is exact: no silent pruning.
/// let d = be.mmo(OpKind::PlusMul, &a, &b, &c)?;
/// assert_eq!(d[(0, 0)], 10.0);
///
/// // The Fig 13 experiment prunes `A` to 2:4 first: 3·1 + 4·1.
/// let d = be.mmo_pruned(OpKind::PlusMul, &a, &b, &c).unwrap();
/// assert_eq!(d[(0, 0)], 7.0);
/// assert_eq!(be.sparse_count().pruned_values, 2);
/// # Ok::<(), simd2::BackendError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct SparseTiledBackend {
    /// Sequential fp16-input tile datapath of [`Self::mmo_pruned`].
    tiled: TiledBackend,
    reduced: bool,
    parallelism: Parallelism,
    count: SparseOpCount,
}

/// One worker's contribution: row-kernel term counters, merged back
/// into [`SparseOpCount`] in panel order.
#[derive(Clone, Copy, Debug, Default)]
struct TermCount {
    fma_terms: u64,
    skipped_terms: u64,
}

impl std::ops::AddAssign for TermCount {
    fn add_assign(&mut self, rhs: Self) {
        self.fma_terms += rhs.fma_terms;
        self.skipped_terms += rhs.skipped_terms;
    }
}

/// Stringifies a contained worker-panic payload (the `&str` / `String`
/// cases cover `panic!` and `assert!`).
fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Splits `rows` output rows into `workers` contiguous, near-equal
/// panels (the first `rows % workers` panels take one extra row).
fn row_panels(rows: usize, workers: usize) -> Vec<Range<usize>> {
    let workers = workers.clamp(1, rows.max(1));
    let base = rows / workers;
    let extra = rows % workers;
    let mut panels = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        panels.push(start..start + len);
        start += len;
    }
    panels
}

/// Runs `kernel` over row panels of an `m×n` output, sequentially or
/// across a scoped worker pool, merging per-worker term counters in
/// panel order. Bit-identity across worker counts holds because the
/// panels are disjoint and each row's fold order never changes.
fn run_panels<F>(
    m: usize,
    n: usize,
    workers: usize,
    kernel: F,
) -> Result<(Matrix, TermCount), BackendError>
where
    F: Fn(Range<usize>, &mut [f32]) -> TermCount + Sync,
{
    let mut d = Matrix::zeros(m, n);
    let panels = row_panels(m, workers);
    if panels.len() <= 1 {
        let total = kernel(0..m, d.as_mut_slice());
        return Ok((d, total));
    }
    let mut slabs: Vec<(Range<usize>, &mut [f32])> = Vec::with_capacity(panels.len());
    let mut rest = d.as_mut_slice();
    for range in panels {
        let (head, tail) = rest.split_at_mut((range.end - range.start) * n);
        slabs.push((range, head));
        rest = tail;
    }
    let kernel = &kernel;
    let joined: Vec<Result<TermCount, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = slabs
            .into_iter()
            .map(|(range, slab)| scope.spawn(move || kernel(range, slab)))
            .collect();
        // Join every worker (draining the pool even past a panic)
        // before reporting, so a contained panic never leaks threads.
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|payload| panic_payload_message(payload.as_ref()))
            })
            .collect()
    });
    let mut total = TermCount::default();
    for (panel, outcome) in joined.into_iter().enumerate() {
        match outcome {
            Ok(count) => total += count,
            Err(payload) => return Err(BackendError::WorkerPanic { panel, payload }),
        }
    }
    Ok((d, total))
}

/// One operand seen row by row: each row yields its `(index, value)`
/// entries in ascending index order, with values already at load
/// precision.
enum RowView<'a> {
    /// Every entry of a row-major matrix with `cols` columns.
    Dense { cols: usize, values: Cow<'a, [f32]> },
    /// Only the stored entries, in CSR layout.
    Stored {
        row_ptr: Vec<usize>,
        index: Vec<u32>,
        values: Vec<f32>,
    },
}

/// One row of a [`RowView`].
#[derive(Clone, Copy)]
enum Row<'r> {
    Dense(&'r [f32]),
    Stored(&'r [u32], &'r [f32]),
}

impl<'a> RowView<'a> {
    /// Every entry of `m`, quantized to fp16 when `reduced`.
    fn dense(m: &'a Matrix, reduced: bool) -> Self {
        let values = if reduced {
            Cow::Owned(quantized_f16(m.as_slice()))
        } else {
            Cow::Borrowed(m.as_slice())
        };
        RowView::Dense {
            cols: m.cols(),
            values,
        }
    }

    /// The stored entries of a sparse-declared operand: those other than
    /// its sentinel. For a 2:4 operand these are exactly the occupied
    /// slots of its [`Compressed24`] image, in the pipe's walk order.
    /// The index set comes from the unquantized operand; only the kept
    /// values are quantized.
    fn stored(m: MatrixRef<'_>, reduced: bool) -> Self {
        let zero = m.repr.zero().expect("sparse repr carries a sentinel");
        let (row_ptr, index, mut values) = Csr::from_dense(m.matrix, zero)
            .expect("validated non-NaN sentinel")
            .into_raw();
        if reduced {
            quantize_f16_slice(&mut values);
        }
        RowView::Stored {
            row_ptr,
            index,
            values,
        }
    }

    fn row(&self, r: usize) -> Row<'_> {
        match self {
            RowView::Dense { cols, values } => Row::Dense(&values[r * cols..(r + 1) * cols]),
            RowView::Stored {
                row_ptr,
                index,
                values,
            } => {
                let span = row_ptr[r]..row_ptr[r + 1];
                Row::Stored(&index[span.clone()], &values[span])
            }
        }
    }
}

impl Row<'_> {
    /// Calls `f(index, value)` for each entry, in ascending index order.
    #[inline]
    fn for_each(self, mut f: impl FnMut(usize, f32)) {
        match self {
            Row::Dense(values) => values.iter().enumerate().for_each(|(l, &v)| f(l, v)),
            Row::Stored(index, values) => index
                .iter()
                .zip(values)
                .for_each(|(&l, &v)| f(l as usize, v)),
        }
    }
}

/// The row kernel: output rows `rows` of `D = C ⊕ (A ⊗ B)` into `out`.
///
/// For each row `i` it walks `A`'s entries `(l, a)` in ascending `l` and
/// sweeps `B`'s row `l` into a dense accumulator row, so every `(i, j)`
/// folds its terms in ascending `k` — the reference order over the terms
/// the views yield. It counts the terms each column received: a column
/// short of `k` terms skipped annihilator products, which are exact
/// no-ops except under max-mul, where one `⊕ 0.0` reproduces them.
fn gustavson_rows(
    op: OpKind,
    a: &RowView<'_>,
    b: &RowView<'_>,
    c: &Matrix,
    k: usize,
    rows: Range<usize>,
    out: &mut [f32],
) -> TermCount {
    let n = c.cols();
    let identity = op.reduce_identity_f32();
    let mut acc = vec![identity; n];
    let mut hits = vec![0usize; n];
    let mut count = TermCount::default();
    for (local, i) in rows.enumerate() {
        acc.fill(identity);
        hits.fill(0);
        // `B` rows swept whole reach every column.
        let mut full_sweeps = 0;
        a.row(i).for_each(|l, av| match b.row(l) {
            Row::Dense(brow) => {
                full_sweeps += 1;
                for (x, &bv) in acc.iter_mut().zip(brow) {
                    *x = op.fma_f32(*x, av, bv);
                }
            }
            Row::Stored(index, values) => {
                for (&j, &bv) in index.iter().zip(values) {
                    let j = j as usize;
                    acc[j] = op.fma_f32(acc[j], av, bv);
                    hits[j] += 1;
                }
            }
        });
        let orow = &mut out[local * n..(local + 1) * n];
        for (j, (slot, &cv)) in orow.iter_mut().zip(c.row(i)).enumerate() {
            let terms = full_sweeps + hits[j];
            let mut v = acc[j];
            if op == OpKind::MaxMul && terms < k {
                v = op.reduce_f32(v, 0.0);
            }
            *slot = op.reduce_f32(cv, v);
            count.fma_terms += terms as u64;
            count.skipped_terms += (k - terms) as u64;
        }
    }
    count
}

impl SparseTiledBackend {
    /// Creates the backend: exact (fp32) row kernel, sequential
    /// schedule, default fp16-input unit for the pruned-pipe path.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-pool configuration for row-panel sharding.
    /// Results are bit-identical at any worker count.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Quantizes `A`/`B` values through fp16 (accumulation stays fp32) —
    /// the tile pipe's operand precision. Each operand is quantized once,
    /// as its row view is built, so every declaration sees the same
    /// values and stays bit-identical to the dense datapath.
    pub fn with_reduced_precision(mut self, reduced: bool) -> Self {
        self.reduced = reduced;
        self
    }

    /// The configured worker-pool setting.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Extended work counters accumulated so far (a superset of the
    /// trait-level [`Backend::op_count`]).
    pub fn sparse_count(&self) -> SparseOpCount {
        self.count
    }

    /// Executes `D = C ⊕ (A|₂:₄ ⊗ B)`: `A` is pruned to 2:4 structure
    /// (round-tripped through the compressed format, as the hardware
    /// would consume it), then the tiled fp16 unit computes as usual —
    /// the Fig 13 experiment, which *changes the answer* when `A` is
    /// non-compliant and is therefore not part of the [`Backend`]
    /// contract.
    ///
    /// # Errors
    ///
    /// Returns a [`ShapeError`] when operand shapes are incompatible.
    pub fn mmo_pruned(
        &mut self,
        op: OpKind,
        a: &Matrix,
        b: &Matrix,
        c: &Matrix,
    ) -> Result<Matrix, ShapeError> {
        reference::check_mmo_shapes(a, b, c)?;
        let zero = op.no_edge_f32().unwrap_or(0.0);
        let pruned = prune_2_4(a, op);
        let nnz_before = a.as_slice().iter().filter(|&&x| x != zero).count();
        let compressed =
            Compressed24::compress(&pruned, zero).expect("prune_2_4 output is always compliant");
        self.count.pruned_values += (nnz_before - compressed.nnz()) as u64;

        // Tiled execution on the decompressed operand; the sparse pipe
        // computes the same values in half the cycles.
        self.tiled.reset_count();
        let d = self
            .tiled
            .mmo(op, &compressed.decompress(), b, c)
            .expect("shapes were checked above and a sequential schedule cannot panic a worker");
        self.count.tile_mmos += self.tiled.op_count().tile_mmos;
        self.count.matrix_mmos += 1;
        Ok(d)
    }

    /// Shape-checked, repr-validated execution core shared by the trait
    /// entry points: builds one row view per operand and runs the row
    /// kernel over `workers` panels.
    fn execute(
        &mut self,
        op: OpKind,
        a: MatrixRef<'_>,
        b: MatrixRef<'_>,
        c: MatrixRef<'_>,
        workers: usize,
    ) -> Result<Matrix, BackendError> {
        let (m, n, k) = (a.matrix.rows(), b.matrix.cols(), a.matrix.cols());
        let a_view = if a.repr.is_dense() {
            RowView::dense(a.matrix, self.reduced)
        } else {
            RowView::stored(a, self.reduced)
        };
        // A 2:4 `A` walks `B` dense; any other sparse `B` (2:4 included)
        // is walked by its stored entries, as CSR.
        let b_view = if b.repr.is_dense() || matches!(a.repr, OperandRepr::Structured24 { .. }) {
            RowView::dense(b.matrix, self.reduced)
        } else {
            RowView::stored(b, self.reduced)
        };
        let (d, terms) = run_panels(m, n, workers, |rows, out| {
            gustavson_rows(op, &a_view, &b_view, c.matrix, k, rows, out)
        })?;
        self.count.matrix_mmos += 1;
        self.count.fma_terms += terms.fma_terms;
        self.count.skipped_terms += terms.skipped_terms;
        if !(a.repr.is_dense() && b.repr.is_dense()) {
            self.count.sparse_mmos += 1;
        }
        Ok(d)
    }
}

impl Backend for SparseTiledBackend {
    fn name(&self) -> &'static str {
        "sparse-tiled"
    }

    fn reduced_precision(&self) -> bool {
        self.reduced
    }

    fn mmo(
        &mut self,
        op: OpKind,
        a: &Matrix,
        b: &Matrix,
        c: &Matrix,
    ) -> Result<Matrix, BackendError> {
        reference::check_mmo_shapes(a, b, c)?;
        let workers = self.parallelism.worker_count();
        self.execute(
            op,
            MatrixRef::dense(a),
            MatrixRef::dense(b),
            MatrixRef::dense(c),
            workers,
        )
    }

    fn mmo_sequential(
        &mut self,
        op: OpKind,
        a: &Matrix,
        b: &Matrix,
        c: &Matrix,
    ) -> Result<Matrix, BackendError> {
        reference::check_mmo_shapes(a, b, c)?;
        self.execute(
            op,
            MatrixRef::dense(a),
            MatrixRef::dense(b),
            MatrixRef::dense(c),
            1,
        )
    }

    fn mmo_ref(
        &mut self,
        op: OpKind,
        a: MatrixRef<'_>,
        b: MatrixRef<'_>,
        c: MatrixRef<'_>,
    ) -> Result<Matrix, BackendError> {
        simd2::validate::check_mmo_operands_ref(op, a, b, c)?;
        let workers = self.parallelism.worker_count();
        self.execute(op, a, b, c, workers)
    }

    fn mmo_batch(&mut self, steps: &[MmoArgs<'_>]) -> Result<Vec<Matrix>, BackendError> {
        // Unlike the trait default this routes each step's declared
        // representations through to the compressed kernels.
        steps
            .iter()
            .map(|s| self.mmo_ref(s.op, s.a_ref(), s.b_ref(), s.c_ref()))
            .collect()
    }

    fn force_sequential(&mut self) -> bool {
        if self.parallelism == Parallelism::Sequential {
            return false;
        }
        self.parallelism = Parallelism::Sequential;
        true
    }

    fn op_count(&self) -> OpCount {
        OpCount {
            matrix_mmos: self.count.matrix_mmos,
            tile_mmos: self.count.tile_mmos,
            tile_loads: 0,
            tile_stores: 0,
        }
    }

    fn reset_count(&mut self) {
        self.count = SparseOpCount::default();
    }
}

/// Quality of a sparse-pipe closure versus the dense solution: fraction
/// of entries that still agree exactly, and the worst deviation on the
/// finite entries — the §6.5 trade the paper leaves to pre-processing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PruningQuality {
    /// Fraction of matching entries (exact, including infinities).
    pub exact_match_fraction: f64,
    /// Worst absolute deviation over entries finite in both.
    pub max_finite_deviation: f32,
}

/// Compares a sparse-pipe result against the dense oracle.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn pruning_quality(dense: &Matrix, sparse: &Matrix) -> PruningQuality {
    assert_eq!(dense.shape(), sparse.shape());
    let mut matches = 0usize;
    let mut worst = 0.0f32;
    for (a, b) in dense.as_slice().iter().zip(sparse.as_slice()) {
        if a == b {
            matches += 1;
        } else if a.is_finite() && b.is_finite() {
            worst = worst.max((a - b).abs());
        } else {
            worst = f32::INFINITY;
        }
    }
    PruningQuality {
        exact_match_fraction: matches as f64 / dense.len() as f64,
        max_finite_deviation: worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use simd2_matrix::gen;
    use simd2_matrix::Graph;
    use simd2_semiring::ALL_OPS;

    /// A seeded operand in `op`'s value domain with roughly
    /// `density` of its entries kept and the rest at `zero`.
    fn sparse_operand(rows: usize, cols: usize, zero: f32, density: f64, seed: u64) -> Matrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| {
            if rng.gen_bool(density) {
                rng.gen_range(0.5..9.5)
            } else {
                zero
            }
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn dense_trait_path_is_bit_identical_to_reference() {
        for (s, &op) in ALL_OPS.iter().enumerate() {
            let a = sparse_operand(9, 7, 0.0, 1.0, 100 + s as u64);
            let b = sparse_operand(7, 11, 0.0, 1.0, 200 + s as u64);
            let c = sparse_operand(9, 11, 0.0, 1.0, 300 + s as u64);
            let mut be = SparseTiledBackend::new();
            let got = be.mmo(op, &a, &b, &c).unwrap();
            let want = reference::mmo(op, &a, &b, &c).unwrap();
            assert_eq!(bits(&got), bits(&want), "{op}");
        }
        let mut be = SparseTiledBackend::new();
        assert_eq!(be.name(), "sparse-tiled");
        assert!(!be.reduced_precision());
        be.mmo(
            OpKind::PlusMul,
            &Matrix::zeros(2, 2),
            &Matrix::zeros(2, 2),
            &Matrix::zeros(2, 2),
        )
        .unwrap();
        assert_eq!(be.op_count().matrix_mmos, 1);
        be.reset_count();
        assert_eq!(be.sparse_count(), SparseOpCount::default());
    }

    #[test]
    fn every_sparse_kernel_is_bit_identical_to_the_dense_datapath() {
        // All ops with a no-edge annihilator (plus-norm has no sparse
        // lowering), every operand-side combination of declarations.
        for (s, &op) in ALL_OPS.iter().enumerate() {
            let Some(zero) = op.no_edge_f32() else {
                continue;
            };
            let a = sparse_operand(17, 13, zero, 0.3, 400 + s as u64);
            let b = sparse_operand(13, 15, zero, 0.3, 500 + s as u64);
            let c = sparse_operand(17, 15, zero, 0.8, 600 + s as u64);
            let mut be = SparseTiledBackend::new();
            let want = be.mmo(op, &a, &b, &c).unwrap();
            let csr = OperandRepr::csr(zero);
            for (ra, rb) in [
                (csr, OperandRepr::Dense),
                (OperandRepr::Dense, csr),
                (csr, csr),
            ] {
                let got = be
                    .mmo_ref(
                        op,
                        MatrixRef::new(&a, ra),
                        MatrixRef::new(&b, rb),
                        MatrixRef::dense(&c),
                    )
                    .unwrap();
                assert_eq!(bits(&got), bits(&want), "{op} {}×{}", ra.name(), rb.name());
            }
            assert!(be.sparse_count().sparse_mmos >= 3, "{op}");
            assert!(be.sparse_count().skipped_terms > 0, "{op}");
        }
    }

    #[test]
    fn structured_fast_path_is_bit_identical_to_dense() {
        for op in [
            OpKind::PlusMul,
            OpKind::MinPlus,
            OpKind::MaxMul,
            OpKind::OrAnd,
        ] {
            let zero = op.no_edge_f32().unwrap();
            let a = prune_2_4(&sparse_operand(12, 20, zero, 0.9, 7), op);
            let b = sparse_operand(20, 9, zero, 0.9, 8);
            let c = sparse_operand(12, 9, zero, 0.9, 9);
            let mut be = SparseTiledBackend::new();
            let want = be.mmo(op, &a, &b, &c).unwrap();
            let got = be
                .mmo_ref(
                    op,
                    MatrixRef::new(&a, OperandRepr::structured(zero)),
                    MatrixRef::dense(&b),
                    MatrixRef::dense(&c),
                )
                .unwrap();
            assert_eq!(bits(&got), bits(&want), "{op}");
        }
    }

    #[test]
    fn sharded_panels_are_bit_identical_at_every_worker_count() {
        let op = OpKind::MinPlus;
        let zero = op.no_edge_f32().unwrap();
        let a = sparse_operand(33, 29, zero, 0.2, 42);
        let b = sparse_operand(29, 31, zero, 0.2, 43);
        let c = Matrix::filled(33, 31, zero);
        let mut seq = SparseTiledBackend::new();
        let want = seq
            .mmo_ref(
                op,
                MatrixRef::new(&a, OperandRepr::csr(zero)),
                MatrixRef::new(&b, OperandRepr::csr(zero)),
                MatrixRef::dense(&c),
            )
            .unwrap();
        for workers in [1, 2, 4, 8] {
            let mut be = SparseTiledBackend::new().with_parallelism(Parallelism::Threads(workers));
            let got = be
                .mmo_ref(
                    op,
                    MatrixRef::new(&a, OperandRepr::csr(zero)),
                    MatrixRef::new(&b, OperandRepr::csr(zero)),
                    MatrixRef::dense(&c),
                )
                .unwrap();
            assert_eq!(bits(&got), bits(&want), "workers={workers}");
            // Panel-order merge keeps counters exact, not approximate.
            assert_eq!(be.sparse_count(), seq.sparse_count(), "workers={workers}");
        }
    }

    #[test]
    fn reduced_precision_keeps_sparse_and_dense_paths_aligned() {
        let op = OpKind::PlusMul;
        let a = sparse_operand(10, 14, 0.0, 0.4, 77);
        let b = sparse_operand(14, 6, 0.0, 0.4, 78);
        let c = sparse_operand(10, 6, 0.0, 1.0, 79);
        let mut be = SparseTiledBackend::new().with_reduced_precision(true);
        assert!(be.reduced_precision());
        let want = be.mmo(op, &a, &b, &c).unwrap();
        let got = be
            .mmo_ref(
                op,
                MatrixRef::new(&a, OperandRepr::csr(0.0)),
                MatrixRef::dense(&b),
                MatrixRef::dense(&c),
            )
            .unwrap();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn batched_steps_route_representations_through() {
        let op = OpKind::MinPlus;
        let zero = op.no_edge_f32().unwrap();
        let a = sparse_operand(8, 8, zero, 0.25, 91);
        let b = sparse_operand(8, 8, zero, 0.25, 92);
        let c = Matrix::filled(8, 8, zero);
        let mut sparse_args = MmoArgs::new(op, &a, &b, &c);
        sparse_args.reprs = [
            OperandRepr::csr(zero),
            OperandRepr::csr(zero),
            OperandRepr::Dense,
        ];
        let steps = [MmoArgs::new(op, &a, &b, &c), sparse_args];
        let mut be = SparseTiledBackend::new();
        let out = be.mmo_batch(&steps).unwrap();
        assert_eq!(bits(&out[0]), bits(&out[1]));
        assert_eq!(be.sparse_count().matrix_mmos, 2);
        assert_eq!(be.sparse_count().sparse_mmos, 1);
    }

    #[test]
    fn term_accounting_is_exact_for_csr_a() {
        let op = OpKind::PlusMul;
        let a = sparse_operand(6, 10, 0.0, 0.3, 13);
        let b = sparse_operand(10, 4, 0.0, 1.0, 14);
        let c = Matrix::zeros(6, 4);
        let mut be = SparseTiledBackend::new();
        be.mmo_ref(
            op,
            MatrixRef::new(&a, OperandRepr::csr(0.0)),
            MatrixRef::dense(&b),
            MatrixRef::dense(&c),
        )
        .unwrap();
        let count = be.sparse_count();
        // Folded + skipped terms together tile the dense m·n·k space.
        assert_eq!(count.fma_terms + count.skipped_terms, 6 * 4 * 10);
        let nnz = a.as_slice().iter().filter(|&&x| x != 0.0).count() as u64;
        assert_eq!(count.fma_terms, nnz * 4);
    }

    #[test]
    fn term_accounting_tiles_the_dense_term_space_for_every_route() {
        // Folded + skipped terms tile the dense m·n·k space, and the
        // folded count equals the terms the routed walk visits, for
        // every declaration pair at every worker count.
        let (m, k, n) = (13, 12, 9);
        let op = OpKind::MinPlus;
        let zero = op.no_edge_f32().unwrap();
        let a = prune_2_4(&sparse_operand(m, k, zero, 0.4, 21), op);
        let b = prune_2_4(&sparse_operand(k, n, zero, 0.4, 22), op);
        let c = Matrix::filled(m, n, zero);
        let stored = |x: f32| x != zero;
        let row_nnz = |mat: &Matrix, r: usize| mat.row(r).iter().filter(|&&x| stored(x)).count();
        let reprs = [
            OperandRepr::Dense,
            OperandRepr::csr(zero),
            OperandRepr::structured(zero),
        ];
        for ra in reprs {
            for rb in reprs {
                // A 2:4 `A` walks `B` dense; a sparse `B` is walked as CSR.
                let b_sparse = !rb.is_dense() && !matches!(ra, OperandRepr::Structured24 { .. });
                let mut want = 0u64;
                for i in 0..m {
                    for l in 0..k {
                        if !ra.is_dense() && !stored(a[(i, l)]) {
                            continue;
                        }
                        want += if b_sparse { row_nnz(&b, l) } else { n } as u64;
                    }
                }
                for workers in [1, 2, 4] {
                    let mut be =
                        SparseTiledBackend::new().with_parallelism(Parallelism::Threads(workers));
                    be.mmo_ref(
                        op,
                        MatrixRef::new(&a, ra),
                        MatrixRef::new(&b, rb),
                        MatrixRef::dense(&c),
                    )
                    .unwrap();
                    let count = be.sparse_count();
                    let what = format!("{}×{} workers={workers}", ra.name(), rb.name());
                    assert_eq!(
                        count.fma_terms + count.skipped_terms,
                        (m * n * k) as u64,
                        "{what}"
                    );
                    assert_eq!(count.fma_terms, want, "{what}");
                }
            }
        }
    }

    #[test]
    fn invalid_declarations_are_rejected() {
        let a = Matrix::zeros(4, 4);
        let c = Matrix::zeros(4, 4);
        let mut be = SparseTiledBackend::new();
        // Wrong sentinel for the op's annihilator.
        let err = be
            .mmo_ref(
                OpKind::MinPlus,
                MatrixRef::new(&a, OperandRepr::csr(0.0)),
                MatrixRef::dense(&a),
                MatrixRef::dense(&c),
            )
            .unwrap_err();
        assert!(matches!(err, BackendError::Repr { .. }), "{err}");
        // Non-compliant 2:4 declaration.
        let dense_row = Matrix::filled(4, 4, 1.0);
        let err = be
            .mmo_ref(
                OpKind::PlusMul,
                MatrixRef::new(&dense_row, OperandRepr::structured(0.0)),
                MatrixRef::dense(&a),
                MatrixRef::dense(&c),
            )
            .unwrap_err();
        assert!(err.to_string().contains("2:4"), "{err}");
        assert_eq!(be.sparse_count().matrix_mmos, 0);
    }

    #[test]
    fn force_sequential_demotes_the_pool() {
        let mut be = SparseTiledBackend::new().with_parallelism(Parallelism::Threads(4));
        assert_eq!(be.parallelism(), Parallelism::Threads(4));
        assert!(be.force_sequential());
        assert!(!be.force_sequential());
        assert_eq!(be.parallelism(), Parallelism::Sequential);
    }

    #[test]
    fn row_panels_cover_without_overlap() {
        for (rows, workers) in [(10, 3), (4, 8), (1, 1), (16, 4), (7, 2)] {
            let panels = row_panels(rows, workers);
            assert_eq!(panels[0].start, 0);
            assert_eq!(panels.last().unwrap().end, rows);
            for pair in panels.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            assert!(panels.len() <= workers.max(1));
        }
    }

    #[test]
    fn pruning_count_is_reported() {
        let a = Matrix::filled(4, 8, 1.0); // every group violates 2:4
        let b = Matrix::filled(8, 4, 1.0);
        let c = Matrix::zeros(4, 4);
        let mut be = SparseTiledBackend::new();
        be.mmo_pruned(OpKind::PlusMul, &a, &b, &c).unwrap();
        // 4 rows × 2 groups × 2 pruned each.
        assert_eq!(be.sparse_count().pruned_values, 16);
        assert_eq!(be.sparse_count().matrix_mmos, 1);
        assert!(be.sparse_count().tile_mmos > 0);
    }

    #[test]
    fn dense_compliant_inputs_pass_through_unchanged() {
        // A graph sparse enough to satisfy 2:4 naturally loses nothing.
        let g = gen::gnp_graph(32, 0.03, 1.0, 9.0, 3);
        let adj = g.adjacency(OpKind::MinPlus);
        if !crate::structured::is_2_4_compliant(&adj, f32::INFINITY) {
            return; // rare seed; the property is covered below anyway
        }
        let c = Matrix::filled(32, 32, f32::INFINITY);
        let mut sparse_be = SparseTiledBackend::new();
        let got = sparse_be
            .mmo_pruned(OpKind::MinPlus, &adj, &adj, &c)
            .unwrap();
        let want = simd2_matrix::reference::mmo(OpKind::MinPlus, &adj, &adj, &c).unwrap();
        assert_eq!(got, want);
        assert_eq!(sparse_be.sparse_count().pruned_values, 0);
    }

    #[test]
    fn pruned_result_is_a_relaxation_for_min_plus() {
        // Dropping edges can only lengthen (or disconnect) shortest
        // paths — never shorten them.
        let g = gen::connected_gnp_graph(24, 0.4, 1.0, 9.0, 7);
        let adj = g.adjacency(OpKind::MinPlus);
        let c = Matrix::filled(24, 24, f32::INFINITY);
        let dense = simd2_matrix::reference::mmo(OpKind::MinPlus, &adj, &adj, &c).unwrap();
        let sparse = SparseTiledBackend::new()
            .mmo_pruned(OpKind::MinPlus, &adj, &adj, &c)
            .unwrap();
        for (d, s) in dense.as_slice().iter().zip(sparse.as_slice()) {
            assert!(s >= d, "pruning shortened a path: {s} < {d}");
        }
    }

    #[test]
    fn quality_metric_bounds() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let same = pruning_quality(&a, &a.clone());
        assert_eq!(same.exact_match_fraction, 1.0);
        assert_eq!(same.max_finite_deviation, 0.0);
        let b = Matrix::from_rows(&[&[1.0, 2.5]]);
        let q = pruning_quality(&a, &b);
        assert_eq!(q.exact_match_fraction, 0.5);
        assert_eq!(q.max_finite_deviation, 0.5);
        let inf = Matrix::from_rows(&[&[1.0, f32::INFINITY]]);
        assert_eq!(
            pruning_quality(&a, &inf).max_finite_deviation,
            f32::INFINITY
        );
    }

    #[test]
    fn compliant_graph_closure_is_bit_identical_on_the_sparse_pipe() {
        // A graph whose rows are 2:4-compliant by construction (diagonal
        // plus edges to v+1 and v+17: at most two entries per aligned
        // group) passes through pruning untouched, so the sparse pipe's
        // closure is bit-identical to the dense one — the regime the
        // paper's "inputs are pre-processed" assumption targets.
        let n = 48;
        let mut g = Graph::new(n);
        for v in 0..n {
            g.add_edge(v, (v + 1) % n, 1.0 + (v % 7) as f32);
            g.add_edge(v, (v + 17) % n, 2.0 + (v % 5) as f32);
        }
        let adj = g.adjacency(OpKind::MinPlus);
        assert!(crate::structured::is_2_4_compliant(&adj, f32::INFINITY));
        let run = |sparse: bool| {
            let mut dist = adj.clone();
            for _ in 0..n {
                let next = if sparse {
                    SparseTiledBackend::new()
                        .mmo_pruned(OpKind::MinPlus, &adj, &dist, &dist)
                        .unwrap()
                } else {
                    simd2_matrix::reference::mmo(OpKind::MinPlus, &adj, &dist, &dist).unwrap()
                };
                if next == dist {
                    break;
                }
                dist = next;
            }
            dist
        };
        let dense = run(false);
        let sparse = run(true);
        let q = pruning_quality(&dense, &sparse);
        assert_eq!(q.exact_match_fraction, 1.0);
        assert_eq!(q.max_finite_deviation, 0.0);
    }

    #[test]
    fn noncompliant_graph_closure_quality_is_measured_honestly() {
        // On a denser graph, 2:4 pruning drops real edges; distances can
        // only grow, and the quality metric reports how many pairs moved.
        let g = {
            let mut g = Graph::new(48);
            let base = gen::gnp_graph(48, 4.0 / 48.0, 2.0, 9.0, 11);
            for (s, d, w) in base.edges() {
                g.add_edge(s, d, w);
            }
            for v in 0..48 {
                g.add_edge(v, (v + 1) % 48, 1.0);
            }
            g
        };
        let adj = g.adjacency(OpKind::MinPlus);
        let run = |sparse: bool| {
            let mut dist = adj.clone();
            for _ in 0..48 {
                let next = if sparse {
                    SparseTiledBackend::new()
                        .mmo_pruned(OpKind::MinPlus, &adj, &dist, &dist)
                        .unwrap()
                } else {
                    simd2_matrix::reference::mmo(OpKind::MinPlus, &adj, &dist, &dist).unwrap()
                };
                if next == dist {
                    break;
                }
                dist = next;
            }
            dist
        };
        let dense = run(false);
        let sparse = run(true);
        let q = pruning_quality(&dense, &sparse);
        // The backbone (smallest weights) survives pruning, so everything
        // stays reachable; a meaningful fraction of distances still agree
        // and none improved.
        assert!(q.exact_match_fraction > 0.4, "{}", q.exact_match_fraction);
        assert!(q.max_finite_deviation.is_finite(), "no pair disconnected");
        // Distances never improve beyond fp16 operand-requantisation
        // noise (the sparse path quantises `dist` each iteration).
        for (d, sp) in dense.as_slice().iter().zip(sparse.as_slice()) {
            assert!(*sp >= d - 0.05 * d.abs(), "{sp} < {d}");
        }
    }
}
