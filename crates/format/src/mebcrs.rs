//! ME-BCRS: the paper's memory-efficient blocked compressed row storage
//! (Section 3.5, Figure 10).
//!
//! Three arrays describe the sparse TC blocks of every row window:
//!
//! 1. **RowPointers** (`window_ptr`) — where each window's nonzero vectors
//!    start in `ColumnIndices` (we store `M+1` prefix-sum entries; the
//!    padding-based SR-BCRS needs `2M`).
//! 2. **ColumnIndices** (`col_indices`) — the column of every nonzero
//!    vector, window by window, ascending within a window.
//! 3. **Values** — TC block after TC block, each block row-major with its
//!    *actual* width (the last block of a window is ragged, ≤ `k` vectors
//!    wide). No zero vectors are ever materialized; the kernels handle the
//!    residue block with modulo arithmetic, exactly as the paper describes.

use std::ops::Range;

use fs_matrix::{CsrMatrix, DenseMatrix};
use fs_precision::Scalar;

use crate::spec::TcFormatSpec;

/// A sparse matrix in ME-BCRS form.
#[derive(Clone, Debug)]
pub struct MeBcrs<S: Scalar> {
    spec: TcFormatSpec,
    rows: usize,
    cols: usize,
    window_ptr: Vec<usize>,
    col_indices: Vec<u32>,
    values: Vec<S>,
    /// Nonzeros of the original matrix (excluding fill zeros inside
    /// nonzero vectors) — kept for statistics.
    nnz: usize,
    /// Structural-validity witness: `true` when the arrays are known to
    /// satisfy every [`MeBcrs::validate`] invariant ([`MeBcrs::from_csr`]
    /// guarantees it by construction). Kernels on the fast execution path
    /// skip their per-launch format walk when the witness is set;
    /// [`MeBcrs::from_raw_parts`] leaves it unset.
    validated: bool,
}

/// Equality compares the matrix itself (spec, shape, and arrays); the
/// `validated` witness is provenance metadata, not part of the value.
impl<S: Scalar> PartialEq for MeBcrs<S> {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.rows == other.rows
            && self.cols == other.cols
            && self.nnz == other.nnz
            && self.window_ptr == other.window_ptr
            && self.col_indices == other.col_indices
            && self.values == other.values
    }
}

/// Which `v×1` vectors of a CSR row range are nonzero: per row window, the
/// sorted distinct columns its rows touch. This is the part of an ME-BCRS
/// translation that reads no value and does not depend on the block width,
/// so every layout of one vector height shares it — translation scatters
/// values on top of it, and the tuner scores all of its candidate layouts
/// from one pass ([`WindowPattern::structure`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WindowPattern {
    vector_len: usize,
    rows: usize,
    window_ptr: Vec<usize>,
    col_indices: Vec<u32>,
}

impl WindowPattern {
    /// The pattern of rows `rows` of `csr` (windows start at `rows.start`).
    ///
    /// One pass over the range's column indices: a window's rows are
    /// adjacent in CSR, so its columns are one contiguous slice, appended
    /// to `col_indices`, sorted and de-duplicated in place.
    ///
    /// # Panics
    /// Panics if `rows` is not within `0..=csr.rows()`.
    pub fn from_csr_rows<T: Scalar>(
        csr: &CsrMatrix<T>,
        rows: Range<usize>,
        vector_len: usize,
    ) -> WindowPattern {
        assert!(rows.start <= rows.end && rows.end <= csr.rows(), "row range out of bounds");
        let row_ptr = csr.row_ptr();
        let num_rows = rows.end - rows.start;
        let mut window_ptr = Vec::with_capacity(num_rows.div_ceil(vector_len) + 1);
        window_ptr.push(0usize);
        let mut col_indices: Vec<u32> = Vec::with_capacity(row_ptr[rows.end] - row_ptr[rows.start]);
        for lo in rows.clone().step_by(vector_len) {
            let hi = (lo + vector_len).min(rows.end);
            let start = col_indices.len();
            col_indices.extend_from_slice(&csr.col_idx()[row_ptr[lo]..row_ptr[hi]]);
            let window = &mut col_indices[start..];
            window.sort_unstable();
            // `dedup` on the tail only: keep the first of each run.
            let mut kept = 0;
            for i in 0..window.len() {
                if i == 0 || window[i] != window[kept - 1] {
                    window[kept] = window[i];
                    kept += 1;
                }
            }
            col_indices.truncate(start + kept);
            window_ptr.push(col_indices.len());
        }
        WindowPattern { vector_len, rows: num_rows, window_ptr, col_indices }
    }

    /// View the pattern as the structure of the layout with `block_k`
    /// vectors per TC block and `elem_bytes`-wide values.
    pub fn structure(&self, block_k: usize, elem_bytes: usize) -> Structure<'_> {
        Structure {
            spec: TcFormatSpec { vector_len: self.vector_len, block_k },
            rows: self.rows,
            window_ptr: &self.window_ptr,
            col_indices: &self.col_indices,
            elem_bytes,
        }
    }
}

/// Everything about an ME-BCRS matrix except its values: the layout, the
/// RowPointers and ColumnIndices arrays and the element width. Block
/// geometry and value *addresses* follow from these alone, which is why a
/// kernel's counters can be computed from a `Structure` with no values in
/// sight. Borrowed from a [`MeBcrs`] ([`MeBcrs::structure`]) or from a
/// [`WindowPattern`].
#[derive(Clone, Copy, Debug)]
pub struct Structure<'a> {
    /// Vector height and block width.
    pub spec: TcFormatSpec,
    /// Matrix rows (the last window may be ragged).
    pub rows: usize,
    /// The RowPointers array.
    pub window_ptr: &'a [usize],
    /// The ColumnIndices array.
    pub col_indices: &'a [u32],
    /// Bytes per stored value.
    pub elem_bytes: usize,
}

impl<'a> Structure<'a> {
    /// Number of row windows.
    #[inline]
    pub fn num_windows(&self) -> usize {
        self.window_ptr.len() - 1
    }

    /// Nonzero vectors in window `w`.
    #[inline]
    pub fn vectors_in_window(&self, w: usize) -> usize {
        self.window_ptr[w + 1] - self.window_ptr[w]
    }

    /// TC blocks in window `w` (ceil(nv/k)) — no padding blocks exist.
    #[inline]
    pub fn blocks_in_window(&self, w: usize) -> usize {
        self.spec.blocks_for(self.vectors_in_window(w))
    }

    /// Width (vector count) of block `b` of window `w`; the last block may
    /// be ragged (`1..=k`).
    #[inline]
    pub fn block_width(&self, w: usize, b: usize) -> usize {
        self.spec.block_k.min(self.vectors_in_window(w) - b * self.spec.block_k)
    }

    /// Column indices of the vectors in block `b` of window `w`.
    #[inline]
    pub fn block_cols(&self, w: usize, b: usize) -> &'a [u32] {
        let start = self.window_ptr[w] + b * self.spec.block_k;
        &self.col_indices[start..start + self.block_width(w, b)]
    }

    /// Flat index into the values array of element `(local_row,
    /// local_vec)` of block `b` of window `w`.
    #[inline]
    pub fn value_index(&self, w: usize, b: usize, local_row: usize, local_vec: usize) -> usize {
        let v = self.spec.vector_len;
        let w_b = self.block_width(w, b);
        debug_assert!(local_row < v && local_vec < w_b);
        self.window_ptr[w] * v + b * self.spec.block_k * v + local_row * w_b + local_vec
    }

    /// Byte address of a value element (values array assumed based at 0) —
    /// for the memory-transaction accounting.
    #[inline]
    pub fn value_addr(&self, w: usize, b: usize, local_row: usize, local_vec: usize) -> u64 {
        (self.value_index(w, b, local_row, local_vec) * self.elem_bytes) as u64
    }
}

impl<S: Scalar> MeBcrs<S> {
    /// Translate a CSR matrix: one [`WindowPattern`] pass for the
    /// RowPointers and ColumnIndices arrays, then one pass scattering the
    /// values into the block-major layout. Windows are independent — the
    /// paper runs this step as CUDA preprocessing kernels ("the matrix
    /// translation process leverages CUDA for parallel processing") — but
    /// here both passes run on the calling thread; callers that want
    /// overlap translate row slabs ([`MeBcrs::from_csr_rows_cast`]).
    ///
    /// ```
    /// use fs_format::{MeBcrs, TcFormatSpec};
    /// use fs_matrix::{CooMatrix, CsrMatrix};
    ///
    /// let coo = CooMatrix::from_entries(8, 8, vec![(0, 1, 2.0f32), (7, 3, 4.0)]);
    /// let csr = CsrMatrix::from_coo(&coo);
    /// let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
    /// assert_eq!(me.num_windows(), 1);
    /// assert_eq!(me.num_vectors(), 2); // columns 1 and 3
    /// assert_eq!(me.to_dense(), csr.to_dense());
    /// ```
    pub fn from_csr(csr: &CsrMatrix<S>, spec: TcFormatSpec) -> Self {
        Self::translate_rows(csr, 0..csr.rows(), spec, |v| v)
    }

    /// [`MeBcrs::from_csr`] of `csr.cast::<S>()` without making that copy:
    /// each value is converted as it is scattered.
    pub fn from_csr_cast<T: Scalar>(csr: &CsrMatrix<T>, spec: TcFormatSpec) -> Self {
        Self::from_csr_rows_cast(csr, 0..csr.rows(), spec)
    }

    /// [`MeBcrs::from_csr_cast`] of rows `rows` only (same column space) —
    /// a slab of the whole translation when `rows.start` is a multiple of
    /// the vector height.
    ///
    /// # Panics
    /// Panics if `rows` is not within `0..=csr.rows()`.
    pub fn from_csr_rows_cast<T: Scalar>(
        csr: &CsrMatrix<T>,
        rows: Range<usize>,
        spec: TcFormatSpec,
    ) -> Self {
        Self::translate_rows(csr, rows, spec, |v| S::from_f32(v.to_f32()))
    }

    fn translate_rows<T: Scalar>(
        csr: &CsrMatrix<T>,
        rows: Range<usize>,
        spec: TcFormatSpec,
        convert: impl Fn(T) -> S,
    ) -> Self {
        let (v, k) = (spec.vector_len, spec.block_k);
        let WindowPattern { window_ptr, mut col_indices, .. } =
            WindowPattern::from_csr_rows(csr, rows.clone(), v);
        // Reserved for one column per nonzero; the format is long-lived.
        col_indices.shrink_to_fit();

        let mut values = vec![S::ZERO; col_indices.len() * v];
        for (w, lo) in rows.clone().step_by(v).enumerate() {
            let wc = &col_indices[window_ptr[w]..window_ptr[w + 1]];
            let window = &mut values[window_ptr[w] * v..window_ptr[w + 1] * v];
            for (local_r, r) in (lo..(lo + v).min(rows.end)).enumerate() {
                // A cursor into the window's columns, merged against the
                // row's: `j` is the vector, `blk` the first vector of its
                // TC block. Rows are normally ascending; one that steps
                // backwards restarts the cursor by search.
                let (mut j, mut blk) = (0, 0);
                for (&c, &val) in csr.row_cols(r).iter().zip(csr.row_values(r)) {
                    if wc[j] > c {
                        j = wc.partition_point(|&x| x < c);
                        blk = j - j % k;
                    }
                    while wc[j] < c {
                        j += 1;
                        if j == blk + k {
                            blk = j;
                        }
                    }
                    let w_b = k.min(wc.len() - blk);
                    window[blk * v + local_r * w_b + (j - blk)] = convert(val);
                }
            }
        }

        let me = MeBcrs {
            spec,
            rows: rows.len(),
            cols: csr.cols(),
            window_ptr,
            col_indices,
            values,
            nnz: csr.row_ptr()[rows.end] - csr.row_ptr()[rows.start],
            // Correct by construction: the pattern pass emits sorted
            // distinct columns and a monotone prefix sum, the scatter only
            // writes values (debug builds re-check below).
            validated: true,
        };
        #[cfg(debug_assertions)]
        {
            let violations = me.validate();
            debug_assert!(
                violations.is_empty(),
                "from_csr produced a malformed matrix: {violations:?}"
            );
        }
        me
    }

    /// Assemble an ME-BCRS matrix directly from its raw arrays, with **no
    /// invariant checking** — the escape hatch [`MeBcrs::validate`]'s own
    /// tests use to construct deliberately corrupt instances. Kernels fed a
    /// matrix built this way may panic or return garbage; run `validate()`
    /// first if the arrays come from anywhere untrusted.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        spec: TcFormatSpec,
        rows: usize,
        cols: usize,
        window_ptr: Vec<usize>,
        col_indices: Vec<u32>,
        values: Vec<S>,
        nnz: usize,
    ) -> Self {
        MeBcrs { spec, rows, cols, window_ptr, col_indices, values, nnz, validated: false }
    }

    /// Whether this matrix carries the structural-validity witness (see
    /// the field docs): `true` means every [`MeBcrs::validate`] invariant
    /// is known to hold and per-launch re-validation can be skipped.
    #[inline]
    pub fn is_validated(&self) -> bool {
        self.validated
    }

    /// Run [`MeBcrs::validate`] and set the witness when it comes back
    /// clean. Returns the witness state afterwards — `false` means the
    /// arrays are malformed and the witness stays unset.
    pub fn mark_validated(&mut self) -> bool {
        if !self.validated {
            self.validated = self.validate().is_empty();
        }
        self.validated
    }

    /// The format spec (vector height, block width).
    #[inline]
    pub fn spec(&self) -> TcFormatSpec {
        self.spec
    }

    /// Number of matrix rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of matrix columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Nonzeros of the source matrix.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Number of row windows.
    #[inline]
    pub fn num_windows(&self) -> usize {
        self.window_ptr.len() - 1
    }

    /// Total nonzero vectors across all windows.
    #[inline]
    pub fn num_vectors(&self) -> usize {
        self.col_indices.len()
    }

    /// The RowPointers array.
    #[inline]
    pub fn window_ptr(&self) -> &[usize] {
        &self.window_ptr
    }

    /// The ColumnIndices array.
    #[inline]
    pub fn col_indices(&self) -> &[u32] {
        &self.col_indices
    }

    /// The Values array (block-major, ragged last block per window).
    #[inline]
    pub fn values(&self) -> &[S] {
        &self.values
    }

    /// The matrix without its values — what block geometry, value
    /// addresses and therefore kernel counters depend on.
    #[inline]
    pub fn structure(&self) -> Structure<'_> {
        Structure {
            spec: self.spec,
            rows: self.rows,
            window_ptr: &self.window_ptr,
            col_indices: &self.col_indices,
            elem_bytes: S::BYTES,
        }
    }

    /// Nonzero vectors in window `w`.
    #[inline]
    pub fn vectors_in_window(&self, w: usize) -> usize {
        self.structure().vectors_in_window(w)
    }

    /// TC blocks in window `w` (ceil(nv/k)) — no padding blocks exist.
    #[inline]
    pub fn blocks_in_window(&self, w: usize) -> usize {
        self.structure().blocks_in_window(w)
    }

    /// Total TC blocks.
    pub fn num_blocks(&self) -> usize {
        (0..self.num_windows()).map(|w| self.blocks_in_window(w)).sum()
    }

    /// Width (vector count) of block `b` of window `w`; the last block may
    /// be ragged (`1..=k`).
    #[inline]
    pub fn block_width(&self, w: usize, b: usize) -> usize {
        self.structure().block_width(w, b)
    }

    /// Column indices of the vectors in block `b` of window `w`.
    #[inline]
    pub fn block_cols(&self, w: usize, b: usize) -> &[u32] {
        self.structure().block_cols(w, b)
    }

    /// Flat index into `values` of element `(local_row, local_vec)` of
    /// block `b` of window `w`.
    #[inline]
    pub fn value_index(&self, w: usize, b: usize, local_row: usize, local_vec: usize) -> usize {
        self.structure().value_index(w, b, local_row, local_vec)
    }

    /// One row of a TC block, contiguous in `values`.
    #[inline]
    pub fn block_row(&self, w: usize, b: usize, local_row: usize) -> &[S] {
        let start = self.value_index(w, b, local_row, 0);
        &self.values[start..start + self.block_width(w, b)]
    }

    /// Byte address of a value element (values array assumed based at 0) —
    /// for the memory-transaction simulator.
    #[inline]
    pub fn value_addr(&self, w: usize, b: usize, local_row: usize, local_vec: usize) -> u64 {
        self.structure().value_addr(w, b, local_row, local_vec)
    }

    /// Mutable access to the values array (structure is fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [S] {
        &mut self.values
    }

    /// A copy of this matrix's *structure* carrying different values —
    /// how the SDDMM kernel materializes its output directly in the layout
    /// the subsequent SpMM consumes (the paper's Figure 9 pipeline).
    ///
    /// `nnz` of the result counts the non-zero entries of `values`.
    ///
    /// # Panics
    /// Panics if `values` has the wrong length.
    pub fn with_values(&self, values: Vec<S>) -> MeBcrs<S> {
        assert_eq!(values.len(), self.values.len(), "values must match the structure");
        let nnz = values.iter().filter(|v| !v.is_zero()).count();
        MeBcrs {
            spec: self.spec,
            rows: self.rows,
            cols: self.cols,
            window_ptr: self.window_ptr.clone(),
            col_indices: self.col_indices.clone(),
            values,
            nnz,
            // The structure is cloned verbatim, so the witness carries
            // over (validity never depends on the value payload).
            validated: self.validated,
        }
    }

    /// Convert to CSR (entries that are exactly zero inside nonzero vectors
    /// are dropped).
    pub fn to_csr(&self) -> CsrMatrix<S> {
        let v = self.spec.vector_len;
        let mut coo = fs_matrix::CooMatrix::new(self.rows, self.cols);
        for w in 0..self.num_windows() {
            for b in 0..self.blocks_in_window(w) {
                let cols = self.block_cols(w, b);
                for lr in 0..v {
                    let r = w * v + lr;
                    if r >= self.rows {
                        break;
                    }
                    let row = self.block_row(w, b, lr);
                    for (jl, &c) in cols.iter().enumerate() {
                        if !row[jl].is_zero() {
                            coo.push(r, c as usize, row[jl]);
                        }
                    }
                }
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    /// This matrix's values at the positions of `pattern`, as a CSR f32
    /// matrix with exactly that pattern — how an SDDMM output, which
    /// shares its mask's structure, is read back without the `rows × cols`
    /// detour through [`MeBcrs::to_dense`]. Unlike [`MeBcrs::to_csr`] no
    /// entry is dropped: a position whose value is zero (a computed zero,
    /// or one no stored vector covers) reads `0.0`, which is what the
    /// dense expansion holds there.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn gather_f32<T: Scalar>(&self, pattern: &CsrMatrix<T>) -> CsrMatrix<f32> {
        assert_eq!((self.rows, self.cols), (pattern.rows(), pattern.cols()), "shapes must match");
        let (v, k) = (self.spec.vector_len, self.spec.block_k);
        let mut values = Vec::with_capacity(pattern.nnz());
        for r in 0..self.rows {
            let w = r / v;
            let win_cols = &self.col_indices[self.window_ptr[w]..self.window_ptr[w + 1]];
            let stored = |j: usize| self.values[self.value_index(w, j / k, r % v, j % k)];
            // The dense expansion stores no zero, so `-0.0` reads `+0.0` too.
            values.extend(pattern.row_cols(r).iter().map(|c| {
                let x = win_cols.binary_search(c).ok().map(stored);
                x.filter(|x| !x.is_zero()).map_or(0.0, S::to_f32)
            }));
        }
        CsrMatrix::new(
            self.rows,
            self.cols,
            pattern.row_ptr().to_vec(),
            pattern.col_idx().to_vec(),
            values,
        )
    }

    /// Expand back to dense — the correctness oracle for the translation.
    pub fn to_dense(&self) -> DenseMatrix<S> {
        let v = self.spec.vector_len;
        let mut out = DenseMatrix::zeros(self.rows, self.cols);
        for w in 0..self.num_windows() {
            for b in 0..self.blocks_in_window(w) {
                let cols = self.block_cols(w, b);
                for lr in 0..v {
                    let r = w * v + lr;
                    if r >= self.rows {
                        break;
                    }
                    let row = self.block_row(w, b, lr);
                    for (jl, &c) in cols.iter().enumerate() {
                        if !row[jl].is_zero() {
                            out.set(r, c as usize, row[jl]);
                        }
                    }
                }
            }
        }
        out
    }

    /// Bytes occupied by the three arrays (4-byte pointers/indices, the
    /// accounting used for Table 7).
    pub fn footprint_bytes(&self) -> usize {
        self.window_ptr.len() * 4 + self.col_indices.len() * 4 + self.values.len() * S::BYTES
    }

    /// Fill ratio of the stored blocks: original nonzeros over stored
    /// elements (higher = less zero-fill = less redundant compute).
    pub fn fill_ratio(&self) -> f64 {
        if self.values.is_empty() {
            1.0
        } else {
            self.nnz as f64 / self.values.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_matrix::gen::{random_uniform, rmat, RmatConfig};
    use fs_matrix::CooMatrix;

    /// The paper's Figure 2(a) sparse matrix: 16×16 with scattered nonzeros.
    fn figure2_matrix() -> CsrMatrix<f32> {
        // Construct a 16-row matrix whose top and bottom 8-row windows share
        // only some columns, so 16×1 vectors waste space but 8×1 are dense.
        let entries = vec![
            (0u32, 0u32, 1.0f32),
            (1, 2, 2.0),
            (3, 0, 3.0),
            (4, 5, 4.0),
            (6, 2, 5.0),
            (7, 7, 6.0),
            (8, 1, 7.0),
            (9, 3, 8.0),
            (11, 9, 9.0),
            (12, 1, 10.0),
            (14, 11, 11.0),
            (15, 3, 12.0),
        ];
        CsrMatrix::from_coo(&CooMatrix::from_entries(16, 16, entries))
    }

    #[test]
    fn roundtrip_small() {
        let csr = figure2_matrix();
        for spec in [TcFormatSpec::FLASH_FP16, TcFormatSpec::FLASH_TF32, TcFormatSpec::SOTA16_FP16]
        {
            let me = MeBcrs::from_csr(&csr, spec);
            assert_eq!(me.to_dense(), csr.to_dense(), "{spec:?}");
        }
    }

    #[test]
    fn roundtrip_random() {
        for seed in 0..5u64 {
            let coo = random_uniform::<f32>(100, 80, 600, seed);
            let csr = CsrMatrix::from_coo(&coo);
            for spec in
                [TcFormatSpec::FLASH_FP16, TcFormatSpec::FLASH_TF32, TcFormatSpec::SOTA16_FP16]
            {
                let me = MeBcrs::from_csr(&csr, spec);
                assert_eq!(me.to_dense(), csr.to_dense(), "seed={seed} {spec:?}");
                assert_eq!(me.nnz(), csr.nnz());
            }
        }
    }

    #[test]
    fn gather_reads_the_pattern_back_with_zeros_kept() {
        let csr = CsrMatrix::from_coo(&random_uniform::<f32>(37, 29, 200, 3));
        for spec in [TcFormatSpec::FLASH_FP16, TcFormatSpec::FLASH_TF32, TcFormatSpec::SOTA16_FP16]
        {
            let me = MeBcrs::from_csr(&csr, spec);
            // Same structure, some entries now `0`, `-0.0` or negative.
            let salted = me.with_values(
                me.values().iter().enumerate().map(|(i, &x)| [x, 0.0, -0.0, -x][i % 4]).collect(),
            );
            assert!(salted.to_csr().nnz() < csr.nnz(), "to_csr drops the zeros");
            let got = salted.gather_f32(&csr);
            assert_eq!((got.row_ptr(), got.col_idx()), (csr.row_ptr(), csr.col_idx()));
            let dense = salted.to_dense();
            let want: Vec<u32> = csr.iter().map(|(r, c, _)| dense.get(r, c).to_bits()).collect();
            let got: Vec<u32> = got.values().iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{spec:?}");
        }
        // A position no stored vector covers reads zero.
        let empty = MeBcrs::from_csr(&CsrMatrix::<f32>::empty(37, 29), TcFormatSpec::FLASH_FP16);
        assert!(empty.gather_f32(&csr).values().iter().all(|x| x.to_bits() == 0));
    }

    #[test]
    fn vectors_are_sorted_and_distinct_per_window() {
        let csr = CsrMatrix::from_coo(&rmat::<f32>(7, 6, RmatConfig::GRAPH500, false, 3));
        let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
        for w in 0..me.num_windows() {
            let lo = me.window_ptr()[w];
            let hi = me.window_ptr()[w + 1];
            let cols = &me.col_indices()[lo..hi];
            for pair in cols.windows(2) {
                assert!(pair[0] < pair[1], "window {w} columns must be ascending");
            }
        }
    }

    #[test]
    fn eight_vectors_halve_the_fill_zeros() {
        // Table 2's claim: 8×1 vectors have far fewer stored zeros than 16×1.
        let csr = CsrMatrix::from_coo(&rmat::<f32>(9, 4, RmatConfig::GRAPH500, false, 5));
        let me8 = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
        let me16 = MeBcrs::from_csr(&csr, TcFormatSpec::SOTA16_FP16);
        let zeros8 = me8.values().len() - me8.nnz();
        let zeros16 = me16.values().len() - me16.nnz();
        assert!((zeros8 as f64) < 0.65 * zeros16 as f64, "zeros8={zeros8} zeros16={zeros16}");
        assert!(me8.fill_ratio() > me16.fill_ratio());
    }

    #[test]
    fn ragged_last_block() {
        // One window, 10 nonzero vectors, k=8 → widths 8 and 2.
        let entries: Vec<(u32, u32, f32)> = (0..10).map(|j| (0u32, j as u32 * 3, 1.0)).collect();
        let csr = CsrMatrix::from_coo(&CooMatrix::from_entries(8, 32, entries));
        let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
        assert_eq!(me.num_windows(), 1);
        assert_eq!(me.vectors_in_window(0), 10);
        assert_eq!(me.blocks_in_window(0), 2);
        assert_eq!(me.block_width(0, 0), 8);
        assert_eq!(me.block_width(0, 1), 2);
        // No padding: values length is exactly nv * v.
        assert_eq!(me.values().len(), 10 * 8);
        assert_eq!(me.to_dense(), csr.to_dense());
    }

    #[test]
    fn block_rows_are_contiguous_and_correct() {
        let csr = figure2_matrix();
        let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
        let dense = csr.to_dense();
        for w in 0..me.num_windows() {
            for b in 0..me.blocks_in_window(w) {
                let cols = me.block_cols(w, b);
                for lr in 0..8 {
                    let row = me.block_row(w, b, lr);
                    for (jl, &c) in cols.iter().enumerate() {
                        assert_eq!(
                            row[jl],
                            dense.get(w * 8 + lr, c as usize),
                            "w={w} b={b} lr={lr} jl={jl}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn footprint_accounting() {
        let csr = figure2_matrix();
        let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
        let expected =
            me.window_ptr().len() * 4 + me.col_indices().len() * 4 + me.values().len() * 4;
        assert_eq!(me.footprint_bytes(), expected);
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::<f32>::empty(16, 16);
        let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
        assert_eq!(me.num_vectors(), 0);
        assert_eq!(me.num_blocks(), 0);
        assert_eq!(me.to_dense(), csr.to_dense());
    }

    #[test]
    fn validity_witness_follows_provenance() {
        let csr = figure2_matrix();
        let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
        assert!(me.is_validated(), "from_csr is correct by construction");
        assert!(me.with_values(me.values().to_vec()).is_validated(), "structure clone carries it");
        assert!(me.clone().is_validated());

        // Raw assembly starts unwitnessed even when the arrays are fine;
        // mark_validated runs the checks and sets it.
        let mut raw = MeBcrs::from_raw_parts(
            me.spec(),
            me.rows(),
            me.cols(),
            me.window_ptr().to_vec(),
            me.col_indices().to_vec(),
            me.values().to_vec(),
            me.nnz(),
        );
        assert!(!raw.is_validated());
        assert_eq!(raw, me, "the witness is metadata, not part of the value");
        assert!(raw.mark_validated());
        assert!(raw.is_validated());

        // A malformed matrix never earns the witness.
        let mut bad = MeBcrs::<f32>::from_raw_parts(
            TcFormatSpec::FLASH_FP16,
            8,
            8,
            vec![0, 2],
            vec![5, 3], // not ascending
            vec![0.0; 16],
            2,
        );
        assert!(!bad.mark_validated());
        assert!(!bad.is_validated());
    }

    /// The two-pass translation `from_csr` ran before it was rebuilt on
    /// [`WindowPattern`] — per-window `Vec`s, one binary search per
    /// nonzero — kept as the oracle for the arrays it must reproduce.
    fn from_csr_reference<S: Scalar>(csr: &CsrMatrix<S>, spec: TcFormatSpec) -> MeBcrs<S> {
        use rayon::prelude::*;
        let v = spec.vector_len;
        let rows = csr.rows();
        let num_windows = spec.num_windows(rows);
        let window_cols: Vec<Vec<u32>> = (0..num_windows)
            .into_par_iter()
            .map(|w| {
                let lo = w * v;
                let hi = ((w + 1) * v).min(rows);
                let mut cols: Vec<u32> =
                    (lo..hi).flat_map(|r| csr.row_cols(r).iter().copied()).collect();
                cols.sort_unstable();
                cols.dedup();
                cols
            })
            .collect();
        let mut window_ptr = vec![0usize];
        for wc in &window_cols {
            window_ptr.push(window_ptr[window_ptr.len() - 1] + wc.len());
        }
        let col_indices: Vec<u32> = window_cols.iter().flatten().copied().collect();
        let mut values = vec![S::ZERO; col_indices.len() * v];
        for (w, wc) in window_cols.iter().enumerate() {
            let slice = &mut values[window_ptr[w] * v..window_ptr[w + 1] * v];
            let nv = wc.len();
            let lo = w * v;
            for r in lo..((w + 1) * v).min(rows) {
                for (&c, &val) in csr.row_cols(r).iter().zip(csr.row_values(r)) {
                    let j = wc.binary_search(&c).expect("column must be a nonzero vector");
                    let b = j / spec.block_k;
                    let jl = j - b * spec.block_k;
                    let w_b = spec.block_k.min(nv - b * spec.block_k);
                    slice[b * spec.block_k * v + (r - lo) * w_b + jl] = val;
                }
            }
        }
        let mut me = MeBcrs::from_raw_parts(
            spec,
            rows,
            csr.cols(),
            window_ptr,
            col_indices,
            values,
            csr.nnz(),
        );
        assert!(me.mark_validated());
        me
    }

    /// Arrays, `nnz` and witness, values compared as f32 bit patterns.
    fn assert_same_bytes<S: Scalar>(got: &MeBcrs<S>, want: &MeBcrs<S>) {
        assert_eq!((got.spec(), got.rows(), got.cols()), (want.spec(), want.rows(), want.cols()));
        assert_eq!(got.window_ptr(), want.window_ptr());
        assert_eq!(got.col_indices(), want.col_indices());
        let bits =
            |m: &MeBcrs<S>| m.values().iter().map(|x| x.to_f32().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want));
        assert_eq!((got.nnz(), got.is_validated()), (want.nnz(), want.is_validated()));
    }

    /// A CSR with the shapes translation must get right: empty rows and
    /// whole empty windows, a ragged last window, fewer rows than one
    /// window, one dense row, columns shared by a window's rows, and
    /// values whose bit patterns a careless cast would lose.
    fn awkward_csr(rows: usize, cols: usize, per_row: usize, seed: u64) -> CsrMatrix<f32> {
        const SPECIAL: [f32; 6] = [-0.0, f32::NAN, 1e-41, -1e-41, 65520.0, f32::INFINITY];
        let mut rng = proptest::test_runner::TestRng::deterministic(&format!("awkward-{seed}"));
        let mut pick = |bound: usize| rng.below(bound as u128) as usize;
        let dense_row = pick(rows);
        let empty_from = pick(rows + 1);
        let mut coo = CooMatrix::new(rows, cols);
        let value = |slot: usize| {
            if slot.is_multiple_of(5) {
                SPECIAL[slot / 5 % SPECIAL.len()]
            } else {
                (slot % 23) as f32 * 0.37 - 4.0
            }
        };
        for r in 0..rows {
            if r == dense_row {
                (0..cols).for_each(|c| coo.push(r, c, value(r + c)));
            } else if r % 3 != 0 && !(empty_from..empty_from + 17).contains(&r) {
                // A few columns per window, so its rows collide on them.
                let base = pick(cols);
                (0..per_row)
                    .for_each(|i| coo.push(r, (base + i * (1 + r % 4)) % cols, value(r * 31 + i)));
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    const ALL_SPECS: [TcFormatSpec; 6] = [
        TcFormatSpec::FLASH_FP16,
        TcFormatSpec::FLASH_FP16_K16,
        TcFormatSpec::FLASH_TF32,
        TcFormatSpec::SOTA16_FP16,
        TcFormatSpec::SOTA16_TF32,
        TcFormatSpec::TCGNN_WMMA,
    ];

    fn translation_is_the_same_bytes<S: Scalar>(csr: &CsrMatrix<f32>, lo: usize) {
        let cast = csr.cast::<S>();
        for spec in ALL_SPECS {
            let want = from_csr_reference(&cast, spec);
            assert_same_bytes(&MeBcrs::from_csr(&cast, spec), &want);
            assert_same_bytes(&MeBcrs::<S>::from_csr_cast(csr, spec), &want);
            // A row range is the translation of that slice.
            let lo = lo.min(csr.rows());
            let want = from_csr_reference(&cast.slice_rows(lo, csr.rows()), spec);
            assert_same_bytes(&MeBcrs::<S>::from_csr_rows_cast(csr, lo..csr.rows(), spec), &want);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn from_csr_is_the_reference_bytes(
            rows in 1usize..70,
            cols in 1usize..90,
            per_row in 0usize..9,
            lo in 0usize..70,
            seed in 0u64..1_000_000,
        ) {
            let csr = awkward_csr(rows, cols, per_row, seed);
            translation_is_the_same_bytes::<fs_precision::F16>(&csr, lo);
            translation_is_the_same_bytes::<fs_precision::Tf32>(&csr, lo);
            translation_is_the_same_bytes::<f32>(&csr, lo);
        }
    }

    #[test]
    fn unsorted_and_repeated_columns_translate_like_the_reference() {
        // `CsrMatrix::new` does not require ascending or distinct columns
        // within a row; the last value written to a slot wins.
        let csr = CsrMatrix::new(
            3,
            12,
            vec![0, 5, 5, 9],
            vec![9, 2, 9, 0, 11, 4, 3, 3, 10],
            vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
        );
        for spec in ALL_SPECS {
            assert_same_bytes(&MeBcrs::from_csr(&csr, spec), &from_csr_reference(&csr, spec));
        }
    }

    #[test]
    fn rows_not_multiple_of_window() {
        let coo = random_uniform::<f32>(13, 20, 40, 1);
        let csr = CsrMatrix::from_coo(&coo);
        let me = MeBcrs::from_csr(&csr, TcFormatSpec::FLASH_FP16);
        assert_eq!(me.num_windows(), 2);
        assert_eq!(me.to_dense(), csr.to_dense());
    }
}
