//! Row-major dense matrices generic over storage precision.

use fs_precision::Scalar;

/// A row-major dense matrix with entries of storage precision `S`.
///
/// All arithmetic in the workspace accumulates in `f32` regardless of `S`,
/// mirroring the tensor-core datapath, so this type only stores and converts.
#[derive(Clone, Debug, PartialEq)]
pub struct DenseMatrix<S: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<S>,
}

impl<S: Scalar> DenseMatrix<S> {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![S::ZERO; rows * cols] }
    }

    /// Build from a generator function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(S::from_f32(f(r, c)));
            }
        }
        DenseMatrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<S>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        DenseMatrix { rows, cols, data }
    }

    /// Wrap an existing row-major buffer, or `None` when its length is not
    /// `rows * cols` — the constructor for dimensions that arrive from
    /// outside the program.
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<S>) -> Option<Self> {
        (rows.checked_mul(cols) == Some(data.len())).then_some(DenseMatrix { rows, cols, data })
    }

    /// Build from f32 values, rounding each into `S`.
    pub fn from_f32_slice(rows: usize, cols: usize, values: &[f32]) -> Self {
        assert_eq!(values.len(), rows * cols);
        DenseMatrix { rows, cols, data: values.iter().map(|&v| S::from_f32(v)).collect() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Entry at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> S {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Entry at `(row, col)` widened to f32.
    #[inline]
    pub fn get_f32(&self, row: usize, col: usize) -> f32 {
        self.get(row, col).to_f32()
    }

    /// Set the entry at `(row, col)`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: S) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// A row as a slice.
    #[inline]
    pub fn row(&self, row: usize) -> &[S] {
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// A mutable row slice.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [S] {
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// The whole backing buffer, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[S] {
        &self.data
    }

    /// Give up the backing buffer, row-major, without copying it.
    pub fn into_vec(self) -> Vec<S> {
        self.data
    }

    /// Mutable backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// The byte address of entry `(row, col)` assuming the buffer starts at
    /// address 0 — used by the memory-transaction simulator.
    #[inline]
    pub fn addr_of(&self, row: usize, col: usize) -> u64 {
        ((row * self.cols + col) * S::BYTES) as u64
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Convert every entry to a different storage precision.
    pub fn cast<T: Scalar>(&self) -> DenseMatrix<T> {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| T::from_f32(v.to_f32())).collect(),
        }
    }

    /// Copy out as f32 values, row-major.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        self.data.iter().map(|v| v.to_f32()).collect()
    }

    /// Reference dense GEMM: `self × rhs` with f32 accumulation. Gold kernel
    /// for test oracles; O(m·n·k), no blocking.
    pub fn matmul<T: Scalar>(&self, rhs: &DenseMatrix<T>) -> DenseMatrix<f32> {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get_f32(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let cur = out.get(i, j);
                    out.set(i, j, cur + a * rhs.get_f32(k, j));
                }
            }
        }
        out
    }

    /// Maximum absolute difference against another matrix (any precision).
    pub fn max_abs_diff<T: Scalar>(&self, other: &DenseMatrix<T>) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a.to_f32() - b.to_f32()).abs())
            .fold(0.0, f32::max)
    }

    /// Relative Frobenius-norm difference `‖self−other‖_F / max(‖other‖_F, ε)`.
    pub fn rel_frob_diff<T: Scalar>(&self, other: &DenseMatrix<T>) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for (a, b) in self.data.iter().zip(other.data.iter()) {
            let d = (a.to_f32() - b.to_f32()) as f64;
            num += d * d;
            den += (b.to_f32() as f64).powi(2);
        }
        (num.sqrt() / den.sqrt().max(1e-30)) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_precision::F16;

    #[test]
    fn construction_and_access() {
        let mut m = DenseMatrix::<f32>::zeros(3, 4);
        assert_eq!((m.rows(), m.cols(), m.len()), (3, 4, 12));
        m.set(2, 3, 7.5);
        assert_eq!(m.get(2, 3), 7.5);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.row(2), &[0.0, 0.0, 0.0, 7.5]);
    }

    #[test]
    fn try_from_vec_checks_the_length_and_into_vec_returns_the_buffer() {
        let m = DenseMatrix::<f32>::try_from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).expect("2x2");
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert!(DenseMatrix::<f32>::try_from_vec(2, 2, vec![0.0; 3]).is_none());
        assert!(DenseMatrix::<f32>::try_from_vec(usize::MAX, 2, vec![]).is_none());
        assert!(DenseMatrix::<f32>::try_from_vec(1 << 40, 0, vec![]).is_some());
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = DenseMatrix::<f32>::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn transpose_involutive() {
        let m = DenseMatrix::<f32>::from_fn(4, 7, |r, c| (r * 31 + c * 3) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().get(3, 2), m.get(2, 3));
    }

    #[test]
    fn matmul_identity() {
        let a = DenseMatrix::<f32>::from_fn(3, 3, |r, c| if r == c { 1.0 } else { 0.0 });
        let b = DenseMatrix::<f32>::from_fn(3, 3, |r, c| (r + 2 * c) as f32);
        let c = a.matmul(&b);
        assert_eq!(c.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn matmul_known_values() {
        // [1 2; 3 4] × [5 6; 7 8] = [19 22; 43 50]
        let a = DenseMatrix::<f32>::from_f32_slice(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = DenseMatrix::<f32>::from_f32_slice(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn cast_rounds_precision() {
        let m = DenseMatrix::<f32>::from_f32_slice(1, 2, &[1.0, 2049.0]);
        let h: DenseMatrix<F16> = m.cast();
        assert_eq!(h.get_f32(0, 0), 1.0);
        assert_eq!(h.get_f32(0, 1), 2048.0); // rounded to even
    }

    #[test]
    fn addr_of_respects_element_size() {
        let m = DenseMatrix::<F16>::zeros(4, 8);
        assert_eq!(m.addr_of(0, 0), 0);
        assert_eq!(m.addr_of(0, 3), 6);
        assert_eq!(m.addr_of(1, 0), 16);
        let m32 = DenseMatrix::<f32>::zeros(4, 8);
        assert_eq!(m32.addr_of(1, 1), 36);
    }

    #[test]
    fn diff_metrics() {
        let a = DenseMatrix::<f32>::from_f32_slice(1, 3, &[1.0, 2.0, 3.0]);
        let b = DenseMatrix::<f32>::from_f32_slice(1, 3, &[1.0, 2.5, 3.0]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!(a.rel_frob_diff(&a) == 0.0);
        assert!(a.rel_frob_diff(&b) > 0.0);
    }
}
