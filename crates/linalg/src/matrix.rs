//! Dense row-major matrix over GF(2^8) with the operations needed by an RS
//! codec: multiplication, Gauss-Jordan inversion, determinant, rank, row/col
//! elementary operations and sub-matrix selection.

use rpr_gf as gf;

/// A dense `rows × cols` matrix of GF(2^8) elements.
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl core::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:3} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = u8;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &u8 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut u8 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Matrix {
    /// The all-zero `rows × cols` matrix.
    pub fn zero(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "Matrix: dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = 1;
        }
        m
    }

    /// Build a matrix from a row-major nested slice.
    ///
    /// # Panics
    /// Panics if rows are empty or ragged.
    pub fn from_rows(rows: &[&[u8]]) -> Matrix {
        assert!(!rows.is_empty(), "Matrix::from_rows: no rows");
        let cols = rows[0].len();
        assert!(cols > 0, "Matrix::from_rows: empty rows");
        assert!(
            rows.iter().all(|r| r.len() == cols),
            "Matrix::from_rows: ragged rows"
        );
        Matrix {
            rows: rows.len(),
            cols,
            data: rows.concat(),
        }
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

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[u8] {
        assert!(i < self.rows, "Matrix::row: out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow the raw row-major data.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "Matrix::mul: dimension mismatch");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self[(i, l)];
                if a == 0 {
                    continue;
                }
                let row = gf::tables::mul_row(a);
                for j in 0..rhs.cols {
                    out[(i, j)] ^= row[rhs[(l, j)] as usize];
                }
            }
        }
        out
    }

    /// Multiply by a column vector.
    ///
    /// # Panics
    /// Panics if `v.len() != cols`.
    pub fn mul_vec(&self, v: &[u8]) -> Vec<u8> {
        assert_eq!(v.len(), self.cols, "Matrix::mul_vec: dimension mismatch");
        (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(v)
                    .fold(0u8, |acc, (&a, &b)| acc ^ gf::mul(a, b))
            })
            .collect()
    }

    /// Select a sub-matrix by (not necessarily contiguous) row and column
    /// indices.
    ///
    /// # Panics
    /// Panics if any index is out of range or the selections are empty.
    pub fn select(&self, row_idx: &[usize], col_idx: &[usize]) -> Matrix {
        assert!(
            !row_idx.is_empty() && !col_idx.is_empty(),
            "Matrix::select: empty selection"
        );
        let mut out = Matrix::zero(row_idx.len(), col_idx.len());
        for (oi, &i) in row_idx.iter().enumerate() {
            assert!(i < self.rows, "Matrix::select: row out of range");
            for (oj, &j) in col_idx.iter().enumerate() {
                assert!(j < self.cols, "Matrix::select: col out of range");
                out[(oi, oj)] = self[(i, j)];
            }
        }
        out
    }

    /// Select whole rows.
    pub fn select_rows(&self, row_idx: &[usize]) -> Matrix {
        let cols: Vec<usize> = (0..self.cols).collect();
        self.select(row_idx, &cols)
    }

    /// Vertically stack `self` on top of `other`.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "Matrix::vstack: column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Swap two columns in place.
    pub fn swap_cols(&mut self, a: usize, b: usize) {
        assert!(a < self.cols && b < self.cols);
        if a == b {
            return;
        }
        for i in 0..self.rows {
            self.data.swap(i * self.cols + a, i * self.cols + b);
        }
    }

    /// Scale column `j` by nonzero `c` in place.
    pub fn scale_col(&mut self, j: usize, c: u8) {
        assert!(j < self.cols && c != 0);
        for i in 0..self.rows {
            let v = self[(i, j)];
            self[(i, j)] = gf::mul(v, c);
        }
    }

    /// `col[dst] ^= c * col[src]` in place.
    pub fn add_scaled_col(&mut self, src: usize, dst: usize, c: u8) {
        assert!(src < self.cols && dst < self.cols && src != dst);
        for i in 0..self.rows {
            let v = gf::mul(self[(i, src)], c);
            self[(i, dst)] ^= v;
        }
    }

    /// Gauss-Jordan inversion. Returns `None` if the matrix is singular.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "Matrix::inverse: not square");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find pivot.
            let pivot = (col..n).find(|&r| a[(r, col)] != 0)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            let p_inv = gf::inv(a[(col, col)]);
            if p_inv != 1 {
                a.scale_row(col, p_inv);
                inv.scale_row(col, p_inv);
            }
            for r in 0..n {
                if r != col && a[(r, col)] != 0 {
                    let factor = a[(r, col)];
                    a.add_scaled_row(col, r, factor);
                    inv.add_scaled_row(col, r, factor);
                }
            }
        }
        Some(inv)
    }

    /// Determinant via Gaussian elimination (returns 0 when singular).
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn determinant(&self) -> u8 {
        assert_eq!(self.rows, self.cols, "Matrix::determinant: not square");
        let n = self.rows;
        let mut a = self.clone();
        let mut det = 1u8;
        for col in 0..n {
            let Some(pivot) = (col..n).find(|&r| a[(r, col)] != 0) else {
                return 0;
            };
            if pivot != col {
                a.swap_rows(pivot, col);
                // In GF(2^m), -1 == 1, so row swaps do not change the sign.
            }
            det = gf::mul(det, a[(col, col)]);
            let p_inv = gf::inv(a[(col, col)]);
            for r in col + 1..n {
                if a[(r, col)] != 0 {
                    let factor = gf::mul(a[(r, col)], p_inv);
                    for c in col..n {
                        let v = gf::mul(a[(col, c)], factor);
                        a[(r, c)] ^= v;
                    }
                }
            }
        }
        det
    }

    /// Rank via Gaussian elimination.
    pub fn rank(&self) -> usize {
        let mut a = self.clone();
        let mut rank = 0;
        let mut row = 0;
        for col in 0..a.cols {
            let Some(pivot) = (row..a.rows).find(|&r| a[(r, col)] != 0) else {
                continue;
            };
            a.swap_rows(pivot, row);
            let p_inv = gf::inv(a[(row, col)]);
            for r in row + 1..a.rows {
                if a[(r, col)] != 0 {
                    let factor = gf::mul(a[(r, col)], p_inv);
                    for c in col..a.cols {
                        let v = gf::mul(a[(row, c)], factor);
                        a[(r, c)] ^= v;
                    }
                }
            }
            rank += 1;
            row += 1;
            if row == a.rows {
                break;
            }
        }
        rank
    }

    /// True if square and invertible.
    pub fn is_invertible(&self) -> bool {
        self.rows == self.cols && self.determinant() != 0
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }

    fn scale_row(&mut self, i: usize, c: u8) {
        let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
        for v in row {
            *v = gf::mul(*v, c);
        }
    }

    /// `row[dst] ^= c * row[src]`.
    fn add_scaled_row(&mut self, src: usize, dst: usize, c: u8) {
        debug_assert_ne!(src, dst);
        let cols = self.cols;
        let row_tbl = gf::tables::mul_row(c);
        let (a, b) = if src < dst {
            let (head, tail) = self.data.split_at_mut(dst * cols);
            (&head[src * cols..(src + 1) * cols], &mut tail[..cols])
        } else {
            let (head, tail) = self.data.split_at_mut(src * cols);
            let a = &tail[..cols];
            let b = &mut head[dst * cols..(dst + 1) * cols];
            (a, b)
        };
        for (bv, &av) in b.iter_mut().zip(a) {
            *bv ^= row_tbl[av as usize];
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, reason = "tests of Matrix::inverse itself")]
mod tests {
    use super::*;

    fn example() -> Matrix {
        Matrix::from_rows(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 10]])
    }

    #[test]
    fn identity_multiplication_is_neutral() {
        let m = example();
        let i = Matrix::identity(3);
        assert_eq!(m.mul(&i), m);
        assert_eq!(i.mul(&m), m);
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let m = example();
        let inv = m.inverse().expect("example is invertible");
        assert_eq!(m.mul(&inv), Matrix::identity(3));
        assert_eq!(inv.mul(&m), Matrix::identity(3));
    }

    #[test]
    fn singular_matrix_has_no_inverse_and_zero_det() {
        let m = Matrix::from_rows(&[&[1, 2], &[1, 2]]);
        assert!(m.inverse().is_none());
        assert_eq!(m.determinant(), 0);
        assert!(!m.is_invertible());
        assert_eq!(m.rank(), 1);
    }

    #[test]
    fn determinant_of_identity_and_diagonal() {
        assert_eq!(Matrix::identity(4).determinant(), 1);
        let mut d = Matrix::zero(2, 2);
        d[(0, 0)] = 3;
        d[(1, 1)] = 7;
        assert_eq!(d.determinant(), rpr_gf::mul(3, 7));
    }

    #[test]
    fn mul_vec_matches_matrix_product() {
        let m = example();
        let v = [9u8, 11, 13];
        let got = m.mul_vec(&v);
        // Compare against explicit column-matrix product.
        let col = Matrix::from_rows(&[&[9], &[11], &[13]]);
        let prod = m.mul(&col);
        for i in 0..3 {
            assert_eq!(got[i], prod[(i, 0)]);
        }
    }

    #[test]
    fn select_extracts_submatrix() {
        let m = example();
        let s = m.select(&[0, 2], &[1, 2]);
        assert_eq!(s[(0, 0)], 2);
        assert_eq!(s[(0, 1)], 3);
        assert_eq!(s[(1, 0)], 8);
        assert_eq!(s[(1, 1)], 10);
        let r = m.select_rows(&[1]);
        assert_eq!(r.row(0), &[4, 5, 6]);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let a = Matrix::from_rows(&[&[1, 2]]);
        let b = Matrix::from_rows(&[&[3, 4], &[5, 6]]);
        let s = a.vstack(&b);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(2), &[5, 6]);
    }

    #[test]
    fn column_operations() {
        let mut m = example();
        let orig = m.clone();
        m.swap_cols(0, 2);
        assert_eq!(m[(0, 0)], orig[(0, 2)]);
        m.swap_cols(0, 2);
        assert_eq!(m, orig);

        m.scale_col(1, 2);
        assert_eq!(m[(0, 1)], rpr_gf::mul(2, orig[(0, 1)]));

        let mut m2 = orig.clone();
        m2.add_scaled_col(0, 1, 3);
        for i in 0..3 {
            assert_eq!(m2[(i, 1)], orig[(i, 1)] ^ rpr_gf::mul(3, orig[(i, 0)]));
        }
    }

    #[test]
    fn rank_of_structured_matrices() {
        assert_eq!(Matrix::identity(5).rank(), 5);
        assert_eq!(Matrix::zero(3, 4).rank(), 0);
        // A wide matrix with independent rows.
        let m = Matrix::from_rows(&[&[1, 0, 0, 5], &[0, 1, 0, 6]]);
        assert_eq!(m.rank(), 2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_rejects_mismatched_shapes() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        let _ = a.mul(&b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged_input() {
        let _ = Matrix::from_rows(&[&[1, 2], &[3]]);
    }

    #[test]
    fn debug_format_is_stable() {
        let m = Matrix::identity(2);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 2x2"));
    }
}
