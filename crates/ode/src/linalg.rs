//! Minimal linear algebra for Newton polishing of truncated fixed-point
//! systems.
//!
//! [`BandMatrix`] and [`BorderedLu`] are what [`crate::newton_solve`]
//! factors: a banded matrix with partial pivoting, plus a few dense
//! "global" columns folded in by bordering. Their cost is linear in the
//! dimension, so thousands of truncation levels are cheap.
//! [`DenseMatrix`] and its [`Lu`] are the O(n³) reference they are
//! tested against.

/// A dense, row-major `n × n` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Create the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Create a matrix from a row-major slice of length `n * n`.
    ///
    /// # Panics
    /// Panics if `data.len() != n * n`.
    pub fn from_rows(n: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), n * n, "DenseMatrix: wrong data length");
        Self {
            n,
            data: data.to_vec(),
        }
    }

    /// Matrix order `n`.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Matrix–vector product `A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != n`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut out = vec![0.0; self.n];
        for (i, oi) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            *oi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Factor `A = P L U` in place. Fails on (numerical) singularity.
    pub fn lu(self) -> Result<Lu, SingularMatrix> {
        Lu::factor(self)
    }

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.n && c < self.n);
        r * self.n + c
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[self.idx(r, c)]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        let i = self.idx(r, c);
        &mut self.data[i]
    }
}

/// Error returned when a matrix is singular to working precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix {
    /// The elimination column at which no usable pivot was found.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

/// An LU factorization with partial pivoting (`P A = L U`).
#[derive(Debug, Clone)]
pub struct Lu {
    lu: DenseMatrix,
    piv: Vec<usize>,
}

impl Lu {
    /// Factor the given matrix (consumed; the factors share its storage).
    pub fn factor(mut a: DenseMatrix) -> Result<Self, SingularMatrix> {
        let n = a.n;
        let mut piv: Vec<usize> = (0..n).collect();
        for col in 0..n {
            // Partial pivoting: find the largest entry in this column.
            let mut p = col;
            let mut best = a[(col, col)].abs();
            for r in (col + 1)..n {
                let v = a[(r, col)].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best <= 0.0 || !best.is_finite() {
                return Err(SingularMatrix { column: col });
            }
            if p != col {
                for c in 0..n {
                    let (i, j) = (a.idx(col, c), a.idx(p, c));
                    a.data.swap(i, j);
                }
                piv.swap(col, p);
            }
            let pivot = a[(col, col)];
            for r in (col + 1)..n {
                let m = a[(r, col)] / pivot;
                a[(r, col)] = m;
                if m != 0.0 {
                    // Row update: split the two disjoint row slices so the
                    // inner loop is bounds-check free.
                    let (upper, lower) = a.data.split_at_mut(r * n);
                    let pivot_row = &upper[col * n..col * n + n];
                    let row = &mut lower[..n];
                    for c in (col + 1)..n {
                        row[c] -= m * pivot_row[c];
                    }
                }
            }
        }
        Ok(Self { lu: a, piv })
    }

    /// Solve `A x = b`, overwriting `b` with `x`.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the matrix order.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.lu.n;
        assert_eq!(b.len(), n, "Lu::solve_in_place: wrong rhs length");
        // Apply the permutation.
        let permuted: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        b.copy_from_slice(&permuted);
        // Forward substitution with unit lower-triangular L.
        for i in 0..n {
            let row = &self.lu.data[i * n..i * n + i];
            let dot: f64 = row.iter().zip(&b[..i]).map(|(l, x)| l * x).sum();
            b[i] -= dot;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let row = &self.lu.data[i * n + i..(i + 1) * n];
            let dot: f64 = row[1..].iter().zip(&b[i + 1..]).map(|(u, x)| u * x).sum();
            b[i] = (b[i] - dot) / row[0];
        }
    }

    /// Solve `A x = b`, returning `x`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

/// A square `n × n` band matrix: entry `(r, c)` may be nonzero only for
/// `r − lower ≤ c ≤ r + upper`.
///
/// Rows are stored with `lower` extra columns of head-room on the
/// right, which is where the row swaps of partial pivoting put their
/// fill-in, so the factorization works in place. Storage and
/// factorization cost are linear in `n` for a fixed bandwidth.
#[derive(Debug, Clone)]
pub struct BandMatrix {
    n: usize,
    lower: usize,
    upper: usize,
    width: usize,
    data: Vec<f64>,
}

impl BandMatrix {
    /// Create an `n × n` zero band matrix. Bandwidths are clamped to
    /// `n − 1`, so `zeros(n, n, n)` is a full matrix.
    pub fn zeros(n: usize, lower: usize, upper: usize) -> Self {
        let cap = n.saturating_sub(1);
        let (lower, upper) = (lower.min(cap), upper.min(cap));
        let width = (2 * lower + upper + 1).min(n);
        Self {
            n,
            lower,
            upper,
            width,
            data: vec![0.0; n * width],
        }
    }

    /// Whether `(r, c)` lies inside the declared band.
    pub fn in_band(&self, r: usize, c: usize) -> bool {
        c + self.lower >= r && c <= r + self.upper
    }

    /// First stored column of row `r`.
    #[inline]
    fn first(&self, r: usize) -> usize {
        r.saturating_sub(self.lower)
    }

    /// Last column of row `r` that elimination can reach (band plus
    /// pivoting fill-in).
    #[inline]
    fn last(&self, r: usize) -> usize {
        (r + self.lower + self.upper).min(self.n - 1)
    }

    #[inline]
    fn idx(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.n && c >= self.first(r) && c <= self.last(r));
        r * self.width + c - self.first(r)
    }
}

impl std::ops::Index<(usize, usize)> for BandMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.n && c < self.n && self.in_band(r, c),
            "BandMatrix: ({r}, {c}) is outside the band"
        );
        &self.data[self.idx(r, c)]
    }
}

impl std::ops::IndexMut<(usize, usize)> for BandMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.n && c < self.n && self.in_band(r, c),
            "BandMatrix: ({r}, {c}) is outside the band"
        );
        let i = self.idx(r, c);
        &mut self.data[i]
    }
}

/// A banded LU factorization with partial pivoting (LAPACK `gbtrf`
/// style: the row interchange of step `k` is recorded, not applied to
/// the multipliers of earlier steps).
#[derive(Debug, Clone)]
pub(crate) struct BandLu {
    /// `U` in the band-plus-fill-in rows of the factored matrix.
    u: BandMatrix,
    /// Multipliers of step `k` at `l[k * lower ..][..lower]`.
    l: Vec<f64>,
    /// Row interchanged with row `k` at step `k`.
    piv: Vec<usize>,
}

impl BandLu {
    /// Factor the given band matrix (consumed; `U` shares its storage).
    pub(crate) fn factor(mut a: BandMatrix) -> Result<Self, SingularMatrix> {
        let (n, kl) = (a.n, a.lower);
        let mut l = vec![0.0; n * kl];
        let mut piv = vec![0; n];
        for col in 0..n {
            let bottom = (col + kl).min(n - 1);
            let mut p = col;
            let mut best = a.data[a.idx(col, col)].abs();
            for r in (col + 1)..=bottom {
                let v = a.data[a.idx(r, col)].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best <= 0.0 || !best.is_finite() {
                return Err(SingularMatrix { column: col });
            }
            piv[col] = p;
            let right = a.last(col);
            if p != col {
                for c in col..=right {
                    let (i, j) = (a.idx(col, c), a.idx(p, c));
                    a.data.swap(i, j);
                }
            }
            let pivot = a.data[a.idx(col, col)];
            let span = right - col;
            for r in (col + 1)..=bottom {
                let at = a.idx(r, col);
                let m = a.data[at] / pivot;
                l[col * kl + (r - col - 1)] = m;
                if m != 0.0 {
                    // Columns col+1..=right are contiguous in both rows;
                    // split the storage so the inner loop is bounds-check
                    // free.
                    let from = a.idx(col, col) + 1;
                    let (head, tail) = a.data.split_at_mut(at + 1);
                    let pivot_row = &head[from..from + span];
                    for (x, p) in tail[..span].iter_mut().zip(pivot_row) {
                        *x -= m * p;
                    }
                }
            }
        }
        Ok(Self { u: a, l, piv })
    }

    /// Solve `A x = b`, overwriting `b` with `x`.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the matrix order.
    pub(crate) fn solve_in_place(&self, b: &mut [f64]) {
        let (n, kl) = (self.u.n, self.u.lower);
        assert_eq!(b.len(), n, "BandLu::solve_in_place: wrong rhs length");
        // Forward: interleave the recorded interchanges with unit-lower
        // elimination.
        for k in 0..n {
            b.swap(k, self.piv[k]);
            let bk = b[k];
            if bk != 0.0 {
                let below = kl.min(n - 1 - k);
                for (x, m) in b[k + 1..=k + below].iter_mut().zip(&self.l[k * kl..]) {
                    *x -= m * bk;
                }
            }
        }
        // Back substitution with U (row i spans columns i..=last(i)).
        for i in (0..n).rev() {
            let start = self.u.idx(i, i);
            let row = &self.u.data[start..=start + (self.u.last(i) - i)];
            let dot: f64 = row[1..].iter().zip(&b[i + 1..]).map(|(u, x)| u * x).sum();
            b[i] = (b[i] - dot) / row[0];
        }
    }
}

/// An LU solver for `M = A + Σ_k c_k e_{j_k}ᵀ`: a band matrix `A` plus
/// dense corrections `c_k` to a few columns `j_k`.
///
/// The band is factored once; the corrections are folded in by
/// bordering (Sherman–Morrison–Woodbury): with `Z = A⁻¹C` (k band
/// solves) and the `k × k` capacitance matrix `S = I + EᵀZ`,
/// `M⁻¹b = y − Z S⁻¹ Eᵀy` where `y = A⁻¹b`.
#[derive(Debug, Clone)]
pub struct BorderedLu {
    band: BandLu,
    cols: Vec<usize>,
    /// `Z = A⁻¹C`, column-major (`n × k`).
    z: Vec<f64>,
    /// `S = I + EᵀZ`, factored as a full `k × k` band.
    capacitance: Option<BandLu>,
}

impl BorderedLu {
    /// Factor `a` plus the corrections: `extra[k * n..][..n]` is added
    /// to column `cols[k]`. An empty `cols` reduces to the band LU.
    ///
    /// # Panics
    /// Panics if `extra.len() != cols.len() * n` or a column is out of
    /// range.
    pub fn factor(
        a: BandMatrix,
        cols: Vec<usize>,
        extra: Vec<f64>,
    ) -> Result<Self, SingularMatrix> {
        let n = a.n;
        let k = cols.len();
        assert_eq!(
            extra.len(),
            k * n,
            "BorderedLu::factor: wrong correction length"
        );
        assert!(
            cols.iter().all(|&c| c < n),
            "BorderedLu::factor: column out of range"
        );
        let band = BandLu::factor(a)?;
        let mut z = extra;
        for zk in z.chunks_exact_mut(n) {
            band.solve_in_place(zk);
        }
        let capacitance = if k == 0 {
            None
        } else {
            let mut s = BandMatrix::zeros(k, k, k);
            for (b, zb) in z.chunks_exact(n).enumerate() {
                for (a, &col) in cols.iter().enumerate() {
                    s[(a, b)] = zb[col] + if a == b { 1.0 } else { 0.0 };
                }
            }
            Some(BandLu::factor(s).map_err(|e| SingularMatrix {
                column: cols[e.column],
            })?)
        };
        Ok(Self {
            band,
            cols,
            z,
            capacitance,
        })
    }

    /// Solve `M x = b`, overwriting `b` with `x`.
    ///
    /// # Panics
    /// Panics if `b.len()` differs from the matrix order.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        self.band.solve_in_place(b);
        if let Some(s) = &self.capacitance {
            let mut t: Vec<f64> = self.cols.iter().map(|&c| b[c]).collect();
            s.solve_in_place(&mut t);
            for (zk, tk) in self.z.chunks_exact(b.len()).zip(t) {
                for (x, z) in b.iter_mut().zip(zk) {
                    *x -= z * tk;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_small_system() {
        // [2 1; 1 3] x = [3; 5]  =>  x = [0.8, 1.4]
        let a = DenseMatrix::from_rows(2, &[2.0, 1.0, 1.0, 3.0]);
        let lu = a.lu().unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn identity_solves_to_rhs() {
        let lu = DenseMatrix::identity(4).lu().unwrap();
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = lu.solve(&b);
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Leading entry is zero; naive elimination would divide by 0.
        let a = DenseMatrix::from_rows(2, &[0.0, 1.0, 1.0, 0.0]);
        let lu = a.lu().unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = DenseMatrix::from_rows(2, &[1.0, 2.0, 2.0, 4.0]);
        assert!(a.lu().is_err());
    }

    #[test]
    fn residual_is_small_for_random_like_matrix() {
        // Deterministic pseudo-random fill via a linear congruential
        // generator; checks A x ≈ b with a residual test.
        let n = 25;
        let mut seed: u64 = 0x9E3779B97F4A7C15;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut a = DenseMatrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 4.0; // diagonally dominant => well conditioned
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let a2 = a.clone();
        let x = a.lu().unwrap().solve(&b);
        let ax = a2.mul_vec(&x);
        let resid: f64 = ax
            .iter()
            .zip(&b)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max);
        assert!(resid < 1e-11, "residual {resid}");
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = DenseMatrix::from_rows(2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }
}
