//! Declared Jacobian sparsity and its coloured finite-difference
//! estimate.
//!
//! The right-hand side of a truncated mean-field family couples each
//! level only to a few neighbouring levels plus a handful of global
//! quantities (`s_1`, `s_2`, `s_T`, …). A [`JacobianPattern`] declares
//! that structure: a band `[p − lower, p + upper]` around each row, a
//! few dense global columns, and optionally an ordering of the state
//! under which the band holds (level-major for multi-class states).
//!
//! The Jacobian is then estimated by Curtis–Powell–Reid column
//! colouring: band columns `q ≡ c (mod lower + upper + 1)` touch
//! disjoint rows, so one perturbed evaluation recovers all of them, and
//! each global column gets an evaluation of its own — about
//! `bandwidth + #globals` evaluations instead of `dim`.

use crate::linalg::{BandMatrix, DenseMatrix};

/// The sparsity of `∂F/∂x` for an `F: ℝⁿ → ℝⁿ`.
///
/// Positions `p` index the state in the pattern's ordering: position
/// `p` holds state entry `order[p]` (the identity when no ordering is
/// set). Row `p` may depend on the columns in `[p − lower, p + upper]`
/// and on every global column; global columns are named by state
/// index.
#[derive(Debug, Clone)]
pub struct JacobianPattern {
    dim: usize,
    lower: usize,
    upper: usize,
    globals: Vec<usize>,
    order: Option<Vec<usize>>,
}

impl JacobianPattern {
    /// A band of `lower` sub- and `upper` super-diagonals (clamped to
    /// `dim − 1`), no global columns, natural ordering.
    pub fn banded(dim: usize, lower: usize, upper: usize) -> Self {
        let cap = dim.saturating_sub(1);
        Self {
            dim,
            lower: lower.min(cap),
            upper: upper.min(cap),
            globals: Vec::new(),
            order: None,
        }
    }

    /// No structure: every entry may be nonzero (`dim` evaluations per
    /// Jacobian, a full LU). The reference the coloured estimate of any
    /// other pattern must reproduce.
    pub fn dense(dim: usize) -> Self {
        Self::banded(dim, dim, dim)
    }

    /// Add dense global columns, named by state index.
    ///
    /// # Panics
    /// Panics if an index is `≥ dim`.
    pub fn with_globals(mut self, cols: impl IntoIterator<Item = usize>) -> Self {
        self.globals.extend(cols);
        assert!(
            self.globals.iter().all(|&g| g < self.dim),
            "JacobianPattern: global column out of range"
        );
        self.globals.sort_unstable();
        self.globals.dedup();
        self
    }

    /// Set the ordering under which the band holds: position `p` holds
    /// state entry `order[p]`.
    ///
    /// # Panics
    /// Panics if `order` is not a permutation of `0..dim`.
    pub fn with_order(mut self, order: Vec<usize>) -> Self {
        let mut seen = vec![false; self.dim];
        assert_eq!(order.len(), self.dim, "JacobianPattern: wrong order length");
        for &s in &order {
            assert!(
                s < self.dim && !std::mem::replace(&mut seen[s], true),
                "JacobianPattern: order is not a permutation"
            );
        }
        self.order = Some(order);
        self
    }

    /// State dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Global columns, by state index (sorted).
    pub fn globals(&self) -> &[usize] {
        &self.globals
    }

    /// The state entry at position `p`.
    #[inline]
    pub(crate) fn state(&self, p: usize) -> usize {
        self.order.as_ref().map_or(p, |o| o[p])
    }

    /// Positions of the global columns, in [`Self::globals`] order.
    fn global_positions(&self) -> Vec<usize> {
        match &self.order {
            None => self.globals.clone(),
            Some(o) => {
                let mut pos = vec![0; self.dim];
                for (p, &s) in o.iter().enumerate() {
                    pos[s] = p;
                }
                self.globals.iter().map(|&g| pos[g]).collect()
            }
        }
    }

    /// The coloured forward-difference estimate of `∂F/∂x` at `x`
    /// (`fx = F(x)`), in position space and in the form
    /// [`crate::linalg::BorderedLu`] factors: the band part, the
    /// global columns' positions, and each global column's off-band
    /// part (column-major, `dim × #globals`).
    pub(crate) fn estimate(
        &self,
        f: &mut impl FnMut(&[f64], &mut [f64]),
        x: &[f64],
        fx: &[f64],
        fd_eps: f64,
    ) -> (BandMatrix, Vec<usize>, Vec<f64>) {
        let n = self.dim;
        assert_eq!(x.len(), n, "JacobianPattern: state has the wrong dimension");
        let step = |v: f64| fd_eps * v.abs().max(1e-5);
        let cols = self.global_positions();
        let mut is_global = vec![false; n];
        for &q in &cols {
            is_global[q] = true;
        }
        let mut band = BandMatrix::zeros(n, self.lower, self.upper);
        let mut xp = x.to_vec();
        let mut fp = vec![0.0; n];

        // Band columns: one evaluation per colour class.
        let colours = (self.lower + self.upper + 1).min(n);
        for colour in 0..colours {
            let members = (colour..n).step_by(colours).filter(|&q| !is_global[q]);
            if members.clone().next().is_none() {
                continue;
            }
            for q in members.clone() {
                let j = self.state(q);
                xp[j] = x[j] + step(x[j]);
            }
            f(&xp, &mut fp);
            for q in members {
                let j = self.state(q);
                let h = step(x[j]);
                xp[j] = x[j];
                for p in q.saturating_sub(self.upper)..=(q + self.lower).min(n - 1) {
                    let i = self.state(p);
                    band[(p, q)] = (fp[i] - fx[i]) / h;
                }
            }
        }

        // Global columns: one evaluation each; the in-band part joins
        // the band, the rest is the bordering correction.
        let mut extra = vec![0.0; n * cols.len()];
        for (&q, col) in cols.iter().zip(extra.chunks_exact_mut(n)) {
            let j = self.state(q);
            let h = step(x[j]);
            xp[j] = x[j] + h;
            f(&xp, &mut fp);
            xp[j] = x[j];
            for (p, e) in col.iter_mut().enumerate() {
                let i = self.state(p);
                let d = (fp[i] - fx[i]) / h;
                if band.in_band(p, q) {
                    band[(p, q)] = d;
                } else {
                    *e = d;
                }
            }
        }
        (band, cols, extra)
    }

    /// The coloured estimate of `∂F/∂x` at `x`, assembled densely in
    /// state order (`J[(i, j)] = ∂F_i/∂x_j`) — for checking a declared
    /// pattern against [`JacobianPattern::dense`].
    pub fn jacobian(
        &self,
        mut f: impl FnMut(&[f64], &mut [f64]),
        x: &[f64],
        fd_eps: f64,
    ) -> DenseMatrix {
        let n = self.dim;
        let mut fx = vec![0.0; n];
        f(x, &mut fx);
        let (band, cols, extra) = self.estimate(&mut f, x, &fx, fd_eps);
        let mut m = DenseMatrix::zeros(n);
        for p in 0..n {
            for q in p.saturating_sub(self.lower)..=(p + self.upper).min(n - 1) {
                m[(self.state(p), self.state(q))] = band[(p, q)];
            }
        }
        for (&q, col) in cols.iter().zip(extra.chunks_exact(n)) {
            for (p, &e) in col.iter().enumerate() {
                m[(self.state(p), self.state(q))] += e;
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `F_i = x_{i−1} x_i − x_{i+1} + x_0²` on a ring-free chain: a
    /// tridiagonal band plus global column 0.
    fn chain(x: &[f64], out: &mut [f64]) {
        let n = x.len();
        for i in 0..n {
            let left = if i > 0 { x[i - 1] } else { 1.0 };
            let right = if i + 1 < n { x[i + 1] } else { 0.0 };
            out[i] = left * x[i] - right + x[0] * x[0];
        }
    }

    fn max_diff(a: &DenseMatrix, b: &DenseMatrix) -> f64 {
        let n = a.order();
        let mut worst = 0.0_f64;
        for i in 0..n {
            for j in 0..n {
                worst = worst.max((a[(i, j)] - b[(i, j)]).abs());
            }
        }
        worst
    }

    #[test]
    fn coloured_estimate_matches_dense_columns() {
        let x: Vec<f64> = (0..17).map(|i| 0.3 + 0.05 * i as f64).collect();
        let p = JacobianPattern::banded(17, 1, 1).with_globals([0]);
        // F(x), three band colours and the global column.
        let mut calls = 0;
        let coloured = p.jacobian(
            |v, out| {
                calls += 1;
                chain(v, out)
            },
            &x,
            1e-7,
        );
        assert_eq!(calls, 5);
        let dense = JacobianPattern::dense(17).jacobian(chain, &x, 1e-7);
        assert_eq!(max_diff(&coloured, &dense), 0.0);
    }

    #[test]
    fn too_narrow_band_misses_entries() {
        let x: Vec<f64> = (0..9).map(|i| 0.3 + 0.05 * i as f64).collect();
        let p = JacobianPattern::banded(9, 0, 1).with_globals([0]);
        let dense = JacobianPattern::dense(9).jacobian(chain, &x, 1e-7);
        assert!(max_diff(&p.jacobian(chain, &x, 1e-7), &dense) > 0.1);
    }

    #[test]
    fn ordering_maps_positions_to_state() {
        // Two interleaved chains stored class-major: F_{c,i} couples
        // (c, i±1) and (1−c, i), a band of 2 in level-major order.
        let levels = 6;
        let f = |x: &[f64], out: &mut [f64]| {
            for c in 0..2 {
                for i in 0..levels {
                    let at = |cc: usize, ii: usize| x[cc * levels + ii];
                    let mut v = at(c, i) * at(1 - c, i);
                    if i > 0 {
                        v += at(c, i - 1);
                    }
                    if i + 1 < levels {
                        v -= 2.0 * at(c, i + 1);
                    }
                    out[c * levels + i] = v;
                }
            }
        };
        let order = (0..2 * levels).map(|p| (p % 2) * levels + p / 2).collect();
        let p = JacobianPattern::banded(2 * levels, 2, 2).with_order(order);
        let x: Vec<f64> = (0..2 * levels).map(|i| 0.2 + 0.07 * i as f64).collect();
        let dense = JacobianPattern::dense(2 * levels).jacobian(f, &x, 1e-7);
        assert_eq!(max_diff(&p.jacobian(f, &x, 1e-7), &dense), 0.0);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn order_must_be_a_permutation() {
        let _ = JacobianPattern::banded(3, 1, 1).with_order(vec![0, 0, 1]);
    }
}
