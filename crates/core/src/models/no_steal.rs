//! The no-stealing baseline — equation (1) of the paper.
//!
//! Without stealing each processor is an independent M/M/1 queue:
//!
//! ```text
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
//! ```
//!
//! with fixed point `π_i = λ^i` and mean time in system `1/(1−λ)`.
//! Every stealing model in this crate is compared against this tail.

use loadsteal_ode::{JacobianPattern, OdeSystem};

use crate::tail::TailVector;

use super::{check_lambda, default_truncation, tail_pattern, MeanFieldModel};

/// Mean-field model of `n → ∞` independent M/M/1 queues.
#[derive(Debug, Clone, PartialEq)]
pub struct NoSteal {
    lambda: f64,
    levels: usize,
}

impl NoSteal {
    /// Create the model for arrival rate `0 < λ < 1`.
    pub fn new(lambda: f64) -> Result<Self, String> {
        check_lambda(lambda)?;
        Ok(Self {
            lambda,
            levels: default_truncation(lambda),
        })
    }

    /// The arrival rate λ.
    pub fn arrival_rate(&self) -> f64 {
        self.lambda
    }

    /// Exact fixed point tail `π_i = λ^i` down to the truncation.
    pub fn closed_form_tails(&self) -> TailVector {
        TailVector::geometric(self.lambda, self.levels)
    }

    /// Exact mean time in system, `1/(1 − λ)` (M/M/1).
    pub fn closed_form_mean_time(&self) -> f64 {
        1.0 / (1.0 - self.lambda)
    }

    #[inline]
    fn s(&self, y: &[f64], i: usize) -> f64 {
        if i == 0 {
            1.0
        } else if i <= y.len() {
            y[i - 1]
        } else {
            0.0
        }
    }
}

impl OdeSystem for NoSteal {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        for i in 1..=self.levels {
            dy[i - 1] =
                lambda * (self.s(y, i - 1) - self.s(y, i)) - (self.s(y, i) - self.s(y, i + 1));
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for NoSteal {
    fn name(&self) -> String {
        format!("no stealing (λ = {})", self.lambda)
    }

    fn lambda(&self) -> f64 {
        self.lambda
    }

    fn truncation(&self) -> usize {
        self.levels
    }

    fn with_truncation(&self, levels: usize) -> Self {
        Self {
            levels,
            ..self.clone()
        }
    }

    fn empty_state(&self) -> Vec<f64> {
        vec![0.0; self.levels]
    }

    fn mean_tasks(&self, y: &[f64]) -> f64 {
        y.iter().rev().sum()
    }

    fn task_tails(&self, y: &[f64]) -> Vec<f64> {
        std::iter::once(1.0).chain(y.iter().copied()).collect()
    }

    fn boundary_mass(&self, y: &[f64]) -> f64 {
        y.last().copied().unwrap_or(0.0)
    }

    fn jacobian_pattern(&self) -> Option<JacobianPattern> {
        Some(tail_pattern(self.levels, 1, 1, &[]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};

    #[test]
    fn numeric_fixed_point_matches_mm1() {
        for lambda in [0.3, 0.7, 0.9] {
            let m = NoSteal::new(lambda).unwrap();
            let fp = solve(&m, &FixedPointOptions::default()).unwrap();
            let w = m.closed_form_mean_time();
            assert!(
                (fp.mean_time_in_system - w).abs() < 1e-7,
                "λ = {lambda}: {} vs {w}",
                fp.mean_time_in_system
            );
            // Geometric tails at rate λ.
            for i in 1..6 {
                assert!(
                    (fp.task_tails[i] - lambda.powi(i as i32)).abs() < 1e-8,
                    "λ = {lambda}, i = {i}"
                );
            }
        }
    }

    #[test]
    fn closed_form_tail_is_fixed_point_of_the_ode() {
        let m = NoSteal::new(0.8).unwrap();
        let y = m.closed_form_tails().into_vec();
        let mut dy = vec![0.0; y.len()];
        m.deriv(0.0, &y, &mut dy);
        // Away from the truncation boundary the derivative vanishes.
        for (i, d) in dy.iter().enumerate().take(y.len() - 2) {
            assert!(d.abs() < 1e-12, "ds_{}/dt = {d}", i + 1);
        }
    }

    #[test]
    fn rejects_unstable_rates() {
        assert!(NoSteal::new(1.0).is_err());
        assert!(NoSteal::new(0.0).is_err());
        assert!(NoSteal::new(-0.5).is_err());
        assert!(NoSteal::new(f64::NAN).is_err());
    }

    #[test]
    fn tail_ratio_is_lambda() {
        let m = NoSteal::new(0.6).unwrap();
        let fp = solve(&m, &FixedPointOptions::default()).unwrap();
        let r = fp.tail_ratio().unwrap();
        assert!((r - 0.6).abs() < 1e-4, "ratio {r}");
    }
}
