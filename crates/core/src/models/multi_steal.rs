//! Multi-task steals — Section 3.4.
//!
//! With a high threshold `T` it pays to take more than one task per
//! steal: here a successful steal takes exactly `k ≤ T/2` tasks from the
//! victim's tail (the victim keeps at least `T − k ≥ k` tasks). A steal
//! now moves several levels at once:
//!
//! ```text
//! ds_1/dt = λ(s_0 − s_1) − (s_1 − s_2)(1 − s_T)
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1}) + (s_1 − s_2) s_T,        2 ≤ i ≤ k
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1}),                          k+1 ≤ i ≤ T−k
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
//!              − (s_1 − s_2)(s_T − s_{i+k}),                             T−k+1 ≤ i ≤ T
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
//!              − (s_1 − s_2)(s_i − s_{i+k}),                             i ≥ T+1
//! ```
//!
//! The gain term `(s_1 − s_2) s_T` on levels `≤ k` is the thief jumping
//! from 0 to k tasks; the loss terms are victims dropping k levels.

use loadsteal_ode::{JacobianPattern, OdeSystem};

use crate::tail::TailVector;

use super::{check_lambda, default_truncation, tail_pattern, MeanFieldModel};

/// Mean-field model of threshold stealing that takes `k` tasks per
/// steal.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSteal {
    lambda: f64,
    batch: usize,
    threshold: usize,
    levels: usize,
}

impl MultiSteal {
    /// Create the model for `0 < λ < 1`, batch `k ≥ 1`, threshold
    /// `T ≥ 2` with `2k ≤ T`.
    pub fn new(lambda: f64, batch: usize, threshold: usize) -> Result<Self, String> {
        check_lambda(lambda)?;
        if threshold < 2 {
            return Err(format!("threshold must be >= 2, got {threshold}"));
        }
        if batch == 0 || batch * 2 > threshold {
            return Err(format!(
                "batch k must satisfy 1 <= k <= T/2 (got k = {batch}, T = {threshold})"
            ));
        }
        let levels = default_truncation(lambda).max(threshold + batch + 8);
        Ok(Self {
            lambda,
            batch,
            threshold,
            levels,
        })
    }

    /// The batch size `k`.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The victim threshold `T`.
    pub fn threshold(&self) -> usize {
        self.threshold
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

impl OdeSystem for MultiSteal {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let (k, t) = (self.batch, self.threshold);
        let s1 = self.s(y, 1);
        let s2 = self.s(y, 2);
        let st = self.s(y, t);
        let thief_rate = s1 - s2;
        dy[0] = lambda * (1.0 - s1) - thief_rate * (1.0 - st);
        for i in 2..=self.levels {
            let flow = lambda * (self.s(y, i - 1) - self.s(y, i));
            let dep = self.s(y, i) - self.s(y, i + 1);
            let steal = if i <= k {
                // Thief jumps 0 → k, lifting every level up to k.
                thief_rate * st
            } else if i <= t - k {
                0.0
            } else if i <= t {
                // Victims with load in [T, i+k−1] drop below i.
                -thief_rate * (st - self.s(y, i + k))
            } else {
                // Victims with load in [i, i+k−1] drop below i.
                -thief_rate * (self.s(y, i) - self.s(y, i + k))
            };
            dy[i - 1] = flow - dep + steal;
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for MultiSteal {
    fn name(&self) -> String {
        format!(
            "multi-steal WS (λ = {}, k = {}, T = {})",
            self.lambda, self.batch, self.threshold
        )
    }

    fn lambda(&self) -> f64 {
        self.lambda
    }

    fn truncation(&self) -> usize {
        self.levels
    }

    fn with_truncation(&self, levels: usize) -> Self {
        Self {
            levels: levels.max(self.threshold + self.batch + 8),
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
        // A k-task steal moves victims from level i + k − 1 to below i.
        Some(tail_pattern(
            self.levels,
            1,
            self.batch,
            &[1, 2, self.threshold],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::models::ThresholdWs;

    fn opts() -> FixedPointOptions {
        FixedPointOptions::default()
    }

    #[test]
    fn k1_reduces_to_threshold_model() {
        for (lambda, t) in [(0.7, 4), (0.9, 6)] {
            let m = MultiSteal::new(lambda, 1, t).unwrap();
            let fp = solve(&m, &opts()).unwrap();
            let exact = ThresholdWs::new(lambda, t).unwrap().closed_form_mean_time();
            assert!(
                (fp.mean_time_in_system - exact).abs() < 1e-6,
                "λ = {lambda}, T = {t}: {} vs {exact}",
                fp.mean_time_in_system
            );
        }
    }

    #[test]
    fn stealing_more_helps_with_high_threshold() {
        // Section 3.4: with instant transfers, equalizing harder is
        // better — k = 3 beats k = 1 at T = 6.
        let lambda = 0.9;
        let w1 = solve(&MultiSteal::new(lambda, 1, 6).unwrap(), &opts())
            .unwrap()
            .mean_time_in_system;
        let w3 = solve(&MultiSteal::new(lambda, 3, 6).unwrap(), &opts())
            .unwrap()
            .mean_time_in_system;
        assert!(w3 < w1, "k=3 {w3} vs k=1 {w1}");
    }

    #[test]
    fn batch_gain_is_monotone_in_k() {
        let lambda = 0.95;
        let t = 8;
        let mut last = f64::INFINITY;
        for k in 1..=4 {
            let w = solve(&MultiSteal::new(lambda, k, t).unwrap(), &opts())
                .unwrap()
                .mean_time_in_system;
            assert!(w < last, "k = {k}: {w} !< {last}");
            last = w;
        }
    }

    #[test]
    fn throughput_balance_holds() {
        let m = MultiSteal::new(0.85, 2, 5).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        assert!((fp.task_tails[1] - 0.85).abs() < 1e-8);
    }

    #[test]
    fn mass_conservation_of_steal_terms() {
        // A steal moves k tasks: the net change of Σ_i s_i from steal
        // terms alone must be 0 per steal... i.e. the gain on levels
        // ≤ k equals the loss on levels > T−k. Check dL/dt equals
        // arrivals − services at a random interior state.
        let m = MultiSteal::new(0.8, 2, 6).unwrap();
        let state = crate::tail::TailVector::geometric(0.7, m.truncation()).into_vec();
        let mut dy = vec![0.0; state.len()];
        m.deriv(0.0, &state, &mut dy);
        let dl: f64 = dy.iter().sum();
        // Arrivals − services = λ − s_1 (per processor); steals conserve
        // tasks, so dL/dt must equal it (up to truncation leakage).
        let expect = 0.8 - 0.7;
        assert!(
            (dl - expect).abs() < 1e-9,
            "dL/dt = {dl}, expected {expect}"
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(MultiSteal::new(0.5, 0, 4).is_err());
        assert!(MultiSteal::new(0.5, 3, 4).is_err()); // 2k > T
        assert!(MultiSteal::new(0.5, 2, 4).is_ok());
    }
}
