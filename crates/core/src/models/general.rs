//! The combined model: threshold × choices × batch size.
//!
//! Section 3 closes with the observation that "the extensions can be
//! combined as desired"; this module does exactly that for the three
//! orthogonal knobs of the on-empty stealing policy:
//!
//! * victim threshold `T` (Section 2.3),
//! * `d` iid victim candidates, steal from the most loaded (Section 3.3),
//! * `k ≤ T/2` tasks per steal (Section 3.4).
//!
//! Writing `hit(m) = 1 − (1 − s_m)^d` for the probability that the best
//! of `d` candidates holds at least `m` tasks, the limiting system is
//!
//! ```text
//! ds_1/dt = λ(s_0 − s_1) − (s_1 − s_2)(1 − hit(T))
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
//!             + (s_1 − s_2)·hit(T)                         for 2 ≤ i ≤ k
//!             − (s_1 − s_2)·(hit(max(i,T)) − hit(i+k))     for i ≥ T−k+1
//! ```
//!
//! which reduces exactly to [`super::ThresholdWs`] (`d = 1, k = 1`),
//! [`super::MultiChoice`] (`k = 1`) and [`super::MultiSteal`] (`d = 1`).

use loadsteal_ode::{JacobianPattern, OdeSystem};

use crate::tail::TailVector;

use super::{check_lambda, default_truncation, tail_pattern, MeanFieldModel};

/// Mean-field model of on-empty stealing with all three knobs.
///
/// ```
/// use loadsteal_core::models::GeneralWs;
/// use loadsteal_core::fixed_point::{solve, FixedPointOptions};
/// let combo = GeneralWs::new(0.9, 6, 2, 3).unwrap();
/// let w = solve(&combo, &FixedPointOptions::default()).unwrap().mean_time_in_system;
/// // Stacking d = 2 choices and k = 3 batches recovers most of what the
/// // high threshold T = 6 gave up.
/// assert!(w < 4.7 && w > 3.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralWs {
    lambda: f64,
    threshold: usize,
    choices: u32,
    batch: usize,
    levels: usize,
}

impl GeneralWs {
    /// Create the model for `0 < λ < 1`, threshold `T ≥ 2`, `d ≥ 1`
    /// victim candidates, batch `k` with `1 ≤ k ≤ T/2`.
    pub fn new(lambda: f64, threshold: usize, choices: u32, batch: usize) -> Result<Self, String> {
        check_lambda(lambda)?;
        if threshold < 2 {
            return Err(format!("threshold must be >= 2, got {threshold}"));
        }
        if choices == 0 {
            return Err("need at least one victim choice".into());
        }
        if batch == 0 || batch * 2 > threshold {
            return Err(format!(
                "batch k must satisfy 1 <= k <= T/2 (got k = {batch}, T = {threshold})"
            ));
        }
        let levels = default_truncation(lambda).max(threshold + batch + 8);
        Ok(Self {
            lambda,
            threshold,
            choices,
            batch,
            levels,
        })
    }

    /// The victim threshold `T`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The number of victim candidates `d`.
    pub fn choices(&self) -> u32 {
        self.choices
    }

    /// The batch size `k`.
    pub fn batch(&self) -> usize {
        self.batch
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

    /// `hit(m) = 1 − (1 − s_m)^d`: the best of `d` candidates holds
    /// ≥ m tasks.
    #[inline]
    fn hit(&self, y: &[f64], m: usize) -> f64 {
        1.0 - (1.0 - self.s(y, m)).powi(self.choices as i32)
    }
}

impl OdeSystem for GeneralWs {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let (t, k) = (self.threshold, self.batch);
        let s1 = self.s(y, 1);
        let s2 = self.s(y, 2);
        let thief_rate = s1 - s2;
        let succ = self.hit(y, t);
        dy[0] = lambda * (1.0 - s1) - thief_rate * (1.0 - succ);
        for i in 2..=self.levels {
            let flow = lambda * (self.s(y, i - 1) - self.s(y, i));
            let dep = self.s(y, i) - self.s(y, i + 1);
            let mut steal = 0.0;
            if i <= k {
                steal += thief_rate * succ; // thief jumps 0 → k
            }
            if i + k > t {
                // Victims with best-of-d load in [max(i,T), i+k−1] drop
                // below level i.
                let lo = i.max(t);
                steal -= thief_rate * (self.hit(y, lo) - self.hit(y, i + k));
            }
            dy[i - 1] = flow - dep + steal;
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for GeneralWs {
    fn name(&self) -> String {
        format!(
            "general WS (λ = {}, T = {}, d = {}, k = {})",
            self.lambda, self.threshold, self.choices, self.batch
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
    use crate::models::{MultiChoice, MultiSteal, ThresholdWs};

    fn opts() -> FixedPointOptions {
        FixedPointOptions::default()
    }

    fn w<M: MeanFieldModel>(m: &M) -> f64 {
        solve(m, &opts()).unwrap().mean_time_in_system
    }

    #[test]
    fn reduces_to_threshold_model() {
        for (lambda, t) in [(0.7, 3), (0.9, 5)] {
            let g = GeneralWs::new(lambda, t, 1, 1).unwrap();
            let exact = ThresholdWs::new(lambda, t).unwrap().closed_form_mean_time();
            assert!(
                (w(&g) - exact).abs() < 1e-6,
                "T = {t}: {} vs {exact}",
                w(&g)
            );
        }
    }

    #[test]
    fn reduces_to_multi_choice() {
        let lambda = 0.9;
        let g = GeneralWs::new(lambda, 2, 2, 1).unwrap();
        let m = MultiChoice::new(lambda, 2, 2).unwrap();
        assert!((w(&g) - w(&m)).abs() < 1e-7);
    }

    #[test]
    fn reduces_to_multi_steal() {
        let lambda = 0.85;
        let g = GeneralWs::new(lambda, 6, 1, 3).unwrap();
        let m = MultiSteal::new(lambda, 3, 6).unwrap();
        assert!((w(&g) - w(&m)).abs() < 1e-7);
    }

    #[test]
    fn knobs_compose_monotonically() {
        // Adding choices or batch on top of a threshold never hurts in
        // this zero-cost model.
        let lambda = 0.95;
        let base = w(&GeneralWs::new(lambda, 6, 1, 1).unwrap());
        let more_choices = w(&GeneralWs::new(lambda, 6, 2, 1).unwrap());
        let more_batch = w(&GeneralWs::new(lambda, 6, 1, 3).unwrap());
        let both = w(&GeneralWs::new(lambda, 6, 2, 3).unwrap());
        assert!(more_choices < base);
        assert!(more_batch < base);
        assert!(both < more_choices && both < more_batch);
    }

    #[test]
    fn throughput_balance_holds() {
        let g = GeneralWs::new(0.9, 6, 2, 3).unwrap();
        let fp = solve(&g, &opts()).unwrap();
        assert!((fp.task_tails[1] - 0.9).abs() < 1e-8);
    }

    #[test]
    fn conservation_at_arbitrary_state() {
        let g = GeneralWs::new(0.8, 6, 3, 2).unwrap();
        let state = TailVector::geometric(0.7, g.truncation()).into_vec();
        let mut dy = vec![0.0; state.len()];
        g.deriv(0.0, &state, &mut dy);
        let dl: f64 = dy.iter().sum();
        assert!((dl - (0.8 - 0.7)).abs() < 1e-9, "dL/dt = {dl}");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(GeneralWs::new(0.5, 1, 1, 1).is_err());
        assert!(GeneralWs::new(0.5, 4, 0, 1).is_err());
        assert!(GeneralWs::new(0.5, 4, 1, 3).is_err());
    }
}
