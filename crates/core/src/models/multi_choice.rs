//! Multiple victim choices — Section 3.3.
//!
//! Motivated by the power of two choices in load *sharing*, the thief
//! samples `d` potential victims independently and uniformly at random
//! and steals from the most loaded one (if it clears the threshold `T`):
//!
//! ```text
//! ds_1/dt = λ(s_0 − s_1) − (s_1 − s_2)(1 − s_T)^d
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1}),                     2 ≤ i ≤ T−1
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
//!              − ((1 − s_{i+1})^d − (1 − s_i)^d)(s_1 − s_2),        i ≥ T
//! ```
//!
//! `(1 − s_{i+1})^d − (1 − s_i)^d` is the probability the *maximum* of
//! `d` draws lands exactly on load `i`. Unlike the load-sharing setting,
//! the gain here is bounded: steals already target the right place, so
//! extra choices raise the effective steal pressure by at most a factor
//! `d` — Table 4 shows two choices help, but one choice captures most of
//! the benefit.

use loadsteal_ode::{JacobianPattern, OdeSystem};

use crate::tail::TailVector;

use super::{check_lambda, default_truncation, tail_pattern, MeanFieldModel};

/// Mean-field model of work stealing with `d` victim choices.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiChoice {
    lambda: f64,
    choices: u32,
    threshold: usize,
    levels: usize,
}

impl MultiChoice {
    /// Create the model for `0 < λ < 1`, `d ≥ 1` choices, threshold
    /// `T ≥ 2`.
    pub fn new(lambda: f64, choices: u32, threshold: usize) -> Result<Self, String> {
        check_lambda(lambda)?;
        if choices == 0 {
            return Err("need at least one victim choice".into());
        }
        if threshold < 2 {
            return Err(format!("threshold must be >= 2, got {threshold}"));
        }
        let levels = default_truncation(lambda).max(threshold + 8);
        Ok(Self {
            lambda,
            choices,
            threshold,
            levels,
        })
    }

    /// The number of victim choices `d`.
    pub fn choices(&self) -> u32 {
        self.choices
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

    #[inline]
    fn pow_d(&self, x: f64) -> f64 {
        // d is small (1–4 in practice); powi is exact and fast.
        x.powi(self.choices as i32)
    }
}

impl OdeSystem for MultiChoice {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let t = self.threshold;
        let s1 = self.s(y, 1);
        let s2 = self.s(y, 2);
        let thief_rate = s1 - s2;
        let fail = self.pow_d(1.0 - self.s(y, t));
        dy[0] = lambda * (1.0 - s1) - thief_rate * fail;
        for i in 2..=self.levels {
            let flow = lambda * (self.s(y, i - 1) - self.s(y, i));
            let dep = self.s(y, i) - self.s(y, i + 1);
            dy[i - 1] = if i < t {
                flow - dep
            } else {
                // P(max of d draws = i) — only such victims lose a task.
                let hit = self.pow_d(1.0 - self.s(y, i + 1)) - self.pow_d(1.0 - self.s(y, i));
                flow - dep - hit * thief_rate
            };
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for MultiChoice {
    fn name(&self) -> String {
        format!(
            "multi-choice WS (λ = {}, d = {}, T = {})",
            self.lambda, self.choices, self.threshold
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
            levels: levels.max(self.threshold + 8),
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
        Some(tail_pattern(self.levels, 1, 1, &[1, 2, self.threshold]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::models::SimpleWs;

    fn opts() -> FixedPointOptions {
        FixedPointOptions::default()
    }

    #[test]
    fn one_choice_is_the_simple_model() {
        let lambda = 0.9;
        let m = MultiChoice::new(lambda, 1, 2).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let exact = SimpleWs::new(lambda).unwrap().closed_form_mean_time();
        assert!(
            (fp.mean_time_in_system - exact).abs() < 1e-7,
            "{} vs {exact}",
            fp.mean_time_in_system
        );
    }

    #[test]
    fn reproduces_table4_estimates() {
        // Table 4, "Estimate, 2 choices" column.
        for &(lambda, expect) in &[
            (0.50, 1.433),
            (0.70, 1.673),
            (0.80, 1.864),
            (0.90, 2.220),
            (0.95, 2.640),
            (0.99, 4.011),
        ] {
            let m = MultiChoice::new(lambda, 2, 2).unwrap();
            let w = solve(&m, &opts()).unwrap().mean_time_in_system;
            assert!(
                (w - expect).abs() < 5e-3,
                "λ = {lambda}: computed {w}, paper {expect}"
            );
        }
    }

    #[test]
    fn more_choices_help_monotonically() {
        let lambda = 0.95;
        let mut last = f64::INFINITY;
        for d in 1..=4 {
            let m = MultiChoice::new(lambda, d, 2).unwrap();
            let w = solve(&m, &opts()).unwrap().mean_time_in_system;
            assert!(w < last, "d = {d}: {w} !< {last}");
            last = w;
        }
    }

    #[test]
    fn deep_tail_ratio_attains_the_d_fold_rate() {
        // Section 3.3's intuition: d choices raise the steal pressure on
        // the most loaded queues by at most a factor d, so the best
        // possible tail ratio is λ/(1 + d(λ − π₂)). Deep in the tail the
        // hit probability (1−s_{i+1})^d − (1−s_i)^d linearizes to
        // d(s_i − s_{i+1}), so that best case is *attained*
        // asymptotically.
        let lambda = 0.9;
        let d = 2;
        let m = MultiChoice::new(lambda, d, 2).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let pi2 = fp.task_tails[2];
        let predicted = lambda / (1.0 + d as f64 * (lambda - pi2));
        let measured = fp.tail_ratio().unwrap();
        assert!(
            (measured - predicted).abs() < 1e-6,
            "measured {measured} vs asymptotic {predicted}"
        );
    }

    #[test]
    fn throughput_balance_holds() {
        let m = MultiChoice::new(0.8, 3, 2).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        assert!((fp.task_tails[1] - 0.8).abs() < 1e-8);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(MultiChoice::new(0.5, 0, 2).is_err());
        assert!(MultiChoice::new(0.5, 2, 1).is_err());
    }
}
