//! A deliberately corrupted model for harness self-tests.
//!
//! [`SabotagedSimpleWs`] copies the simple-WS equations but flips the
//! sign of the steal-rate term in the `i ≥ 2` departures —
//! `(1 + s_1 − s_2)` becomes `(1 − s_1 + s_2)` — exactly the kind of
//! transcription error a reimplementation of the paper could make. The
//! corrupted flow converges to a fixed point with a too-high busy
//! fraction and *heavier* tails (slowed instead of accelerated
//! departures), so the predicted mean sojourn time is far off the honest
//! simulation and the differential layer must flag it. The acceptance
//! test in `tests/harness.rs` asserts precisely that.

use loadsteal_core::fixed_point::{solve, FixedPointOptions};
use loadsteal_core::models::MeanFieldModel;
use loadsteal_core::TailVector;
use loadsteal_ode::{JacobianPattern, OdeSystem};
use loadsteal_sim::SimConfig;

use crate::harness::Settings;
use crate::zoo::Variant;

/// Simple-WS equations with the steal-rate sign flipped for `i ≥ 2`.
#[derive(Debug, Clone, PartialEq)]
pub struct SabotagedSimpleWs {
    lambda: f64,
    levels: usize,
}

impl SabotagedSimpleWs {
    /// Create the corrupted model for `0 < λ < 1`.
    pub fn new(lambda: f64) -> Result<Self, String> {
        if !(lambda.is_finite() && 0.0 < lambda && lambda < 1.0) {
            return Err(format!("need 0 < λ < 1, got {lambda}"));
        }
        Ok(Self {
            lambda,
            // The corrupted tails decay like λ/(1 − λ + …) — slower than
            // λ^i — so carry a deeper truncation than the honest model.
            levels: loadsteal_core::tail::truncation_for_ratio(
                (lambda * 1.2).min(0.95),
                1e-14,
                48,
                8_192,
            ),
        })
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

impl OdeSystem for SabotagedSimpleWs {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let s1 = self.s(y, 1);
        let s2 = self.s(y, 2);
        let steal_rate = s1 - s2;
        dy[0] = lambda * (1.0 - s1) - (s1 - s2) * (1.0 - s2);
        for i in 2..=self.levels {
            // The injected bug: the honest equation multiplies the
            // departure flux by (1.0 + steal_rate).
            dy[i - 1] = lambda * (self.s(y, i - 1) - self.s(y, i))
                - (self.s(y, i) - self.s(y, i + 1)) * (1.0 - steal_rate);
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for SabotagedSimpleWs {
    fn name(&self) -> String {
        format!("sabotaged simple WS (λ = {})", self.lambda)
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
        // Same coupling as the honest model, so both solve alike.
        Some(JacobianPattern::banded(self.levels, 1, 1).with_globals([0, 1]))
    }
}

/// An honest simple-WS simulation at `λ = 0.5` paired with the
/// sabotaged predictor — the differential check on this variant must
/// FAIL if the harness has any teeth.
pub fn sabotaged_variant(settings: &Settings) -> Variant {
    let mut cfg = SimConfig::paper_default(settings.n, 0.5);
    cfg.horizon = settings.horizon;
    cfg.warmup = settings.warmup;
    Variant {
        name: "sabotaged-simple-ws(λ=0.5)",
        cfg,
        lambda: 0.5,
        busy_is_lambda: true,
        dominates_no_steal: false,
        predict: Box::new(|| {
            let m = SabotagedSimpleWs::new(0.5)?;
            solve(&m, &FixedPointOptions::default()).map_err(|e| e.to_string())
        }),
        // The honest spec: the sabotage lives in the predictor (and,
        // for the transient layer, in the sabotaged ODE itself).
        spec: loadsteal_core::ModelSpec::simple_ws(0.5),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sabotaged_fixed_point_is_heavier_than_the_truth() {
        use loadsteal_core::models::SimpleWs;
        let honest = SimpleWs::new(0.5).unwrap().closed_form_fixed_point();
        let bad = SabotagedSimpleWs::new(0.5).unwrap();
        let fp = solve(&bad, &FixedPointOptions::default()).unwrap();
        // The sign flip breaks throughput balance (s₁ drifts above λ)…
        assert!(fp.task_tails[1] > 0.5 + 0.1, "s₁ {}", fp.task_tails[1]);
        // …and slows departures: W far above the truth.
        assert!(
            fp.mean_time_in_system > honest.mean_time_in_system + 0.3,
            "sabotaged W {} vs honest {}",
            fp.mean_time_in_system,
            honest.mean_time_in_system
        );
    }
}
