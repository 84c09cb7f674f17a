//! Transient-trajectory agreement: the sixth verify layer.
//!
//! The other simulation-facing layers compare *time averages* against
//! the mean-field *fixed point*. Kurtz's theorem promises more: over
//! any finite horizon the empirical tail process tracks the whole ODE
//! *trajectory*, with fluctuations of order `1/√n`. This layer checks
//! exactly that, per quick-zoo variant:
//!
//! * **envelope** — sample `ŝᵢ(t)` on a uniform grid (the engine's
//!   `--sample-tails` machinery), average across replicates, integrate
//!   the variant's ODE on the same grid, and require every residual to
//!   stay inside a CI-derived envelope along the *whole* trajectory —
//!   not just at the end.
//! * **relaxation** — the empirical ε-relaxation time (first instant
//!   from which the sampled trajectory stays within ε of the fixed
//!   point) must be finite and consistent with the ODE's own settling
//!   time on the basic model.
//! * **n-scaling** — the mean absolute sim-vs-ODE deviation at
//!   `n = 256` must fall strictly below the deviation at `n = 64`
//!   (the `O(1/√n)` Kurtz rate, two-point version).
//!
//! The [`crate::sabotage`] sign-flipped ODE is the teeth test: its
//! trajectory settles at a visibly wrong busy fraction, so the honest
//! simulation must breach the envelope against it (asserted in this
//! module's tests and in `tests/harness.rs`).

use loadsteal_core::models::MeanFieldModel;
use loadsteal_core::ModelSpec;
use loadsteal_sim::{run_recorded, ToSimConfig};
use loadsteal_trace::transient::{Envelope, TailSamples};
use loadsteal_trace::{TransientAnalysis, TransientOptions};

use crate::harness::{Check, Outcome, Settings};
use crate::zoo;

/// Sampling grid for the transient comparison (simulated seconds).
const SAMPLE_DT: f64 = 2.0;

/// Drift envelope for the layer. Wider than the analyzer's reporting
/// default (`z = 5`, floor 0.02): the trajectory check makes tens of
/// thousands of grid comparisons across the zoo, so the
/// per-comparison false-positive rate must be far below 1/comparisons
/// for the pinned seeds to stay breach-free — while a sign-flipped
/// steal term shifts the settled tails by `O(λ)` and still breaks out.
const ENVELOPE: Envelope = Envelope {
    z: 5.0,
    finite_n_rel: 2.0,
    abs_floor: 0.02,
};

/// The transient horizon: the drama is in the first few hundred
/// simulated seconds (relaxation is `O(1/(1 − λ))`), so the layer
/// trims the differential protocol's horizon instead of paying it in
/// full per variant.
fn transient_horizon(settings: &Settings) -> f64 {
    (settings.horizon / 4.0).max(600.0)
}

/// ε for the relaxation clocks, scaled to what the averaged finite-n
/// trajectory can actually hold: a generous multiple of the Kurtz
/// fluctuation at sample size `n·runs`, plus the `O(1/n)` bias and an
/// absolute floor.
fn relax_epsilon(settings: &Settings) -> f64 {
    let eff = (settings.n * settings.runs) as f64;
    4.0 * (0.25 / eff).sqrt() + 2.0 / settings.n as f64 + 0.01
}

/// Run `settings.runs` replicates of `cfg` with tail sampling on and
/// compare against the ODE trajectory of `spec` integrated on the same
/// grid. `n_override` swaps the processor count (for the n-scaling
/// check); everything else follows the shared protocol.
fn analyse(
    settings: &Settings,
    spec: &ModelSpec,
    mut cfg: loadsteal_sim::SimConfig,
    n_override: Option<usize>,
) -> Result<TransientAnalysis, String> {
    if let Some(n) = n_override {
        cfg.n = n;
    }
    cfg.horizon = transient_horizon(settings);
    cfg.warmup = cfg.warmup.min(cfg.horizon / 4.0);
    cfg.sample_tails = Some(SAMPLE_DT);
    cfg.validate().map_err(|e| e.to_string())?;

    let mut samples = TailSamples::default();
    for i in 0..settings.runs {
        run_recorded(&cfg, settings.seed.wrapping_add(i as u64), &mut samples);
    }

    let model = spec.mean_field().map_err(|e| e.to_string())?;
    let ode = loadsteal_core::trajectory::sample_tails(
        &model,
        &model.empty_state(),
        cfg.horizon + 0.5 * SAMPLE_DT,
        SAMPLE_DT,
    )
    .map_err(|e| format!("ODE trajectory failed: {e}"))?;
    let fixed_point = spec.fixed_point().ok().map(|fp| fp.task_tails);

    let mut opts = TransientOptions::new(cfg.n);
    opts.epsilon = relax_epsilon(settings);
    opts.envelope = ENVELOPE;
    Ok(TransientAnalysis::from_groups(
        &samples.finish(),
        &ode,
        fixed_point.as_deref(),
        &opts,
    ))
}

/// The envelope check for one zoo variant: every residual along the
/// trajectory inside the CI envelope, every sample matched to the grid.
pub fn envelope_check(settings: &Settings, v: &zoo::Variant) -> Outcome {
    let a = match analyse(settings, &v.spec, v.cfg.clone(), None) {
        Ok(a) => a,
        Err(e) => return Outcome::Skip(e),
    };
    if a.points.is_empty() {
        return Outcome::Fail("no tail samples were emitted".into());
    }
    if a.unmatched > 0 {
        return Outcome::Fail(format!(
            "{} sample instants missed the ODE grid",
            a.unmatched
        ));
    }
    if let Some(d) = a.drift.first() {
        return Outcome::Fail(format!(
            "{} drift events; first at t = {:.1}, tail s{}: residual {:+.4} outside ±{:.4}",
            a.drift.len(),
            d.t,
            d.tail,
            d.residual,
            d.bound
        ));
    }
    Outcome::Pass(format!(
        "‖ŝ−s‖∞ = {:.4} over {} instants × {} tails",
        a.residual_sup,
        a.points.len(),
        a.depth
    ))
}

/// The relaxation check on the paper's basic model: both clocks
/// finite, and the empirical one consistent with the ODE's.
fn relaxation_check(settings: &Settings) -> Outcome {
    let spec = ModelSpec::simple_ws(0.9);
    let cfg = match spec.sim_config(settings.n) {
        Ok(c) => c,
        Err(e) => return Outcome::Skip(e.to_string()),
    };
    let a = match analyse(settings, &spec, cfg, None) {
        Ok(a) => a,
        Err(e) => return Outcome::Skip(e),
    };
    let Some(ode) = a.ode_settling_time else {
        return Outcome::Fail(format!(
            "ODE trajectory never settles within ε = {:.3}",
            a.epsilon
        ));
    };
    let Some(sim) = a.relaxation_time else {
        return Outcome::Fail(format!(
            "empirical trajectory never stays within ε = {:.3} of the fixed point \
             (ODE settles at {ode:.1})",
            a.epsilon
        ));
    };
    // The sampled trajectory cannot beat its own grid, and should not
    // lag the ODE by more than a small factor plus grid slack.
    let limit = 3.0 * ode + 10.0 * SAMPLE_DT;
    if sim > limit {
        return Outcome::Fail(format!(
            "empirical relaxation {sim:.1} ≫ ODE settling {ode:.1} (limit {limit:.1})"
        ));
    }
    Outcome::Pass(format!(
        "sim relaxes at {sim:.1}, ODE at {ode:.1} (ε = {:.3})",
        a.epsilon
    ))
}

/// Two-point Kurtz scaling: the mean absolute deviation from the ODE
/// trajectory must fall with n (sampled at n = 64 and n = 256).
fn n_scaling_check(settings: &Settings) -> Outcome {
    let spec = ModelSpec::simple_ws(0.7);
    let cfg = match spec.sim_config(64) {
        Ok(c) => c,
        Err(e) => return Outcome::Skip(e.to_string()),
    };
    let coarse = match analyse(settings, &spec, cfg.clone(), Some(64)) {
        Ok(a) => a,
        Err(e) => return Outcome::Skip(e),
    };
    let fine = match analyse(settings, &spec, cfg, Some(256)) {
        Ok(a) => a,
        Err(e) => return Outcome::Skip(e),
    };
    let (d64, d256) = (coarse.mean_abs_residual, fine.mean_abs_residual);
    // O(1/√n) predicts a factor 2; require clear improvement, not the
    // exact rate (the constant hides warmup and depth effects).
    if d256 < 0.9 * d64 {
        Outcome::Pass(format!(
            "mean |ŝ−s|: {d64:.4} at n = 64 → {d256:.4} at n = 256"
        ))
    } else {
        Outcome::Fail(format!(
            "deviation did not shrink with n: {d64:.4} at n = 64 vs {d256:.4} at n = 256"
        ))
    }
}

/// Assemble the layer: one envelope check per zoo variant, the
/// relaxation clock, and the two-point n-scaling check.
pub fn checks(settings: &Settings) -> Vec<Check> {
    let mut checks = Vec::new();
    for v in zoo::variants(settings) {
        let s = settings.clone();
        checks.push(Check::new("transient", format!("envelope({})", v.name), {
            move || envelope_check(&s, &v)
        }));
    }
    let s = settings.clone();
    checks.push(Check::new("transient", "relaxation(simple-ws,λ=0.9)", {
        move || relaxation_check(&s)
    }));
    let s = settings.clone();
    checks.push(Check::new("transient", "n-scaling(64→256,λ=0.7)", {
        move || n_scaling_check(&s)
    }));
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sabotage;

    /// The honest basic model passes the envelope check even at the
    /// tiny protocol (the envelope widens as `1/√(n·runs)`).
    #[test]
    fn honest_simple_ws_stays_inside_the_envelope() {
        let settings = Settings::tiny(11);
        let v = zoo::variants(&settings)
            .into_iter()
            .find(|v| v.name.starts_with("simple-ws"))
            .expect("zoo lost the basic model");
        match envelope_check(&settings, &v) {
            Outcome::Pass(detail) => assert!(detail.contains('∞'), "{detail}"),
            other => panic!("honest variant breached the envelope: {other:?}"),
        }
    }

    /// Teeth: replaying the honest simulation against the sabotaged
    /// (sign-flipped) ODE trajectory must breach the envelope — the
    /// transient layer catches the transcription error on its own,
    /// without consulting the fixed point.
    #[test]
    fn sabotaged_ode_trajectory_breaches_the_envelope() {
        let settings = Settings::tiny(11);
        let v = sabotage::sabotaged_variant(&settings);
        let bad = sabotage::SabotagedSimpleWs::new(0.5).expect("valid λ");
        let ode = loadsteal_core::trajectory::sample_tails(
            &bad,
            &bad.empty_state(),
            transient_horizon(&settings) + 0.5 * SAMPLE_DT,
            SAMPLE_DT,
        )
        .expect("sabotaged ODE integrates");

        let mut cfg = v.cfg.clone();
        cfg.horizon = transient_horizon(&settings);
        cfg.warmup = cfg.warmup.min(cfg.horizon / 4.0);
        cfg.sample_tails = Some(SAMPLE_DT);
        let mut samples = TailSamples::default();
        for i in 0..settings.runs {
            run_recorded(&cfg, settings.seed.wrapping_add(i as u64), &mut samples);
        }
        let mut opts = TransientOptions::new(cfg.n);
        opts.envelope = ENVELOPE;
        let a = TransientAnalysis::from_groups(&samples.finish(), &ode, None, &opts);
        assert!(
            !a.drift.is_empty(),
            "sign-flipped trajectory went undetected (sup {:.4})",
            a.residual_sup
        );
        // The breach is persistent, not a lone fluctuation.
        assert!(a.drift.len() >= 10, "only {} drift events", a.drift.len());
    }

    #[test]
    fn layer_carries_one_envelope_check_per_variant_plus_two() {
        let settings = Settings::quick(1);
        let expected = zoo::variants(&settings).len() + 2;
        assert_eq!(checks(&settings).len(), expected);
    }
}
