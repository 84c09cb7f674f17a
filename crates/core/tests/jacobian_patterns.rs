//! Declared Jacobian patterns are sound: for every registry preset, the
//! coloured finite-difference Jacobian the Newton polish uses equals the
//! dense column-by-column one entry for entry. An undeclared coupling
//! would silently corrupt the polish (the colouring would charge it to
//! the wrong column), so this is the check that guards
//! [`MeanFieldModel::jacobian_pattern`].

use std::collections::HashSet;
use std::mem::discriminant;

use loadsteal_core::models::{MeanFieldModel, SimpleWs, StaticDrain};
use loadsteal_core::{AnyModel, ModelRegistry};
use loadsteal_ode::{JacobianPattern, OdeSystem};

/// Relative agreement required of every entry.
const REL_TOL: f64 = 1e-6;
const FD_EPS: f64 = 1e-7;

/// The dense oracle costs `dim` evaluations and `dim²` storage, so
/// patterns are checked at no more than this many levels. The declared
/// structure does not depend on the depth beyond a few thresholds.
const MAX_LEVELS: usize = 200;

/// A generic interior state: entries in (0.05, 0.45), no two alike, so
/// no product or difference in a right-hand side vanishes by accident.
fn interior_state(dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|k| 0.05 + 0.4 * ((k as f64 + 1.0) * 0.618_033_988_749_895).fract())
        .collect()
}

/// `None` when `pattern`'s coloured Jacobian of `model` matches the
/// dense one; otherwise a description of the worst mismatch.
fn pattern_mismatch<M: OdeSystem>(model: &M, pattern: &JacobianPattern) -> Option<String> {
    let n = model.dim();
    assert_eq!(pattern.dim(), n, "pattern dimension");
    let x = interior_state(n);
    let f = |y: &[f64], out: &mut [f64]| model.deriv(0.0, y, out);
    let coloured = pattern.jacobian(f, &x, FD_EPS);
    let dense = JacobianPattern::dense(n).jacobian(f, &x, FD_EPS);
    let mut worst: Option<(f64, usize, usize)> = None;
    for i in 0..n {
        for j in 0..n {
            let (c, d) = (coloured[(i, j)], dense[(i, j)]);
            let err = (c - d).abs();
            if err > REL_TOL * c.abs().max(d.abs()) && worst.is_none_or(|(w, _, _)| err > w) {
                worst = Some((err, i, j));
            }
        }
    }
    worst.map(|(err, i, j)| {
        format!(
            "∂F_{i}/∂y_{j}: coloured {} vs dense {} (error {err:.2e})",
            coloured[(i, j)],
            dense[(i, j)]
        )
    })
}

/// Every registry preset at its registry λ and at λ = 0.99.
fn preset_models() -> Vec<(String, AnyModel)> {
    let mut out = Vec::new();
    for p in ModelRegistry::standard().presets() {
        for lambda in [p.spec.lambda, 0.99] {
            let mut spec = p.spec.clone();
            spec.lambda = lambda;
            let m = spec
                .mean_field()
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            let levels = m.truncation().min(MAX_LEVELS);
            out.push((
                format!("{} at λ = {lambda}", p.name),
                m.with_truncation(levels),
            ));
        }
    }
    out
}

#[test]
fn every_preset_pattern_matches_the_dense_jacobian() {
    let mut failures = Vec::new();
    for (name, m) in preset_models() {
        let pattern = m
            .jacobian_pattern()
            .expect("every family declares a pattern");
        if let Some(why) = pattern_mismatch(&m, &pattern) {
            failures.push(format!("{name}: {why}"));
        }
    }
    let drain = StaticDrain::new(0.6, 0.3, 120).unwrap();
    if let Some(why) = pattern_mismatch(&drain, &drain.jacobian_pattern().unwrap()) {
        failures.push(format!("static drain: {why}"));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn a_too_narrow_band_is_caught() {
    // Planted defect: simple WS with its band narrowed to the diagonal
    // (the s_1, s_2 globals kept). Levels i ± 1 are then undeclared.
    let m = SimpleWs::new(0.9).unwrap().with_truncation(60);
    let declared = m.jacobian_pattern().unwrap();
    assert!(pattern_mismatch(&m, &declared).is_none());
    let narrowed =
        JacobianPattern::banded(m.dim(), 0, 0).with_globals(declared.globals().iter().copied());
    let why = pattern_mismatch(&m, &narrowed).expect("the narrowed band must be rejected");
    assert!(why.contains("coloured"), "{why}");
}

#[test]
fn every_family_declares_a_pattern() {
    let mut families = HashSet::new();
    for (name, m) in preset_models() {
        assert!(m.jacobian_pattern().is_some(), "{name}: integration only");
        families.insert(discriminant(&m));
    }
    // The registry reaches every `AnyModel` family.
    assert_eq!(families.len(), 15, "families covered by the registry");
    assert!(StaticDrain::new(0.6, 0.3, 64)
        .unwrap()
        .jacobian_pattern()
        .is_some());
}
