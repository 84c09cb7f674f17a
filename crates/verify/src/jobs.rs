//! Job-lifecycle checks: causal traces vs the engine's own statistics
//! and the mean-field predictions.
//!
//! The simulator's `--trace-jobs` stream claims to be a *complete*
//! causal account of every task: arrival, each migration with its
//! transfer delay, exactly one service start, completion. This layer
//! verifies that claim two ways:
//!
//! * **decomposition identity** — for every quick-zoo variant, replay
//!   one traced run through [`loadsteal_trace::JobAnalysis`] and require
//!   (a) zero lifecycle anomalies, (b) each job's `wait + transfer +
//!   service` to equal its measured sojourn to `1e-9`, and (c) the
//!   reconstructed post-warmup sojourn population to match the engine's
//!   own [`OnlineStats`] in count and mean — the trace and the internal
//!   statistics must be two views of the same numbers, not two
//!   estimators of the same quantity.
//! * **mean-field agreement** — on the paper's basic model, replicated
//!   traced runs must reproduce the fixed point's steal picture: the
//!   service component satisfies Little's law against the busy fraction
//!   `s₁ = λ`; the fraction of jobs migrated matches the fixed-point
//!   steal flow `(s₁ − s₂)·s₂ / λ`; and stolen jobs (which land on an
//!   empty thief) beat locally-served jobs on mean sojourn.

use loadsteal_queueing::OnlineStats;
use loadsteal_sim::run_recorded;
use loadsteal_trace::JobReplay;

use crate::harness::{Check, Outcome, Settings};
use crate::stat;
use crate::zoo;

/// Per-job decomposition identity tolerance. The components are sums
/// and differences of the very timestamps in the trace, so this is a
/// float-roundoff budget, not a statistical bound.
const IDENTITY_TOL: f64 = 1e-9;

/// Replay one traced run of `cfg` and check the decomposition
/// identities against the engine's internal statistics.
fn decomposition_check(settings: &Settings, mut cfg: loadsteal_sim::SimConfig) -> Outcome {
    cfg.trace_jobs = true;
    let mut replay = JobReplay::new(cfg.warmup);
    let result = run_recorded(&cfg, settings.seed, &mut replay);
    let (analysis, records) = replay.finish_with_records();

    if analysis.anomalies.total() > 0 {
        return Outcome::Fail(format!(
            "{} lifecycle anomalies in a clean single-run trace: {:?}",
            analysis.anomalies.total(),
            analysis.anomalies
        ));
    }
    let mut max_residual = 0.0f64;
    for (id, r) in &records {
        let Some((wait, transfer, service)) = r.decompose() else {
            continue;
        };
        if wait < -IDENTITY_TOL || transfer < 0.0 || service < 0.0 {
            return Outcome::Fail(format!(
                "job {id}: negative component (wait {wait:.3e}, transfer {transfer:.3e}, service {service:.3e})"
            ));
        }
        let residual = (wait + transfer + service - r.sojourn().unwrap()).abs();
        max_residual = max_residual.max(residual);
        if residual > IDENTITY_TOL {
            return Outcome::Fail(format!(
                "job {id}: wait + transfer + service misses sojourn by {residual:.3e} (> {IDENTITY_TOL:.0e})"
            ));
        }
    }
    // The reconstructed population must BE the engine's measured one.
    let engine = &result.sojourn;
    if analysis.completed != engine.count() {
        return Outcome::Fail(format!(
            "trace reconstructs {} measured jobs, engine counted {}",
            analysis.completed,
            engine.count()
        ));
    }
    let mean_delta = (analysis.sojourn.mean() - engine.mean()).abs();
    let mean_tol = IDENTITY_TOL * engine.mean().abs().max(1.0);
    if analysis.completed > 0 && mean_delta > mean_tol {
        return Outcome::Fail(format!(
            "mean sojourn: trace {:.12} vs engine {:.12} (|Δ| {mean_delta:.3e} > {mean_tol:.0e})",
            analysis.sojourn.mean(),
            engine.mean()
        ));
    }
    Outcome::Pass(format!(
        "{} jobs ({} migrated), max identity residual {max_residual:.1e}, mean sojourn {:.4} = engine's",
        analysis.completed, analysis.migrated, engine.mean()
    ))
}

/// Mean-field agreement on the paper's basic model (`simple-ws`,
/// steal-on-empty with free transfers): replicated traced runs, three
/// agreements derived from the job decomposition.
fn mean_field_check(settings: &Settings) -> Outcome {
    let Some(v) = zoo::variants(settings)
        .into_iter()
        .find(|v| v.name.starts_with("simple-ws"))
    else {
        return Outcome::Skip("simple-ws preset not in this tier's zoo".into());
    };
    let fp = match (v.predict)() {
        Ok(fp) => fp,
        Err(e) => return Outcome::Fail(format!("fixed-point solve failed: {e}")),
    };
    let lambda = v.lambda;
    let s2 = fp.task_tails.get(2).copied().unwrap_or(0.0);

    let mut cfg = v.cfg.clone();
    cfg.trace_jobs = true;
    let mut util = OnlineStats::new(); // λ·W_service per run (Little)
    let mut migrated = OnlineStats::new(); // migrated fraction per run
    let mut gaps = OnlineStats::new(); // local − migrated mean sojourn
    for i in 0..settings.runs as u64 {
        let mut replay = JobReplay::new(cfg.warmup);
        let result = run_recorded(&cfg, settings.seed.wrapping_add(i), &mut replay);
        let a = replay.finish();
        if a.anomalies.total() > 0 || a.completed == 0 {
            return Outcome::Fail(format!(
                "seed {}: unusable trace ({} anomalies, {} jobs)",
                settings.seed.wrapping_add(i),
                a.anomalies.total(),
                a.completed
            ));
        }
        // Little's law on the service station: arrivals × mean service
        // time = mean number in service = n × s₁. Per processor:
        // λ̂ · W_service with λ̂ the measured completion rate.
        let span = (result.end_time - cfg.warmup).max(f64::MIN_POSITIVE);
        let rate = a.completed as f64 / (cfg.n as f64 * span);
        util.push(rate * a.service.mean());
        migrated.push(a.migrated_fraction());
        gaps.push(a.sojourn_local.mean() - a.sojourn_migrated.mean());
    }

    let mut agreements = vec![
        stat::Agreement {
            what: "service Little s₁".into(),
            observed: util.mean(),
            predicted: lambda,
            bound: stat::bound_from(
                &util,
                lambda,
                settings.n,
                stat::FINITE_N_REL_TAIL,
                stat::ABS_FLOOR_TAIL,
            ),
        },
        stat::Agreement {
            what: "migrated fraction".into(),
            observed: migrated.mean(),
            predicted: (lambda - s2) * s2 / lambda,
            bound: stat::bound_from(
                &migrated,
                (lambda - s2) * s2 / lambda,
                settings.n,
                stat::FINITE_N_REL_TAIL,
                stat::ABS_FLOOR_TAIL,
            ),
        },
    ];
    let failed: Vec<String> = agreements
        .iter()
        .filter(|a| !a.holds())
        .map(stat::Agreement::describe)
        .collect();
    if !failed.is_empty() {
        return Outcome::Fail(failed.join("; "));
    }
    // Stolen jobs start service immediately on an empty thief (and the
    // basic model's transfers are free), so they must beat the local
    // population on mean sojourn in every run — a sign check, since the
    // mean-field limit has no per-class sojourn prediction to bound by.
    if gaps.min() <= 0.0 {
        return Outcome::Fail(format!(
            "stolen jobs not faster than local ones in some run (min gap {:.4})",
            gaps.min()
        ));
    }
    agreements.push(stat::Agreement {
        what: "sojourn gap local−migrated".into(),
        observed: gaps.mean(),
        predicted: 0.0,
        bound: f64::INFINITY,
    });
    Outcome::Pass(format!(
        "{}; {}; stolen jobs {:.4} faster on average",
        agreements[0].describe(),
        agreements[1].describe(),
        gaps.mean()
    ))
}

/// Assemble the job-lifecycle checks: one decomposition identity per
/// zoo variant plus the mean-field agreement on the basic model.
pub fn checks(settings: &Settings) -> Vec<Check> {
    let mut checks = Vec::new();
    for v in zoo::variants(settings) {
        let s = settings.clone();
        checks.push(Check::new("jobs", format!("decomposition({})", v.name), {
            let cfg = v.cfg;
            move || decomposition_check(&s, cfg)
        }));
    }
    let s = settings.clone();
    checks.push(Check::new("jobs", "mean-field(simple-ws)", move || {
        mean_field_check(&s)
    }));
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Outcome;

    /// Tiny-protocol settings keep these unit tests in CI budget; the
    /// identity checks are exact, so statistical power is irrelevant.
    fn settings() -> Settings {
        Settings::tiny(11)
    }

    #[test]
    fn decomposition_identity_holds_on_the_basic_model() {
        let s = settings();
        let v = zoo::variants(&s)
            .into_iter()
            .find(|v| v.name.starts_with("simple-ws"))
            .unwrap();
        match decomposition_check(&s, v.cfg) {
            Outcome::Pass(line) => assert!(line.contains("max identity residual"), "{line}"),
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn decomposition_identity_holds_with_transfer_delays() {
        // Transfer delays are the component most likely to break the
        // identity (they ride on separate events); the transfer preset
        // must still decompose exactly.
        let s = settings();
        let v = zoo::variants(&s)
            .into_iter()
            .find(|v| v.name.starts_with("transfer("))
            .unwrap();
        match decomposition_check(&s, v.cfg) {
            Outcome::Pass(line) => assert!(line.contains("migrated"), "{line}"),
            other => panic!("expected pass, got {other:?}"),
        }
    }

    #[test]
    fn checks_cover_every_zoo_variant_plus_mean_field() {
        let s = settings();
        let names: Vec<String> = checks(&s).into_iter().map(|c| c.name).collect();
        assert_eq!(names.len(), zoo::variants(&s).len() + 1);
        assert!(names
            .iter()
            .any(|n| n.starts_with("decomposition(simple-ws")));
        assert!(names.iter().any(|n| n == "mean-field(simple-ws)"));
    }

    #[test]
    fn mean_field_agreement_holds_at_tiny_scale() {
        // n = 32 is rough, but the bounds scale with 1/n and the CI, so
        // the check must still pass — it guards signs and identities,
        // not precision.
        match mean_field_check(&settings()) {
            Outcome::Pass(line) => {
                assert!(line.contains("migrated fraction"), "{line}");
                assert!(line.contains("faster on average"), "{line}");
            }
            other => panic!("expected pass, got {other:?}"),
        }
    }
}
