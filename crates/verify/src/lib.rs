//! Statistical verification harness for the model zoo.
//!
//! The paper's central claim is that finite-system simulations agree
//! with the mean-field fixed points (Tables 1–4, Theorems 1–2). The
//! three top-level integration tests spot-check a couple of variants
//! with hand-picked tolerances; this crate systematizes the check into
//! ten layers, each a family of pass/fail [`harness::Check`]s:
//!
//! * **differential** — every simulable variant paired with its ODE
//!   fixed point, agreement asserted within confidence-interval-derived
//!   bounds (run-level Student-t intervals plus an explicit `O(1/n)`
//!   finite-size allowance; a single-run batch-means check reuses
//!   [`loadsteal_queueing::BatchMeans`]). The full tier re-simulates
//!   the paper's Table 1–4 parameter grids against the printed
//!   estimates.
//! * **metamorphic** — properties the models must satisfy regardless of
//!   any simulation: tails non-increasing and in `[0, 1]`, mass
//!   conservation under the ODE flow, mean sojourn monotone in λ,
//!   no-steal reducing to the M/M/1 `λ^i` tail, every stealing variant
//!   dominating no-steal at equal λ.
//! * **convergence** — empirical integrator orders via step-halving
//!   Richardson ratios (Euler ≈ 1, RK4 ≈ 4) and DOPRI5 error scaling
//!   with its tolerance.
//! * **determinism** — seed-replay: identical configs and seeds hash to
//!   identical `--trace` byte streams, different seeds do not.
//! * **engine** — future-event-list equivalence: every quick-tier zoo
//!   preset run under the heap and calendar engines must produce
//!   bit-identical NDJSON traces (event-for-event, via FNV-1a over the
//!   full byte stream) and identical scalar results.
//! * **jobs** — per-job causal traces: the `--trace-jobs` sojourn
//!   decomposition (`wait + transfer + service`) must reproduce the
//!   engine's internal sojourn statistics exactly, and the migrated
//!   fraction and service-station Little's law must agree with the
//!   fixed point on the basic model.
//! * **transient** — Kurtz trajectory agreement: `--sample-tails`
//!   streams replayed against the ODE solution on the same grid must
//!   stay inside a CI-derived residual envelope along the whole
//!   trajectory, the empirical ε-relaxation time must be finite and
//!   consistent with the ODE settling time, and the deviation must
//!   shrink from n = 64 to n = 256 (the `O(1/√n)` rate, two-point
//!   version).
//! * **rate** — the stationary finite-size law: tail errors against
//!   the fixed point over a geometric grid of n must decay with a
//!   log-log slope near −1 (`Θ(1/n)`, Ying's refinement of the Kurtz
//!   bound); an injected O(1) bias floor must flatten the slope and
//!   fail.
//! * **executor** — the *measured* work-stealing thread pool: the real
//!   Chase–Lev executor driven with the paper's Poisson workload at
//!   λ = 0.9, its merged sharded wall-clock trace (the path
//!   `stealbench --trace` writes) replayed through the same timeline
//!   pipeline, steal success rate and tail occupancies required to
//!   match the mean-field fixed point within the usual CI + `c/n`
//!   bounds.
//! * **overhead** — the telemetry pipeline itself: the sharded
//!   recorder must serialize the same event multiset as an in-test
//!   mutex oracle (bit-for-bit, on deterministic concurrent streams)
//!   while preserving per-shard order in the merge, a pinned-seed
//!   executor run must trace exactly the driver's arrival plan and
//!   the pool's completions, and full NDJSON tracing on the sim bench
//!   must cost at most a declared wall-clock budget over the untraced
//!   run.
//!
//! The harness is exposed on the CLI as `loadsteal verify
//! [--quick|--full]`; the [`sabotage`] module carries a deliberately
//! sign-flipped copy of the simple-WS equations demonstrating that the
//! differential layer catches a transcription error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod determinism;
pub mod differential;
pub mod engine;
pub mod executor;
pub mod harness;
pub mod jobs;
pub mod metamorphic;
pub mod overhead;
pub mod rate;
pub mod sabotage;
pub mod stat;
pub mod transient;
pub mod zoo;

pub use harness::{Check, CheckResult, Outcome, Report, Settings, Tier};

/// Assemble every check for `settings`, in display order.
pub fn all_checks(settings: &Settings) -> Vec<Check> {
    let mut checks = Vec::new();
    checks.extend(metamorphic::checks(settings));
    checks.extend(convergence::checks(settings));
    checks.extend(determinism::checks(settings));
    checks.extend(engine::checks(settings));
    checks.extend(differential::checks(settings));
    checks.extend(jobs::checks(settings));
    checks.extend(transient::checks(settings));
    checks.extend(rate::checks(settings));
    checks.extend(executor::checks(settings));
    checks.extend(overhead::checks(settings));
    checks
}

/// Run the harness: every check whose `group:name` contains `filter`
/// (all of them when `None`), timed, in order. With
/// [`Settings::parallel`] set (the full tier), check bodies fan out
/// over the work-stealing pool — except the serial executor
/// measurements, which run alone afterwards.
pub fn run(settings: &Settings, filter: Option<&str>) -> Report {
    let checks: Vec<Check> = all_checks(settings)
        .into_iter()
        .filter(|c| filter.is_none_or(|f| format!("{}:{}", c.group, c.name).contains(f)))
        .collect();
    if settings.parallel {
        harness::run_checks_parallel(checks)
    } else {
        harness::run_checks(checks)
    }
}
