//! Fixed points of the mean-field families and the numeric pipeline
//! that computes them.
//!
//! A fixed point is a state `π` with `dπ/dt = 0`; the paper's systems
//! flow towards attracting fixed points, so the robust way to find one
//! is to integrate from the empty state for a short while and then
//! polish with a damped Newton iteration on the algebraic system
//! `F(π) = 0` to (near) machine precision. Integration continues in
//! growing chunks, with a Newton attempt after each, until one is
//! accepted or the derivative vanishes on its own. The truncation is
//! grown and the solve repeated whenever mass reaches the boundary.
//!
//! The polish is structured: each model declares the sparsity of its
//! Jacobian ([`MeanFieldModel::jacobian_pattern`] — a narrow band plus
//! a few global levels such as `s_1`, `s_2`, `s_T`), so an iteration
//! costs a handful of right-hand-side evaluations and a banded LU,
//! linear in the dimension. Heavy traffic (λ → 1, thousands of levels)
//! polishes as cheaply as light traffic. A model without a pattern is
//! solved by integration only.
//!
//! Time is attributed to the spans `fixed_point.integrate`,
//! `fixed_point.newton` (with `ode.newton.jacobian` and
//! `ode.newton.factor` inside) and `fixed_point.grow_truncation`, the
//! re-solve after a truncation grew.

use loadsteal_obs::span::span;
use loadsteal_obs::{NullRecorder, Recorder};
use loadsteal_ode::solver::SteadyStateOptions;
use loadsteal_ode::{
    newton_solve, AdaptiveOptions, DormandPrince45, IntegrationError, JacobianPattern,
    NewtonOptions,
};

use crate::models::MeanFieldModel;

/// Options for [`solve`].
#[derive(Debug, Clone, Copy)]
pub struct FixedPointOptions {
    /// Steady-state detection for the integration phase.
    pub steady: SteadyStateOptions,
    /// Integrator tolerances.
    pub adaptive: AdaptiveOptions,
    /// Newton-polish settings.
    pub newton: NewtonOptions,
    /// Grow the truncation when the boundary mass exceeds this.
    pub boundary_tol: f64,
    /// Hard cap on truncation growth.
    pub max_truncation: usize,
}

impl Default for FixedPointOptions {
    fn default() -> Self {
        Self {
            steady: SteadyStateOptions {
                tol: 1e-10,
                t_max: 1e6,
                min_time: 1.0,
            },
            adaptive: AdaptiveOptions::default(),
            newton: NewtonOptions::default(),
            boundary_tol: 1e-12,
            max_truncation: 60_000,
        }
    }
}

/// A computed fixed point with its derived performance metrics.
#[derive(Debug, Clone)]
pub struct FixedPoint {
    /// The raw model state at the fixed point.
    pub state: Vec<f64>,
    /// `‖F(π)‖∞` at the returned state.
    pub residual: f64,
    /// Whether the Newton polish ran (as opposed to integration only).
    pub polished: bool,
    /// Newton steps of the accepted polish (0 for integration only).
    pub newton_iterations: usize,
    /// Mean tasks per processor `L` (including in-transit tasks).
    pub mean_tasks: f64,
    /// Mean time in system `W = L/λ`.
    pub mean_time_in_system: f64,
    /// Folded task-count tails `s_0, s_1, …`.
    pub task_tails: Vec<f64>,
    /// Truncation level used.
    pub truncation: usize,
}

impl FixedPoint {
    /// Estimated geometric decay ratio of the task tails, measured at
    /// the deepest depth that stays well above the solver's residual
    /// noise floor.
    pub fn tail_ratio(&self) -> Option<f64> {
        let floor = (self.residual * 1e4).max(1e-9);
        crate::tail::TailVector::from_slice(&self.task_tails[1..]).tail_ratio(floor)
    }
}

/// Why [`solve`] failed.
#[derive(Debug)]
pub enum SolveError {
    /// The integration phase failed.
    Integration(IntegrationError),
    /// Integration hit `t_max` without reaching the residual tolerance
    /// and Newton could not rescue it.
    NotConverged {
        /// Best residual achieved.
        residual: f64,
    },
    /// Mass kept reaching the truncation boundary up to the cap.
    TruncationExhausted {
        /// The truncation level at which we gave up.
        levels: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Integration(e) => write!(f, "integration failed: {e}"),
            Self::NotConverged { residual } => {
                write!(f, "fixed point not converged (residual {residual})")
            }
            Self::TruncationExhausted { levels } => {
                write!(f, "tail mass still at boundary after {levels} levels")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<IntegrationError> for SolveError {
    fn from(e: IntegrationError) -> Self {
        Self::Integration(e)
    }
}

/// Compute the fixed point of `model` (integrate from empty, grow the
/// truncation as needed, Newton-polish when the model declares its
/// Jacobian pattern).
pub fn solve<M: MeanFieldModel>(
    model: &M,
    opts: &FixedPointOptions,
) -> Result<FixedPoint, SolveError> {
    solve_traced(model, opts, &mut NullRecorder)
}

/// [`solve`] with the integrator's convergence trace (per-step
/// residuals, accept/reject decisions, end-of-run summaries) sent to
/// `rec`. One `SolverDone` event is emitted per integration chunk.
pub fn solve_traced<M: MeanFieldModel>(
    model: &M,
    opts: &FixedPointOptions,
    rec: &mut dyn Recorder,
) -> Result<FixedPoint, SolveError> {
    let mut m = model.clone();
    let mut grown = false;
    loop {
        let Solved {
            state,
            residual,
            newton_iterations,
        } = {
            let _span = grown.then(|| span("fixed_point.grow_truncation"));
            solve_at_truncation(&m, opts, rec)?
        };
        let boundary = m.boundary_mass(&state);
        if boundary > opts.boundary_tol {
            let next = (m.truncation() * 3 / 2).max(m.truncation() + 16);
            if next > opts.max_truncation {
                return Err(SolveError::TruncationExhausted {
                    levels: m.truncation(),
                });
            }
            m = m.with_truncation(next);
            grown = true;
            continue;
        }
        let task_tails = m.task_tails(&state);
        let mean_tasks = m.mean_tasks(&state);
        return Ok(FixedPoint {
            residual,
            polished: newton_iterations.is_some(),
            newton_iterations: newton_iterations.unwrap_or(0),
            mean_tasks,
            mean_time_in_system: m.mean_time_in_system(&state),
            task_tails,
            truncation: m.truncation(),
            state,
        });
    }
}

/// The result of one pass at a fixed truncation.
struct Solved {
    state: Vec<f64>,
    residual: f64,
    /// Newton steps of the accepted polish; `None` for integration only.
    newton_iterations: Option<usize>,
}

/// One pass at the model's current truncation: integrate in growing
/// time chunks, attempting a Newton polish after each chunk.
///
/// Newton's basin of attraction is reached long before the trajectory
/// itself settles — in heavy traffic the relaxation time grows faster
/// than 1/(1 − λ) — so a short first chunk and an early polish turn
/// minutes into milliseconds, while integration stays the fallback.
fn solve_at_truncation<M: MeanFieldModel>(
    m: &M,
    opts: &FixedPointOptions,
    rec: &mut dyn Recorder,
) -> Result<Solved, SolveError> {
    let pattern = m.jacobian_pattern();
    let mut y = m.empty_state();
    let mut dp = DormandPrince45::new(opts.adaptive);
    let mut t = 0.0;
    // Short first chunk: Newton's basin is usually reached within a few
    // dozen time units, far before the trajectory itself settles.
    let mut chunk = 50.0_f64.min(opts.steady.t_max);
    loop {
        let stage = SteadyStateOptions {
            t_max: (t + chunk).min(opts.steady.t_max) - t,
            ..opts.steady
        };
        let report = {
            let _span = span("fixed_point.integrate");
            dp.integrate_to_steady_traced(m, t, &mut y, &stage, rec)?
        };
        t = report.t;
        let residual = report.residual;

        if let Some(pattern) = &pattern {
            let _span = span("fixed_point.newton");
            if let Some(polished) = try_newton(m, pattern, &y, residual, opts) {
                return Ok(polished);
            }
        }
        let out_of_time = t >= opts.steady.t_max;
        if report.converged || (out_of_time && residual <= opts.steady.tol.max(1e-8)) {
            return Ok(Solved {
                state: y,
                residual,
                newton_iterations: None,
            });
        }
        if out_of_time {
            return Err(SolveError::NotConverged { residual });
        }
        chunk *= 4.0;
    }
}

/// Attempt a Newton polish from `y`; returns the improved state when the
/// iteration converges to a better residual than `residual`.
fn try_newton<M: MeanFieldModel>(
    m: &M,
    pattern: &JacobianPattern,
    y: &[f64],
    residual: f64,
    opts: &FixedPointOptions,
) -> Option<Solved> {
    let mut trial = y.to_vec();
    // Interleaved attempts are speculative: bound the cost of a failed
    // attempt.
    let newton_opts = NewtonOptions {
        max_iters: opts.newton.max_iters.min(25),
        ..opts.newton
    };
    let report = newton_solve(
        |x, out| m.deriv(0.0, x, out),
        &mut trial,
        pattern,
        &newton_opts,
    )
    .ok()?;
    m.project(&mut trial);
    // Projection can nudge the residual; re-evaluate honestly.
    let mut f = vec![0.0; trial.len()];
    m.deriv(0.0, &trial, &mut f);
    let r = f.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
    // Accept only genuine convergence (not a stalled local improvement
    // far from the fixed point).
    (r < opts.newton.tol * 100.0 && r <= residual).then_some(Solved {
        state: trial,
        residual: r,
        newton_iterations: Some(report.iterations),
    })
}
