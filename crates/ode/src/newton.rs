//! Damped Newton iteration with a structured finite-difference
//! Jacobian.
//!
//! Fixed points of a truncated mean-field family are roots of the
//! algebraic system `F(π) = 0`, where `F` is the right-hand side of the
//! ODEs. Integrating to steady state gets within `~1e-8`; this module
//! polishes that estimate to close to machine precision, which matters
//! when the performance metric is a long geometric sum of the tail.
//!
//! The Jacobian follows a declared [`JacobianPattern`]: it is estimated
//! by column colouring and factored as a band plus bordered global
//! columns, so an iteration costs O(dim) for the mean-field families
//! at any truncation depth.

use loadsteal_obs::span;

use crate::jacobian::JacobianPattern;
use crate::linalg::BorderedLu;
use crate::norms::max_abs;

/// Options for [`newton_solve`].
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Convergence threshold on `‖F(x)‖∞`. Once below it, full Newton
    /// steps continue while they still reduce the residual, so the
    /// result sits at the rounding floor rather than just under `tol`.
    pub tol: f64,
    /// Maximum number of Newton iterations (Jacobian evaluations).
    pub max_iters: usize,
    /// Relative perturbation for the finite-difference Jacobian.
    pub fd_eps: f64,
    /// Smallest admissible damping factor in the backtracking line
    /// search before the iteration is declared stalled.
    pub min_damping: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            tol: 1e-13,
            max_iters: 50,
            fd_eps: 1e-7,
            min_damping: 1.0 / 1024.0,
        }
    }
}

/// Convergence report from [`newton_solve`].
#[derive(Debug, Clone, Copy)]
pub struct NewtonReport {
    /// Newton steps taken (accepted updates of `x`).
    pub iterations: usize,
    /// Final residual `‖F(x)‖∞`.
    pub residual: f64,
}

/// Failure modes of [`newton_solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum NewtonError {
    /// The finite-difference Jacobian was singular.
    SingularJacobian {
        /// Iteration at which factorization failed.
        iteration: usize,
    },
    /// Backtracking could not reduce the residual.
    Stalled {
        /// Residual at the stall point.
        residual: f64,
    },
    /// Iteration budget exhausted.
    MaxIterations {
        /// Residual when the budget ran out.
        residual: f64,
    },
    /// `F` produced a non-finite value.
    NonFinite,
}

impl std::fmt::Display for NewtonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SingularJacobian { iteration } => {
                write!(f, "singular Jacobian at Newton iteration {iteration}")
            }
            Self::Stalled { residual } => {
                write!(f, "Newton line search stalled at residual {residual}")
            }
            Self::MaxIterations { residual } => {
                write!(f, "Newton ran out of iterations at residual {residual}")
            }
            Self::NonFinite => write!(f, "residual function returned non-finite values"),
        }
    }
}

impl std::error::Error for NewtonError {}

/// Solve `F(x) = 0` starting from `x`, refining it in place.
///
/// ```
/// use loadsteal_ode::{newton_solve, JacobianPattern, NewtonOptions};
/// // Intersection of a circle and a line.
/// let mut x = vec![1.0, 0.5];
/// newton_solve(
///     |v, out| {
///         out[0] = v[0] * v[0] + v[1] * v[1] - 1.0;
///         out[1] = v[0] - v[1];
///     },
///     &mut x,
///     &JacobianPattern::dense(2),
///     &NewtonOptions::default(),
/// )
/// .unwrap();
/// assert!((x[0] - 0.5f64.sqrt()).abs() < 1e-12);
/// ```
///
/// `f(x, out)` writes `F(x)` into `out` (same length as `x`). The
/// Jacobian is estimated with forward differences coloured by
/// `pattern`, factored as a pivoted band LU with the pattern's global
/// columns bordered in, and each Newton step is damped by backtracking
/// until the residual decreases (Armijo-free monotone test — adequate
/// because our fixed points are strongly attracting).
///
/// Stopping: once `‖F‖∞ < tol`, full steps with the last factored
/// Jacobian continue for as long as they reduce the residual; the first
/// step that does not is discarded and the iteration ends successfully.
/// An ill-conditioned system (deep heavy-traffic truncations) thus
/// reaches the rounding floor of `F` instead of stopping just below
/// `tol`.
///
/// # Panics
/// Panics if `pattern.dim()` differs from `x.len()`.
pub fn newton_solve(
    mut f: impl FnMut(&[f64], &mut [f64]),
    x: &mut [f64],
    pattern: &JacobianPattern,
    opts: &NewtonOptions,
) -> Result<NewtonReport, NewtonError> {
    let n = x.len();
    assert_eq!(
        pattern.dim(),
        n,
        "newton_solve: pattern dimension differs from x"
    );
    let mut fx = vec![0.0; n];
    let mut fx_trial = vec![0.0; n];
    let mut x_trial = vec![0.0; n];
    let mut rhs = vec![0.0; n];

    f(x, &mut fx);
    if fx.iter().any(|v| !v.is_finite()) {
        return Err(NewtonError::NonFinite);
    }
    let mut res = max_abs(&fx);
    let mut steps = 0;
    let done = |steps, residual| {
        Ok(NewtonReport {
            iterations: steps,
            residual,
        })
    };

    let mut lu = None;
    for iter in 0..opts.max_iters {
        let polishing = res < opts.tol;
        if res == 0.0 {
            break;
        }
        // Below `tol` the last factorization is reused: its chord steps
        // converge as fast as a fresh finite-difference Jacobian would,
        // at one evaluation of `F` each.
        if !polishing || lu.is_none() {
            let (band, cols, extra) = {
                let _span = span::span("ode.newton.jacobian");
                pattern.estimate(&mut f, x, &fx, opts.fd_eps)
            };
            let factored = {
                let _span = span::span("ode.newton.factor");
                BorderedLu::factor(band, cols, extra)
            };
            lu = match factored {
                Ok(lu) => Some(lu),
                Err(_) if polishing => break,
                Err(_) => return Err(NewtonError::SingularJacobian { iteration: iter }),
            };
        }
        let lu = lu.as_ref().expect("factored above");
        // Newton direction J dx = −F, solved in the pattern's ordering.
        for (p, r) in rhs.iter_mut().enumerate() {
            *r = -fx[pattern.state(p)];
        }
        lu.solve_in_place(&mut rhs);
        if rhs.iter().any(|v| !v.is_finite()) {
            if polishing {
                break;
            }
            return Err(NewtonError::NonFinite);
        }

        // Backtracking damping (full steps only once below `tol`).
        let mut lambda = 1.0;
        loop {
            x_trial.copy_from_slice(x);
            for (p, d) in rhs.iter().enumerate() {
                x_trial[pattern.state(p)] += lambda * d;
            }
            f(&x_trial, &mut fx_trial);
            let res_trial = max_abs(&fx_trial);
            if res_trial.is_finite() && res_trial < res {
                x.copy_from_slice(&x_trial);
                fx.copy_from_slice(&fx_trial);
                res = res_trial;
                steps += 1;
                break;
            }
            if polishing {
                // The residual stopped falling: at the rounding floor.
                return done(steps, res);
            }
            lambda *= 0.5;
            if lambda < opts.min_damping {
                // No progress possible along this direction.
                if res < opts.tol * 10.0 {
                    // Close enough: accept as converged-with-slack.
                    return done(steps, res);
                }
                return Err(NewtonError::Stalled { residual: res });
            }
        }
    }
    if res < opts.tol {
        return done(steps, res);
    }
    Err(NewtonError::MaxIterations { residual: res })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_scalar_quadratic() {
        let mut x = vec![1.0];
        let report = newton_solve(
            |x, out| out[0] = x[0] * x[0] - 2.0,
            &mut x,
            &JacobianPattern::dense(1),
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!((x[0] - 2.0_f64.sqrt()).abs() < 1e-12);
        assert!(report.iterations < 10);
    }

    #[test]
    fn solves_coupled_system() {
        // x^2 + y^2 = 4, x y = 1: intersect circle and hyperbola.
        let mut x = vec![2.0, 0.4];
        newton_solve(
            |v, out| {
                out[0] = v[0] * v[0] + v[1] * v[1] - 4.0;
                out[1] = v[0] * v[1] - 1.0;
            },
            &mut x,
            &JacobianPattern::dense(2),
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!((x[0] * x[0] + x[1] * x[1] - 4.0).abs() < 1e-11);
        assert!((x[0] * x[1] - 1.0).abs() < 1e-11);
    }

    #[test]
    fn converged_start_returns_immediately() {
        let mut x = vec![2.0_f64.sqrt()];
        let report = newton_solve(
            |x, out| out[0] = x[0] * x[0] - 2.0,
            &mut x,
            &JacobianPattern::dense(1),
            &NewtonOptions::default(),
        )
        .unwrap();
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn damping_rescues_overshooting_steps() {
        // atan has tiny derivatives far out; undamped Newton diverges
        // from |x0| > ~1.39.
        let mut x = vec![3.0];
        newton_solve(
            |x, out| out[0] = x[0].atan(),
            &mut x,
            &JacobianPattern::dense(1),
            &NewtonOptions {
                max_iters: 200,
                ..NewtonOptions::default()
            },
        )
        .unwrap();
        assert!(x[0].abs() < 1e-10);
    }

    #[test]
    fn singular_jacobian_is_reported() {
        // F(x, y) = (x + y, x + y): Jacobian rank 1 everywhere.
        let mut x = vec![1.0, 1.0];
        let err = newton_solve(
            |v, out| {
                out[0] = v[0] + v[1];
                out[1] = v[0] + v[1];
            },
            &mut x,
            &JacobianPattern::dense(2),
            &NewtonOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, NewtonError::SingularJacobian { .. }));
    }

    #[test]
    fn nonfinite_residual_is_reported() {
        let mut x = vec![-1.0];
        let err = newton_solve(
            |v, out| out[0] = v[0].sqrt(), // NaN for negative input
            &mut x,
            &JacobianPattern::dense(1),
            &NewtonOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, NewtonError::NonFinite);
    }
}
