//! Property-based tests for the numeric substrate.

use proptest::prelude::*;

use loadsteal_ode::linalg::{BandMatrix, BorderedLu, DenseMatrix};
use loadsteal_ode::{
    brent, newton_solve, AdaptiveOptions, DormandPrince45, JacobianPattern, NewtonError,
    NewtonOptions, OdeSystem,
};

/// A diagonally dominant random matrix is well conditioned; LU must
/// solve it to tight residuals.
fn dominant_matrix(n: usize, entries: Vec<f64>) -> DenseMatrix {
    let mut a = DenseMatrix::zeros(n);
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            let v = entries[i * n + j];
            a[(i, j)] = v;
            row_sum += v.abs();
        }
        a[(i, i)] += row_sum + 1.0;
    }
    a
}

/// Deterministic uniform draws in `[-1, 1)` from a seed.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }
}

/// A random row-diagonally-dominant matrix that is zero outside the
/// band `[i − lower, i + upper]` and the dense `globals` columns. With
/// `swap_rows`, rows `2m` and `2m + 1` are exchanged afterwards, which
/// widens the band by one on each side and puts every other pivot below
/// the diagonal, so partial pivoting must swap rows.
fn structured_matrix(
    n: usize,
    lower: usize,
    upper: usize,
    globals: &[usize],
    swap_rows: bool,
    next: &mut impl FnMut() -> f64,
) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(n);
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            if j != i && (j + lower >= i && j <= i + upper || globals.contains(&j)) {
                m[(i, j)] = next();
                row_sum += m[(i, j)].abs();
            }
        }
        m[(i, i)] = (row_sum + 1.0) * if next() < 0.0 { -1.0 } else { 1.0 };
    }
    if swap_rows {
        for r in (0..n.saturating_sub(1)).step_by(2) {
            for c in 0..n {
                let (a, b) = (m[(r, c)], m[(r + 1, c)]);
                m[(r, c)] = b;
                m[(r + 1, c)] = a;
            }
        }
    }
    m
}

/// Split `m` into its band part and the off-band part of each global
/// column (the form [`BorderedLu::factor`] takes).
fn split(m: &DenseMatrix, lower: usize, upper: usize, globals: &[usize]) -> (BandMatrix, Vec<f64>) {
    let n = m.order();
    let mut band = BandMatrix::zeros(n, lower, upper);
    let mut extra = vec![0.0; n * globals.len()];
    for i in 0..n {
        for j in 0..n {
            if band.in_band(i, j) {
                band[(i, j)] = m[(i, j)];
            } else if let Some(k) = globals.iter().position(|&g| g == j) {
                extra[k * n + i] = m[(i, j)];
            } else {
                assert_eq!(m[(i, j)], 0.0, "entry ({i}, {j}) outside the structure");
            }
        }
    }
    (band, extra)
}

/// Up to `count` distinct global columns drawn from `0..n`.
fn draw_globals(n: usize, count: usize, next: &mut impl FnMut() -> f64) -> Vec<usize> {
    let mut g: Vec<usize> = (0..count)
        .map(|_| (((next() + 1.0) * 0.5 * n as f64) as usize).min(n - 1))
        .collect();
    g.sort_unstable();
    g.dedup();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bordered_band_lu_matches_the_dense_oracle(
        n in 1usize..40,
        lower in 0usize..4,
        upper in 0usize..4,
        global_count in 0usize..4,
        swap_rows in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut next = lcg(seed);
        let globals = draw_globals(n, global_count, &mut next);
        let m = structured_matrix(n, lower, upper, &globals, swap_rows, &mut next);
        let (bl, bu) = if swap_rows { (lower + 1, upper + 1) } else { (lower, upper) };
        let (band, extra) = split(&m, bl, bu, &globals);
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let expect = m.clone().lu().unwrap().solve(&b);
        let mut x = b.clone();
        BorderedLu::factor(band, globals.clone(), extra).unwrap().solve_in_place(&mut x);
        for (got, want) in x.iter().zip(&expect) {
            prop_assert!((got - want).abs() < 1e-10, "{got} vs dense {want}");
        }

        // The same system through Newton on F(x) = M x − b.
        let pattern = JacobianPattern::banded(n, bl, bu).with_globals(globals);
        let mut x = vec![0.0; n];
        newton_solve(
            |v, out| {
                for (o, mv) in out.iter_mut().zip(m.mul_vec(v)) {
                    *o = mv;
                }
                for (o, bi) in out.iter_mut().zip(&b) {
                    *o -= bi;
                }
            },
            &mut x,
            &pattern,
            &NewtonOptions::default(),
        )
        .unwrap();
        for (got, want) in x.iter().zip(&expect) {
            prop_assert!((got - want).abs() < 1e-10, "Newton {got} vs dense {want}");
        }
    }

    #[test]
    fn singular_structured_jacobians_are_reported(
        n in 2usize..30,
        lower in 0usize..3,
        upper in 0usize..3,
        global_count in 0usize..3,
        zero_row in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut next = lcg(seed);
        let globals = draw_globals(n, global_count, &mut next);
        let mut m = structured_matrix(n, lower, upper, &globals, false, &mut next);
        // An exactly zero row or column (possibly a global one) makes M
        // singular in floating point, not just nearly so.
        let k = (((next() + 1.0) * 0.5 * n as f64) as usize).min(n - 1);
        for t in 0..n {
            if zero_row { m[(k, t)] = 0.0 } else { m[(t, k)] = 0.0 }
        }
        let pattern = JacobianPattern::banded(n, lower, upper).with_globals(globals);
        let mut x = vec![0.0; n];
        let err = newton_solve(
            |v, out| {
                for ((o, mv), i) in out.iter_mut().zip(m.mul_vec(v)).zip(0..) {
                    *o = mv - 1.0 - i as f64;
                }
            },
            &mut x,
            &pattern,
            &NewtonOptions::default(),
        )
        .unwrap_err();
        prop_assert!(
            matches!(err, NewtonError::SingularJacobian { .. }),
            "expected SingularJacobian, got {err:?}"
        );
    }

    #[test]
    fn lu_solves_diagonally_dominant_systems(
        n in 1usize..20,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let entries: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let a = dominant_matrix(n, entries);
        let a2 = a.clone();
        let x = a.lu().unwrap().solve(&b);
        let ax = a2.mul_vec(&x);
        for (l, r) in ax.iter().zip(&b) {
            prop_assert!((l - r).abs() < 1e-9, "residual {}", (l - r).abs());
        }
    }

    #[test]
    fn brent_finds_roots_of_shifted_cubics(shift in -8.0f64..8.0) {
        // f(x) = x^3 − shift is monotone with a single real root.
        let f = |x: f64| x * x * x - shift;
        let root = brent(f, -3.0, 3.0, 1e-13).unwrap();
        prop_assert!(f(root).abs() < 1e-9, "f({root}) = {}", f(root));
    }

    #[test]
    fn newton_inverts_smooth_monotone_maps(target in 0.1f64..10.0) {
        // Solve exp(x) = target.
        let mut x = vec![0.0];
        newton_solve(
            |v, out| out[0] = v[0].exp() - target,
            &mut x,
            &JacobianPattern::dense(1),
            &NewtonOptions::default(),
        )
        .unwrap();
        prop_assert!((x[0] - target.ln()).abs() < 1e-9);
    }

    #[test]
    fn dp45_matches_exact_linear_decay(
        rate in 0.01f64..5.0,
        horizon in 0.1f64..10.0,
        y0 in 0.1f64..10.0,
    ) {
        struct Decay(f64);
        impl OdeSystem for Decay {
            fn dim(&self) -> usize { 1 }
            fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) { dy[0] = -self.0 * y[0]; }
        }
        let mut y = vec![y0];
        let mut dp = DormandPrince45::new(AdaptiveOptions::default());
        dp.integrate(&Decay(rate), 0.0, horizon, &mut y).unwrap();
        let exact = y0 * (-rate * horizon).exp();
        prop_assert!((y[0] - exact).abs() < 1e-6 * y0.max(1.0),
            "got {}, exact {exact}", y[0]);
    }

    #[test]
    fn dp45_is_exact_on_quadratic_polynomials(a in -2.0f64..2.0, b in -2.0f64..2.0) {
        // y' = a t + b integrates exactly (order ≥ 2 method).
        struct Poly(f64, f64);
        impl OdeSystem for Poly {
            fn dim(&self) -> usize { 1 }
            fn deriv(&self, t: f64, _y: &[f64], dy: &mut [f64]) { dy[0] = self.0 * t + self.1; }
        }
        let mut y = vec![0.0];
        let mut dp = DormandPrince45::new(AdaptiveOptions::default());
        dp.integrate(&Poly(a, b), 0.0, 2.0, &mut y).unwrap();
        let exact = a * 2.0 + b * 2.0; // ∫₀² (a t + b) dt = 2a + 2b
        prop_assert!((y[0] - exact).abs() < 1e-9);
    }
}
