//! Property tests for the surrogate's numerical core: the Cholesky
//! solver recovers planted coefficients exactly (to float precision) on
//! noiseless well-conditioned systems, ridge regression is total on
//! arbitrarily hostile designs, and a fitted surrogate is deterministic
//! and bit-for-bit invariant to the order of its training rows.
//!
//! The sparse ridge and envelope Cholesky are also checked bit for bit
//! against a copy of the plain dense loops they replaced, on one-hot
//! block-sparse designs and block-diagonal / banded SPD systems.

use mlp_surrogate::linalg::{cholesky_solve, ridge};
use mlp_surrogate::{default_priors, features, ConfigPoint, Surrogate, NUM_WORKLOADS};
use proptest::prelude::*;
use proptest::strategy::LazyGen;
use proptest::test_runner::TestRng;

/// A random well-conditioned SPD system with a planted solution:
/// `A = L·Lᵀ` for a lower-triangular `L` with diagonal in `[0.5, 2]` and
/// off-diagonal in `[-0.5, 0.5]`, plus `x` in `[-2, 2]` and `b = A·x`.
fn spd_system(rng: &mut TestRng) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let n = (1usize..=8).generate(rng);
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..i {
            l[i * n + j] = (-0.5..=0.5).generate(rng);
        }
        l[i * n + i] = (0.5..=2.0).generate(rng);
    }
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = (0..n).map(|k| l[i * n + k] * l[j * n + k]).sum();
        }
    }
    let x: Vec<f64> = (0..n).map(|_| (-2.0..=2.0).generate(rng)).collect();
    let b: Vec<f64> = (0..n)
        .map(|i| (0..n).map(|j| a[i * n + j] * x[j]).sum())
        .collect();
    (a, x, b)
}

/// A value drawn from the hostile end of the f64 spectrum: NaN, both
/// infinities, both signed zeros, magnitudes whose products underflow
/// or overflow, or a large-magnitude finite number.
fn hostile_value(rng: &mut TestRng) -> f64 {
    match rng.below(10) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => 1e-300,
        6 => -1e-300,
        7 => 1e300,
        _ => (-1e3..=1e3).generate(rng),
    }
}

/// A deliberately degenerate ridge design: hostile entries, mismatched
/// row widths, duplicated rows (rank deficiency), zeroed rows, and a
/// possibly non-finite or negative penalty.
fn hostile_design(rng: &mut TestRng) -> (Vec<Vec<f64>>, Vec<f64>, f64) {
    let p = (1usize..=6).generate(rng);
    let n = (0usize..=12).generate(rng);
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let width = if rng.ratio(1, 5) {
            (0usize..=8).generate(rng)
        } else {
            p
        };
        let mut row: Vec<f64> = (0..width).map(|_| hostile_value(rng)).collect();
        if rng.ratio(1, 4) && !rows.is_empty() {
            row = rows[rng.below(rows.len() as u64) as usize].clone();
        }
        if rng.ratio(1, 6) {
            row.iter_mut().for_each(|v| *v = 0.0);
        }
        rows.push(row);
        y.push(hostile_value(rng));
    }
    let lambda = match rng.below(4) {
        0 => f64::NAN,
        1 => -1.0,
        2 => 0.0,
        _ => (0.0..1.0).generate(rng),
    };
    (rows, y, lambda)
}

/// A random training set drawn from realistic sweep axes, with targets
/// above each workload's on-chip CPI (any positive off-chip component is
/// a valid observation), plus a Fisher–Yates permutation of its rows and
/// a probe point for prediction checks.
#[allow(clippy::type_complexity)]
fn training_set(rng: &mut TestRng) -> (Vec<ConfigPoint>, Vec<f64>, Vec<usize>, ConfigPoint) {
    const WINDOWS: [u32; 4] = [16, 32, 128, 512];
    const MSHRS: [u32; 3] = [1, 4, 16];
    const LATENCIES: [u32; 3] = [200, 500, 1000];
    const L2_KB: [u32; 2] = [512, 2048];
    fn pick(rng: &mut TestRng, xs: &[u32]) -> u32 {
        xs[rng.below(xs.len() as u64) as usize]
    }
    let priors = default_priors();
    let n = (4usize..=40).generate(rng);
    let mut points = Vec::with_capacity(n);
    let mut cpi = Vec::with_capacity(n);
    for _ in 0..n {
        let p = ConfigPoint {
            workload: (0usize..NUM_WORKLOADS).generate(rng),
            window: pick(rng, &WINDOWS),
            mshrs: pick(rng, &MSHRS),
            latency: pick(rng, &LATENCIES),
            l2_kb: pick(rng, &L2_KB),
        };
        let prior = &priors[p.workload];
        let y = prior.cpi_on_chip + prior.off_chip_cpi(p.latency) * (0.2..=5.0).generate(rng);
        points.push(p);
        cpi.push(y);
    }
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
    let probe = points[rng.below(n as u64) as usize];
    (points, cpi, perm, probe)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Noiseless data from a well-conditioned SPD system: the solver
    /// must recover the planted solution to 1e-9.
    #[test]
    fn cholesky_recovers_planted_coefficients(sys in LazyGen::new(spd_system)) {
        let (a, x, b) = sys;
        let sol = cholesky_solve(&a, &b);
        prop_assert!(sol.is_some(), "well-conditioned SPD system must solve");
        let sol = sol.unwrap();
        prop_assert_eq!(sol.len(), x.len());
        for (got, want) in sol.iter().zip(&x) {
            prop_assert!(
                (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "planted {want} recovered as {got}"
            );
        }
    }

    /// `cholesky_solve` never panics and never returns non-finite
    /// values, whatever the input holds, and matches the dense solve
    /// bit for bit.
    #[test]
    fn cholesky_is_total_on_hostile_input(
        n in 0usize..=6,
        seed in any::<u64>(),
    ) {
        let mut rng = TestRng::for_case("hostile-cholesky", seed);
        let a: Vec<f64> = (0..n * n).map(|_| hostile_value(&mut rng)).collect();
        let b: Vec<f64> = (0..n).map(|_| hostile_value(&mut rng)).collect();
        let sol = cholesky_solve(&a, &b);
        if let Some(sol) = &sol {
            prop_assert_eq!(sol.len(), n);
            prop_assert!(sol.iter().all(|v| v.is_finite()));
        }
        let want = dense_cholesky_solve(&a, &b).map(|x| bits(&x));
        prop_assert_eq!(sol.map(|x| bits(&x)), want);
    }

    /// Ridge is total: rank-deficient, degenerate, and hostile designs
    /// produce a finite coefficient vector of the right width — never a
    /// panic, never NaN — and it is the dense ridge's, bit for bit.
    #[test]
    fn ridge_is_total_on_hostile_designs(design in LazyGen::new(hostile_design)) {
        let (rows, y, lambda) = design;
        let p = rows.iter().map(Vec::len).max().unwrap_or(0);
        let beta = ridge(&rows, &y, lambda);
        prop_assert_eq!(beta.len(), p);
        prop_assert!(beta.iter().all(|v| v.is_finite()), "beta = {:?}", beta);
        prop_assert_eq!(bits(&beta), bits(&dense_ridge(&rows, &y, lambda)));
    }
}

proptest! {
    // Fewer cases: each one fits three full surrogates (a 231-wide ridge
    // plus its jackknife ensemble apiece), which is seconds per case in
    // unoptimized builds.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fitting the same data twice gives bit-identical predictions, and
    /// permuting the training rows changes nothing: the fit canonicalizes
    /// row order before any floating-point accumulation.
    #[test]
    fn fit_is_deterministic_and_row_order_invariant(set in LazyGen::new(training_set)) {
        let (points, cpi, perm, probe) = set;
        let priors = default_priors();
        let first = Surrogate::fit(&points, &cpi, &priors);
        let again = Surrogate::fit(&points, &cpi, &priors);
        let shuffled_points: Vec<ConfigPoint> = perm.iter().map(|&i| points[i]).collect();
        let shuffled_cpi: Vec<f64> = perm.iter().map(|&i| cpi[i]).collect();
        let shuffled = Surrogate::fit(&shuffled_points, &shuffled_cpi, &priors);
        for p in points.iter().chain([&probe]) {
            let want = first.predict(p);
            prop_assert!(want.is_finite());
            prop_assert_eq!(want.to_bits(), again.predict(p).to_bits());
            prop_assert_eq!(want.to_bits(), shuffled.predict(p).to_bits());
            prop_assert_eq!(
                first.uncertainty_pct(p).to_bits(),
                shuffled.uncertainty_pct(p).to_bits()
            );
        }
    }
}

/// Reference: the dense Cholesky solve, every term of every inner
/// product, in the same order as the envelope solve.
fn dense_cholesky_solve(a: &[f64], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    if a.len() != n.checked_mul(n)? {
        return None;
    }
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= l[i * n + k] * l[j * n + k];
            }
            if i == j {
                if !sum.is_finite() || sum <= 0.0 {
                    return None;
                }
                l[i * n + i] = sum.sqrt();
            } else {
                l[i * n + j] = sum / l[j * n + j];
            }
        }
    }
    let mut x = b.to_vec();
    for i in 0..n {
        let mut acc = x[i];
        for k in 0..i {
            acc -= l[i * n + k] * x[k];
        }
        x[i] = acc / l[i * n + i];
    }
    for i in (0..n).rev() {
        let mut acc = x[i];
        for k in i + 1..n {
            acc -= l[k * n + i] * x[k];
        }
        x[i] = acc / l[i * n + i];
    }
    x.iter().all(|v| v.is_finite()).then_some(x)
}

/// Reference: dense ridge, accumulating every entry of every row.
fn dense_ridge(rows: &[Vec<f64>], y: &[f64], lambda: f64) -> Vec<f64> {
    let p = rows.iter().map(Vec::len).max().unwrap_or(0);
    if p == 0 {
        return Vec::new();
    }
    let mut xtx = vec![0.0; p * p];
    let mut xty = vec![0.0; p];
    for (r, &yi) in rows.iter().zip(y) {
        if r.len() != p || !yi.is_finite() || r.iter().any(|v| !v.is_finite()) {
            continue;
        }
        for i in 0..p {
            xty[i] += r[i] * yi;
            for j in 0..=i {
                xtx[i * p + j] += r[i] * r[j];
            }
        }
    }
    for i in 0..p {
        for j in 0..i {
            xtx[j * p + i] = xtx[i * p + j];
        }
    }
    let trace: f64 = (0..p).map(|i| xtx[i * p + i]).sum();
    let floor = 1e-12 * (1.0 + trace.abs() / p as f64);
    let lam = if lambda.is_finite() && lambda > floor {
        lambda
    } else {
        floor
    };
    for i in 0..p {
        xtx[i * p + i] += lam;
    }
    dense_cholesky_solve(&xtx, &xty).unwrap_or_else(|| vec![0.0; p])
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A one-hot block-sparse design shaped like the surrogate's: each row
/// is non-zero only in its own block, some columns are zero in every
/// row, some are 0/1 indicators (gating negative values into −0.0, as
/// `features` does), plus occasional hostile rows — hostile values,
/// wrong widths, duplicates and all-zero rows.
fn block_sparse_design(rng: &mut TestRng) -> (Vec<Vec<f64>>, Vec<f64>, f64) {
    let blocks = (1usize..=4).generate(rng);
    let width = (1usize..=10).generate(rng);
    let p = blocks * width;
    // Per column: 0 = always zero, 1 = indicator-gated, 2 = dense.
    let kind: Vec<u64> = (0..width).map(|_| rng.below(3)).collect();
    let n = (0usize..=30).generate(rng);
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let mut row = vec![0.0; p];
        let base = rng.below(blocks as u64) as usize * width;
        let gate = if rng.ratio(1, 3) { 1.0 } else { 0.0 };
        for (c, &k) in kind.iter().enumerate() {
            let v: f64 = (-2.0..=2.0).generate(rng);
            row[base + c] = match k {
                0 => 0.0,
                1 => gate * v,
                _ => v,
            };
        }
        if rng.ratio(1, 8) {
            let c = rng.below(p as u64) as usize;
            row[c] = hostile_value(rng);
        }
        if rng.ratio(1, 12) {
            row.truncate(rng.below(p as u64) as usize);
        }
        if rng.ratio(1, 10) && !rows.is_empty() {
            row = rows[rng.below(rows.len() as u64) as usize].clone();
        }
        if rng.ratio(1, 10) {
            row.iter_mut().for_each(|v| *v = 0.0);
        }
        rows.push(row);
        y.push(if rng.ratio(1, 10) {
            hostile_value(rng)
        } else {
            (-3.0..=3.0).generate(rng)
        });
    }
    let lambda = match rng.below(4) {
        0 => 0.0,
        1 => f64::NAN,
        _ => (0.0..1e-2).generate(rng),
    };
    (rows, y, lambda)
}

/// A symmetric positive-definite system with a skyline zero pattern:
/// row `i` of the lower triangle starts at a random column (a band, a
/// block boundary, or anywhere), entries inside the envelope may still
/// be exact zeros, and the diagonal dominates. Optionally a few lower
/// entries and right-hand-side values are swapped for hostile values.
fn skyline_system(rng: &mut TestRng) -> (Vec<f64>, Vec<f64>) {
    let n = (1usize..=24).generate(rng);
    let shape = rng.below(3);
    let band = (0usize..=4).generate(rng);
    let block = (1usize..=8).generate(rng);
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        let start = match shape {
            0 => i.saturating_sub(band),
            1 => i / block * block,
            _ => rng.below(i as u64 + 1) as usize,
        };
        for j in start..i {
            let v = if rng.ratio(1, 5) {
                0.0
            } else {
                (-1.0..=1.0).generate(rng)
            };
            a[i * n + j] = v;
            a[j * n + i] = v;
        }
    }
    for i in 0..n {
        let off: f64 = (0..n).filter(|&j| j != i).map(|j| a[i * n + j].abs()).sum();
        a[i * n + i] = off + (0.5..=2.0).generate(rng);
    }
    let mut b: Vec<f64> = (0..n)
        .map(|_| {
            if rng.ratio(1, 4) {
                0.0
            } else {
                (-3.0..=3.0).generate(rng)
            }
        })
        .collect();
    if rng.ratio(1, 3) {
        for _ in 0..(1usize..=3).generate(rng) {
            let i = rng.below(n as u64) as usize;
            let j = rng.below(i as u64 + 1) as usize;
            a[i * n + j] = hostile_value(rng);
            b[rng.below(n as u64) as usize] = hostile_value(rng);
        }
    }
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The envelope Cholesky solve returns exactly the dense solve's
    /// bits (or `None` exactly when it does).
    #[test]
    fn envelope_cholesky_is_bitwise_dense(sys in LazyGen::new(skyline_system)) {
        let (a, b) = sys;
        let want = dense_cholesky_solve(&a, &b).map(|x| bits(&x));
        let got = cholesky_solve(&a, &b).map(|x| bits(&x));
        prop_assert_eq!(got, want);
    }

    /// Sparse Gram accumulation returns exactly the dense ridge's bits.
    #[test]
    fn sparse_ridge_is_bitwise_dense(design in LazyGen::new(block_sparse_design)) {
        let (rows, y, lambda) = design;
        prop_assert_eq!(bits(&ridge(&rows, &y, lambda)), bits(&dense_ridge(&rows, &y, lambda)));
    }
}

proptest! {
    // Few cases: the dense reference over the full 231-wide basis is
    // slow unoptimized.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The same on real surrogate feature rows: the full one-hot basis
    /// with its MSHR-indicator blocks.
    #[test]
    fn sparse_ridge_is_bitwise_dense_on_features(set in LazyGen::new(training_set)) {
        let (points, cpi, _, _) = set;
        let rows: Vec<Vec<f64>> = points.iter().map(features).collect();
        let y: Vec<f64> = cpi.iter().map(|c| c.ln()).collect();
        prop_assert_eq!(bits(&ridge(&rows, &y, 1e-3)), bits(&dense_ridge(&rows, &y, 1e-3)));
    }
}

/// The sign corners the envelope solve guards by name: a −0.0 in the
/// right-hand side, a forward-substitution result that underflows to
/// −0.0, a −0.0 inside the envelope of `A`, and one before it (which
/// must count as part of the envelope). Each meets a skipped zero term
/// whose sign would otherwise be lost.
#[test]
fn envelope_cholesky_keeps_signed_zero_corners() {
    let cases: [(Vec<f64>, Vec<f64>); 4] = [
        (vec![1.0, 0.0, 0.0, 1.0], vec![-1.0, -0.0]),
        (vec![1e200, 0.0, 0.0, 1.0], vec![-1e-300, -1.0]),
        (
            vec![4.0, 0.0, 0.0, 0.0, 4.0, 0.0, -1.0, -0.0, 4.0],
            vec![0.0, -0.0, 1.0],
        ),
        (vec![1.0, 0.0, -0.0, 1.0], vec![1.0, -0.0]),
    ];
    for (a, b) in cases {
        let want = dense_cholesky_solve(&a, &b).map(|x| bits(&x));
        assert_eq!(
            cholesky_solve(&a, &b).map(|x| bits(&x)),
            want,
            "A = {a:?}, b = {b:?}"
        );
    }
}
