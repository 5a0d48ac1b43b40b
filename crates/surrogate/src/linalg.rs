//! Hand-rolled linear algebra for the surrogate: a Cholesky solve and
//! ridge regression on top of it. No external dependencies — the
//! systems here are small (a few hundred features), so a first-party
//! solver is cheaper than pulling in a linear-algebra crate, and it
//! keeps every floating-point operation deterministic and auditable.
//!
//! Both routines exploit sparsity without changing a single output bit
//! relative to the plain dense loops. The surrogate's design is one-hot
//! blocked (a row is non-zero only in its own workload's block), so the
//! Gram matrix is block-diagonal. [`ridge`] accumulates it from each
//! row's non-zero entries only, and [`cholesky_solve`] factors only
//! inside the envelope of the lower triangle. Every skipped term is a
//! product with an exact zero factor, hence ±0.0, and adding ±0.0 to an
//! accumulator leaves it unchanged unless that accumulator is −0.0. The
//! Gram accumulators start at +0.0 and can never become −0.0; the solve
//! falls back to the dense term order for any sum that starts at −0.0.
//! Summation order is never changed, so the results are bit-identical.

/// Whether `v` is −0.0, the one accumulator value that adding a ±0.0
/// term can change.
fn is_neg_zero(v: f64) -> bool {
    v.to_bits() == (-0.0f64).to_bits()
}

/// Solves `A·x = b` for a symmetric positive-definite `A` (row-major
/// `n × n`, only the lower triangle is read) via Cholesky factorization
/// (`A = L·Lᵀ`, then two triangular substitutions). Returns `None` when
/// `A` is not numerically SPD — a pivot that is non-positive or
/// non-finite — or when the dimensions disagree; it never panics on
/// hostile input.
///
/// The factorization is an envelope (skyline) one: row `i` of `L` is
/// zero before `first[i]`, the first column of row `i` of `A`'s lower
/// triangle that is not `+0.0`, so every inner product and both
/// substitutions start there. The result is bit-identical to the dense
/// loops (see the module docs).
pub fn cholesky_solve(a: &[f64], b: &[f64]) -> Option<Vec<f64>> {
    let n = b.len();
    if a.len() != n.checked_mul(n)? {
        return None;
    }
    let first: Vec<usize> = (0..n)
        .map(|i| (0..i).find(|&j| a[i * n + j].to_bits() != 0).unwrap_or(i))
        .collect();
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in first[i]..=i {
            let mut sum = a[i * n + j];
            let from = if is_neg_zero(sum) {
                0
            } else {
                first[i].max(first[j])
            };
            for k in from..j {
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
    // Forward substitution L·y = b …
    let mut x = b.to_vec();
    for i in 0..n {
        let mut acc = x[i];
        let from = if is_neg_zero(acc) { 0 } else { first[i] };
        for k in from..i {
            acc -= l[i * n + k] * x[k];
        }
        x[i] = acc / l[i * n + i];
    }
    // … then back substitution Lᵀ·β = y, down column i of L: rows whose
    // envelope starts after column i hold an exact zero there.
    for i in (0..n).rev() {
        let mut acc = x[i];
        for k in i + 1..n {
            if first[k] <= i || is_neg_zero(acc) {
                acc -= l[k * n + i] * x[k];
            }
        }
        x[i] = acc / l[i * n + i];
    }
    x.iter().all(|v| v.is_finite()).then_some(x)
}

/// Ridge regression: minimizes `‖X·β − y‖² + λ‖β‖²` by solving the
/// normal equations `(XᵀX + λI)·β = Xᵀy` with [`cholesky_solve`].
///
/// The solution is **total**: rows whose length disagrees with the
/// widest row, or that contain non-finite values, are dropped; `λ` is
/// floored at a small multiple of the Gram matrix's mean diagonal so the
/// system is SPD even for rank-deficient designs; and if the solve still
/// fails (e.g. every row was hostile) the zero vector comes back instead
/// of a panic.
///
/// Each row contributes to `Xᵀy` and the lower triangle of `XᵀX` only
/// at its non-zero entries, visiting rows in order, so the result is
/// bit-identical to accumulating every entry (see the module docs).
pub fn ridge(rows: &[Vec<f64>], y: &[f64], lambda: f64) -> Vec<f64> {
    let p = rows.iter().map(Vec::len).max().unwrap_or(0);
    if p == 0 {
        return Vec::new();
    }
    let mut xtx = vec![0.0; p * p];
    let mut xty = vec![0.0; p];
    let mut nz: Vec<usize> = Vec::with_capacity(p);
    for (r, &yi) in rows.iter().zip(y) {
        if r.len() != p || !yi.is_finite() || r.iter().any(|v| !v.is_finite()) {
            continue;
        }
        nz.clear();
        nz.extend((0..p).filter(|&i| r[i] != 0.0));
        for (m, &i) in nz.iter().enumerate() {
            xty[i] += r[i] * yi;
            for &j in &nz[..=m] {
                xtx[i * p + j] += r[i] * r[j];
            }
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
    cholesky_solve(&xtx, &xty).unwrap_or_else(|| vec![0.0; p])
}

/// Dot product of equal-length slices (shorter length wins, so a
/// truncated coefficient vector degrades instead of panicking).
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![3.0, -4.0];
        assert_eq!(cholesky_solve(&a, &b), Some(vec![3.0, -4.0]));
    }

    #[test]
    fn solves_spd_system() {
        // A = [[4,2],[2,3]], x = [1,2] -> b = [8,8].
        let a = vec![4.0, 2.0, 2.0, 3.0];
        let x = cholesky_solve(&a, &[8.0, 8.0]).expect("SPD");
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_spd() {
        assert_eq!(cholesky_solve(&[-1.0], &[1.0]), None);
        assert_eq!(cholesky_solve(&[0.0], &[1.0]), None);
        assert_eq!(cholesky_solve(&[f64::NAN], &[1.0]), None);
        // Dimension mismatch.
        assert_eq!(cholesky_solve(&[1.0, 2.0], &[1.0]), None);
    }

    #[test]
    fn ridge_recovers_exact_coefficients() {
        // Orthogonal design: the ridge bias at the tiny floor is ~1e-12.
        let rows = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let beta = [2.5, -1.25];
        let y: Vec<f64> = rows.iter().map(|r| dot(r, &beta)).collect();
        let hat = ridge(&rows, &y, 0.0);
        assert!((hat[0] - beta[0]).abs() < 1e-9);
        assert!((hat[1] - beta[1]).abs() < 1e-9);
    }

    #[test]
    fn ridge_is_total_on_degenerate_designs() {
        // Rank-deficient: two identical columns still solve (λ floor).
        let rows = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        let beta = ridge(&rows, &[1.0, 2.0], 0.0);
        assert!(beta.iter().all(|v| v.is_finite()));
        // Hostile rows (NaN, wrong width) are dropped, not fatal.
        let rows = vec![vec![f64::NAN, 1.0], vec![1.0], vec![1.0, 0.0]];
        let beta = ridge(&rows, &[1.0, 2.0, 3.0], 0.0);
        assert_eq!(beta.len(), 2);
        assert!(beta.iter().all(|v| v.is_finite()));
        // No rows at all.
        assert!(ridge(&[], &[], 0.0).is_empty());
    }
}
