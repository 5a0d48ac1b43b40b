//! `mlp-surrogate` — a physics-informed surrogate of the CPI response
//! surface over the experiment design space.
//!
//! Every point of a sweep grid normally costs a full simulation. This
//! crate fits the CPI surface from already-recorded runs instead, using
//! the paper's own §2.2 CPI equation (`mlp-model`) as the *mean
//! function* — the analytic prior carries the latency scaling and the
//! per-workload on-chip/off-chip split — and hand-rolled ridge
//! regression over a polynomial/interaction basis ([`features`]) to fit
//! the residuals. A jackknife ensemble provides a per-point uncertainty
//! estimate, which drives the active-sampling loop in [`active`]:
//! predict the whole grid, simulate only the most uncertain points,
//! refit, repeat until cross-validation meets the pinned tolerance.
//!
//! Everything is first-party and deterministic: the Cholesky solve in
//! [`linalg`] is the only linear algebra, training rows are canonically
//! ordered before any floating-point accumulation (so the fit is
//! invariant to input row order, bit for bit), and no randomness exists
//! anywhere in the crate.
//!
//! # Examples
//!
//! ```
//! use mlp_surrogate::{ConfigPoint, Surrogate, default_priors};
//!
//! let points = vec![
//!     ConfigPoint { workload: 0, window: 16, mshrs: 1, latency: 200, l2_kb: 512 },
//!     ConfigPoint { workload: 0, window: 64, mshrs: 8, latency: 1000, l2_kb: 4096 },
//! ];
//! let cpi = vec![2.6, 7.2];
//! let s = Surrogate::fit(&points, &cpi, &default_priors());
//! let pred = s.predict(&points[0]);
//! assert!(pred.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod active;
pub mod corpus;
pub mod features;
pub mod linalg;
pub mod report;

pub use features::{features, workload_index, ConfigPoint, DIM, NUM_WORKLOADS, WORKLOAD_NAMES};

/// Pinned cross-validation tolerance: median relative CPI error on
/// held-out points must not exceed this (percent).
pub const TOL_MEDIAN_PCT: f64 = 5.0;

/// Pinned cross-validation tolerance: p99 relative CPI error on held-out
/// points must not exceed this (percent).
pub const TOL_P99_PCT: f64 = 15.0;

/// Default ridge penalty. The basis is normalized to O(1) per axis, so a
/// small absolute λ regularizes the rank-deficient directions without
/// visibly biasing the well-constrained ones.
pub const DEFAULT_LAMBDA: f64 = 1e-6;

/// Jackknife ensemble size used for the uncertainty estimate.
pub const ENSEMBLE: usize = 8;

/// Per-workload physics prior: the §2.2 CPI equation's ingredients,
/// evaluated as the surrogate's mean function.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadPrior {
    /// On-chip CPI component, `CPI_perf·(1−Overlap_CM)`.
    pub cpi_on_chip: f64,
    /// Off-chip accesses per instruction.
    pub miss_rate: f64,
    /// Prior average MLP at the default configuration.
    pub mlp: f64,
}

impl WorkloadPrior {
    /// The prior mean CPI at `latency` cycles: the §2.2 equation with
    /// this workload's measured constants. MSHR/window/cache effects are
    /// left to the ridge residual; the prior's job is the dominant
    /// linear-in-latency off-chip term.
    pub fn mean_cpi(&self, latency: u32) -> f64 {
        let m = mlp_model::CpiModel {
            cpi_perf: self.cpi_on_chip,
            overlap_cm: 0.0,
            miss_rate: self.miss_rate,
            miss_penalty: latency as f64,
        };
        m.cpi(self.mlp)
    }

    /// The prior's off-chip CPI component at `latency` cycles,
    /// `MissRate·latency/MLP` — the denominator of the log-space
    /// residual the ridge layer fits. Floored at a tiny positive value
    /// so the ratio is always defined.
    pub fn off_chip_cpi(&self, latency: u32) -> f64 {
        (self.mean_cpi(latency) - self.cpi_on_chip).max(1e-12)
    }
}

/// Clamp for the fitted log-residual before exponentiation: keeps a
/// wildly extrapolated fold finite instead of predicting an infinite or
/// zero off-chip component.
const LOG_RESIDUAL_CLAMP: f64 = 20.0;

/// The log-space residual target for one training pair: how far the
/// observed off-chip CPI sits from the prior's, in log ratio. Fitting in
/// log space makes least squares minimize *relative* error — the metric
/// the tolerance contract is written in — and cancels the latency axis
/// exactly for responses linear in latency. The observed off-chip
/// component is floored at a tiny positive value so a measured CPI at or
/// below the prior's on-chip CPI still yields a finite target.
fn residual_target(prior: &WorkloadPrior, latency: u32, cpi: f64) -> f64 {
    ((cpi - prior.cpi_on_chip).max(1e-9) / prior.off_chip_cpi(latency)).ln()
}

/// Default priors for the three workloads, index-aligned with
/// [`WORKLOAD_NAMES`]: the quick-scale Table 1 calibration of this
/// workspace (on-chip CPI and miss rate measured there; MLP the
/// 1000-cycle column).
pub fn default_priors() -> [WorkloadPrior; NUM_WORKLOADS] {
    [
        WorkloadPrior {
            cpi_on_chip: 0.955935,
            miss_rate: 0.0091425,
            mlp: 1.3691337280871214,
        },
        WorkloadPrior {
            cpi_on_chip: 1.2251975,
            miss_rate: 0.00267,
            mlp: 1.087026219927389,
        },
        WorkloadPrior {
            cpi_on_chip: 1.1923925,
            miss_rate: 0.0011325,
            mlp: 1.3269281466943965,
        },
    ]
}

/// A fitted surrogate: prior mean plus ridge residual coefficients, and
/// a jackknife ensemble for uncertainty.
#[derive(Clone, Debug)]
pub struct Surrogate {
    priors: [WorkloadPrior; NUM_WORKLOADS],
    beta: Vec<f64>,
    ensemble: Vec<Vec<f64>>,
}

/// One canonically-ordered training row: features, prior-subtracted
/// residual target.
type TrainRow = (Vec<f64>, f64);

fn canonical_rows(
    points: &[ConfigPoint],
    cpi: &[f64],
    priors: &[WorkloadPrior; NUM_WORKLOADS],
) -> Vec<TrainRow> {
    let mut rows: Vec<TrainRow> = points
        .iter()
        .zip(cpi)
        .map(|(p, &y)| {
            (
                features(p),
                residual_target(&priors[p.workload], p.latency, y),
            )
        })
        .collect();
    // Canonical order before any accumulation: the fit (and therefore
    // every prediction) is bit-identical however the caller ordered the
    // training set. Ties are identical rows, so their order is moot.
    rows.sort_by(|a, b| {
        a.0.iter()
            .map(|v| v.to_bits())
            .cmp(b.0.iter().map(|v| v.to_bits()))
            .then(a.1.total_cmp(&b.1))
    });
    rows
}

impl Surrogate {
    /// Fits the surrogate to observed `(point, CPI)` pairs with the
    /// default ridge penalty.
    ///
    /// # Panics
    ///
    /// Panics if `points` and `cpi` lengths disagree, or a point carries
    /// an out-of-range workload or a zero axis (see [`features`]).
    pub fn fit(
        points: &[ConfigPoint],
        cpi: &[f64],
        priors: &[WorkloadPrior; NUM_WORKLOADS],
    ) -> Surrogate {
        Surrogate::fit_with(points, cpi, priors, DEFAULT_LAMBDA)
    }

    /// [`Surrogate::fit`] with an explicit ridge penalty.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Surrogate::fit`].
    pub fn fit_with(
        points: &[ConfigPoint],
        cpi: &[f64],
        priors: &[WorkloadPrior; NUM_WORKLOADS],
        lambda: f64,
    ) -> Surrogate {
        assert_eq!(points.len(), cpi.len(), "points/cpi length mismatch");
        let rows = canonical_rows(points, cpi, priors);
        let beta = fit_beta(&rows, lambda);
        let folds = ENSEMBLE.min(rows.len()).max(1);
        let ensemble = (0..folds)
            .map(|f| {
                let (fx, fy): (Vec<Vec<f64>>, Vec<f64>) = rows
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % folds != f)
                    .map(|(_, (x, y))| (x.clone(), *y))
                    .unzip();
                linalg::ridge(&fx, &fy, lambda)
            })
            .collect();
        Surrogate {
            priors: *priors,
            beta,
            ensemble,
        }
    }

    /// Predicted CPI at `p`: the prior's on-chip CPI plus its off-chip
    /// component scaled by the fitted log-space residual. The
    /// exponential keeps the off-chip component positive, so a
    /// prediction is never below the workload's on-chip CPI.
    pub fn predict(&self, p: &ConfigPoint) -> f64 {
        let prior = &self.priors[p.workload];
        predict_cpi(prior, p.latency, &self.beta, &features(p))
    }

    /// Relative uncertainty (percent) at `p`: the spread of the
    /// jackknife ensemble's predictions around their mean. Zero only
    /// when every fold agrees exactly — in practice, points far from any
    /// training data disagree the most, which is what active sampling
    /// exploits.
    pub fn uncertainty_pct(&self, p: &ConfigPoint) -> f64 {
        let prior = &self.priors[p.workload];
        let phi = features(p);
        let preds: Vec<f64> = self
            .ensemble
            .iter()
            .map(|beta| predict_cpi(prior, p.latency, beta, &phi))
            .collect();
        let n = preds.len() as f64;
        let mean = preds.iter().sum::<f64>() / n;
        let var = preds.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        100.0 * var.sqrt() / mean.abs().max(1e-9)
    }
}

/// The ridge coefficients of canonically ordered rows: all that
/// [`Surrogate::predict`] needs, without the jackknife ensemble.
fn fit_beta(rows: &[TrainRow], lambda: f64) -> Vec<f64> {
    let xs: Vec<Vec<f64>> = rows.iter().map(|(x, _)| x.clone()).collect();
    let ys: Vec<f64> = rows.iter().map(|&(_, y)| y).collect();
    linalg::ridge(&xs, &ys, lambda)
}

/// [`Surrogate::predict`] under coefficients `beta`, for a point with
/// features `phi` at `latency` cycles.
fn predict_cpi(prior: &WorkloadPrior, latency: u32, beta: &[f64], phi: &[f64]) -> f64 {
    let t = linalg::dot(beta, phi).clamp(-LOG_RESIDUAL_CLAMP, LOG_RESIDUAL_CLAMP);
    prior.cpi_on_chip + prior.off_chip_cpi(latency) * t.exp()
}

/// Held-out error statistics from [`kfold_cv`].
#[derive(Clone, Debug)]
pub struct CvStats {
    /// Held-out points scored.
    pub n: usize,
    /// Median relative CPI error, percent.
    pub median_pct: f64,
    /// 99th-percentile relative CPI error, percent.
    pub p99_pct: f64,
    /// Largest relative CPI error, percent.
    pub worst_pct: f64,
    /// The config behind [`CvStats::worst_pct`], for failure messages.
    pub worst: Option<ConfigPoint>,
}

impl CvStats {
    /// Whether the statistics meet the pinned tolerance
    /// ([`TOL_MEDIAN_PCT`] / [`TOL_P99_PCT`]).
    pub fn within_tolerance(&self) -> bool {
        self.n > 0 && self.median_pct <= TOL_MEDIAN_PCT && self.p99_pct <= TOL_P99_PCT
    }
}

/// The fold a point belongs to in [`kfold_cv`]: a deterministic hash of
/// the point's engine cell `(workload, window, L2)`.
///
/// Grouping folds by cell instead of round-robin keeps a simulated
/// cell's free `(MSHRs, latency)` stencil mates on one side of the
/// train/test split — otherwise near-duplicates of every held-out point
/// sit in the training set and the CV score measures interpolation
/// within a cell, not generalization to unseen cells (which is what the
/// published tolerance claims).
pub fn cv_fold(p: &ConfigPoint, k: usize) -> usize {
    let h = (p.workload as u64)
        .wrapping_mul(1_000_003)
        .wrapping_add(u64::from(p.window))
        .wrapping_mul(1_000_033)
        .wrapping_add(u64::from(p.l2_kb));
    (h % k.max(1) as u64) as usize
}

/// `k`-fold cross-validation: folds group whole engine cells (see
/// [`cv_fold`]), each fold's points are predicted by ridge coefficients
/// fitted on the other folds (the same `beta` [`Surrogate::fit_with`]
/// would produce; scoring never needs its jackknife ensemble), and the
/// relative errors are summarized. Fully deterministic for a fixed input
/// order.
///
/// # Panics
///
/// Panics if `points` and `cpi` lengths disagree or `k == 0`.
pub fn kfold_cv(
    points: &[ConfigPoint],
    cpi: &[f64],
    priors: &[WorkloadPrior; NUM_WORKLOADS],
    k: usize,
    lambda: f64,
) -> CvStats {
    assert_eq!(points.len(), cpi.len(), "points/cpi length mismatch");
    assert!(k > 0, "need at least one fold");
    let k = k.min(points.len()).max(1);
    let mut errors: Vec<(f64, usize)> = Vec::with_capacity(points.len());
    for fold in 0..k {
        let (tp, ty): (Vec<ConfigPoint>, Vec<f64>) = points
            .iter()
            .zip(cpi)
            .filter(|(p, _)| cv_fold(p, k) != fold)
            .map(|(p, &y)| (*p, y))
            .unzip();
        if tp.is_empty() {
            continue;
        }
        let beta = fit_beta(&canonical_rows(&tp, &ty, priors), lambda);
        for (i, (p, &y)) in points.iter().zip(cpi).enumerate() {
            if cv_fold(p, k) == fold {
                let pred = predict_cpi(&priors[p.workload], p.latency, &beta, &features(p));
                errors.push((mlp_model::pct_error(pred, y).abs(), i));
            }
        }
    }
    summarize_errors(points, errors)
}

fn summarize_errors(points: &[ConfigPoint], mut errors: Vec<(f64, usize)>) -> CvStats {
    if errors.is_empty() {
        return CvStats {
            n: 0,
            median_pct: f64::INFINITY,
            p99_pct: f64::INFINITY,
            worst_pct: f64::INFINITY,
            worst: None,
        };
    }
    errors.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let n = errors.len();
    let quantile = |q: f64| errors[((q * (n - 1) as f64).round() as usize).min(n - 1)].0;
    let &(worst_pct, worst_idx) = errors.last().expect("non-empty");
    CvStats {
        n,
        median_pct: quantile(0.5),
        p99_pct: quantile(0.99),
        worst_pct,
        worst: points.get(worst_idx).copied(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_grid() -> Vec<ConfigPoint> {
        let mut grid = Vec::new();
        for workload in 0..NUM_WORKLOADS {
            for &window in &[16u32, 64, 256] {
                for &mshrs in &[1u32, 4, 16] {
                    for &latency in &[200u32, 1000] {
                        for &l2_kb in &[512u32, 2048] {
                            grid.push(ConfigPoint {
                                workload,
                                window,
                                mshrs,
                                latency,
                                l2_kb,
                            });
                        }
                    }
                }
            }
        }
        grid
    }

    /// A synthetic truth with the same structure the features target:
    /// the prior's on-chip CPI plus a latency-linear off-chip component.
    fn toy_truth(p: &ConfigPoint) -> f64 {
        let base = default_priors()[p.workload].cpi_on_chip;
        let lw = (p.window as f64).log2();
        base + p.latency as f64 * (0.002 + 0.004 / p.mshrs as f64) * (1.0 + 0.05 * lw)
            / (p.l2_kb as f64).log2()
    }

    #[test]
    fn fit_interpolates_toy_truth() {
        let grid = toy_grid();
        let cpi: Vec<f64> = grid.iter().map(toy_truth).collect();
        let s = Surrogate::fit(&grid, &cpi, &default_priors());
        let worst = grid
            .iter()
            .zip(&cpi)
            .map(|(p, &y)| (mlp_model::pct_error(s.predict(p), y)).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 5.0, "toy in-sample worst error {worst:.2}%");
    }

    #[test]
    fn fit_is_invariant_to_row_order() {
        let grid = toy_grid();
        let cpi: Vec<f64> = grid.iter().map(toy_truth).collect();
        let fwd = Surrogate::fit(&grid, &cpi, &default_priors());
        let mut rev_grid = grid.clone();
        let mut rev_cpi = cpi.clone();
        rev_grid.reverse();
        rev_cpi.reverse();
        let rev = Surrogate::fit(&rev_grid, &rev_cpi, &default_priors());
        for p in &grid {
            assert_eq!(fwd.predict(p).to_bits(), rev.predict(p).to_bits());
            assert_eq!(
                fwd.uncertainty_pct(p).to_bits(),
                rev.uncertainty_pct(p).to_bits()
            );
        }
    }

    #[test]
    fn uncertainty_grows_away_from_training_data() {
        let grid = toy_grid();
        // Train on workload 0 only; workloads 1/2 are unseen.
        let (tp, ty): (Vec<ConfigPoint>, Vec<f64>) = grid
            .iter()
            .filter(|p| p.workload == 0)
            .map(|p| (*p, toy_truth(p)))
            .unzip();
        let s = Surrogate::fit(&tp, &ty, &default_priors());
        let seen = s.uncertainty_pct(&tp[0]);
        let unseen = s.uncertainty_pct(&ConfigPoint {
            workload: 1,
            ..tp[0]
        });
        // An unseen workload's block has no data at all: every jackknife
        // fold agrees it is all prior, so spread is ~0 there — instead
        // compare a *sparsely* seen corner. Drop most of workload 0's
        // points and check the dropped corner is less certain.
        let (sp, sy): (Vec<ConfigPoint>, Vec<f64>) = tp
            .iter()
            .zip(&ty)
            .filter(|(p, _)| p.mshrs > 1)
            .map(|(p, &y)| (*p, y))
            .unzip();
        let sparse = Surrogate::fit(&sp, &sy, &default_priors());
        let corner = ConfigPoint {
            workload: 0,
            window: 16,
            mshrs: 1,
            latency: 1000,
            l2_kb: 512,
        };
        assert!(
            sparse.uncertainty_pct(&corner) > sparse.uncertainty_pct(&sp[0]),
            "unsampled corner must be less certain than a training point"
        );
        let _ = (seen, unseen);
    }

    #[test]
    fn kfold_cv_scores_toy_truth_within_tolerance() {
        let grid = toy_grid();
        let cpi: Vec<f64> = grid.iter().map(toy_truth).collect();
        let cv = kfold_cv(&grid, &cpi, &default_priors(), 5, DEFAULT_LAMBDA);
        assert_eq!(cv.n, grid.len());
        assert!(cv.within_tolerance(), "toy CV: {cv:?}");
        assert!(cv.worst.is_some());
        assert!(cv.median_pct <= cv.p99_pct && cv.p99_pct <= cv.worst_pct);
    }

    #[test]
    fn empty_cv_is_out_of_tolerance() {
        let cv = kfold_cv(&[], &[], &default_priors(), 5, DEFAULT_LAMBDA);
        assert_eq!(cv.n, 0);
        assert!(!cv.within_tolerance());
    }

    #[test]
    fn priors_match_table1_shape() {
        let priors = default_priors();
        for p in &priors {
            assert!(p.cpi_on_chip > 0.5 && p.cpi_on_chip < 2.0);
            assert!(p.mlp >= 1.0);
            // Mean CPI grows with latency.
            assert!(p.mean_cpi(1000) > p.mean_cpi(200));
        }
    }
}
