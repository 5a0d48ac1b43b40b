//! Cross-validation over the checked-in golden report corpus: the
//! surrogate's published tolerance (median ≤ 5%, p99 ≤ 15% relative CPI
//! error on held-out points) must hold on real simulated data, not just
//! synthetic truths.
//!
//! The corpus is whatever `tests/golden/*.quick.json` reports carry full
//! sweep coordinates — today that is the `sweep1000` snapshot, several
//! hundred engine-priced points spanning every workload, window, MSHR
//! count, latency, and L2 size in the sweep. Folds group whole engine
//! cells (see `mlp_surrogate::cv_fold`), so the score measures
//! generalization to unseen cells.
//!
//! Runs in debug builds too: the one-hot feature blocks make each fold's
//! 231-wide Gram matrix block-diagonal, and the sparse ridge and envelope
//! Cholesky in `linalg` skip the exact zeros.

use mlp_surrogate::{corpus, default_priors, kfold_cv};
use std::fs;
use std::path::PathBuf;

/// Ridge penalty used by the `sweep1000` exploration loop
/// (`mlp_experiments::exp::sweep1000::explore_config()`); duplicated as
/// a literal because depending on `mlp-experiments` here would be a
/// dependency cycle. Its golden snapshot pins the value operationally:
/// if the exploration penalty drifts, this corpus was fit with the new
/// value and this test's score moves too.
const LAMBDA: f64 = 1e-3;

#[test]
fn golden_corpus_cross_validates_within_tolerance() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("tests/golden exists — run from the workspace checkout")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".quick.json"))
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no golden reports found in {dir:?}");

    let mut points = Vec::new();
    let mut cpi = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable golden report");
        for row in corpus::rows_from_report(&text) {
            points.push(row.point);
            cpi.push(row.cpi);
        }
    }
    assert!(
        points.len() >= 500,
        "golden corpus shrank to {} rows — the sweep1000 snapshot alone \
         contributes ~750; was it re-blessed with a smaller budget?",
        points.len()
    );

    let cv = kfold_cv(&points, &cpi, &default_priors(), 5, LAMBDA);
    assert_eq!(cv.n, points.len(), "every corpus row must be scored");
    assert!(
        cv.within_tolerance(),
        "surrogate out of tolerance on the golden corpus: \
         median {:.2}% (≤ {:.0}%), p99 {:.2}% (≤ {:.0}%) over {} points; \
         worst offender {:?} at {:.2}%",
        cv.median_pct,
        mlp_surrogate::TOL_MEDIAN_PCT,
        cv.p99_pct,
        mlp_surrogate::TOL_P99_PCT,
        cv.n,
        cv.worst,
        cv.worst_pct,
    );
}
