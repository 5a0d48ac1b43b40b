//! Benchmark harness for the MLP workspace. The benchmarks live in
//! `benches/` (Criterion micro-benches and `harness = false` targets
//! that regenerate the paper's tables and figures into
//! `results/BENCH_*.json`); this library is the regression guard they
//! share.

use mlp_json::Json;

/// Maximum tolerated slowdown against the recorded baseline. Generous on
/// purpose: wall-clock on shared hosts is noisy and the guard should
/// only trip on structural regressions.
pub const GUARD_FACTOR: f64 = 3.0;

/// Whether the guard is on. `MLP_BENCH_GUARD=off` turns it off, to
/// re-bless an intentional trade-off or a slower host.
pub fn guard_enabled() -> bool {
    std::env::var("MLP_BENCH_GUARD").as_deref() != Ok("off")
}

/// Panics if any of `timings` (name, seconds) is more than
/// [`GUARD_FACTOR`]× its value in the previous `results/BENCH_*.json` at
/// `baseline_path`, read before the bench overwrites it. Times compare
/// only when the baseline's `same.0` field equals `same.1` (the scale or
/// instruction count); they are looked up in its `section` object, or at
/// its top level. Missing baselines or entries compare nothing.
pub fn guard_against_regression(
    baseline_path: &str,
    same: (&str, Json),
    section: Option<&str>,
    timings: &[(&str, f64)],
) {
    if !guard_enabled() {
        eprintln!("[bench guard disabled via MLP_BENCH_GUARD=off]");
        return;
    }
    let Some(old) = std::fs::read_to_string(baseline_path)
        .ok()
        .and_then(|text| mlp_json::parse(&text).ok())
    else {
        return; // first run or unreadable baseline: nothing to compare
    };
    let (key, want) = same;
    if old.get(key) != Some(&want) {
        return; // recorded under other conditions: not comparable
    }
    let table = match section {
        Some(name) => old.get(name),
        None => Some(&old),
    };
    for &(name, secs) in timings {
        let Some(old_secs) = table
            .and_then(|t| t.get(name))
            .and_then(Json::as_f64)
            .filter(|&s| s > 0.0)
        else {
            continue;
        };
        assert!(
            secs <= old_secs * GUARD_FACTOR,
            "{name} regressed: {secs:.3}s vs {old_secs:.3}s baseline (> {GUARD_FACTOR}x, \
             {key} {want}); fix the regression or rerun with MLP_BENCH_GUARD=off to re-bless"
        );
        eprintln!(
            "[bench guard: {name} {secs:.3}s vs baseline {old_secs:.3}s at {key} {want} \
             — within {GUARD_FACTOR}x]"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(tag: &str, text: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("mlp-bench-guard-{tag}-{}", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    }

    const BASE: &str = "{\n  \"scale\": \"quick\",\n  \"serial_secs\": 1.000,\n  \
                        \"experiments\": {\n    \"figure6\": 2.000\n  }\n}\n";

    #[test]
    fn within_factor_or_incomparable_passes() {
        let path = baseline("pass", BASE);
        let quick = || ("scale", Json::from("quick"));
        guard_against_regression(&path, quick(), None, &[("serial_secs", 2.9)]);
        guard_against_regression(&path, quick(), Some("experiments"), &[("figure6", 5.9)]);
        // Other scale, missing entries, missing file: nothing to compare.
        guard_against_regression(
            &path,
            ("scale", "full".into()),
            None,
            &[("serial_secs", 99.0)],
        );
        guard_against_regression(&path, quick(), None, &[("figure6", 99.0)]);
        guard_against_regression("/nonexistent/base.json", quick(), None, &[("x", 99.0)]);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn slowdown_past_factor_panics() {
        if !guard_enabled() {
            return;
        }
        let path = baseline("fail", BASE);
        let hit = std::panic::catch_unwind(|| {
            guard_against_regression(
                &path,
                ("scale", "quick".into()),
                Some("experiments"),
                &[("figure6", 6.1)],
            )
        });
        let _ = std::fs::remove_file(&path);
        assert!(hit.is_err(), "a 3.05x slowdown must trip the guard");
    }
}
