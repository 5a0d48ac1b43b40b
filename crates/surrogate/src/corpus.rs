//! Harvesting training data from recorded experiment reports.
//!
//! `mlp-experiments --json` leaves `mlp-experiments.report/v*` documents
//! on disk; this module reads them back into `(ConfigPoint, CPI)`
//! training pairs. Only rows that carry the full sweep coordinate —
//! `benchmark`, `window`, `mshrs`, `latency`, `l2_kb` — plus a `cpi`
//! value qualify (in practice, `sweep1000`'s simulated rows); rows from
//! other experiments are silently skipped, so pointing the trainer at a
//! mixed report directory is safe.
//!
//! Reports are read with the workspace's `mlp-json` parser.

use crate::features::{workload_index, ConfigPoint};
use mlp_json::Json;

/// One training pair harvested from a report row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorpusRow {
    /// The sweep coordinate.
    pub point: ConfigPoint,
    /// Simulated CPI at that coordinate.
    pub cpi: f64,
}

/// The field as a finite number (non-finite values never train).
fn finite(row: &Json, key: &str) -> Option<f64> {
    row.get(key)?.as_f64().filter(|x| x.is_finite())
}

fn axis_u32(row: &Json, key: &str) -> Option<u32> {
    let x = finite(row, key)?;
    (x > 0.0 && x <= u32::MAX as f64 && x.fract() == 0.0).then_some(x as u32)
}

/// Extracts every qualifying training row from one report document.
/// Returns an empty vector for non-JSON input, reports without rows, or
/// reports whose rows lack the full sweep coordinate.
pub fn rows_from_report(text: &str) -> Vec<CorpusRow> {
    let Ok(doc) = mlp_json::parse(text) else {
        return Vec::new();
    };
    let Some(rows) = doc.get("rows").and_then(Json::as_arr) else {
        return Vec::new();
    };
    rows.iter()
        .filter_map(|row| {
            let workload = workload_index(row.get("benchmark")?.as_str()?)?;
            let point = ConfigPoint {
                workload,
                window: axis_u32(row, "window")?,
                mshrs: axis_u32(row, "mshrs")?,
                latency: axis_u32(row, "latency")?,
                l2_kb: axis_u32(row, "l2_kb")?,
            };
            let cpi = finite(row, "cpi")?;
            (cpi > 0.0).then_some(CorpusRow { point, cpi })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        // Integer, float and exponent spellings all read as numbers, and
        // nested members outside the rows are ignored.
        let report = r#"{"meta": {"nested": [1, {"b": null}], "ok": true},
          "rows": [{"benchmark": "Database", "window": 64, "mshrs": 4.0,
                    "latency": 3e2, "l2_kb": 1024, "cpi": 225e-2, "extra": [{}]}]}"#;
        let rows = rows_from_report(report);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].point.mshrs, rows[0].point.latency), (4, 300));
        assert_eq!(rows[0].cpi, 2.25);
    }

    #[test]
    fn rejects_hostile_input() {
        let row = r#"{"benchmark": "Database", "window": 64, "mshrs": 4,
                      "latency": 300, "l2_kb": 1024, "cpi": 2.25}"#;
        let good = format!("{{\"rows\": [{row}]}}");
        assert_eq!(rows_from_report(&good).len(), 1);
        let deep = "[".repeat(100) + &"]".repeat(100);
        for bad in [
            good[..good.len() - 1].to_string(),
            format!("{good} trailing"),
            format!("{{\"deep\": {deep}, \"rows\": [{row}]}}"),
            good.replace("2.25", "1e999"),
            good.replace("\"window\": 64", "\"window\": -64"),
        ] {
            assert!(rows_from_report(&bad).is_empty(), "{bad}");
        }
    }

    #[test]
    fn harvests_only_full_coordinates() {
        let report = r#"{
          "schema": "mlp-experiments.report/v2",
          "rows": [
            {"source": "summary", "grid_points": 3888},
            {"benchmark": "Database", "window": 64, "mshrs": 4,
             "latency": 300, "l2_kb": 1024, "cpi": 2.25},
            {"benchmark": "Unknown", "window": 64, "mshrs": 4,
             "latency": 300, "l2_kb": 1024, "cpi": 2.25},
            {"benchmark": "SPECweb99", "window": 64, "mshrs": 4,
             "latency": 300, "cpi": 2.25},
            {"benchmark": "SPECjbb2000", "window": 64, "mshrs": 0,
             "latency": 300, "l2_kb": 1024, "cpi": 2.25}
          ]
        }"#;
        let rows = rows_from_report(report);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].point.workload, 0);
        assert_eq!(rows[0].point.window, 64);
        assert_eq!(rows[0].cpi, 2.25);
    }

    #[test]
    fn non_reports_yield_nothing() {
        assert!(rows_from_report("not json").is_empty());
        assert!(rows_from_report("{\"rows\": 3}").is_empty());
        assert!(rows_from_report("{}").is_empty());
    }
}
