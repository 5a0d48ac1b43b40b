//! Structured, machine-readable experiment results.
//!
//! Every registered experiment emits a [`Report`] alongside its text
//! rendering: a stable JSON document (`results/<name>.<scale>.json`)
//! carrying the experiment id, paper section, run scale, completion
//! [`Status`], seed, swept axes and one object per result row. The
//! schema is versioned via [`SCHEMA`], and serialization is fully
//! deterministic — key order is insertion order and floats use Rust's
//! shortest round-trip formatting — so a report is byte-identical across
//! hosts and `MLP_THREADS` settings.
//!
//! Schema v3 adds an optional observability `metrics` block after the
//! rows — counter values and phase-timer totals drained from `mlp-obs`
//! by the CLI. The block (and the v3 schema tag) appears only when
//! `MLP_OBS` was armed; otherwise the document is byte-identical to v2.
//!
//! Schema v2 adds degraded-mode reporting: a successful run carries
//! `"status": "ok"` (and stays byte-identical to a run where a sibling
//! experiment failed), while an experiment that panicked still writes a
//! report — `"status": "failed"` plus the panic payload and elapsed wall
//! time, with empty axes and rows — so a batch that lost one experiment
//! keeps a machine-readable record of *what* failed and *why* next to
//! the nineteen results that survived.
//!
//! Values are the workspace's [`Json`] type (`mlp-json`, no serde: the
//! workspace builds offline), and its writer renders every value and
//! string in the document; this module only lays out the report.
//!
//! # Examples
//!
//! ```
//! use mlp_experiments::report::{Json, Report, Row};
//! use mlp_experiments::RunScale;
//!
//! let mut r = Report::new("demo", "Demo table", "§0", RunScale::quick());
//! r.axis("latency", [200u64, 1000]);
//! r.row(Row::new().field("benchmark", "Database").field("mlp", 1.38));
//! let json = r.to_json();
//! assert!(json.contains("\"experiment\": \"demo\""));
//! assert!(json.contains("\"mlp\": 1.38"));
//! ```

use crate::runner::SEED;
use crate::RunScale;
use mlp_json::write_str;
pub use mlp_json::Json;
use std::fmt::Write as _;

/// Version tag stamped into every report, bumped on schema changes.
pub const SCHEMA: &str = "mlp-experiments.report/v2";

/// Schema tag for reports carrying an observability `metrics` block.
/// Emitted **only** when [`Report::metrics`] is non-empty (i.e. the run
/// had `MLP_OBS` armed); with observability off the document — schema
/// string included — stays byte-identical to v2, so goldens recorded
/// without metrics never re-bless.
pub const SCHEMA_V3: &str = "mlp-experiments.report/v3";

/// Schema tag for reports that additionally carry a `histograms` block
/// (distribution metrics drained from `mlp-obs`). Emitted **only** when
/// [`Report::histograms`] is non-empty; armed runs that recorded no
/// distributions still emit v3, and unarmed runs stay byte-identical
/// to v2.
pub const SCHEMA_V4: &str = "mlp-experiments.report/v4";

/// How an experiment run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Status {
    /// The experiment completed and its rows are trustworthy.
    Ok,
    /// The experiment panicked; the report is a degraded-mode record
    /// with no axes or rows.
    Failed {
        /// The panic payload (stringified).
        error: String,
        /// Wall time spent before the failure surfaced, in milliseconds.
        elapsed_ms: u64,
    },
}

/// One result row: an ordered list of named fields.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row {
    fields: Vec<(&'static str, Json)>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Appends a field (keys keep insertion order in the output).
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Row {
        self.fields.push((key, value.into()));
        self
    }

    /// The fields in insertion order.
    pub fn fields(&self) -> &[(&'static str, Json)] {
        &self.fields
    }

    /// The value of the named field, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = " ".repeat(indent);
        out.push_str("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            out.push_str(&pad);
            out.push_str("  ");
            write_str(out, k);
            out.push_str(": ");
            v.write(out);
            out.push_str(if i + 1 < self.fields.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str(&pad);
        out.push('}');
    }
}

/// A structured experiment report (one JSON document).
#[derive(Clone, Debug)]
pub struct Report {
    /// Registry name of the experiment (e.g. `table1`).
    pub experiment: &'static str,
    /// Human title, matching the text rendering's title line.
    pub title: &'static str,
    /// Paper anchor (e.g. `§5.2`).
    pub section: &'static str,
    /// Scale label (`quick` / `standard` / `full` / `custom`).
    pub scale: &'static str,
    /// How the run ended (see [`Status`]).
    pub status: Status,
    /// The deterministic seed every run used.
    pub seed: u64,
    /// Swept axes: name → array of axis values.
    pub axes: Vec<(&'static str, Json)>,
    /// One object per result row.
    pub rows: Vec<Row>,
    /// Observability metrics drained from `mlp-obs` after the run
    /// (empty — and omitted from the JSON — unless `MLP_OBS` was armed).
    pub metrics: Vec<(String, Json)>,
    /// Distribution metrics (log2-bucketed histograms) drained from
    /// `mlp-obs` after the run; non-empty only under `MLP_OBS` and only
    /// when some probe recorded a distribution.
    pub histograms: Vec<mlp_obs::HistogramValue>,
}

impl Report {
    /// A report skeleton for `experiment` at `scale` (seed filled from
    /// [`SEED`](crate::runner::SEED)).
    pub fn new(
        experiment: &'static str,
        title: &'static str,
        section: &'static str,
        scale: RunScale,
    ) -> Report {
        Report {
            experiment,
            title,
            section,
            scale: scale.label(),
            status: Status::Ok,
            seed: SEED,
            axes: Vec::new(),
            rows: Vec::new(),
            metrics: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// A degraded-mode report for an experiment that panicked: same
    /// identity fields as a successful report, `status: "failed"` with
    /// the panic payload and elapsed wall time, and no axes or rows.
    /// Written by the `mlp-experiments` binary so a faulted batch leaves
    /// a machine-readable record for the failed experiment too.
    pub fn failed(
        experiment: &'static str,
        title: &'static str,
        section: &'static str,
        scale: RunScale,
        error: String,
        elapsed_ms: u64,
    ) -> Report {
        let mut r = Report::new(experiment, title, section, scale);
        r.status = Status::Failed { error, elapsed_ms };
        r
    }

    /// Records a swept axis.
    pub fn axis(&mut self, name: &'static str, values: impl Into<Json>) -> &mut Report {
        self.axes.push((name, values.into()));
        self
    }

    /// Appends a result row.
    pub fn row(&mut self, row: Row) -> &mut Report {
        self.rows.push(row);
        self
    }

    /// Attaches a drained `mlp-obs` snapshot as the report's metrics
    /// block: counters keep their names, each timer expands to
    /// `<name>.count` / `<name>.total_ms` / `<name>.max_ms`, and any
    /// drained histograms become the `histograms` block. A non-empty
    /// metrics block switches the emitted schema tag to [`SCHEMA_V3`];
    /// a non-empty histograms block switches it to [`SCHEMA_V4`].
    pub fn set_metrics(&mut self, snapshot: &mlp_obs::Snapshot) -> &mut Report {
        self.metrics.clear();
        self.histograms = snapshot.histograms.clone();
        for c in &snapshot.counters {
            self.metrics
                .push((c.name.to_string(), Json::Int(c.value as i64)));
        }
        for t in &snapshot.timers {
            self.metrics
                .push((format!("{}.count", t.name), Json::Int(t.count as i64)));
            self.metrics.push((
                format!("{}.total_ms", t.name),
                Json::Num(t.total_ns as f64 / 1e6),
            ));
            self.metrics.push((
                format!("{}.max_ms", t.name),
                Json::Num(t.max_ns as f64 / 1e6),
            ));
        }
        self
    }

    /// Serializes the report (deterministic, trailing newline). The
    /// schema tag is [`SCHEMA_V4`] when a histograms block is present,
    /// [`SCHEMA_V3`] when only a metrics block is, and plain v2
    /// otherwise, so observability-off output is byte-identical to v2.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = write!(out, "  \"schema\": ");
        write_str(
            &mut out,
            if !self.histograms.is_empty() {
                SCHEMA_V4
            } else if !self.metrics.is_empty() {
                SCHEMA_V3
            } else {
                SCHEMA
            },
        );
        let _ = write!(out, ",\n  \"experiment\": ");
        write_str(&mut out, self.experiment);
        let _ = write!(out, ",\n  \"title\": ");
        write_str(&mut out, self.title);
        let _ = write!(out, ",\n  \"section\": ");
        write_str(&mut out, self.section);
        let _ = write!(out, ",\n  \"scale\": ");
        write_str(&mut out, self.scale);
        match &self.status {
            Status::Ok => out.push_str(",\n  \"status\": \"ok\""),
            Status::Failed { error, elapsed_ms } => {
                out.push_str(",\n  \"status\": \"failed\",\n  \"error\": ");
                write_str(&mut out, error);
                let _ = write!(out, ",\n  \"elapsed_ms\": {elapsed_ms}");
            }
        }
        let _ = write!(out, ",\n  \"seed\": {},\n  \"axes\": {{", self.seed);
        for (i, (name, values)) in self.axes.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            write_str(&mut out, name);
            out.push_str(": ");
            values.write(&mut out);
        }
        if !self.axes.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            row.write(&mut out, 4);
        }
        if !self.rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
        if !self.metrics.is_empty() {
            out.push_str(",\n  \"metrics\": {");
            for (i, (name, value)) in self.metrics.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str("    ");
                write_str(&mut out, name);
                out.push_str(": ");
                value.write(&mut out);
            }
            out.push_str("\n  }");
        }
        if !self.histograms.is_empty() {
            out.push_str(",\n  \"histograms\": {");
            for (i, hist) in self.histograms.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str("    ");
                write_str(&mut out, hist.name);
                let _ = write!(
                    out,
                    ": {{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                    hist.count,
                    hist.sum,
                    hist.max,
                    hist.quantile(0.50),
                    hist.quantile(0.90),
                    hist.quantile(0.99),
                );
                for (j, &(bucket, n)) in hist.buckets.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "[{}, {n}]", mlp_obs::bucket_lo(bucket as usize));
                }
                out.push_str("]}");
            }
            out.push_str("\n  }");
        }
        out.push_str("\n}\n");
        out
    }

    /// The canonical artifact filename, `<name>.<scale>.json`.
    pub fn filename(&self) -> String {
        format!("{}.{}.json", self.experiment, self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_values_serialize() {
        let mut out = String::new();
        Json::Arr(vec![
            Json::Null,
            Json::Bool(true),
            Json::Int(-3),
            Json::Num(1.38),
            Json::Num(f64::INFINITY),
            Json::Str("a\"b\n".into()),
        ])
        .write(&mut out);
        assert_eq!(out, r#"[null, true, -3, 1.38, null, "a\"b\n"]"#);
    }

    #[test]
    fn report_round_trip_shape() {
        let mut r = Report::new("demo", "Demo", "§1", RunScale::quick());
        r.axis("size", vec![16u64, 32]);
        r.row(Row::new().field("benchmark", "Database").field("mlp", 1.5));
        let json = r.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"mlp-experiments.report/v2\""));
        assert!(json.contains("\"scale\": \"quick\""));
        assert!(json.contains("\"status\": \"ok\""));
        assert!(!json.contains("\"error\""));
        assert!(json.contains("\"size\": [16, 32]"));
        assert!(json.contains("\"mlp\": 1.5"));
        assert!(json.ends_with("}\n"));
        assert_eq!(r.filename(), "demo.quick.json");
    }

    #[test]
    fn failed_report_carries_error_and_elapsed() {
        let r = Report::failed(
            "demo",
            "Demo",
            "§1",
            RunScale::quick(),
            "injected fault: sweep-panic:1 (occurrence 1)".to_string(),
            250,
        );
        let json = r.to_json();
        assert!(json.contains("\"status\": \"failed\""));
        assert!(json.contains("\"error\": \"injected fault: sweep-panic:1 (occurrence 1)\""));
        assert!(json.contains("\"elapsed_ms\": 250"));
        assert!(json.contains("\"axes\": {},"));
        assert!(json.contains("\"rows\": []"));
        assert_eq!(r.filename(), "demo.quick.json");
    }

    #[test]
    fn empty_axes_and_rows_stay_valid() {
        let r = Report::new("demo", "Demo", "§1", RunScale::quick());
        let json = r.to_json();
        assert!(json.contains("\"axes\": {},"));
        assert!(json.contains("\"rows\": []"));
    }

    #[test]
    fn metrics_block_switches_schema_to_v3() {
        let mut r = Report::new("demo", "Demo", "§1", RunScale::quick());
        let without = r.to_json();
        assert!(without.contains("\"schema\": \"mlp-experiments.report/v2\""));
        assert!(!without.contains("\"metrics\""));

        let snapshot = mlp_obs::Snapshot {
            counters: vec![mlp_obs::CounterValue {
                name: "mlpsim.epochs",
                kind: mlp_obs::CounterKind::Sum,
                value: 42,
            }],
            timers: vec![mlp_obs::TimerValue {
                name: "runner.sweep_point",
                count: 3,
                total_ns: 1_500_000,
                max_ns: 1_000_000,
            }],
            histograms: vec![],
        };
        r.set_metrics(&snapshot);
        let with = r.to_json();
        assert!(with.contains("\"schema\": \"mlp-experiments.report/v3\""));
        assert!(with.contains("\"metrics\": {\n    \"mlpsim.epochs\": 42,"));
        assert!(with.contains("\"runner.sweep_point.count\": 3"));
        assert!(with.contains("\"runner.sweep_point.total_ms\": 1.5"));
        assert!(with.contains("\"runner.sweep_point.max_ms\": 1"));
        // Everything before the metrics block is unchanged bytes.
        let head = with.split("\"metrics\"").next().unwrap();
        let want_head = without
            .replace("report/v2", "report/v3")
            .replace("]\n}\n", "],\n  ");
        assert_eq!(head, want_head);
    }

    #[test]
    fn histograms_block_switches_schema_to_v4() {
        // Observations 1, 2, 3, 100 in log2 buckets: 1→[1], 2..3→[2,3],
        // 64..127→[100]. Bucket indices are the value bit widths.
        let value = mlp_obs::HistogramValue {
            name: "demo.latency",
            buckets: vec![(1, 1), (2, 2), (7, 1)],
            count: 4,
            sum: 106,
            max: 100,
        };

        let mut r = Report::new("demo", "Demo", "§1", RunScale::quick());
        let snapshot = mlp_obs::Snapshot {
            counters: vec![mlp_obs::CounterValue {
                name: "mlpsim.epochs",
                kind: mlp_obs::CounterKind::Sum,
                value: 42,
            }],
            timers: vec![],
            histograms: vec![value],
        };
        r.set_metrics(&snapshot);
        let with = r.to_json();
        assert!(with.contains("\"schema\": \"mlp-experiments.report/v4\""));
        assert!(with.contains("\"metrics\": {\n    \"mlpsim.epochs\": 42"));
        // count 4, sum 106, max 100; log2 buckets: 1→[1], 2..3→[2,3], 64..127→[100].
        assert!(with.contains(
            "\"demo.latency\": {\"count\": 4, \"sum\": 106, \"max\": 100, \
             \"p50\": 3, \"p90\": 100, \"p99\": 100, \
             \"buckets\": [[1, 1], [2, 2], [64, 1]]}"
        ));

        // Dropping the histograms reverts the tag to v3 with no trace of
        // the block.
        r.histograms.clear();
        let v3 = r.to_json();
        assert!(v3.contains("\"schema\": \"mlp-experiments.report/v3\""));
        assert!(!v3.contains("\"histograms\""));
    }

    #[test]
    fn row_lookup() {
        let row = Row::new().field("a", 1u64).field("b", "x");
        assert_eq!(row.get("a"), Some(&Json::Int(1)));
        assert_eq!(row.get("c"), None);
        assert_eq!(row.fields().len(), 2);
    }

    #[test]
    fn serialization_is_deterministic() {
        let mk = || {
            let mut r = Report::new("demo", "Demo", "§1", RunScale::quick());
            r.axis("x", vec![1u64, 2]);
            r.row(Row::new().field("v", 0.1 + 0.2));
            r.to_json()
        };
        assert_eq!(mk(), mk());
    }
}
