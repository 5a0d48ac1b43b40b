//! `mlpbench` — the repository benchmark (contract in `CONTRACT.md`).
//!
//! ```text
//! mlpbench --workload <sweep-epoch|sweep-cycle|stream-long|serve-mixed>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of a checkout (`bash mlpbench/run.sh ...` builds
//! first). With `--trace 0` the last stdout line carries every
//! end-to-end metric; with `--trace 1` it carries every per-layer
//! metric, measured by a traced run that times calls into each layer and
//! reads the program's `mlp_obs` counters from a separate armed pass.
//! The line before it is the host fingerprint. Exit codes: 0 with a
//! result line, 1 when the benchmark could not measure, 2 for usage
//! errors or a directory that is not a checkout of this repository.

mod layers;
mod serve;
mod spans;
mod util;
mod worker;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Threads every workload may use: the sweeps and stream-long run with
/// `MLP_THREADS` set to this, the daemon with `--workers` set to it.
pub const THREADS: usize = 2;

/// Every end-to-end metric: name, unit. Printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// Every per-layer metric: name, unit. Printed with `--trace 1`.
const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.materialize_minst_per_s", "Minst/s"),
    ("workloads.spill_minst_per_s", "Minst/s"),
    ("workloads.resident_bytes_per_inst", "B/inst"),
    ("isa.chunk_encode_minst_per_s", "Minst/s"),
    ("isa.chunk_decode_minst_per_s", "Minst/s"),
    ("isa.chunk_bytes_per_inst", "B/inst"),
    ("mlpsim.ooo_minst_per_s", "Minst/s"),
    ("mlpsim.inorder_chunks_minst_per_s", "Minst/s"),
    ("mem.classify_minst_per_s", "Minst/s"),
    ("predict.branch_mbr_per_s", "Mbr/s"),
    ("cyclesim.pipeline_minst_per_s", "Minst/s"),
    ("cyclesim.runahead_minst_per_s", "Minst/s"),
    ("cyclesim.smt_minst_per_s", "Minst/s"),
    ("mlpsim.runs", "count"),
    ("mlpsim.insts", "count"),
    ("mlpsim.epochs", "count"),
    ("cyclesim.runs", "count"),
    ("cyclesim.insts", "count"),
    ("cyclesim.cpi", "cycles/inst"),
    ("mem.l1d_hit_ratio", "ratio"),
    ("mem.l2_hit_ratio", "ratio"),
    ("mem.offchip_per_kinst", "1/kinst"),
    ("experiments.sweep_points", "count"),
    ("experiments.sweep_point_max_s", "s"),
    ("par.utilization", "ratio"),
    ("experiments.report_json_ms", "ms"),
    ("experiments.sim_minst_per_s", "Minst/s"),
    ("experiments.predicted_s", "s"),
    ("experiments.closure_gap_pct", "%"),
    ("obs.armed_overhead", "ratio"),
    ("workloads.spill_mb", "MB"),
    ("stats.json_parse_mb_per_s", "MB/s"),
    ("serve.cache_load_ms", "ms"),
    ("serve.healthz_rtt_ms", "ms"),
    ("serve.req_per_s", "1/s"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.cache_hits", "count"),
    ("serve.jobs_deduped", "count"),
    ("serve.jobs_shed", "count"),
    ("serve.jobs_degraded", "count"),
    ("surrogate.train_s", "s"),
    ("surrogate.predict_per_s", "1/s"),
];

/// Seconds one pass of any workload takes at the commit that defined the
/// benchmark: figure6, the three cycle-level experiments, the streamed
/// table5 and one serve-mixed script pass each take about this long.
const PASS_SECONDS: f64 = 10.0;

/// Passes per timed run: `--seconds` worth of nominal passes, so both
/// sides of a comparison do the same work however fast each is.
pub fn passes(seconds: f64) -> usize {
    (seconds / PASS_SECONDS).round().max(1.0) as usize
}

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SweepEpoch,
    SweepCycle,
    StreamLong,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SweepEpoch,
        Workload::SweepCycle,
        Workload::StreamLong,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepEpoch => "sweep-epoch",
            Workload::SweepCycle => "sweep-cycle",
            Workload::StreamLong => "stream-long",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed command line.
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got '{value}'"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Where a run reads and writes, all inside the checkout.
pub struct Dirs {
    /// The checkout root (the working directory).
    pub root: PathBuf,
    /// This run's scratch directory, removed when the run ends.
    pub run: PathBuf,
    /// Kept artifacts: fingerprints and traced-run spans.
    pub records: PathBuf,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[mlpbench] check failed: {what}");
        }
    }
}

/// The parts of the environment the program reads, cleared so that a
/// timed run measures the defaults; each workload sets what it needs.
const SCRUBBED_ENV: [&str; 4] = [
    "MLP_OBS",
    "MLP_FAULT",
    "MLP_TRACE_CACHE_BYTES",
    "MLP_TRACE_CACHE_DIR",
];

fn scrub_env(tmp: &Path) {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
    std::env::set_var("MLP_THREADS", THREADS.to_string());
    // Keep library and child-process temp files inside the checkout.
    std::env::set_var("TMPDIR", tmp);
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn fingerprint(o: &Opts) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"fingerprint\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"mlp_threads\": \"{THREADS}\", \"rustc\": \"{}\", \"git_commit\": \"{}\"}}}}",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        command_output("rustc", &["--version"]),
        command_output("git", &["rev-parse", "HEAD"]),
    )
}

fn result_line(o: &Opts, out: &Outcome) -> Result<String, String> {
    let declared: &[(&str, &str)] = if o.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let v = out
            .metrics
            .get(name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = out
        .metrics
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not declared"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

fn run(o: &Opts, dirs: &Dirs) -> Result<Outcome, String> {
    match (o.workload, o.trace) {
        (Workload::ServeMixed, false) => serve::timed(o, dirs),
        (Workload::ServeMixed, true) => serve::traced(o, dirs),
        (w, false) => worker::timed(w, o, dirs),
        (w, true) => worker::traced(w, o, dirs),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(worker::ROLE) {
        std::process::exit(worker::child_main(&args[1..]));
    }
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "mlpbench: {e}\nusage: mlpbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    for needed in [util::GOLDEN_DIR, "crates/serve", "Cargo.toml"] {
        if !root.join(needed).exists() {
            eprintln!(
                "mlpbench: '{needed}' is missing: run from the root of a checkout of this repository"
            );
            std::process::exit(2);
        }
    }
    let out_root = root.join(".bench_out");
    let dirs = Dirs {
        run: out_root.join(format!(
            "run-{}-{}-{}",
            opts.workload.name(),
            opts.seed,
            std::process::id()
        )),
        records: out_root.join("records"),
        root,
    };
    let tmp = dirs.run.join("tmp");
    if let Err(e) =
        std::fs::create_dir_all(&tmp).and_then(|()| std::fs::create_dir_all(&dirs.records))
    {
        eprintln!("mlpbench: cannot create {}: {e}", dirs.run.display());
        std::process::exit(1);
    }
    scrub_env(&tmp);

    let fp = fingerprint(&opts);
    let result = run(&opts, &dirs).and_then(|out| result_line(&opts, &out));
    let _ = std::fs::remove_dir_all(&dirs.run);
    match result {
        Ok(line) => {
            let record = dirs.records.join(format!(
                "{}.seed{}.trace{}.json",
                opts.workload.name(),
                opts.seed,
                u8::from(opts.trace)
            ));
            let _ = std::fs::write(&record, format!("{fp}\n{line}\n"));
            println!("{fp}");
            println!("{line}");
        }
        Err(e) => {
            eprintln!("mlpbench: {} failed: {e}", opts.workload.name());
            std::process::exit(1);
        }
    }
}
