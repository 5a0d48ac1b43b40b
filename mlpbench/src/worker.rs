//! The sweep and streaming workloads: a worker process runs registry
//! experiments in-process through the library, and the benchmark
//! process around it times set-up, checks outputs and, when traced, adds
//! an armed pass and the per-layer ledger.
//!
//! Each worker is its own process, so its peak RSS and the
//! process-global `TraceStore` and `mlp_obs` state belong to one
//! workload alone. A worker speaks one line per fact on stdout:
//! `ready`, `lat <exp> <ms>`, `checked <exp> <0|1>`,
//! `tojson <exp> <ms>`, `smt_insts <n>`, `store <insts> <spill-bytes>`,
//! `counter <exp> <name> <value>`, `timer <exp> <name> <count> <total-ns>
//! <max-ns>`, `rss_mb <mb>`.

use crate::spans::Spans;
use crate::util::{golden_path, median, mrate, peak_rss_mb, quantile};
use crate::{layers, Dirs, Opts, Outcome, Workload, THREADS};
use mlp_experiments::registry;
use mlp_experiments::report::Json;
use mlp_experiments::runner::{shared_seeded, SEED};
use mlp_experiments::RunScale;
use mlp_workloads::{TraceStore, WorkloadKind};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// First argument that turns the binary into a worker.
pub const ROLE: &str = "worker";

/// Total instructions per epoch-model run of stream-long (`--inst-window`).
pub const STREAM_WINDOW: u64 = 12_000_000;

/// Set-ups per run whose median is `setup_s`.
const SWEEP_SETUPS: usize = 3;
/// Stream-long's set-up takes milliseconds, so more samples steady its
/// median.
const STREAM_SETUPS: usize = 31;

/// The registry experiments a worker role runs, in order.
fn experiments(role: &str) -> &'static [&'static str] {
    match role {
        "sweep-epoch" => &["figure6"],
        "sweep-cycle" => &["table3", "smt", "rae-timing"],
        "stream-long" | "stream-ref" => &["table5"],
        _ => &[],
    }
}

fn scale(role: &str) -> RunScale {
    if role.starts_with("stream") {
        RunScale::window(STREAM_WINDOW)
    } else {
        RunScale::quick()
    }
}

// ---------------------------------------------------------------------
// Worker side.

struct ChildArgs {
    role: String,
    passes: usize,
    rundir: PathBuf,
    probe: bool,
    traced: bool,
}

fn parse_child(args: &[String]) -> Option<ChildArgs> {
    let mut c = ChildArgs {
        role: args.first()?.clone(),
        passes: 1,
        rundir: PathBuf::from("."),
        probe: false,
        traced: false,
    };
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--passes" => c.passes = it.next()?.parse().ok().filter(|&n| n > 0)?,
            "--rundir" => c.rundir = PathBuf::from(it.next()?),
            "--probe" => c.probe = true,
            "--traced" => c.traced = true,
            _ => return None,
        }
    }
    (!experiments(&c.role).is_empty()).then_some(c)
}

fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// The stream cache directory, emptied: a valid spill left by an earlier
/// run would be adopted and skip the spill this workload measures.
fn fresh_cache_dir(rundir: &Path) -> std::io::Result<PathBuf> {
    let dir = rundir.join("trace-cache");
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn setup(c: &ChildArgs) -> std::io::Result<()> {
    let q = RunScale::quick();
    match c.role.as_str() {
        "sweep-epoch" => {
            for kind in WorkloadKind::ALL {
                shared_seeded(kind, SEED, q.warmup + q.measure);
            }
        }
        "sweep-cycle" => {
            for kind in WorkloadKind::ALL {
                shared_seeded(kind, SEED, q.warmup + q.measure);
                // The SMT study co-runs sibling threads on SEED + 1.
                shared_seeded(kind, SEED + 1, q.cycle_warmup + q.cycle_measure);
            }
        }
        "stream-long" => {
            let dir = fresh_cache_dir(&c.rundir)?;
            TraceStore::global().set_cache_dir(dir);
            // The seeded generators a spill starts from, and the
            // checkpoint the spill tier records beside each trace. The
            // timed spill builds its own; this times their construction.
            for kind in WorkloadKind::ALL {
                std::hint::black_box(mlp_workloads::Workload::new(kind, SEED).checkpoint());
            }
        }
        _ => {}
    }
    Ok(())
}

/// Whether `got` equals the golden `want`, explaining a mismatch on stderr.
fn matches_golden(name: &str, ext: &str, got: &str) -> bool {
    // A worker runs in the checkout root.
    let path = golden_path(Path::new(""), name, ext);
    match std::fs::read_to_string(&path) {
        Ok(want) if want == got => true,
        Ok(_) => {
            eprintln!("mlpbench worker: {name} differs from {}", path.display());
            false
        }
        Err(e) => {
            eprintln!("mlpbench worker: cannot read {}: {e}", path.display());
            false
        }
    }
}

/// Runs as a worker; returns the process exit code.
pub fn child_main(args: &[String]) -> i32 {
    let Some(c) = parse_child(args) else {
        eprintln!("mlpbench worker: bad arguments {args:?}");
        return 2;
    };
    if let Err(e) = setup(&c) {
        eprintln!("mlpbench worker: set-up failed: {e}");
        return 1;
    }
    say("ready");
    if c.probe {
        return 0;
    }
    let armed = mlp_obs::counters_on();
    if armed {
        let _ = mlp_obs::snapshot_and_reset();
    }
    let sc = scale(&c.role);
    let mut first_outputs: BTreeMap<&str, (String, String)> = BTreeMap::new();
    for pass in 0..c.passes {
        if c.role == "stream-long" && pass > 0 {
            TraceStore::global().clear();
            match fresh_cache_dir(&c.rundir) {
                Ok(dir) => TraceStore::global().set_cache_dir(dir),
                Err(e) => {
                    eprintln!("mlpbench worker: cannot reset the trace cache: {e}");
                    return 1;
                }
            }
        }
        for &name in experiments(&c.role) {
            let Some(e) = registry::find(name) else {
                eprintln!("mlpbench worker: {name} is not registered");
                return 1;
            };
            let t0 = Instant::now();
            let run = e.run(sc);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            say(&format!("lat {name} {ms}"));
            if armed {
                let snap = mlp_obs::snapshot_and_reset();
                for k in &snap.counters {
                    say(&format!("counter {name} {} {}", k.name, k.value));
                }
                for t in &snap.timers {
                    say(&format!(
                        "timer {name} {} {} {} {}",
                        t.name, t.count, t.total_ns, t.max_ns
                    ));
                }
            }
            let json = run.report.to_json();
            if c.traced {
                let reps: Vec<f64> = (0..5)
                    .map(|_| {
                        let t0 = Instant::now();
                        std::hint::black_box(run.report.to_json());
                        t0.elapsed().as_secs_f64() * 1e3
                    })
                    .collect();
                say(&format!("tojson {name} {}", median(&reps)));
            }
            if name == "smt" {
                // The SMT fork flushes no counters; its report lists the
                // instructions each thread retired.
                let insts: i64 = run
                    .report
                    .rows
                    .iter()
                    .filter_map(|r| match r.get("per_thread_insts") {
                        Some(Json::Arr(xs)) => Some(xs),
                        _ => None,
                    })
                    .flatten()
                    .map(|x| if let Json::Int(n) = x { *n } else { 0 })
                    .sum();
                say(&format!("smt_insts {insts}"));
            }
            let ok = if c.role.starts_with("stream") {
                // Stream outputs are checked against the in-memory run by
                // the benchmark process; here only that every iteration
                // repeats the first.
                let store = TraceStore::global();
                say(&format!(
                    "store {} {}",
                    store.cached_insts(),
                    store.spilled_bytes()
                ));
                match first_outputs.get(name) {
                    None => {
                        let path = |ext: &str| c.rundir.join(format!("{name}.{}.{ext}", c.role));
                        let wrote = std::fs::write(path("txt"), &run.text)
                            .and_then(|()| std::fs::write(path("json"), &json));
                        if let Err(e) = wrote {
                            eprintln!("mlpbench worker: cannot write {name} outputs: {e}");
                            return 1;
                        }
                        true
                    }
                    Some((text, first_json)) => *text == run.text && *first_json == json,
                }
            } else {
                // Both checks run, so a mismatch in either is reported.
                let text_ok = matches_golden(name, "txt", &run.text);
                matches_golden(name, "json", &json) && text_ok
            };
            say(&format!("checked {name} {}", u8::from(ok)));
            first_outputs
                .entry(name)
                .or_insert_with(|| (run.text.clone(), json));
        }
    }
    if c.role == "stream-long" {
        TraceStore::global().clear();
    }
    say(&format!("rss_mb {}", peak_rss_mb(None).unwrap_or(0.0)));
    0
}

// ---------------------------------------------------------------------
// Benchmark side.

/// Everything one worker reported.
#[derive(Default)]
struct Report {
    /// Seconds from spawn to `ready`.
    setup_s: f64,
    /// `(experiment, ms)` per experiment run, in order.
    lats: Vec<(String, f64)>,
    /// `(experiment, output matched)` per experiment run.
    checked: Vec<(String, bool)>,
    tojson_ms: BTreeMap<String, f64>,
    smt_insts: u64,
    store_insts: u64,
    spill_bytes: u64,
    counters: BTreeMap<(String, String), u64>,
    /// `(experiment, timer) -> (count, total_ns, max_ns)`.
    timers: BTreeMap<(String, String), (u64, u64, u64)>,
    rss_mb: f64,
}

impl Report {
    fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((_, n), _)| n == name)
            .map(|(_, v)| v)
            .sum()
    }

    fn counter_of(&self, exp: &str, name: &str) -> u64 {
        self.counters
            .get(&(exp.to_string(), name.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Seconds per pass over the role's experiments, in order.
    fn pass_walls(&self, role: &str) -> Vec<f64> {
        self.lats
            .chunks(experiments(role).len())
            .map(|pass| pass.iter().map(|(_, ms)| ms).sum::<f64>() / 1e3)
            .collect()
    }
}

fn spawn_worker(
    role: &str,
    dirs: &Dirs,
    extra: &[&str],
    env: &[(&str, &str)],
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .arg(ROLE)
        .arg(role)
        .arg("--rundir")
        .arg(&dirs.run)
        .args(extra)
        .envs(env.iter().copied())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the {role} worker: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut r = Report::default();
    let mut parse_error = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("worker output: {e}"))?;
        let f: Vec<&str> = line.split(' ').collect();
        let num = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok());
        let ok = match f[0] {
            "ready" => {
                r.setup_s = t0.elapsed().as_secs_f64();
                true
            }
            "lat" => num(2)
                .map(|ms| r.lats.push((f[1].to_string(), ms)))
                .is_some(),
            "checked" => match f.get(2) {
                Some(&v @ ("0" | "1")) => {
                    r.checked.push((f[1].to_string(), v == "1"));
                    true
                }
                _ => false,
            },
            "tojson" => num(2)
                .map(|ms| r.tojson_ms.insert(f[1].to_string(), ms))
                .is_some(),
            "smt_insts" => num(1).map(|n| r.smt_insts = n as u64).is_some(),
            "store" => match (num(1), num(2)) {
                (Some(i), Some(b)) => {
                    r.store_insts = i as u64;
                    r.spill_bytes = b as u64;
                    true
                }
                _ => false,
            },
            "counter" => num(3)
                .map(|v| {
                    r.counters
                        .insert((f[1].to_string(), f[2].to_string()), v as u64)
                })
                .is_some(),
            "timer" => match (num(3), num(4), num(5)) {
                (Some(c), Some(t), Some(m)) => {
                    r.timers.insert(
                        (f[1].to_string(), f[2].to_string()),
                        (c as u64, t as u64, m as u64),
                    );
                    true
                }
                _ => false,
            },
            "rss_mb" => num(1).map(|v| r.rss_mb = v).is_some(),
            _ => false,
        };
        if !ok {
            parse_error.get_or_insert(line);
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the {role} worker: {e}"))?;
    if !status.success() {
        return Err(format!("the {role} worker exited with {status}"));
    }
    if let Some(line) = parse_error {
        return Err(format!("unreadable worker line '{line}'"));
    }
    Ok(r)
}

fn role_env(w: Workload) -> Vec<(&'static str, &'static str)> {
    match w {
        Workload::StreamLong => vec![("MLP_TRACE_CACHE_BYTES", "0")],
        _ => Vec::new(),
    }
}

/// The workload's set-ups, one of which goes on to the timed work. The
/// others are sampled half before and half after it, so that their
/// median spans the run rather than one moment of a shared host.
fn timed_worker(w: Workload, o: &Opts, dirs: &Dirs) -> Result<Report, String> {
    let setups = if w == Workload::StreamLong {
        STREAM_SETUPS
    } else {
        SWEEP_SETUPS
    };
    let env = role_env(w);
    let probe = |samples: &mut Vec<f64>, n: usize| -> Result<(), String> {
        for _ in 0..n {
            samples.push(spawn_worker(w.name(), dirs, &["--probe"], &env)?.setup_s);
        }
        Ok(())
    };
    let before = (setups - 1) / 2;
    let mut samples = Vec::with_capacity(setups);
    probe(&mut samples, before)?;
    let passes = crate::passes(o.seconds).to_string();
    let mut r = spawn_worker(w.name(), dirs, &["--passes", &passes], &env)?;
    samples.push(r.setup_s);
    probe(&mut samples, setups - 1 - before)?;
    r.setup_s = median(&samples);
    Ok(r)
}

/// Compares the streamed table5 with the in-memory run of the same
/// window, written by the `stream-ref` worker.
fn check_stream(dirs: &Dirs, out: &mut Outcome) {
    for ext in ["txt", "json"] {
        let read = |role: &str| std::fs::read(dirs.run.join(format!("table5.{role}.{ext}"))).ok();
        let (streamed, in_memory) = (read("stream-long"), read("stream-ref"));
        out.check(
            streamed.is_some() && streamed == in_memory,
            &format!("streamed table5 {ext} differs from the in-memory run"),
        );
    }
}

fn count_reports(r: &Report, out: &mut Outcome) {
    for (name, ok) in &r.checked {
        out.check(*ok, &format!("{name} output"));
    }
}

/// The end-to-end run (`--trace 0`).
pub fn timed(w: Workload, o: &Opts, dirs: &Dirs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let r = timed_worker(w, o, dirs)?;
    count_reports(&r, &mut out);
    if w == Workload::StreamLong {
        // After the timed work, in a process of its own: the in-memory
        // window peaks at gigabytes, the streamed one at megabytes.
        let reference = spawn_worker("stream-ref", dirs, &[], &[])?;
        count_reports(&reference, &mut out);
        check_stream(dirs, &mut out);
    }
    // An operation is one pass: the experiments a user of the workload
    // waits for together. So on these workloads p50_ms restates wall_s
    // in milliseconds and p99_ms is the slowest pass.
    let walls = r.pass_walls(w.name());
    let lats: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    let m = &mut out.metrics;
    m.insert("wall_s", median(&walls));
    m.insert("setup_s", r.setup_s);
    m.insert("peak_rss_mb", r.rss_mb);
    m.insert("p50_ms", median(&lats));
    m.insert("p99_ms", quantile(&lats, 0.99));
    Ok(out)
}

/// Predicted busy time of the armed pass's simulated instructions at the
/// measured layer rates, spread over the sweep threads.
fn predicted_s(w: Workload, armed: &Report, rates: &BTreeMap<&'static str, f64>) -> f64 {
    let per_s = |name: &str| rates.get(name).copied().unwrap_or(0.0).max(1e-9) * 1e6;
    let serial = match w {
        Workload::SweepEpoch => {
            armed.counter("mlpsim.insts") as f64 / per_s("mlpsim.ooo_minst_per_s")
        }
        Workload::SweepCycle => {
            // rae-timing runs two conventional and two runahead cycle
            // runs per workload over the same window: half each.
            let rae = armed.counter_of("rae-timing", "cyclesim.insts") as f64;
            armed.counter("mlpsim.insts") as f64 / per_s("mlpsim.ooo_minst_per_s")
                + (armed.counter_of("table3", "cyclesim.insts") as f64 + rae / 2.0)
                    / per_s("cyclesim.pipeline_minst_per_s")
                + rae / 2.0 / per_s("cyclesim.runahead_minst_per_s")
                + armed.smt_insts as f64 / per_s("cyclesim.smt_minst_per_s")
        }
        Workload::StreamLong => {
            armed.store_insts as f64 / per_s("workloads.spill_minst_per_s")
                + armed.counter("mlpsim.insts") as f64 / per_s("mlpsim.inorder_chunks_minst_per_s")
        }
        Workload::ServeMixed => 0.0,
    };
    serial / THREADS as f64
}

/// The traced run (`--trace 1`): the per-layer ledger, an unarmed pass
/// and an armed pass of the workload's own work, and the closure check.
pub fn traced(w: Workload, o: &Opts, dirs: &Dirs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let env = role_env(w);
    let (ledger, _) = spans.time("layers", |s| layers::measure(o.seed, dirs, s));
    let ledger = ledger?;
    if w == Workload::StreamLong {
        let (reference, _) = spans.leaf("stream-ref in-memory pass", || {
            spawn_worker("stream-ref", dirs, &[], &[])
        });
        count_reports(&reference?, &mut out);
    }
    let (unarmed, _) = spans.leaf(format!("{} unarmed pass", w.name()), || {
        spawn_worker(w.name(), dirs, &["--traced"], &env)
    });
    let unarmed = unarmed?;
    count_reports(&unarmed, &mut out);
    if w == Workload::StreamLong {
        check_stream(dirs, &mut out);
    }
    let mut armed_env = env.clone();
    armed_env.push(("MLP_OBS", "counters"));
    let (armed, _) = spans.leaf(format!("{} armed pass", w.name()), || {
        spawn_worker(w.name(), dirs, &[], &armed_env)
    });
    let armed = armed?;
    count_reports(&armed, &mut out);
    if w == Workload::StreamLong {
        check_stream(dirs, &mut out);
    }

    let wall = median(&unarmed.pass_walls(w.name()));
    let sim_insts =
        armed.counter("mlpsim.insts") + armed.counter("cyclesim.insts") + armed.smt_insts;
    let predicted = predicted_s(w, &armed, &ledger);
    let gap_pct = 100.0 * (wall - predicted) / wall;
    eprintln!(
        "[mlpbench] {} closure: predicted {predicted:.2} s from layer rates, measured {wall:.2} s, \
         gap {gap_pct:+.1}%{}",
        w.name(),
        if gap_pct.abs() > 25.0 {
            " — FLAG: over 25%, some cost is unmeasured"
        } else {
            ""
        }
    );
    let (points, busy_ns, max_ns) = armed
        .timers
        .iter()
        .filter(|((_, n), _)| n == "runner.sweep_point")
        .fold((0, 0, 0), |(c, t, m), (_, &(c2, t2, m2))| {
            (c + c2, t + t2, m.max(m2))
        });
    let armed_wall = median(&armed.pass_walls(w.name()));
    let l1d_hits = armed.counter("mem.l1d.hits") as f64;
    let l1d = l1d_hits + armed.counter("mem.l1d.misses") as f64;
    let l2_hits = armed.counter("mem.l2.hits") as f64;
    let l2 = l2_hits + armed.counter("mem.l2.misses") as f64;
    let cyc_insts = armed.counter("cyclesim.insts") as f64;
    let offchip = armed.counter("mlpsim.offchip.useful") + armed.counter("cyclesim.offchip.useful");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let m = &mut out.metrics;
    m.extend(ledger);
    m.insert("mlpsim.runs", armed.counter("mlpsim.runs") as f64);
    m.insert("mlpsim.insts", armed.counter("mlpsim.insts") as f64);
    m.insert("mlpsim.epochs", armed.counter("mlpsim.epochs") as f64);
    m.insert("cyclesim.runs", armed.counter("cyclesim.runs") as f64);
    m.insert("cyclesim.insts", cyc_insts);
    m.insert(
        "cyclesim.cpi",
        ratio(armed.counter("cyclesim.cycles") as f64, cyc_insts),
    );
    m.insert("mem.l1d_hit_ratio", ratio(l1d_hits, l1d));
    m.insert("mem.l2_hit_ratio", ratio(l2_hits, l2));
    m.insert(
        "mem.offchip_per_kinst",
        ratio(1e3 * offchip as f64, sim_insts as f64),
    );
    m.insert("experiments.sweep_points", points as f64);
    m.insert("experiments.sweep_point_max_s", max_ns as f64 / 1e9);
    m.insert(
        "par.utilization",
        ratio(busy_ns as f64 / 1e9, armed_wall * THREADS as f64),
    );
    m.insert(
        "experiments.report_json_ms",
        unarmed.tojson_ms.values().sum(),
    );
    m.insert("experiments.sim_minst_per_s", mrate(sim_insts as f64, wall));
    m.insert("experiments.predicted_s", predicted);
    m.insert("experiments.closure_gap_pct", gap_pct.abs());
    m.insert("obs.armed_overhead", ratio(armed_wall, wall));
    m.insert("workloads.spill_mb", unarmed.spill_bytes as f64 / 1e6);
    for name in [
        "serve.healthz_rtt_ms",
        "serve.req_per_s",
        "serve.server_p50_ms",
        "serve.server_p99_ms",
        "serve.cache_hits",
        "serve.jobs_deduped",
        "serve.jobs_shed",
        "serve.jobs_degraded",
        "surrogate.train_s",
    ] {
        // The daemon is not part of this workload.
        m.insert(name, 0.0);
    }
    let path = dirs
        .records
        .join(format!("{}.seed{}.spans.json", w.name(), o.seed));
    spans
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(out)
}
