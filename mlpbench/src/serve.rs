//! serve-mixed: a spawned `mlp-serve` daemon, its result cache filled
//! from the golden reports, and two closed-loop clients replaying a
//! seeded script of cache hits, surrogate predictions, async jobs with
//! polls, and status probes. No simulation runs in the timed phase.

use crate::layers;
use crate::spans::Spans;
use crate::util::{goldens, median, peak_rss_mb, quantile, Golden, Rng};
use crate::{Dirs, Opts, Outcome, THREADS};
use mlp_experiments::exp::sweep1000;
use mlp_serve::cache::ResultCache;
use mlp_serve::http::exchange;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon set-ups per timed run whose median is `setup_s`; each trains
/// the surrogate, so this is the costliest set-up of the benchmark.
const SERVE_SETUPS: usize = 2;
/// Rounds of the script per client per pass (see [`deck`]).
const ROUNDS_PER_PASS: usize = 24;
/// Clients, each closed loop: its next request leaves when the previous
/// reply has arrived.
const CLIENTS: usize = 2;
/// Per-request socket timeout; the first surrogate request trains.
const TIMEOUT: Duration = Duration::from_secs(120);

fn daemon_binary() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    target.join("release").join("mlp-serve")
}

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(dir: &Path) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let port_file = dir.join("port");
        let bin = daemon_binary();
        let child = Command::new(&bin)
            .arg("--workers")
            .arg(THREADS.to_string())
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .arg("--trace-cache")
            .arg(dir.join("trace-cache"))
            .arg("--port-file")
            .arg(&port_file)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut d = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                d.addr = text.trim().to_string();
                break;
            }
            if Instant::now() > deadline || matches!(d.child.try_wait(), Ok(Some(_))) {
                return Err("the daemon did not start listening".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        match d.get("/healthz") {
            Ok((200, _)) => Ok(d),
            other => Err(format!("/healthz answered {other:?}")),
        }
    }

    fn get(&self, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
        exchange(&self.addr, "GET", path, b"", TIMEOUT)
    }

    fn post(&self, path: &str, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
        exchange(&self.addr, "POST", path, body.as_bytes(), TIMEOUT)
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(Some(self.child.id())).unwrap_or(0.0)
    }

    /// Asks the daemon to drain and stop, and waits for it.
    fn shutdown(mut self) -> Result<(), String> {
        let answered = self.post("/v1/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match answered {
                    Ok((200, _)) if status.success() => Ok(()),
                    _ => Err(format!("daemon shutdown: {answered:?}, exit {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("the daemon did not stop after /v1/shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A seeded in-grid surrogate query.
fn surrogate_body(rng: &mut Rng) -> String {
    let names = mlp_surrogate::WORKLOAD_NAMES;
    format!(
        "{{\"tier\": \"surrogate\", \"benchmark\": \"{}\", \"window\": {}, \"mshrs\": {}, \
         \"latency\": {}, \"l2_kb\": {}}}",
        rng.pick(&names),
        rng.pick(&sweep1000::WINDOWS),
        rng.pick(&sweep1000::MSHRS),
        rng.pick(&sweep1000::LATENCIES),
        rng.pick(&sweep1000::L2_KB),
    )
}

fn run_body(name: &str) -> String {
    format!("{{\"experiment\": \"{name}\", \"scale\": \"quick\"}}")
}

/// What a client saw: one latency per operation.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    /// HTTP requests sent, counting each job poll: the base of
    /// `serve.req_per_s`.
    requests: u64,
}

impl Tally {
    /// Records one finished operation.
    fn record(&mut self, ok: bool, what: &str, t0: Instant) {
        self.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[mlpbench] serve check failed: {what}");
        }
    }
}

/// Parses `"job": <id>` out of a 202 body.
fn job_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = text.split("\"job\": ").nth(1)?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// One script operation.
enum Op<'a> {
    /// `POST /v1/run` of a cached report.
    Hit(&'a Golden),
    /// `POST /v1/run` on the surrogate tier, with its body.
    Predict(String),
    /// `POST /v1/jobs`, then `GET /v1/jobs/<id>` until done.
    Job(&'a Golden),
    /// `GET /healthz`.
    Health,
    /// `GET /statusz`.
    Status,
}

/// One client's operations for one pass, in a seeded order.
///
/// The script replays the serving recipe of EXPERIMENTS.md ("Serving
/// sweeps": dashboards and repeated queries of the same tables). A round
/// is one dashboard refresh, a cache-hit `POST /v1/run` of every golden
/// report, plus one of each other call the recipe shows: a job submitted
/// and polled until done (jobs cycle through the reports), `GET /healthz`,
/// `GET /statusz` and a surrogate-tier prediction at a seeded in-grid
/// point. These weights are that reading of the recipe, not a measured
/// client mix: the repository records no observed traffic to take one
/// from. The seed orders the operations and picks the predicted points;
/// the work of a pass is the same for every seed.
fn deck<'a>(goldens: &'a [Golden], rng: &mut Rng) -> Vec<Op<'a>> {
    let offset = rng.below(goldens.len());
    let mut ops = Vec::with_capacity(ROUNDS_PER_PASS * (goldens.len() + 4));
    for round in 0..ROUNDS_PER_PASS {
        ops.extend(goldens.iter().map(Op::Hit));
        ops.push(Op::Job(&goldens[(offset + round) % goldens.len()]));
        ops.push(Op::Health);
        ops.push(Op::Status);
        ops.push(Op::Predict(surrogate_body(rng)));
    }
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.below(i + 1));
    }
    ops
}

/// Runs one operation and records its latency.
fn play(d: &Daemon, op: &Op, t: &mut Tally, predictions: &mut HashMap<String, Vec<u8>>) {
    match op {
        Op::Hit(g) => {
            let t0 = Instant::now();
            let r = d.post("/v1/run", &run_body(&g.name));
            t.requests += 1;
            let ok = matches!(&r, Ok((200, body)) if *body == g.bytes);
            t.record(ok, &format!("POST /v1/run {}", g.name), t0);
        }
        Op::Predict(body) => {
            let t0 = Instant::now();
            let r = d.post("/v1/run", body);
            t.requests += 1;
            let ok = match &r {
                Ok((200, reply)) => {
                    let text = String::from_utf8_lossy(reply);
                    let fast = text.contains("\"tier\": \"surrogate\"")
                        && text.contains("\"fallback\": false");
                    // The same point must always get the same answer.
                    fast && predictions
                        .entry(body.clone())
                        .or_insert_with(|| reply.clone())
                        == reply
                }
                _ => false,
            };
            t.record(ok, &format!("surrogate {body}"), t0);
        }
        Op::Job(g) => {
            // One operation from submission until the finished report is
            // in hand, however many polls that takes.
            let t0 = Instant::now();
            let r = d.post("/v1/jobs", &run_body(&g.name));
            t.requests += 1;
            let Some(id) = (match &r {
                Ok((202, body)) => job_id(body),
                _ => None,
            }) else {
                t.record(false, &format!("POST /v1/jobs {}: {r:?}", g.name), t0);
                return;
            };
            let mut want = b"\"report\": ".to_vec();
            want.extend_from_slice(&g.bytes);
            want.extend_from_slice(b"}\n");
            let deadline = Instant::now() + Duration::from_secs(30);
            let ok = loop {
                let r = d.get(&format!("/v1/jobs/{id}"));
                t.requests += 1;
                match &r {
                    Ok((200, body)) => {
                        let text = String::from_utf8_lossy(body);
                        if text.contains("\"status\": \"done\"") {
                            // A shed or degraded job fails here.
                            break text.contains("\"ok\": true") && body.ends_with(&want);
                        }
                    }
                    _ => break false,
                }
                if Instant::now() > deadline {
                    break false;
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            t.record(ok, &format!("job {id} ({})", g.name), t0);
        }
        Op::Health => {
            let t0 = Instant::now();
            let r = d.get("/healthz");
            t.requests += 1;
            t.record(matches!(&r, Ok((200, _))), "GET /healthz", t0);
        }
        Op::Status => {
            let t0 = Instant::now();
            let r = d.get("/statusz");
            t.requests += 1;
            let ok = matches!(&r, Ok((200, body))
                if std::str::from_utf8(body).is_ok_and(|s| mlp_stats::json::parse(s).is_ok()));
            t.record(ok, "GET /statusz", t0);
        }
    }
}

/// Runs `passes` passes of the script on `CLIENTS` closed-loop client
/// threads, which start each pass together. Returns the merged tally and
/// each pass's wall time.
fn script(d: &Daemon, goldens: &[Golden], seed: u64, passes: usize) -> (Tally, Vec<f64>) {
    let barrier = std::sync::Barrier::new(CLIENTS);
    let per_client: Vec<(Tally, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rng = Rng::new(seed.wrapping_mul(CLIENTS as u64 + 1).wrapping_add(c));
                    let mut t = Tally::default();
                    let mut predictions = HashMap::new();
                    let mut walls = Vec::with_capacity(passes);
                    for _ in 0..passes {
                        let ops = deck(goldens, &mut rng);
                        barrier.wait();
                        let t0 = Instant::now();
                        for op in &ops {
                            play(d, op, &mut t, &mut predictions);
                        }
                        walls.push(t0.elapsed().as_secs_f64());
                    }
                    (t, walls)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Tally::default();
    let mut walls = vec![0.0f64; passes];
    for (t, w) in per_client {
        all.attempted += t.attempted;
        all.failed += t.failed;
        all.requests += t.requests;
        all.latencies_ms.extend(t.latencies_ms);
        for (slot, secs) in walls.iter_mut().zip(w) {
            *slot = slot.max(secs);
        }
    }
    (all, walls)
}

/// Spawn, `/healthz`, cache warm-up through `ResultCache::store` plus one
/// hit per report, and the first surrogate request, which trains the
/// model. Returns the daemon, the set-up time and the training request's
/// time.
fn setup(
    dirs: &Dirs,
    goldens: &[Golden],
    k: usize,
    out: &mut Outcome,
) -> Result<(Daemon, f64, f64), String> {
    let dir = dirs.run.join(format!("daemon-{k}"));
    let t0 = Instant::now();
    let d = Daemon::spawn(&dir)?;
    let cache = ResultCache::new(dir.join("cache"));
    for g in goldens {
        cache
            .store(&g.name, "quick", &g.bytes)
            .map_err(|e| format!("cache store {}: {e}", g.name))?;
    }
    for g in goldens {
        let r = d.post("/v1/run", &run_body(&g.name));
        out.check(
            matches!(&r, Ok((200, body)) if *body == g.bytes),
            &format!("warm-up hit {}", g.name),
        );
    }
    let t_train = Instant::now();
    let r = d.post("/v1/run", &surrogate_body(&mut Rng::new(0)));
    let train_s = t_train.elapsed().as_secs_f64();
    out.check(
        matches!(&r, Ok((200, body)) if String::from_utf8_lossy(body).contains("\"fallback\": false")),
        "first surrogate request",
    );
    Ok((d, t0.elapsed().as_secs_f64(), train_s))
}

/// The end-to-end run (`--trace 0`).
pub fn timed(o: &Opts, dirs: &Dirs) -> Result<Outcome, String> {
    let goldens = goldens(&dirs.root)?;
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SERVE_SETUPS);
    let mut measured = None;
    for k in 0..SERVE_SETUPS {
        let (d, secs, _) = setup(dirs, &goldens, k, &mut out)?;
        setups.push(secs);
        // The first daemon serves the timed script; the later set-ups
        // come after it, so that their median spans the run rather than
        // one moment of a shared host.
        if measured.is_none() {
            let (tally, walls) = script(&d, &goldens, o.seed, crate::passes(o.seconds));
            measured = Some((tally, walls, d.peak_rss_mb()));
        }
        d.shutdown()?;
    }
    let (tally, walls, rss) = measured.expect("at least one set-up");
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    let m = &mut out.metrics;
    m.insert("wall_s", median(&walls));
    m.insert("setup_s", median(&setups));
    m.insert("peak_rss_mb", rss);
    m.insert("p50_ms", median(&tally.latencies_ms));
    m.insert("p99_ms", quantile(&tally.latencies_ms, 0.99));
    Ok(out)
}

/// `/statusz` counters and the request-latency quantiles.
fn statusz(d: &Daemon) -> Result<mlp_stats::json::Json, String> {
    match d.get("/statusz") {
        Ok((200, body)) => {
            let text = String::from_utf8(body).map_err(|_| "/statusz is not utf-8")?;
            mlp_stats::json::parse(&text).map_err(|e| format!("/statusz: {e:?}"))
        }
        other => Err(format!("/statusz answered {other:?}")),
    }
}

fn counter(s: &mlp_stats::json::Json, name: &str) -> f64 {
    s.get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

/// The traced run (`--trace 1`).
pub fn traced(o: &Opts, dirs: &Dirs) -> Result<Outcome, String> {
    let goldens = goldens(&dirs.root)?;
    let mut out = Outcome::default();
    let mut spans = Spans::new();
    let (ledger, _) = spans.time("layers", |s| layers::measure(o.seed, dirs, s));
    let ledger = ledger?;
    let (set, _) = spans.leaf("serve set-up (spawn, /healthz, warm-up, training)", || {
        setup(dirs, &goldens, 0, &mut out)
    });
    let (d, _, train_s) = set?;
    let (rtts, _) = spans.leaf("serve GET /healthz x200", || {
        (0..200)
            .map(|_| {
                let t0 = Instant::now();
                let ok = matches!(d.get("/healthz"), Ok((200, _)));
                (ok, t0.elapsed().as_secs_f64() * 1e3)
            })
            .collect::<Vec<_>>()
    });
    for (ok, _) in &rtts {
        out.check(*ok, "GET /healthz");
    }
    let rtt: Vec<f64> = rtts.iter().map(|(_, ms)| *ms).collect();
    let before = statusz(&d)?;
    let ((tally, walls), _) = spans.leaf("serve script pass", || script(&d, &goldens, o.seed, 1));
    let after = statusz(&d)?;
    d.shutdown()?;
    out.attempted += tally.attempted;
    out.failed += tally.failed;
    let delta = |name: &str| counter(&after, name) - counter(&before, name);
    let latency = |q: &str| {
        after
            .get("latency_ms")
            .and_then(|l| l.get("serve.request.latency_ms"))
            .and_then(|h| h.get(q))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };

    let m = &mut out.metrics;
    m.extend(ledger);
    // No simulation runs in this workload's timed phase, and no sweep:
    // the simulator and sweep counts are zero by construction.
    for name in [
        "mlpsim.runs",
        "mlpsim.insts",
        "mlpsim.epochs",
        "cyclesim.runs",
        "cyclesim.insts",
        "cyclesim.cpi",
        "mem.l1d_hit_ratio",
        "mem.l2_hit_ratio",
        "mem.offchip_per_kinst",
        "experiments.sweep_points",
        "experiments.sweep_point_max_s",
        "par.utilization",
        "experiments.report_json_ms",
        "experiments.sim_minst_per_s",
        "experiments.predicted_s",
        "experiments.closure_gap_pct",
        "obs.armed_overhead",
        "workloads.spill_mb",
    ] {
        m.insert(name, 0.0);
    }
    m.insert("serve.healthz_rtt_ms", median(&rtt));
    m.insert(
        "serve.req_per_s",
        tally.requests as f64 / walls.iter().sum::<f64>(),
    );
    m.insert("serve.server_p50_ms", latency("p50"));
    m.insert("serve.server_p99_ms", latency("p99"));
    m.insert("serve.cache_hits", delta("serve.cache.hits"));
    m.insert("serve.jobs_deduped", delta("serve.jobs.deduped"));
    m.insert("serve.jobs_shed", delta("serve.jobs.shed"));
    m.insert("serve.jobs_degraded", delta("serve.jobs.degraded"));
    m.insert("surrogate.train_s", train_s);
    eprintln!(
        "[mlpbench] serve-mixed: client p50 {:.3} ms / p99 {:.3} ms over {} operations; \
         server histogram p50 {} ms / p99 {} ms",
        median(&tally.latencies_ms),
        quantile(&tally.latencies_ms, 0.99),
        tally.attempted,
        latency("p50"),
        latency("p99"),
    );
    let path = dirs
        .records
        .join(format!("serve-mixed.seed{}.spans.json", o.seed));
    spans
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(out)
}
