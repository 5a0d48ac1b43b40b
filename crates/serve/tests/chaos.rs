//! Chaos suite: arm one deterministic fault inside a real `mlp-serve`
//! process and prove the blast radius is a single job.
//!
//! Each test spawns the actual daemon binary with `MLP_FAULT` set in the
//! child environment (the fault spec is read once per process, so the
//! daemon arms it at startup; this test process stays clean). The
//! invariant under every fault is the same:
//!
//! 1. the faulted job degrades (or retries) into a well-formed response,
//! 2. sibling jobs' responses are **byte-identical** to a fault-free
//!    run of the same experiment (determinism makes this checkable),
//! 3. the daemon is still serving afterwards (`/healthz` answers).

use mlp_serve::http::exchange;
use std::io::Read;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A daemon child reaped (and killed if needed) on drop, so a failing
/// assertion never leaks a listener.
struct Daemon {
    child: Child,
    addr: String,
    scratch: PathBuf,
}

impl Daemon {
    /// Spawns `mlp-serve` with `extra_args`, `MLP_FAULT=fault` when
    /// given, and waits for its port file.
    fn spawn(tag: &str, fault: Option<&str>, extra_args: &[&str]) -> Daemon {
        let scratch =
            std::env::temp_dir().join(format!("mlp-serve-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        let port_file = scratch.join("port");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mlp-serve"));
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .args(extra_args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        match fault {
            Some(spec) => cmd.env("MLP_FAULT", spec),
            None => cmd.env_remove("MLP_FAULT"),
        };
        let child = cmd.spawn().expect("spawn mlp-serve");
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                break addr.trim().to_string();
            }
            assert!(
                Instant::now() < deadline,
                "daemon never wrote its port file"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        Daemon {
            child,
            addr,
            scratch,
        }
    }

    fn get(&self, path: &str) -> (u16, String) {
        let (status, body) =
            exchange(&self.addr, "GET", path, b"", Duration::from_secs(60)).expect("GET");
        (status, String::from_utf8_lossy(&body).into_owned())
    }

    fn post(&self, path: &str, body: &str) -> (u16, String) {
        let (status, body) = exchange(
            &self.addr,
            "POST",
            path,
            body.as_bytes(),
            Duration::from_secs(300),
        )
        .expect("POST");
        (status, String::from_utf8_lossy(&body).into_owned())
    }

    fn assert_alive(&self) {
        let (status, body) = self.get("/healthz");
        assert_eq!(
            (status, body.trim()),
            (200, "{\"status\":\"ok\"}"),
            "daemon must still be serving"
        );
    }

    /// Clean shutdown; asserts the process exits on its own.
    fn shutdown(mut self) {
        let (status, _) = self.post("/v1/shutdown", "");
        assert_eq!(status, 200);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("wait") {
                Some(code) => {
                    assert!(code.success(), "daemon exited with {code}");
                    break;
                }
                None => {
                    assert!(
                        Instant::now() < deadline,
                        "daemon did not exit after /v1/shutdown"
                    );
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

/// The bytes `mlp-experiments --json` would write for this experiment at
/// quick scale — the fault-free reference the daemon must match exactly.
fn solo_bytes(name: &str) -> String {
    mlp_experiments::registry::find(name)
        .expect("registered experiment")
        .run(mlp_experiments::RunScale::quick())
        .report
        .to_json()
}

fn run_body(experiment: &str) -> String {
    format!("{{\"experiment\": \"{experiment}\", \"scale\": \"quick\"}}")
}

#[test]
fn hanging_job_degrades_while_sibling_stays_byte_identical() {
    // The armed hang sleeps for an hour, so only the watchdog can save
    // the worker. The deadline must still clear an honest debug-build
    // sibling run (several seconds), hence 20s, not something snappier.
    let d = Daemon::spawn(
        "hang",
        Some("serve-job-hang:1"),
        &["--workers", "2", "--deadline-ms", "20000", "--retries", "0"],
    );

    // Victim first (async): its first dequeue consumes the armed
    // occurrence and wedges its supervised thread.
    let (status, body) = d.post("/v1/jobs", &run_body("l3"));
    assert_eq!(status, 202, "victim admission: {body}");
    let victim_id: u64 = body
        .split("\"job\": ")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .expect("job id");
    // Give the victim time to dequeue so the sibling cannot trip the
    // (single-occurrence) fault instead.
    std::thread::sleep(Duration::from_millis(500));

    // Sibling runs concurrently on the second worker while the victim
    // hangs — and must come back pristine.
    let (status, sibling) = d.post("/v1/run", &run_body("fm"));
    assert_eq!(status, 200);
    assert_eq!(
        sibling,
        solo_bytes("fm"),
        "sibling response must be byte-identical to a solo run"
    );

    // The victim degrades into a failed report naming the deadline.
    let deadline = Instant::now() + Duration::from_secs(60);
    let victim = loop {
        let (status, body) = d.get(&format!("/v1/jobs/{victim_id}"));
        assert_eq!(status, 200);
        if body.contains("\"status\": \"done\"") {
            break body;
        }
        assert!(Instant::now() < deadline, "hung job never degraded: {body}");
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(victim.contains("\"ok\": false"), "victim: {victim}");
    assert!(
        victim.contains("\"status\": \"failed\""),
        "victim report must be degraded: {victim}"
    );
    assert!(
        victim.contains("exceeded its 20000ms deadline"),
        "error must name the deadline: {victim}"
    );

    d.assert_alive();
    d.shutdown();
}

#[test]
fn transient_io_error_is_retried_to_a_pristine_response() {
    let d = Daemon::spawn(
        "ioerr",
        Some("serve-io-error:1"),
        &["--workers", "2", "--retries", "2"],
    );
    let (status, body) = d.post("/v1/run", &run_body("fm"));
    assert_eq!(status, 200);
    assert_eq!(
        body,
        solo_bytes("fm"),
        "retried response must be byte-identical to a solo run"
    );
    let (_, statusz) = d.get("/statusz");
    assert!(
        statusz.contains("\"serve.jobs.retried\": 1"),
        "retry must be counted: {statusz}"
    );
    d.assert_alive();
    d.shutdown();
}

#[test]
fn corrupt_cache_entry_is_evicted_and_regenerated() {
    let scratch =
        std::env::temp_dir().join(format!("mlp-serve-chaos-cachedir-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let cache_dir = scratch.join("cache");
    let d = Daemon::spawn(
        "corrupt",
        Some("serve-cache-corrupt:1"),
        &[
            "--workers",
            "2",
            "--retries",
            "0",
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ],
    );
    let expected = solo_bytes("fm");

    // First run: the store is fault-torn on disk, but the response body
    // never touches the cache — pristine.
    let (status, first) = d.post("/v1/run", &run_body("fm"));
    assert_eq!(status, 200);
    assert_eq!(first, expected, "response must not depend on cache health");

    // Second run: load detects the torn entry, evicts it, regenerates —
    // still pristine, and the rewritten entry is now valid.
    let (status, second) = d.post("/v1/run", &run_body("fm"));
    assert_eq!(status, 200);
    assert_eq!(second, expected, "regenerated response must be pristine");

    // Third run: served from the healed cache, same bytes.
    let (status, third) = d.post("/v1/run", &run_body("fm"));
    assert_eq!(status, 200);
    assert_eq!(third, expected, "cached response must be byte-identical");
    let (_, statusz) = d.get("/statusz");
    assert!(
        statusz.contains("\"serve.cache.hits\": 1"),
        "healed cache must serve the third run: {statusz}"
    );

    d.assert_alive();
    d.shutdown();
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn full_queue_sheds_with_429_and_daemon_survives() {
    // Queue capacity 0: every submission sheds deterministically.
    let d = Daemon::spawn("shed", None, &["--workers", "1", "--queue", "0"]);
    let (status, body) = d.post("/v1/run", &run_body("fm"));
    assert_eq!(status, 429, "admission must shed: {body}");
    assert!(body.contains("queue full"), "shed body: {body}");
    let (_, statusz) = d.get("/statusz");
    assert!(
        statusz.contains("\"serve.jobs.shed\": 1"),
        "shed must be counted: {statusz}"
    );
    d.assert_alive();
    d.shutdown();
}

/// A 1 MiB body of `[` is answered 400, not a stack overflow: the
/// parser's depth limit holds on a connection thread's default stack,
/// and the daemon keeps serving health checks and real runs afterwards.
#[test]
fn deeply_nested_body_is_a_400_not_a_dead_daemon() {
    let d = Daemon::spawn("nested", None, &["--workers", "1"]);
    let body = "[".repeat(mlp_serve::http::MAX_BODY_BYTES);
    let (status, reply) = d.post("/v1/run", &body);
    assert_eq!(status, 400, "nested body: {reply}");
    assert!(reply.contains("nesting deeper than"), "reply: {reply}");
    d.assert_alive();
    let (status, run) = d.post("/v1/run", &run_body("fm"));
    assert_eq!(status, 200);
    assert_eq!(run, solo_bytes("fm"), "a real run must still be pristine");
    d.shutdown();
}

/// Forced surrogate fallback: with the `surrogate-uncertain` site armed,
/// the first surrogate-tier request must come back as a real simulation
/// (`"fallback": true`, CPI byte-identical to pricing the point
/// directly), later surrogate requests take the fast path again, and
/// sibling experiment jobs are untouched. Release-gated: the tier trains
/// its model by running the `sweep1000` active-sampling loop, which is
/// interactive only in release builds.
#[cfg(not(debug_assertions))]
#[test]
fn forced_surrogate_fallback_simulates_while_siblings_stay_pristine() {
    use mlp_experiments::exp::sweep1000;
    let d = Daemon::spawn(
        "surrogate",
        Some("surrogate-uncertain:1"),
        &["--workers", "2"],
    );
    let point = "{\"tier\": \"surrogate\", \"benchmark\": \"Database\", \"window\": 64, \
                 \"mshrs\": 4, \"latency\": 500, \"l2_kb\": 1024}";

    // First surrogate request trips the armed fault and falls back.
    let (status, body) = d.post("/v1/run", point);
    assert_eq!(status, 200, "fallback response: {body}");
    assert!(body.contains("\"tier\": \"simulated\""), "body: {body}");
    assert!(body.contains("\"fallback\": true"), "body: {body}");
    let expected = sweep1000::simulate_point(
        &mlp_surrogate::ConfigPoint {
            workload: 0,
            window: 64,
            mshrs: 4,
            latency: 500,
            l2_kb: 1024,
        },
        mlp_experiments::RunScale::quick(),
    );
    assert!(
        body.contains(&format!("\"cpi\": {expected}")),
        "fallback CPI must be the real simulation's ({expected}): {body}"
    );

    // Second request: the single-occurrence fault is spent; fast path.
    let (status, body) = d.post("/v1/run", point);
    assert_eq!(status, 200);
    assert!(body.contains("\"tier\": \"surrogate\""), "body: {body}");
    assert!(body.contains("\"fallback\": false"), "body: {body}");

    // The tier is synchronous only.
    let (status, body) = d.post("/v1/jobs", point);
    assert_eq!(status, 400, "async surrogate must be rejected: {body}");

    // Sibling experiment jobs are untouched by the tier.
    let (status, sibling) = d.post("/v1/run", &run_body("fm"));
    assert_eq!(status, 200);
    assert_eq!(
        sibling,
        solo_bytes("fm"),
        "sibling response must be byte-identical to a solo run"
    );

    let (_, statusz) = d.get("/statusz");
    for needle in [
        "\"serve.surrogate.requests\": 2",
        "\"serve.surrogate.trained\": 1",
        "\"serve.surrogate.hits\": 1",
        "\"serve.surrogate.fallback\": 1",
    ] {
        assert!(statusz.contains(needle), "missing {needle}: {statusz}");
    }
    d.assert_alive();
    d.shutdown();
}

/// Stderr of a dying daemon is part of the debugging contract; make sure
/// the compact panic hook line (not a backtrace storm) is what an
/// injected panic produces.
#[test]
fn injected_panic_is_one_compact_stderr_line() {
    let mut d = Daemon::spawn(
        "stderr",
        Some("serve-io-error:1"),
        &["--workers", "1", "--retries", "0"],
    );
    let (status, body) = d.post("/v1/run", &run_body("fm"));
    assert_eq!(status, 200);
    assert!(
        body.contains("\"status\": \"failed\""),
        "zero retries: the injected panic must degrade the job: {body}"
    );
    assert!(body.contains("injected fault: serve-io-error"));
    let (s, _) = d.post("/v1/shutdown", "");
    assert_eq!(s, 200);
    let _ = d.child.wait();
    let mut stderr = String::new();
    if let Some(mut pipe) = d.child.stderr.take() {
        let _ = pipe.read_to_string(&mut stderr);
    }
    assert!(
        stderr.contains("injected fault: serve-io-error"),
        "compact panic line expected on stderr: {stderr}"
    );
    assert!(
        !stderr.contains("stack backtrace"),
        "panic hook must suppress backtraces: {stderr}"
    );
}
