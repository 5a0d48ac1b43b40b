//! `mlp-serve`: a fault-isolated simulation daemon over the
//! `mlp-experiments` registry.
//!
//! Batch CLIs rerun everything on every invocation and die with their
//! worst job. This crate turns the experiment registry into a long-lived
//! service with the opposite posture: **any single job may panic, hang,
//! fail its I/O or corrupt its cache entry, and the daemon keeps serving
//! every other job, byte-identically**.
//!
//! The pieces, one module each:
//!
//! - [`http`] — hand-rolled HTTP/1.1 subset (the workspace builds
//!   offline; no hyper, no serde).
//! - [`jobs`] — supervised worker pool: priority admission queues with
//!   load shedding, in-flight dedup of identical `(experiment, scale)`
//!   jobs, per-job wall-clock deadlines enforced by a watchdog
//!   ([`mlp_par::supervised`]), capped exponential backoff with
//!   deterministic jitter for transient failures, and degraded
//!   `status:"failed"` reports for everything that still fails.
//! - [`cache`] — crash-safe on-disk result cache (atomic temp+rename
//!   writes, corrupt entries detected, evicted and regenerated).
//! - [`server`] — routing and introspection (`/healthz`, `/statusz`).
//! - [`surrogate`] — the fast-path tier: `"tier": "surrogate"` requests
//!   answered from the fitted `mlp-surrogate` CPI model in microseconds,
//!   with a real-simulation fallback when the prediction's uncertainty
//!   exceeds the pinned bound.
//!
//! Failure model (what a client sees):
//!
//! | fault inside a job        | contained by            | response |
//! |---------------------------|-------------------------|----------|
//! | panic                     | `catch_unwind` ladder   | 200, `status:"failed"` report naming the panic |
//! | hang                      | watchdog deadline       | 200, `status:"failed"` report naming the deadline |
//! | transient I/O error       | retry + backoff         | 200, pristine report (retried) |
//! | corrupt cache entry       | load-time validation    | 200, pristine report (regenerated) |
//! | queue full                | admission control       | 429, retry later |
//!
//! Determinism makes the strong guarantee testable: every experiment is
//! seeded, so a response body is a pure function of
//! `(experiment, scale)` — the chaos suite (`tests/chaos.rs`) asserts
//! sibling responses are *byte-identical* to solo runs while a fault
//! rampages next to them.

pub mod cache;
pub mod http;
pub mod jobs;
pub mod server;
pub mod surrogate;

/// Serializes unit tests that touch process-global state (the armed
/// fault slot, obs counters): `mlp_faults::set_for_test` is one slot per
/// process, which the tests whose fault fires on a worker thread need.
/// A fault that fires on the test's own thread is armed with
/// `mlp_faults::arm_scoped` instead and needs no lock.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
