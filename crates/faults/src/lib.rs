//! Deterministic fault injection for the experiment harness.
//!
//! Long sweep campaigns must survive a single bad run, and the only way
//! to *prove* they do is to make faults happen on demand. This crate is
//! the single switchboard: production code consults a named **site**, and
//! the `MLP_FAULT=<site>:<n>` environment variable arms exactly one site
//! per process. With the variable unset every probe is a no-op, so the
//! hooks cost one atomic load on the hot path and nothing observable in
//! behaviour.
//!
//! Sites are plain strings; the ones wired into the workspace are:
//!
//! | site | armed as | effect |
//! |------|----------|--------|
//! | [`SWEEP_PANIC`] | `sweep-panic:<n>` | the *n*-th sweep job started by `mlp_par::try_par_map` (counted process-wide, 1-based) panics |
//! | [`CURSOR_TRUNCATE`] | `cursor-truncate:<n>` | every materialized trace cursor is capped at `n` instructions, so a run drains its trace early |
//! | [`TRACE_BITFLIP`] | `trace-bitflip:<bit>` | `mlp_isa::tracefile::read` sees bit `bit` (a process-wide bit offset into the stream) flipped |
//! | [`SERVE_JOB_HANG`] | `serve-job-hang:<n>` | the *n*-th job body started by the `mlp-serve` worker pool wedges (sleeps past any deadline) |
//! | [`SERVE_IO_ERROR`] | `serve-io-error:<n>` | the *n*-th serve job attempt fails with a transient injected IO error (retried with backoff) |
//! | [`SERVE_CACHE_CORRUPT`] | `serve-cache-corrupt:<n>` | the *n*-th result-cache write by `mlp-serve` stores corrupt bytes |
//! | [`SURROGATE_UNCERTAIN`] | `surrogate-uncertain:<n>` | the *n*-th surrogate-tier request served by `mlp-serve` is treated as out-of-tolerance and falls back to real simulation |
//!
//! Three probe flavours cover those semantics: [`fire`] counts dynamic
//! occurrences and panics on the *n*-th one (for sites whose parameter is
//! an ordinal), [`trip`] counts the same way but *returns* `true` on the
//! armed occurrence instead of panicking (for sites whose effect is not a
//! panic — hanging a worker, corrupting bytes), and [`param`] just hands
//! the armed parameter back (for sites whose parameter is a size or
//! offset). Determinism: occurrence counting uses a single process-wide
//! counter, so which *experiment* a fault lands in depends only on the
//! cumulative number of probes — experiments run sequentially — never on
//! thread scheduling.
//!
//! Concurrent tests arm faults with [`arm_scoped`]: the plan belongs to
//! the arming thread, so no sibling test can consume it. Faults that
//! fire on another thread (a worker's job body) need [`set_for_test`].
//!
//! A malformed `MLP_FAULT` value is reported once on stderr and ignored:
//! a typo'd injection must not silently pass a fault test, and the
//! warning makes the misconfiguration visible.
//!
//! # Examples
//!
//! ```
//! mlp_faults::set_for_test(Some(("demo-site", 2)));
//! assert_eq!(mlp_faults::param("demo-site"), Some(2));
//! assert_eq!(mlp_faults::param("other-site"), None);
//! mlp_faults::fire("demo-site"); // occurrence 1 of 2: no panic
//! let hit = std::panic::catch_unwind(|| mlp_faults::fire("demo-site"));
//! assert!(hit.is_err()); // occurrence 2 fires
//! mlp_faults::set_for_test(None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Mutex;

/// Site name: panic inside the n-th parallel sweep job (see `mlp-par`).
pub const SWEEP_PANIC: &str = "sweep-panic";
/// Site name: cap materialized trace cursors at the armed length.
pub const CURSOR_TRUNCATE: &str = "cursor-truncate";
/// Site name: flip the armed bit offset in a binary trace stream.
pub const TRACE_BITFLIP: &str = "trace-bitflip";
/// Site name: wedge the n-th job body started by the `mlp-serve` worker
/// pool (the body sleeps far past any configured deadline, so the
/// daemon's watchdog must reclaim the worker).
pub const SERVE_JOB_HANG: &str = "serve-job-hang";
/// Site name: fail the n-th serve job attempt with a transient injected
/// IO error (the daemon retries it with capped backoff).
pub const SERVE_IO_ERROR: &str = "serve-io-error";
/// Site name: corrupt the bytes of the n-th result-cache write performed
/// by `mlp-serve` (a later read must detect and regenerate).
pub const SERVE_CACHE_CORRUPT: &str = "serve-cache-corrupt";
/// Site name: force the n-th surrogate-tier request served by
/// `mlp-serve` to be treated as exceeding the uncertainty bound, so it
/// falls back from the fitted model to a real simulation.
pub const SURROGATE_UNCERTAIN: &str = "surrogate-uncertain";

/// The environment variable that arms a fault site.
pub const ENV_VAR: &str = "MLP_FAULT";

/// One armed fault: a site name, its parameter, and how many times the
/// counting probe has been consulted.
#[derive(Debug)]
struct Armed {
    site: String,
    param: u64,
    occurrences: u64,
}

/// Process-global armed fault. `None` inside the option means "nothing
/// armed"; the outer `Option` distinguishes "not yet initialized from the
/// environment".
static ARMED: Mutex<Option<Option<Armed>>> = Mutex::new(None);

/// Parses a `<site>:<n>` spec. Returns `None` (and the reason) when the
/// spec is malformed.
fn parse_spec(spec: &str) -> Result<(String, u64), &'static str> {
    let Some((site, param)) = spec.rsplit_once(':') else {
        return Err("expected <site>:<n>");
    };
    let site = site.trim();
    if site.is_empty() {
        return Err("empty site name");
    }
    let Ok(param) = param.trim().parse::<u64>() else {
        return Err("parameter is not a non-negative integer");
    };
    Ok((site.to_string(), param))
}

thread_local! {
    /// This thread's scoped plan (see [`arm_scoped`]); when set it is
    /// the whole plan for the thread and the global one is not consulted.
    static SCOPED: RefCell<Option<Armed>> = const { RefCell::new(None) };
}

fn with_armed<R>(f: impl FnOnce(&mut Option<Armed>) -> R) -> R {
    SCOPED.with(|scoped| {
        let mut scoped = scoped.borrow_mut();
        if scoped.is_some() {
            return f(&mut scoped);
        }
        drop(scoped);
        let mut guard = ARMED.lock().unwrap_or_else(|e| e.into_inner());
        let slot = guard.get_or_insert_with(|| match std::env::var(ENV_VAR) {
            Ok(spec) => match parse_spec(&spec) {
                Ok((site, param)) => Some(Armed {
                    site,
                    param,
                    occurrences: 0,
                }),
                Err(why) => {
                    eprintln!("[mlp-faults] ignoring malformed {ENV_VAR}={spec:?}: {why}");
                    None
                }
            },
            Err(_) => None,
        });
        f(slot)
    })
}

/// The armed parameter for `site`, or `None` if the site is not armed.
///
/// Use this for sites whose parameter is a magnitude (a truncation
/// length, a bit offset) rather than an occurrence count.
pub fn param(site: &str) -> Option<u64> {
    with_armed(|armed| match armed {
        Some(a) if a.site == site => Some(a.param),
        _ => None,
    })
}

/// Counts one dynamic occurrence of `site` and panics if it is the armed
/// occurrence (1-based). A no-op unless `site` is armed; an armed
/// parameter of `0` never fires.
///
/// # Panics
///
/// Panics with an `injected fault:` message on the n-th occurrence.
pub fn fire(site: &str) {
    if trip(site) {
        let n = param(site).unwrap_or(0);
        panic!("injected fault: {site}:{n} (occurrence {n})");
    }
}

/// Counts one dynamic occurrence of `site` and returns `true` if it is
/// the armed occurrence (1-based), `false` otherwise. The non-panicking
/// sibling of [`fire`], for sites whose injected effect is behavioural
/// rather than a panic — wedging a worker, corrupting bytes on the way
/// to disk. Always `false` unless `site` is armed; an armed parameter of
/// `0` never trips.
pub fn trip(site: &str) -> bool {
    with_armed(|armed| match armed {
        Some(a) if a.site == site => {
            a.occurrences += 1;
            a.occurrences == a.param
        }
        _ => false,
    })
}

/// Arms `site` with `param` (or disarms everything with `None`),
/// resetting the occurrence counter. Test hook: the environment variable
/// is read once per process, so tests arm faults programmatically.
pub fn set_for_test(spec: Option<(&str, u64)>) {
    let mut guard = ARMED.lock().unwrap_or_else(|e| e.into_inner());
    *guard = Some(spec.map(|(site, param)| Armed {
        site: site.to_string(),
        param,
        occurrences: 0,
    }));
}

/// Arms `site` with `param` for the calling thread only, until the
/// returned guard drops: [`param`], [`fire`] and [`trip`] on this thread
/// consult this plan instead of the process-global one.
#[must_use = "the fault is disarmed when the guard drops"]
pub fn arm_scoped(site: &str, param: u64) -> ScopedFault {
    SCOPED.with(|slot| {
        *slot.borrow_mut() = Some(Armed {
            site: site.to_string(),
            param,
            occurrences: 0,
        })
    });
    ScopedFault(PhantomData)
}

/// Guard returned by [`arm_scoped`]; dropping it disarms the thread's
/// plan. Not `Send`: the plan belongs to the thread that armed it.
#[derive(Debug)]
pub struct ScopedFault(PhantomData<*const ()>);

impl Drop for ScopedFault {
    fn drop(&mut self) {
        // `try_with`: the thread's locals may already be torn down.
        let _ = SCOPED.try_with(|slot| slot.replace(None));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    // The armed fault is process-global; serialize tests that touch it.
    static LOCK: TestMutex<()> = TestMutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_accepts_well_formed_specs() {
        assert_eq!(
            parse_spec("sweep-panic:3"),
            Ok(("sweep-panic".to_string(), 3))
        );
        assert_eq!(
            parse_spec("cursor-truncate:1000"),
            Ok(("cursor-truncate".to_string(), 1000))
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(parse_spec("no-colon").is_err());
        assert!(parse_spec(":3").is_err());
        assert!(parse_spec("site:abc").is_err());
        assert!(parse_spec("site:-1").is_err());
    }

    #[test]
    fn unarmed_probes_are_noops() {
        let _g = lock();
        set_for_test(None);
        assert_eq!(param(SWEEP_PANIC), None);
        fire(SWEEP_PANIC); // must not panic
    }

    #[test]
    fn param_matches_only_the_armed_site() {
        let _g = lock();
        set_for_test(Some((CURSOR_TRUNCATE, 1000)));
        assert_eq!(param(CURSOR_TRUNCATE), Some(1000));
        assert_eq!(param(SWEEP_PANIC), None);
        set_for_test(None);
    }

    #[test]
    fn fire_hits_exactly_the_nth_occurrence() {
        let _g = lock();
        set_for_test(Some((SWEEP_PANIC, 3)));
        fire(SWEEP_PANIC);
        fire(SWEEP_PANIC);
        let hit = std::panic::catch_unwind(|| fire(SWEEP_PANIC));
        assert!(hit.is_err(), "third occurrence must fire");
        // Later occurrences stay quiet: exactly one injected fault.
        fire(SWEEP_PANIC);
        fire(SWEEP_PANIC);
        set_for_test(None);
    }

    #[test]
    fn trip_returns_true_exactly_once() {
        let _g = lock();
        set_for_test(Some((SERVE_JOB_HANG, 2)));
        assert!(!trip(SERVE_JOB_HANG));
        assert!(trip(SERVE_JOB_HANG), "second occurrence must trip");
        assert!(!trip(SERVE_JOB_HANG), "later occurrences stay quiet");
        // Other sites never trip while a different site is armed.
        assert!(!trip(SERVE_IO_ERROR));
        set_for_test(None);
        assert!(!trip(SERVE_CACHE_CORRUPT), "unarmed probes never trip");
    }

    #[test]
    fn scoped_plans_stay_on_their_thread() {
        let _g = lock();
        set_for_test(Some((SWEEP_PANIC, 1)));
        {
            let _armed = arm_scoped(SERVE_CACHE_CORRUPT, 2);
            // Another thread sees only the global plan.
            std::thread::spawn(|| {
                assert!(!trip(SERVE_CACHE_CORRUPT));
                assert_eq!(param(SWEEP_PANIC), Some(1));
            })
            .join()
            .unwrap();
            // This thread sees only its own plan.
            assert_eq!(param(SWEEP_PANIC), None);
            assert!(!trip(SERVE_CACHE_CORRUPT));
            assert!(trip(SERVE_CACHE_CORRUPT), "second occurrence must trip");
            assert!(!trip(SERVE_CACHE_CORRUPT));
        }
        // Dropping the guard hands the thread back to the global plan.
        assert_eq!(param(SERVE_CACHE_CORRUPT), None);
        assert_eq!(param(SWEEP_PANIC), Some(1));
        set_for_test(None);
    }

    #[test]
    fn zero_parameter_never_fires() {
        let _g = lock();
        set_for_test(Some((SWEEP_PANIC, 0)));
        for _ in 0..8 {
            fire(SWEEP_PANIC);
        }
        set_for_test(None);
    }
}
