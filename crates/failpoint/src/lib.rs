//! # parinda-failpoint
//!
//! A deterministic, std-only fault-injection harness for proving
//! PARINDA's recovery paths. Production code sprinkles *named sites*
//! (`failpoint::should_fail("inum::bind")`) at the places where real
//! faults would surface — worker items, optimizer calls, solver pivots,
//! heap loads — and the failpoint suite injects a panic, a typed error,
//! or a stall at each site, then asserts the session reports the **same
//! typed error or the same degraded-but-valid result at any thread
//! count**.
//!
//! The harness is compiled out of release binaries: unless the
//! `failpoints` cargo feature is enabled, every function here is an
//! inlinable no-op (`should_fail` is a constant `false`), so the sites
//! cost nothing in production.
//!
//! With the feature on, sites are configured either programmatically
//! ([`set`] / [`clear_all`]) or via the environment:
//!
//! ```text
//! PARINDA_FAILPOINTS='inum::bind=err,solver::relax=panic,storage::load=delay:25'
//! ```
//!
//! Injection is deterministic: a site either always fires or never
//! fires — there is no probabilistic mode — so a failing configuration
//! reproduces exactly.

#![deny(missing_docs)]

/// Environment variable listing active failpoints, as comma-separated
/// `site=action` pairs where action is `err`, `panic`, or `delay:<ms>`.
pub const FAILPOINTS_ENV: &str = "PARINDA_FAILPOINTS";

/// Every named injection site in the workspace. Kept in one place so the
/// failpoint suite can iterate the full matrix without grepping.
pub const SITES: &[&str] = &[
    "parallel::item",          // inside the parallel engine's per-item catch_unwind wrapper
    "inum::bind",              // INUM query binding (column resolution against the catalog)
    "inum::plan_case",         // INUM per-configuration plan construction during cache build
    "inum::access_cost",       // INUM cached access-cost lookup for one (query, index) pair
    "advisor::benefit_cell",   // one cell of the ILP benefit matrix
    "advisor::autopart_eval",  // AutoPart per-candidate costing against the round's memo
    "advisor::rewrite",        // query rewriting against a fragmented schema
    "solver::relax",           // LP relaxation of one branch-and-bound node
    "solver::simplex",         // one simplex solve
    "storage::load",           // heap loading in the storage engine
    "core::dispatch",          // console command dispatch (exercises the guard() backstop)
    "workload::cluster",       // template clustering in workload compression
    "solver::warmstart",       // greedy-incumbent seeding of the branch-and-bound search
    "server::accept",          // daemon connection admission (refuses the connection)
    "server::session",         // daemon per-request dispatch (errs one request)
    "wal::append",             // metadata-WAL record append (daemon degrades to ephemeral)
    "wal::fsync",              // metadata-WAL group fsync (daemon degrades to ephemeral)
    "wal::snapshot",           // snapshot write + log truncation (daemon degrades to ephemeral)
    "recover::replay",         // startup snapshot+WAL replay (daemon starts ephemeral)
    "stream::feed",            // one streamed statement's parse/accumulate step
    "stream::epoch",           // epoch advance (decay + merge + evict), before any commit
    "stream::drift",           // drift scoring between epoch distributions
    "inum::delta",             // incremental INUM maintenance (apply_delta)
];

/// What an activated failpoint does when execution reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The site reports failure: [`should_fail`] returns `true` and the
    /// caller takes its typed-error / degraded path.
    Err,
    /// The site panics inside [`should_fail`], exercising the
    /// `catch_unwind` containment around it.
    Panic,
    /// The site stalls for the given number of milliseconds, then
    /// proceeds normally (exercises deadline expiry), so
    /// [`should_fail`] returns `false`.
    Delay(u64),
}

impl Action {
    /// Parse `err`, `panic`, or `delay:<ms>`.
    pub fn parse(s: &str) -> Option<Action> {
        match s.trim() {
            "err" => Some(Action::Err),
            "panic" => Some(Action::Panic),
            other => {
                let ms = other.strip_prefix("delay:")?.trim().parse::<u64>().ok()?;
                Some(Action::Delay(ms))
            }
        }
    }
}

#[cfg(feature = "failpoints")]
mod active {
    use super::{Action, FAILPOINTS_ENV};
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    struct State {
        actions: HashMap<String, Action>,
        hits: HashMap<String, u64>,
    }

    fn state() -> &'static Mutex<State> {
        static STATE: OnceLock<Mutex<State>> = OnceLock::new();
        STATE.get_or_init(|| {
            let mut actions = HashMap::new();
            if let Ok(spec) = std::env::var(FAILPOINTS_ENV) {
                for pair in spec.split(',') {
                    let pair = pair.trim();
                    if pair.is_empty() {
                        continue;
                    }
                    if let Some((site, action)) = pair.split_once('=') {
                        if let Some(a) = Action::parse(action) {
                            actions.insert(site.trim().to_string(), a);
                        }
                    }
                }
            }
            Mutex::new(State { actions, hits: HashMap::new() })
        })
    }

    fn lock() -> std::sync::MutexGuard<'static, State> {
        // A panic injected at one site must not wedge the registry for
        // the rest of the test process: recover from poisoning.
        state().lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// See the crate docs; this is the feature-on implementation.
    pub fn should_fail(site: &str) -> bool {
        let action = {
            let mut st = lock();
            *st.hits.entry(site.to_string()).or_insert(0) += 1;
            st.actions.get(site).copied()
        };
        match action {
            None => false,
            Some(Action::Err) => true,
            Some(Action::Panic) => panic!("failpoint {site}: injected panic"),
            Some(Action::Delay(ms)) => {
                // parinda-lint: allow(blocking-while-locked): the delay is the injected fault — tests schedule it deliberately to widen race windows, and the registry guard is already released; the feature-off build compiles this whole module away
                std::thread::sleep(std::time::Duration::from_millis(ms));
                false
            }
        }
    }

    pub fn set(site: &str, action: Action) {
        lock().actions.insert(site.to_string(), action);
    }

    pub fn clear(site: &str) {
        lock().actions.remove(site);
    }

    pub fn clear_all() {
        lock().actions.clear();
    }

    pub fn hit_count(site: &str) -> u64 {
        lock().hits.get(site).copied().unwrap_or(0)
    }

    pub fn reset_hits() {
        lock().hits.clear();
    }
}

#[cfg(feature = "failpoints")]
pub use active::should_fail;

/// Activate `site` with the given [`Action`] (overrides any env config).
#[cfg(feature = "failpoints")]
pub fn set(site: &str, action: Action) {
    active::set(site, action)
}

/// Deactivate one site.
#[cfg(feature = "failpoints")]
pub fn clear(site: &str) {
    active::clear(site)
}

/// Deactivate every site (hit counters are preserved).
#[cfg(feature = "failpoints")]
pub fn clear_all() {
    active::clear_all()
}

/// How many times execution has reached `site` (hit whether or not the
/// site was active — useful for asserting a code path was exercised).
#[cfg(feature = "failpoints")]
pub fn hit_count(site: &str) -> u64 {
    active::hit_count(site)
}

/// Zero all hit counters.
#[cfg(feature = "failpoints")]
pub fn reset_hits() {
    active::reset_hits()
}

/// Feature off: never fails.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn should_fail(_site: &str) -> bool {
    false
}

/// Feature off: no-op.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn set(_site: &str, _action: Action) {}

/// Feature off: no-op.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn clear(_site: &str) {}

/// Feature off: no-op.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn clear_all() {}

/// Feature off: always 0.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn hit_count(_site: &str) -> u64 {
    0
}

/// Feature off: no-op.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn reset_hits() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_parsing() {
        assert_eq!(Action::parse("err"), Some(Action::Err));
        assert_eq!(Action::parse(" panic "), Some(Action::Panic));
        assert_eq!(Action::parse("delay:25"), Some(Action::Delay(25)));
        assert_eq!(Action::parse("delay:"), None);
        assert_eq!(Action::parse("explode"), None);
    }

    #[test]
    fn sites_are_unique_and_namespaced() {
        let mut seen = std::collections::HashSet::new();
        for site in SITES {
            assert!(seen.insert(site), "duplicate site {site}");
            assert!(site.contains("::"), "site {site} should be crate-namespaced");
        }
    }

    #[cfg(not(feature = "failpoints"))]
    #[test]
    fn feature_off_is_inert() {
        set("parallel::item", Action::Panic);
        assert!(!should_fail("parallel::item"));
        assert_eq!(hit_count("parallel::item"), 0);
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn feature_on_registry_works() {
        clear_all();
        reset_hits();
        assert!(!should_fail("tests::quiet"));
        set("tests::site", Action::Err);
        assert!(should_fail("tests::site"));
        assert_eq!(hit_count("tests::site"), 1);
        clear("tests::site");
        assert!(!should_fail("tests::site"));
        assert_eq!(hit_count("tests::site"), 2);

        set("tests::boom", Action::Panic);
        let r = std::panic::catch_unwind(|| should_fail("tests::boom"));
        assert!(r.is_err());
        clear_all();
        // The panic above poisoned nothing observable: registry still usable.
        assert!(!should_fail("tests::boom"));
    }
}
