//! # parinda-parallel
//!
//! A small std-only execution engine for PARINDA's embarrassingly
//! parallel what-if evaluation loops: INUM cache population, the ILP
//! benefit matrix, and AutoPart's per-round candidate sweep are all
//! independent per query/configuration, so they fan out over a scoped
//! thread pool here.
//!
//! Design rules that keep parallel results **bit-identical** to
//! sequential execution at any thread count:
//!
//! * workers only compute *pure* per-item values — all side effects
//!   (memo merges, reductions, error selection) happen on the caller's
//!   thread, in input order;
//! * [`par_map`] / [`par_map_indexed`] return results ordered by input
//!   index regardless of completion order;
//! * [`ordered_sum`] reduces strictly in input order, so floating-point
//!   rounding matches the sequential loop exactly.
//!
//! Work distribution is dynamic: workers claim chunks of indexes from a
//! shared atomic cursor, so skewed item costs (one huge query among
//! thirty) don't serialize the sweep.
//!
//! ## Panic containment
//!
//! PARINDA is an interactive tool: a panic inside one what-if evaluation
//! must never tear down the DBA's session. Every item runs under
//! [`std::panic::catch_unwind`], and [`par_try_map_indexed`] surfaces a
//! worker panic to the caller as a [`WorkerPanic`] **error** instead of
//! unwinding. The error is deterministic: all items are evaluated
//! regardless of failures, and the panic at the **lowest input index** is
//! reported, so the same workload yields the same error at any thread
//! count. [`par_map`] / [`par_map_indexed`] keep their infallible
//! signatures by re-raising the (equally deterministic) [`WorkerPanic`]
//! as a panic on the *caller's* thread, where an interactive frontend's
//! `catch_unwind` backstop can contain it.
//!
//! ## Budgets and cancellation
//!
//! There is one sweep body. [`par_try_map_indexed`] runs it under a
//! [`RunCtx`]: its [`Budget`] (wall-clock deadline on a monotonic clock,
//! optional round cap, [`CancelToken`]) is polled by workers **between
//! chunk claims**, and the result is a [`Partial`] covering a contiguous
//! prefix of the input. Degraded results keep a deterministic shape:
//! which inputs were evaluated is always `0..done.len()`, never a
//! scheduling-dependent subset. The infallible maps run the same body
//! with no budget at all.

#![deny(missing_docs)]

mod budget;

pub use budget::{Budget, BudgetReport, CancelToken, Partial};

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the auto-detected thread count.
pub const THREADS_ENV: &str = "PARINDA_THREADS";

/// Thread-count policy for the evaluation engine.
///
/// `Parallelism` is resolved at construction: `auto()` consults the
/// `PARINDA_THREADS` environment variable and then the machine's
/// available parallelism, so a constructed value is a plain count and
/// two equal values always behave identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Auto-detect: `PARINDA_THREADS` if set and valid, otherwise the
    /// machine's available parallelism, otherwise 1.
    pub fn auto() -> Self {
        if let Some(n) = env_threads() {
            return Parallelism::fixed(n);
        }
        let n = std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1);
        Parallelism::fixed(n)
    }

    /// Exactly `n` threads (clamped to at least 1).
    pub fn fixed(n: usize) -> Self {
        Parallelism { threads: NonZeroUsize::new(n.max(1)).expect("max(1) is non-zero") }
    }

    /// Single-threaded execution.
    pub fn sequential() -> Self {
        Parallelism::fixed(1)
    }

    /// The resolved thread count.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Does this policy run everything on the calling thread?
    pub fn is_sequential(&self) -> bool {
        self.threads.get() == 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// The `PARINDA_THREADS` override, if set to a positive integer.
pub fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV).ok()?.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// How many indexes a worker claims per grab: enough to amortize the
/// atomic increment on microsecond-scale items, small enough to balance
/// skewed workloads.
fn chunk_size(n: usize, threads: usize) -> usize {
    (n / (threads * 8)).max(1)
}

/// A worker panic caught at the parallel boundary.
///
/// Deterministic by construction: every item is evaluated even after a
/// failure, and the panic with the **lowest input index** is the one
/// reported, so equal inputs produce an equal `WorkerPanic` at any
/// thread count.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkerPanic {
    /// Input index of the item whose evaluation panicked.
    pub index: usize,
    /// The panic payload rendered as text (`&str`/`String` payloads are
    /// kept verbatim; anything else becomes a fixed placeholder).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parallel worker panicked at item {}: {}", self.index, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Render a caught panic payload as text.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one item under `catch_unwind`, rendering any panic to text
/// immediately so no payload crosses a thread boundary.
fn run_item<R, F: Fn(usize) -> R>(f: &F, i: usize) -> Result<R, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if parinda_failpoint::should_fail("parallel::item") {
            panic!("failpoint parallel::item: injected error");
        }
        f(i)
    }))
    .map_err(|p| panic_message(&*p))
}

/// What one advisor run executes under: the thread-count policy, the
/// [`Budget`] (which carries the cancel token) and the observability
/// handle. The session builds one per request and hands it down; the
/// default is auto-detected threads, no limit, tracing off.
#[derive(Debug, Clone, Default)]
pub struct RunCtx {
    /// Thread-count policy for every sweep of the run.
    pub par: Parallelism,
    /// Deadline / round cap / cancel token, polled at iteration boundaries.
    pub budget: Budget,
    /// Where spans and counters of the run are recorded.
    pub trace: parinda_trace::Trace,
}

/// The one sweep body: map `f` over `0..n`, stop claiming work once
/// `budget` is interrupted (`None` = never), and keep the longest
/// contiguous prefix of evaluated items.
///
/// Completed items beyond the first gap were computed out of order past
/// an interrupted chunk and are discarded — with any panic they hold — so
/// a partial result always covers exactly inputs `0..done.len()`. Among
/// the kept items the panic at the lowest index wins.
fn sweep<R, F>(
    par: Parallelism,
    budget: Option<&Budget>,
    n: usize,
    f: F,
) -> Result<Partial<R>, WorkerPanic>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let interrupted = || budget.is_some_and(Budget::interrupted);
    let threads = par.threads().min(n.max(1));
    if threads <= 1 {
        return keep_prefix(n, (0..n).map(|i| (!interrupted()).then(|| run_item(&f, i))));
    }

    let chunk = chunk_size(n, threads);
    let cursor = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, Result<R, String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, Result<R, String>)> = Vec::new();
                    while !interrupted() {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        for i in start..(start + chunk).min(n) {
                            out.push((i, run_item(&f, i)));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });

    // Reassemble in input order — determinism does not depend on which
    // worker computed what.
    let mut slots: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
    for part in parts {
        for (i, r) in part {
            debug_assert!(slots[i].is_none());
            slots[i] = Some(r);
        }
    }
    keep_prefix(n, slots.into_iter())
}

/// Fold input-ordered slots (`None` = not evaluated) into the prefix
/// before the first gap. `slots` is consumed lazily and dropped at the
/// gap, which is what makes the sequential sweep stop evaluating there.
fn keep_prefix<R>(
    n: usize,
    slots: impl Iterator<Item = Option<Result<R, String>>>,
) -> Result<Partial<R>, WorkerPanic> {
    let mut done = Vec::with_capacity(n);
    let mut first_panic: Option<WorkerPanic> = None;
    let mut prefix = 0usize;
    for (i, slot) in slots.enumerate() {
        match slot {
            None => break,
            Some(Ok(r)) => done.push(r),
            Some(Err(message)) => {
                if first_panic.is_none() {
                    first_panic = Some(WorkerPanic { index: i, message });
                }
            }
        }
        prefix = i + 1;
    }
    match first_panic {
        None => Ok(Partial { done, skipped: n - prefix }),
        Some(p) => Err(p),
    }
}

/// Map `f` over `0..n` on `ctx`'s pool under `ctx`'s budget, returning
/// the results for a **contiguous prefix** of the input plus a skipped
/// count, or the deterministic [`WorkerPanic`] of the lowest-index item
/// that panicked.
///
/// `f` must be pure (or internally synchronized); it may run on any
/// worker in any order, but `done` is always `[f(0), f(1), …]`. A panic
/// in `f` never unwinds through this call and never aborts sibling
/// items. Workers poll `ctx.budget.interrupted()` between chunk claims
/// (the sequential path between items), so a deadline or a
/// [`CancelToken`] stops the sweep at the next iteration boundary; under
/// an unlimited budget every item is evaluated and `skipped == 0`.
///
/// One span at `path` covers the sweep and a surfaced panic bumps
/// `worker_panics_recovered`. Spans are identified by stable paths and
/// the `Trace` handle is `Sync`, so a worker closure that wants
/// sub-spans captures `&Trace` and records under a child path. What a
/// skipped item *means* (a query, a candidate) is context the caller
/// has, so skip counters stay at the call sites. Tracing never perturbs
/// results.
pub fn par_try_map_indexed<R, F>(
    ctx: &RunCtx,
    path: &'static str,
    n: usize,
    f: F,
) -> Result<Partial<R>, WorkerPanic>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let _span = ctx.trace.span(path);
    let out = sweep(ctx.par, Some(&ctx.budget), n, f);
    if out.is_err() {
        ctx.trace.count(parinda_trace::Counter::WorkerPanicsRecovered, 1);
    }
    out
}

/// Map `f` over `0..n` on the pool, returning results in index order:
/// the sweep of [`par_try_map_indexed`] with no budget and no trace.
///
/// A panic in `f` is contained at the worker, then re-raised **on the
/// caller's thread** with the deterministic lowest-index [`WorkerPanic`]
/// message, so a frontend `catch_unwind` sees the same failure at any
/// thread count and the scoped pool always shuts down cleanly first.
pub fn par_map_indexed<R, F>(par: Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    match sweep(par, None, n, f) {
        Ok(all) => all.done,
        Err(p) => panic!("{p}"),
    }
}

/// Map `f` over a slice on the pool, preserving input order.
pub fn par_map<'a, T, R, F>(par: Parallelism, items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    par_map_indexed(par, items.len(), |i| f(&items[i]))
}

/// Compute `n` `f64` terms in parallel, then reduce **in input order**,
/// so the floating-point sum is bit-identical to the sequential loop.
pub fn ordered_sum<F>(par: Parallelism, n: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    if par.is_sequential() || n < 2 {
        return (0..n).map(f).sum();
    }
    par_map_indexed(par, n, f).into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_in_input_order() {
        for threads in [1, 2, 3, 8, 64] {
            let out = par_map_indexed(Parallelism::fixed(threads), 1000, |i| i * i);
            assert_eq!(out, (0..1000).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn par_map_over_slice() {
        let items: Vec<String> = (0..64).map(|i| format!("q{i}")).collect();
        let out = par_map(Parallelism::fixed(4), &items, |s| s.len());
        assert_eq!(out, items.iter().map(|s| s.len()).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = par_map_indexed(Parallelism::fixed(8), 0, |_| unreachable!());
        assert!(empty.is_empty());
        assert_eq!(par_map_indexed(Parallelism::fixed(8), 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn every_index_computed_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = par_map_indexed(Parallelism::fixed(7), 333, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 333);
        assert_eq!(out.len(), 333);
    }

    #[test]
    fn ordered_sum_is_bit_identical_across_thread_counts() {
        // Terms chosen so that summation order changes the rounding.
        let term = |i: usize| ((i as f64) * 1.000_000_1).powf(1.5) + 1e-9 / ((i + 1) as f64);
        let seq = ordered_sum(Parallelism::sequential(), 10_000, term);
        for threads in [2, 5, 16] {
            let par = ordered_sum(Parallelism::fixed(threads), 10_000, term);
            assert_eq!(seq.to_bits(), par.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn fixed_clamps_to_one() {
        assert_eq!(Parallelism::fixed(0).threads(), 1);
        assert!(Parallelism::fixed(0).is_sequential());
        assert!(!Parallelism::fixed(2).is_sequential());
    }

    #[test]
    fn auto_is_at_least_one() {
        assert!(Parallelism::auto().threads() >= 1);
    }

    #[test]
    fn worker_panics_propagate() {
        let r = std::panic::catch_unwind(|| {
            par_map_indexed(Parallelism::fixed(4), 100, |i| {
                if i == 57 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err());
    }

    fn ctx(threads: usize) -> RunCtx {
        RunCtx { par: Parallelism::fixed(threads), ..RunCtx::default() }
    }

    /// The sweep under an unlimited context evaluates every item and
    /// returns `[f(0)..f(n-1)]`, records one span per sweep at the given
    /// path, and a default (disabled) trace records nothing.
    #[test]
    fn core_unlimited_returns_every_item_in_order() {
        let trace = parinda_trace::Trace::recording();
        for threads in [1, 2, 8] {
            let traced = RunCtx { trace: trace.clone(), ..ctx(threads) };
            let all = par_try_map_indexed(&traced, "sweep", 500, |i| i * 3).unwrap();
            assert!(all.is_complete(), "threads={threads}");
            assert_eq!(all.done, (0..500).map(|i| i * 3).collect::<Vec<_>>(), "threads={threads}");
            let quiet = ctx(threads);
            let all = par_try_map_indexed(&quiet, "sweep", 50, |i| i + 1).unwrap();
            assert_eq!(all.done, (1..=50).collect::<Vec<_>>(), "threads={threads}");
            assert!(quiet.trace.snapshot().spans.is_empty());
        }
        assert_eq!(trace.snapshot().spans["sweep"].count, 3);
    }

    /// A panicking item surfaces as an error, not an unwind; the error is
    /// identical at every thread count (lowest index wins) and bumps the
    /// recovery counter once per sweep.
    #[test]
    fn core_reports_lowest_index_panic() {
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let trace = parinda_trace::Trace::recording();
        let expected = Err(WorkerPanic { index: 31, message: "boom at 31".into() });
        for threads in [1, 2, 8] {
            let traced = RunCtx { trace: trace.clone(), ..ctx(threads) };
            let r = par_try_map_indexed(&traced, "sweep", 200, |i| {
                if i == 31 || i == 163 {
                    panic!("boom at {i}");
                }
                i * 2
            });
            assert_eq!(r, expected, "threads={threads}");
        }
        assert_eq!(trace.snapshot().counter(parinda_trace::Counter::WorkerPanicsRecovered), 3);
        std::panic::set_hook(quiet);
    }

    /// A cancelled token yields a contiguous prefix: empty when cancelled
    /// before the sweep starts, exactly `f(0..done.len())` when cancelled
    /// while it runs.
    #[test]
    fn core_cancelled_returns_contiguous_prefix() {
        for threads in [1, 2, 8] {
            let token = CancelToken::new();
            let cancelled = RunCtx {
                budget: Budget::unlimited().with_cancel(token.clone()),
                ..ctx(threads)
            };
            let hits = AtomicU64::new(0);
            // Cancel after ~40 items have been evaluated (any thread).
            let partial = par_try_map_indexed(&cancelled, "sweep", 10_000, |i| {
                if hits.fetch_add(1, Ordering::Relaxed) == 40 {
                    token.cancel();
                }
                i * 2
            })
            .unwrap();
            assert!(partial.skipped > 0, "threads={threads}: cancellation should skip the tail");
            assert_eq!(partial.done.len() + partial.skipped, 10_000);
            assert_eq!(partial.done, (0..partial.done.len()).map(|i| i * 2).collect::<Vec<_>>());

            // The token is still set: the next sweep does no work at all.
            let partial = par_try_map_indexed(&cancelled, "sweep", 100, |i| i).unwrap();
            assert_eq!((partial.done.len(), partial.skipped), (0, 100), "threads={threads}");
        }
    }

    /// Non-string panic payloads are rendered to a fixed placeholder, so
    /// the error stays comparable and `Send`.
    #[test]
    fn non_string_payloads_render_fixed_text() {
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = par_try_map_indexed(&ctx(2), "sweep", 4, |i| {
            if i == 2 {
                std::panic::panic_any(42_u64);
            }
            i
        });
        assert_eq!(
            r,
            Err(WorkerPanic { index: 2, message: "non-string panic payload".into() })
        );
        std::panic::set_hook(quiet);
    }
}
