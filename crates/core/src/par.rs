//! Deterministic fork–join parallelism for the pipeline.
//!
//! [`par_map`] fans a slice out over scoped worker threads and returns
//! the results **in input order**, so any sequential reduction over its
//! output is byte-identical to running the map serially. Workers pull
//! items from a shared atomic cursor (good load balance when item costs
//! vary wildly, as windows do), and a panicking worker
//! propagates its panic to the caller once every sibling has been
//! joined — no work is silently lost.
//!
//! Thread counts resolve with [`resolve_threads`]: a request clamped to
//! [`std::thread::available_parallelism`], `0` meaning all of it. The
//! estimator has one parallel region, the fan-out of
//! [`crate::OnlineCs::run_detailed`] over (window, hypothesis block)
//! pairs; a process-wide budget caps the
//! *total* number of extra workers alive at once, so concurrent
//! estimators (several vehicles under the fleet worker pool, say) or
//! nested maps degrade to inline execution instead of multiplying
//! thread counts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Resolves an effective thread count: `requested` clamped to the
/// machine's detected parallelism, with `0` meaning all of it.
/// Oversubscribing a core with pure compute buys no concurrency, only
/// scheduling noise.
pub fn resolve_threads(requested: usize) -> usize {
    // Read once: `available_parallelism` consults the cgroup limits on
    // every call, which costs more than estimating a small window, and
    // every `par_map` call resolves its thread count.
    static DETECTED: OnceLock<usize> = OnceLock::new();
    let detected =
        *DETECTED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    if requested == 0 {
        detected
    } else {
        requested.min(detected)
    }
}

/// Process-wide budget of *extra* (non-caller) worker threads.
///
/// Initialized on first use from [`resolve_threads`]`(0) - 1`.
fn extra_budget() -> &'static AtomicUsize {
    static BUDGET: OnceLock<AtomicUsize> = OnceLock::new();
    BUDGET.get_or_init(|| AtomicUsize::new(resolve_threads(0).saturating_sub(1)))
}

/// Leases up to `want` extra workers from the global budget; returns
/// the number actually granted (0 when the budget is exhausted, i.e.
/// run inline).
fn lease_extra(want: usize) -> usize {
    let budget = extra_budget();
    let mut current = budget.load(Ordering::Relaxed);
    loop {
        let granted = want.min(current);
        if granted == 0 {
            return 0;
        }
        match budget.compare_exchange_weak(
            current,
            current - granted,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => return granted,
            Err(actual) => current = actual,
        }
    }
}

/// RAII handle returning leased workers to the budget — also on unwind,
/// so a panicking map does not permanently shrink the process's
/// parallelism.
struct Lease(usize);

impl Drop for Lease {
    fn drop(&mut self) {
        if self.0 > 0 {
            extra_budget().fetch_add(self.0, Ordering::AcqRel);
        }
    }
}

/// Maps `f` over `items` using up to `threads` OS threads (the caller's
/// thread plus leased extras), returning results in input order.
///
/// `threads == 0` means auto ([`resolve_threads`]). The function
/// receives `(index, &item)`. Output order — and therefore any
/// order-dependent reduction downstream — is identical to the
/// sequential `items.iter().enumerate().map(...)`.
///
/// # Panics
///
/// Re-raises the first worker panic after all workers have been joined.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = resolve_threads(threads);
    if items.len() <= 1 || threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let extra = lease_extra(threads.min(items.len()).saturating_sub(1));
    if extra == 0 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let _lease = Lease(extra);

    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(items.len()));
    let worker = || {
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            local.push((i, f(i, item)));
        }
        collected
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend(local);
    };

    // `scope` joins every spawned worker before returning and re-raises
    // the first worker panic afterwards, so no result is silently lost.
    std::thread::scope(|scope| {
        for _ in 0..extra {
            scope.spawn(worker);
        }
        // The caller participates too: `threads` includes this thread.
        worker();
    });

    let mut collected = collected
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    collected.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(collected.len(), items.len());
    collected.into_iter().map(|(_, u)| u).collect()
}

/// [`par_map`] for fallible maps: stops delivering new items to workers
/// once an error has been observed and returns the error occurring at
/// the **lowest input index** — exactly the error a sequential
/// `try_map` loop would have hit first (later items may have been
/// computed speculatively; their results are discarded).
pub fn try_par_map<T, U, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<U, E> + Sync,
{
    let failed = std::sync::atomic::AtomicBool::new(false);
    let results = par_map(items, threads, |i, t| {
        if failed.load(Ordering::Relaxed) {
            return None; // fast-path drain once an error is known
        }
        let r = f(i, t);
        if r.is_err() {
            failed.store(true, Ordering::Relaxed);
        }
        Some(r)
    });
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Some(Ok(u)) => out.push(u),
            Some(Err(e)) => return Err(e),
            // Items are pulled from a monotonic cursor, so a drained
            // slot can only sit at a *higher* index than the error that
            // triggered the drain — the in-order scan always returns
            // that error first.
            None => unreachable!("drained slot with no preceding error"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, 4, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_matches_parallel() {
        let items: Vec<u64> = (0..257).collect();
        let seq = par_map(&items, 1, |_, &x| x.wrapping_mul(0x9e3779b97f4a7c15));
        let par = par_map(&items, 8, |_, &x| x.wrapping_mul(0x9e3779b97f4a7c15));
        assert_eq!(seq, par);
    }

    #[test]
    fn nested_par_maps_complete() {
        let outer: Vec<usize> = (0..8).collect();
        let out = par_map(&outer, 4, |_, &o| {
            let inner: Vec<usize> = (0..16).collect();
            par_map(&inner, 4, |_, &i| o * 100 + i)
                .iter()
                .sum::<usize>()
        });
        let expect: Vec<usize> = (0..8)
            .map(|o| (0..16).map(|i| o * 100 + i).sum::<usize>())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn try_par_map_returns_first_error() {
        let items: Vec<usize> = (0..100).collect();
        let r = try_par_map(
            &items,
            4,
            |_, &x| {
                if x == 17 || x == 63 {
                    Err(x)
                } else {
                    Ok(x)
                }
            },
        );
        assert_eq!(r, Err(17));
    }

    #[test]
    fn try_par_map_ok_path() {
        let items: Vec<i32> = (0..50).collect();
        let r: Result<Vec<i32>, ()> = try_par_map(&items, 3, |_, &x| Ok(x + 1));
        assert_eq!(r.unwrap(), (1..51).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, 4, |_, &x| {
                if x == 33 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn resolve_clamps_requests_to_detected_parallelism() {
        let detected = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(0), detected);
        assert_eq!(resolve_threads(usize::MAX), detected);
        assert_eq!(resolve_threads(1), 1);
    }
}
