//! Deterministic fork–join parallelism for the pipeline and the fleet.
//!
//! [`par_map`] fans a slice out over scoped worker threads and returns
//! the results **in input order**, so any sequential reduction over its
//! output is byte-identical to running the map serially. Workers pull
//! items from a shared atomic cursor (good load balance when item costs
//! vary wildly, as windows do), and a panicking worker
//! propagates its panic to the caller once every sibling has been
//! joined — no work is silently lost. [`par_for_each_mut`] is the same
//! map for in-place updates, and a [`Job`] is a map that runs in the
//! background while the caller does other work, then has the caller
//! help finish it.
//!
//! Thread counts resolve with [`resolve_threads`]: a request clamped to
//! [`std::thread::available_parallelism`], `0` meaning all of it. The
//! estimator has one parallel region: an
//! [`OnlineCsSession`](crate::pipeline::OnlineCsSession)'s fan-out over
//! the (window, hypothesis block) pairs of the windows one call
//! completes, which for a batch run is the whole drive. A process-wide
//! budget caps the *total* number of extra workers alive at once, so
//! concurrent maps (a fleet's sensing job beside its pumps, say, or an
//! estimator inside either) degrade to inline execution instead of
//! multiplying thread counts. This module is the only place the
//! workspace starts threads.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

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

/// Leases up to `want` extra workers from `budget`; returns the number
/// actually granted (0 when the budget is exhausted, i.e. run inline).
fn lease_extra(budget: &AtomicUsize, want: usize) -> usize {
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

/// RAII handle returning leased workers to their budget — also on
/// unwind, so a panicking map does not permanently shrink the process's
/// parallelism.
struct Lease {
    budget: &'static AtomicUsize,
    workers: usize,
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.workers > 0 {
            self.budget.fetch_add(self.workers, Ordering::AcqRel);
        }
    }
}

/// Locks `m`, ignoring poison: a panicking worker re-raises at the join,
/// and what it left behind is never read as a result.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
    let budget = extra_budget();
    let extra = lease_extra(budget, threads.min(items.len()).saturating_sub(1));
    if extra == 0 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let _lease = Lease {
        budget,
        workers: extra,
    };

    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(items.len()));
    let worker = || {
        let mut local = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            local.push((i, f(i, item)));
        }
        lock(&collected).extend(local);
    };

    // Every worker is joined before a panic is re-raised, so no result
    // is silently lost. The workers are joined by hand because `scope`
    // would replace a worker's payload with its own message: the panic
    // that surfaces must not depend on which thread hit it.
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..extra).map(|_| scope.spawn(worker)).collect();
        // The caller participates too: `threads` includes this thread.
        let mut panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(worker)).err();
        for handle in workers {
            if let Err(payload) = handle.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });

    let mut collected = collected
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    collected.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(collected.len(), items.len());
    collected.into_iter().map(|(_, u)| u).collect()
}

/// [`par_map`] for in-place updates: applies `f` to every item on up to
/// `threads` threads (the caller's included), under the same budget and
/// atomic cursor. The cursor hands out short runs of items, a few per
/// thread, so the balance stays dynamic; each run sits behind its own
/// (uncontended) lock, which is what gives a worker exclusive access to
/// the items it claimed.
///
/// # Panics
///
/// As [`par_map`].
pub fn par_for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let threads = resolve_threads(threads);
    if items.len() <= 1 || threads <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let run = items.len().div_ceil(threads * 8);
    let runs: Vec<Mutex<&mut [T]>> = items.chunks_mut(run).map(Mutex::new).collect();
    par_map(&runs, threads, |_, run| lock(run).iter_mut().for_each(&f));
}

/// An in-place map running in the background on leased workers while
/// the caller does other work. [`Job::join`] has the caller help finish
/// it and hands the items back in input order; dropping the job stops
/// handing out items and joins the workers.
///
/// Workers and the joining caller pull items from one atomic cursor,
/// each item behind its own (uncontended) lock, and update them where
/// they lie, so a job holds one buffer of items and no second buffer of
/// results. A job leases its workers from the same budget as
/// [`par_map`], so a map started while the job holds them runs inline
/// instead of starting more threads than the machine has cores. Each
/// worker returns its lease the moment the items run out, even before
/// the join.
pub struct Job<T> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<()>>,
}

/// What a job's workers and its joining caller share.
struct Shared<T> {
    items: Vec<Mutex<T>>,
    /// The next item to hand out; at or past the end once the items
    /// run out or the job is cancelled.
    cursor: AtomicUsize,
    f: fn(&mut T),
}

impl<T> Shared<T> {
    /// Updates items from the cursor until none is left.
    fn work(&self) {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = self.items.get(i) else { break };
            (self.f)(&mut lock(item));
        }
    }
}

impl<T: Send + 'static> Job<T> {
    /// Starts applying `f` to every item on up to `extra` workers leased
    /// from the process-wide budget. With none granted, nothing runs
    /// until [`Job::join`], which then updates every item on the caller.
    pub fn spawn(items: impl IntoIterator<Item = T>, extra: usize, f: fn(&mut T)) -> Self {
        Job::spawn_in(extra_budget(), items, extra, f)
    }

    fn spawn_in(
        budget: &'static AtomicUsize,
        items: impl IntoIterator<Item = T>,
        extra: usize,
        f: fn(&mut T),
    ) -> Self {
        let items: Vec<Mutex<T>> = items.into_iter().map(Mutex::new).collect();
        let granted = lease_extra(budget, extra.min(items.len()));
        let shared = Arc::new(Shared {
            items,
            cursor: AtomicUsize::new(0),
            f,
        });
        let workers = (0..granted)
            .filter_map(|_| {
                // The worker owns its share of the lease, so the budget
                // gets it back when the worker ends, by return or unwind
                // — or at once, if the thread cannot start.
                let lease = Lease { budget, workers: 1 };
                let shared = Arc::clone(&shared);
                let work = move || {
                    let _lease = lease;
                    shared.work();
                };
                std::thread::Builder::new().spawn(work).ok()
            })
            .collect();
        Job { shared, workers }
    }

    /// Helps the workers update the remaining items on the calling
    /// thread, joins them, and returns the items in input order.
    ///
    /// # Panics
    ///
    /// Re-raises the first worker panic once every worker has been
    /// joined; a panic of `f` on the caller propagates after the job is
    /// stopped.
    pub fn join(mut self) -> Vec<T> {
        self.shared.work();
        let mut panic = None;
        for worker in self.workers.drain(..) {
            if let Err(payload) = worker.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        let shared = Arc::get_mut(&mut self.shared).expect("every worker has been joined");
        let items = std::mem::take(&mut shared.items);
        // Unwrapping the locks reuses the buffer in place.
        items
            .into_iter()
            .map(|item| item.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }
}

/// Dropping a job cancels it: no further item is handed out, the
/// workers finish the item in hand and are joined, and the items are
/// dropped.
impl<T> Drop for Job<T> {
    fn drop(&mut self) {
        self.shared
            .cursor
            .store(self.shared.items.len(), Ordering::Relaxed);
        for worker in self.workers.drain(..) {
            // A cancelled job's panic has nobody to report to.
            let _ = worker.join();
        }
    }
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
    fn worker_panic_propagates_with_its_own_payload() {
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map(&items, 4, |_, &x| {
                if x == 33 {
                    panic!("boom");
                }
                x
            })
        });
        let payload = caught.expect_err("the panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn for_each_mut_updates_every_item_once() {
        for threads in [1, 2, 8] {
            let mut items: Vec<u64> = (0..1001).collect();
            par_for_each_mut(&mut items, threads, |x| *x = *x * 3 + 1);
            assert_eq!(items, (0..1001).map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    fn square(x: &mut u64) {
        *x *= *x;
    }

    #[test]
    fn job_returns_items_in_input_order() {
        static BUDGET: AtomicUsize = AtomicUsize::new(1);
        for extra in [0, 1, 3] {
            let job = Job::spawn_in(&BUDGET, 0..500, extra, square);
            assert_eq!(job.join(), (0..500).map(|x| x * x).collect::<Vec<u64>>());
            assert_eq!(BUDGET.load(Ordering::Acquire), 1);
        }
        assert!(Job::spawn_in(&BUDGET, 0..0, 1, square).join().is_empty());
    }

    /// Spins until `flag` is set: a barrier for a test's `fn` items.
    fn wait_for(flag: &std::sync::atomic::AtomicBool) {
        while !flag.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn job_holds_its_lease_until_its_items_run_out() {
        use std::sync::atomic::AtomicBool;
        static BUDGET: AtomicUsize = AtomicUsize::new(1);
        static GO: AtomicBool = AtomicBool::new(false);
        let job = Job::spawn_in(&BUDGET, vec![3u64], 1, |x| {
            wait_for(&GO);
            *x += 1;
        });
        assert_eq!(BUDGET.load(Ordering::Acquire), 0);
        assert_eq!(
            lease_extra(&BUDGET, 1),
            0,
            "a held worker is not leased twice"
        );
        GO.store(true, Ordering::Release);
        assert_eq!(job.join(), vec![4]);
        assert_eq!(BUDGET.load(Ordering::Acquire), 1);
    }

    #[test]
    fn job_worker_panic_is_raised_after_the_join() {
        static BUDGET: AtomicUsize = AtomicUsize::new(1);
        fn fail_on_seven(x: &mut u64) {
            assert_ne!(*x, 7, "boom");
        }
        // The worker or the helping caller hits item 7; either way the
        // join re-raises, and the lease is back afterwards.
        let job = Job::spawn_in(&BUDGET, 0..64, 1, fail_on_seven);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.join()));
        assert!(caught.is_err());
        assert_eq!(BUDGET.load(Ordering::Acquire), 1);
    }

    #[test]
    fn job_lease_is_restored_when_the_caller_unwinds() {
        static BUDGET: AtomicUsize = AtomicUsize::new(1);
        let caught = std::panic::catch_unwind(|| {
            let _job = Job::spawn_in(&BUDGET, 0..64, 1, square);
            panic!("the caller failed while the job ran");
        });
        assert!(caught.is_err());
        assert_eq!(BUDGET.load(Ordering::Acquire), 1);
    }

    #[test]
    fn cancelled_job_hands_out_no_further_item_and_returns_its_lease() {
        use std::sync::atomic::AtomicBool;
        static BUDGET: AtomicUsize = AtomicUsize::new(1);
        static RAN: AtomicUsize = AtomicUsize::new(0);
        static GO: AtomicBool = AtomicBool::new(false);
        fn blocking(_: &mut u64) {
            RAN.fetch_add(1, Ordering::AcqRel);
            wait_for(&GO);
        }
        let job = Job::spawn_in(&BUDGET, 0..2000, 1, blocking);
        // The worker holds item 0 until the cancel has stopped the
        // cursor; only then may it finish that item.
        while RAN.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        let shared = Arc::clone(&job.shared);
        std::thread::scope(|scope| {
            scope.spawn(|| drop(job));
            while shared.cursor.load(Ordering::Relaxed) < 2000 {
                std::thread::yield_now();
            }
            GO.store(true, Ordering::Release);
        });
        assert_eq!(RAN.load(Ordering::Acquire), 1, "only the item in hand ran");
        assert_eq!(BUDGET.load(Ordering::Acquire), 1);
    }

    #[test]
    fn resolve_clamps_requests_to_detected_parallelism() {
        let detected = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_threads(0), detected);
        assert_eq!(resolve_threads(usize::MAX), detected);
        assert_eq!(resolve_threads(1), 1);
    }
}
