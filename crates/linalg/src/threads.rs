//! Effective worker-pool sizing shared by every fan-out in the workspace,
//! and the order-preserving pool map most of them use.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Effective thread-pool width used by the parallel kernels (Gram bands,
/// kernel-model predict batches, per-run aggregation, the
/// model-generation grid, columnar chunk scans) and by the simulated
/// campaign's runs-to-failure (`f2pm_sim::Campaign::run_all`, which reads
/// `F2PM_THREADS` the same way without depending on this crate).
///
/// Defaults to the machine's available parallelism. The `F2PM_THREADS`
/// environment variable overrides it — useful for pinning bench runs to
/// a fixed width so BENCH JSONs stay comparable across machines, and for
/// forcing serial execution when debugging. The value is resolved once
/// and cached for the life of the process.
pub fn pool_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Ok(v) = std::env::var("F2PM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// `items.iter().map(f).collect()`, with the items fanned out over
/// `min(pool_threads(), items.len())` workers.
///
/// Workers pull item indices from one atomic counter, so heavyweight
/// items of uneven cost balance themselves, and every result is put back
/// at its item's index: the output order is the input order. The calling
/// thread is one of the workers (only `workers − 1` threads are spawned)
/// and no thread outlives the call. A panic in `f` propagates out of the
/// call with its original payload.
pub fn pool_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    pool_map_with(items, || (), |_, item| f(item))
}

/// [`pool_map`] with per-worker scratch: each worker builds its state
/// once with `init`, and `f` borrows it mutably for every item that
/// worker takes, so buffers are reused across items without a lock.
pub fn pool_map_with<T, S, U, I, F>(items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    pool_map_on(items, pool_threads(), init, f)
}

fn pool_map_on<T, S, U, I, F>(items: &[T], workers: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                return done;
            };
            done.push((i, f(&mut state, item)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for handle in spawned {
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_threads_is_positive_and_stable() {
        let a = pool_threads();
        assert!(a >= 1);
        assert_eq!(a, pool_threads(), "cached value must not change");
    }

    #[test]
    fn pool_map_keeps_input_order_at_every_width() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for workers in [0, 1, 2, 3, 8, items.len() + 1] {
            assert_eq!(
                pool_map_on(&items, workers, || (), |_, x| x * x + 1),
                expected,
                "{workers} workers"
            );
        }
        assert_eq!(pool_map(&items, |x| x * x + 1), expected);
        assert!(pool_map_on(&[] as &[u64], 4, || (), |_, x| *x).is_empty());
    }

    /// Each worker builds its scratch once and reuses it for every item
    /// it takes: at most `workers` inits, and one worker's scratch sees
    /// every item.
    #[test]
    fn pool_map_with_builds_one_scratch_per_worker() {
        let items: Vec<u64> = (0..40).collect();
        for workers in [1, 3] {
            let inits = AtomicUsize::new(0);
            let seen = pool_map_on(
                &items,
                workers,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    Vec::new()
                },
                |mine: &mut Vec<u64>, &x| {
                    mine.push(x);
                    (x * 2, mine.len())
                },
            );
            let doubled: Vec<u64> = seen.iter().map(|&(x, _)| x).collect();
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            let inits = inits.load(Ordering::SeqCst);
            assert!(
                (1..=workers).contains(&inits),
                "{inits} inits for {workers}"
            );
            // Each scratch counts 1, 2, 3, … over the items its worker took,
            // so the number of 1s is the number of scratches that took an
            // item (a worker may find the items gone).
            let used = seen.iter().filter(|&&(_, n)| n == 1).count();
            assert!(
                (1..=inits).contains(&used),
                "{used} of {inits} scratches used"
            );
            if workers == 1 {
                assert_eq!(seen.last().map(|&(_, n)| n), Some(items.len()));
            }
        }
        assert_eq!(
            pool_map_with(
                &items,
                || 0u64,
                |sum, &x| {
                    *sum += x;
                    x
                }
            ),
            items
        );
    }

    #[test]
    fn pool_map_runs_the_caller_as_a_worker() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..16).collect();
        let entered = AtomicUsize::new(0);
        let ids = pool_map_on(
            &items,
            2,
            || (),
            |_, _| {
                // The first item waits until a second worker has taken one,
                // so both workers must have run by the end.
                entered.fetch_add(1, Ordering::SeqCst);
                let start = std::time::Instant::now();
                while entered.load(Ordering::SeqCst) < 2 && start.elapsed().as_secs() < 10 {
                    std::thread::yield_now();
                }
                std::thread::current().id()
            },
        );
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(distinct.len(), 2, "two workers for a width of 2");
        assert!(ids.contains(&caller), "the caller drained no item");
    }

    #[test]
    fn pool_map_propagates_a_worker_panic() {
        let items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            pool_map_on(
                &items,
                3,
                || (),
                |_, &i| {
                    assert!(i != 11, "item eleven fails");
                    i
                },
            )
        });
        let payload = caught.expect_err("the panic must reach the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains("item eleven fails"), "{msg}");
    }
}
