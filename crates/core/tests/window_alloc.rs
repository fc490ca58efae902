//! Steady-state allocations of the online window path. Once the open
//! window's buffer and the caller's row buffer have grown to size,
//! closing a window and scoring it allocate nothing.
//!
//! This binary installs a counting global allocator, so it holds only
//! this test; the count is per thread, so the harness's own threads never
//! show up in it.

use f2pm::OnlinePredictor;
use f2pm_features::aggregate::aggregated_column_names_with;
use f2pm_features::AggregationConfig;
use f2pm_ml::linreg::LinearModel;
use f2pm_monitor::Datapoint;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Sampling every 1.5 s ± 0.3 s (a fixed pseudo-random jitter sequence).
fn stream(n: usize) -> Vec<Datapoint> {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let jitter = (state >> 11) as f64 / (1u64 << 53) as f64;
            t += 1.5 + 0.6 * (jitter - 0.5);
            Datapoint {
                t_gen: t,
                values: [(i % 97) as f64; 14],
            }
        })
        .collect()
}

#[test]
fn closing_a_window_allocates_nothing_in_steady_state() {
    let feed = stream(20_000);
    let (warm, steady) = feed.split_at(2_000);
    for include_stddev in [false, true] {
        let agg = AggregationConfig {
            include_stddev,
            ..AggregationConfig::default()
        };
        let names = aggregated_column_names_with(&agg);
        let model = LinearModel::constant(100.0, names.len());
        let mut deferred = OnlinePredictor::new(Box::new(model.clone()), &names, agg);
        let mut immediate = OnlinePredictor::new(Box::new(model), &names, agg);
        let mut rows = Vec::new();
        for &d in warm {
            deferred.push_deferred(d, &mut rows);
            rows.clear();
            immediate.push(d);
        }

        let before = allocs();
        let mut closed = 0u64;
        for &d in steady {
            if deferred.push_deferred(d, &mut rows) {
                closed += 1;
                rows.clear();
            }
            immediate.push(d);
        }
        let spent = allocs() - before;

        assert!(closed > 2_000, "only {closed} windows closed");
        assert_eq!(
            spent,
            0,
            "{spent} allocations over {closed} closed windows ({:.2} per window, 44 columns: {include_stddev})",
            spent as f64 / closed as f64
        );
    }
}
