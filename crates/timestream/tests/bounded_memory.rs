//! A limited raw query allocates in proportion to the series it scans and
//! the rows it returns, not to the points it matches.
//!
//! This binary installs a std-only counting global allocator and holds a
//! single test, so nothing else allocates on the measured thread.

use spotlake_obs::QueryCtx;
use spotlake_timestream::{Database, Query, Record, TableOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the current thread allocates (growth included).
struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is a const-initialised thread-local that never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

const SERIES: usize = 2_000;
const POINTS: usize = 500;
const LIMIT: usize = 10;

#[test]
fn unfiltered_limited_query_allocates_per_series_and_row_not_per_point() {
    let mut db = Database::new();
    db.create_table("sps", TableOptions::default()).unwrap();
    for t in 0..POINTS as u64 {
        let round: Vec<Record> = (0..SERIES)
            .map(|s| {
                Record::new(t * 600, "sps", (s % 3) as f64).dimension("az", format!("z{s:04}"))
            })
            .collect();
        db.write("sps", &round).unwrap();
    }
    let q = Query::measure("sps").limit(LIMIT);
    // Warm-up: the first query registers the store's metric families.
    db.query_profiled("sps", &q, QueryCtx::default()).unwrap();

    let ((rows, profile), bytes) =
        allocated_by(|| db.query_profiled("sps", &q, QueryCtx::default()).unwrap());
    assert_eq!(rows.len(), LIMIT);
    assert_eq!(profile.rows_post_filter, (SERIES * POINTS) as u64);

    // A few machine words per candidate series (its reference, cursor
    // and heap entry) and one row with its dimensions per result.
    let bound = 160 * SERIES + 512 * LIMIT;
    // Materialising every match costs at least its `Row` structs.
    let materialised = SERIES * POINTS * std::mem::size_of::<spotlake_timestream::Row>();
    assert!(
        bytes < bound,
        "allocated {bytes} B, bound {bound} B (materialising would be >= {materialised} B)"
    );
    assert!(bound * 50 < materialised);
    assert!(profile.rows_decoded <= (SERIES + LIMIT) as u64);
}
