//! A scan holds a batch, not the table. A counting global allocator
//! tracks live heap bytes; over a table of [`ROWS`] rows, a full-table
//! `COUNT`/`SUM` and a full scan that matches no row must each raise the
//! peak of live bytes above what the loaded world holds by less than
//! [`BOUND`] — at one worker and at two, where a plain scan of a table
//! this size is partitioned. The table's rows take far more than that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use wow_rel::db::Database;
use wow_rel::value::Value;

/// Rows in the scanned table.
const ROWS: i64 = 60_000;

/// Most a query may raise peak live bytes above the loaded world.
const BOUND: usize = 1 << 20;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System`, whose
// contract is `GlobalAlloc`'s, and returns what `System` returned; the
// counters are statistics that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// How far `f` raises the peak of live bytes above where it started.
fn peak_growth(f: impl FnOnce()) -> usize {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - start
}

#[test]
fn a_full_scan_holds_a_batch_not_the_table() {
    let mut db = Database::in_memory();
    let world = peak_growth(|| {
        db.run("CREATE TABLE s (sid INT KEY, year INT, gpa FLOAT, name TEXT) RANGE OF x IS s")
            .unwrap();
        for i in 0..ROWS {
            let row = vec![
                Value::Int(i),
                Value::Int(i % 4 + 1),
                Value::Float((i % 40) as f64 / 10.0),
                Value::text(format!("student-{i:06}")),
            ];
            db.insert("s", row).unwrap();
        }
    });
    assert!(world > 4 * BOUND, "the world holds {world} bytes");
    for workers in [1, 2] {
        db.set_workers(workers);
        let mut totals = None;
        let grown = peak_growth(|| {
            let rows = db
                .run("RETRIEVE (n = COUNT(x.sid), y = SUM(x.year), g = SUM(x.gpa))")
                .unwrap();
            totals = Some(rows.tuples[0].values[..2].to_vec());
        });
        let years = (0..ROWS).map(|i| i % 4 + 1).sum::<i64>();
        assert_eq!(totals.unwrap(), vec![Value::Int(ROWS), Value::Int(years)]);
        assert!(
            grown < BOUND,
            "aggregate at {workers} workers: {grown} bytes"
        );
        let mut found = None;
        let grown = peak_growth(|| {
            found = Some(
                db.run("RETRIEVE (x.sid) WHERE x.gpa > 100.0")
                    .unwrap()
                    .len(),
            );
        });
        assert_eq!(found, Some(0));
        assert!(
            grown < BOUND,
            "empty scan at {workers} workers: {grown} bytes"
        );
    }
}
