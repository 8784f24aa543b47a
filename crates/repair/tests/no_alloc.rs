//! Pins the allocation-freedom of the dependence checks on the repair
//! search's hot path. Before the typed [`repair::EditKind`] refactor,
//! `deps::satisfied` compared `&str` prerequisite names against a
//! `Vec<String>` of applied edits and allocated a fresh `String` per
//! check; over a full search that was millions of allocator round trips.
//! The typed graph is a handful of `Copy` comparisons, and this test
//! fails the build if anyone reintroduces allocation there.

use repair::{deps, EditKind, ScriptEdit};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A counting pass-through allocator: `System` plus a per-thread tally of
/// allocations, so the test harness's own threads (and any pool helpers)
/// cannot leak into a measurement.
struct Counting;

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` performed on the calling thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn dependence_checks_never_allocate() {
    // A representative applied prefix, built *outside* the measured
    // region: the search holds one and queries it per candidate.
    let applied: Vec<ScriptEdit> = [
        EditKind::Constructor,
        EditKind::TypeTrans,
        EditKind::TypeCasting,
        EditKind::InsertPragma,
    ]
    .iter()
    .map(|k| ScriptEdit::bare(*k))
    .collect();

    let kinds = [
        EditKind::Resize,
        EditKind::TypeCasting,
        EditKind::OpOverload,
        EditKind::StreamStatic,
        EditKind::InstUpdate,
        EditKind::StackTrans,
        EditKind::SetTop,
        EditKind::Explore,
    ];

    // Warm up any lazily initialized test-harness state first.
    let mut hits = 0usize;
    allocations_during(|| {
        hits += kinds
            .iter()
            .filter(|&&k| deps::satisfied(k, &applied))
            .count();
    });

    let n = allocations_during(|| {
        for _ in 0..10_000 {
            for &k in &kinds {
                if deps::satisfied(k, &applied) {
                    hits += 1;
                }
                hits += deps::prerequisites(k).len();
                hits += deps::dependence_rank(k) as usize;
            }
        }
    });
    assert!(hits > 0, "the checks must actually run");
    assert_eq!(
        n, 0,
        "deps::satisfied/prerequisites/dependence_rank allocated {n} times \
         over 80k hot-path checks; the typed EditKind graph must stay \
         allocation-free"
    );
}
