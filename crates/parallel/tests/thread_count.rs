//! The pool spawns no thread per batch or per `join`: after warm-up the
//! process thread count stays constant across many calls. Kept in its own
//! test binary so no other test's threads come and go while it counts.

mod common;

use common::watchdog;
use parallel::{join, parallel_map};

#[cfg(target_os = "linux")]
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("readable /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

#[cfg(target_os = "linux")]
#[test]
fn thread_count_is_constant_after_warm_up() {
    watchdog(|| {
        // `join` never starts a helper: before any batch ran, the pool is
        // empty and stays empty.
        let fresh = os_threads();
        assert_eq!(join(4, || 1, || 2), (1, 2));
        assert_eq!(os_threads(), fresh, "a join on an empty pool spawned");

        let items: Vec<u32> = (0..6).collect();
        let batch = |threads: usize| parallel_map(threads, &items, |_, &x| x * x).len();
        for threads in [2, 4] {
            batch(threads);
        }
        let before = os_threads();
        for round in 0..10_000 {
            assert_eq!(batch(2 + 2 * (round % 2)), items.len());
        }
        assert_eq!(
            os_threads(),
            before,
            "threads before vs after 10 000 batches"
        );
        for round in 0..10_000u32 {
            let (a, b) = join(2 + 2 * (round as usize % 2), || round, || round + 1);
            assert_eq!((a, b), (round, round + 1));
        }
        assert_eq!(os_threads(), before, "threads before vs after 10 000 joins");
    });
}
