//! Contracts of the shared helper pool behind `parallel_map`: nesting,
//! concurrent callers and panic propagation. Every test runs under a 30 s
//! watchdog so a deadlock fails instead of hanging the suite.

mod common;

use common::watchdog;
use parallel::parallel_map;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// The three-level nested computation below, done sequentially.
fn nested_expected(outer: usize) -> Vec<usize> {
    (0..outer)
        .map(|a| {
            (0..5)
                .map(|b| (0..4).map(|c| a * 100 + b * 10 + c).sum::<usize>())
                .sum()
        })
        .collect()
}

#[test]
fn nested_three_levels_deep_completes_in_order() {
    watchdog(|| {
        let outer: Vec<usize> = (0..7).collect();
        let mid: Vec<usize> = (0..5).collect();
        let inner: Vec<usize> = (0..4).collect();
        for threads in [1, 2, 4, 8] {
            let got = parallel_map(threads, &outer, |_, &a| {
                parallel_map(threads, &mid, |_, &b| {
                    parallel_map(threads, &inner, |_, &c| a * 100 + b * 10 + c)
                        .into_iter()
                        .sum::<usize>()
                })
                .into_iter()
                .sum::<usize>()
            });
            assert_eq!(got, nested_expected(outer.len()), "threads={threads}");
        }
    });
}

#[test]
fn concurrent_callers_get_their_own_ordered_results() {
    watchdog(|| {
        const CALLERS: usize = 8;
        const ITEMS: usize = 200;
        let hits: Arc<Vec<AtomicUsize>> =
            Arc::new((0..CALLERS * ITEMS).map(|_| AtomicUsize::new(0)).collect());
        let start = Arc::new(Barrier::new(CALLERS));
        let callers: Vec<_> = (0..CALLERS)
            .map(|c| {
                let hits = Arc::clone(&hits);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    let items: Vec<usize> = (0..ITEMS).map(|i| c * ITEMS + i).collect();
                    start.wait();
                    let threads = 1 + c % 4;
                    let got = parallel_map(threads, &items, |i, &x| {
                        hits[x].fetch_add(1, Ordering::Relaxed);
                        (i, x * 2)
                    });
                    let want: Vec<(usize, usize)> =
                        items.iter().enumerate().map(|(i, &x)| (i, x * 2)).collect();
                    assert_eq!(got, want, "caller {c} @ {threads} threads");
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller thread panicked");
        }
        for (x, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "item {x} run count");
        }
    });
}

#[test]
fn item_panic_reaches_the_caller_and_the_pool_survives() {
    watchdog(|| {
        let items: Vec<usize> = (0..64).collect();
        for threads in [2, 4] {
            let caught = std::panic::catch_unwind(|| {
                parallel_map(threads, &items, |_, &x| {
                    if x == 37 {
                        panic!("item {x} exploded");
                    }
                    x
                })
            })
            .expect_err("the item panic must propagate");
            assert_eq!(
                caught.downcast_ref::<String>().map(String::as_str),
                Some("item 37 exploded"),
                "original payload @ {threads} threads"
            );

            let after = parallel_map(threads, &items, |_, &x| x + 1);
            assert_eq!(
                after,
                (1..=64).collect::<Vec<_>>(),
                "next batch @ {threads}"
            );
        }
    });
}
