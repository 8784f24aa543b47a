//! Contracts of the shared helper pool behind `parallel_map` and `join`:
//! nesting, concurrent callers and panic propagation. Every test runs under
//! a 30 s watchdog so a deadlock fails instead of hanging the suite.
//!
//! No test here asks for more than 8 threads, so the pool never holds more
//! than 7 helpers; `with_every_helper_parked` relies on that to occupy
//! every helper at once.

mod common;

use common::watchdog;
use parallel::{join, parallel_map};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

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

/// The most threads any test in this file requests.
const MAX_THREADS: usize = 8;

/// Parks every pool participant it can inside one gated batch, runs `body`,
/// then opens the gate. Returns `body`'s result if all the parked
/// participants besides the batch's own caller were pool helpers, `None`
/// if a `join` caller from another test served one of the tickets, leaving
/// a helper free.
fn with_every_helper_parked<R>(body: impl FnOnce() -> R) -> Option<R> {
    let entered = Arc::new(AtomicUsize::new(0));
    let helpers_in = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let occupier = {
        let (entered, helpers_in, release) = (
            Arc::clone(&entered),
            Arc::clone(&helpers_in),
            Arc::clone(&release),
        );
        std::thread::spawn(move || {
            let items: Vec<usize> = (0..MAX_THREADS).collect();
            parallel_map(MAX_THREADS, &items, |_, _| {
                if std::thread::current().name() == Some("parallel-pool") {
                    helpers_in.fetch_add(1, Ordering::SeqCst);
                }
                entered.fetch_add(1, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        })
    };
    // The caller plus one participant per ticket; every ticket is taken
    // eventually, since helpers are never blocked on this test.
    while entered.load(Ordering::SeqCst) < MAX_THREADS {
        std::thread::sleep(Duration::from_millis(1));
    }
    let out = (helpers_in.load(Ordering::SeqCst) == MAX_THREADS - 1).then(body);
    release.store(true, Ordering::SeqCst);
    occupier.join().expect("occupying batch panicked");
    out
}

#[test]
fn join_runs_b_on_the_caller_when_no_helper_is_free() {
    watchdog(|| {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let run = || {
            join(
                2,
                || order.lock().unwrap().push('a'),
                || {
                    order.lock().unwrap().push('b');
                    std::thread::current().id()
                },
            )
        };
        let ((), b_thread) = (0..50)
            .find_map(|_| with_every_helper_parked(run))
            .expect("every helper parked in one of 50 rounds");
        assert_eq!(b_thread, caller, "b must run on the caller");
        assert_eq!(*order.lock().unwrap(), ['a', 'b'], "a, then b");
    });
}

#[test]
fn join_panic_in_b_reaches_the_caller_and_the_pool_survives() {
    watchdog(|| {
        for threads in [2, 4] {
            let b_started = AtomicBool::new(false);
            let caught = std::panic::catch_unwind(|| {
                join(
                    threads,
                    || {
                        // Give a helper the chance to run `b` concurrently;
                        // if none is free, `b` runs here after `a`.
                        let deadline = Instant::now() + Duration::from_millis(500);
                        while !b_started.load(Ordering::SeqCst) && Instant::now() < deadline {
                            std::thread::yield_now();
                        }
                        7
                    },
                    || -> usize {
                        b_started.store(true, Ordering::SeqCst);
                        panic!("b exploded @ {threads}")
                    },
                )
            })
            .expect_err("the panic in b must propagate");
            assert_eq!(
                caught.downcast_ref::<String>().map(String::as_str),
                Some(format!("b exploded @ {threads}").as_str()),
                "original payload @ {threads} threads"
            );

            assert_eq!(join(threads, || 1, || 2), (1, 2), "next join @ {threads}");
            let items: Vec<usize> = (0..32).collect();
            let after = parallel_map(threads, &items, |_, &x| x + 1);
            assert_eq!(
                after,
                (1..=32).collect::<Vec<_>>(),
                "next batch @ {threads}"
            );
        }
    });
}

#[test]
fn join_nested_inside_parallel_map_completes_in_order() {
    watchdog(|| {
        let outer: Vec<usize> = (0..9).collect();
        let inner: Vec<usize> = (0..6).collect();
        let expected: Vec<(usize, usize)> = outer
            .iter()
            .map(|&a| (inner.iter().map(|&c| a * 10 + c).sum(), a * 2 + a * 3))
            .collect();
        for threads in [1, 2, 4, MAX_THREADS] {
            let got = parallel_map(threads, &outer, |_, &a| {
                join(
                    threads,
                    || {
                        parallel_map(threads, &inner, |_, &c| a * 10 + c)
                            .into_iter()
                            .sum::<usize>()
                    },
                    || {
                        let (x, y) = join(threads, || a * 2, || a * 3);
                        x + y
                    },
                )
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    });
}

#[test]
fn join_at_one_thread_runs_a_then_b_inline() {
    watchdog(|| {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let here = |tag: char| -> ThreadId {
            order.lock().unwrap().push(tag);
            std::thread::current().id()
        };
        let (ta, tb) = join(1, || here('a'), || here('b'));
        assert_eq!((ta, tb), (caller, caller), "both on the caller");
        assert_eq!(*order.lock().unwrap(), ['a', 'b'], "a, then b");
    });
}
