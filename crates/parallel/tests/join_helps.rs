//! A `join` caller whose `b` went to a helper does not idle while it waits:
//! it serves the batch `b` posted. Kept in its own test binary so the pool
//! holds exactly one helper and no other test can take that batch's ticket.

mod common;

use common::watchdog;
use parallel::{join, parallel_map};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Spins until `flag` is set or `limit` passes; returns whether it was set.
fn wait_for(flag: &AtomicBool, limit: Duration) -> bool {
    let deadline = Instant::now() + limit;
    while !flag.load(Ordering::SeqCst) {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

#[test]
fn join_caller_serves_the_batch_b_started() {
    watchdog(|| {
        // Start the pool's one helper.
        assert_eq!(parallel_map(2, &[1, 2], |_, &x| x), [1, 2]);

        let caller = std::thread::current().id();
        // Set by the helper from inside b's batch, so the batch's ticket is
        // already queued when `a` returns.
        let batch_posted = AtomicBool::new(false);
        let caller_served = AtomicBool::new(false);
        let ((), served) = join(
            2,
            || {
                let posted = wait_for(&batch_posted, Duration::from_secs(10));
                assert!(posted, "no helper took b");
            },
            || {
                // The helper runs one item and waits for the caller to run
                // the other; only a caller serving this batch can.
                parallel_map(2, &[0, 1], |_, _| {
                    if std::thread::current().id() == caller {
                        caller_served.store(true, Ordering::SeqCst);
                        true
                    } else {
                        batch_posted.store(true, Ordering::SeqCst);
                        wait_for(&caller_served, Duration::from_secs(10))
                    }
                })
            },
        );
        assert_eq!(served, [true, true], "the caller must serve b's batch");
    });
}
