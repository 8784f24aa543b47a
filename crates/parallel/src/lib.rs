//! Order-preserving parallel evaluation over borrowed data.
//!
//! This is the workspace's threading layer: [`parallel_map`] and [`join`],
//! backed by one process-wide pool of persistent helper threads (std-only,
//! no external dependencies). Work items are claimed from a shared atomic
//! cursor, so imbalanced items (one slow candidate compile next to nine
//! fast ones) do not serialize a batch, and results always come back **in
//! input order** regardless of completion order. That ordering is what lets
//! the repair-search and fuzzing loops bill their simulated clocks and merge
//! results deterministically: the parallel run performs the same merges in
//! the same order as the sequential run, so `threads` only changes
//! wall-clock time, never output.
//!
//! # The pool
//!
//! A call with `threads = n` is carried out by **the caller plus up to
//! `n - 1` helpers**. The caller posts `n - 1` tickets for its batch, then
//! drains items itself; idle helpers pick tickets up and claim items from
//! the same cursor. Once the cursor runs out the caller withdraws the
//! tickets no helper took and waits only for helpers already inside the
//! batch — never for a helper to start. Helpers are spawned lazily, up to
//! the largest `n - 1` ever requested, park on a condition variable between
//! batches and never exit, so a batch costs a few lock operations instead
//! of `n` thread spawns and joins.
//!
//! **Nesting.** Because every caller drains its own batch, a `parallel_map`
//! inside a `parallel_map` item cannot deadlock, even when every helper is
//! busy: the inner caller simply runs its whole batch alone. The same holds
//! for concurrent callers on unrelated threads (the job server's workers
//! all share the one pool).
//!
//! **Panics.** A panic in an item is caught on whichever thread ran it,
//! stops the batch from handing out further items, and is re-raised on the
//! caller with its original payload once the batch has settled. Helpers
//! survive it.
//!
//! With `threads <= 1` (or a single item) the pool is not touched at all —
//! the closure runs inline on the caller's thread, byte-identical to a
//! hand-written sequential loop.
//!
//! # Two different tasks
//!
//! [`join`] overlaps two unlike closures: the caller runs the first while
//! one idle helper may take the second, and the caller runs the second
//! itself if no helper took it by the time the first returns. If a helper
//! did take it, the caller serves queued tickets (usually the batch the
//! second closure started) and then polls briefly until that helper is
//! done. `join` follows the same nesting and panic rules as
//! [`parallel_map`] and never grows the pool.

use std::any::Any;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Resolve a requested thread count: `0` means "use available parallelism".
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Map `f` over `items`, evaluating up to `threads` items concurrently
/// (the calling thread included), and return the results in input order.
///
/// `f` runs once per item. A panic in `f` stops the batch and is re-raised
/// here with its original payload. The closure receives `(index, &item)`
/// so callers can key side tables without re-finding the item.
pub fn parallel_map<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = effective_threads(threads).min(items.len());
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let mut slots: Vec<Option<U>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let slot_ptr = SlotBox(slots.as_mut_ptr());

    // The cursor only hands out indices; the slot writes reach the caller
    // through the pool lock each helper takes after draining and the
    // caller takes before returning (see `Settle`).
    let drain = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        match catch_unwind(AssertUnwindSafe(|| f(i, &items[i]))) {
            // SAFETY: each index is claimed by exactly one thread (the
            // atomic fetch_add hands out each value once), the slot array
            // outlives the batch, and distinct indices never alias.
            Ok(out) => unsafe { slot_ptr.put(i, out) },
            Err(payload) => {
                cursor.store(items.len(), Ordering::Relaxed);
                lock(&panicked).get_or_insert(payload);
                break;
            }
        }
    };
    POOL.run(threads - 1, Role::Map, &drain, drain);

    if let Some(payload) = panicked
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Runs `a` and `b`, possibly at the same time, and returns both results.
///
/// The caller runs `a` while `b` is offered to one idle pool helper. If no
/// helper has claimed `b` by the time `a` returns, the caller withdraws the
/// offer and runs `b` itself, so `join` never waits for a helper to start
/// and, like [`parallel_map`], cannot deadlock when nested inside a batch
/// item or another `join`. If a helper did claim `b`, the caller serves
/// other queued tickets (typically the batch `b` itself posted) while it
/// waits for that helper, and polls for up to a millisecond before it
/// parks, since `b` is meant to be short.
///
/// `join` spawns no thread: it only invites helpers that earlier
/// [`parallel_map`] calls started, so in a process that never ran a
/// parallel batch it runs `a` and then `b` on the caller. With
/// `threads <= 1` it does exactly that without touching the pool.
///
/// A panic in `b` is re-raised here with its original payload once `a` has
/// returned; a panic in `a` propagates once no helper is still running `b`.
pub fn join<A, B, RA, RB>(threads: usize, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    if effective_threads(threads) <= 1 {
        let ra = a();
        return (ra, b());
    }
    let task = Mutex::new(Some(b));
    let done: Mutex<Option<std::thread::Result<RB>>> = Mutex::new(None);
    // Whoever takes `b` out of `task` first runs it; a helper that arrives
    // after the caller (or another helper) took it finds `None` and leaves.
    let claim = || {
        let claimed = lock(&task).take();
        if let Some(b) = claimed {
            let out = catch_unwind(AssertUnwindSafe(b));
            *lock(&done) = Some(out);
        }
    };
    let ra = POOL.run(1, Role::Join, &claim, a);
    let rb = match done.into_inner().unwrap_or_else(PoisonError::into_inner) {
        Some(Ok(rb)) => rb,
        Some(Err(payload)) => resume_unwind(payload),
        None => {
            let b = task.into_inner().unwrap_or_else(PoisonError::into_inner);
            b.expect("an unfinished `b` is still in its slot")()
        }
    };
    (ra, rb)
}

/// Raw pointer wrapper so the slot array can be shared with the helpers.
struct SlotBox<U>(*mut Option<U>);

// SAFETY: the one field is a pointer into the caller's slot array; threads
// only move `U` values into disjoint slots through it (see `put`), which
// needs `U: Send`, and never read through it.
unsafe impl<U: Send> Sync for SlotBox<U> {}

impl<U> SlotBox<U> {
    /// # Safety
    /// `i` is in bounds and no other thread writes slot `i`.
    unsafe fn put(&self, i: usize, out: U) {
        self.0.add(i).write(Some(out));
    }
}

/// The process-wide helper pool every [`parallel_map`] call shares.
static POOL: Pool = Pool {
    state: Mutex::new(PoolState {
        tickets: VecDeque::new(),
        helpers: 0,
    }),
    posted: Condvar::new(),
    left: Condvar::new(),
};

struct Pool {
    state: Mutex<PoolState>,
    /// Wakes idle helpers when tickets are posted.
    posted: Condvar,
    /// Wakes callers when the last helper leaves their batch.
    left: Condvar,
}

struct PoolState {
    /// Open invitations to join a batch, one per wanted helper.
    tickets: VecDeque<Ticket>,
    /// Helper threads spawned so far; they never exit.
    helpers: usize,
}

/// One batch as seen from the pool: the caller's drain loop plus the count
/// of helpers inside it. Lives on the caller's stack.
struct Batch<'a> {
    drain: &'a (dyn Fn() + Sync),
    /// Helpers currently running `drain`. Only changed under the pool lock,
    /// which orders it (hence `Relaxed`), so the caller can wait for it to
    /// reach zero on `Pool::left`; a spinning [`join`] caller also polls it
    /// without the lock, but decides under it.
    active: AtomicUsize,
}

/// A lifetime-erased pointer to a caller's [`Batch`]. Sound because the
/// caller withdraws its unclaimed tickets and waits for `active == 0`
/// before the batch goes out of scope (see [`Settle`]).
#[derive(Clone, Copy, PartialEq)]
struct Ticket(*const Batch<'static>);

// SAFETY: the one field points at a `Batch`, whose fields are `Sync` (a
// `Sync` closure and an atomic); a helper only dereferences it while the
// batch's caller waits in `Settle`.
unsafe impl Send for Ticket {}

/// Locks ignoring poison: no code panics while holding the pool lock or the
/// first-panic slot, and each update leaves the data valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a caller takes part in the pool besides running its own work.
#[derive(Clone, Copy, PartialEq)]
enum Role {
    /// [`parallel_map`]: grows the pool to the wanted helpers, then waits
    /// idly for the helpers still inside its batch.
    Map,
    /// [`join`]: invites only helpers that exist, and while its helper
    /// finishes `b` serves other batches' tickets — typically the batch `b`
    /// itself started — and then polls briefly before it parks.
    Join,
}

impl Pool {
    /// Runs `own` on the calling thread while inviting up to `want` helpers
    /// to run `drain`; returns `own`'s result once no helper is still inside
    /// `drain`.
    fn run<R>(
        &'static self,
        want: usize,
        role: Role,
        drain: &(dyn Fn() + Sync),
        own: impl FnOnce() -> R,
    ) -> R {
        let batch = Batch {
            drain,
            active: AtomicUsize::new(0),
        };
        let ticket = Ticket((&batch as *const Batch<'_>).cast());
        let posted = {
            let mut st = lock(&self.state);
            while role == Role::Map && st.helpers < want && self.spawn_helper() {
                st.helpers += 1;
            }
            let n = want.min(st.helpers);
            st.tickets.extend(std::iter::repeat_n(ticket, n));
            n
        };
        for _ in 0..posted {
            self.posted.notify_one();
        }
        let _settle = Settle {
            pool: self,
            batch: &batch,
            ticket,
            role,
        };
        own()
    }

    /// Helpers are detached on purpose: they serve every later batch and
    /// cannot panic, since `drain` catches item panics.
    fn spawn_helper(&'static self) -> bool {
        std::thread::Builder::new()
            .name("parallel-pool".into())
            .spawn(move || self.help())
            .is_ok()
    }

    /// A helper's life: take a ticket, drain its batch, repeat.
    fn help(&self) {
        let mut st = lock(&self.state);
        loop {
            st = match st.tickets.pop_front() {
                Some(ticket) => self.serve(st, ticket),
                None => self.posted.wait(st).unwrap_or_else(PoisonError::into_inner),
            };
        }
    }

    /// Joins the batch of a ticket just taken from the queue under `st`,
    /// runs its drain with the lock released, and leaves it again; returns
    /// the re-acquired lock.
    fn serve<'p>(
        &'p self,
        st: MutexGuard<'p, PoolState>,
        ticket: Ticket,
    ) -> MutexGuard<'p, PoolState> {
        // SAFETY: the ticket was still queued, so its caller has not yet
        // settled; joining under the lock keeps it waiting for us.
        let batch = unsafe { &*ticket.0 };
        batch.active.fetch_add(1, Ordering::Relaxed);
        drop(st);
        (batch.drain)();
        let st = lock(&self.state);
        if batch.active.fetch_sub(1, Ordering::Relaxed) == 1 {
            self.left.notify_all();
        }
        st
    }
}

/// Settles a batch when the caller's own work returns (or unwinds):
/// withdraws the tickets no helper took, then waits for the helpers that
/// did — serving queued tickets meanwhile if the caller is a [`join`].
struct Settle<'a, 'b> {
    pool: &'a Pool,
    batch: &'a Batch<'b>,
    ticket: Ticket,
    role: Role,
}

/// How long a [`join`] caller keeps polling for its helper to finish `b`
/// before it parks. `b` usually takes well under this, and parking costs a
/// wake-up on both sides of every `join`.
const JOIN_SPIN: Duration = Duration::from_millis(1);

impl Drop for Settle<'_, '_> {
    fn drop(&mut self) {
        let mut st = lock(&self.pool.state);
        st.tickets.retain(|t| *t != self.ticket);
        let spin_until = (self.role == Role::Join).then(|| Instant::now() + JOIN_SPIN);
        while self.batch.active.load(Ordering::Relaxed) > 0 {
            if self.role == Role::Join {
                if let Some(ticket) = st.tickets.pop_front() {
                    st = self.pool.serve(st, ticket);
                    continue;
                }
                if spin_until.is_some_and(|t| Instant::now() < t) {
                    drop(st);
                    self.spin();
                    st = lock(&self.pool.state);
                    continue;
                }
            }
            st = self
                .pool
                .left
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Settle<'_, '_> {
    /// Polls, without the pool lock, for the batch's helpers to leave, for
    /// a few microseconds; then yields so a helper sharing this CPU can run.
    fn spin(&self) {
        for _ in 0..1024 {
            if self.batch.active.load(Ordering::Relaxed) == 0 {
                return;
            }
            std::hint::spin_loop();
        }
        std::thread::yield_now();
    }
}

/// Runs `f` behind a panic boundary and reports a panic as an `Err` with the
/// payload's message instead of unwinding into (and poisoning) the caller.
///
/// This is the isolation primitive the resilient evaluation path wraps
/// around each candidate: a poisoned (panicking) candidate becomes one
/// `Err(reason)` merge result rather than aborting the whole batch.
/// `AssertUnwindSafe` is sound here because callers discard the closure's
/// captured state on `Err` — a half-updated candidate never escapes the
/// boundary.
pub fn isolate<U>(f: impl FnOnce() -> U) -> Result<U, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "candidate evaluation panicked".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 4, 8] {
            let out = parallel_map(threads, &items, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..50).map(|i| i * 7 + 1).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x)).collect();
        for threads in [0, 1, 2, 3, 16] {
            let got = parallel_map(threads, &items, |_, &x| x.wrapping_mul(x));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn each_item_evaluated_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<u8> = vec![0; 64];
        parallel_map(4, &items, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(8, &[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn isolate_passes_values_and_catches_panics() {
        assert_eq!(isolate(|| 41 + 1), Ok(42));
        assert_eq!(
            isolate(|| -> u32 { panic!("injected poison fault at hls_check") }),
            Err("injected poison fault at hls_check".to_string())
        );
        let key = 0xabu64;
        assert_eq!(
            isolate(|| -> u32 { panic!("poisoned key {key:x}") }),
            Err("poisoned key ab".to_string())
        );
    }

    #[test]
    fn isolated_panic_does_not_abort_a_parallel_batch() {
        let items: Vec<u32> = (0..16).collect();
        let out = parallel_map(4, &items, |_, &x| {
            isolate(move || {
                if x % 5 == 3 {
                    panic!("boom {x}");
                }
                x * 2
            })
        });
        for (i, r) in out.iter().enumerate() {
            if i % 5 == 3 {
                assert_eq!(r.as_ref().unwrap_err(), &format!("boom {i}"));
            } else {
                assert_eq!(*r, Ok(i as u32 * 2));
            }
        }
    }
}
