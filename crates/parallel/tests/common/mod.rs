use std::sync::mpsc;
use std::time::Duration;

/// How long a pool test may run before it counts as deadlocked.
const DEADLINE: Duration = Duration::from_secs(30);

/// Runs `body` on its own thread while the test thread watches the clock:
/// a body that has not finished within 30 s fails the test instead of
/// hanging it. A panic in `body` is re-raised with its original payload.
pub fn watchdog<R: Send + 'static>(body: impl FnOnce() -> R + Send + 'static) -> R {
    let (done, finished) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let out = body();
        let _ = done.send(());
        out
    });
    match finished.recv_timeout(DEADLINE) {
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("deadlock: no result within {DEADLINE:?}"),
        // Finished, or the body panicked and dropped the sender.
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
    }
}
