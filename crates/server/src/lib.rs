//! HeteroGen-as-a-service: an in-process job server over the pipeline
//! library.
//!
//! A [`Server`] owns a bounded fair-share job queue and a pool of worker
//! threads. Clients [`Server::submit`] typed
//! [`JobSpec`]s and get back a [`JobHandle`];
//! admission is FIFO within a client and round-robin across clients, so a
//! heavy client cannot starve a light one. Over-capacity submissions fail
//! fast with a typed [`Rejected`] response instead of queueing unboundedly.
//!
//! # Execution model
//!
//! Each accepted job runs a full pipeline [`Session`](heterogen_core::Session)
//! on one worker thread, wrapped in [`parallel::isolate`] (a panicking job
//! fails that job, never the server). The worker resolves the spec's backend
//! name through [`heterogen_core::resolve_backend`] — the same resolver the
//! library path uses — and wraps it in a [`DrainGate`], so a job executed by
//! the server is *byte-identical* (report JSON and captured trace stream) to
//! the same spec run through a `Session` directly, at any worker count.
//!
//! # Graceful shutdown
//!
//! [`Server::shutdown`] flips the shared [`DrainSignal`] and lets the pool
//! drain. In-flight repair searches lose their toolchain mid-search and
//! degrade through the permanent-fault path; still-queued jobs run under
//! [`ServerConfig::drain_budgets`] with the gate already closed. Every
//! accepted job therefore still yields an `Ok(PipelineReport)` — with a
//! `Degradation` record — rather than being dropped.
//!
//! # Examples
//!
//! ```
//! use heterogen_core::{JobSpec, PipelineConfig};
//! use heterogen_server::{Server, ServerConfig};
//!
//! let mut pipeline = PipelineConfig::quick();
//! pipeline.fuzz.idle_stop_min = 0.2;
//! pipeline.fuzz.max_execs = 60;
//! let server = Server::start(ServerConfig::builder().with_pipeline(pipeline).build());
//! let program = minic::parse("int kernel(int x) { return x + 1; }").unwrap();
//! let handle = server
//!     .submit(JobSpec::builder(program, "kernel").client("docs").build())
//!     .unwrap();
//! let output = handle.wait();
//! assert!(output.report.unwrap().success());
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

use heterogen_core::{HeteroGen, JobSpec, PhaseBudgets, PipelineConfig, PipelineError};
use heterogen_store::Store;
use heterogen_toolchain::{DrainGate, DrainSignal, SimBackend, Toolchain};
use heterogen_trace::JsonlSink;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

pub use heterogen_core::PipelineReport;

/// Server configuration.
///
/// `#[non_exhaustive]`: construct with [`ServerConfig::builder`] so future
/// knobs are not semver breaks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Worker threads; `0` means "use available parallelism".
    pub workers: usize,
    /// Total queued-job cap across all clients; submissions beyond it are
    /// rejected with [`RejectReason::QueueFull`].
    pub queue_capacity: usize,
    /// Per-client queued-job cap; a client at its cap is rejected with
    /// [`RejectReason::ClientSaturated`] while others keep submitting.
    pub per_client_queue: usize,
    /// The pipeline configuration every job runs under (specs may override
    /// seed/budgets/backend per job).
    pub pipeline: PipelineConfig,
    /// Capture a per-job JSONL trace stream into [`JobOutput::trace`].
    pub capture_traces: bool,
    /// Budgets forced onto jobs dequeued *after* shutdown begins, so the
    /// drain finishes promptly.
    pub drain_budgets: PhaseBudgets,
    /// Start with the queue paused: jobs are admitted but no worker picks
    /// them up until [`Server::resume`] (deterministic scheduling tests).
    pub paused: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            per_client_queue: 16,
            pipeline: PipelineConfig::default(),
            capture_traces: false,
            drain_budgets: PhaseBudgets::builder()
                .with_fuzz_execs(32)
                .with_repair_evals(1)
                .build(),
            paused: false,
        }
    }
}

impl ServerConfig {
    /// Starts a builder from the default configuration.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: ServerConfig::default(),
        }
    }
}

/// Builder for [`ServerConfig`].
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn with_workers(mut self, v: usize) -> Self {
        self.cfg.workers = v;
        self
    }

    /// Sets the total queue capacity.
    pub fn with_queue_capacity(mut self, v: usize) -> Self {
        self.cfg.queue_capacity = v;
        self
    }

    /// Sets the per-client queue cap.
    pub fn with_per_client_queue(mut self, v: usize) -> Self {
        self.cfg.per_client_queue = v;
        self
    }

    /// Sets the pipeline configuration jobs run under.
    pub fn with_pipeline(mut self, v: PipelineConfig) -> Self {
        self.cfg.pipeline = v;
        self
    }

    /// Enables per-job trace capture.
    pub fn with_capture_traces(mut self, v: bool) -> Self {
        self.cfg.capture_traces = v;
        self
    }

    /// Sets the budgets forced onto jobs dequeued during shutdown.
    pub fn with_drain_budgets(mut self, v: PhaseBudgets) -> Self {
        self.cfg.drain_budgets = v;
        self
    }

    /// Starts the server paused (see [`ServerConfig::paused`]).
    pub fn with_paused(mut self, v: bool) -> Self {
        self.cfg.paused = v;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> ServerConfig {
        self.cfg
    }
}

/// Why a submission was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The server-wide queue is at [`ServerConfig::queue_capacity`].
    QueueFull,
    /// This client is at its [`ServerConfig::per_client_queue`] cap.
    ClientSaturated,
    /// [`Server::shutdown`] has begun; no new work is admitted.
    ShuttingDown,
}

impl RejectReason {
    /// Stable snake_case name for logs and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::ClientSaturated => "client_saturated",
            RejectReason::ShuttingDown => "shutting_down",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed admission refusal. The spec was not queued and will not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejected {
    /// Why admission was refused.
    pub reason: RejectReason,
    /// The client whose submission was refused.
    pub client: String,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job from `{}` rejected: {}", self.client, self.reason)
    }
}

impl std::error::Error for Rejected {}

/// The result of one server-executed job.
#[derive(Debug)]
pub struct JobOutput {
    /// Server-assigned job id (admission order, starting at 1).
    pub id: u64,
    /// The submitting client.
    pub client: String,
    /// Completion order across the whole server (starting at 1).
    pub seq: u64,
    /// The pipeline report, exactly as a direct
    /// [`Session::run`](heterogen_core::Session::run) would return it.
    pub report: Result<PipelineReport, PipelineError>,
    /// The job's JSONL trace stream when
    /// [`ServerConfig::capture_traces`] is on.
    pub trace: Option<String>,
    /// Wall-clock execution time (excluding queueing), in milliseconds.
    pub wall_ms: f64,
    /// Wall-clock time spent queued before a worker picked the job up.
    pub queue_ms: f64,
}

/// A claim on one accepted job's eventual [`JobOutput`].
#[derive(Debug)]
pub struct JobHandle {
    /// Server-assigned job id.
    pub id: u64,
    /// The submitting client.
    pub client: String,
    rx: mpsc::Receiver<JobOutput>,
}

impl JobHandle {
    /// Blocks until the job completes. Every accepted job completes — even
    /// through a shutdown, where it degrades rather than disappears.
    pub fn wait(self) -> JobOutput {
        self.rx
            .recv()
            .expect("every accepted job reports an output")
    }
}

/// Latency distribution summary (milliseconds), nearest-rank percentiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct LatencyStats {
    /// Samples aggregated.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl LatencyStats {
    /// Summarizes a sample set (nearest-rank percentiles).
    pub fn from_samples(samples: &[f64]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let rank = |q: f64| {
            let idx = (q * sorted.len() as f64).ceil() as usize;
            sorted[idx.clamp(1, sorted.len()) - 1]
        };
        LatencyStats {
            count: sorted.len() as u64,
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: rank(0.50),
            p90: rank(0.90),
            p99: rank(0.99),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// A server-wide metrics snapshot, aggregated across every completed job.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ServerStats {
    /// Submissions admitted to the queue.
    pub accepted: u64,
    /// Submissions refused with [`RejectReason::QueueFull`].
    pub rejected_queue_full: u64,
    /// Submissions refused with [`RejectReason::ClientSaturated`].
    pub rejected_client_saturated: u64,
    /// Submissions refused with [`RejectReason::ShuttingDown`].
    pub rejected_shutting_down: u64,
    /// Jobs a worker has started executing.
    pub started: u64,
    /// Jobs that produced an output.
    pub completed: u64,
    /// Completed jobs whose report was `Ok` with a full repair.
    pub succeeded: u64,
    /// Completed jobs whose report was `Ok` but degraded.
    pub degraded: u64,
    /// Completed jobs whose report was an `Err` (spec/pipeline failures and
    /// isolated panics).
    pub failed: u64,
    /// Repair-search edit attempts summed across jobs.
    pub attempts: u64,
    /// Full HLS compiles summed across jobs.
    pub full_compiles: u64,
    /// Retries absorbed while degrading, summed across jobs' degradations.
    pub retries: u64,
    /// Faults absorbed while degrading, summed across jobs' degradations.
    pub faults: u64,
    /// Distribution of per-job queue wait.
    pub queue_ms: LatencyStats,
    /// Distribution of per-job execution wall time.
    pub wall_ms: LatencyStats,
}

impl ServerStats {
    /// Total refusals across every [`RejectReason`].
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_client_saturated + self.rejected_shutting_down
    }
}

/// One admitted job waiting for a worker.
struct QueuedJob {
    id: u64,
    client: String,
    spec: JobSpec,
    tx: mpsc::Sender<JobOutput>,
    enqueued: Instant,
}

/// The fair-share queue: FIFO within a client, round-robin across clients.
///
/// Invariant: `rr` holds exactly the clients whose queue is non-empty, each
/// once, in service order.
#[derive(Default)]
struct QueueState {
    queues: BTreeMap<String, VecDeque<QueuedJob>>,
    rr: VecDeque<String>,
    queued: usize,
    draining: bool,
    paused: bool,
}

impl QueueState {
    fn pop(&mut self) -> Option<QueuedJob> {
        let client = self.rr.pop_front()?;
        let queue = self
            .queues
            .get_mut(&client)
            .expect("rr tracks non-empty queues");
        let job = queue.pop_front().expect("rr tracks non-empty queues");
        if queue.is_empty() {
            self.queues.remove(&client);
        } else {
            self.rr.push_back(client);
        }
        self.queued -= 1;
        Some(job)
    }
}

/// Mutable half of the stats: counters plus raw latency samples.
#[derive(Default)]
struct StatsInner {
    stats: ServerStats,
    queue_samples: Vec<f64>,
    wall_samples: Vec<f64>,
}

impl StatsInner {
    fn snapshot(&self, started: u64) -> ServerStats {
        let mut out = self.stats.clone();
        out.started = started;
        out.queue_ms = LatencyStats::from_samples(&self.queue_samples);
        out.wall_ms = LatencyStats::from_samples(&self.wall_samples);
        out
    }
}

struct Inner {
    cfg: ServerConfig,
    queue: Mutex<QueueState>,
    available: Condvar,
    drain: DrainSignal,
    stats: Mutex<StatsInner>,
    next_id: AtomicU64,
    completion_seq: AtomicU64,
    started: AtomicU64,
    default_backend: Arc<dyn Toolchain>,
    store: Option<Arc<Store>>,
}

impl Inner {
    fn run_job(&self, job: QueuedJob) {
        self.started.fetch_add(1, Ordering::SeqCst);
        let queue_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
        let begun = Instant::now();
        let mut spec = job.spec;
        if self.drain.is_draining() {
            // Dequeued after shutdown began: finish, but promptly.
            spec.budgets = Some(self.cfg.drain_budgets);
        }
        let resolved = match spec.backend.take() {
            None => Ok(self.default_backend.clone()),
            Some(name) => heterogen_core::resolve_backend(&name),
        };
        let (report, trace) = match resolved {
            Err(e) => (Err(e), None),
            Ok(backend) => {
                let sink = self.cfg.capture_traces.then(|| Arc::new(JsonlSink::new()));
                let mut builder = HeteroGen::builder()
                    .config(self.cfg.pipeline.clone())
                    .backend(DrainGate::new(backend, self.drain.clone()));
                if let Some(s) = &sink {
                    builder = builder.sink(s.clone());
                }
                if let Some(store) = &self.store {
                    builder = builder.store(store.clone());
                }
                let session = builder.build();
                let report = parallel::isolate(move || session.run(spec)).unwrap_or_else(|panic| {
                    Err(PipelineError::Repair(format!("job panicked: {panic}")))
                });
                (report, sink.map(|s| s.contents()))
            }
        };
        let wall_ms = begun.elapsed().as_secs_f64() * 1e3;
        {
            let mut s = self.stats.lock().unwrap();
            s.stats.completed += 1;
            match &report {
                Ok(r) => {
                    if r.success() {
                        s.stats.succeeded += 1;
                    }
                    if r.degraded() {
                        s.stats.degraded += 1;
                    }
                    s.stats.attempts += r.repair.attempts;
                    s.stats.full_compiles += r.repair.full_compiles;
                    for d in &r.degradations {
                        s.stats.retries += d.retries;
                        s.stats.faults += d.faults;
                    }
                }
                Err(_) => s.stats.failed += 1,
            }
            s.queue_samples.push(queue_ms);
            s.wall_samples.push(wall_ms);
        }
        let seq = self.completion_seq.fetch_add(1, Ordering::SeqCst) + 1;
        // A dropped handle just means nobody is listening; the job still
        // counted toward the server stats.
        let _ = job.tx.send(JobOutput {
            id: job.id,
            client: job.client,
            seq,
            report,
            trace,
            wall_ms,
            queue_ms,
        });
    }

    fn worker_loop(self: &Arc<Inner>) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if !q.paused {
                        if let Some(job) = q.pop() {
                            break Some(job);
                        }
                        if q.draining {
                            break None;
                        }
                    }
                    q = self.available.wait(q).unwrap();
                }
            };
            match job {
                Some(job) => self.run_job(job),
                None => return,
            }
        }
    }
}

/// The in-process HeteroGen job server. See the crate docs for the model.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool and returns the running server.
    pub fn start(cfg: ServerConfig) -> Server {
        Server::start_with_store(cfg, None)
    }

    /// Starts the worker pool with a shared persistent evaluation store.
    ///
    /// Every job session the workers build attaches the store, so verdict
    /// memos and fuzz corpora survive across jobs (and across server
    /// restarts, since the store is crash-safe).
    pub fn start_with_store(cfg: ServerConfig, store: Option<Arc<Store>>) -> Server {
        let worker_count = parallel::effective_threads(cfg.workers);
        let paused = cfg.paused;
        let inner = Arc::new(Inner {
            cfg,
            queue: Mutex::new(QueueState {
                paused,
                ..QueueState::default()
            }),
            available: Condvar::new(),
            drain: DrainSignal::new(),
            stats: Mutex::new(StatsInner::default()),
            next_id: AtomicU64::new(0),
            completion_seq: AtomicU64::new(0),
            started: AtomicU64::new(0),
            default_backend: Arc::new(SimBackend::default_profile()),
            store,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("heterogen-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawning a worker thread")
            })
            .collect();
        Server { inner, workers }
    }

    /// The number of worker threads actually running (after resolving
    /// `workers == 0` to the available parallelism).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Submits one job for execution.
    ///
    /// # Errors
    ///
    /// [`Rejected`] when the queue or the client's share is full, or the
    /// server is shutting down. A rejected spec was not queued.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, Rejected> {
        let client = spec.client.clone();
        let reject = |reason: RejectReason| {
            let mut s = self.inner.stats.lock().unwrap();
            match reason {
                RejectReason::QueueFull => s.stats.rejected_queue_full += 1,
                RejectReason::ClientSaturated => s.stats.rejected_client_saturated += 1,
                RejectReason::ShuttingDown => s.stats.rejected_shutting_down += 1,
            }
            Err(Rejected {
                reason,
                client: client.clone(),
            })
        };
        let mut q = self.inner.queue.lock().unwrap();
        if q.draining {
            return reject(RejectReason::ShuttingDown);
        }
        if q.queued >= self.inner.cfg.queue_capacity {
            return reject(RejectReason::QueueFull);
        }
        let per = q.queues.entry(client.clone()).or_default();
        if per.len() >= self.inner.cfg.per_client_queue {
            let empty = per.is_empty();
            if empty {
                q.queues.remove(&client);
            }
            return reject(RejectReason::ClientSaturated);
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let (tx, rx) = mpsc::channel();
        let was_empty = per.is_empty();
        per.push_back(QueuedJob {
            id,
            client: client.clone(),
            spec,
            tx,
            enqueued: Instant::now(),
        });
        if was_empty {
            q.rr.push_back(client.clone());
        }
        q.queued += 1;
        drop(q);
        self.inner.stats.lock().unwrap().stats.accepted += 1;
        self.inner.available.notify_one();
        Ok(JobHandle { id, client, rx })
    }

    /// Unpauses a server started with [`ServerConfig::paused`]. Idempotent.
    pub fn resume(&self) {
        self.inner.queue.lock().unwrap().paused = false;
        self.inner.available.notify_all();
    }

    /// A point-in-time metrics snapshot.
    pub fn stats(&self) -> ServerStats {
        self.inner
            .stats
            .lock()
            .unwrap()
            .snapshot(self.inner.started.load(Ordering::SeqCst))
    }

    /// Gracefully shuts down: refuses new admissions, revokes in-flight
    /// toolchains through the [`DrainSignal`], drains the queue under
    /// [`ServerConfig::drain_budgets`], joins the pool, and returns the
    /// final stats. Every already-accepted job still completes (degraded).
    pub fn shutdown(mut self) -> ServerStats {
        self.begin_drain();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.stats()
    }

    fn begin_drain(&self) {
        self.inner.drain.drain();
        let mut q = self.inner.queue.lock().unwrap();
        q.draining = true;
        q.paused = false;
        drop(q);
        self.inner.available.notify_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.begin_drain();
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pipeline() -> PipelineConfig {
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.2;
        cfg.fuzz.max_execs = 60;
        cfg.fuzz.threads = 1;
        cfg.search.threads = 1;
        cfg
    }

    fn spec(client: &str) -> JobSpec {
        let p = minic::parse("int kernel(int x) { return x + 1; }").unwrap();
        JobSpec::builder(p, "kernel").client(client).build()
    }

    #[test]
    fn queue_capacity_rejects_with_queue_full() {
        let server = Server::start(
            ServerConfig::builder()
                .with_workers(1)
                .with_queue_capacity(2)
                .with_pipeline(tiny_pipeline())
                .with_paused(true)
                .build(),
        );
        assert!(server.submit(spec("a")).is_ok());
        assert!(server.submit(spec("b")).is_ok());
        let err = server.submit(spec("c")).unwrap_err();
        assert_eq!(err.reason, RejectReason::QueueFull);
        assert_eq!(err.client, "c");
        assert_eq!(server.stats().rejected_queue_full, 1);
        assert_eq!(server.stats().accepted, 2);
    }

    #[test]
    fn per_client_cap_rejects_only_the_saturated_client() {
        let server = Server::start(
            ServerConfig::builder()
                .with_workers(1)
                .with_per_client_queue(1)
                .with_pipeline(tiny_pipeline())
                .with_paused(true)
                .build(),
        );
        assert!(server.submit(spec("heavy")).is_ok());
        let err = server.submit(spec("heavy")).unwrap_err();
        assert_eq!(err.reason, RejectReason::ClientSaturated);
        // Another client still gets in.
        assert!(server.submit(spec("light")).is_ok());
    }

    #[test]
    fn round_robin_interleaves_clients_fifo_within_each() {
        let mut q = QueueState::default();
        let mk = |client: &str, id: u64| {
            // The receiver is dropped — these queue-level tests never send.
            let (tx, _rx) = mpsc::channel();
            QueuedJob {
                id,
                client: client.to_string(),
                spec: spec(client),
                tx,
                enqueued: Instant::now(),
            }
        };
        for (client, id) in [("a", 1), ("a", 2), ("a", 3), ("b", 4), ("c", 5), ("b", 6)] {
            let per = q.queues.entry(client.to_string()).or_default();
            let was_empty = per.is_empty();
            per.push_back(mk(client, id));
            if was_empty {
                q.rr.push_back(client.to_string());
            }
            q.queued += 1;
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|j| j.id).collect();
        assert_eq!(
            order,
            vec![1, 4, 5, 2, 6, 3],
            "a,b,c,a,b,a — FIFO per client"
        );
    }

    #[test]
    fn shutdown_refuses_new_submissions() {
        let server = Server::start(
            ServerConfig::builder()
                .with_workers(1)
                .with_pipeline(tiny_pipeline())
                .build(),
        );
        let h = server.submit(spec("a")).unwrap();
        assert!(h.wait().report.unwrap().success());
        server.begin_drain();
        let err = server.submit(spec("a")).unwrap_err();
        assert_eq!(err.reason, RejectReason::ShuttingDown);
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.succeeded, 1);
        assert_eq!(stats.rejected_shutting_down, 1);
        assert_eq!(stats.wall_ms.count, 1);
    }

    #[test]
    fn latency_stats_nearest_rank() {
        let s = LatencyStats::from_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p90, 4.0);
        assert_eq!(s.p99, 4.0);
        assert_eq!(s.max, 4.0);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
    }

    #[test]
    fn unknown_backend_fails_the_job_not_the_server() {
        let server = Server::start(
            ServerConfig::builder()
                .with_workers(1)
                .with_pipeline(tiny_pipeline())
                .build(),
        );
        let p = minic::parse("int kernel(int x) { return x; }").unwrap();
        let bad = JobSpec::builder(p, "kernel").backend("asic-9000").build();
        let out = server.submit(bad).unwrap().wait();
        assert!(matches!(out.report, Err(PipelineError::Spec(_))));
        // The server is still healthy.
        let out2 = server.submit(spec("a")).unwrap().wait();
        assert!(out2.report.unwrap().success());
        let stats = server.shutdown();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.succeeded, 1);
    }
}
