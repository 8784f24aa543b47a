//! Behaviour preservation via differential testing (paper §5.3).
//!
//! The original C program runs on the CPU interpreter once per test to form
//! the reference; each repair candidate is simulated on the FPGA side and
//! compared. "HeteroGen computes the ratio of tests that have identical
//! behavior, and compares the simulation latency … between CPU and FPGA."

use heterogen_faults::{FaultInjector, NoFaults, ResilienceStats, RetryPolicy};
pub use heterogen_toolchain::DiffReport;
use heterogen_toolchain::{Resilient, SimBackend, Simulated, Toolchain, ToolchainError};
use heterogen_trace::{Event, NullSink, TraceSink};
use minic::Program;
use minic_exec::{CpuCostModel, ExecEngine, MachineConfig, Outcome, Prepared};
use testgen::TestCase;

/// Precomputed CPU reference outcomes for a test suite.
#[derive(Debug)]
pub struct DifferentialTester {
    tests: Vec<TestCase>,
    reference: Vec<Outcome>,
    cpu_latency_ms: f64,
    threads: usize,
    engine: ExecEngine,
}

impl DifferentialTester {
    /// Runs the original program on every test (capped at `max_tests`) and
    /// records the reference outcomes, single-threaded.
    ///
    /// # Errors
    ///
    /// Fails when the original program cannot be executed at all.
    pub fn new(
        original: &Program,
        kernel: &str,
        tests: &[TestCase],
        max_tests: usize,
    ) -> Result<DifferentialTester, String> {
        DifferentialTester::with_threads(original, kernel, tests, max_tests, 1)
    }

    /// Like [`DifferentialTester::new`], running the reference executions —
    /// and later [`DifferentialTester::evaluate`] simulations — on up to
    /// `threads` workers (`0` = available parallelism). Per-test results
    /// are merged back in test order, so latency sums accumulate in the
    /// same order as the sequential loop and the reported numbers are
    /// bit-identical for every thread count.
    pub fn with_threads(
        original: &Program,
        kernel: &str,
        tests: &[TestCase],
        max_tests: usize,
        threads: usize,
    ) -> Result<DifferentialTester, String> {
        DifferentialTester::with_engine(
            original,
            kernel,
            tests,
            max_tests,
            threads,
            ExecEngine::Bytecode,
        )
    }

    /// Like [`DifferentialTester::with_threads`], running the reference
    /// runs and every default-backend candidate simulation on `engine`.
    /// The pipeline always uses the bytecode VM; passing
    /// [`ExecEngine::TreeWalk`] checks a result against the reference
    /// interpreter, which must produce a bit-identical report.
    ///
    /// # Errors
    ///
    /// Fails when the original program cannot be executed at all.
    pub fn with_engine(
        original: &Program,
        kernel: &str,
        tests: &[TestCase],
        max_tests: usize,
        threads: usize,
        engine: ExecEngine,
    ) -> Result<DifferentialTester, String> {
        let tests: Vec<TestCase> = tests.iter().take(max_tests.max(1)).cloned().collect();
        if tests.is_empty() {
            return Err("differential testing needs at least one test".to_string());
        }
        let cost = CpuCostModel::new();
        let prepared = Prepared::new(engine, original);
        let runs: Vec<Result<(Outcome, f64), String>> =
            parallel::parallel_map(threads, &tests, |_, t| {
                let mut m = prepared
                    .runner(MachineConfig::cpu())
                    .map_err(|e| format!("reference machine: {e}"))?;
                let before = m.ops();
                let out = m.run_kernel(kernel, t);
                Ok((out, cost.latency_ms(m.ops() - before)))
            });
        let mut reference = Vec::with_capacity(tests.len());
        let mut total_ms = 0.0;
        for run in runs {
            let (out, ms) = run?;
            total_ms += ms;
            reference.push(out);
        }
        Ok(DifferentialTester {
            cpu_latency_ms: total_ms / tests.len() as f64,
            tests,
            reference,
            threads,
            engine,
        })
    }

    /// Number of tests in play.
    pub fn test_count(&self) -> usize {
        self.tests.len()
    }

    /// The capped test suite the tester evaluates against, in order —
    /// exactly the inputs a persisted verdict for this tester must be
    /// keyed on.
    pub fn tests(&self) -> &[TestCase] {
        &self.tests
    }

    /// Mean CPU latency of the original program over the tests (ms).
    pub fn cpu_latency_ms(&self) -> f64 {
        self.cpu_latency_ms
    }

    /// Simulates a candidate on the FPGA side and compares against the
    /// reference: [`DifferentialTester::evaluate_with`] on the default
    /// backend (simulating on the tester's engine), with no faults and no
    /// trace.
    pub fn evaluate(&self, candidate: &Program) -> DiffReport {
        let backend = SimBackend::default_profile().with_engine(self.engine);
        let retry = RetryPolicy::default();
        self.evaluate_with(&backend, candidate, &NullSink, &NoFaults, &retry, 0, 0.0)
            .0
    }

    /// Differentially tests `candidate` on `backend`, through the
    /// [`Resilient`] middleware: the candidate is prepared once through
    /// [`Toolchain::co_simulator`], every test runs against that
    /// preparation on the tester's worker pool, and the results are merged
    /// in test order, so the report does not depend on the thread count. A
    /// candidate the backend cannot simulate, or a test whose simulation
    /// fails, scores as failing. One [`Event::DiffEvaluated`] is emitted on
    /// `sink` after the merge.
    ///
    /// Each test's injector key is `mix_key(key, test_index)`, so fault
    /// decisions depend only on `key` (the candidate fingerprint) and the
    /// test's position, never on scheduling. Transient simulator faults
    /// (including fuel spikes) are retried on the worker under `retry`'s
    /// schedule; a test whose faults persist — a permanent fault, or a
    /// transient that outlives the retry budget — degrades to a failing
    /// test instead of aborting the evaluation. Workers return their
    /// absorbed fault counts, and the calling thread replays them —
    /// resilience counters, backoff ledger and trace events — during the
    /// merge, so the trace stream and the returned [`ResilienceStats`] are
    /// identical for every thread count. `at_min` timestamps the replayed
    /// events with the caller's simulated clock; backoff delays are billed
    /// to [`ResilienceStats::backoff_min`], not to that clock. Faults are
    /// replayed only when `injector` is enabled: without one, a failed
    /// simulation (a drained backend, say) is a failing test, not a fault.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_with<B, S, I>(
        &self,
        backend: &B,
        candidate: &Program,
        sink: &S,
        injector: &I,
        retry: &RetryPolicy,
        key: u64,
        at_min: f64,
    ) -> (DiffReport, ResilienceStats)
    where
        B: Toolchain + ?Sized,
        S: TraceSink + ?Sized,
        I: FaultInjector + ?Sized,
    {
        let mut stats = ResilienceStats::default();
        let report = if backend.can_simulate(candidate) {
            let resilient = Resilient::new(backend, injector, *retry);
            let runs: Vec<TestRun> = match resilient.co_simulator(candidate) {
                Ok(cosim) => parallel::parallel_map(self.threads, &self.tests, |i, t| {
                    let test_key = heterogen_faults::mix_key(key, i as u64);
                    self.test_run(i, cosim.run(t, test_key))
                }),
                // Only a disabled injector hands the inner preparation's
                // error back here; every test fails as its run would.
                Err(e) => (0..self.tests.len())
                    .map(|i| self.test_run(i, Err(e.clone())))
                    .collect(),
            };
            let mut passed = 0usize;
            let mut latency = 0.0;
            for (i, run) in runs.iter().enumerate() {
                if injector.enabled() {
                    let test_key = heterogen_faults::mix_key(key, i as u64);
                    let absorbed = run.transients;
                    replay_transients(
                        sink, retry, at_min, &mut stats, "hls_sim", test_key, absorbed,
                    );
                    // An exhausted test is a permanent fault without an
                    // event of its own.
                    if run.end != End::Ok {
                        stats.permanent_faults += 1;
                    }
                    if run.end == End::Permanent && sink.enabled() {
                        sink.emit(&Event::FaultInjected {
                            site: "hls_sim".to_string(),
                            fault: "permanent".to_string(),
                            fingerprint: test_key,
                            attempt: u64::from(absorbed),
                            at_min,
                        });
                    }
                }
                if let Some((ok, ms)) = run.measured {
                    if ok {
                        passed += 1;
                    }
                    latency += ms;
                }
            }
            DiffReport {
                pass_ratio: passed as f64 / self.tests.len() as f64,
                fpga_latency_ms: latency / self.tests.len() as f64,
            }
        } else {
            DiffReport {
                pass_ratio: 0.0,
                fpga_latency_ms: f64::INFINITY,
            }
        };
        emit_diff(sink, self.tests.len(), &report);
        (report, stats)
    }

    /// Scores test `i`'s simulation against its reference outcome.
    fn test_run(&self, i: usize, sim: Result<Simulated, ToolchainError>) -> TestRun {
        match sim {
            Ok(sim) => TestRun {
                measured: Some((
                    self.reference[i].behaviour_eq(&sim.result.outcome),
                    sim.result.estimate.latency_ms,
                )),
                transients: sim.transients,
                end: End::Ok,
            },
            Err(e) => TestRun {
                measured: None,
                transients: e.absorbed_transients(),
                end: if e.is_exhausted() {
                    End::Exhausted
                } else {
                    End::Permanent
                },
            },
        }
    }
}

/// One test's co-simulation, as a worker hands it to the merge.
struct TestRun {
    /// `(behaviour_eq, latency_ms)` when the simulation succeeded.
    measured: Option<(bool, f64)>,
    /// Transient faults absorbed on the way.
    transients: u32,
    end: End,
}

/// The end state a test's co-simulation reached.
#[derive(PartialEq)]
enum End {
    Ok,
    /// Transient faults outlived the retry budget.
    Exhausted,
    Permanent,
}

/// The one replay of the transient faults a worker absorbed at `site`
/// while evaluating `fingerprint`: each counts in `stats` and emits a
/// [`Event::FaultInjected`] on `sink`, and each retry the policy granted
/// counts its backoff and emits a [`Event::RetryScheduled`], all stamped
/// `at_min`. The worker retried only while `retry`'s schedule granted a
/// delay, so replaying `delay_before` reproduces exactly the retries it
/// took (the last transient of an exhausted run gets none). The backoff is
/// billed to [`ResilienceStats::backoff_min`], never a search clock.
pub(crate) fn replay_transients<S: TraceSink + ?Sized>(
    sink: &S,
    retry: &RetryPolicy,
    at_min: f64,
    stats: &mut ResilienceStats,
    site: &str,
    fingerprint: u64,
    transients: u32,
) {
    for a in 0..transients {
        stats.transient_faults += 1;
        if sink.enabled() {
            sink.emit(&Event::FaultInjected {
                site: site.to_string(),
                fault: "transient".to_string(),
                fingerprint,
                attempt: u64::from(a),
                at_min,
            });
        }
        let Some(delay_min) = retry.delay_before(a + 1) else {
            continue;
        };
        stats.retries += 1;
        stats.backoff_min += delay_min;
        if sink.enabled() {
            sink.emit(&Event::RetryScheduled {
                site: site.to_string(),
                fingerprint,
                attempt: u64::from(a + 1),
                delay_min,
                at_min,
            });
        }
    }
}

/// Emits the one [`Event::DiffEvaluated`] of a differential report over
/// `tests` tests: after a live evaluation's merge, or when the repair
/// search replays a stored or tested-ahead report.
pub(crate) fn emit_diff<S: TraceSink + ?Sized>(sink: &S, tests: usize, report: &DiffReport) {
    if sink.enabled() {
        sink.emit(&Event::DiffEvaluated {
            tests: tests as u64,
            pass_ratio: report.pass_ratio,
            fpga_latency_ms: report.fpga_latency_ms,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterogen_faults::{Fault, FaultSite};
    use heterogen_trace::JsonlSink;
    use minic_exec::ArgValue;

    /// Every co-simulation faults transiently `transients` times, then
    /// permanently; `None` keeps it transient forever.
    struct TransientsThen(Option<u32>);

    impl FaultInjector for TransientsThen {
        fn fault(&self, _site: FaultSite, _key: u64, attempt: u32) -> Option<Fault> {
            match self.0 {
                Some(n) if attempt >= n => Some(Fault::Permanent),
                _ => Some(Fault::Transient),
            }
        }
    }

    /// `evaluate_with` over two tests under `injector`: its stats and its
    /// JSONL trace without the schema header.
    fn faulted_evaluation(injector: &TransientsThen) -> (DiffReport, ResilienceStats, String) {
        let p = minic::parse("int kernel(int x) { return x + 1; }").unwrap();
        let tests: Vec<TestCase> = (0..2).map(|i| vec![ArgValue::Int(i)]).collect();
        let d = DifferentialTester::new(&p, "kernel", &tests, 10).unwrap();
        let sink = JsonlSink::new();
        let backend = SimBackend::default_profile();
        let (report, stats) = d.evaluate_with(
            &backend,
            &p,
            &sink,
            injector,
            &RetryPolicy::default(),
            0xfeed,
            1.5,
        );
        let trace = sink.contents();
        let events = trace.split_once('\n').unwrap().1.to_string();
        (report, stats, events)
    }

    #[test]
    fn identical_program_passes_all() {
        let p = minic::parse("int kernel(int x) { return x * 3 + 1; }").unwrap();
        let tests: Vec<TestCase> = (0..5).map(|i| vec![ArgValue::Int(i)]).collect();
        let d = DifferentialTester::new(&p, "kernel", &tests, 100).unwrap();
        let r = d.evaluate(&p);
        assert_eq!(r.pass_ratio, 1.0);
        assert!(d.cpu_latency_ms() > 0.0);
    }

    #[test]
    fn narrowed_type_fails_on_large_inputs() {
        let orig = minic::parse("int kernel(int x) { int r = x; return r; }").unwrap();
        let narrowed = minic::parse("int kernel(int x) { fpga_uint<7> r = x; return r; }").unwrap();
        let tests: Vec<TestCase> = vec![
            vec![ArgValue::Int(5)],   // fits 7 bits → identical
            vec![ArgValue::Int(500)], // wraps → diverges
        ];
        let d = DifferentialTester::new(&orig, "kernel", &tests, 100).unwrap();
        let r = d.evaluate(&narrowed);
        assert_eq!(r.pass_ratio, 0.5);
    }

    #[test]
    fn caps_test_count() {
        let p = minic::parse("int kernel(int x) { return x; }").unwrap();
        let tests: Vec<TestCase> = (0..100).map(|i| vec![ArgValue::Int(i)]).collect();
        let d = DifferentialTester::new(&p, "kernel", &tests, 10).unwrap();
        assert_eq!(d.test_count(), 10);
    }

    #[test]
    fn unsimulatable_candidate_scores_zero() {
        let p = minic::parse("int kernel(int x) { return x; }").unwrap();
        let broken = minic::parse("void helper(int x) { }").unwrap(); // no top
        let tests: Vec<TestCase> = vec![vec![ArgValue::Int(1)]];
        let d = DifferentialTester::new(&p, "kernel", &tests, 10).unwrap();
        assert_eq!(d.evaluate(&broken).pass_ratio, 0.0);
    }

    /// The two tests' injector keys, `mix_key(0xfeed, i)`.
    const TEST_KEYS: [&str; 2] = ["a98eb7d8692da252", "d34b9bc5c5474bc3"];

    fn fault_line(key: &str, fault: &str, attempt: u32) -> String {
        format!(
            "{{\"event\":\"fault_injected\",\"site\":\"hls_sim\",\"fault\":\"{fault}\",\
             \"fingerprint\":\"{key}\",\"attempt\":{attempt},\"at_min\":1.5}}\n"
        )
    }

    fn retry_line(key: &str, attempt: u32, delay: &str) -> String {
        format!(
            "{{\"event\":\"retry_scheduled\",\"site\":\"hls_sim\",\"fingerprint\":\"{key}\",\
             \"attempt\":{attempt},\"delay_min\":{delay},\"at_min\":1.5}}\n"
        )
    }

    const DIFF_LINE: &str =
        "{\"event\":\"diff_evaluated\",\"tests\":2,\"pass_ratio\":0.0,\"fpga_latency_ms\":0.0}\n";

    #[test]
    fn a_permanent_fault_after_absorbed_transients_replays_both() {
        let (report, stats, events) = faulted_evaluation(&TransientsThen(Some(2)));
        assert_eq!(report.pass_ratio, 0.0);
        let expected = ResilienceStats {
            transient_faults: 4,
            retries: 4,
            backoff_min: 1.5,
            crashes: 0,
            permanent_faults: 2,
        };
        assert_eq!(stats, expected);
        // Both transients are retried; the permanent fault carries the
        // absorbed count as its attempt.
        let mut want = String::new();
        for key in TEST_KEYS {
            want += &fault_line(key, "transient", 0);
            want += &retry_line(key, 1, "0.25");
            want += &fault_line(key, "transient", 1);
            want += &retry_line(key, 2, "0.5");
            want += &fault_line(key, "permanent", 2);
        }
        want += DIFF_LINE;
        assert_eq!(events, want);
    }

    #[test]
    fn a_fault_that_stays_transient_replays_its_retries_and_exhausts() {
        let (report, stats, events) = faulted_evaluation(&TransientsThen(None));
        assert_eq!(report.pass_ratio, 0.0);
        let expected = ResilienceStats {
            transient_faults: 8,
            retries: 6,
            backoff_min: 3.5,
            crashes: 0,
            permanent_faults: 2,
        };
        assert_eq!(stats, expected);
        // The default policy grants three retries: the fourth transient
        // gets none, and the exhausted test counts as a permanent fault
        // without an event of its own.
        let mut want = String::new();
        for key in TEST_KEYS {
            for (attempt, delay) in [(0, "0.25"), (1, "0.5"), (2, "1.0")] {
                want += &fault_line(key, "transient", attempt);
                want += &retry_line(key, attempt + 1, delay);
            }
            want += &fault_line(key, "transient", 3);
        }
        want += DIFF_LINE;
        assert_eq!(events, want);
    }
}
