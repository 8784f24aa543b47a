//! Behaviour preservation via differential testing (paper §5.3).
//!
//! The original C program runs on the CPU interpreter once per test to form
//! the reference; each repair candidate is simulated on the FPGA side and
//! compared. "HeteroGen computes the ratio of tests that have identical
//! behavior, and compares the simulation latency … between CPU and FPGA."

use heterogen_faults::{FaultInjector, ResilienceStats, RetryPolicy};
use heterogen_toolchain::{Resilient, SimBackend, Toolchain};
use heterogen_trace::{Event, NullSink, TraceSink};
use minic::Program;
use minic_exec::{CpuCostModel, ExecEngine, MachineConfig, Outcome, Prepared};
use testgen::TestCase;

/// Result of differentially testing one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffReport {
    /// Fraction of tests with identical observable behaviour.
    pub pass_ratio: f64,
    /// Mean FPGA latency over the tests (ms).
    pub fpga_latency_ms: f64,
}

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
    /// reference. Tests run on the tester's worker pool; the pass count
    /// and latency sum are folded in test order, so the report does not
    /// depend on the thread count.
    pub fn evaluate(&self, candidate: &Program) -> DiffReport {
        self.evaluate_traced(candidate, &NullSink)
    }

    /// Like [`DifferentialTester::evaluate`], additionally emitting one
    /// [`Event::DiffEvaluated`] on `sink` once the in-order fold finishes.
    /// The event is emitted from the calling thread after the merge, so the
    /// stream is identical for every thread count. Generic over the sink so
    /// the `NullSink` instantiation behind [`DifferentialTester::evaluate`]
    /// compiles the emission away.
    pub fn evaluate_traced<S: TraceSink + ?Sized>(
        &self,
        candidate: &Program,
        sink: &S,
    ) -> DiffReport {
        self.evaluate_with(
            &SimBackend::default_profile().with_engine(self.engine),
            candidate,
            sink,
        )
    }

    /// Like [`DifferentialTester::evaluate_traced`], simulating on an
    /// arbitrary [`Toolchain`] backend. A backend that cannot simulate the
    /// candidate at all (or fails a test's invocation) scores that test as
    /// failing, exactly as the default backend does for an unsimulatable
    /// design.
    pub fn evaluate_with<B, S>(&self, backend: &B, candidate: &Program, sink: &S) -> DiffReport
    where
        B: Toolchain + ?Sized,
        S: TraceSink + ?Sized,
    {
        let report = self.evaluate_inner(backend, candidate);
        if sink.enabled() {
            sink.emit(&Event::DiffEvaluated {
                tests: self.tests.len() as u64,
                pass_ratio: report.pass_ratio,
                fpga_latency_ms: report.fpga_latency_ms,
            });
        }
        report
    }

    /// Like [`DifferentialTester::evaluate_traced`], but runs every test
    /// through a fault injector: transient simulator faults (including fuel
    /// spikes) are retried on the worker under `retry`'s schedule, and a
    /// test whose faults persist — a permanent fault, or a transient that
    /// outlives the retry budget — degrades to a failing test instead of
    /// aborting the evaluation.
    ///
    /// Each test's injector key is `mix_key(key, test_index)`, so fault
    /// decisions depend only on the candidate fingerprint and the test's
    /// position, never on scheduling. Workers return their absorbed fault
    /// counts; the calling thread replays them — resilience counters,
    /// backoff ledger, and trace events — during the in-order merge, so the
    /// trace stream and the returned [`ResilienceStats`] are identical for
    /// every thread count. `at_min` timestamps the replayed events with the
    /// caller's simulated clock; backoff delays are billed to
    /// [`ResilienceStats::backoff_min`], not to that clock, so a
    /// transient-recovered run keeps the fault-free clock trajectory.
    pub fn evaluate_resilient<S, I>(
        &self,
        candidate: &Program,
        sink: &S,
        injector: &I,
        retry: &RetryPolicy,
        key: u64,
        at_min: f64,
    ) -> (DiffReport, ResilienceStats)
    where
        S: TraceSink + ?Sized,
        I: FaultInjector + ?Sized,
    {
        self.evaluate_resilient_with(
            &SimBackend::default_profile().with_engine(self.engine),
            candidate,
            sink,
            injector,
            retry,
            key,
            at_min,
        )
    }

    /// Like [`DifferentialTester::evaluate_resilient`], simulating on an
    /// arbitrary [`Toolchain`] backend. Workers evaluate through the
    /// [`Resilient`] middleware (injector consultation + transient retry);
    /// the calling thread replays the absorbed faults during the in-order
    /// merge exactly as the default-backend path does.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_resilient_with<B, S, I>(
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
        if !injector.enabled() {
            return (
                self.evaluate_with(backend, candidate, sink),
                ResilienceStats::default(),
            );
        }
        if !backend.can_simulate(candidate) {
            let report = DiffReport {
                pass_ratio: 0.0,
                fpga_latency_ms: f64::INFINITY,
            };
            if sink.enabled() {
                sink.emit(&Event::DiffEvaluated {
                    tests: self.tests.len() as u64,
                    pass_ratio: report.pass_ratio,
                    fpga_latency_ms: report.fpga_latency_ms,
                });
            }
            return (report, ResilienceStats::default());
        }
        let resilient = Resilient::new(backend, injector, *retry);

        // End states a worker can reach: success, transient faults that
        // outlived the retry budget, or a permanent fault.
        const OK: u8 = 0;
        const EXHAUSTED: u8 = 1;
        const PERMANENT: u8 = 2;
        /// One worker's result: the measured `(behaviour_eq, latency_ms)`
        /// on success, the transients absorbed, and the end state.
        type TestRun = (Option<(bool, f64)>, u32, u8);
        let runs: Vec<TestRun> = parallel::parallel_map(self.threads, &self.tests, |i, t| {
            let test_key = heterogen_faults::mix_key(key, i as u64);
            match resilient.simulate(candidate, t, test_key) {
                Ok(sim) => (
                    Some((
                        self.reference[i].behaviour_eq(&sim.result.outcome),
                        sim.result.estimate.latency_ms,
                    )),
                    sim.transients,
                    OK,
                ),
                Err(e) if e.is_exhausted() => (None, e.absorbed_transients(), EXHAUSTED),
                Err(e) => (None, e.absorbed_transients(), PERMANENT),
            }
        });

        let mut stats = ResilienceStats::default();
        let mut passed = 0usize;
        let mut latency = 0.0;
        for (i, (result, transients, end)) in runs.iter().enumerate() {
            let test_key = heterogen_faults::mix_key(key, i as u64);
            for a in 0..*transients {
                stats.transient_faults += 1;
                if sink.enabled() {
                    sink.emit(&Event::FaultInjected {
                        site: "hls_sim".to_string(),
                        fault: "transient".to_string(),
                        fingerprint: test_key,
                        attempt: u64::from(a),
                        at_min,
                    });
                }
                // The worker only kept retrying while the schedule granted a
                // delay; replaying `delay_before` here reproduces exactly the
                // retries it took (the final transient of an EXHAUSTED test
                // gets none).
                if let Some(delay) = retry.delay_before(a + 1) {
                    stats.retries += 1;
                    stats.backoff_min += delay;
                    if sink.enabled() {
                        sink.emit(&Event::RetryScheduled {
                            site: "hls_sim".to_string(),
                            fingerprint: test_key,
                            attempt: u64::from(a + 1),
                            delay_min: delay,
                            at_min,
                        });
                    }
                }
            }
            if *end != OK {
                stats.permanent_faults += 1;
                if *end == PERMANENT && sink.enabled() {
                    sink.emit(&Event::FaultInjected {
                        site: "hls_sim".to_string(),
                        fault: "permanent".to_string(),
                        fingerprint: test_key,
                        attempt: u64::from(*transients),
                        at_min,
                    });
                }
            }
            if let Some((ok, ms)) = result {
                if *ok {
                    passed += 1;
                }
                latency += ms;
            }
        }
        let report = DiffReport {
            pass_ratio: passed as f64 / self.tests.len() as f64,
            fpga_latency_ms: latency / self.tests.len() as f64,
        };
        if sink.enabled() {
            sink.emit(&Event::DiffEvaluated {
                tests: self.tests.len() as u64,
                pass_ratio: report.pass_ratio,
                fpga_latency_ms: report.fpga_latency_ms,
            });
        }
        (report, stats)
    }

    fn evaluate_inner<B: Toolchain + ?Sized>(
        &self,
        backend: &B,
        candidate: &Program,
    ) -> DiffReport {
        if !backend.can_simulate(candidate) {
            return DiffReport {
                pass_ratio: 0.0,
                fpga_latency_ms: f64::INFINITY,
            };
        }
        let runs: Vec<(bool, f64)> = parallel::parallel_map(self.threads, &self.tests, |i, t| {
            match backend.simulate(candidate, t, i as u64) {
                Ok(sim) => (
                    self.reference[i].behaviour_eq(&sim.result.outcome),
                    sim.result.estimate.latency_ms,
                ),
                Err(_) => (false, 0.0),
            }
        });
        let mut passed = 0usize;
        let mut latency = 0.0;
        for (ok, ms) in runs {
            if ok {
                passed += 1;
            }
            latency += ms;
        }
        DiffReport {
            pass_ratio: passed as f64 / self.tests.len() as f64,
            fpga_latency_ms: latency / self.tests.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic_exec::ArgValue;

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
}
