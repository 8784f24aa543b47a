//! The two co-simulation paths agree bit for bit.
//!
//! `DifferentialTester` prepares each candidate once through
//! `Toolchain::co_simulator` and runs every test against that preparation.
//! A layer that overrides only `Toolchain::simulate` gets the trait
//! default instead, which simulates each test from scratch. Both must
//! produce the same `DiffReport` on every subject's original and repaired
//! program, and the prepared path must prepare once per evaluation and
//! never fall back to per-test `simulate`.

use bench::{run_subject, standard_config};
use heterogen_toolchain::{
    BackendInfo, CoSim, CompileCostModel, Compiled, SimBackend, SimResult, Simulated,
    StyleViolation, Toolchain, ToolchainError,
};
use heterogen_trace::NullSink;
use minic::Program;
use minic_exec::ArgValue;
use repair::{DiffReport, DifferentialTester};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards everything to a [`SimBackend`], `co_simulator` included,
/// counting preparations and per-test `simulate` calls.
struct Counted {
    inner: SimBackend,
    co_simulators: AtomicUsize,
    simulates: AtomicUsize,
}

/// Overrides only `simulate`, so `co_simulator` is the trait default's
/// per-test adapter; counts the tests it sees.
struct SimulateOnly {
    inner: SimBackend,
    simulates: AtomicUsize,
}

impl Toolchain for Counted {
    fn info(&self) -> BackendInfo {
        self.inner.info()
    }
    fn cost_model(&self) -> CompileCostModel {
        self.inner.cost_model()
    }
    fn style_check(&self, p: &Program) -> Vec<StyleViolation> {
        self.inner.style_check(p)
    }
    fn compile(&self, p: &Program, key: u64) -> Result<Compiled, ToolchainError> {
        self.inner.compile(p, key)
    }
    fn simulate(
        &self,
        p: &Program,
        args: &[ArgValue],
        key: u64,
    ) -> Result<Simulated, ToolchainError> {
        self.simulates.fetch_add(1, Ordering::SeqCst);
        self.inner.simulate(p, args, key)
    }
    fn co_simulator<'a>(&'a self, p: &'a Program) -> Result<Box<dyn CoSim + 'a>, ToolchainError> {
        self.co_simulators.fetch_add(1, Ordering::SeqCst);
        self.inner.co_simulator(p)
    }
    fn simulate_spiked(
        &self,
        p: &Program,
        args: &[ArgValue],
        factor: u32,
        attempt: u32,
    ) -> Result<SimResult, ToolchainError> {
        self.inner.simulate_spiked(p, args, factor, attempt)
    }
}

impl Toolchain for SimulateOnly {
    fn info(&self) -> BackendInfo {
        self.inner.info()
    }
    fn cost_model(&self) -> CompileCostModel {
        self.inner.cost_model()
    }
    fn style_check(&self, p: &Program) -> Vec<StyleViolation> {
        self.inner.style_check(p)
    }
    fn compile(&self, p: &Program, key: u64) -> Result<Compiled, ToolchainError> {
        self.inner.compile(p, key)
    }
    fn simulate(
        &self,
        p: &Program,
        args: &[ArgValue],
        key: u64,
    ) -> Result<Simulated, ToolchainError> {
        self.simulates.fetch_add(1, Ordering::SeqCst);
        self.inner.simulate(p, args, key)
    }
}

fn bits(r: &DiffReport) -> (u64, u64) {
    (r.pass_ratio.to_bits(), r.fpga_latency_ms.to_bits())
}

#[test]
fn prepared_and_per_test_cosimulation_agree_on_every_subject() {
    let cfg = standard_config();
    let prepared = Counted {
        inner: SimBackend::default_profile(),
        co_simulators: AtomicUsize::new(0),
        simulates: AtomicUsize::new(0),
    };
    let per_test = SimulateOnly {
        inner: SimBackend::default_profile(),
        simulates: AtomicUsize::new(0),
    };
    let mut evaluations = 0;
    for s in benchsuite::subjects() {
        let report = run_subject(&s, &cfg);
        let original = s.parse();
        // Capped exactly as the repair search caps the fuzz corpus.
        let tester = DifferentialTester::with_threads(
            &original,
            s.kernel,
            &report.tests,
            cfg.search.max_diff_tests,
            cfg.search.threads,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", s.id));
        for (what, program) in [("original", &original), ("repaired", &report.program)] {
            let tests_before = per_test.simulates.load(Ordering::SeqCst);
            let a = tester.evaluate_with(&prepared, program, &NullSink);
            let b = tester.evaluate_with(&per_test, program, &NullSink);
            assert_eq!(bits(&a), bits(&b), "{} {what}: {a:?} vs {b:?}", s.id);
            if per_test.can_simulate(program) {
                evaluations += 1;
                assert_eq!(
                    per_test.simulates.load(Ordering::SeqCst) - tests_before,
                    tester.test_count(),
                    "{} {what}: the adapter simulates every test",
                    s.id
                );
            }
            assert_eq!(
                prepared.co_simulators.load(Ordering::SeqCst),
                evaluations,
                "{} {what}: one preparation per evaluation",
                s.id
            );
            assert_eq!(
                prepared.simulates.load(Ordering::SeqCst),
                0,
                "{} {what}: the prepared path never simulates per test",
                s.id
            );
        }
    }
    assert!(
        evaluations >= 10,
        "only {evaluations} evaluations simulated"
    );
}
