//! One co-simulation path, pinned.
//!
//! `DifferentialTester::evaluate_with` prepares each candidate once through
//! `Toolchain::co_simulator` and runs every test against that preparation,
//! under a fault plan too: `Resilient`'s preparation makes each test's
//! fault decision inside its runs. A layer that overrides only
//! `Toolchain::simulate` gets the trait default instead, which simulates
//! each test from scratch. Both must give the same report, resilience
//! counters and trace (fault events included) on every subject's original
//! and repaired program, fault-free and under chaos, and the prepared path
//! must prepare once per evaluation and never fall back to per-test
//! `simulate`. The chaos repair searches of P3 and P6 are pinned to digests
//! of their whole trace, fault events included.

use bench::{run_subject, standard_config};
use heterogen_faults::{FaultInjector, FaultPlan, NoFaults, ResilienceStats, RetryPolicy};
use heterogen_toolchain::{
    BackendInfo, CoSim, CompileCostModel, Compiled, SimBackend, SimResult, Simulated,
    StyleViolation, Toolchain, ToolchainError,
};
use heterogen_trace::JsonlSink;
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

/// Overrides `simulate` and `simulate_spiked` but not `co_simulator`, as
/// the benchmark's timing layer does, so `co_simulator` is the trait
/// default's per-test adapter; counts the tests it sees.
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

fn bits(r: &DiffReport) -> (u64, u64) {
    (r.pass_ratio.to_bits(), r.fpga_latency_ms.to_bits())
}

/// Transients that are retried and ones that outlive the default 3-retry
/// policy (runs of up to 5 attempts), fuel spikes that survive and ones
/// that exhaust, and a few permanent faults.
fn chaos_plan() -> FaultPlan {
    FaultPlan::builder(11)
        .with_transient_rate(0.12)
        .with_transient_len(5)
        .with_fuel_spike_rate(0.25)
        .with_spike_factor(8)
        .with_permanent_rate(0.004)
        .build()
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
    let plan = chaos_plan();
    let retry = RetryPolicy::default();
    let mut evaluations = 0;
    let mut faulted = ResilienceStats::default();
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
            let key = minic::fingerprint_program(program);
            let injectors: [(&str, &dyn FaultInjector); 2] =
                [("fault-free", &NoFaults), ("chaos", &plan)];
            for (mode, injector) in injectors {
                let evaluate = |backend: &dyn Toolchain| {
                    let sink = JsonlSink::new();
                    let (r, stats) =
                        tester.evaluate_with(backend, program, &sink, injector, &retry, key, 1.5);
                    (bits(&r), stats, sink.contents())
                };
                let tests_before = per_test.simulates.load(Ordering::SeqCst);
                let a = evaluate(&prepared);
                let b = evaluate(&per_test);
                assert_eq!(a, b, "{} {what} {mode}", s.id);
                if mode == "chaos" {
                    faulted.absorb(&a.1);
                }
                if per_test.can_simulate(program) {
                    evaluations += 1;
                    if mode == "fault-free" {
                        assert_eq!(
                            per_test.simulates.load(Ordering::SeqCst) - tests_before,
                            tester.test_count(),
                            "{} {what}: the adapter simulates every test",
                            s.id
                        );
                    }
                }
                assert_eq!(
                    prepared.co_simulators.load(Ordering::SeqCst),
                    evaluations,
                    "{} {what} {mode}: one preparation per evaluation",
                    s.id
                );
                assert_eq!(
                    prepared.simulates.load(Ordering::SeqCst),
                    0,
                    "{} {what} {mode}: the prepared path never simulates per test",
                    s.id
                );
            }
        }
    }
    assert!(
        evaluations >= 20,
        "only {evaluations} evaluations simulated"
    );
    // The plan reached the co-simulations: retried, exhausted and
    // permanent faults all happened.
    assert!(
        faulted.retries > 0 && faulted.permanent_faults > 0,
        "{faulted:?}"
    );
}

/// The chaos repair search's whole trace — fault events included — and
/// its resilience counters. The digests were taken when chaos runs still
/// co-simulated every test from scratch; preparing each candidate once
/// must not move a single fault event.
#[test]
fn chaos_repair_fault_stream_is_pinned() {
    let cfg = standard_config();
    let search = cfg.search.clone().to_builder().with_threads(2).build();
    let pins = [
        (
            "P3",
            0x0f9d_40ea_3230_add2_u64,
            ResilienceStats {
                transient_faults: 43,
                retries: 42,
                backoff_min: 17.5,
                crashes: 0,
                permanent_faults: 2,
            },
        ),
        (
            "P6",
            0x4d73_805b_1f0e_5a57,
            ResilienceStats {
                transient_faults: 38,
                retries: 37,
                backoff_min: 14.0,
                crashes: 0,
                permanent_faults: 2,
            },
        ),
    ];
    for (id, trace_digest, resilience) in pins {
        let s = benchsuite::subject(id).unwrap();
        let (p, fuzz, initial) = bench::fuzz_subject(&s, &cfg.fuzz);
        let sink = JsonlSink::new();
        let r = repair::repair_persistent(
            &p,
            initial,
            s.kernel,
            &fuzz.corpus,
            &fuzz.profile,
            &search,
            &sink,
            &chaos_plan(),
            &SimBackend::default_profile(),
            None,
        )
        .unwrap_or_else(|e| panic!("{id}: {e}"));
        let trace = sink.contents();
        assert!(
            trace.contains("\"site\":\"hls_sim\""),
            "{id}: no co-simulation fault in the trace"
        );
        assert_eq!(r.resilience, resilience, "{id}");
        assert_eq!(
            minic::fnv1a(trace.as_bytes()),
            trace_digest,
            "{id}: trace digest {:#018x}",
            minic::fnv1a(trace.as_bytes())
        );
    }
}
