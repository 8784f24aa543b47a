//! Pins on testing the next repair candidate ahead of its pop.
//!
//! With more than one thread the repair search differentially tests the
//! next candidate it will pop while it expands the current one (see the
//! `repair::search` module docs). That must change wall-clock time only.
//! A counting backend records every co-simulation by program fingerprint,
//! so these tests pin both the bytes a run produces and the work it does:
//! against the one-thread run, a run may only add the one evaluation it
//! tested ahead of a pop the search never reached.

use heterogen_core::{HeteroGen, JobSpec, PipelineConfig};
use heterogen_faults::{FaultInjector, FaultPlan};
use heterogen_store::Store;
use heterogen_toolchain::{
    BackendInfo, CompileCostModel, Compiled, SimBackend, SimResult, Simulated, StyleViolation,
    Toolchain, ToolchainError,
};
use heterogen_trace::JsonlSink;
use minic::Program;
use minic_exec::ArgValue;
use repair::SearchConfig;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use testgen::FuzzConfig;

/// Tests per differential evaluation in these runs.
const DIFF_TESTS: usize = 8;

/// The default backend, counting `simulate` calls per program fingerprint.
struct Counting {
    inner: SimBackend,
    sims: Mutex<HashMap<u64, u64>>,
}

impl Counting {
    fn new() -> Counting {
        Counting {
            inner: SimBackend::default_profile(),
            sims: Mutex::default(),
        }
    }

    fn take(&self) -> HashMap<u64, u64> {
        std::mem::take(&mut *self.sims.lock().unwrap())
    }
}

impl Toolchain for Counting {
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
        let fp = minic::fingerprint_program(p);
        *self.sims.lock().unwrap().entry(fp).or_default() += 1;
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

fn config(threads: usize) -> PipelineConfig {
    let mut cfg = PipelineConfig::quick();
    cfg.fuzz = FuzzConfig::builder()
        .with_idle_stop_min(0.5)
        .with_max_execs(400)
        .with_threads(threads)
        .build();
    cfg.search = SearchConfig::builder()
        .with_budget_min(150.0)
        .with_max_diff_tests(DIFF_TESTS)
        .with_threads(threads)
        .build();
    cfg
}

/// Report JSON, JSONL trace and simulate counts of one pipeline run.
struct Run {
    report: String,
    trace: String,
    sims: HashMap<u64, u64>,
}

fn run(
    id: &str,
    threads: usize,
    store: Option<Arc<Store>>,
    faults: Option<Arc<dyn FaultInjector>>,
) -> Run {
    let s = benchsuite::subject(id).unwrap();
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());
    let backend = Arc::new(Counting::new());
    let sink = Arc::new(JsonlSink::new());
    let mut builder = HeteroGen::builder()
        .config(config(threads))
        .backend(backend.clone())
        .sink(sink.clone());
    if let Some(store) = store {
        builder = builder.store(store);
    }
    if let Some(faults) = faults {
        builder = builder.faults(faults);
    }
    let report = builder
        .build()
        .run(JobSpec::fuzz(s.parse(), s.kernel, seeds))
        .unwrap();
    Run {
        report: serde_json::to_string(&report).expect("serializable report"),
        trace: sink.contents(),
        sims: backend.take(),
    }
}

/// The simulations `got` made beyond `base`, per fingerprint. Fails if
/// `got` skipped any simulation `base` made.
fn extra_sims(base: &HashMap<u64, u64>, got: &HashMap<u64, u64>, what: &str) -> Vec<(u64, u64)> {
    for (fp, n) in base {
        let m = got.get(fp).copied().unwrap_or(0);
        assert!(m >= *n, "{what}: {fp:016x} simulated {m} times, want {n}");
    }
    let mut extra: Vec<(u64, u64)> = got
        .iter()
        .map(|(fp, m)| (*fp, m - base.get(fp).copied().unwrap_or(0)))
        .filter(|(_, d)| *d > 0)
        .collect();
    extra.sort_unstable();
    extra
}

#[test]
fn testing_ahead_is_byte_identical_and_adds_at_most_one_trailing_evaluation() {
    let mut trailing = 0;
    for id in ["P1", "P3", "P5", "P8", "P4", "P10"] {
        let base = run(id, 1, None, None);
        assert!(!base.trace.is_empty(), "{id}: empty baseline trace");
        for threads in [2, 4] {
            let r = run(id, threads, None, None);
            assert_eq!(base.report, r.report, "{id}: report bytes @ {threads}");
            assert_eq!(base.trace, r.trace, "{id}: trace bytes @ {threads}");
            let extra = extra_sims(&base.sims, &r.sims, &format!("{id} @ {threads}"));
            // One search per job, so at most one evaluation that was tested
            // ahead and never popped: one program, never simulated by the
            // sequential run, at most one simulation per test.
            assert!(extra.len() <= 1, "{id} @ {threads}: extra sims {extra:x?}");
            if let Some(&(fp, n)) = extra.first() {
                assert!(!base.sims.contains_key(&fp), "{id} @ {threads}: {fp:016x}");
                assert!(n as usize <= DIFF_TESTS, "{id} @ {threads}: {n} sims");
                trailing += 1;
            }
        }
    }
    // The trailing evaluation is deterministic (it only depends on the
    // search trajectory), so its presence shows the mechanism ran.
    assert!(trailing > 0, "no run tested a candidate ahead of its pop");
}

#[test]
fn a_fully_warm_store_run_simulates_nothing() {
    let dir = std::env::temp_dir().join(format!("heterogen-test-ahead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for id in ["P3", "P5"] {
        let reference = run(id, 2, None, None);
        let sub = dir.join(id);
        let cold = run(id, 2, Some(Arc::new(Store::open(&sub).unwrap())), None);
        assert_eq!(reference.report, cold.report, "{id}: cold report bytes");
        assert_eq!(reference.trace, cold.trace, "{id}: cold trace bytes");
        assert_eq!(reference.sims, cold.sims, "{id}: cold simulations");

        let warm = run(id, 2, Some(Arc::new(Store::open(&sub).unwrap())), None);
        assert_eq!(reference.report, warm.report, "{id}: warm report bytes");
        assert_eq!(reference.trace, warm.trace, "{id}: warm trace bytes");
        assert!(
            warm.sims.is_empty(),
            "{id}: warm run simulated {:x?}",
            warm.sims
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_runs_never_test_ahead() {
    let plan: Arc<dyn FaultInjector> = Arc::new(
        FaultPlan::builder(0xC0FFEE)
            .with_transient_rate(0.35)
            .with_transient_len(2)
            .build(),
    );
    for id in ["P3", "P8"] {
        let base = run(id, 1, None, Some(plan.clone()));
        for threads in [2, 4] {
            let r = run(id, threads, None, Some(plan.clone()));
            assert_eq!(
                base.report, r.report,
                "{id}: chaos report bytes @ {threads}"
            );
            assert_eq!(base.trace, r.trace, "{id}: chaos trace bytes @ {threads}");
            // The search with an enabled injector does exactly the
            // sequential run's simulations, with no trailing evaluation.
            assert_eq!(base.sims, r.sims, "{id}: chaos simulations @ {threads}");
        }
    }
}
