//! The HeteroGen pipeline (paper Figure 1): test-input generation → initial
//! HLS version generation → iterative repair → report.
//!
//! ```text
//!  P_orig ──fuzz──▶ tests + profile
//!     │                   │
//!     └──finitize types───▶ P_broken ──repair loop──▶ P_hls + report
//! ```
//!
//! # Examples
//!
//! ```
//! use heterogen_core::{HeteroGen, JobSpec, PipelineConfig};
//!
//! let program = minic::parse(
//!     "int kernel(int x) { long double y = x; y = y + 1; return y; }",
//! ).unwrap();
//! let mut cfg = PipelineConfig::quick();
//! cfg.fuzz.idle_stop_min = 0.5;
//! cfg.fuzz.max_execs = 200;
//! let session = HeteroGen::builder().config(cfg).build();
//! let report = session.run(JobSpec::fuzz(program, "kernel", vec![])).unwrap();
//! assert!(report.success());
//! ```

use heterogen_faults::{FaultInjector, NoFaults};
use heterogen_store::{ScriptKey, Store};
use heterogen_toolchain::{SimBackend, Toolchain, VerdictStore};
use heterogen_trace::{Event, NullSink, TraceSink};
use minic::types::Type;
use minic::Program;
use minic_exec::{ExecEngine, Profile};
use repair::{EditScript, RepairOutcome, SearchConfig, SearchStop};
use serde::Serialize;
use std::sync::Arc;
use testgen::{FuzzConfig, FuzzReport, TestCase};

/// Pipeline configuration.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`PipelineConfig::builder`] (or start from [`PipelineConfig::default`] /
/// [`PipelineConfig::quick`] and assign fields) so future knobs are not
/// semver breaks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct PipelineConfig {
    /// Test-generation settings (paper §4).
    pub fuzz: FuzzConfig,
    /// Repair-search settings (paper §5).
    pub search: SearchConfig,
    /// Apply profile-guided bitwidth finitization when building the initial
    /// HLS version (the `int ret` → `fpga_uint<7>` step).
    pub bitwidth_finitization: bool,
    /// Hard per-phase work budgets; exhaustion degrades the report instead
    /// of erroring (see [`Degradation`]).
    pub budgets: PhaseBudgets,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            fuzz: FuzzConfig::default(),
            search: SearchConfig::default(),
            bitwidth_finitization: true,
            budgets: PhaseBudgets::default(),
        }
    }
}

/// Hard per-phase work budgets.
///
/// Budgets cap *work counts* (executions, toolchain evaluations), which are
/// deterministic, rather than wall-clock time. A phase that hits its budget
/// stops early and the pipeline degrades gracefully: [`Session::run`] still
/// returns `Ok` with the best result found so far plus a [`Degradation`]
/// record, never an error. `None` (the default) means unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct PhaseBudgets {
    /// Cap on fuzzer executions in the test-generation phase (tightens
    /// [`FuzzConfig::max_execs`] when smaller).
    pub fuzz_execs: Option<usize>,
    /// Cap on toolchain evaluations (full compiles + candidate simulations)
    /// in the repair phase (tightens [`SearchConfig::max_evals`]).
    pub repair_evals: Option<u64>,
}

impl PhaseBudgets {
    /// Starts a builder with no budgets set.
    pub fn builder() -> PhaseBudgetsBuilder {
        PhaseBudgetsBuilder {
            budgets: PhaseBudgets::default(),
        }
    }
}

/// Builder for [`PhaseBudgets`].
#[derive(Debug, Clone, Copy)]
pub struct PhaseBudgetsBuilder {
    budgets: PhaseBudgets,
}

impl PhaseBudgetsBuilder {
    /// Caps fuzzer executions in the test-generation phase.
    pub fn with_fuzz_execs(mut self, v: usize) -> Self {
        self.budgets.fuzz_execs = Some(v);
        self
    }

    /// Caps toolchain evaluations in the repair phase.
    pub fn with_repair_evals(mut self, v: u64) -> Self {
        self.budgets.repair_evals = Some(v);
        self
    }

    /// Finalizes the budgets.
    pub fn build(self) -> PhaseBudgets {
        self.budgets
    }
}

impl PipelineConfig {
    /// A configuration sized for fast CI runs: shorter fuzzing and a still
    /// generous repair budget (simulated minutes, not wall-clock).
    pub fn quick() -> PipelineConfig {
        PipelineConfig::builder()
            .with_fuzz(
                FuzzConfig::builder()
                    .with_idle_stop_min(2.0)
                    .with_max_execs(1500)
                    .build(),
            )
            .with_search(
                SearchConfig::builder()
                    .with_budget_min(600.0)
                    .with_max_diff_tests(24)
                    .build(),
            )
            .build()
    }

    /// Starts a builder from the default configuration.
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder {
            cfg: PipelineConfig::default(),
        }
    }

    /// Starts a builder from this configuration.
    pub fn to_builder(self) -> PipelineConfigBuilder {
        PipelineConfigBuilder { cfg: self }
    }
}

/// Builder for [`PipelineConfig`].
///
/// ```
/// use heterogen_core::PipelineConfig;
/// use testgen::FuzzConfig;
///
/// let cfg = PipelineConfig::builder()
///     .with_fuzz(FuzzConfig::builder().with_max_execs(500).build())
///     .with_bitwidth_finitization(false)
///     .build();
/// assert_eq!(cfg.fuzz.max_execs, 500);
/// ```
#[derive(Debug, Clone)]
pub struct PipelineConfigBuilder {
    cfg: PipelineConfig,
}

impl PipelineConfigBuilder {
    /// Sets the test-generation settings.
    pub fn with_fuzz(mut self, v: FuzzConfig) -> Self {
        self.cfg.fuzz = v;
        self
    }

    /// Sets the repair-search settings.
    pub fn with_search(mut self, v: SearchConfig) -> Self {
        self.cfg.search = v;
        self
    }

    /// Enables or disables profile-guided bitwidth finitization.
    pub fn with_bitwidth_finitization(mut self, v: bool) -> Self {
        self.cfg.bitwidth_finitization = v;
        self
    }

    /// Sets the per-phase work budgets.
    pub fn with_budgets(mut self, v: PhaseBudgets) -> Self {
        self.cfg.budgets = v;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> PipelineConfig {
        self.cfg
    }
}

/// Summary of the test-generation phase (one Table 4 row).
#[derive(Debug, Clone, Serialize)]
pub struct TestGenSummary {
    /// Corpus size (coverage-increasing tests).
    pub tests: usize,
    /// Inputs executed in total.
    pub executed: usize,
    /// Simulated minutes spent fuzzing.
    pub minutes: f64,
    /// Final branch coverage (0..=1).
    pub coverage: f64,
}

/// Summary of the repair phase.
#[derive(Debug, Clone)]
pub struct RepairSummary {
    /// All compatibility errors fixed and behaviour preserved.
    pub success: bool,
    /// Test pass ratio of the final program.
    pub pass_ratio: f64,
    /// Mean FPGA latency (ms).
    pub fpga_latency_ms: f64,
    /// Mean CPU latency of the original (ms).
    pub cpu_latency_ms: f64,
    /// FPGA beats CPU.
    pub improved: bool,
    /// Edit families applied on the winning path.
    pub applied: Vec<String>,
    /// Simulated minutes in the search.
    pub minutes: f64,
    /// Full HLS compilations performed.
    pub full_compiles: u64,
    /// Candidates rejected by the cheap style checker.
    pub style_rejects: u64,
    /// Total edit attempts.
    pub attempts: u64,
    /// The winning [`EditScript`] — ordered parameterized edits with their
    /// anchor context ([`applied`](RepairSummary::applied) is its flat
    /// edit-family projection, kept for report compatibility).
    pub script: EditScript,
    /// Attempts spent before the first full fix, when one was found.
    pub first_fix_attempts: Option<u64>,
    /// Whether the mined-pattern candidate tier was active.
    pub mined: bool,
}

// Manual impl: the legacy fields serialize unconditionally in their
// historical order; the script-IR fields are appended only when the mined
// tier was active, so mining-off reports stay byte-identical to
// pre-EditScript output.
impl Serialize for RepairSummary {
    fn to_json_value(&self) -> serde::Value {
        let mut fields = vec![
            ("success".to_string(), self.success.to_json_value()),
            ("pass_ratio".to_string(), self.pass_ratio.to_json_value()),
            (
                "fpga_latency_ms".to_string(),
                self.fpga_latency_ms.to_json_value(),
            ),
            (
                "cpu_latency_ms".to_string(),
                self.cpu_latency_ms.to_json_value(),
            ),
            ("improved".to_string(), self.improved.to_json_value()),
            ("applied".to_string(), self.applied.to_json_value()),
            ("minutes".to_string(), self.minutes.to_json_value()),
            (
                "full_compiles".to_string(),
                self.full_compiles.to_json_value(),
            ),
            (
                "style_rejects".to_string(),
                self.style_rejects.to_json_value(),
            ),
            ("attempts".to_string(), self.attempts.to_json_value()),
        ];
        if self.mined {
            fields.push(("script".to_string(), self.script.to_json_value()));
            fields.push((
                "first_fix_attempts".to_string(),
                match self.first_fix_attempts {
                    Some(n) => n.to_json_value(),
                    None => serde::Value::Null,
                },
            ));
            fields.push(("mined".to_string(), serde::Value::Bool(true)));
        }
        serde::Value::Object(fields)
    }
}

/// Why a phase degraded instead of completing its search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationReason {
    /// The simulated-time budget ran out.
    BudgetExhausted,
    /// The [`PhaseBudgets`] work-count cap was hit.
    EvalBudgetExhausted,
    /// A permanent toolchain fault stopped the phase.
    PermanentFault,
    /// The search space was exhausted without a full fix.
    SearchExhausted,
}

impl DegradationReason {
    /// Stable snake_case name (used in the report JSON and in
    /// [`Event::PhaseDegraded`]).
    pub fn as_str(self) -> &'static str {
        match self {
            DegradationReason::BudgetExhausted => "budget_exhausted",
            DegradationReason::EvalBudgetExhausted => "eval_budget_exhausted",
            DegradationReason::PermanentFault => "permanent_fault",
            DegradationReason::SearchExhausted => "search_exhausted",
        }
    }
}

impl std::fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One phase's record of finishing best-effort rather than completely.
///
/// A degraded pipeline still returns `Ok(PipelineReport)` carrying the best
/// candidate found; this record tells the caller (and the report JSON) what
/// was cut short and how much fault-handling work the phase absorbed.
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// Phase name (`"testgen"`, `"repair"`).
    pub phase: String,
    /// Why the phase stopped early.
    pub reason: DegradationReason,
    /// Human-readable detail (e.g. the permanent fault's message).
    pub detail: String,
    /// Retries performed while absorbing transient faults.
    pub retries: u64,
    /// Faults of any kind absorbed during the phase.
    pub faults: u64,
}

// Manual impl: the vendored serde derive handles plain structs, and
// `reason` needs its stable string name rather than a variant index.
impl Serialize for Degradation {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("phase".to_string(), self.phase.to_json_value()),
            (
                "reason".to_string(),
                serde::Value::Str(self.reason.as_str().to_string()),
            ),
            ("detail".to_string(), self.detail.to_json_value()),
            ("retries".to_string(), self.retries.to_json_value()),
            ("faults".to_string(), self.faults.to_json_value()),
        ])
    }
}

/// The full pipeline report for one subject.
///
/// Serializes to JSON (`serde::Serialize`) with the final program rendered
/// as pretty-printed HLS-C source — the shape behind
/// `reproduce run <subject> --json`. The JSON opens with a
/// `schema_version` field (see [`heterogen_trace::SCHEMA_VERSION`]);
/// [`wire::parse_versioned`] rejects documents from other versions.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Kernel (top function) name.
    pub kernel: String,
    /// Test-generation summary.
    pub testgen: TestGenSummary,
    /// Diagnostics on the initial HLS version.
    pub initial_errors: usize,
    /// Repair summary.
    pub repair: RepairSummary,
    /// Lines added relative to the original (paper Table 5 ΔLOC).
    pub delta_loc: usize,
    /// Original program size in lines.
    pub origin_loc: usize,
    /// The final program.
    pub program: Program,
    /// The generated test corpus (returned so failed repairs can "report an
    /// incomplete version with generated tests to guide manual edits").
    pub tests: Vec<TestCase>,
    /// The accumulated execution profile.
    pub profile: Profile,
    /// Phases that finished best-effort instead of completely (empty on a
    /// clean run).
    pub degradations: Vec<Degradation>,
}

// Manual impl: the wire format opens with `schema_version`, which is a
// format constant rather than a struct field.
impl Serialize for PipelineReport {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "schema_version".to_string(),
                heterogen_trace::SCHEMA_VERSION.to_json_value(),
            ),
            ("kernel".to_string(), self.kernel.to_json_value()),
            ("testgen".to_string(), self.testgen.to_json_value()),
            (
                "initial_errors".to_string(),
                self.initial_errors.to_json_value(),
            ),
            ("repair".to_string(), self.repair.to_json_value()),
            ("delta_loc".to_string(), self.delta_loc.to_json_value()),
            ("origin_loc".to_string(), self.origin_loc.to_json_value()),
            ("program".to_string(), self.program.to_json_value()),
            ("tests".to_string(), self.tests.to_json_value()),
            ("profile".to_string(), self.profile.to_json_value()),
            (
                "degradations".to_string(),
                self.degradations.to_json_value(),
            ),
        ])
    }
}

impl PipelineReport {
    /// Whether all compatibility errors were fixed with behaviour preserved.
    pub fn success(&self) -> bool {
        self.repair.success
    }

    /// Whether any phase finished best-effort instead of completely.
    pub fn degraded(&self) -> bool {
        !self.degradations.is_empty()
    }

    /// CPU/FPGA speedup of the final version (>1 means the FPGA wins).
    pub fn speedup(&self) -> f64 {
        if self.repair.fpga_latency_ms > 0.0 {
            self.repair.cpu_latency_ms / self.repair.fpga_latency_ms
        } else {
            0.0
        }
    }
}

/// Errors from the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The kernel's signature cannot be fuzzed.
    TestGen(String),
    /// The differential reference could not be built.
    Repair(String),
    /// The [`JobSpec`] itself is unusable (e.g. an unknown backend name).
    Spec(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::TestGen(m) => write!(f, "test generation failed: {m}"),
            PipelineError::Repair(m) => write!(f, "repair failed: {m}"),
            PipelineError::Spec(m) => write!(f, "invalid job spec: {m}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Resolves a backend name from a [`JobSpec`] to a live [`Toolchain`].
///
/// Accepts every name [`SimBackend::by_name`] knows. The server and
/// [`Session::run`] share this resolver, so a spec behaves identically
/// whichever path executes it.
///
/// # Errors
///
/// [`PipelineError::Spec`] for unknown names, listing the canonical ones.
pub fn resolve_backend(name: &str) -> Result<Arc<dyn Toolchain>, PipelineError> {
    SimBackend::by_name(name)
        .map(|b| Arc::new(b) as Arc<dyn Toolchain>)
        .ok_or_else(|| {
            PipelineError::Spec(format!(
                "unknown backend `{name}` (known: {})",
                SimBackend::names().join(", ")
            ))
        })
}

/// Where a job's test suite comes from.
#[derive(Debug, Clone)]
pub enum TestSource {
    /// Generate the suite by fuzzing from these seed inputs (paper §4,
    /// Algorithm 1). The seeds may be empty.
    Fuzz(Vec<TestCase>),
    /// Use an externally supplied suite (the Figure 8 "pre-existing tests
    /// only" comparison); the execution profile is collected by replay.
    Existing(Vec<TestCase>),
}

/// One unit of transpilation work, shared by [`Session::run`] and the job
/// server.
///
/// `#[non_exhaustive]`: construct one with [`JobSpec::fuzz`] /
/// [`JobSpec::with_tests`] or the full [`JobSpec::builder`], so new knobs
/// (backend, seed, budgets, client) are not semver breaks. All
/// override fields default to "inherit from the session": a bare spec
/// behaves exactly as the session is configured.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct JobSpec {
    /// The original C program.
    pub program: Program,
    /// The kernel (top function) name.
    pub kernel: String,
    /// Where the differential test suite comes from.
    pub tests: TestSource,
    /// Backend name override (see [`resolve_backend`]); `None` inherits the
    /// session's backend.
    pub backend: Option<String>,
    /// RNG seed override for *both* the fuzzer and the repair search;
    /// `None` inherits the configured seeds.
    pub seed: Option<u64>,
    /// Per-phase budget override; `None` inherits the session's budgets.
    pub budgets: Option<PhaseBudgets>,
    /// Client identity for the server's fair-share admission. The library
    /// path ignores it.
    pub client: String,
    /// Enables the mined-pattern candidate tier: fix patterns persisted in
    /// (or mined on the fly from) the job's [`Store`] are tried ahead of
    /// the static precedence order, and the winning [`EditScript`] plus
    /// first-fix attempt counts are added to the report. Off (the default)
    /// the report and trace are byte-identical to a run without this
    /// field. Requires a store; without one the flag is inert.
    pub mined: bool,
}

/// The client id a [`JobSpec`] carries unless [`JobSpecBuilder::client`]
/// sets one.
pub const ANONYMOUS_CLIENT: &str = "anonymous";

impl JobSpec {
    /// A spec whose test suite is fuzzed from `seeds` (which may be empty).
    pub fn fuzz(program: Program, kernel: impl Into<String>, seeds: Vec<TestCase>) -> JobSpec {
        JobSpec::builder(program, kernel).seeds(seeds).build()
    }

    /// A spec that runs against an externally supplied test suite.
    pub fn with_tests(
        program: Program,
        kernel: impl Into<String>,
        tests: Vec<TestCase>,
    ) -> JobSpec {
        JobSpec::builder(program, kernel)
            .existing_tests(tests)
            .build()
    }

    /// Starts a builder for `program`'s `kernel`; the test source defaults
    /// to fuzzing from no seeds.
    pub fn builder(program: Program, kernel: impl Into<String>) -> JobSpecBuilder {
        JobSpecBuilder {
            spec: JobSpec {
                program,
                kernel: kernel.into(),
                tests: TestSource::Fuzz(Vec::new()),
                backend: None,
                seed: None,
                budgets: None,
                client: ANONYMOUS_CLIENT.to_string(),
                mined: false,
            },
        }
    }
}

/// Builder for [`JobSpec`].
///
/// ```
/// use heterogen_core::{JobSpec, PhaseBudgets};
///
/// let program = minic::parse("int kernel(int x) { return x + 1; }").unwrap();
/// let spec = JobSpec::builder(program, "kernel")
///     .backend("embedded")
///     .seed(42)
///     .budgets(PhaseBudgets::builder().with_repair_evals(500).build())
///     .client("team-a")
///     .build();
/// assert_eq!(spec.client, "team-a");
/// assert_eq!(spec.seed, Some(42));
/// ```
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    spec: JobSpec,
}

impl JobSpecBuilder {
    /// Fuzzes the test suite from these seed inputs (may be empty).
    pub fn seeds(mut self, seeds: Vec<TestCase>) -> Self {
        self.spec.tests = TestSource::Fuzz(seeds);
        self
    }

    /// Uses an externally supplied test suite instead of fuzzing.
    pub fn existing_tests(mut self, tests: Vec<TestCase>) -> Self {
        self.spec.tests = TestSource::Existing(tests);
        self
    }

    /// Overrides the backend by name (see [`resolve_backend`]).
    pub fn backend(mut self, name: impl Into<String>) -> Self {
        self.spec.backend = Some(name.into());
        self
    }

    /// Overrides the RNG seed for both the fuzzer and the repair search.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = Some(seed);
        self
    }

    /// Overrides the per-phase work budgets.
    pub fn budgets(mut self, budgets: PhaseBudgets) -> Self {
        self.spec.budgets = Some(budgets);
        self
    }

    /// Names the submitting client (for the server's fair-share admission).
    pub fn client(mut self, client: impl Into<String>) -> Self {
        self.spec.client = client.into();
        self
    }

    /// Enables the mined-pattern candidate tier (see [`JobSpec::mined`]).
    pub fn mined(mut self, v: bool) -> Self {
        self.spec.mined = v;
        self
    }

    /// Finalizes the spec.
    pub fn build(self) -> JobSpec {
        self.spec
    }
}

/// A configured pipeline instance: a [`PipelineConfig`] plus a
/// [`TraceSink`] every phase reports through. Build one with
/// [`HeteroGen::builder`].
///
/// Events are emitted from the pipeline's sequential sections only (the
/// merge phases of the fuzzer and the repair search, and the phase
/// transitions here), so for a fixed job the event stream is byte-identical
/// at every thread count.
#[derive(Clone)]
pub struct Session {
    config: PipelineConfig,
    sink: Arc<dyn TraceSink>,
    faults: Arc<dyn FaultInjector>,
    backend: Arc<dyn Toolchain>,
    store: Option<Arc<Store>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("config", &self.config)
            .field("sink_enabled", &self.sink.enabled())
            .field("faults_enabled", &self.faults.enabled())
            .field("backend", &self.backend.info().name)
            .field("store_enabled", &self.store.is_some())
            .finish()
    }
}

/// Builder for [`Session`].
#[derive(Clone)]
pub struct SessionBuilder {
    config: PipelineConfig,
    sink: Arc<dyn TraceSink>,
    faults: Arc<dyn FaultInjector>,
    backend: Arc<dyn Toolchain>,
    store: Option<Arc<Store>>,
}

impl SessionBuilder {
    /// Sets the pipeline configuration (default: [`PipelineConfig::default`]).
    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the trace sink (default: [`NullSink`], i.e. tracing off).
    pub fn sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = sink;
        self
    }

    /// Sets the fault injector (default: [`NoFaults`], i.e. chaos off).
    ///
    /// The repair phase threads the injector through every toolchain
    /// invocation; a deterministic plan
    /// ([`heterogen_faults::FaultPlan`]) makes a whole pipeline run
    /// reproducible chaos.
    pub fn faults(mut self, faults: Arc<dyn FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the HLS toolchain backend every check, compile, and simulation
    /// goes through (default: [`SimBackend::default_profile`]). Pick another
    /// device profile — e.g. [`SimBackend::embedded_profile`] — or any
    /// custom [`Toolchain`] implementation to retarget the whole pipeline.
    pub fn backend<B: Toolchain + 'static>(mut self, backend: B) -> Self {
        self.backend = Arc::new(backend);
        self
    }

    /// Attaches a persistent evaluation store (default: none). Verdicts
    /// and fuzz campaigns are memoized across process runs; because every
    /// phase bills simulated cost independently of how an evaluation was
    /// satisfied, a warm store changes wall-clock time only — reports and
    /// traces stay byte-identical to a cold run.
    pub fn store(mut self, store: Arc<Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Finalizes the session.
    pub fn build(self) -> Session {
        Session {
            config: self.config,
            sink: self.sink,
            faults: self.faults,
            backend: self.backend,
            store: self.store,
        }
    }
}

impl Session {
    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Test generation with persistent-corpus warm start: a recorded
    /// campaign for the same `(program, kernel, seeds, config)` key is
    /// replayed — corpus, profile, counters, and the exact `FuzzRoundEnd`
    /// event stream — without executing a single input; a cold campaign
    /// runs normally and is then recorded.
    fn fuzz_with_warm_start(
        &self,
        original: &Program,
        kernel: &str,
        seeds: Vec<TestCase>,
        fuzz_cfg: &FuzzConfig,
        sink: &dyn TraceSink,
    ) -> Result<FuzzReport, PipelineError> {
        let Some(store) = &self.store else {
            return testgen::fuzz_traced(original, kernel, seeds, fuzz_cfg, sink)
                .map_err(PipelineError::TestGen);
        };
        let key = heterogen_store::fuzz_campaign_key(
            minic::fingerprint_program(original),
            kernel,
            &seeds,
            fuzz_cfg,
        );
        if let Some(report) = store.get_corpus(&key) {
            if sink.enabled() {
                for round in &report.rounds {
                    sink.emit(&round.event());
                }
            }
            return Ok(report);
        }
        let report = testgen::fuzz_traced(original, kernel, seeds, fuzz_cfg, sink)
            .map_err(PipelineError::TestGen)?;
        store.put_corpus(&key, &report);
        Ok(report)
    }

    /// Runs the full pipeline on one [`JobSpec`].
    ///
    /// Spec-level overrides — backend name, RNG seed, budgets —
    /// take precedence over the session's configuration; a spec with no
    /// overrides behaves exactly as the session is configured.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] when the spec is invalid (including a
    /// program deeper than [`minic::MAX_AST_DEPTH`], which the recursive
    /// passes could not survive), the kernel cannot be fuzzed, or the
    /// reference execution fails outright.
    pub fn run(&self, job: JobSpec) -> Result<PipelineReport, PipelineError> {
        let depth = minic::ast_depth(&job.program);
        if depth > minic::MAX_AST_DEPTH {
            return Err(PipelineError::Spec(format!(
                "program AST depth {depth} exceeds the limit of {} levels",
                minic::MAX_AST_DEPTH
            )));
        }
        let sink = self.sink.as_ref();
        let JobSpec {
            program: original,
            kernel,
            tests,
            backend,
            seed,
            budgets,
            client: _,
            mined,
        } = job;
        let backend: Arc<dyn Toolchain> = match backend {
            None => self.backend.clone(),
            Some(name) => resolve_backend(&name)?,
        };
        let budgets = budgets.unwrap_or(self.config.budgets);
        if sink.enabled() {
            sink.emit(&Event::PhaseEnter {
                phase: "testgen".to_string(),
                at_min: 0.0,
            });
        }
        let mut degradations: Vec<Degradation> = Vec::new();
        // 1. Test generation (paper §4, Algorithm 1) — or replay of a
        //    pre-existing suite to collect the profile.
        let mut fuzz_cfg = self.config.fuzz;
        if let Some(seed) = seed {
            fuzz_cfg.rng_seed = seed;
        }
        let fuzz_cap = budgets.fuzz_execs.filter(|cap| *cap < fuzz_cfg.max_execs);
        if let Some(cap) = fuzz_cap {
            fuzz_cfg.max_execs = cap;
        }
        let (tests, profile, fuzz_report) = match tests {
            TestSource::Fuzz(seeds) => {
                let fuzz_report =
                    self.fuzz_with_warm_start(&original, &kernel, seeds, &fuzz_cfg, sink)?;
                (
                    fuzz_report.corpus.clone(),
                    fuzz_report.profile.clone(),
                    Some(fuzz_report),
                )
            }
            TestSource::Existing(tests) => {
                let mut profile = Profile::new();
                let prepared = minic_exec::Prepared::new(ExecEngine::Bytecode, &original);
                for t in &tests {
                    if let Ok(mut m) = prepared.runner(minic_exec::MachineConfig::cpu()) {
                        let _ = m.run_kernel(&kernel, t);
                        profile.merge(&m.profile());
                    }
                }
                (tests, profile, None)
            }
        };
        let testgen_min = fuzz_report.as_ref().map(|r| r.sim_minutes).unwrap_or(0.0);
        if sink.enabled() {
            sink.emit(&Event::PhaseExit {
                phase: "testgen".to_string(),
                at_min: testgen_min,
                elapsed_min: testgen_min,
            });
        }
        // A budget tighter than the configured exec limit that the fuzzer
        // actually ran into degrades the phase: the corpus is whatever
        // coverage the capped run found, not the idle-stop fixpoint.
        if let (Some(cap), Some(r)) = (fuzz_cap, fuzz_report.as_ref()) {
            if r.executed >= cap {
                degradations.push(Degradation {
                    phase: "testgen".to_string(),
                    reason: DegradationReason::EvalBudgetExhausted,
                    detail: format!("fuzzing stopped at the {cap}-execution budget"),
                    retries: 0,
                    faults: 0,
                });
                if sink.enabled() {
                    sink.emit(&Event::PhaseDegraded {
                        phase: "testgen".to_string(),
                        reason: DegradationReason::EvalBudgetExhausted.as_str().to_string(),
                        at_min: testgen_min,
                    });
                }
            }
        }

        // 2. Initial HLS version with estimated types.
        let broken = if self.config.bitwidth_finitization {
            initial_version(&original, &profile)
        } else {
            original.clone()
        };
        let initial_errors = backend.diagnose(&broken).len();

        // 3–5. Iterative repair with differential testing.
        if sink.enabled() {
            sink.emit(&Event::PhaseEnter {
                phase: "repair".to_string(),
                at_min: testgen_min,
            });
        }
        let mut search_cfg = self.config.search.clone();
        if let Some(seed) = seed {
            search_cfg.rng_seed = seed;
        }
        search_cfg.max_evals = match (search_cfg.max_evals, budgets.repair_evals) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        // The mined tier feeds off the store: persisted patterns if a
        // `reproduce mine` pass recorded them, else patterns mined on the
        // fly from the winning scripts of earlier successful runs.
        if mined {
            if let Some(store) = &self.store {
                let mut patterns = store.patterns();
                if patterns.is_empty() {
                    let scripts: Vec<EditScript> =
                        store.scripts().into_iter().map(|(_, s)| s).collect();
                    patterns = repair::mine::mine_patterns(&scripts);
                }
                search_cfg.mined = Arc::new(patterns);
            }
        }
        let outcome: RepairOutcome = repair::repair_persistent(
            &original,
            broken,
            &kernel,
            &tests,
            &profile,
            &search_cfg,
            sink,
            self.faults.as_ref(),
            backend.as_ref(),
            self.store.clone().map(|s| s as Arc<dyn VerdictStore>),
        )
        .map_err(PipelineError::Repair)?;
        // Every successful repair banks its winning script — whether or not
        // the mined tier was active — so any store accumulates the raw
        // material `reproduce mine` and later mined runs learn from.
        if outcome.success {
            if let Some(store) = &self.store {
                store.put_script(
                    &ScriptKey {
                        program_fp: minic::fingerprint_program(&original),
                        kernel: kernel.clone(),
                        backend: backend.info().name.clone(),
                    },
                    &outcome.script,
                );
            }
        }
        let repair_end_min = testgen_min + outcome.stats.elapsed_min;
        if sink.enabled() {
            sink.emit(&Event::PhaseExit {
                phase: "repair".to_string(),
                at_min: repair_end_min,
                elapsed_min: outcome.stats.elapsed_min,
            });
        }
        // A permanent fault always degrades the phase (the search was cut
        // off, even if a repair had already been found); the other early
        // stops only matter when the search did not converge.
        let repair_degradation = match (&outcome.stop, outcome.success) {
            (SearchStop::PermanentFault(detail), _) => {
                Some((DegradationReason::PermanentFault, detail.clone()))
            }
            (SearchStop::Converged, _) | (_, true) => None,
            (SearchStop::EvalBudgetExhausted, false) => Some((
                DegradationReason::EvalBudgetExhausted,
                "toolchain evaluation budget exhausted before convergence".to_string(),
            )),
            (SearchStop::BudgetExpired, false) => Some((
                DegradationReason::BudgetExhausted,
                "simulated time budget expired before convergence".to_string(),
            )),
            (SearchStop::FrontierExhausted, false) => Some((
                DegradationReason::SearchExhausted,
                "candidate frontier exhausted without a full fix".to_string(),
            )),
        };
        if let Some((reason, detail)) = repair_degradation {
            degradations.push(Degradation {
                phase: "repair".to_string(),
                reason,
                detail,
                retries: outcome.resilience.retries,
                faults: outcome.resilience.transient_faults
                    + outcome.resilience.permanent_faults
                    + outcome.resilience.crashes,
            });
            if sink.enabled() {
                sink.emit(&Event::PhaseDegraded {
                    phase: "repair".to_string(),
                    reason: reason.as_str().to_string(),
                    at_min: repair_end_min,
                });
            }
        }

        let delta_loc = minic::diff::line_diff(
            &minic::print_program(&original),
            &minic::print_program(&outcome.program),
        )
        .delta_loc();

        Ok(PipelineReport {
            kernel,
            testgen: TestGenSummary {
                tests: tests.len(),
                executed: fuzz_report
                    .as_ref()
                    .map(|r| r.executed)
                    .unwrap_or(tests.len()),
                minutes: testgen_min,
                coverage: fuzz_report.as_ref().map(|r| r.coverage).unwrap_or(0.0),
            },
            initial_errors,
            repair: RepairSummary {
                success: outcome.success,
                pass_ratio: outcome.pass_ratio,
                fpga_latency_ms: outcome.fpga_latency_ms,
                cpu_latency_ms: outcome.cpu_latency_ms,
                improved: outcome.improved,
                applied: outcome.applied.clone(),
                minutes: outcome.stats.elapsed_min,
                full_compiles: outcome.stats.full_compiles,
                style_rejects: outcome.stats.style_rejects,
                attempts: outcome.stats.attempts,
                script: outcome.script.clone(),
                first_fix_attempts: outcome.stats.first_success_attempts,
                mined: !search_cfg.mined.is_empty(),
            },
            delta_loc,
            origin_loc: minic::loc(&original),
            program: outcome.program,
            tests,
            profile,
            degradations,
        })
    }
}

/// The transpiler entry point.
///
/// The pipeline is driven through a [`Session`] built with
/// [`HeteroGen::builder`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HeteroGen;

impl HeteroGen {
    /// Starts a [`Session`] builder (tracing off, chaos off, and the default
    /// [`SimBackend`] device profile).
    pub fn builder() -> SessionBuilder {
        SessionBuilder {
            config: PipelineConfig::default(),
            sink: Arc::new(NullSink),
            faults: Arc::new(NoFaults),
            backend: Arc::new(SimBackend::default_profile()),
            store: None,
        }
    }
}

/// Builds the initial HLS version: profile-guided bitwidth finitization of
/// local integer scalars (paper §4 "Initial HLS-C Version Generation").
///
/// Only *locals* are narrowed — parameters keep their interface types, and
/// narrowing never widens an already-narrow declaration. The profiled range
/// covers every fuzzed execution, so narrowing is behaviour-preserving on
/// the generated suite (over-estimation, never under-estimation, matching
/// the paper's §6.5 discussion).
pub fn initial_version(p: &Program, profile: &Profile) -> Program {
    let mut out = p.clone();
    for ((function, var), range) in &profile.int_ranges {
        let Some(f) = p.function(function) else {
            continue;
        };
        if f.params.iter().any(|q| &q.name == var) {
            continue;
        }
        let Some(declared) = minic::edit::declared_type(p, Some(function), var) else {
            continue;
        };
        let Type::Int { width, .. } = declared else {
            continue;
        };
        let (bits, signed) = range.required_bits();
        if bits < width.bits() {
            minic::edit::rewrite_decl_type(
                &mut out,
                var,
                Some(function),
                Type::FpgaInt { bits, signed },
            );
        }
    }
    out
}

/// Versioned wire-format helpers for server clients.
///
/// Every serialized [`PipelineReport`] opens with a `schema_version` field
/// and every JSONL trace stream opens with a schema header line (both carry
/// [`heterogen_trace::SCHEMA_VERSION`]). These helpers parse such documents
/// and *reject* versions they do not understand, so a client talking to a
/// newer server fails loudly instead of misreading fields.
pub mod wire {
    use heterogen_trace::SCHEMA_VERSION;

    /// Why a wire document was rejected.
    #[derive(Debug, Clone, PartialEq)]
    pub enum WireError {
        /// The document is not valid JSON (or the trace stream is empty).
        Malformed(String),
        /// No `schema_version` field / schema header line was found.
        MissingVersion,
        /// The document declares a version this build does not speak.
        UnsupportedVersion {
            /// The version the document declared.
            found: i128,
            /// The version this build supports.
            supported: u32,
        },
    }

    impl std::fmt::Display for WireError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                WireError::Malformed(m) => write!(f, "malformed wire document: {m}"),
                WireError::MissingVersion => write!(f, "wire document carries no schema_version"),
                WireError::UnsupportedVersion { found, supported } => write!(
                    f,
                    "unsupported schema_version {found} (this build speaks {supported})"
                ),
            }
        }
    }

    impl std::error::Error for WireError {}

    fn check_version(found: i128) -> Result<(), WireError> {
        if found == i128::from(SCHEMA_VERSION) {
            Ok(())
        } else {
            Err(WireError::UnsupportedVersion {
                found,
                supported: SCHEMA_VERSION,
            })
        }
    }

    /// Parses a versioned JSON document (e.g. a serialized
    /// [`PipelineReport`](super::PipelineReport)), verifying its
    /// `schema_version` matches this build's.
    ///
    /// # Errors
    ///
    /// [`WireError`] on malformed JSON, a missing version field, or a
    /// version mismatch.
    pub fn parse_versioned(json: &str) -> Result<serde::Value, WireError> {
        let doc = serde_json::from_str(json).map_err(|e| WireError::Malformed(e.to_string()))?;
        let found = doc
            .get("schema_version")
            .and_then(serde::Value::as_i128)
            .ok_or(WireError::MissingVersion)?;
        check_version(found)?;
        Ok(doc)
    }

    /// Verifies a JSONL trace stream opens with a schema header line this
    /// build understands.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the stream is empty, the first line is not a
    /// schema header, or the version does not match.
    pub fn check_trace_header(stream: &str) -> Result<(), WireError> {
        let first = stream
            .lines()
            .next()
            .ok_or_else(|| WireError::Malformed("empty trace stream".to_string()))?;
        let doc = serde_json::from_str(first).map_err(|e| WireError::Malformed(e.to_string()))?;
        if doc.get("event").and_then(serde::Value::as_str) != Some("schema") {
            return Err(WireError::MissingVersion);
        }
        let found = doc
            .get("schema_version")
            .and_then(serde::Value::as_i128)
            .ok_or(WireError::MissingVersion)?;
        check_version(found)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic_exec::ArgValue;

    fn dump_on_failure(report: &PipelineReport) -> bool {
        if !report.success() {
            eprintln!(
                "repair failed: pass={} applied={:?} initial_errors={}",
                report.repair.pass_ratio, report.repair.applied, report.initial_errors
            );
        }
        report.success()
    }

    #[test]
    fn initial_version_narrows_profiled_locals() {
        let p =
            minic::parse("int kernel(int x) { int ret = 0; ret = 83; return ret + x; }").unwrap();
        let mut profile = Profile::new();
        profile.record_int("kernel", "ret", 0);
        profile.record_int("kernel", "ret", 83);
        let q = initial_version(&p, &profile);
        let src = minic::print_program(&q);
        assert!(src.contains("fpga_uint<7> ret"), "{src}");
    }

    #[test]
    fn initial_version_keeps_parameters() {
        let p = minic::parse("int kernel(int x) { return x; }").unwrap();
        let mut profile = Profile::new();
        profile.record_int("kernel", "x", 3);
        let q = initial_version(&p, &profile);
        assert_eq!(minic::print_program(&p), minic::print_program(&q));
    }

    #[test]
    fn pipeline_repairs_and_reports() {
        let p =
            minic::parse("int kernel(int x) { long double y = x; y = y + 1; return y; }").unwrap();
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.5;
        cfg.fuzz.max_execs = 200;
        let session = HeteroGen::builder().config(cfg).build();
        let report = session.run(JobSpec::fuzz(p, "kernel", vec![])).unwrap();
        assert!(dump_on_failure(&report));
        assert!(report.testgen.tests > 0);
        assert!(report.delta_loc <= 10);
        assert!(SimBackend::default_profile()
            .diagnose(&report.program)
            .is_empty());
    }

    #[test]
    fn pipeline_with_seeds() {
        let p = minic::parse(
            "int kernel(int a[4]) { int s = 0; for (int i = 0; i < 4; i++) { s += a[i]; } return s; }",
        )
        .unwrap();
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.3;
        cfg.fuzz.max_execs = 200;
        let seeds = vec![vec![ArgValue::IntArray(vec![1, 2, 3, 4])]];
        let session = HeteroGen::builder().config(cfg).build();
        let report = session.run(JobSpec::fuzz(p, "kernel", seeds)).unwrap();
        assert!(dump_on_failure(&report));
    }

    #[test]
    fn existing_tests_mode_profiles_by_replay() {
        let p = minic::parse("int kernel(int x) { int r = 0; if (x > 0) { r = x; } return r; }")
            .unwrap();
        let cfg = PipelineConfig::quick();
        let tests = vec![vec![ArgValue::Int(5)], vec![ArgValue::Int(-1)]];
        let session = HeteroGen::builder().config(cfg).build();
        let report = session
            .run(JobSpec::with_tests(p, "kernel", tests))
            .unwrap();
        assert!(dump_on_failure(&report));
        assert_eq!(report.testgen.tests, 2);
        assert!(report.profile.range_of("kernel", "r").is_some());
    }

    #[test]
    fn speedup_computation() {
        let p = minic::parse("int kernel(int x) { return x; }").unwrap();
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.2;
        cfg.fuzz.max_execs = 100;
        let session = HeteroGen::builder().config(cfg).build();
        let report = session.run(JobSpec::fuzz(p, "kernel", vec![])).unwrap();
        assert!(report.speedup() > 0.0);
    }

    #[test]
    fn embedded_backend_runs_the_pipeline_end_to_end() {
        let p =
            minic::parse("int kernel(int x) { long double y = x; y = y + 1; return y; }").unwrap();
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.5;
        cfg.fuzz.max_execs = 200;
        let session = HeteroGen::builder()
            .config(cfg.clone())
            .backend(SimBackend::embedded_profile())
            .build();
        assert!(format!("{session:?}").contains("hls_sim-embedded"));
        let report = session
            .run(JobSpec::fuzz(p.clone(), "kernel", vec![]))
            .unwrap();
        assert!(dump_on_failure(&report));
        // The embedded compile farm is slower, so the same repair consumes
        // more of the simulated budget than the datacenter profile does.
        let default_report = HeteroGen::builder()
            .config(cfg)
            .build()
            .run(JobSpec::fuzz(p, "kernel", vec![]))
            .unwrap();
        assert!(report.repair.minutes > default_report.repair.minutes);
    }

    #[test]
    fn eval_budget_exhaustion_degrades_instead_of_erroring() {
        let p =
            minic::parse("int kernel(int x) { long double y = x; y = y + 1; return y; }").unwrap();
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.2;
        cfg.fuzz.max_execs = 100;
        // One toolchain evaluation is spent on the initial compile, so the
        // search stops before repairing anything.
        cfg.budgets = PhaseBudgets::builder().with_repair_evals(1).build();
        let session = HeteroGen::builder().config(cfg).build();
        let report = session
            .run(JobSpec::fuzz(p, "kernel", vec![]))
            .expect("budget exhaustion must not be an error");
        assert!(!report.success());
        assert!(report.degraded());
        let d = &report.degradations[0];
        assert_eq!(d.phase, "repair");
        assert_eq!(d.reason, DegradationReason::EvalBudgetExhausted);
        let json = serde_json::to_string(&report).unwrap();
        assert!(
            json.contains(r#""reason":"eval_budget_exhausted""#),
            "{json}"
        );
    }

    #[test]
    fn fuzz_exec_budget_degrades_testgen_phase() {
        let p = minic::parse("int kernel(int x) { return x + 1; }").unwrap();
        let mut cfg = PipelineConfig::quick();
        // An idle-stop far beyond what 40 executions can reach, so the
        // budget is the binding constraint.
        cfg.fuzz.idle_stop_min = 50.0;
        cfg.fuzz.max_execs = 100_000;
        cfg.budgets = PhaseBudgets::builder().with_fuzz_execs(40).build();
        let session = HeteroGen::builder().config(cfg).build();
        let report = session.run(JobSpec::fuzz(p, "kernel", vec![])).unwrap();
        assert!(report
            .degradations
            .iter()
            .any(|d| d.phase == "testgen" && d.reason == DegradationReason::EvalBudgetExhausted));
        assert!(report.testgen.executed <= 40 + 8, "cap roughly respected");
    }

    #[test]
    fn permanent_fault_degrades_the_repair_phase() {
        let p =
            minic::parse("int kernel(int x) { long double y = x; y = y + 1; return y; }").unwrap();
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.2;
        cfg.fuzz.max_execs = 100;
        let plan = heterogen_faults::FaultPlan::builder(11)
            .with_permanent_rate(1.0)
            .build();
        let session = HeteroGen::builder()
            .config(cfg)
            .faults(Arc::new(plan))
            .build();
        let report = session
            .run(JobSpec::fuzz(p, "kernel", vec![]))
            .expect("a permanent fault degrades, it does not error");
        assert!(report
            .degradations
            .iter()
            .any(|d| d.phase == "repair" && d.reason == DegradationReason::PermanentFault));
    }

    #[test]
    fn clean_runs_report_no_degradations() {
        let p = minic::parse("int kernel(int x) { return x + 1; }").unwrap();
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.2;
        cfg.fuzz.max_execs = 100;
        let session = HeteroGen::builder().config(cfg).build();
        let report = session.run(JobSpec::fuzz(p, "kernel", vec![])).unwrap();
        assert!(report.success());
        assert!(!report.degraded());
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains(r#""degradations":[]"#), "{json}");
    }

    #[test]
    fn bare_spec_inherits_every_session_setting() {
        let spec = JobSpec::fuzz(
            minic::parse("int kernel(int x) { return x; }").unwrap(),
            "kernel",
            vec![],
        );
        assert_eq!(spec.kernel, "kernel");
        assert!(matches!(&spec.tests, TestSource::Fuzz(s) if s.is_empty()));
        assert_eq!(spec.backend, None);
        assert_eq!(spec.seed, None);
        assert_eq!(spec.budgets, None);
        assert_eq!(spec.client, ANONYMOUS_CLIENT);
        assert!(!spec.mined);
    }

    #[test]
    fn a_job_past_the_ast_depth_bound_is_refused() {
        // Only a hand-built program carries this chain past the parser; on
        // a 2 MiB debug thread the pipeline's recursive passes would
        // overflow the stack and abort the process.
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut p = minic::parse("int kernel(int x) { return x; }").unwrap();
                let mut e = minic::Expr::ident("x");
                for _ in 0..1000 {
                    e = minic::Expr::synth(minic::ExprKind::Unary(
                        minic::ast::UnOp::Neg,
                        Box::new(e),
                    ));
                }
                let body = &mut p.function_mut("kernel").unwrap().body.as_mut().unwrap();
                body.stmts_mut()[0].kind = minic::StmtKind::Return(Some(e));
                p.renumber_synthesized();
                let session = HeteroGen::builder().config(PipelineConfig::quick()).build();
                let err = session.run(JobSpec::fuzz(p, "kernel", vec![])).unwrap_err();
                assert!(
                    matches!(&err, PipelineError::Spec(m) if m.contains("AST depth 1002")),
                    "{err}"
                );
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn spec_seed_override_matches_reconfigured_session() {
        let p = minic::parse("int kernel(int x) { return x + 1; }").unwrap();
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.2;
        cfg.fuzz.max_execs = 100;
        let session = HeteroGen::builder().config(cfg.clone()).build();
        let via_spec = session
            .run(JobSpec::builder(p.clone(), "kernel").seed(42).build())
            .unwrap();

        let mut reconfigured = cfg;
        reconfigured.fuzz.rng_seed = 42;
        reconfigured.search.rng_seed = 42;
        let direct = HeteroGen::builder()
            .config(reconfigured)
            .build()
            .run(JobSpec::fuzz(p, "kernel", vec![]))
            .unwrap();
        assert_eq!(
            serde_json::to_string(&via_spec).unwrap(),
            serde_json::to_string(&direct).unwrap(),
            "a spec seed must behave exactly like configuring both RNGs"
        );
    }

    #[test]
    fn spec_backend_override_matches_session_backend() {
        let p =
            minic::parse("int kernel(int x) { long double y = x; y = y + 1; return y; }").unwrap();
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.5;
        cfg.fuzz.max_execs = 200;
        let via_spec = HeteroGen::builder()
            .config(cfg.clone())
            .build()
            .run(
                JobSpec::builder(p.clone(), "kernel")
                    .backend("embedded")
                    .build(),
            )
            .unwrap();
        let via_session = HeteroGen::builder()
            .config(cfg)
            .backend(SimBackend::embedded_profile())
            .build()
            .run(JobSpec::fuzz(p, "kernel", vec![]))
            .unwrap();
        assert_eq!(
            serde_json::to_string(&via_spec).unwrap(),
            serde_json::to_string(&via_session).unwrap()
        );
    }

    #[test]
    fn unknown_backend_is_a_spec_error() {
        let p = minic::parse("int kernel(int x) { return x; }").unwrap();
        let session = HeteroGen::builder().config(PipelineConfig::quick()).build();
        let err = session
            .run(JobSpec::builder(p, "kernel").backend("asic-9000").build())
            .unwrap_err();
        assert!(matches!(err, PipelineError::Spec(_)), "{err}");
        assert!(err.to_string().contains("asic-9000"));
    }

    #[test]
    fn spec_budgets_override_the_session_budgets() {
        let p =
            minic::parse("int kernel(int x) { long double y = x; y = y + 1; return y; }").unwrap();
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.2;
        cfg.fuzz.max_execs = 100;
        let session = HeteroGen::builder().config(cfg).build();
        let spec = JobSpec::builder(p, "kernel")
            .budgets(PhaseBudgets::builder().with_repair_evals(1).build())
            .build();
        let report = session.run(spec).unwrap();
        assert!(report
            .degradations
            .iter()
            .any(|d| d.phase == "repair" && d.reason == DegradationReason::EvalBudgetExhausted));
    }

    #[test]
    fn report_json_is_versioned_and_round_trips() {
        let p = minic::parse("int kernel(int x) { return x + 1; }").unwrap();
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.2;
        cfg.fuzz.max_execs = 100;
        let session = HeteroGen::builder().config(cfg).build();
        let report = session.run(JobSpec::fuzz(p, "kernel", vec![])).unwrap();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let doc = wire::parse_versioned(&json).expect("current version parses");
        assert_eq!(
            doc.get("kernel").and_then(serde::Value::as_str),
            Some("kernel")
        );
        assert_eq!(
            doc.get("schema_version").and_then(serde::Value::as_i128),
            Some(i128::from(heterogen_trace::SCHEMA_VERSION))
        );
    }

    #[test]
    fn wire_rejects_bumped_and_missing_versions() {
        let bumped = format!(
            "{{\"schema_version\": {}, \"kernel\": \"k\"}}",
            heterogen_trace::SCHEMA_VERSION + 1
        );
        assert_eq!(
            wire::parse_versioned(&bumped),
            Err(wire::WireError::UnsupportedVersion {
                found: i128::from(heterogen_trace::SCHEMA_VERSION + 1),
                supported: heterogen_trace::SCHEMA_VERSION,
            })
        );
        assert_eq!(
            wire::parse_versioned("{\"kernel\": \"k\"}"),
            Err(wire::WireError::MissingVersion)
        );
        assert!(matches!(
            wire::parse_versioned("not json"),
            Err(wire::WireError::Malformed(_))
        ));
    }

    #[test]
    fn wire_checks_trace_headers() {
        let sink = heterogen_trace::JsonlSink::new();
        wire::check_trace_header(&sink.contents()).expect("fresh stream carries the header");
        assert_eq!(
            wire::check_trace_header(
                "{\"event\":\"schema\",\"schema_version\":999}\n{\"event\":\"phase_enter\"}\n"
            ),
            Err(wire::WireError::UnsupportedVersion {
                found: 999,
                supported: heterogen_trace::SCHEMA_VERSION,
            })
        );
        assert_eq!(
            wire::check_trace_header("{\"event\":\"phase_enter\",\"phase\":\"x\"}\n"),
            Err(wire::WireError::MissingVersion)
        );
        assert!(wire::check_trace_header("").is_err());
    }

    #[test]
    fn mined_tier_banks_scripts_and_extends_the_report() {
        let dir = std::env::temp_dir().join(format!("hg-core-mined-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p =
            minic::parse("int kernel(int x) { long double y = x; y = y + 1; return y; }").unwrap();
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.2;
        cfg.fuzz.max_execs = 100;
        let store = Arc::new(Store::open(&dir).unwrap());
        let session = HeteroGen::builder()
            .config(cfg)
            .store(store.clone())
            .build();
        // A plain store run banks the winning script but reports nothing new.
        let cold = session
            .run(JobSpec::fuzz(p.clone(), "kernel", vec![]))
            .unwrap();
        assert!(dump_on_failure(&cold));
        let cold_json = serde_json::to_string(&cold).unwrap();
        assert!(!cold_json.contains("\"script\":"), "{cold_json}");
        assert_eq!(store.stats().scripts, 1);
        // A mined run feeds the banked script back and reports the IR.
        let mined = session
            .run(JobSpec::builder(p, "kernel").mined(true).build())
            .unwrap();
        assert!(dump_on_failure(&mined));
        assert!(mined.repair.mined);
        assert!(!mined.repair.script.is_empty());
        assert_eq!(mined.repair.script.kind_names(), mined.repair.applied);
        assert!(mined.repair.first_fix_attempts.is_some());
        let mined_json = serde_json::to_string(&mined).unwrap();
        assert!(mined_json.contains("\"script\":"), "{mined_json}");
        assert!(mined_json.contains("\"mined\":true"), "{mined_json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_emits_phase_events() {
        let p = minic::parse("int kernel(int x) { return x + 1; }").unwrap();
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.2;
        cfg.fuzz.max_execs = 100;
        let metrics = std::sync::Arc::new(heterogen_trace::MetricsSink::new());
        let session = HeteroGen::builder()
            .config(cfg)
            .sink(metrics.clone())
            .build();
        let report = session.run(JobSpec::fuzz(p, "kernel", vec![])).unwrap();
        assert!(report.success());
        assert_eq!(metrics.counter("phase_enter"), 2);
        assert_eq!(metrics.counter("phase_exit"), 2);
        let tg = metrics.histogram("phase.testgen.min").unwrap();
        assert!((tg.sum() - report.testgen.minutes).abs() < 1e-12);
        let rp = metrics.histogram("phase.repair.min").unwrap();
        assert!((rp.sum() - report.repair.minutes).abs() < 1e-12);
        assert_eq!(metrics.counter("full_compile"), report.repair.full_compiles);
    }
}
