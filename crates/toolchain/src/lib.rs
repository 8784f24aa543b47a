//! The backend-agnostic toolchain layer.
//!
//! HeteroGen's repair loop observes the HLS toolchain through exactly five
//! signals — diagnostics, pass/fail, output values, latency, compile cost —
//! so the loop itself should not care *which* toolchain produces them. This
//! crate defines that seam:
//!
//! * [`Toolchain`] — the five-signal trait every backend implements
//!   ([`Toolchain::style_check`], [`Toolchain::compile`],
//!   [`Toolchain::simulate`], [`Toolchain::cost_model`], plus a
//!   [`BackendInfo`] descriptor), with [`Toolchain::co_simulator`]
//!   preparing one candidate for many co-simulated tests;
//! * [`SimBackend`] — the default backend, wrapping the `hls_sim` simulated
//!   toolchain in a named device profile (and an alternative
//!   [`SimBackend::embedded_profile`] with different resource finitization
//!   and cost scaling, proving the seam is real), with a memo that answers
//!   a candidate differing from an already simulated one only in statement
//!   pragmas from the stored trace ([`SimBackend::memo_stats`]);
//! * composable middleware decorators, each forwarding what it does not
//!   change to the layer inside it:
//!   [`Persisted`] (the durable verdict cache, keyed by [`VerdictKey`]),
//!   [`Resilient`] (fault-injection consultation + transient retry, in one
//!   attempt loop that compile and co-simulation share) and
//!   [`DrainGate`] (server-drain revocation). The repair search evaluates
//!   every candidate through `Persisted(Resilient(backend))`;
//! * the [`VerdictStore`] seam and the records it persists: [`EvalResult`]
//!   under a [`VerdictKey`], and [`DiffReport`] under a [`DiffKey`].
//!   `DiffReport` is the differential tester's own result type (`repair`
//!   re-exports it), so a store keeps no copy of it.
//!
//! # Middleware stack semantics
//!
//! The stack order is load-bearing:
//!
//! * a **store hit** in [`Persisted`] returns before the retry layer is
//!   consulted — a persisted verdict can never fault again;
//! * [`Resilient`] consults its [`FaultInjector`] *before* delegating
//!   inward, so a faulted attempt never reaches the backend, and the
//!   retries it absorbs surface once, as the result's `transients`;
//! * a transient fault that outlives the [`RetryPolicy`] surfaces as
//!   [`ToolchainError::is_exhausted`], which displays byte-identically to
//!   the permanent fault a hand-rolled retry loop would synthesize.
//!
//! Like `NullSink`/`NoFaults` elsewhere in the workspace, the stack is
//! zero-cost when off: monomorphized over `NoFaults` the injector
//! consultation compiles away, and with no store attached [`Persisted`]
//! costs one branch per evaluation.
//!
//! The stack emits no trace events: workers in the repair search evaluate
//! through it, and events come only from the search's merge phase (the
//! emission rule of `heterogen-trace`).
//!
//! # Examples
//!
//! ```
//! use heterogen_faults::{NoFaults, RetryPolicy};
//! use heterogen_toolchain::{Persisted, Resilient, SimBackend, Toolchain};
//!
//! let backend = SimBackend::default_profile();
//! let stack = Persisted::new(Resilient::new(&backend, NoFaults, RetryPolicy::default()), None);
//! let p = minic::parse("void kernel(int x) { int a[x]; }").unwrap();
//! let fp = minic::fingerprint_program(&p);
//! let eval = stack.evaluate(&p, fp, false).unwrap();
//! assert!(!eval.diags.unwrap().is_empty()); // unknown-size array
//! ```

use heterogen_faults::{Fault, FaultInjector, FaultSite, RetryPolicy};
use hls_sim::{
    check_program, check_style, ErrorCategory, FpgaSimulator, HlsDiagnostic, SimTrace, Untraced,
};
pub use hls_sim::{CompileCostModel, ScheduleModel, SimResult, StyleViolation, ToolchainError};
use minic::Program;
use minic_exec::{ArgValue, ExecEngine, SecondChanceCache};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Descriptor of one toolchain backend: identity plus the device-profile
/// constants that shape its schedules and billing.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendInfo {
    /// Stable backend name (part of every [`VerdictKey`] and [`DiffKey`]).
    pub name: String,
    /// Target device / part the backend synthesizes for.
    pub device: String,
    /// Memory ports per unpartitioned array.
    pub memory_ports: u32,
    /// Hard cap on combined per-loop speedup.
    pub max_speedup: f64,
    /// Base simulated minutes per full compile.
    pub compile_base_min: f64,
    /// Additional simulated minutes per line of code compiled.
    pub compile_per_loc_min: f64,
    /// Simulated minutes per co-simulated test.
    pub sim_per_test_min: f64,
    /// One-line human description.
    pub description: String,
}

impl fmt::Display for BackendInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "backend {}", self.name)?;
        writeln!(f, "  device:          {}", self.device)?;
        writeln!(f, "  memory ports:    {} per array", self.memory_ports)?;
        writeln!(f, "  max speedup:     {:.0}x", self.max_speedup)?;
        writeln!(
            f,
            "  compile cost:    {:.2} min + {:.3} min/LoC",
            self.compile_base_min, self.compile_per_loc_min
        )?;
        writeln!(f, "  co-sim per test: {:.4} min", self.sim_per_test_min)?;
        write!(f, "  {}", self.description)
    }
}

/// Outcome of one full compile: the diagnostics the backend reported and the
/// transient faults the middleware absorbed getting them.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Every diagnostic found (empty means synthesizable).
    pub diags: Vec<HlsDiagnostic>,
    /// Transient faults absorbed (0 for plain backends; [`Resilient`] adds
    /// the retries it performed).
    pub transients: u32,
}

/// Outcome of co-simulating one test input.
#[derive(Debug, Clone)]
pub struct Simulated {
    /// Behaviour and latency estimate.
    pub result: SimResult,
    /// Transient faults absorbed (0 for plain backends).
    pub transients: u32,
}

/// Result of style-checking and fully compiling one candidate.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// The cheap style pre-pass found nothing.
    pub style_clean: bool,
    /// Pretty-printed line count (drives the compile-cost billing); only
    /// meaningful when `diags` is present.
    pub loc: usize,
    /// Full-compile diagnostics: the synthesizability check plus style
    /// violations (a real toolchain rejects both; the cheap pre-pass only
    /// sees the latter's subset). `None` when the enabled style gate
    /// rejected the candidate before the toolchain was ever invoked.
    pub diags: Option<Arc<Vec<HlsDiagnostic>>>,
    /// Transient toolchain faults absorbed (and retried through) while
    /// computing this result. Replayed by the search's merge phase into
    /// resilience accounting and trace events.
    pub transients: u32,
}

/// A pluggable HLS toolchain: the five signals HeteroGen's repair loop
/// observes, behind one object-safe trait.
///
/// `key` parameters are stable evaluation keys (the candidate's structural
/// fingerprint, or a fingerprint/test-index mix). Plain backends ignore
/// them; [`Resilient`] uses them for reproducible fault schedules.
pub trait Toolchain: Send + Sync {
    /// Identity and device-profile constants.
    fn info(&self) -> BackendInfo;

    /// The cost model billing this backend's invocations in simulated
    /// minutes.
    fn cost_model(&self) -> CompileCostModel;

    /// The cheap coding-style pre-pass (the paper's checker ablation
    /// subject).
    fn style_check(&self, p: &Program) -> Vec<StyleViolation>;

    /// One full HLS compile returning every diagnostic found.
    ///
    /// # Errors
    ///
    /// Fails when the toolchain *infrastructure* fails (as opposed to the
    /// program being unsynthesizable, which is reported via diagnostics).
    fn compile(&self, p: &Program, key: u64) -> Result<Compiled, ToolchainError>;

    /// Whether the backend can co-simulate this program at all (a resolvable
    /// top function exists).
    fn can_simulate(&self, p: &Program) -> bool {
        p.top_function_name().is_some()
    }

    /// Co-simulates one test input.
    ///
    /// # Errors
    ///
    /// Fails when the simulation infrastructure fails.
    fn simulate(
        &self,
        p: &Program,
        args: &[ArgValue],
        key: u64,
    ) -> Result<Simulated, ToolchainError>;

    /// Prepares `p` for co-simulating many test inputs, paying the
    /// per-program setup once. Each [`CoSim::run`] is equivalent to one
    /// [`Toolchain::simulate`] call with the same arguments. This is how
    /// differential testing co-simulates; [`Resilient`] makes its per-test
    /// fault decisions inside the runs it returns.
    ///
    /// The default returns an adapter that calls [`Toolchain::simulate`]
    /// for every test, so a layer that overrides only `simulate` still
    /// sees each test.
    ///
    /// # Errors
    ///
    /// Fails when the program cannot be prepared for simulation at all.
    fn co_simulator<'a>(&'a self, p: &'a Program) -> Result<Box<dyn CoSim + 'a>, ToolchainError> {
        Ok(Box::new(PerTest {
            toolchain: self,
            program: p,
        }))
    }

    /// The execution engine this backend simulates with. Nothing in the
    /// pipeline reads it and no middleware forwards it; it stays only
    /// because the benchmark's probe layer implements it, until ROADMAP
    /// item 6 removes both.
    fn engine(&self) -> ExecEngine {
        ExecEngine::default()
    }

    /// Co-simulates one test input under a resource allowance slashed by
    /// `factor` (an injected fuel spike). Backends that cannot model spikes
    /// report the invocation as transient so the retry layer reruns it
    /// unspiked.
    ///
    /// # Errors
    ///
    /// Returns a transient [`ToolchainError`] when the slashed allowance is
    /// exhausted.
    fn simulate_spiked(
        &self,
        p: &Program,
        args: &[ArgValue],
        factor: u32,
        attempt: u32,
    ) -> Result<SimResult, ToolchainError> {
        let _ = (p, args, factor);
        Err(ToolchainError::transient(
            "hls_sim",
            attempt,
            "fuel spike exhausted the simulation budget",
        ))
    }

    /// Style-checks and (unless the enabled style gate rejects it first)
    /// fully compiles `p` — the repair search's per-candidate evaluation.
    /// Style violations are appended to the compile diagnostics, as a real
    /// toolchain reports both.
    ///
    /// # Errors
    ///
    /// Propagates [`Toolchain::compile`] infrastructure failures.
    fn evaluate(
        &self,
        p: &Program,
        fingerprint: u64,
        style_gate: bool,
    ) -> Result<EvalResult, ToolchainError> {
        let style = self.style_check(p);
        let style_clean = style.is_empty();
        if style_gate && !style_clean {
            return Ok(EvalResult {
                style_clean,
                loc: 0,
                diags: None,
                transients: 0,
            });
        }
        let compiled = self.compile(p, fingerprint)?;
        let mut diags = compiled.diags;
        for v in style {
            diags.push(HlsDiagnostic::new(
                "STYLE",
                v.message,
                ErrorCategory::LoopParallelization,
            ));
        }
        Ok(EvalResult {
            style_clean,
            loc: minic::loc(p),
            diags: Some(Arc::new(diags)),
            transients: compiled.transients,
        })
    }

    /// Convenience: the diagnostics of one compile, with infrastructure
    /// failures collapsed to "no diagnostics" (callers that need the
    /// distinction use [`Toolchain::compile`]).
    fn diagnose(&self, p: &Program) -> Vec<HlsDiagnostic> {
        let fp = minic::fingerprint_program(p);
        self.compile(p, fp).map(|c| c.diags).unwrap_or_default()
    }
}

/// One program prepared for co-simulation by [`Toolchain::co_simulator`]:
/// runs test inputs against the preparation, from any number of threads.
pub trait CoSim: Sync {
    /// Co-simulates one test input; `key` is as for
    /// [`Toolchain::simulate`].
    ///
    /// # Errors
    ///
    /// Fails when the simulation infrastructure fails.
    fn run(&self, args: &[ArgValue], key: u64) -> Result<Simulated, ToolchainError>;
}

/// The default [`Toolchain::co_simulator`]: no preparation, one
/// [`Toolchain::simulate`] call per test.
struct PerTest<'a, T: ?Sized> {
    toolchain: &'a T,
    program: &'a Program,
}

impl<T: Toolchain + ?Sized> CoSim for PerTest<'_, T> {
    fn run(&self, args: &[ArgValue], key: u64) -> Result<Simulated, ToolchainError> {
        self.toolchain.simulate(self.program, args, key)
    }
}

/// Implements the named [`Toolchain`] methods by forwarding them to a
/// target: `*` forwards through a reference (`(**self)`, for `&T` and
/// `Arc<T>`), a field name forwards to that field (`self.inner`). Every
/// middleware layer forwards what it does not override through this one
/// macro; a method left out of the list falls back to the trait default,
/// which re-enters the layer's own overrides.
macro_rules! delegate_toolchain {
    (* => $($m:ident),+ $(,)?) => {
        $(delegate_toolchain!(@fn self, (**self), $m);)+
    };
    ($field:ident => $($m:ident),+ $(,)?) => {
        $(delegate_toolchain!(@fn self, (self.$field), $m);)+
    };
    // `self` travels with the target so the receiver and the forwarded
    // call share one hygiene context.
    (@fn $s:tt, $to:tt, info) => {
        fn info(&$s) -> BackendInfo {
            $to.info()
        }
    };
    (@fn $s:tt, $to:tt, cost_model) => {
        fn cost_model(&$s) -> CompileCostModel {
            $to.cost_model()
        }
    };
    (@fn $s:tt, $to:tt, style_check) => {
        fn style_check(&$s, p: &Program) -> Vec<StyleViolation> {
            $to.style_check(p)
        }
    };
    (@fn $s:tt, $to:tt, compile) => {
        fn compile(&$s, p: &Program, key: u64) -> Result<Compiled, ToolchainError> {
            $to.compile(p, key)
        }
    };
    (@fn $s:tt, $to:tt, can_simulate) => {
        fn can_simulate(&$s, p: &Program) -> bool {
            $to.can_simulate(p)
        }
    };
    (@fn $s:tt, $to:tt, simulate) => {
        fn simulate(
            &$s,
            p: &Program,
            args: &[ArgValue],
            key: u64,
        ) -> Result<Simulated, ToolchainError> {
            $to.simulate(p, args, key)
        }
    };
    (@fn $s:tt, $to:tt, co_simulator) => {
        fn co_simulator<'a>(
            &'a $s,
            p: &'a Program,
        ) -> Result<Box<dyn CoSim + 'a>, ToolchainError> {
            $to.co_simulator(p)
        }
    };
    (@fn $s:tt, $to:tt, simulate_spiked) => {
        fn simulate_spiked(
            &$s,
            p: &Program,
            args: &[ArgValue],
            factor: u32,
            attempt: u32,
        ) -> Result<SimResult, ToolchainError> {
            $to.simulate_spiked(p, args, factor, attempt)
        }
    };
    (@fn $s:tt, $to:tt, evaluate) => {
        fn evaluate(
            &$s,
            p: &Program,
            fingerprint: u64,
            style_gate: bool,
        ) -> Result<EvalResult, ToolchainError> {
            $to.evaluate(p, fingerprint, style_gate)
        }
    };
    (@fn $s:tt, $to:tt, diagnose) => {
        fn diagnose(&$s, p: &Program) -> Vec<HlsDiagnostic> {
            $to.diagnose(p)
        }
    };
}

impl<T: Toolchain + ?Sized> Toolchain for &T {
    delegate_toolchain!(* => info, cost_model, style_check, compile, can_simulate, simulate,
        co_simulator, simulate_spiked, evaluate, diagnose);
}

impl<T: Toolchain + ?Sized> Toolchain for Arc<T> {
    delegate_toolchain!(* => info, cost_model, style_check, compile, can_simulate, simulate,
        co_simulator, simulate_spiked, evaluate, diagnose);
}

/// The default backend: the workspace's simulated HLS toolchain (`hls_sim`)
/// under a named device profile.
///
/// Two profiles ship with the crate. [`SimBackend::default_profile`]
/// reproduces the pre-refactor pipeline byte-for-byte (default schedule
/// model, default cost model); [`SimBackend::embedded_profile`] models a
/// small embedded part with single-port BRAM, a lower speedup ceiling and a
/// slower compile farm, so the same repair loop produces visibly different
/// reports — the proof that the [`Toolchain`] seam is real.
///
/// Each backend keeps a bounded memo of co-simulation traces (see
/// [`SimBackend::memo_stats`]); clones share it.
#[derive(Debug, Clone)]
pub struct SimBackend {
    name: &'static str,
    device: &'static str,
    description: &'static str,
    schedule: ScheduleModel,
    costs: CompileCostModel,
    engine: ExecEngine,
    memo: Arc<TraceMemo>,
}

impl SimBackend {
    /// The datacenter profile — identical constants to the pre-refactor
    /// direct-call pipeline.
    pub fn default_profile() -> SimBackend {
        SimBackend {
            name: "hls_sim",
            device: "xcvu9p (datacenter)",
            description: "Reference profile: dual-port BRAM, 24x speedup ceiling, \
                          datacenter compile farm.",
            schedule: ScheduleModel::default(),
            costs: CompileCostModel::default(),
            engine: ExecEngine::default(),
            memo: Arc::default(),
        }
    }

    /// An embedded-class profile: single-port BRAM (half the unroll
    /// headroom), an 8x speedup ceiling, deeper pipeline fill, and a compile
    /// farm twice as slow per invocation.
    pub fn embedded_profile() -> SimBackend {
        SimBackend {
            name: "hls_sim-embedded",
            device: "xc7z020 (embedded)",
            description: "Embedded profile: single-port BRAM, 8x speedup ceiling, \
                          slow on-prem compile server.",
            schedule: ScheduleModel {
                cycles_per_op: 1.25,
                default_ports: 1,
                max_speedup: 8.0,
                pipeline_fill: 10.0,
                loop_control_ops: 6.0,
            },
            costs: CompileCostModel {
                style_check_min: 0.05,
                full_compile_base_min: 4.0,
                full_compile_per_loc_min: 0.05,
                sim_per_test_min: 0.004,
                cpu_per_test_min: 0.0002,
            },
            engine: ExecEngine::default(),
            memo: Arc::default(),
        }
    }

    /// Overrides the execution engine used for co-simulation: how
    /// `DifferentialTester::with_engine` simulates on the reference
    /// tree-walker. The pipeline always simulates on the bytecode VM.
    pub fn with_engine(mut self, engine: ExecEngine) -> SimBackend {
        self.engine = engine;
        self
    }

    /// Resolves a backend by CLI name. `"default"` (aliases `"hls_sim"`,
    /// `"datacenter"`) and `"embedded"` (aliases `"zynq"`,
    /// `"hls_sim-embedded"`) are known.
    pub fn by_name(name: &str) -> Option<SimBackend> {
        match name {
            "default" | "hls_sim" | "datacenter" => Some(SimBackend::default_profile()),
            "embedded" | "zynq" | "hls_sim-embedded" => Some(SimBackend::embedded_profile()),
            _ => None,
        }
    }

    /// The canonical CLI names of the shipped profiles.
    pub fn names() -> &'static [&'static str] {
        &["default", "embedded"]
    }

    /// The counters of this backend's co-simulation trace memo.
    ///
    /// [`Toolchain::co_simulator`] answers a run from a stored trace when
    /// the candidate equals an already simulated program modulo statement
    /// pragmas ([`minic::same_behaviour`]) and the input equals the stored
    /// one: the trace's outcome and loop and call counts, plus one unit of
    /// fuel per pragma execution, estimated under the candidate's own
    /// schedule — bit for bit a fresh run's result. Every other run goes to
    /// the VM (see [`Bypass`]). The memo holds at most 1024 runs and is
    /// shared by clones of this backend.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    fn simulator<'p>(&self, p: &'p Program) -> Result<FpgaSimulator<'p>, ToolchainError> {
        FpgaSimulator::configured(p, self.engine, &self.schedule)
            .map_err(|e| ToolchainError::permanent("hls_sim", e.to_string()))
    }
}

impl Toolchain for SimBackend {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: self.name.to_string(),
            device: self.device.to_string(),
            memory_ports: self.schedule.default_ports,
            max_speedup: self.schedule.max_speedup,
            compile_base_min: self.costs.full_compile_base_min,
            compile_per_loc_min: self.costs.full_compile_per_loc_min,
            sim_per_test_min: self.costs.sim_per_test_min,
            description: self.description.to_string(),
        }
    }

    fn cost_model(&self) -> CompileCostModel {
        self.costs
    }

    fn style_check(&self, p: &Program) -> Vec<StyleViolation> {
        check_style(p)
    }

    fn compile(&self, p: &Program, _key: u64) -> Result<Compiled, ToolchainError> {
        Ok(Compiled {
            diags: check_program(p),
            transients: 0,
        })
    }

    fn simulate(
        &self,
        p: &Program,
        args: &[ArgValue],
        key: u64,
    ) -> Result<Simulated, ToolchainError> {
        self.co_simulator(p)?.run(args, key)
    }

    fn co_simulator<'a>(&'a self, p: &'a Program) -> Result<Box<dyn CoSim + 'a>, ToolchainError> {
        Ok(Box::new(MemoCoSim {
            sim: self.simulator(p)?,
            program: p,
            memo: &self.memo,
            tree_walk: self.engine == ExecEngine::TreeWalk,
            digest: OnceLock::new(),
            known: OnceLock::new(),
        }))
    }

    fn simulate_spiked(
        &self,
        p: &Program,
        args: &[ArgValue],
        factor: u32,
        attempt: u32,
    ) -> Result<SimResult, ToolchainError> {
        self.memo.bypass(Bypass::Spiked);
        self.simulator(p)?.run_spiked(args, factor, attempt)
    }
}

/// Entries a [`SimBackend`]'s trace memo holds at most. A repair job
/// stores a few dozen; the bound only matters to a server whose jobs all
/// share one backend.
const TRACE_MEMO_CAP: usize = 1024;

/// Why a co-simulated run ran for real and stored nothing in the trace
/// memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bypass {
    /// A statement pragma outside the leading run of a loop body or of a
    /// free function's body.
    PragmaSite,
    /// A function-head pragma on a name that another function, a method or
    /// a constructor also uses.
    SharedName,
    /// The run trapped.
    Trapped,
    /// A confirmed trace's derived op count exceeds the fuel allowance.
    FuelLimit,
    /// The stored entry under the key is for another program or input.
    Unconfirmed,
    /// A fuel-spiked run.
    Spiked,
    /// The backend simulates on the reference tree-walker.
    TreeWalk,
}

impl Bypass {
    /// Every reason, in [`MemoStats::bypasses`] order.
    pub const ALL: [Bypass; 7] = [
        Bypass::PragmaSite,
        Bypass::SharedName,
        Bypass::Trapped,
        Bypass::FuelLimit,
        Bypass::Unconfirmed,
        Bypass::Spiked,
        Bypass::TreeWalk,
    ];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Bypass::PragmaSite => "pragma_site",
            Bypass::SharedName => "shared_name",
            Bypass::Trapped => "trapped",
            Bypass::FuelLimit => "fuel_limit",
            Bypass::Unconfirmed => "unconfirmed",
            Bypass::Spiked => "spiked",
            Bypass::TreeWalk => "tree_walk",
        }
    }
}

impl From<Untraced> for Bypass {
    fn from(why: Untraced) -> Bypass {
        match why {
            Untraced::PragmaSite => Bypass::PragmaSite,
            Untraced::SharedName => Bypass::SharedName,
            Untraced::Trapped => Bypass::Trapped,
            Untraced::FuelLimit => Bypass::FuelLimit,
        }
    }
}

/// Counters of a [`SimBackend`]'s trace memo. Every co-simulated run
/// counts once: as a hit (answered from a confirmed trace), a miss (run,
/// and its trace stored) or a bypass (run, nothing stored).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Runs answered from a confirmed trace.
    pub hits: u64,
    /// Runs whose trace was stored.
    pub misses: u64,
    /// Entries the bound evicted.
    pub evictions: u64,
    /// Bypassed runs per reason, in [`Bypass::ALL`] order.
    pub bypasses: [u64; 7],
}

impl MemoStats {
    /// Runs bypassed for `why`.
    pub fn bypassed(&self, why: Bypass) -> u64 {
        self.bypasses[why as usize]
    }
}

/// A bounded, confirmed memo of co-simulation traces, keyed by the
/// program's [behaviour digest](minic::behaviour_digest) and the input's
/// fingerprint.
#[derive(Default)]
struct TraceMemo {
    /// Allocated on the first store.
    entries: Mutex<Option<Entries>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bypasses: [AtomicU64; 7],
}

/// (behaviour digest, input fingerprint) to the run stored under it.
type Entries = SecondChanceCache<(u64, u64), Arc<MemoEntry>>;

/// One stored run: the program and input it came from, which a hit
/// compares, and its trace.
struct MemoEntry {
    program: Arc<Program>,
    args: Vec<ArgValue>,
    trace: SimTrace,
}

impl TraceMemo {
    fn get(&self, key: &(u64, u64)) -> Option<Arc<MemoEntry>> {
        self.entries
            .lock()
            .expect("trace memo poisoned")
            .as_mut()?
            .get(key)
    }

    fn insert(&self, key: (u64, u64), entry: MemoEntry) {
        self.entries
            .lock()
            .expect("trace memo poisoned")
            .get_or_insert_with(|| SecondChanceCache::new(TRACE_MEMO_CAP))
            .insert(key, Arc::new(entry));
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn bypass(&self, why: Bypass) {
        self.bypasses[why as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> MemoStats {
        let entries = self.entries.lock().expect("trace memo poisoned");
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: entries.as_ref().map_or(0, SecondChanceCache::evictions),
            bypasses: std::array::from_fn(|i| self.bypasses[i].load(Ordering::Relaxed)),
        }
    }
}

impl fmt::Debug for TraceMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceMemo")
            .field("stats", &self.stats())
            .finish()
    }
}

/// A [`SimBackend`]'s prepared co-simulation: answers a run from a stored
/// trace when the candidate differs from the traced program only in
/// statement pragmas, and runs for real otherwise.
struct MemoCoSim<'a> {
    sim: FpgaSimulator<'a>,
    program: &'a Program,
    memo: &'a TraceMemo,
    tree_walk: bool,
    /// The candidate's behaviour digest, on the first lookup.
    digest: OnceLock<u64>,
    /// A program that behaves as the candidate: the first one confirmed
    /// from the memo, or else a copy of the candidate, made to store it.
    known: OnceLock<Arc<Program>>,
}

impl MemoCoSim<'_> {
    fn simulate(&self, args: &[ArgValue]) -> SimResult {
        let traceable = if self.tree_walk {
            Err(Bypass::TreeWalk)
        } else {
            self.sim.traceable().map_err(Bypass::from)
        };
        if let Err(why) = traceable {
            self.memo.bypass(why);
            return self.sim.run(args);
        }
        let digest = *self
            .digest
            .get_or_init(|| minic::behaviour_digest(self.program));
        let key = (digest, args_fingerprint(args));
        if let Some(entry) = self.memo.get(&key) {
            if !same_args(&entry.args, args) || !self.confirm(&entry.program) {
                self.memo.bypass(Bypass::Unconfirmed);
                return self.sim.run(args);
            }
            return match self.sim.replay(&entry.trace) {
                Ok(result) => {
                    self.memo.hits.fetch_add(1, Ordering::Relaxed);
                    result
                }
                Err(why) => {
                    self.memo.bypass(why.into());
                    self.sim.run(args)
                }
            };
        }
        let (result, trace) = self.sim.run_traced(args);
        match trace {
            Ok(trace) => {
                let program = self.known.get_or_init(|| Arc::new(self.program.clone()));
                self.memo.insert(
                    key,
                    MemoEntry {
                        program: Arc::clone(program),
                        args: args.to_vec(),
                        trace,
                    },
                );
            }
            Err(why) => self.memo.bypass(why.into()),
        }
        result
    }

    /// Whether `stored` is the candidate modulo statement pragmas.
    fn confirm(&self, stored: &Arc<Program>) -> bool {
        if self.known.get().is_some_and(|p| Arc::ptr_eq(p, stored)) {
            return true;
        }
        let same = minic::same_behaviour(stored, self.program);
        if same {
            let _ = self.known.set(Arc::clone(stored));
        }
        same
    }
}

impl CoSim for MemoCoSim<'_> {
    fn run(&self, args: &[ArgValue], _key: u64) -> Result<Simulated, ToolchainError> {
        Ok(Simulated {
            result: self.simulate(args),
            transients: 0,
        })
    }
}

/// Whether two inputs are the same, floats compared by bit pattern.
fn same_args(a: &[ArgValue], b: &[ArgValue]) -> bool {
    let same_floats = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(f, g)| f.to_bits() == g.to_bits())
    };
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (ArgValue::Float(f), ArgValue::Float(g)) => f.to_bits() == g.to_bits(),
            (ArgValue::FloatArray(f), ArgValue::FloatArray(g)) => same_floats(f, g),
            _ => x == y,
        })
}

/// Key identifying one persisted evaluation verdict across processes: the
/// candidate's structural fingerprint, its node-id labeling fingerprint
/// (diagnostics carry `NodeId`s, and print-identical programs with
/// different labelings must not share a verdict — the same contract as the
/// exec compile cache), the backend profile that produced it, and whether
/// the style gate was on (the gate changes what [`Toolchain::evaluate`]
/// returns for the same program).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VerdictKey {
    /// `minic::fingerprint_program` of the candidate.
    pub program_fp: u64,
    /// `minic::fingerprint_node_ids` of the candidate.
    pub node_fp: u64,
    /// Backend profile name ([`BackendInfo::name`]).
    pub backend: String,
    /// Whether the cheap style gate was enabled for this evaluation.
    pub style_gate: bool,
}

/// Key identifying one persisted fault-free differential-test verdict:
/// the candidate's structural fingerprint, the reference program it was
/// compared against, the kernel entry point, the (capped) test suite, and
/// the backend that simulated it.
///
/// Deliberately excludes the execution engine and thread count — both are
/// documented to produce bit-identical differential reports — so a verdict
/// recorded under one engine or thread count warms a run under any other,
/// matching the fuzz-corpus key's contract.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DiffKey {
    /// `minic::fingerprint_program` of the candidate.
    pub program_fp: u64,
    /// `minic::fingerprint_program` of the reference (original) program.
    pub reference_fp: u64,
    /// Kernel (entry function) under differential test.
    pub kernel: String,
    /// [`diff_tests_fingerprint`] of the capped test suite.
    pub tests_fp: u64,
    /// Backend profile name ([`BackendInfo::name`]).
    pub backend: String,
}

/// The result of differentially testing one candidate, as the repair
/// search scores it and the store persists it. The two floats are the
/// *only* observables of a fault-free differential evaluation (the one
/// trace event it emits is derived from them), so replaying a stored
/// `DiffReport` reproduces the evaluation bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffReport {
    /// Fraction of tests with identical observable behaviour.
    pub pass_ratio: f64,
    /// Mean FPGA latency over the tests (ms).
    pub fpga_latency_ms: f64,
}

/// Stable cross-process fingerprint of a differential test suite (FNV-1a
/// over a tagged little-endian byte encoding; floats hash by bit pattern,
/// so two suites differing by one ULP get different keys).
pub fn diff_tests_fingerprint(tests: &[Vec<ArgValue>]) -> u64 {
    let mut h = minic::fnv1a(&(tests.len() as u64).to_le_bytes());
    for case in tests {
        eat_case(&mut h, case);
    }
    h
}

/// The fingerprint of one test input, in [`diff_tests_fingerprint`]'s
/// encoding.
fn args_fingerprint(args: &[ArgValue]) -> u64 {
    let mut h = minic::FNV1A_OFFSET;
    eat_case(&mut h, args);
    h
}

/// Folds one test case's tagged little-endian encoding into `h`.
fn eat_case(h: &mut u64, case: &[ArgValue]) {
    let mut eat = |bytes: &[u8]| *h = minic::fnv1a_extend(*h, bytes);
    eat(&(case.len() as u64).to_le_bytes());
    for arg in case {
        match arg {
            ArgValue::Int(v) => {
                eat(&[1]);
                eat(&v.to_le_bytes());
            }
            ArgValue::Float(f) => {
                eat(&[2]);
                eat(&f.to_bits().to_le_bytes());
            }
            ArgValue::IntArray(xs) | ArgValue::IntStream(xs) => {
                let tag = if matches!(arg, ArgValue::IntArray(_)) {
                    3
                } else {
                    5
                };
                eat(&[tag]);
                eat(&(xs.len() as u64).to_le_bytes());
                for x in xs {
                    eat(&x.to_le_bytes());
                }
            }
            ArgValue::FloatArray(xs) => {
                eat(&[4]);
                eat(&(xs.len() as u64).to_le_bytes());
                for f in xs {
                    eat(&f.to_bits().to_le_bytes());
                }
            }
        }
    }
}

/// A durable verdict memo — the seam [`Persisted`] stores through.
///
/// Implemented by `heterogen-store`'s crash-safe log; the trait lives here
/// so the repair engine can stack [`Persisted`] middleware without
/// depending on the storage crate. Implementations must be infallible at
/// this interface: a broken store degrades to misses (`get_verdict` returns
/// `None`) and dropped writes, never errors — persistence is an
/// optimization, not a correctness dependency.
///
/// The differential-verdict methods default to a disabled cache (always
/// miss, drop every put) so minimal implementations — and the compile
/// memos' own tests — keep working unchanged.
pub trait VerdictStore: Send + Sync {
    /// Looks up a verdict persisted by an earlier run (or this one).
    fn get_verdict(&self, key: &VerdictKey) -> Option<EvalResult>;

    /// Durably records one verdict.
    fn put_verdict(&self, key: &VerdictKey, r: &EvalResult);

    /// Looks up a persisted fault-free differential-test verdict.
    fn get_diff(&self, _key: &DiffKey) -> Option<DiffReport> {
        None
    }

    /// Durably records one fault-free differential-test verdict.
    fn put_diff(&self, _key: &DiffKey, _v: &DiffReport) {}
}

/// Middleware: checks a durable [`VerdictStore`] before the layers inside
/// it and records every freshly computed verdict, stacked outermost as
/// `Persisted(Resilient(backend))`. The only evaluation cache in the stack,
/// keyed by the labeling-aware [`VerdictKey`].
///
/// With no store attached every method delegates straight inward — the
/// disabled layer costs one branch per evaluation. A store hit returns
/// before [`Resilient`] (and therefore before any fault injection or
/// retry); because the search's merge phase bills simulated-clock cost
/// *independently* of how `evaluate` was satisfied, a warm store changes
/// wall-clock time only — never the search trajectory, stats, or trace
/// bytes. Errors are never recorded, so a faulted evaluation runs afresh.
#[derive(Clone)]
pub struct Persisted<T> {
    inner: T,
    store: Option<Arc<dyn VerdictStore>>,
    backend: String,
}

impl<T: fmt::Debug> fmt::Debug for Persisted<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Persisted")
            .field("inner", &self.inner)
            .field("backend", &self.backend)
            .field("enabled", &self.store.is_some())
            .finish()
    }
}

impl<T: Toolchain> Persisted<T> {
    /// Wraps `inner`, persisting through `store` (`None` disables the
    /// layer).
    pub fn new(inner: T, store: Option<Arc<dyn VerdictStore>>) -> Persisted<T> {
        let backend = inner.info().name;
        Persisted {
            inner,
            store,
            backend,
        }
    }
}

impl<T: Toolchain> Toolchain for Persisted<T> {
    delegate_toolchain!(inner => info, cost_model, style_check, compile, can_simulate, simulate,
        co_simulator, simulate_spiked, diagnose);

    fn evaluate(
        &self,
        p: &Program,
        fingerprint: u64,
        style_gate: bool,
    ) -> Result<EvalResult, ToolchainError> {
        let Some(store) = &self.store else {
            return self.inner.evaluate(p, fingerprint, style_gate);
        };
        let key = VerdictKey {
            program_fp: fingerprint,
            node_fp: minic::fingerprint_node_ids(p),
            backend: self.backend.clone(),
            style_gate,
        };
        if let Some(hit) = store.get_verdict(&key) {
            return Ok(hit);
        }
        let r = self.inner.evaluate(p, fingerprint, style_gate)?;
        store.put_verdict(&key, &r);
        Ok(r)
    }
}

/// Middleware: consults a [`FaultInjector`] before every compile/simulate
/// and retries transient faults under a [`RetryPolicy`].
///
/// Workers never sleep — the deterministic backoff schedule is *accounted*,
/// not waited out: the absorbed-transient count travels out in
/// [`Compiled::transients`] / [`Simulated::transients`] (or in
/// [`ToolchainError::absorbed_transients`] on failure) for the caller's
/// merge phase to replay into its resilience ledger. A transient fault that
/// outlives the policy surfaces as [`ToolchainError::is_exhausted`]; a
/// poison fault panics for the caller's isolation boundary to catch.
///
/// With a disabled injector ([`heterogen_faults::NoFaults`]) every method
/// delegates straight to the inner layer, and [`Toolchain::co_simulator`]
/// returns the inner layer's preparation unwrapped.
///
/// Under an enabled injector, [`Toolchain::co_simulator`] prepares the
/// inner layer once and wraps that preparation: every [`CoSim::run`] makes
/// its own fault decision (poison, permanent, transient retry, or a fuel
/// spike replayed through the inner [`Toolchain::simulate_spiked`]) keyed
/// by `(hls_sim, key, attempt)`, and only a clean attempt reaches the
/// preparation. A preparation that failed surfaces there, after the fault
/// decision, as a per-test simulation error would. `simulate` is one
/// `co_simulator(p)?.run(..)`, and `compile` and `CoSim::run` share one
/// attempt loop, so every fault decision is made in one place.
#[derive(Debug, Clone)]
pub struct Resilient<T, I> {
    inner: T,
    injector: I,
    retry: RetryPolicy,
}

impl<T: Toolchain, I: FaultInjector> Resilient<T, I> {
    /// Wraps `inner` with fault consultation and a retry policy.
    pub fn new(inner: T, injector: I, retry: RetryPolicy) -> Resilient<T, I> {
        Resilient {
            inner,
            injector,
            retry,
        }
    }

    /// The one fault loop, under both [`Toolchain::compile`] and every
    /// prepared co-simulation run: consults the injector at `site` for
    /// attempts 0, 1, … of invocation `key`. A poison fault panics; a
    /// permanent fault fails with `rejected`, carrying the transients
    /// absorbed so far; a transient fault is retried while the policy
    /// grants a delay and otherwise fails exhausted with `crashed`. A fuel
    /// spike is replayed through `spike(factor, attempt)`, whose transient
    /// failure is retried like a transient fault (`None` retries the spike
    /// itself as one). A clean attempt runs `clean`. A success comes back
    /// with the number of transients it absorbed; any other failure carries
    /// that number.
    fn attempts<R>(
        &self,
        site: FaultSite,
        key: u64,
        (rejected, crashed): (&str, &str),
        spike: Option<&dyn Fn(u32, u32) -> Result<R, ToolchainError>>,
        clean: impl FnOnce() -> Result<R, ToolchainError>,
    ) -> Result<(R, u32), ToolchainError> {
        let mut attempt: u32 = 0;
        loop {
            let failure = match (self.injector.fault(site, key, attempt), spike) {
                (Some(Fault::Poison), _) => heterogen_faults::poison(site, key),
                (Some(Fault::Permanent), _) => {
                    let e = ToolchainError::permanent(site.as_str(), rejected);
                    return Err(e.after_transients(attempt));
                }
                (Some(Fault::FuelSpike { factor }), Some(spike)) => match spike(factor, attempt) {
                    Ok(r) => return Ok((r, attempt)),
                    Err(e) if e.is_transient() => e.message().to_string(),
                    Err(e) => return Err(e.after_transients(attempt)),
                },
                (Some(Fault::Transient | Fault::FuelSpike { .. }), _) => crashed.to_string(),
                (None, _) => {
                    return clean()
                        .map(|r| (r, attempt))
                        .map_err(|e| e.after_transients(attempt));
                }
            };
            attempt += 1;
            if self.retry.delay_before(attempt).is_none() {
                return Err(ToolchainError::exhausted(site.as_str(), attempt, failure));
            }
        }
    }
}

impl<T: Toolchain, I: FaultInjector> Toolchain for Resilient<T, I> {
    delegate_toolchain!(inner => info, cost_model, style_check, can_simulate,
        simulate_spiked);

    fn compile(&self, p: &Program, key: u64) -> Result<Compiled, ToolchainError> {
        if !self.injector.enabled() {
            return self.inner.compile(p, key);
        }
        let messages = (
            "synthesis front-end rejected the invocation",
            "synthesis front-end crashed; the invocation may be retried",
        );
        let (mut c, absorbed) = self.attempts(FaultSite::HlsCheck, key, messages, None, || {
            self.inner.compile(p, key)
        })?;
        c.transients += absorbed;
        Ok(c)
    }

    fn simulate(
        &self,
        p: &Program,
        args: &[ArgValue],
        key: u64,
    ) -> Result<Simulated, ToolchainError> {
        self.co_simulator(p)?.run(args, key)
    }

    fn co_simulator<'a>(&'a self, p: &'a Program) -> Result<Box<dyn CoSim + 'a>, ToolchainError> {
        if !self.injector.enabled() {
            return self.inner.co_simulator(p);
        }
        Ok(Box::new(ResilientCoSim {
            layer: self,
            program: p,
            prepared: self.inner.co_simulator(p),
        }))
    }
}

/// A [`Resilient`] layer's prepared co-simulation under an enabled
/// injector: each run makes its own fault decision before it reaches the
/// inner preparation.
struct ResilientCoSim<'a, T, I> {
    layer: &'a Resilient<T, I>,
    program: &'a Program,
    /// The inner layer's preparation. A failed one surfaces only when a run
    /// gets past its fault decision, where a per-test simulation would have
    /// failed.
    prepared: Result<Box<dyn CoSim + 'a>, ToolchainError>,
}

impl<T: Toolchain, I: FaultInjector> CoSim for ResilientCoSim<'_, T, I> {
    fn run(&self, args: &[ArgValue], key: u64) -> Result<Simulated, ToolchainError> {
        let messages = (
            "co-simulation backend rejected the invocation",
            "co-simulation crashed; the invocation may be retried",
        );
        let spike = |factor, attempt| {
            let result = self
                .layer
                .inner
                .simulate_spiked(self.program, args, factor, attempt)?;
            Ok(Simulated {
                result,
                transients: 0,
            })
        };
        let (mut s, absorbed) = self.layer.attempts(
            FaultSite::HlsSim,
            key,
            messages,
            Some(&spike),
            || match &self.prepared {
                Ok(prepared) => prepared.run(args, key),
                Err(e) => Err(e.clone()),
            },
        )?;
        s.transients += absorbed;
        Ok(s)
    }
}

/// A shared revocation flag for [`DrainGate`].
///
/// Cloning yields a handle to the *same* flag: a server hands one clone to
/// every in-flight job's gate and keeps one to flip at shutdown.
#[derive(Debug, Clone, Default)]
pub struct DrainSignal(Arc<std::sync::atomic::AtomicBool>);

impl DrainSignal {
    /// Creates a signal in the "not draining" state.
    pub fn new() -> DrainSignal {
        DrainSignal::default()
    }

    /// Flips the signal: every [`DrainGate`] sharing it starts refusing
    /// invocations. Idempotent.
    pub fn drain(&self) {
        self.0.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Whether [`DrainSignal::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// The permanent `drain` error once the signal has drained.
    fn revoked(&self) -> Result<(), ToolchainError> {
        if self.is_draining() {
            Err(ToolchainError::permanent(
                "drain",
                "server drain revoked the evaluation budget",
            ))
        } else {
            Ok(())
        }
    }
}

/// Middleware: revokes the toolchain when a [`DrainSignal`] flips.
///
/// Until the signal drains, every method delegates transparently. After,
/// each fallible invocation returns a *permanent* [`ToolchainError`] at
/// site `"drain"` — so a repair search in flight hits its existing
/// permanent-fault degradation path and returns `Ok(PipelineReport)` with a
/// `Degradation` record instead of being aborted mid-candidate. A prepared
/// [`Toolchain::co_simulator`] is revoked too: it checks the signal before
/// every run. Placed *innermost* in the middleware stack (wrapping the raw
/// backend), so [`Resilient`] propagates the revocation without retrying
/// and [`Persisted`] never records it.
#[derive(Debug, Clone)]
pub struct DrainGate<T> {
    inner: T,
    signal: DrainSignal,
}

impl<T: Toolchain> DrainGate<T> {
    /// Wraps `inner`; invocations fail once `signal` drains.
    pub fn new(inner: T, signal: DrainSignal) -> DrainGate<T> {
        DrainGate { inner, signal }
    }
}

/// A [`DrainGate`]'s prepared co-simulation: every run checks the signal
/// first, so a drain revokes preparations already handed out.
struct GatedCoSim<'a> {
    inner: Box<dyn CoSim + 'a>,
    signal: &'a DrainSignal,
}

impl CoSim for GatedCoSim<'_> {
    fn run(&self, args: &[ArgValue], key: u64) -> Result<Simulated, ToolchainError> {
        self.signal.revoked()?;
        self.inner.run(args, key)
    }
}

impl<T: Toolchain> Toolchain for DrainGate<T> {
    // `diagnose` forwards ungated: the trait default would reach the
    // revoked `compile`.
    delegate_toolchain!(inner => info, cost_model, style_check, can_simulate,
        diagnose);

    fn compile(&self, p: &Program, key: u64) -> Result<Compiled, ToolchainError> {
        self.signal.revoked()?;
        self.inner.compile(p, key)
    }
    fn simulate(
        &self,
        p: &Program,
        args: &[ArgValue],
        key: u64,
    ) -> Result<Simulated, ToolchainError> {
        self.signal.revoked()?;
        self.inner.simulate(p, args, key)
    }
    fn co_simulator<'a>(&'a self, p: &'a Program) -> Result<Box<dyn CoSim + 'a>, ToolchainError> {
        self.signal.revoked()?;
        Ok(Box::new(GatedCoSim {
            inner: self.inner.co_simulator(p)?,
            signal: &self.signal,
        }))
    }
    fn simulate_spiked(
        &self,
        p: &Program,
        args: &[ArgValue],
        factor: u32,
        attempt: u32,
    ) -> Result<SimResult, ToolchainError> {
        self.signal.revoked()?;
        self.inner.simulate_spiked(p, args, factor, attempt)
    }
    fn evaluate(
        &self,
        p: &Program,
        fingerprint: u64,
        style_gate: bool,
    ) -> Result<EvalResult, ToolchainError> {
        self.signal.revoked()?;
        self.inner.evaluate(p, fingerprint, style_gate)
    }
}

/// A scriptable in-memory backend for middleware tests: configurable
/// diagnostics and style violations, atomic call counters, constant
/// simulation results.
#[derive(Debug, Default)]
pub struct MockToolchain {
    /// Diagnostics every [`Toolchain::compile`] reports.
    pub diags: Vec<HlsDiagnostic>,
    /// Violations every [`Toolchain::style_check`] reports.
    pub style: Vec<StyleViolation>,
    compiles: std::sync::atomic::AtomicU32,
    simulates: std::sync::atomic::AtomicU32,
    style_checks: std::sync::atomic::AtomicU32,
}

impl MockToolchain {
    /// A mock reporting a clean bill of health on every signal.
    pub fn clean() -> MockToolchain {
        MockToolchain::default()
    }

    /// Times [`Toolchain::compile`] reached the backend.
    pub fn compile_calls(&self) -> u32 {
        self.compiles.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Times [`Toolchain::simulate`] reached the backend.
    pub fn simulate_calls(&self) -> u32 {
        self.simulates.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Times [`Toolchain::style_check`] was invoked.
    pub fn style_check_calls(&self) -> u32 {
        self.style_checks.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl Toolchain for MockToolchain {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: "mock".to_string(),
            device: "none".to_string(),
            memory_ports: 2,
            max_speedup: 1.0,
            compile_base_min: 0.0,
            compile_per_loc_min: 0.0,
            sim_per_test_min: 0.0,
            description: "scriptable test backend".to_string(),
        }
    }

    fn cost_model(&self) -> CompileCostModel {
        CompileCostModel::default()
    }

    fn style_check(&self, _p: &Program) -> Vec<StyleViolation> {
        self.style_checks
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.style.clone()
    }

    fn compile(&self, _p: &Program, _key: u64) -> Result<Compiled, ToolchainError> {
        self.compiles
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(Compiled {
            diags: self.diags.clone(),
            transients: 0,
        })
    }

    fn simulate(
        &self,
        _p: &Program,
        _args: &[ArgValue],
        _key: u64,
    ) -> Result<Simulated, ToolchainError> {
        self.simulates
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(Simulated {
            result: SimResult {
                outcome: minic_exec::Outcome::default(),
                estimate: hls_sim::FpgaEstimate {
                    cycles: 1.0,
                    latency_ms: 1.0,
                    effective_ops: 1.0,
                },
            },
            transients: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterogen_faults::NoFaults;
    use std::collections::HashMap;
    use std::sync::Mutex;

    fn prog() -> Program {
        minic::parse("int kernel(int x) { return x * 2; }").unwrap()
    }

    fn fp(p: &Program) -> u64 {
        minic::fingerprint_program(p)
    }

    /// Transient for the first `n` attempts of every invocation, then clean.
    struct TransientFor(u32);
    impl FaultInjector for TransientFor {
        fn fault(&self, _site: FaultSite, _key: u64, attempt: u32) -> Option<Fault> {
            (attempt < self.0).then_some(Fault::Transient)
        }
    }

    /// Never faults, but counts consultations and reports itself enabled.
    #[derive(Default)]
    struct CountingNone(std::sync::atomic::AtomicU32);
    impl CountingNone {
        fn calls(&self) -> u32 {
            self.0.load(std::sync::atomic::Ordering::SeqCst)
        }
    }
    impl FaultInjector for CountingNone {
        fn fault(&self, _site: FaultSite, _key: u64, _attempt: u32) -> Option<Fault> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            None
        }
    }

    /// In-memory [`VerdictStore`] double with hit/put counters.
    #[derive(Default)]
    struct MapStore {
        map: Mutex<HashMap<VerdictKey, EvalResult>>,
        gets: std::sync::atomic::AtomicU32,
        puts: std::sync::atomic::AtomicU32,
    }
    impl VerdictStore for MapStore {
        fn get_verdict(&self, key: &VerdictKey) -> Option<EvalResult> {
            self.gets.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.map.lock().unwrap().get(key).cloned()
        }
        fn put_verdict(&self, key: &VerdictKey, r: &EvalResult) {
            self.puts.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            self.map.lock().unwrap().insert(key.clone(), r.clone());
        }
    }

    #[test]
    fn persisted_layer_serves_warm_verdicts_before_the_backend() {
        let store: Arc<MapStore> = Arc::new(MapStore::default());
        let mock = MockToolchain::clean();
        let p = prog();
        {
            // Cold process: miss → compute → record.
            let cold = Persisted::new(&mock, Some(store.clone() as Arc<dyn VerdictStore>));
            cold.evaluate(&p, fp(&p), false).unwrap();
            cold.evaluate(&p, fp(&p), false).unwrap();
        }
        assert_eq!(mock.compile_calls(), 1);
        assert_eq!(
            store.puts.load(std::sync::atomic::Ordering::SeqCst),
            1,
            "second evaluation hit the store we just wrote"
        );
        // Warm process: the verdict comes from the store, so neither the
        // retry layer's injector nor the backend is consulted.
        let injector = CountingNone::default();
        let warm = Persisted::new(
            Resilient::new(&mock, &injector, RetryPolicy::default()),
            Some(store.clone() as Arc<dyn VerdictStore>),
        );
        let r = warm.evaluate(&p, fp(&p), false).unwrap();
        assert_eq!(
            mock.compile_calls(),
            1,
            "warm hit never reaches the backend"
        );
        assert_eq!(
            injector.calls(),
            0,
            "a store hit never consults the injector"
        );
        assert!(r.diags.is_some());
        // The key includes the style gate: a gated evaluation is distinct.
        warm.evaluate(&p, fp(&p), true).unwrap();
        assert_eq!(mock.compile_calls(), 2);
        assert_eq!(injector.calls(), 1);
        // Disabled layer is transparent (and consults no store).
        let off = Persisted::new(&mock, None);
        off.evaluate(&p, fp(&p), false).unwrap();
        assert_eq!(mock.compile_calls(), 3);
    }

    #[test]
    fn persisted_key_separates_backends() {
        let store: Arc<MapStore> = Arc::new(MapStore::default());
        let p = prog();
        let mock = MockToolchain::clean();
        for _ in 0..2 {
            Persisted::new(&mock, Some(store.clone() as Arc<dyn VerdictStore>))
                .evaluate(&p, fp(&p), false)
                .unwrap();
        }
        assert_eq!(mock.compile_calls(), 1, "one backend reuses its verdict");
        let embedded = SimBackend::embedded_profile();
        Persisted::new(&embedded, Some(store.clone() as Arc<dyn VerdictStore>))
            .evaluate(&p, fp(&p), false)
            .unwrap();
        assert_eq!(
            store.map.lock().unwrap().len(),
            2,
            "backends never alias in the store"
        );
    }

    #[test]
    fn retry_exhaustion_converts_transient_to_permanent_through_the_stack() {
        let mock = MockToolchain::clean();
        let store: Arc<MapStore> = Arc::new(MapStore::default());
        let stack = Persisted::new(
            Resilient::new(&mock, TransientFor(u32::MAX), RetryPolicy::default()),
            Some(store.clone() as Arc<dyn VerdictStore>),
        );
        let p = prog();
        let err = stack.evaluate(&p, fp(&p), true).unwrap_err();
        assert!(err.is_exhausted());
        assert!(!err.is_transient(), "exhaustion is not retryable");
        // Default policy: 3 retries → 4 transient attempts absorbed.
        assert_eq!(err.absorbed_transients(), 4);
        assert_eq!(mock.compile_calls(), 0, "the backend was never reached");
        assert!(err
            .to_string()
            .starts_with("permanent toolchain fault at hls_check:"));
        // Errors are not recorded: the same fingerprint faults afresh.
        assert_eq!(store.puts.load(std::sync::atomic::Ordering::SeqCst), 0);
        let err2 = stack.evaluate(&p, fp(&p), true).unwrap_err();
        assert_eq!(err, err2);
    }

    #[test]
    fn retries_surface_once_as_transients() {
        let mock = MockToolchain::clean();
        let stack = Persisted::new(
            Resilient::new(&mock, TransientFor(2), RetryPolicy::default()),
            None,
        );
        let p = prog();
        let r = stack.evaluate(&p, fp(&p), true).unwrap();
        assert_eq!(r.transients, 2, "two faulted attempts were absorbed");
        assert_eq!(mock.compile_calls(), 1, "one compile despite the retries");
        assert_eq!(mock.style_check_calls(), 1);
    }

    #[test]
    fn style_gate_rejects_before_any_compile() {
        let mock = MockToolchain {
            style: vec![StyleViolation {
                message: "pipeline outside loop".to_string(),
                function: Some("kernel".to_string()),
            }],
            ..MockToolchain::default()
        };
        let injector = CountingNone::default();
        let stack = Persisted::new(
            Resilient::new(&mock, &injector, RetryPolicy::default()),
            None,
        );
        let p = prog();
        let r = stack.evaluate(&p, fp(&p), true).unwrap();
        assert!(!r.style_clean);
        assert!(r.diags.is_none());
        assert_eq!(mock.style_check_calls(), 1);
        assert_eq!(mock.compile_calls(), 0);
        assert_eq!(injector.calls(), 0, "no compile, so no fault consultation");
        // With the gate off the compile happens and style joins the diags.
        let r = stack.evaluate(&p, fp(&p), false).unwrap();
        assert_eq!(r.diags.unwrap().len(), 1);
        assert_eq!(mock.compile_calls(), 1);
        assert_eq!(injector.calls(), 1);
    }

    #[test]
    fn default_stack_matches_the_bare_backend() {
        let backend = SimBackend::default_profile();
        let stack = Persisted::new(
            Resilient::new(&backend, NoFaults, RetryPolicy::default()),
            None,
        );
        let p = minic::parse("void kernel(int x) { int a[x]; }").unwrap();
        let through = stack.evaluate(&p, fp(&p), false).unwrap();
        let bare = backend.evaluate(&p, fp(&p), false).unwrap();
        assert_eq!(through.style_clean, bare.style_clean);
        assert_eq!(through.loc, bare.loc);
        assert_eq!(through.diags.unwrap(), bare.diags.unwrap());
        assert_eq!(stack.diagnose(&p), backend.diagnose(&p));
        assert_eq!(backend.diagnose(&p).len(), hls_sim::check_program(&p).len());
    }

    #[test]
    fn profiles_are_distinct_and_resolvable() {
        for name in SimBackend::names() {
            assert!(SimBackend::by_name(name).is_some(), "{name}");
        }
        assert!(SimBackend::by_name("nope").is_none());
        let a = SimBackend::default_profile().info();
        let b = SimBackend::embedded_profile().info();
        assert_ne!(a.name, b.name);
        assert!(b.compile_base_min > a.compile_base_min);
        assert!(b.max_speedup < a.max_speedup);
        assert!(a.to_string().contains("xcvu9p"));

        // Same kernel, different latency estimates: the seam is real.
        let p = minic::parse(
            "void kernel(int a[16]) { for (int i = 0; i < 16; i++) { a[i] = a[i] + 1; } }",
        )
        .unwrap();
        let args = vec![ArgValue::IntArray(vec![0; 16])];
        let da = SimBackend::default_profile()
            .simulate(&p, &args, 0)
            .unwrap();
        let db = SimBackend::embedded_profile()
            .simulate(&p, &args, 0)
            .unwrap();
        assert_eq!(da.result.outcome, db.result.outcome, "behaviour agrees");
        assert!(
            db.result.estimate.latency_ms > da.result.estimate.latency_ms,
            "embedded profile is slower: {} vs {}",
            db.result.estimate.latency_ms,
            da.result.estimate.latency_ms
        );
    }

    #[test]
    fn resilient_simulate_replays_fuel_spikes() {
        let backend = SimBackend::default_profile();
        let plan = heterogen_faults::FaultPlan::builder(3)
            .with_fuel_spike_rate(1.0)
            .with_spike_factor(4)
            .build();
        let resilient = Resilient::new(&backend, &plan, RetryPolicy::default());
        let p = prog();
        let args = vec![ArgValue::Int(21)];
        let spiked = resilient.simulate(&p, &args, 11).unwrap();
        let plain = backend.simulate(&p, &args, 11).unwrap();
        assert_eq!(
            spiked.result, plain.result,
            "survivable spike is transparent"
        );
        assert_eq!(spiked.transients, 0);
    }

    /// One fault kind at one site, on every attempt.
    struct Always(FaultSite, Fault);
    impl FaultInjector for Always {
        fn fault(&self, site: FaultSite, _key: u64, _attempt: u32) -> Option<Fault> {
            (site == self.0).then_some(self.1)
        }
    }

    #[test]
    fn resilient_check_surfaces_injected_faults() {
        let mock = MockToolchain::clean();
        let p = prog();
        let retry = RetryPolicy::default();

        // A transient run within the retry policy is absorbed; one that
        // outlives it surfaces as exhausted at hls_check.
        let plan = heterogen_faults::FaultPlan::builder(1)
            .with_transient_rate(1.0)
            .with_transient_len(1)
            .build();
        let c = Resilient::new(&mock, &plan, retry).compile(&p, 5).unwrap();
        assert!(c.diags.is_empty());
        assert_eq!(c.transients, 1);
        let err = Resilient::new(&mock, Always(FaultSite::HlsCheck, Fault::Transient), retry)
            .compile(&p, 5)
            .unwrap_err();
        assert!(err.is_exhausted() && err.site() == "hls_check", "{err}");

        // A permanent fault is not retried, and other keys are untouched.
        let permanent = heterogen_faults::FaultPlan::builder(1)
            .with_permanent_key(5)
            .build();
        let resilient = Resilient::new(&mock, &permanent, retry);
        let err = resilient.compile(&p, 5).unwrap_err();
        assert!(!err.is_transient() && !err.is_exhausted(), "{err}");
        assert_eq!(err.site(), "hls_check");
        assert!(resilient.compile(&p, 6).is_ok());
        assert_eq!(
            mock.compile_calls(),
            2,
            "only clean attempts reach the backend"
        );
    }

    #[test]
    #[should_panic(expected = "injected poison fault")]
    fn resilient_check_poison_panics() {
        let mock = MockToolchain::clean();
        let plan = heterogen_faults::FaultPlan::builder(1)
            .with_poison_key(9)
            .build();
        let _ = Resilient::new(&mock, &plan, RetryPolicy::default()).compile(&prog(), 9);
    }

    #[test]
    fn resilient_simulate_decides_every_fault_kind() {
        let mock = MockToolchain::clean();
        let p = prog();
        let retry = RetryPolicy::default();
        let at = |fault| Resilient::new(&mock, Always(FaultSite::HlsSim, fault), retry);

        // A transient fault is retried; one that outlives the policy
        // surfaces as exhausted at hls_sim.
        let absorbed = Resilient::new(&mock, TransientFor(2), retry)
            .simulate(&p, &[], 5)
            .unwrap();
        assert_eq!(absorbed.transients, 2);
        let err = at(Fault::Transient).simulate(&p, &[], 5).unwrap_err();
        assert!(err.is_exhausted() && err.site() == "hls_sim", "{err}");

        // A permanent fault is not retried.
        let err = at(Fault::Permanent).simulate(&p, &[], 5).unwrap_err();
        assert!(!err.is_transient() && !err.is_exhausted(), "{err}");
        assert_eq!(err.site(), "hls_sim");

        // A poison fault panics for the caller's isolation boundary.
        let sim = at(Fault::Poison);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            drop(sim.simulate(&p, &[], 9))
        }))
        .unwrap_err();
        let msg = panic.downcast_ref::<String>().unwrap();
        assert!(msg.starts_with("injected poison fault"), "{msg}");
        assert_eq!(
            mock.simulate_calls(),
            1,
            "only the absorbed run reached the backend"
        );
    }

    #[test]
    fn resilient_co_simulator_decides_faults_before_the_inner_preparation() {
        let mock = MockToolchain::clean();
        let p = prog();
        let retry = RetryPolicy::default();
        let signal = DrainSignal::new();
        signal.drain();
        let gate = DrainGate::new(&mock, signal);
        // Without faults the inner layer's preparation comes back as is, so
        // the drained gate refuses it outright.
        let plain = Resilient::new(&gate, NoFaults, retry);
        assert_eq!(plain.co_simulator(&p).err().unwrap().site(), "drain");
        // Under an injector the refusal surfaces in each run, after that
        // run's fault decision, where a per-test simulation would fail.
        let injector = CountingNone::default();
        let resilient = Resilient::new(&gate, &injector, retry);
        let cosim = resilient.co_simulator(&p).unwrap();
        assert_eq!(injector.calls(), 0, "preparing decides no fault");
        for key in [1, 2] {
            assert_eq!(cosim.run(&[], key).unwrap_err().site(), "drain");
        }
        assert_eq!(injector.calls(), 2, "one decision per run");
        // Transients absorbed before the refusal travel on it.
        let err = Resilient::new(&gate, TransientFor(2), retry)
            .co_simulator(&p)
            .unwrap()
            .run(&[], 3)
            .unwrap_err();
        assert_eq!(err.site(), "drain");
        assert_eq!(err.absorbed_transients(), 2);
        let err = Resilient::new(&gate, TransientFor(2), retry)
            .compile(&p, 3)
            .unwrap_err();
        assert_eq!(err.site(), "drain");
        assert_eq!(err.absorbed_transients(), 2);
        assert_eq!(mock.simulate_calls(), 0);
    }

    #[test]
    fn disabled_injector_compiles_straight_through() {
        let mock = MockToolchain::clean();
        let resilient = Resilient::new(&mock, NoFaults, RetryPolicy::default());
        let p = prog();
        assert!(resilient.compile(&p, 1).unwrap().diags.is_empty());
        assert_eq!(resilient.simulate(&p, &[], 1).unwrap().transients, 0);
        assert_eq!(mock.compile_calls(), 1);
        assert_eq!(mock.simulate_calls(), 1);
    }

    #[test]
    fn drain_gate_is_transparent_until_the_signal_flips() {
        let mock = MockToolchain {
            diags: vec![HlsDiagnostic::new(
                "XFORM 202-876",
                "unknown-size array",
                ErrorCategory::DynamicDataStructures,
            )],
            ..MockToolchain::default()
        };
        let signal = DrainSignal::new();
        let gate = DrainGate::new(&mock, signal.clone());
        let p = prog();
        assert!(gate.compile(&p, 1).is_ok());
        assert!(gate.evaluate(&p, fp(&p), true).is_ok());
        let cosim = gate.co_simulator(&p).unwrap();
        assert!(cosim.run(&[], 1).is_ok());
        assert!(!signal.is_draining());

        signal.drain();
        assert!(signal.is_draining());
        let err = gate.compile(&p, 2).unwrap_err();
        assert!(!err.is_transient(), "revocation must not be retried");
        assert_eq!(err.site(), "drain");
        assert!(gate.simulate(&p, &[], 2).is_err());
        // A co-simulation prepared before the drain is revoked on its next
        // run, without reaching the backend; a new one is refused outright.
        let simulates = mock.simulate_calls();
        let err = cosim.run(&[], 2).unwrap_err();
        assert!(!err.is_transient(), "revocation must not be retried");
        assert_eq!(err.site(), "drain");
        assert_eq!(mock.simulate_calls(), simulates);
        assert_eq!(gate.co_simulator(&p).err().unwrap().site(), "drain");
        // `evaluate` refuses before the style check runs.
        let style_checks = mock.style_check_calls();
        assert!(gate.evaluate(&p, fp(&p), true).is_err());
        assert_eq!(mock.style_check_calls(), style_checks);
        // Cloned signals share the flag: a second gate on the same signal is
        // also revoked.
        let other = DrainGate::new(&mock, signal.clone());
        assert!(other.compile(&p, 3).is_err());
        // Non-fallible queries still answer during drain, and `diagnose`
        // forwards ungated (a drained job still reports its initial errors).
        assert!(gate.style_check(&p).is_empty());
        let compiles = mock.compile_calls();
        assert_eq!(gate.diagnose(&p), mock.diags);
        assert_eq!(mock.compile_calls(), compiles + 1);
    }

    /// `p` with every statement pragma removed: the same node ids on
    /// everything else.
    fn without_pragmas(p: &Program) -> Program {
        let mut q = p.clone();
        minic::visit::visit_blocks_mut(&mut q, &mut |b| {
            b.stmts_mut()
                .retain(|s| !matches!(s.kind, minic::StmtKind::Pragma(_)))
        });
        q
    }

    /// Co-simulates `src` with its statement pragmas removed, then `src`
    /// itself, on one backend. Asserts the second run equals a fresh run
    /// bit for bit, and returns it with the memo counters it moved.
    fn pragma_variant(
        backend: &SimBackend,
        src: &str,
        args: &[ArgValue],
    ) -> (SimResult, MemoStats) {
        let variant = minic::parse(src).unwrap();
        let base = without_pragmas(&variant);
        backend.co_simulator(&base).unwrap().run(args, 0).unwrap();
        let before = backend.memo_stats();
        let got = backend
            .co_simulator(&variant)
            .unwrap()
            .run(args, 0)
            .unwrap()
            .result;
        let fresh = FpgaSimulator::new(&variant).unwrap().run(args);
        assert_eq!(
            format!("{:?}", got.outcome),
            format!("{:?}", fresh.outcome),
            "{src}"
        );
        assert_eq!(
            got.estimate.cycles.to_bits(),
            fresh.estimate.cycles.to_bits(),
            "{src}"
        );
        assert_eq!(
            got.estimate.latency_ms.to_bits(),
            fresh.estimate.latency_ms.to_bits(),
            "{src}"
        );
        let after = backend.memo_stats();
        let moved = MemoStats {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            bypasses: std::array::from_fn(|i| after.bypasses[i] - before.bypasses[i]),
        };
        (got, moved)
    }

    fn only(why: Bypass) -> MemoStats {
        let mut stats = MemoStats::default();
        stats.bypasses[why as usize] = 1;
        stats
    }

    const HIT: MemoStats = MemoStats {
        hits: 1,
        misses: 0,
        evictions: 0,
        bypasses: [0; 7],
    };

    #[test]
    fn pragma_variants_replay_exactly_from_the_memo() {
        let backend = SimBackend::default_profile();
        let loops = "void kernel(int a[8], int n) {\n#pragma HLS array_partition variable=a factor=2 dim=1\n\
            for (int i = 0; i < 8; i++) {\n#pragma HLS pipeline II=1\n#pragma HLS unroll factor=2\n\
            int j = 0; do {\n#pragma HLS loop_tripcount min=1 max=4\n a[i] = a[i] + j; j++; } while (j < n); } }";
        let args = [
            ArgValue::IntArray(vec![1, 2, 3, 4, 5, 6, 7, 8]),
            ArgValue::Int(3),
        ];
        assert_eq!(pragma_variant(&backend, loops, &args).1, HIT);
        // A recursive function's head pragma runs once per call, the
        // recursive ones included.
        let recursive = "int fact(int n) {\n#pragma HLS inline\n if (n <= 1) { return 1; } return n * fact(n - 1); }\n\
            int kernel(int n) { return fact(n) + fact(2); }";
        let (r, moved) = pragma_variant(&backend, recursive, &[ArgValue::Int(6)]);
        assert_eq!(moved, HIT);
        assert!(!r.outcome.trapped);
        assert_eq!(backend.memo_stats().misses, 2);
    }

    #[test]
    fn runs_the_memo_cannot_answer_exactly_run_for_real() {
        let backend = SimBackend::default_profile();
        // A method shares the free function's name; the VM counts their
        // calls together.
        let shared = "struct Acc { int v; int add(int n) { v = v + n; return v; } };\n\
            int add(int x) {\n#pragma HLS inline\n return x + 1; }\n\
            int kernel(int n) { struct Acc a = {0}; a.add(n); a.add(n); return add(n) + a.v; }";
        let (_, moved) = pragma_variant(&backend, shared, &[ArgValue::Int(4)]);
        assert_eq!(moved, only(Bypass::SharedName));
        // A pragma off a loop body's or free function's head.
        let stray = "int kernel(int n) { int s = 0; for (int i = 0; i < n; i++) { s = s + i;\n#pragma HLS pipeline\n } \n\
            if (s > 3) {\n#pragma HLS inline\n s = 1; } return s; }";
        let (_, moved) = pragma_variant(&backend, stray, &[ArgValue::Int(5)]);
        assert_eq!(moved, only(Bypass::PragmaSite));
        // A trapping input stores nothing.
        let trapping = "int kernel(int n) {\n#pragma HLS inline\n return 10 / n; }";
        let (r, moved) = pragma_variant(&backend, trapping, &[ArgValue::Int(0)]);
        assert!(r.outcome.trapped);
        assert_eq!(moved, only(Bypass::Trapped));
        assert_eq!(backend.memo_stats().bypassed(Bypass::Trapped), 2);
        // 1000 pragmas at the head of a 50 000-iteration loop charge
        // 50M units: past the fuel limit, where the real run traps.
        let heavy = format!(
            "int kernel(int n) {{ int s = 0; for (int i = 0; i < n; i++) {{\n{}\n s = s + i; }} return s; }}",
            "#pragma HLS loop_tripcount min=1 max=2\n".repeat(1000)
        );
        let (r, moved) = pragma_variant(&backend, &heavy, &[ArgValue::Int(50_000)]);
        assert_eq!(moved, only(Bypass::FuelLimit));
        assert!(r.outcome.trapped, "{:?}", r.outcome);
        // A spiked run never consults the memo.
        let p = minic::parse(&heavy).unwrap();
        let _ = backend.simulate_spiked(&p, &[ArgValue::Int(3)], 2, 0);
        assert_eq!(backend.memo_stats().bypassed(Bypass::Spiked), 1);
    }

    #[test]
    fn the_tree_walker_never_sees_a_trace() {
        let backend = SimBackend::default_profile().with_engine(ExecEngine::TreeWalk);
        let src = "int kernel(int n) { int s = 0; for (int i = 0; i < n; i++) {\n#pragma HLS pipeline\n s = s + i; } return s; }";
        let (_, moved) = pragma_variant(&backend, src, &[ArgValue::Int(5)]);
        assert_eq!(moved, only(Bypass::TreeWalk));
        assert_eq!(backend.memo_stats().misses, 0);
    }
}
