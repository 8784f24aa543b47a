//! The evolutionary repair search (paper §5.3).
//!
//! Starting from the broken initial HLS version, the search repeatedly
//! expands the fittest candidate with localized edits. Candidates that
//! violate HLS coding style are rejected *before* the expensive full
//! compilation (the checker ablation); applicable edits are enumerated in
//! dependence order (the dependence ablation). Error-free candidates are
//! differentially tested; divergences trigger `resize` exploration (§6.2);
//! once behaviour is preserved the search keeps applying
//! performance-improving edits until the budget expires.
//!
//! # Parallel candidate evaluation
//!
//! Each expansion batch is evaluated in three phases so that worker threads
//! never touch the simulated clock, the stats counters, or the dedup set:
//!
//! 1. **Plan** (caller thread): apply every edit, fingerprint the children,
//!    and classify them as inapplicable / duplicate / fresh *without*
//!    mutating any search state.
//! 2. **Evaluate** (worker pool): style-check and fully compile the fresh
//!    children concurrently.
//! 3. **Merge** (caller thread): replay the exact sequential accounting in
//!    edit order — budget expiry, attempt/reject counters, clock billing,
//!    dedup insertion, frontier growth.
//!
//! Because phase 3 performs the same state transitions in the same order as
//! the sequential loop, `threads` changes wall-clock time only: the applied
//! edits, stats, and RNG trajectory are identical for any thread count.
//! The performance phase's chain, where each accepted edit feeds the next,
//! is one-edit batches through the same three phases: each batch applies
//! its edit to the last child admitted without errors, and its one child
//! is evaluated inline on the caller thread.
//!
//! A fourth mechanism overlaps whole iterations:
//!
//! 4. **Test ahead** (one pool helper, via [`parallel::join`]): while the
//!    caller expands the popped candidate X, a helper differentially tests
//!    Y, the first fitness minimum of the frontier after X's `swap_remove`,
//!    whenever Y is error-free. Y is exactly the next pop: popped
//!    candidates are never pushed back, so every frontier entry is untested
//!    with fitness `(errors, key(1.0), u64::MAX)`; `min_by_key` takes the
//!    first minimum; and expansion only appends, so no child can displace
//!    an error-free Y. At Y's pop the caller bills the clock and
//!    `stats.simulations`, emits `DiffEvaluated` and persists the verdict
//!    exactly as a live test does, so the report and trace bytes do not
//!    change. A panic in the test, or a popped fingerprint that differs
//!    from Y's (a `debug_assert`), falls back to testing at pop time.
//!    Nothing is tested ahead at one thread, under an enabled fault
//!    injector, or when the store already holds Y's verdict. A search
//!    wastes at most one such test — Y tested ahead of a pop it never
//!    reached — and persists that verdict too.

use crate::deps;
use crate::diff::{self, emit_diff, DiffReport, DifferentialTester};
use crate::localize::{candidate_edits, resize_edits};
use crate::script::{EditKind, EditScript, FixPattern, ScriptEdit};
use crate::templates::{RepairEdit, ResizeTarget};
use heterogen_faults::{FaultInjector, NoFaults, ResilienceStats, RetryPolicy};
use heterogen_toolchain::{
    diff_tests_fingerprint, DiffKey, EvalResult, Persisted, Resilient, SimBackend, Toolchain,
    VerdictStore,
};
use heterogen_trace::{Event, NullSink, TraceSink, Verdict};
use hls_sim::{CompileCostModel, HlsDiagnostic, SimClock, ToolchainError};
use minic::ast::PragmaKind;
use minic::Program;
use minic_exec::Profile;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::sync::Arc;
use testgen::TestCase;

/// Search configuration (including the two Figure 9 ablation switches).
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`SearchConfig::builder`] (or start from [`SearchConfig::default`] and
/// assign fields) so future knobs are not semver breaks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SearchConfig {
    /// Simulated-minute budget (the paper's default terminating limit is
    /// three hours; `WithoutDependence` runs against a 12-hour limit).
    pub budget_min: f64,
    /// `false` = the `WithoutChecker` ablation: every candidate goes
    /// straight to full compilation.
    pub use_style_checker: bool,
    /// `false` = the `WithoutDependence` ablation: edits are drawn in
    /// random order from an unstructured pool.
    pub use_dependence: bool,
    /// RNG seed (relevant to the random ablation).
    pub rng_seed: u64,
    /// Cap on tests used per differential evaluation.
    pub max_diff_tests: usize,
    /// Keep applying performance edits after success.
    pub explore_performance: bool,
    /// Concurrent participants in candidate evaluation and differential
    /// testing, *including the calling thread* (the rest are helpers from
    /// the shared `parallel` pool); `0` means "use available parallelism",
    /// `1` runs inline. Any value produces the same applied edits, stats,
    /// and outcome — only wall-clock time changes.
    pub threads: usize,
    /// Cap on toolchain evaluations (full compiles + simulation batches);
    /// `None` = unbounded. Exhausting the cap stops the search with
    /// [`SearchStop::EvalBudgetExhausted`] and the best candidate so far.
    pub max_evals: Option<u64>,
    /// Mined fix patterns tried as a candidate tier *ahead of* the static
    /// precedence graph: edits predicted by a pattern (given the candidate's
    /// applied-kind suffix) sort before the dependence ranking. Empty (the
    /// default) leaves the search byte-identical to the pattern-free one.
    pub mined: Arc<Vec<FixPattern>>,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            budget_min: 180.0,
            use_style_checker: true,
            use_dependence: true,
            rng_seed: 7,
            max_diff_tests: 48,
            explore_performance: true,
            threads: 0,
            max_evals: None,
            mined: Arc::new(Vec::new()),
        }
    }
}

impl SearchConfig {
    /// Starts a builder from the default configuration.
    pub fn builder() -> SearchConfigBuilder {
        SearchConfigBuilder {
            cfg: SearchConfig::default(),
        }
    }

    /// Starts a builder from this configuration.
    pub fn to_builder(self) -> SearchConfigBuilder {
        SearchConfigBuilder { cfg: self }
    }
}

/// Builder for [`SearchConfig`].
///
/// ```
/// use repair::SearchConfig;
///
/// let cfg = SearchConfig::builder()
///     .with_budget_min(30.0)
///     .with_explore_performance(false)
///     .build();
/// assert_eq!(cfg.budget_min, 30.0);
/// ```
#[derive(Debug, Clone)]
pub struct SearchConfigBuilder {
    cfg: SearchConfig,
}

impl SearchConfigBuilder {
    /// Sets the simulated-minute budget.
    pub fn with_budget_min(mut self, v: f64) -> Self {
        self.cfg.budget_min = v;
        self
    }

    /// Enables or disables the cheap style pre-check (the `WithoutChecker`
    /// ablation disables it).
    pub fn with_style_checker(mut self, v: bool) -> Self {
        self.cfg.use_style_checker = v;
        self
    }

    /// Enables or disables dependence-ordered edit enumeration (the
    /// `WithoutDependence` ablation disables it).
    pub fn with_dependence(mut self, v: bool) -> Self {
        self.cfg.use_dependence = v;
        self
    }

    /// Sets the RNG seed.
    pub fn with_rng_seed(mut self, v: u64) -> Self {
        self.cfg.rng_seed = v;
        self
    }

    /// Sets the cap on tests used per differential evaluation.
    pub fn with_max_diff_tests(mut self, v: usize) -> Self {
        self.cfg.max_diff_tests = v;
        self
    }

    /// Enables or disables post-success performance exploration.
    pub fn with_explore_performance(mut self, v: bool) -> Self {
        self.cfg.explore_performance = v;
        self
    }

    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn with_threads(mut self, v: usize) -> Self {
        self.cfg.threads = v;
        self
    }

    /// Installs mined fix patterns as a candidate tier ahead of the static
    /// precedence graph (empty = off, the byte-identical default).
    pub fn with_mined_patterns(mut self, v: Vec<FixPattern>) -> Self {
        self.cfg.mined = Arc::new(v);
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> SearchConfig {
        self.cfg
    }
}

/// Cap on the edits tried per popped candidate.
const MAX_EXPANSIONS: usize = 24;

/// Beam width during performance exploration: the edits are already
/// benefit-ordered, so a narrow beam reaches multi-pragma combinations on
/// the hot loops within a bounded compile budget.
const PERF_BEAM: usize = 10;

/// Counters the Figure 9 ablations report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// Edits attempted (including inapplicable ones).
    pub attempts: u64,
    /// Edits that were structurally inapplicable (free rejections).
    pub inapplicable: u64,
    /// Style checks performed.
    pub style_checks: u64,
    /// Candidates rejected by the style checker (compilations avoided).
    pub style_rejects: u64,
    /// Full HLS compilations performed.
    pub full_compiles: u64,
    /// Differential-simulation batches performed.
    pub simulations: u64,
    /// Simulated minutes consumed (full budget including performance
    /// exploration).
    pub elapsed_min: f64,
    /// Simulated minutes until the first fully-repaired, behaviour-
    /// preserving candidate (the Figure 9 repair-time metric); `None`
    /// when no success was found within budget.
    pub first_success_min: Option<f64>,
    /// Edits attempted until the first fully-repaired, behaviour-preserving
    /// candidate (the mined-tier bench metric); `None` when no success was
    /// found within budget.
    pub first_success_attempts: Option<u64>,
}

impl SearchStats {
    /// Fraction of compile-worthy attempts that actually invoked the full
    /// HLS toolchain (the black bars of Figure 9).
    pub fn hls_invocation_ratio(&self) -> f64 {
        let reached_style_or_compile = self.full_compiles + self.style_rejects;
        if reached_style_or_compile == 0 {
            return 0.0;
        }
        self.full_compiles as f64 / reached_style_or_compile as f64
    }
}

/// Why the search loop stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchStop {
    /// A behaviour-preserving repair was found and performance exploration
    /// was disabled, so there was nothing left to do.
    Converged,
    /// The simulated-minute budget expired.
    BudgetExpired,
    /// The evaluation cap ([`SearchConfig::max_evals`]) was reached.
    EvalBudgetExhausted,
    /// Every reachable candidate was explored before the budget ran out.
    FrontierExhausted,
    /// A permanent toolchain fault (or a transient one that exhausted its
    /// retry policy) made further evaluation pointless.
    PermanentFault(String),
}

/// The result of a repair run.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The best program found.
    pub program: Program,
    /// All compatibility errors fixed *and* all tests behave identically.
    pub success: bool,
    /// Test pass ratio of the returned program.
    pub pass_ratio: f64,
    /// Mean FPGA latency of the returned program (ms).
    pub fpga_latency_ms: f64,
    /// Mean CPU latency of the original program (ms).
    pub cpu_latency_ms: f64,
    /// Whether the FPGA version beats the CPU original.
    pub improved: bool,
    /// Edit-family names applied along the winning path (derived from
    /// [`RepairOutcome::script`]; kept for report compatibility).
    pub applied: Vec<String>,
    /// The winning edit script: ordered parameterized edits with their
    /// anchor context.
    pub script: EditScript,
    /// Search counters.
    pub stats: SearchStats,
    /// Why the search stopped.
    pub stop: SearchStop,
    /// Faults absorbed along the way (kept out of [`SearchStats`] so a
    /// transient-recovered run reports identical primary statistics).
    pub resilience: ResilienceStats,
}

#[derive(Clone)]
struct Candidate {
    program: Arc<Program>,
    /// Structural fingerprint — the stable evaluation key fault injection
    /// and the verdict store share.
    fp: u64,
    /// The typed edit script along this search path.
    applied: Vec<ScriptEdit>,
    diags: Arc<Vec<HlsDiagnostic>>,
    pass_ratio: Option<f64>,
    latency: Option<f64>,
}

/// Maps an `f64` to a `u64` whose natural order matches `f64::total_cmp`
/// (sign bit set → complement, else set the sign bit). Unlike scaling by
/// `1e6` and truncating, this never saturates and never collapses nearby
/// values onto the same key.
fn ordered_f64_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

impl Candidate {
    /// Lower is better: (errors, failing fraction, latency). Candidates
    /// whose latency is not yet measured sort after every measured one
    /// (`u64::MAX` sentinel, past the key of `f64::INFINITY`).
    fn fitness(&self) -> (usize, u64, u64) {
        let fail = ordered_f64_key(1.0 - self.pass_ratio.unwrap_or(0.0));
        let lat = self.latency.map(ordered_f64_key).unwrap_or(u64::MAX);
        (self.diags.len(), fail, lat)
    }
}

/// One edit's classification from the speculative planning pass.
enum Planned {
    /// `edit.apply` returned `None` — structurally inapplicable.
    Inapplicable { kind: EditKind },
    /// Fingerprint already admitted (by the global dedup set or by an
    /// earlier edit in the same batch).
    Duplicate { kind: EditKind, fingerprint: u64 },
    /// A new program for the worker pool to evaluate.
    Fresh {
        program: Arc<Program>,
        fingerprint: u64,
        edit: ScriptEdit,
    },
}

/// A fresh child's evaluation as the worker pool hands it back: `Err` is
/// the message of a panic caught at the child's own boundary.
type Isolated = Result<Result<EvalResult, ToolchainError>, String>;

/// Runs the repair search on the default backend, with no trace, no
/// faults and no store: [`repair_persistent`] with [`NullSink`],
/// [`NoFaults`], [`SimBackend::default_profile`] and `None`.
///
/// `original` is the reference for differential testing; `broken` is the
/// initial HLS version (estimated types); `kernel` the kernel function
/// name; `tests` the generated suite; `profile` the execution profile from
/// test generation.
///
/// # Errors
///
/// Fails when the reference itself cannot be executed.
pub fn repair(
    original: &Program,
    broken: Program,
    kernel: &str,
    tests: &[TestCase],
    profile: &Profile,
    cfg: &SearchConfig,
) -> Result<RepairOutcome, String> {
    repair_persistent(
        original,
        broken,
        kernel,
        tests,
        profile,
        cfg,
        &NullSink,
        &NoFaults,
        &SimBackend::default_profile(),
        None,
    )
}

/// Runs the repair search (see [`repair`] for the first six parameters),
/// reporting structured [`Event`]s on `sink`, threading every toolchain
/// invocation through `injector`, evaluating on `backend`, and checking
/// (and populating) a durable [`VerdictStore`] before the retry layer.
///
/// **Tracing.** Events are emitted exclusively from the merge phase (the
/// caller thread's sequential accounting) — never from worker threads — so
/// for a fixed input the stream is byte-identical at every `cfg.threads`
/// setting. Every attempted edit yields exactly one
/// [`Event::CandidateEvaluated`] in merge order; billed toolchain
/// invocations additionally yield [`Event::FullCompile`] /
/// [`Event::StyleReject`], and edits joining a live search path yield
/// [`Event::EditApplied`]. The sink is a generic parameter (not `&dyn`) so
/// that a `NullSink` instantiation compiles every emission site away;
/// dynamic callers pass `S = dyn TraceSink`.
///
/// **Resilience.**
///
/// * a **poisoned** (panicking) candidate is isolated with `catch_unwind`,
///   billed exactly what its fault-free evaluation would have cost, recorded
///   as [`Verdict::Crashed`], and dropped — the batch continues;
/// * **transient** faults are retried with the default [`RetryPolicy`];
///   the deterministic backoff is billed to [`ResilienceStats::backoff_min`]
///   (never the search budget), so a run whose transients all recover is
///   byte-identical — same outcome, stats, and trace timestamps — to a
///   fault-free run;
/// * a **permanent** fault stops the search immediately with
///   [`SearchStop::PermanentFault`] and the best candidate found so far.
///
/// Fault decisions are keyed by candidate fingerprint (mixed with the test
/// index at the simulation site), and the dedup set guarantees each
/// fingerprint merges exactly once, so the injected schedule is reproducible
/// at any `cfg.threads` setting.
///
/// **Backend.** Every style check, full compile, and co-simulation goes
/// through `backend`, wrapped in the middleware stack
/// `Persisted(Resilient(backend))`. The stack emits nothing; all events come
/// from the merge phase's sequential accounting, so the observable
/// behaviour on [`SimBackend::default_profile`] is byte-identical to the
/// pre-backend direct-call pipeline. Billing constants come from
/// [`Toolchain::cost_model`], so a slower backend consumes the simulated
/// budget faster.
///
/// **Store.** The store's [`VerdictKey`](heterogen_toolchain::VerdictKey)
/// is the stack's only cache key: the search's dedup set already drops
/// every repeated fingerprint before it is evaluated. Because the merge
/// phase bills clock cost and counts compiles independently of how
/// `evaluate` was satisfied, a warm store changes wall-clock time only —
/// the search trajectory, stats, report, and trace bytes are identical to
/// a cold run. `store` `None` disables the layer.
///
/// # Errors
///
/// Fails when the reference itself cannot be executed.
#[allow(clippy::too_many_arguments)]
pub fn repair_persistent<B, S, I>(
    original: &Program,
    broken: Program,
    kernel: &str,
    tests: &[TestCase],
    profile: &Profile,
    cfg: &SearchConfig,
    sink: &S,
    injector: &I,
    backend: &B,
    store: Option<Arc<dyn VerdictStore>>,
) -> Result<RepairOutcome, String>
where
    B: Toolchain + ?Sized,
    S: TraceSink + ?Sized,
    I: FaultInjector + ?Sized,
{
    let retry = RetryPolicy::default();
    let mut ledger = Ledger {
        cfg,
        costs: backend.cost_model(),
        retry,
        sink,
        clock: SimClock::with_budget(cfg.budget_min),
        stats: SearchStats::default(),
        resilience: ResilienceStats::default(),
    };
    let mut stop: Option<SearchStop> = None;
    let mut rng = SmallRng::seed_from_u64(cfg.rng_seed);

    let tester =
        DifferentialTester::with_threads(original, kernel, tests, cfg.max_diff_tests, cfg.threads)?;
    ledger
        .clock
        .advance(ledger.costs.cpu_tests(tester.test_count()));

    // Differential verdicts are stored only on the fault-free path: with
    // an enabled injector the evaluation's observables depend on the fault
    // plan, so it always runs live.
    let verdicts = StoredDiffs(store.clone().filter(|_| !injector.enabled()).map(|store| {
        let template = DiffKey {
            program_fp: 0,
            reference_fp: minic::fingerprint_program(original),
            kernel: kernel.to_string(),
            tests_fp: diff_tests_fingerprint(tester.tests()),
            backend: backend.info().name,
        };
        (store, template)
    }));

    // The search evaluates every candidate through `stack`. The initial
    // compile uses the same stack with the injector disabled — there is no
    // search to degrade gracefully before the first candidate exists.
    let stack = eval_stack(backend, injector, retry, store.clone());
    let initial = eval_stack(backend, NoFaults, retry, store);

    // Compile the initial version (style checker bypassed: the initial
    // candidate always gets a full diagnosis, as a real flow would). The
    // compile is billed from the LOC the evaluation measured.
    ledger.stats.full_compiles += 1;
    let fp0 = minic::fingerprint_program(&broken);
    // The injector is disabled for the initial compile, so the only way
    // this fails is the backend itself being revoked (e.g. a server drain
    // gate flipping before the first candidate). Degrade exactly like a
    // mid-search permanent fault: hand back the untouched initial version
    // with the stop reason recorded.
    let eval0 = match initial.evaluate(&broken, fp0, false) {
        Ok(eval) => eval,
        Err(e) => {
            ledger.clock.advance(ledger.costs.full_compile(&broken));
            ledger.resilience.permanent_faults += 1;
            let stop = SearchStop::PermanentFault(e.to_string());
            return Ok(ledger.finish(broken, Vec::new(), 0.0, None, &tester, stop));
        }
    };
    let cost0 = ledger.costs.full_compile_loc(eval0.loc);
    ledger.clock.advance(cost0);
    ledger.emit(|at_min| Event::FullCompile {
        fingerprint: fp0,
        loc: eval0.loc as u64,
        cost_min: cost0,
        at_min,
    });
    let diags0 = eval0.diags.expect("full compile always diagnoses");
    let mut frontier: Vec<Candidate> = vec![Candidate {
        program: Arc::new(broken),
        fp: fp0,
        applied: Vec::new(),
        diags: diags0,
        pass_ratio: None,
        latency: None,
    }];
    // Dedup on structural fingerprint (config included: it carries the
    // top-function name and clock, which the printer may not).
    let mut seen: HashSet<u64> = HashSet::new();
    let mut best: Option<Candidate> = None;

    // Testing the next pop ahead of time (see the module docs) needs a
    // helper to overlap with, and fault-free observables to replay.
    let test_ahead = parallel::effective_threads(cfg.threads) > 1 && !injector.enabled();
    // The next pop's fingerprint and its differential report, when it was
    // tested while the previous candidate expanded.
    let mut tested_ahead: Option<(u64, DiffReport)> = None;

    while !ledger.clock.expired() {
        if let Some(cap) = cfg.max_evals {
            if ledger.stats.full_compiles + ledger.stats.simulations >= cap {
                stop = Some(SearchStop::EvalBudgetExhausted);
                break;
            }
        }
        // Pop the fittest candidate.
        let Some(idx) = frontier
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.fitness())
            .map(|(i, _)| i)
        else {
            stop = Some(SearchStop::FrontierExhausted);
            break;
        };
        let mut cand = frontier.swap_remove(idx);
        let ahead = tested_ahead.take().and_then(|(fp, report)| {
            debug_assert_eq!(
                fp, cand.fp,
                "the candidate tested ahead must be the next pop"
            );
            (fp == cand.fp).then_some(report)
        });

        // Error-free candidates are differentially tested.
        if cand.diags.is_empty() && cand.pass_ratio.is_none() {
            ledger
                .clock
                .advance(ledger.costs.simulate(tester.test_count()));
            ledger.stats.simulations += 1;
            // A fault-free differential evaluation has exactly two
            // observables — the report's pair of floats and one
            // `DiffEvaluated` event derived from them — so a stored verdict
            // (or a test run ahead of this pop) replays it bit-for-bit. The
            // clock cost and simulation count above are billed either way,
            // keeping the trajectory hit-independent.
            let stored = verdicts.get(cand.fp);
            let from_store = stored.is_some();
            let (report, sim_faults) = match stored.or(ahead) {
                Some(report) => {
                    emit_diff(sink, tester.test_count(), &report);
                    (report, ResilienceStats::default())
                }
                None => tester.evaluate_with(
                    backend,
                    &cand.program,
                    sink,
                    injector,
                    &retry,
                    cand.fp,
                    ledger.clock.elapsed_min(),
                ),
            };
            if !from_store {
                verdicts.put(cand.fp, &report);
            }
            ledger.resilience.absorb(&sim_faults);
            cand.pass_ratio = Some(report.pass_ratio);
            cand.latency = Some(report.fpga_latency_ms);
            if report.pass_ratio == 1.0 {
                if ledger.stats.first_success_min.is_none() {
                    ledger.stats.first_success_min = Some(ledger.clock.elapsed_min());
                    ledger.stats.first_success_attempts = Some(ledger.stats.attempts);
                }
                let better = match &best {
                    Some(b) => report.fpga_latency_ms < b.latency.unwrap_or(f64::MAX),
                    None => true,
                };
                if better {
                    best = Some(cand.clone());
                }
                if !cfg.explore_performance {
                    stop = Some(SearchStop::Converged);
                    break;
                }
            }
        }

        // The next pop, if it is error-free: expanding `cand` only appends
        // to the frontier, so the first minimum stays first.
        let next = (test_ahead && !ledger.clock.expired())
            .then(|| frontier.iter().min_by_key(|c| c.fitness()))
            .flatten()
            .filter(|y| y.diags.is_empty() && verdicts.get(y.fp).is_none())
            .map(|y| (y.fp, y.program.clone()));
        let mut expand_cand = || {
            expand(
                &cand,
                &stack,
                profile,
                &mut ledger,
                &mut rng,
                &mut seen,
                &mut frontier,
            )
        };
        let flow = match next {
            None => expand_cand(),
            Some((fp, program)) => {
                let (flow, report) = parallel::join(cfg.threads, expand_cand, || {
                    parallel::isolate(|| {
                        tester
                            .evaluate_with(backend, &program, &NullSink, &NoFaults, &retry, fp, 0.0)
                            .0
                    })
                });
                // A panicking test ahead is simply redone at pop time.
                tested_ahead = report.ok().map(|r| (fp, r));
                flow
            }
        };
        if let ControlFlow::Break(reason) = flow {
            stop = Some(reason);
            break;
        }

        if frontier.is_empty() {
            stop = Some(SearchStop::FrontierExhausted);
            break;
        }
    }

    // A test run ahead of a pop the search never reached still produced a
    // valid fault-free verdict; persisting it spares a warm rerun the work.
    if let Some((fp, report)) = tested_ahead {
        verdicts.put(fp, &report);
    }
    // Falling out of the `while` condition means the simulated budget ran
    // dry; every other exit recorded its reason at the break site.
    let stop = stop.unwrap_or(SearchStop::BudgetExpired);
    // Without a success, return the fittest incomplete candidate with
    // generated tests to guide manual repair (paper §1).
    let (program, edits, pass_ratio, latency) = match best {
        Some(b) => (
            b.program,
            b.applied,
            1.0,
            Some(b.latency.unwrap_or(f64::INFINITY)),
        ),
        None => match frontier.into_iter().min_by_key(|c| c.fitness()) {
            Some(c) => (c.program, c.applied, c.pass_ratio.unwrap_or(0.0), None),
            None => (Arc::new(original.clone()), Vec::new(), 0.0, None),
        },
    };
    let out = ledger.finish(
        unwrap_program(program),
        edits,
        pass_ratio,
        latency,
        &tester,
        stop,
    );
    // Archive the winning script in the trace stream. Gated on the mined
    // tier so a pattern-free run's JSONL output stays byte-identical to the
    // pre-script pipeline; the store persists scripts unconditionally
    // through its own channel.
    if out.success && !cfg.mined.is_empty() && sink.enabled() {
        sink.emit(&Event::RepairScript {
            edits: trace_edits(&out.script),
            at_min: out.stats.elapsed_min,
        });
    }
    Ok(out)
}

/// The durable store's differential verdicts for one search: the store and
/// the key template whose every field but the candidate fingerprint is
/// fixed for the whole search. `None` disables both lookups and writes.
struct StoredDiffs(Option<(Arc<dyn VerdictStore>, DiffKey)>);

impl StoredDiffs {
    fn key(template: &DiffKey, fp: u64) -> DiffKey {
        DiffKey {
            program_fp: fp,
            ..template.clone()
        }
    }

    fn get(&self, fp: u64) -> Option<DiffReport> {
        let (store, template) = self.0.as_ref()?;
        store.get_diff(&Self::key(template, fp))
    }

    fn put(&self, fp: u64, report: &DiffReport) {
        if let Some((store, template)) = &self.0 {
            store.put_diff(&Self::key(template, fp), report);
        }
    }
}

/// The middleware stack one search evaluates candidates through:
/// fault consultation + transient retry over `backend`, under the durable
/// verdict store (a no-op layer when `store` is `None`).
fn eval_stack<B, I>(
    backend: &B,
    injector: I,
    retry: RetryPolicy,
    store: Option<Arc<dyn VerdictStore>>,
) -> Persisted<Resilient<&B, I>>
where
    B: Toolchain + ?Sized,
    I: FaultInjector,
{
    Persisted::new(Resilient::new(backend, injector, retry), store)
}

/// Expands one popped candidate: enumerates its edits and sends them
/// through plan → evaluate → merge, pushing every admitted child onto
/// `frontier`. Only appends to `frontier`, which is what lets the caller
/// test the next pop while this runs. Breaks with the stop reason when a
/// permanent fault ends the search.
fn expand<T, S>(
    cand: &Candidate,
    stack: &T,
    profile: &Profile,
    ledger: &mut Ledger<'_, S>,
    rng: &mut SmallRng,
    seen: &mut HashSet<u64>,
    frontier: &mut Vec<Candidate>,
) -> ControlFlow<SearchStop>
where
    T: Toolchain + ?Sized,
    S: TraceSink + ?Sized,
{
    let cfg = ledger.cfg;
    // Enumerate edits for this candidate.
    let mut edits: Vec<RepairEdit> = if cand.diags.is_empty() {
        if cand.pass_ratio.unwrap_or(0.0) < 1.0 {
            // Divergence: explore larger finitization sizes (§6.2).
            resize_edits(&cand.program)
        } else {
            performance_edits(&cand.program)
        }
    } else {
        candidate_edits(&cand.program, &cand.diags, profile)
    };
    let perf_phase = cand.diags.is_empty() && cand.pass_ratio.unwrap_or(0.0) >= 1.0;
    if cfg.use_dependence {
        edits.retain(|e| deps::satisfied(e.kind_enum(), &cand.applied));
        if !perf_phase {
            if cfg.mined.is_empty() {
                edits.sort_by_key(|e| deps::dependence_rank(e.kind_enum()));
            } else {
                // Mined tier: edits a stored pattern predicts next (given
                // this candidate's applied-kind suffix) are promoted
                // ahead of the static precedence ranking — longer matched
                // prefixes and higher support first. The sort is stable
                // and the promotion key is a constant for unmatched
                // edits, so with no matching pattern the order degrades
                // to the static dependence ranking. When at least one
                // pattern fires, the beam additionally narrows to the
                // predicted edits plus a short static-precedence tail:
                // the prediction spends the compile budget, the tail
                // keeps a wrong prediction from stranding the candidate.
                let mut keyed: Vec<(u64, RepairEdit)> = edits
                    .drain(..)
                    .map(|e| {
                        let promo = match mined_score(&cfg.mined, &cand.applied, e.kind_enum()) {
                            Some(s) => u64::MAX - s,
                            None => u64::MAX,
                        };
                        (promo, e)
                    })
                    .collect();
                keyed.sort_by_key(|(promo, e)| (*promo, deps::dependence_rank(e.kind_enum())));
                let predicted = keyed.iter().filter(|(p, _)| *p != u64::MAX).count();
                edits = keyed.into_iter().map(|(_, e)| e).collect();
                if predicted > 0 {
                    edits.truncate((predicted + MINED_FALLBACK_WIDTH).min(MAX_EXPANSIONS));
                }
            }
        }
        edits.truncate(if perf_phase {
            PERF_BEAM
        } else {
            MAX_EXPANSIONS
        });
    } else {
        // The ablation: no dependence structure — each expansion is a
        // handful of *random* draws from an unstructured pool (localized
        // candidates mixed with arbitrary edits), so coordinated
        // multi-edit chains are only found by luck (paper §6.3: the
        // naïve probability of selecting ➌ given ➊ is 1/10).
        edits.extend(random_noise_edits(&cand.program, rng, 24));
        edits.shuffle(rng);
        edits.truncate(3);
    }

    // The repair phase expands siblings — alternative fixes compete — as
    // one batch on the candidate. The performance phase chains edits
    // cumulatively — "each iteration applies a number of edits to the
    // current program version" — so a bounded compile budget stacks
    // pragmas on many loops: every edit is a one-edit batch on the last
    // cleanly admitted child (see the module docs).
    let batches: Vec<Vec<RepairEdit>> = if perf_phase && cfg.use_dependence {
        edits.into_iter().map(|e| vec![e]).collect()
    } else {
        vec![edits]
    };
    let mut base_program = cand.program.clone();
    let mut base_applied = cand.applied.clone();
    for batch in batches {
        if ledger.clock.expired() {
            break;
        }
        let planned = plan(&base_program, batch, seen);
        let evals = evaluate(stack, &planned, cfg);
        let first_admitted = frontier.len();
        ledger.merge(planned, evals, &base_applied, &cand.diags, seen, frontier)?;
        if let Some(child) = frontier.get(first_admitted) {
            if child.diags.is_empty() {
                base_program = child.program.clone();
                base_applied = child.applied.clone();
            }
        }
    }
    ControlFlow::Continue(())
}

/// Phase 1 — plan: applies every edit of a batch to `base`, fingerprints
/// the children and classifies them, without mutating any search state.
fn plan(base: &Program, batch: Vec<RepairEdit>, seen: &HashSet<u64>) -> Vec<Planned> {
    let mut fresh: HashSet<u64> = HashSet::new();
    batch
        .into_iter()
        .map(|edit| {
            let kind = edit.kind_enum();
            let Some(child) = edit.apply(base) else {
                return Planned::Inapplicable { kind };
            };
            let fingerprint = minic::fingerprint_program(&child);
            if seen.contains(&fingerprint) || !fresh.insert(fingerprint) {
                Planned::Duplicate { kind, fingerprint }
            } else {
                Planned::Fresh {
                    program: Arc::new(child),
                    fingerprint,
                    edit: edit.script_edit(),
                }
            }
        })
        .collect()
}

/// Phase 2 — evaluate: style-checks and compiles a batch's fresh children
/// on the worker pool (a one-edit batch runs inline on the caller), each
/// behind its own panic boundary so one poisoned candidate cannot take the
/// batch (or the pool) down with it.
fn evaluate<T: Toolchain + ?Sized>(
    stack: &T,
    planned: &[Planned],
    cfg: &SearchConfig,
) -> Vec<Option<Isolated>> {
    parallel::parallel_map(cfg.threads, planned, |_, p| match p {
        Planned::Fresh {
            program,
            fingerprint,
            ..
        } => Some(parallel::isolate(|| {
            stack.evaluate(program, *fingerprint, cfg.use_style_checker)
        })),
        _ => None,
    })
}

/// The caller thread's accounting for one search: the simulated clock, the
/// counters and the trace, which only the merge phase (and the pop loop
/// around it) touches.
struct Ledger<'a, S: ?Sized> {
    cfg: &'a SearchConfig,
    costs: CompileCostModel,
    /// Transient faults are retried under this policy; its backoff is
    /// billed to [`ResilienceStats::backoff_min`], never the search clock.
    retry: RetryPolicy,
    sink: &'a S,
    clock: SimClock,
    stats: SearchStats,
    resilience: ResilienceStats,
}

impl<S: TraceSink + ?Sized> Ledger<'_, S> {
    /// Phase 3 — merge: replays a batch's sequential accounting in edit
    /// order — budget expiry, attempt/reject counters, clock billing, dedup
    /// insertion, frontier growth — extending `base_applied` for each
    /// admitted child. Children evaluated past the expiry point are
    /// discarded (speculation wasted is bounded by one batch). Breaks with
    /// the stop reason when a permanent fault ends the search.
    fn merge(
        &mut self,
        planned: Vec<Planned>,
        evals: Vec<Option<Isolated>>,
        base_applied: &[ScriptEdit],
        parent_diags: &[HlsDiagnostic],
        seen: &mut HashSet<u64>,
        frontier: &mut Vec<Candidate>,
    ) -> ControlFlow<SearchStop> {
        for (plan, eval) in planned.into_iter().zip(evals) {
            if self.clock.expired() {
                break;
            }
            self.stats.attempts += 1;
            let (program, fingerprint, edit) = match plan {
                Planned::Inapplicable { kind } => {
                    self.stats.inapplicable += 1;
                    self.emit_candidate(kind.as_str(), 0, Verdict::Inapplicable, 0.0);
                    continue;
                }
                Planned::Duplicate { kind, fingerprint } => {
                    self.emit_candidate(kind.as_str(), fingerprint, Verdict::Duplicate, 0.0);
                    continue;
                }
                Planned::Fresh {
                    program,
                    fingerprint,
                    edit,
                } => (program, fingerprint, edit),
            };
            seen.insert(fingerprint);
            let kind = edit.kind.as_str();
            let eval = match eval.expect("fresh children are evaluated in phase 2") {
                Err(_panic) => {
                    self.bill_crashed(&program, fingerprint, kind);
                    continue;
                }
                Ok(Err(e)) => {
                    let absorbed = e.absorbed_transients();
                    self.replay_transients(fingerprint, absorbed);
                    self.resilience.permanent_faults += 1;
                    self.emit(|at_min| Event::FaultInjected {
                        site: e.site().to_string(),
                        fault: "permanent".to_string(),
                        fingerprint,
                        attempt: u64::from(absorbed),
                        at_min,
                    });
                    return ControlFlow::Break(SearchStop::PermanentFault(e.to_string()));
                }
                Ok(Ok(eval)) => eval,
            };
            let Some(diags) = self.admit(&program, fingerprint, kind, &eval, parent_diags) else {
                continue;
            };
            let mut applied = base_applied.to_vec();
            applied.push(edit);
            frontier.push(Candidate {
                program,
                fp: fingerprint,
                applied,
                diags,
                pass_ratio: None,
                latency: None,
            });
        }
        ControlFlow::Continue(())
    }

    /// Admission of one evaluated candidate: bills the style check
    /// (rejecting if the enabled checker flagged it), replays absorbed
    /// transients, bills the full compile, and drops regressions. Returns
    /// the admitted child's diagnostics, or `None` when the candidate was
    /// style-rejected or regressed (both already billed and emitted).
    fn admit(
        &mut self,
        program: &Program,
        fingerprint: u64,
        kind: &'static str,
        eval: &EvalResult,
        parent_diags: &[HlsDiagnostic],
    ) -> Option<Arc<Vec<HlsDiagnostic>>> {
        let mut attempt_cost = self.bill_style_check(program);
        if self.cfg.use_style_checker && !eval.style_clean {
            self.stats.style_rejects += 1;
            self.emit(|at_min| Event::StyleReject {
                fingerprint,
                at_min,
            });
            self.emit_candidate(kind, fingerprint, Verdict::StyleRejected, attempt_cost);
            return None;
        }
        self.replay_transients(fingerprint, eval.transients);
        let compile_cost = self.costs.full_compile_loc(eval.loc);
        self.clock.advance(compile_cost);
        attempt_cost += compile_cost;
        self.stats.full_compiles += 1;
        self.emit(|at_min| Event::FullCompile {
            fingerprint,
            loc: eval.loc as u64,
            cost_min: compile_cost,
            at_min,
        });
        let child_diags = eval
            .diags
            .clone()
            .expect("style-clean candidates are compiled");
        // Regressions (strictly more errors) are dropped.
        if child_diags.len() > parent_diags.len() && !parent_diags.is_empty() {
            self.emit_candidate(kind, fingerprint, Verdict::Regressed, attempt_cost);
            return None;
        }
        self.emit_candidate(kind, fingerprint, Verdict::Admitted, attempt_cost);
        self.emit(|at_min| Event::EditApplied {
            kind: kind.to_string(),
            at_min,
        });
        Some(child_diags)
    }

    /// Bills the style check of `program` when the checker is enabled, and
    /// returns its cost.
    fn bill_style_check(&mut self, program: &Program) -> f64 {
        if !self.cfg.use_style_checker {
            return 0.0;
        }
        let cost = self.costs.style_check(program);
        self.clock.advance(cost);
        self.stats.style_checks += 1;
        cost
    }

    /// Bills a crashed (poisoned) candidate exactly what its fault-free
    /// evaluation would have cost — the style check it passed plus the full
    /// compile the panic interrupted — so a chaos run's clock trajectory
    /// matches the fault-free run's, then records the crash.
    fn bill_crashed(&mut self, program: &Program, fingerprint: u64, kind: &str) {
        let mut attempt_cost = self.bill_style_check(program);
        let compile_cost = self.costs.full_compile(program);
        self.clock.advance(compile_cost);
        attempt_cost += compile_cost;
        self.stats.full_compiles += 1;
        self.resilience.crashes += 1;
        self.emit(|at_min| Event::CandidateCrashed {
            kind: kind.to_string(),
            fingerprint,
            at_min,
        });
        self.emit_candidate(kind, fingerprint, Verdict::Crashed, attempt_cost);
    }

    /// Replays the transient faults a worker absorbed while compiling one
    /// candidate into the caller-thread accounting (see
    /// [`diff::replay_transients`]). The search clock is deliberately
    /// untouched — see [`repair_persistent`].
    fn replay_transients(&mut self, fingerprint: u64, transients: u32) {
        let at_min = self.clock.elapsed_min();
        let stats = &mut self.resilience;
        diff::replay_transients(
            self.sink,
            &self.retry,
            at_min,
            stats,
            "hls_check",
            fingerprint,
            transients,
        );
    }

    /// Emits one [`Event::CandidateEvaluated`] for a merged attempt.
    fn emit_candidate(&self, kind: &str, fingerprint: u64, verdict: Verdict, sim_cost_min: f64) {
        self.emit(|at_min| Event::CandidateEvaluated {
            kind: kind.to_string(),
            fingerprint,
            verdict,
            sim_cost_min,
            at_min,
        });
    }

    /// Emits the event `make` builds for the clock's current minute. Gated
    /// on [`TraceSink::enabled`] so a [`NullSink`] run never constructs the
    /// payload.
    fn emit(&self, make: impl FnOnce(f64) -> Event) {
        if self.sink.enabled() {
            self.sink.emit(&make(self.clock.elapsed_min()));
        }
    }

    /// Closes the ledger into the search's result: `latency` is the
    /// winner's FPGA latency, `None` when no candidate preserved behaviour.
    fn finish(
        mut self,
        program: Program,
        edits: Vec<ScriptEdit>,
        pass_ratio: f64,
        latency: Option<f64>,
        tester: &DifferentialTester,
        stop: SearchStop,
    ) -> RepairOutcome {
        self.stats.elapsed_min = self.clock.elapsed_min();
        let fpga_latency_ms = latency.unwrap_or(f64::INFINITY);
        let cpu_latency_ms = tester.cpu_latency_ms();
        let script = EditScript { edits };
        RepairOutcome {
            program,
            success: latency.is_some(),
            pass_ratio,
            fpga_latency_ms,
            cpu_latency_ms,
            improved: fpga_latency_ms < cpu_latency_ms,
            applied: script.kind_names(),
            script,
            stats: self.stats,
            stop,
            resilience: self.resilience,
        }
    }
}

/// Static-precedence edits kept past the pattern-predicted prefix when the
/// mined tier narrows a beam: enough to recover from a wrong prediction
/// without re-spending the whole static budget.
const MINED_FALLBACK_WIDTH: usize = 2;

/// Best mined-tier score for applying `kind` next, given the candidate's
/// already-applied suffix; `None` when no stored pattern predicts it.
///
/// A pattern `[k₀ … kₙ]` predicts `kind` at position `j` when
/// `kₗ == kind` for `l = j` and the pattern's first `j` kinds are a suffix
/// of the candidate's applied kinds. Longer matched prefixes dominate the
/// score (a pattern mid-chain is stronger evidence than a cold start);
/// support breaks ties.
fn mined_score(patterns: &[FixPattern], applied: &[ScriptEdit], kind: EditKind) -> Option<u64> {
    let mut best: Option<u64> = None;
    for p in patterns {
        for j in 0..p.edits.len() {
            if p.edits[j].kind != kind || j > applied.len() {
                continue;
            }
            let prefix_is_suffix = p.edits[..j]
                .iter()
                .rev()
                .zip(applied.iter().rev())
                .all(|(pe, ae)| pe.kind == ae.kind);
            if prefix_is_suffix {
                let score = (j as u64 + 1) * 1_000_000 + p.support.min(999_999);
                best = Some(best.map_or(score, |b| b.max(score)));
            }
        }
    }
    best
}

/// Converts a script into the trace crate's layer-independent edit records.
fn trace_edits(script: &EditScript) -> Vec<heterogen_trace::TraceEdit> {
    script
        .edits
        .iter()
        .map(|e| heterogen_trace::TraceEdit {
            kind: e.kind.as_str().to_string(),
            site: e.site.clone(),
            symbol: e.symbol.clone(),
            value: e.value,
            label: e.label.clone(),
        })
        .collect()
}

/// Extracts a `Program` from candidate bookkeeping without copying when
/// this candidate holds the last reference.
fn unwrap_program(p: Arc<Program>) -> Program {
    Arc::try_unwrap(p).unwrap_or_else(|shared| (*shared).clone())
}

/// Performance-improving edits for an already-correct design: pragma
/// exploration over loops and arrays (the paper's primary source of
/// speedups, §6.1).
///
/// Edits are ordered by expected benefit — loop body weight × estimated
/// trip count, heaviest first — so a bounded compile budget reaches the hot
/// loops. Each loop's group also contains deliberately invalid placements
/// (function-body head, dataflow inside a loop): they are part of the
/// explored space and exist to be pruned by the cheap style checker (§5.3).
pub fn performance_edits(p: &Program) -> Vec<RepairEdit> {
    let Some(top) = p.top_function_name().map(str::to_string) else {
        return Vec::new();
    };
    // The top function, everything it calls directly, and the methods of
    // structs it instantiates.
    let mut funcs: Vec<String> = vec![top.clone()];
    let mut structs: Vec<String> = Vec::new();
    if let Some(f) = p.function(&top) {
        minic::visit::visit_function_exprs(f, &mut |e| match &e.kind {
            minic::ast::ExprKind::Call(n, _) if p.function(n).is_some() && !funcs.contains(n) => {
                funcs.push(n.clone());
            }
            minic::ast::ExprKind::StructLit(n, _) if !structs.contains(n) => {
                structs.push(n.clone());
            }
            _ => {}
        });
    }

    // (score, edits-for-this-loop) groups.
    let mut groups: Vec<(f64, Vec<RepairEdit>)> = Vec::new();

    let mut add_function_loops =
        |fname: &str, f: &minic::ast::Function, method_of: Option<&str>| {
            let parts = hls_sim::check::partition_factors(f);
            for (i, l) in hls_sim::check::collect_loops(p, f).iter().enumerate() {
                let w = hls_sim::schedule::loop_weight(p, f, l.id).unwrap_or(4.0);
                let trips = l.static_trip.unwrap_or(16) as f64;
                let score = w * trips;
                let has_pipeline = l
                    .pragmas
                    .iter()
                    .any(|pk| matches!(pk, PragmaKind::Pipeline { .. }));
                let has_unroll = l
                    .pragmas
                    .iter()
                    .any(|pk| matches!(pk, PragmaKind::Unroll { .. }));
                let mut edits = Vec::new();
                let mk = |loop_index: Option<usize>, pragma: PragmaKind| match method_of {
                    Some(sname) => RepairEdit::InsertPragmaInMethod {
                        struct_name: sname.to_string(),
                        method: fname.to_string(),
                        loop_index: loop_index.unwrap_or(i),
                        pragma,
                    },
                    None => RepairEdit::InsertPragma {
                        function: fname.to_string(),
                        loop_index,
                        pragma,
                    },
                };
                if !has_pipeline {
                    edits.push(mk(Some(i), PragmaKind::Pipeline { ii: Some(1) }));
                    if method_of.is_none() {
                        // Invalid placements the style checker prunes cheaply.
                        edits.push(RepairEdit::InsertPragma {
                            function: fname.to_string(),
                            loop_index: None,
                            pragma: PragmaKind::Pipeline { ii: Some(1) },
                        });
                        edits.push(mk(Some(i), PragmaKind::Dataflow));
                    }
                }
                if !has_unroll && l.static_trip.is_some() && method_of.is_none() {
                    for factor in [8u32, 4, 2] {
                        edits.push(mk(
                            Some(i),
                            PragmaKind::Unroll {
                                factor: Some(factor),
                            },
                        ));
                    }
                    edits.push(RepairEdit::InsertPragma {
                        function: fname.to_string(),
                        loop_index: None,
                        pragma: PragmaKind::Unroll { factor: Some(2) },
                    });
                }
                // Partition the arrays the loop touches so unrolling has ports.
                if method_of.is_none() {
                    for arr in &l.arrays_accessed {
                        if parts.contains_key(arr) {
                            continue;
                        }
                        if let Some(minic::types::Type::Array(_, size)) =
                            minic::edit::declared_type(p, Some(fname), arr)
                        {
                            if let Some(extent) = minic::edit::resolve_array_size(p, &size) {
                                for factor in [8u32, 4, 2] {
                                    if extent % factor as u64 == 0 {
                                        edits.push(RepairEdit::InsertPragma {
                                            function: fname.to_string(),
                                            loop_index: None,
                                            pragma: PragmaKind::ArrayPartition {
                                                var: arr.clone(),
                                                factor,
                                                dim: 1,
                                                complete: false,
                                            },
                                        });
                                        break;
                                    }
                                }
                            }
                        }
                    }
                }
                if !edits.is_empty() {
                    groups.push((score, edits));
                }
            }
        };

    for fname in &funcs {
        if let Some(f) = p.function(fname) {
            add_function_loops(fname, f, None);
        }
    }
    for sname in &structs {
        if let Some(def) = p.struct_def(sname) {
            for m in &def.methods {
                add_function_loops(&m.name, m, Some(sname));
            }
        }
    }

    groups.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut out: Vec<RepairEdit> = groups.into_iter().flat_map(|(_, e)| e).collect();

    // Dataflow when the top function runs several tasks in sequence —
    // highest leverage of all, so it goes first.
    if let Some(f) = p.function(&top) {
        if let Some(body) = &f.body {
            let has_dataflow = body.stmts().iter().any(
                |s| matches!(&s.kind, minic::ast::StmtKind::Pragma(pr) if pr.kind == PragmaKind::Dataflow),
            );
            let task_calls = body
                .stmts()
                .iter()
                .filter(|s| {
                    matches!(
                        &s.kind,
                        minic::ast::StmtKind::Expr(e)
                            if matches!(&e.kind, minic::ast::ExprKind::Call(n, _) if p.function(n).is_some())
                    )
                })
                .count();
            if !has_dataflow && task_calls >= 2 {
                out.insert(
                    0,
                    RepairEdit::InsertPragma {
                        function: top,
                        loop_index: None,
                        pragma: PragmaKind::Dataflow,
                    },
                );
            }
        }
    }
    out
}

/// Unstructured edits for the `WithoutDependence` ablation: random pragma
/// toggles, random retypes, random pads and random resizes. Most apply
/// cleanly and compile — wasting a full HLS compilation each — without
/// advancing the repair, which is exactly the cost structure the paper's
/// ablation measures.
fn random_noise_edits(p: &Program, rng: &mut SmallRng, n: usize) -> Vec<RepairEdit> {
    let funcs: Vec<String> = p.functions().map(|f| f.name.clone()).collect();
    if funcs.is_empty() {
        return Vec::new();
    }
    // Arrays and integer locals make good targets for useless-but-valid
    // parameter exploration.
    let mut arrays: Vec<(String, String, u64)> = Vec::new();
    let mut int_locals: Vec<(String, String)> = Vec::new();
    for f in p.functions() {
        let fname = f.name.clone();
        if let Some(body) = &f.body {
            for s in body.stmts() {
                minic::visit::walk_stmt(s, &mut |s| {
                    if let minic::ast::StmtKind::Decl(d) = &s.kind {
                        match &d.ty {
                            minic::types::Type::Array(_, size) => {
                                if let Some(ext) = minic::edit::resolve_array_size(p, size) {
                                    arrays.push((fname.clone(), d.name.clone(), ext));
                                }
                            }
                            t if t.is_integer() => {
                                int_locals.push((fname.clone(), d.name.clone()));
                            }
                            _ => {}
                        }
                    }
                });
            }
        }
    }
    let mut out = Vec::new();
    for _ in 0..n {
        let f = funcs[rng.gen_range(0..funcs.len())].clone();
        let edit = match rng.gen_range(0u8..8) {
            6 => match arrays.choose(rng) {
                Some((func, var, ext)) => RepairEdit::PadArray {
                    var: var.clone(),
                    function: Some(func.clone()),
                    new_size: ext + rng.gen_range(1..=3) * 4,
                },
                None => continue,
            },
            7 => match int_locals.choose(rng) {
                Some((func, var)) => RepairEdit::TypeTrans {
                    var: var.clone(),
                    function: Some(func.clone()),
                    to: minic::types::Type::FpgaInt {
                        bits: rng.gen_range(33..=48),
                        signed: true,
                    },
                },
                None => continue,
            },
            roll => match roll {
                0 => RepairEdit::InsertPragma {
                    function: f,
                    loop_index: Some(rng.gen_range(0..3)),
                    pragma: match rng.gen_range(0u8..3) {
                        0 => PragmaKind::Unroll {
                            factor: Some(*[2u32, 7, 13, 50].choose(rng).unwrap()),
                        },
                        1 => PragmaKind::Pipeline {
                            ii: Some(rng.gen_range(1..4)),
                        },
                        _ => PragmaKind::Dataflow,
                    },
                },
                1 => RepairEdit::InsertPragma {
                    function: f,
                    loop_index: None,
                    pragma: PragmaKind::Dataflow,
                },
                2 => RepairEdit::DeletePragma {
                    function: f,
                    kind: ["unroll", "pipeline", "dataflow"][rng.gen_range(0..3)].to_string(),
                },
                3 => RepairEdit::ReplacePragmaFactor {
                    function: f,
                    kind: "unroll".to_string(),
                    var: None,
                    value: *[3u32, 5, 6, 12, 50].choose(rng).unwrap(),
                },
                4 => {
                    let defines: Vec<String> = p
                        .items
                        .iter()
                        .filter_map(|i| match i {
                            minic::ast::Item::Define(n, _) => Some(n.clone()),
                            _ => None,
                        })
                        .collect();
                    match defines.choose(rng) {
                        Some(d) => RepairEdit::Resize {
                            target: ResizeTarget::Define(d.clone()),
                            factor: *[2u64, 3].choose(rng).unwrap(),
                        },
                        None => continue,
                    }
                }
                _ => RepairEdit::SetTop {
                    name: funcs[rng.gen_range(0..funcs.len())].clone(),
                },
            },
        };
        out.push(edit);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterogen_toolchain::VerdictKey;
    use minic_exec::ArgValue;
    use std::collections::HashMap;
    use std::sync::Mutex;

    /// In-memory verdict store: every key that reaches it, with its verdict.
    #[derive(Default)]
    struct MapStore(Mutex<HashMap<VerdictKey, EvalResult>>);

    impl VerdictStore for MapStore {
        fn get_verdict(&self, key: &VerdictKey) -> Option<EvalResult> {
            self.0.lock().unwrap().get(key).cloned()
        }
        fn put_verdict(&self, key: &VerdictKey, r: &EvalResult) {
            self.0.lock().unwrap().insert(key.clone(), r.clone());
        }
    }

    #[test]
    fn labeling_twins_get_their_own_diagnostics() {
        let src = "
            void kernel(int out[8], int n) {
                int buf[n];
                for (int i = 0; i < 8; i++) { out[i] = i; }
            }
        ";
        // A padding global consumes node ids; dropping it leaves a program
        // that prints like `p1` but carries shifted NodeIds — a labeling
        // twin.
        let p1 = minic::parse(src).unwrap();
        let mut p2 = minic::parse(&format!("int __pad = 1;\n{src}")).unwrap();
        p2.items.remove(0);
        let fp = minic::fingerprint_program(&p1);
        assert_eq!(
            fp,
            minic::fingerprint_program(&p2),
            "setup: fingerprint twins"
        );
        assert_ne!(
            minic::fingerprint_node_ids(&p1),
            minic::fingerprint_node_ids(&p2),
            "setup: labeled differently"
        );

        let store = Arc::new(MapStore::default());
        let backend = SimBackend::default_profile();
        let stack = eval_stack(
            &backend,
            NoFaults,
            RetryPolicy::default(),
            Some(store.clone() as Arc<dyn VerdictStore>),
        );
        let mut sites = Vec::new();
        for twin in [&p1, &p2] {
            let diags = stack.evaluate(twin, fp, false).unwrap().diags.unwrap();
            let own = backend.evaluate(twin, fp, false).unwrap().diags.unwrap();
            assert_eq!(
                diags, own,
                "diagnostics must point at the twin's own NodeIds"
            );
            sites.push(diags.iter().map(|d| d.location).collect::<Vec<_>>());
        }
        assert!(
            sites[0].iter().any(Option::is_some),
            "setup: located diagnostics"
        );
        assert_ne!(sites[0], sites[1], "setup: the twins' sites differ");
        let keys = store.0.lock().unwrap();
        assert_eq!(
            keys.len(),
            2,
            "each twin reaches the store under its own key"
        );
    }

    fn quick_cfg() -> SearchConfig {
        SearchConfig {
            budget_min: 500.0,
            max_diff_tests: 8,
            explore_performance: false,
            ..Default::default()
        }
    }

    #[test]
    fn repairs_unknown_size_array() {
        let src = r#"
            void kernel(int out[16], int n) {
                int buf[n];
                for (int i = 0; i < n; i++) { buf[i] = i * 2; }
                for (int i = 0; i < n; i++) { out[i] = buf[i]; }
            }
        "#;
        let p = minic::parse(src).unwrap();
        let mut profile = Profile::new();
        profile.record_index("kernel", "buf", 15);
        let tests: Vec<TestCase> = (1..=4)
            .map(|i| vec![ArgValue::IntArray(vec![0; 16]), ArgValue::Int(i * 4)])
            .collect();
        let out = repair(&p, p.clone(), "kernel", &tests, &profile, &quick_cfg()).unwrap();
        assert!(out.success, "applied: {:?}", out.applied);
        assert!(out.applied.contains(&"array_static".to_string()));
        assert!(SimBackend::default_profile()
            .diagnose(&out.program)
            .is_empty());
    }

    #[test]
    fn repairs_long_double() {
        let src = "int kernel(int x) { long double y = x; y = y + 1; return y; }";
        let p = minic::parse(src).unwrap();
        let tests: Vec<TestCase> = (0..4).map(|i| vec![ArgValue::Int(i * 7)]).collect();
        let out = repair(
            &p,
            p.clone(),
            "kernel",
            &tests,
            &Profile::new(),
            &quick_cfg(),
        )
        .unwrap();
        assert!(out.success, "applied: {:?}", out.applied);
        assert!(out.applied.contains(&"type_trans".to_string()));
    }

    #[test]
    fn repairs_struct_error_via_figure7_chain() {
        let src = r#"
            struct If2 {
                hls::stream<unsigned> &in;
                hls::stream<unsigned> &out;
                void do1() { out.write(in.read() + 1u); }
            };
            void kernel(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
            #pragma HLS dataflow
                hls::stream<unsigned> tmp;
                If2{in, tmp}.do1();
                If2{tmp, out}.do1();
            }
        "#;
        let p = minic::parse(src).unwrap();
        let tests: Vec<TestCase> = (0..4)
            .map(|i| {
                vec![
                    ArgValue::IntStream(vec![i, i + 1, i + 2]),
                    ArgValue::IntStream(vec![]),
                ]
            })
            .collect();
        let out = repair(
            &p,
            p.clone(),
            "kernel",
            &tests,
            &Profile::new(),
            &quick_cfg(),
        )
        .unwrap();
        assert!(out.success, "applied: {:?}", out.applied);
        // Either Figure 7 branch is acceptable.
        let a = &out.applied;
        assert!(
            (a.contains(&"constructor".to_string()) && a.contains(&"stream_static".to_string()))
                || (a.contains(&"flatten".to_string()) && a.contains(&"inst_update".to_string())),
            "applied: {a:?}"
        );
    }

    #[test]
    fn repairs_recursion_with_stack_and_resize_on_divergence() {
        let src = r#"
            #define N 32
            int buf[N];
            void walk(int i) {
                if (i >= 31) { return; }
                walk(i + 1);
                buf[i] = buf[i] + buf[i + 1];
            }
            void kernel(int a[32]) {
                for (int i = 0; i < 32; i++) { buf[i] = a[i]; }
                walk(0);
                for (int i = 0; i < 32; i++) { a[i] = buf[i]; }
            }
        "#;
        let p = minic::parse(src).unwrap();
        // Deliberately under-profiled depth: the first stack size (based on
        // depth 8) is too small, differential testing catches the wrap, and
        // `resize` must fire.
        let mut profile = Profile::new();
        profile.record_depth("walk", 8);
        let tests: Vec<TestCase> = (0..3)
            .map(|k| vec![ArgValue::IntArray((0..32).map(|i| i + k).collect())])
            .collect();
        let out = repair(&p, p.clone(), "kernel", &tests, &profile, &quick_cfg()).unwrap();
        assert!(out.success, "applied: {:?}", out.applied);
        assert!(out.applied.contains(&"stack_trans".to_string()));
        assert!(
            out.applied.contains(&"resize".to_string()),
            "resize must repair the undersized stack: {:?}",
            out.applied
        );
    }

    #[test]
    fn performance_exploration_improves_latency() {
        let src = r#"
            void kernel(int a[64]) {
                for (int i = 0; i < 64; i++) {
                    a[i] = a[i] * 3 + 1;
                }
            }
        "#;
        let p = minic::parse(src).unwrap();
        let tests: Vec<TestCase> = (0..3)
            .map(|k| vec![ArgValue::IntArray((0..64).map(|i| i * k).collect())])
            .collect();
        let mut cfg = quick_cfg();
        cfg.explore_performance = true;
        cfg.budget_min = 300.0;
        let out = repair(&p, p.clone(), "kernel", &tests, &Profile::new(), &cfg).unwrap();
        assert!(out.success);
        assert!(
            out.applied.iter().any(|k| k == "insert_pragma"),
            "expected pragma exploration, applied: {:?}",
            out.applied
        );
        assert!(
            out.improved,
            "fpga {} vs cpu {}",
            out.fpga_latency_ms, out.cpu_latency_ms
        );
    }

    #[test]
    fn without_dependence_is_slower() {
        let src = r#"
            struct If2 {
                hls::stream<unsigned> &in;
                hls::stream<unsigned> &out;
                void do1() { out.write(in.read() + 1u); }
            };
            void kernel(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
            #pragma HLS dataflow
                hls::stream<unsigned> tmp;
                If2{in, tmp}.do1();
                If2{tmp, out}.do1();
            }
        "#;
        let p = minic::parse(src).unwrap();
        let tests: Vec<TestCase> = (0..3)
            .map(|i| {
                vec![
                    ArgValue::IntStream(vec![i, i + 5]),
                    ArgValue::IntStream(vec![]),
                ]
            })
            .collect();
        let with = repair(
            &p,
            p.clone(),
            "kernel",
            &tests,
            &Profile::new(),
            &quick_cfg(),
        )
        .unwrap();
        assert!(with.success);
        let t_with = with.stats.first_success_min.unwrap();
        // The random ablation's time-to-success varies by seed; on average
        // it must not beat the dependence-guided search.
        let mut total_without = 0.0;
        let mut failures = 0;
        for seed in 0..4u64 {
            let mut cfg = quick_cfg();
            cfg.use_dependence = false;
            cfg.budget_min = 720.0;
            cfg.rng_seed = seed;
            let without = repair(&p, p.clone(), "kernel", &tests, &Profile::new(), &cfg).unwrap();
            match without.stats.first_success_min {
                Some(t) => total_without += t,
                None => {
                    failures += 1;
                    total_without += 720.0;
                }
            }
        }
        let mean_without = total_without / 4.0;
        assert!(
            mean_without >= t_with || failures > 0,
            "dependence-guided search must be faster on average: {t_with} vs {mean_without}"
        );
    }

    /// Faults every attempt at every site with a transient.
    struct AlwaysTransient;
    impl FaultInjector for AlwaysTransient {
        fn fault(
            &self,
            _site: heterogen_faults::FaultSite,
            _key: u64,
            _attempt: u32,
        ) -> Option<heterogen_faults::Fault> {
            Some(heterogen_faults::Fault::Transient)
        }
    }

    #[test]
    fn an_exhausted_compile_replays_its_transients_before_stopping() {
        let src = "void kernel(int n) { int buf[n]; for (int i = 0; i < n; i++) { buf[i] = i; } }";
        let p = minic::parse(src).unwrap();
        let tests: Vec<TestCase> = vec![vec![ArgValue::Int(3)]];
        let mut profile = Profile::new();
        profile.record_index("kernel", "buf", 7);
        let sink = heterogen_trace::JsonlSink::new();
        let out = repair_persistent(
            &p,
            p.clone(),
            "kernel",
            &tests,
            &profile,
            &quick_cfg(),
            &sink,
            &AlwaysTransient,
            &SimBackend::default_profile(),
            None,
        )
        .unwrap();
        assert!(
            matches!(out.stop, SearchStop::PermanentFault(_)),
            "{:?}",
            out.stop
        );
        // Four attempts, three of them retried under the default policy.
        let retry = RetryPolicy::default();
        let backoff: f64 = (1..=3).map(|r| retry.delay_before(r).unwrap()).sum();
        let expected = ResilienceStats {
            transient_faults: 4,
            retries: 3,
            backoff_min: backoff,
            crashes: 0,
            permanent_faults: 1,
        };
        assert_eq!(out.resilience, expected);
        let trace = sink.contents();
        let count = |event: &str| trace.matches(event).count();
        assert_eq!(count("\"event\":\"fault_injected\""), 5, "{trace}");
        assert_eq!(count("\"event\":\"retry_scheduled\""), 3, "{trace}");
    }

    #[test]
    fn without_checker_compiles_more() {
        let src = "void kernel(int n) { int buf[n]; for (int i = 0; i < n; i++) { buf[i] = i; } }";
        let p = minic::parse(src).unwrap();
        let tests: Vec<TestCase> = vec![vec![ArgValue::Int(3)]];
        let mut profile = Profile::new();
        profile.record_index("kernel", "buf", 7);
        let with = repair(&p, p.clone(), "kernel", &tests, &profile, &quick_cfg()).unwrap();
        let mut cfg = quick_cfg();
        cfg.use_style_checker = false;
        let without = repair(&p, p.clone(), "kernel", &tests, &profile, &cfg).unwrap();
        assert!(with.success && without.success);
        assert_eq!(without.stats.style_checks, 0);
    }
}
