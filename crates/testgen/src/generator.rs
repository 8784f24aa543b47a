//! The coverage-guided fuzzing loop (paper Algorithm 1).
//!
//! Seeds come from kernel-entry captures of a host run when available
//! (`getKernelSeed`), otherwise from type-directed random generation. Each
//! mutant executes on the CPU interpreter; inputs that light up new branch
//! coverage join the corpus queue. Generation stops when the simulated clock
//! runs for [`FuzzConfig::idle_stop_min`] minutes without any new coverage
//! (the paper manually stops AFL 30 minutes after the last new path).
//!
//! Mutant execution is parallelized without perturbing determinism: each
//! round first computes a *safe lower bound* on how many children the
//! sequential loop is guaranteed to generate (coverage resets only ever
//! extend a round, never shorten it), draws exactly those children from the
//! RNG on the caller thread, executes them on a worker pool, and then merges
//! coverage, profile, and corpus admission strictly in draw order. The RNG
//! trajectory, the corpus, and every counter are therefore identical for
//! any [`FuzzConfig::threads`] value.

use crate::mutate::{mutate_case, random_value};
use crate::spec::kernel_specs;
use heterogen_trace::{Event, NullSink, TraceSink};
use minic::Program;
use minic_exec::{
    compiled_for, coverage, ArgValue, CoverageMap, ExecEngine, MachineConfig, Prepared, Profile, Vm,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// One kernel-level test input.
pub type TestCase = Vec<ArgValue>;

/// Raw observations from executing one input on a fresh machine, produced
/// on worker threads and merged into the campaign state in draw order.
struct RunResult {
    coverage: CoverageMap,
    profile: Profile,
    peak_cells: usize,
    trapped: bool,
}

/// Simulated minutes billed per executed input.
pub const EXEC_COST_MIN: f64 = 0.012;

/// Mutants derived from each corpus entry per round.
pub const MUTANTS_PER_SEED: usize = 16;

/// Fuzzing configuration.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`FuzzConfig::builder`] (or start from [`FuzzConfig::default`] and
/// assign fields) so future knobs are not semver breaks.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct FuzzConfig {
    /// RNG seed (the whole process is deterministic per seed).
    pub rng_seed: u64,
    /// Stop after this many simulated minutes without new coverage.
    pub idle_stop_min: f64,
    /// Hard cap on executed inputs (safety valve).
    pub max_execs: usize,
    /// Concurrent participants in mutant execution, *including the calling
    /// thread* (the rest are helpers from the shared `parallel` pool); `0`
    /// means "use available parallelism", `1` runs inline. Any value
    /// produces the same corpus, counters, and profile — only wall-clock
    /// time changes.
    pub threads: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            rng_seed: 0xC0FFEE,
            idle_stop_min: 30.0,
            max_execs: 20_000,
            threads: 0,
        }
    }
}

impl FuzzConfig {
    /// Starts a builder from the default configuration.
    pub fn builder() -> FuzzConfigBuilder {
        FuzzConfigBuilder {
            cfg: FuzzConfig::default(),
        }
    }

    /// Starts a builder from this configuration.
    pub fn to_builder(self) -> FuzzConfigBuilder {
        FuzzConfigBuilder { cfg: self }
    }
}

/// Builder for [`FuzzConfig`].
///
/// ```
/// use testgen::FuzzConfig;
///
/// let cfg = FuzzConfig::builder()
///     .with_idle_stop_min(0.5)
///     .with_max_execs(300)
///     .build();
/// assert_eq!(cfg.max_execs, 300);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfigBuilder {
    cfg: FuzzConfig,
}

impl FuzzConfigBuilder {
    /// Sets the RNG seed.
    pub fn with_rng_seed(mut self, v: u64) -> Self {
        self.cfg.rng_seed = v;
        self
    }

    /// Sets the idle-stop threshold (simulated minutes without coverage).
    pub fn with_idle_stop_min(mut self, v: f64) -> Self {
        self.cfg.idle_stop_min = v;
        self
    }

    /// Sets the hard cap on executed inputs.
    pub fn with_max_execs(mut self, v: usize) -> Self {
        self.cfg.max_execs = v;
        self
    }

    /// Sets the worker-thread count (`0` = available parallelism).
    pub fn with_threads(mut self, v: usize) -> Self {
        self.cfg.threads = v;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> FuzzConfig {
        self.cfg
    }
}

/// One round's [`Event::FuzzRoundEnd`] tuple. A campaign records each
/// round's tuple in [`FuzzReport::rounds`], so a report replayed from a
/// persistent store re-emits the exact event stream of the original
/// campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzRound {
    /// Round index.
    pub round: u64,
    /// Cumulative inputs executed at round end.
    pub executed: u64,
    /// Corpus size at round end.
    pub corpus: u64,
    /// Whether this round found new coverage.
    pub new_coverage: bool,
    /// Simulated clock (minutes) at round end.
    pub at_min: f64,
}

impl FuzzRound {
    /// The round's trace event.
    pub fn event(&self) -> Event {
        Event::FuzzRoundEnd {
            round: self.round,
            executed: self.executed,
            corpus: self.corpus,
            new_coverage: self.new_coverage,
            at_min: self.at_min,
        }
    }
}

/// The result of a fuzzing campaign: everything a warm start needs to
/// reproduce the campaign's observable behaviour without executing a
/// single input.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// Coverage-increasing inputs (the corpus / AFL queue). This is the
    /// test suite used for differential testing.
    pub corpus: Vec<TestCase>,
    /// Total inputs executed.
    pub executed: usize,
    /// Simulated fuzzing time in minutes (includes the idle tail).
    pub sim_minutes: f64,
    /// Final branch coverage in `[0, 1]` against the program.
    pub coverage: f64,
    /// Accumulated value profile of all executions (feeds bitwidth
    /// finitization).
    pub profile: Profile,
    /// Peak heap cells observed (feeds array finitization).
    pub peak_heap_cells: usize,
    /// Minimized trapping inputs (at most [`MAX_FAILING`]), in discovery
    /// order. Minimization runs after the campaign on the same prepared
    /// program and is deterministic; its executions are not billed to
    /// [`FuzzReport::executed`] or [`FuzzReport::sim_minutes`].
    pub failing: Vec<TestCase>,
    /// Every round's trace tuple, in order.
    pub rounds: Vec<FuzzRound>,
}

/// Cap on trapping inputs captured (and minimized) per campaign.
pub const MAX_FAILING: usize = 8;

/// Captures seed inputs by running a host function and snapshotting the
/// kernel's entry arguments (paper Alg. 1 `getKernelSeed`).
///
/// Returns an empty vector when the host is missing or never calls the
/// kernel.
pub fn kernel_seeds_from_host(
    p: &Program,
    host: &str,
    kernel: &str,
    host_args: Vec<minic_exec::Value>,
) -> Vec<TestCase> {
    let Ok(mut vm) = Vm::new(compiled_for(p), MachineConfig::cpu()) else {
        return Vec::new();
    };
    vm.capture_args_of(kernel);
    let _ = vm.run_function(host, host_args);
    vm.into_captured()
}

/// Runs the fuzzing campaign of Algorithm 1.
///
/// # Errors
///
/// Fails when the kernel signature is not fuzzable.
pub fn fuzz(
    p: &Program,
    kernel: &str,
    seeds: Vec<TestCase>,
    config: &FuzzConfig,
) -> Result<FuzzReport, String> {
    fuzz_traced(p, kernel, seeds, config, &NullSink)
}

/// Like [`fuzz`], emitting one [`Event::FuzzRoundEnd`] per completed round
/// into `sink` (the report's [`FuzzReport::rounds`] records the same
/// tuples).
///
/// Events are emitted from the caller thread only, after each round's
/// results are merged in draw order, so the event stream is bit-identical
/// for any [`FuzzConfig::threads`] value.
///
/// # Errors
///
/// Fails when the kernel signature is not fuzzable.
pub fn fuzz_traced<S: TraceSink + ?Sized>(
    p: &Program,
    kernel: &str,
    seeds: Vec<TestCase>,
    config: &FuzzConfig,
    sink: &S,
) -> Result<FuzzReport, String> {
    let specs = kernel_specs(p, kernel)?;
    let mut rng = SmallRng::seed_from_u64(config.rng_seed);

    let mut queue: VecDeque<TestCase> = VecDeque::new();
    let mut corpus: Vec<TestCase> = Vec::new();
    let mut global_cov = CoverageMap::new();
    let mut profile = Profile::new();
    let mut peak_heap = 0usize;
    let mut executed = 0usize;
    let mut sim_minutes = 0.0f64;
    let mut since_new_cov = 0.0f64;

    // Valid provided seeds first, then one random type-directed seed.
    for s in seeds {
        if s.len() == specs.len() && specs.iter().zip(&s).all(|(sp, v)| sp.accepts(v)) {
            queue.push_back(s);
        }
    }
    queue.push_back(
        specs
            .iter()
            .map(|sp| random_value(sp, &mut rng))
            .collect::<Vec<_>>(),
    );

    // Worker-side execution: runs a case on a fresh per-run interpreter
    // (the program is lowered once, up front) and returns its raw
    // observations without touching any campaign state.
    let prepared = Prepared::new(ExecEngine::Bytecode, p);
    let exec_case = |case: &TestCase| -> Option<RunResult> {
        let mut m = prepared.runner(MachineConfig::cpu()).ok()?;
        let outcome = m.run_kernel(kernel, case);
        Some(RunResult {
            coverage: m.coverage(),
            profile: m.profile(),
            peak_cells: m.peak_heap_cells(),
            trapped: outcome.trapped,
        })
    };
    // Caller-side admission: merges one run's observations in draw order.
    // Trapping inputs still contribute coverage, but we do not keep
    // inputs that trap (they cannot serve as differential oracles).
    let mut admit = |run: Option<RunResult>| -> bool {
        let Some(r) = run else {
            return false;
        };
        profile.merge(&r.profile);
        peak_heap = peak_heap.max(r.peak_cells);
        let new = global_cov.merge(&r.coverage) > 0;
        new && !r.trapped
    };

    // Seed round: execute everything in the queue once.
    let mut failing: Vec<TestCase> = Vec::new();
    let initial: Vec<TestCase> = queue.drain(..).collect();
    let runs = parallel::parallel_map(config.threads, &initial, |_, c| exec_case(c));
    let mut round: u64 = 0;
    let mut corpus_at_round_start = 0usize;
    for (case, run) in initial.into_iter().zip(runs) {
        executed += 1;
        sim_minutes += EXEC_COST_MIN;
        if run.as_ref().is_some_and(|r| r.trapped) && failing.len() < MAX_FAILING {
            failing.push(case.clone());
        }
        if admit(run) {
            since_new_cov = 0.0;
            corpus.push(case.clone());
            queue.push_back(case);
        } else if corpus.is_empty() {
            // Always keep at least one valid seed so mutation has a parent.
            corpus.push(case.clone());
            queue.push_back(case);
        }
    }
    let mut rounds = Vec::new();
    end_round(
        sink,
        &mut rounds,
        FuzzRound {
            round,
            executed: executed as u64,
            corpus: corpus.len() as u64,
            new_coverage: corpus.len() > corpus_at_round_start,
            at_min: sim_minutes,
        },
    );

    // Havoc rounds.
    while executed < config.max_execs && since_new_cov < config.idle_stop_min {
        round += 1;
        corpus_at_round_start = corpus.len();
        let parent = match queue.pop_front() {
            Some(c) => c,
            None => specs.iter().map(|sp| random_value(sp, &mut rng)).collect(),
        };
        let mut remaining = MUTANTS_PER_SEED;
        while remaining > 0 {
            // Children the sequential loop certainly generates from here:
            // walk the stop condition forward assuming no coverage reset
            // (a reset can only lengthen a round, so this is a lower
            // bound, and within it the stop condition can never fire).
            let mut batch = 0usize;
            {
                let (mut e, mut s) = (executed, since_new_cov);
                for _ in 0..remaining {
                    if e >= config.max_execs || s >= config.idle_stop_min {
                        break;
                    }
                    batch += 1;
                    e += 1;
                    s += EXEC_COST_MIN;
                }
            }
            if batch == 0 {
                break;
            }
            let children: Vec<TestCase> = (0..batch)
                .map(|_| mutate_case(&specs, &parent, &mut rng))
                .collect();
            let runs = parallel::parallel_map(config.threads, &children, |_, c| exec_case(c));
            for (child, run) in children.into_iter().zip(runs) {
                executed += 1;
                sim_minutes += EXEC_COST_MIN;
                since_new_cov += EXEC_COST_MIN;
                if run.as_ref().is_some_and(|r| r.trapped) && failing.len() < MAX_FAILING {
                    failing.push(child.clone());
                }
                if admit(run) {
                    since_new_cov = 0.0;
                    corpus.push(child.clone());
                    queue.push_back(child);
                }
            }
            remaining -= batch;
        }
        // Re-enqueue the parent for future rounds (AFL-style cycling).
        queue.push_back(parent);
        end_round(
            sink,
            &mut rounds,
            FuzzRound {
                round,
                executed: executed as u64,
                corpus: corpus.len() as u64,
                new_coverage: corpus.len() > corpus_at_round_start,
                at_min: sim_minutes,
            },
        );
    }
    // The idle tail counts toward the reported wall-clock (the paper stops
    // AFL 30 minutes after the last new path).
    sim_minutes += (config.idle_stop_min - since_new_cov).max(0.0);

    Ok(FuzzReport {
        coverage: coverage::coverage_ratio(&global_cov, p),
        corpus,
        executed,
        sim_minutes,
        profile,
        peak_heap_cells: peak_heap,
        failing: minimize_failing(&prepared, kernel, failing),
        rounds,
    })
}

/// Emits a finished round's event and records its tuple.
fn end_round<S: TraceSink + ?Sized>(sink: &S, rounds: &mut Vec<FuzzRound>, round: FuzzRound) {
    if sink.enabled() {
        sink.emit(&round.event());
    }
    rounds.push(round);
}

/// Deterministically shrinks each trapping input while it keeps trapping:
/// scalar components step toward zero, array elements are halved in place
/// (lengths are preserved — the kernel signature fixes them). Bounded by a
/// fixed per-case attempt budget; duplicates after minimization collapse.
fn minimize_failing(prepared: &Prepared, kernel: &str, raw: Vec<TestCase>) -> Vec<TestCase> {
    let traps = |case: &TestCase| -> bool {
        prepared
            .runner(MachineConfig::cpu())
            .map(|mut m| m.run_kernel(kernel, case).trapped)
            .unwrap_or(false)
    };
    let mut out: Vec<TestCase> = Vec::new();
    for case in raw {
        let mut best = case;
        let mut budget = 64usize;
        let mut progress = true;
        while progress && budget > 0 {
            progress = false;
            for i in 0..best.len() {
                for shrunk in shrink_arg(&best[i]) {
                    if budget == 0 {
                        break;
                    }
                    budget -= 1;
                    if shrunk == best[i] {
                        continue;
                    }
                    let mut cand = best.clone();
                    cand[i] = shrunk;
                    if traps(&cand) {
                        best = cand;
                        progress = true;
                        break;
                    }
                }
            }
        }
        if !out.contains(&best) {
            out.push(best);
        }
    }
    out
}

/// Candidate simplifications of one argument, most aggressive first.
fn shrink_arg(a: &ArgValue) -> Vec<ArgValue> {
    match a {
        ArgValue::Int(0) => Vec::new(),
        ArgValue::Int(v) => vec![ArgValue::Int(0), ArgValue::Int(v / 2)],
        ArgValue::Float(f) if *f == 0.0 => Vec::new(),
        ArgValue::Float(f) => vec![ArgValue::Float(0.0), ArgValue::Float(f / 2.0)],
        ArgValue::IntArray(xs) if xs.iter().all(|&x| x == 0) => Vec::new(),
        ArgValue::IntArray(xs) => vec![
            ArgValue::IntArray(vec![0; xs.len()]),
            ArgValue::IntArray(xs.iter().map(|&x| x / 2).collect()),
        ],
        ArgValue::FloatArray(xs) if xs.iter().all(|&x| x == 0.0) => Vec::new(),
        ArgValue::FloatArray(xs) => vec![
            ArgValue::FloatArray(vec![0.0; xs.len()]),
            ArgValue::FloatArray(xs.iter().map(|&x| x / 2.0).collect()),
        ],
        ArgValue::IntStream(xs) if xs.iter().all(|&x| x == 0) => Vec::new(),
        ArgValue::IntStream(xs) => vec![
            ArgValue::IntStream(vec![0; xs.len()]),
            ArgValue::IntStream(xs.iter().map(|&x| x / 2).collect()),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reaches_full_coverage_on_branchy_kernel() {
        let p = minic::parse(
            r#"
            int kernel(int x) {
                if (x > 100) { return 1; }
                if (x < -100) { return 2; }
                if (x % 2 == 0) { return 3; }
                return 4;
            }
        "#,
        )
        .expect("test kernel source is valid mini-C");
        let cfg = FuzzConfig {
            idle_stop_min: 3.0,
            max_execs: 4000,
            ..Default::default()
        };
        let r = fuzz(&p, "kernel", vec![], &cfg).expect("kernel signature is fuzzable");
        assert!(r.coverage >= 0.99, "coverage = {}", r.coverage);
        assert!(r.corpus.len() >= 3);
        assert!(r.executed > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = minic::parse("int kernel(int x) { if (x > 0) { return 1; } return 0; }")
            .expect("test kernel source is valid mini-C");
        let cfg = FuzzConfig {
            idle_stop_min: 0.5,
            max_execs: 500,
            ..Default::default()
        };
        let a = fuzz(&p, "kernel", vec![], &cfg).expect("kernel signature is fuzzable");
        let b = fuzz(&p, "kernel", vec![], &cfg).expect("kernel signature is fuzzable");
        assert_eq!(a.corpus, b.corpus);
        assert_eq!(a.executed, b.executed);
    }

    #[test]
    fn profile_accumulates_ranges() {
        let p = minic::parse(
            "int kernel(int x) { int r = 0; if (x > 5) { r = 83; } else { r = 2; } return r; }",
        )
        .expect("test kernel source is valid mini-C");
        let cfg = FuzzConfig {
            idle_stop_min: 1.0,
            max_execs: 1000,
            ..Default::default()
        };
        let rep = fuzz(&p, "kernel", vec![], &cfg).expect("kernel signature is fuzzable");
        let range = rep
            .profile
            .range_of("kernel", "r")
            .expect("every run assigns r, so its range is profiled");
        assert_eq!(range.max, 83);
    }

    #[test]
    fn host_capture_produces_seeds() {
        let p = minic::parse(
            r#"
            int kernel(int a[4]) { return a[0] + a[3]; }
            int main_host() {
                int buf[4];
                for (int i = 0; i < 4; i++) { buf[i] = i * 10; }
                return kernel(buf);
            }
        "#,
        )
        .expect("test kernel source is valid mini-C");
        let seeds = kernel_seeds_from_host(&p, "main_host", "kernel", vec![]);
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0][0], ArgValue::IntArray(vec![0, 10, 20, 30]));
    }

    #[test]
    fn seeded_fuzzing_accepts_valid_seeds_only() {
        let p = minic::parse("int kernel(int a[4]) { return a[0]; }")
            .expect("test kernel source is valid mini-C");
        let cfg = FuzzConfig {
            idle_stop_min: 0.2,
            max_execs: 100,
            ..Default::default()
        };
        let good = vec![ArgValue::IntArray(vec![1, 2, 3, 4])];
        let bad = vec![ArgValue::IntArray(vec![1])]; // wrong length
        let r = fuzz(&p, "kernel", vec![good, bad], &cfg).expect("kernel signature is fuzzable");
        assert!(r.corpus.iter().all(|c| match &c[0] {
            ArgValue::IntArray(v) => v.len() == 4,
            _ => false,
        }));
    }

    #[test]
    fn idle_tail_counts_in_reported_time() {
        let p = minic::parse("int kernel(int x) { return x; }")
            .expect("test kernel source is valid mini-C");
        let cfg = FuzzConfig {
            idle_stop_min: 5.0,
            max_execs: 200,
            ..Default::default()
        };
        let r = fuzz(&p, "kernel", vec![], &cfg).expect("kernel signature is fuzzable");
        assert!(r.sim_minutes >= 5.0);
    }
}
