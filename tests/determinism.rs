//! Thread-count invariance of the parallel evaluation engine.
//!
//! The contract of `SearchConfig::threads` / `FuzzConfig::threads` is that
//! the worker count changes wall-clock time *only*: every observable output
//! — corpora, counters, simulated clocks, applied edits, latencies — is
//! bit-identical to the sequential (`threads = 1`) baseline. These tests
//! pin that contract on real benchmark subjects.

use heterogen_faults::NoFaults;
use heterogen_toolchain::SimBackend;
use repair::{DifferentialTester, SearchConfig};
use testgen::FuzzConfig;

const THREADS: [usize; 3] = [2, 4, 8];

fn fuzz_cfg(threads: usize) -> FuzzConfig {
    FuzzConfig::builder()
        .with_idle_stop_min(0.5)
        .with_max_execs(400)
        .with_threads(threads)
        .build()
}

fn search_cfg(threads: usize) -> SearchConfig {
    SearchConfig::builder()
        .with_budget_min(150.0)
        .with_max_diff_tests(8)
        .with_explore_performance(true)
        .with_threads(threads)
        .build()
}

#[test]
fn fuzzing_is_thread_count_invariant() {
    for id in ["P1", "P3", "P6"] {
        let s = benchsuite::subject(id).unwrap();
        let p = s.parse();
        let mut seeds = s.seed_inputs.clone();
        seeds.extend(s.existing_tests.clone());
        let base = testgen::fuzz(&p, s.kernel, seeds.clone(), &fuzz_cfg(1)).unwrap();
        assert!(!base.corpus.is_empty(), "{id}: empty baseline corpus");
        for threads in THREADS {
            let r = testgen::fuzz(&p, s.kernel, seeds.clone(), &fuzz_cfg(threads)).unwrap();
            assert_eq!(base.corpus, r.corpus, "{id}: corpus @ {threads} threads");
            assert_eq!(
                base.executed, r.executed,
                "{id}: executed @ {threads} threads"
            );
            assert_eq!(
                base.sim_minutes.to_bits(),
                r.sim_minutes.to_bits(),
                "{id}: sim_minutes @ {threads} threads"
            );
            assert_eq!(
                base.coverage.to_bits(),
                r.coverage.to_bits(),
                "{id}: coverage @ {threads} threads"
            );
            assert_eq!(base.profile, r.profile, "{id}: profile @ {threads} threads");
            assert_eq!(
                base.peak_heap_cells, r.peak_heap_cells,
                "{id}: peak heap @ {threads} threads"
            );
        }
    }
}

#[test]
fn differential_testing_is_thread_count_invariant() {
    let s = benchsuite::subject("P6").unwrap();
    let p = s.parse();
    let fr = testgen::fuzz(&p, s.kernel, s.seed_inputs.clone(), &fuzz_cfg(1)).unwrap();
    let broken = heterogen_core::initial_version(&p, &fr.profile);
    let base = DifferentialTester::with_threads(&p, s.kernel, &fr.corpus, 48, 1).unwrap();
    let base_report = base.evaluate(&broken);
    for threads in THREADS {
        let d = DifferentialTester::with_threads(&p, s.kernel, &fr.corpus, 48, threads).unwrap();
        assert_eq!(
            base.cpu_latency_ms().to_bits(),
            d.cpu_latency_ms().to_bits(),
            "cpu latency @ {threads} threads"
        );
        let r = d.evaluate(&broken);
        assert_eq!(
            base_report.pass_ratio.to_bits(),
            r.pass_ratio.to_bits(),
            "pass ratio @ {threads} threads"
        );
        assert_eq!(
            base_report.fpga_latency_ms.to_bits(),
            r.fpga_latency_ms.to_bits(),
            "fpga latency @ {threads} threads"
        );
    }
}

/// One full repair run per thread count, compared field by field against
/// the sequential baseline (floats by bit pattern, not approximately).
fn assert_repair_invariant(id: &str, cfg_for: impl Fn(usize) -> SearchConfig) {
    let s = benchsuite::subject(id).unwrap();
    let p = s.parse();
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());
    let fr = testgen::fuzz(&p, s.kernel, seeds, &fuzz_cfg(1)).unwrap();
    let broken = heterogen_core::initial_version(&p, &fr.profile);

    let base = repair::repair(
        &p,
        broken.clone(),
        s.kernel,
        &fr.corpus,
        &fr.profile,
        &cfg_for(1),
    )
    .unwrap();
    for threads in THREADS {
        let r = repair::repair(
            &p,
            broken.clone(),
            s.kernel,
            &fr.corpus,
            &fr.profile,
            &cfg_for(threads),
        )
        .unwrap();
        assert_eq!(
            base.applied, r.applied,
            "{id}: applied edits @ {threads} threads"
        );
        assert_eq!(base.stats, r.stats, "{id}: stats @ {threads} threads");
        assert_eq!(base.success, r.success, "{id}: success @ {threads} threads");
        assert_eq!(
            base.improved, r.improved,
            "{id}: improved @ {threads} threads"
        );
        assert_eq!(
            base.pass_ratio.to_bits(),
            r.pass_ratio.to_bits(),
            "{id}: pass ratio @ {threads} threads"
        );
        assert_eq!(
            base.fpga_latency_ms.to_bits(),
            r.fpga_latency_ms.to_bits(),
            "{id}: fpga latency @ {threads} threads"
        );
        assert_eq!(
            base.cpu_latency_ms.to_bits(),
            r.cpu_latency_ms.to_bits(),
            "{id}: cpu latency @ {threads} threads"
        );
        assert_eq!(
            minic::print_program(&base.program),
            minic::print_program(&r.program),
            "{id}: returned program @ {threads} threads"
        );
    }
}

#[test]
fn repair_search_is_thread_count_invariant() {
    for id in ["P3", "P6"] {
        assert_repair_invariant(id, search_cfg);
    }
}

/// The `WithoutDependence` ablation draws edits from the RNG; the batch
/// planner must consume the RNG on the caller thread only, so even the
/// randomized search trajectory is identical at any worker count.
#[test]
fn random_ablation_is_thread_count_invariant() {
    assert_repair_invariant("P6", |threads| {
        search_cfg(threads)
            .to_builder()
            .with_dependence(false)
            .with_rng_seed(41)
            .build()
    });
}

/// The backend-generic entry point under a non-default backend: the
/// embedded profile reschedules and re-bills every candidate, and the
/// whole search must still be thread-count invariant — same stats, same
/// winning program, bit-identical latency at any worker count.
#[test]
fn alternative_backend_search_is_thread_count_invariant() {
    use heterogen_trace::NullSink;

    let s = benchsuite::subject("P6").unwrap();
    let p = s.parse();
    let fr = testgen::fuzz(&p, s.kernel, s.seed_inputs.clone(), &fuzz_cfg(1)).unwrap();
    let broken = heterogen_core::initial_version(&p, &fr.profile);
    let backend = SimBackend::embedded_profile();

    let run_at = |threads: usize| {
        repair::repair_persistent(
            &p,
            broken.clone(),
            s.kernel,
            &fr.corpus,
            &fr.profile,
            &search_cfg(threads),
            &NullSink,
            &NoFaults,
            &backend,
            None,
        )
        .unwrap()
    };

    let base = run_at(1);
    for threads in [2usize, 4] {
        let r = run_at(threads);
        assert_eq!(base.applied, r.applied, "applied @ {threads} threads");
        assert_eq!(base.stats, r.stats, "stats @ {threads} threads");
        assert_eq!(base.success, r.success, "success @ {threads} threads");
        assert_eq!(base.stop, r.stop, "stop reason @ {threads} threads");
        assert_eq!(
            base.fpga_latency_ms.to_bits(),
            r.fpga_latency_ms.to_bits(),
            "fpga latency @ {threads} threads"
        );
        assert_eq!(
            minic::print_program(&base.program),
            minic::print_program(&r.program),
            "returned program @ {threads} threads"
        );
    }

    // The two profiles are genuinely distinct toolchains: the embedded
    // schedule model (single-port BRAM, 1.25 cycles/op, 8x speedup cap)
    // must land the same subject at a different latency than the default
    // datacenter profile.
    let default_run = repair::repair(
        &p,
        broken,
        s.kernel,
        &fr.corpus,
        &fr.profile,
        &search_cfg(1),
    )
    .unwrap();
    assert_ne!(
        base.fpga_latency_ms.to_bits(),
        default_run.fpga_latency_ms.to_bits(),
        "the embedded backend should schedule P6 differently from the default"
    );
}

/// The trace layer's merge-phase emission rule, pinned end to end: a full
/// pipeline run (fuzzing + repair) with a `JsonlSink` must produce a
/// byte-identical event stream at every thread count.
#[test]
fn trace_stream_is_thread_count_invariant() {
    use heterogen_core::{HeteroGen, JobSpec};
    use heterogen_trace::JsonlSink;
    use std::sync::Arc;

    let s = benchsuite::subject("P3").unwrap();
    let p = s.parse();
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());

    let trace_at = |threads: usize| {
        let mut cfg = heterogen_core::PipelineConfig::quick();
        cfg.fuzz = fuzz_cfg(threads);
        cfg.search = search_cfg(threads);
        let sink = Arc::new(JsonlSink::new());
        let session = HeteroGen::builder().config(cfg).sink(sink.clone()).build();
        session
            .run(JobSpec::fuzz(p.clone(), s.kernel, seeds.clone()))
            .unwrap();
        sink.contents()
    };

    let base = trace_at(1);
    assert!(!base.is_empty(), "baseline trace is empty");
    for threads in [2usize, 4] {
        let r = trace_at(threads);
        assert_eq!(base, r, "trace bytes @ {threads} threads");
    }
}

/// Strips the fault-layer events (`fault_injected`, `retry_scheduled`)
/// from a JSONL trace, leaving the stream a fault-free run would emit.
fn strip_fault_events(trace: &str) -> String {
    trace
        .lines()
        .filter(|l| {
            !l.contains("\"event\":\"fault_injected\"")
                && !l.contains("\"event\":\"retry_scheduled\"")
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Chaos determinism: a transient-only fault plan must not perturb the
/// search at all. Every transient is retried to success, the backoff is
/// billed to the resilience ledger (never the search clock), and the
/// outcome — stats, applied edits, returned program, latencies, and the
/// trace stream minus the fault events themselves — is byte-identical to
/// the fault-free run, at one worker thread and at many.
#[test]
fn chaos_transient_faults_leave_the_search_byte_identical() {
    use heterogen_faults::FaultPlan;
    use heterogen_trace::JsonlSink;

    let s = benchsuite::subject("P6").unwrap();
    let p = s.parse();
    let fr = testgen::fuzz(&p, s.kernel, s.seed_inputs.clone(), &fuzz_cfg(1)).unwrap();
    let broken = heterogen_core::initial_version(&p, &fr.profile);

    let base_sink = JsonlSink::new();
    let base = repair::repair_persistent(
        &p,
        broken.clone(),
        s.kernel,
        &fr.corpus,
        &fr.profile,
        &search_cfg(1),
        &base_sink,
        &NoFaults,
        &SimBackend::default_profile(),
        None,
    )
    .unwrap();
    let base_trace = base_sink.contents();
    assert!(!base.resilience.any(), "fault-free run absorbed faults");

    // Transient runs of at most 2 attempts against the default 3-retry
    // policy: every injected fault is recoverable.
    let plan = FaultPlan::builder(0xC0FFEE)
        .with_transient_rate(0.35)
        .with_transient_len(2)
        .build();
    for threads in [1usize, 2, 4] {
        let sink = JsonlSink::new();
        let r = repair::repair_persistent(
            &p,
            broken.clone(),
            s.kernel,
            &fr.corpus,
            &fr.profile,
            &search_cfg(threads),
            &sink,
            &plan,
            &SimBackend::default_profile(),
            None,
        )
        .unwrap();
        assert_eq!(base.applied, r.applied, "applied @ {threads} threads");
        assert_eq!(base.stats, r.stats, "stats @ {threads} threads");
        assert_eq!(base.success, r.success, "success @ {threads} threads");
        assert_eq!(base.stop, r.stop, "stop reason @ {threads} threads");
        assert_eq!(
            base.fpga_latency_ms.to_bits(),
            r.fpga_latency_ms.to_bits(),
            "fpga latency @ {threads} threads"
        );
        assert_eq!(
            minic::print_program(&base.program),
            minic::print_program(&r.program),
            "returned program @ {threads} threads"
        );
        // The chaos actually happened — and was fully absorbed.
        assert!(
            r.resilience.transient_faults >= 2,
            "want ≥2 transients, got {} @ {threads} threads",
            r.resilience.transient_faults
        );
        assert_eq!(
            r.resilience.retries, r.resilience.transient_faults,
            "every transient retried @ {threads} threads"
        );
        assert!(
            r.resilience.backoff_min > 0.0,
            "backoff billed to the resilience ledger @ {threads} threads"
        );
        assert_eq!(r.resilience.crashes, 0, "crashes @ {threads} threads");
        assert_eq!(
            r.resilience.permanent_faults, 0,
            "permanent faults @ {threads} threads"
        );
        // Same fault schedule at every thread count, and — minus the fault
        // events themselves — the same trace bytes as the fault-free run.
        assert_eq!(
            base_trace,
            strip_fault_events(&sink.contents()),
            "trace minus fault events @ {threads} threads"
        );
    }
}

/// Extracts the fingerprints of `candidate_evaluated` events carrying the
/// given verdict, in emission order.
fn fingerprints_with_verdict(trace: &str, verdict: &str) -> Vec<u64> {
    let want = format!("\"verdict\":\"{verdict}\"");
    trace
        .lines()
        .filter(|l| l.contains("\"event\":\"candidate_evaluated\"") && l.contains(&want))
        .filter_map(|l| {
            let at = l.find("\"fingerprint\":\"")? + "\"fingerprint\":\"".len();
            u64::from_str_radix(l.get(at..at + 16)?, 16).ok()
        })
        .collect()
}

/// The acceptance scenario of the fault-injection harness: a repair search
/// with one poisoned (panicking) candidate *and* injected transient compile
/// faults still completes, retries deterministically, and returns the same
/// best program as the fault-free run.
#[test]
fn chaos_poisoned_candidate_is_isolated_and_the_repair_still_lands() {
    use heterogen_faults::FaultPlan;
    use heterogen_trace::JsonlSink;

    let s = benchsuite::subject("P6").unwrap();
    let p = s.parse();
    let fr = testgen::fuzz(&p, s.kernel, s.seed_inputs.clone(), &fuzz_cfg(1)).unwrap();
    let broken = heterogen_core::initial_version(&p, &fr.profile);

    let base_sink = JsonlSink::new();
    let base = repair::repair_persistent(
        &p,
        broken.clone(),
        s.kernel,
        &fr.corpus,
        &fr.profile,
        &search_cfg(1),
        &base_sink,
        &NoFaults,
        &SimBackend::default_profile(),
        None,
    )
    .unwrap();
    assert!(base.success, "baseline repair failed: {:?}", base.applied);

    // Poison the last candidate the fault-free run admitted. The run ended
    // on budget expiry, so nothing admitted in the final batch was ever
    // popped from the frontier again — and a crashed candidate is billed
    // exactly what its admission cost — so the rest of the search replays
    // unchanged and the divergence is confined to the resilience ledger.
    let admitted = fingerprints_with_verdict(&base_sink.contents(), "admitted");
    assert!(
        !admitted.is_empty(),
        "baseline run admitted no candidate to poison"
    );
    let plan = FaultPlan::builder(0xBAD5EED)
        .with_poison_key(*admitted.last().unwrap())
        .with_transient_rate(0.35)
        .with_transient_len(2)
        .build();

    for threads in [1usize, 4] {
        let sink = JsonlSink::new();
        let r = repair::repair_persistent(
            &p,
            broken.clone(),
            s.kernel,
            &fr.corpus,
            &fr.profile,
            &search_cfg(threads),
            &sink,
            &plan,
            &SimBackend::default_profile(),
            None,
        )
        .unwrap();
        assert!(r.success, "chaos run failed @ {threads} threads");
        assert_eq!(
            minic::print_program(&base.program),
            minic::print_program(&r.program),
            "best program @ {threads} threads"
        );
        assert_eq!(base.applied, r.applied, "applied @ {threads} threads");
        assert_eq!(base.stats, r.stats, "stats @ {threads} threads");
        assert!(
            r.resilience.crashes >= 1,
            "poisoned candidate not crashed @ {threads} threads"
        );
        assert!(
            r.resilience.transient_faults >= 2,
            "want ≥2 transient compile faults, got {} @ {threads} threads",
            r.resilience.transient_faults
        );
        assert!(
            !fingerprints_with_verdict(&sink.contents(), "crashed").is_empty(),
            "no crashed verdict traced @ {threads} threads"
        );
    }
}

/// Durability determinism: a warm persistent store changes wall time only.
/// For each thread count, a store-less run, a cold-store run (populating a
/// fresh store), a warm-store run (replaying it), and a warm run after the
/// log is truncated mid-record (torn-write recovery) must all produce
/// byte-identical report JSON and JSONL trace streams. A store warmed at
/// one thread count must also replay cleanly at another, because the
/// corpus key deliberately excludes `threads`.
#[test]
fn warm_store_is_report_and_trace_byte_identical() {
    use heterogen_core::{HeteroGen, JobSpec, PipelineConfig};
    use heterogen_store::Store;
    use heterogen_trace::JsonlSink;
    use std::sync::Arc;

    let s = benchsuite::subject("P3").unwrap();
    let p = s.parse();
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());
    let dir = std::env::temp_dir().join(format!("heterogen-test-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let run_with = |threads: usize, store: Option<Arc<Store>>| {
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz = fuzz_cfg(threads);
        cfg.search = search_cfg(threads);
        let sink = Arc::new(JsonlSink::new());
        let mut builder = HeteroGen::builder().config(cfg).sink(sink.clone());
        if let Some(store) = store {
            builder = builder.store(store);
        }
        let report = builder
            .build()
            .run(JobSpec::fuzz(p.clone(), s.kernel, seeds.clone()))
            .unwrap();
        (
            serde_json::to_string(&report).expect("serializable report"),
            sink.contents(),
        )
    };

    for threads in [1usize, 2, 4] {
        let reference = run_with(threads, None);
        let sub = dir.join(format!("t{threads}"));

        let cold_store = Arc::new(Store::open(&sub).unwrap());
        assert!(cold_store.recovery().created);
        let cold = run_with(threads, Some(cold_store.clone()));
        assert_eq!(reference, cold, "cold store bytes @ {threads} threads");
        assert_eq!(cold_store.stats().write_errors, 0);

        let warm_store = Arc::new(Store::open(&sub).unwrap());
        assert!(
            warm_store.stats().verdicts > 0,
            "cold run persisted nothing"
        );
        assert_eq!(warm_store.stats().corpora, 1);
        assert!(
            warm_store.stats().diffs > 0,
            "cold run persisted no differential verdicts"
        );
        let log_bytes = warm_store.stats().log_bytes;
        let warm = run_with(threads, Some(warm_store.clone()));
        assert_eq!(reference, warm, "warm store bytes @ {threads} threads");
        assert_eq!(
            warm_store.stats().log_bytes,
            log_bytes,
            "a fully warm run must not grow the log"
        );

        // Tear the log mid-record; the open quarantines the tail and the
        // run re-derives whatever was lost, byte for byte.
        let log = heterogen_store::log_path(&sub);
        let len = std::fs::metadata(&log).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&log)
            .and_then(|f| f.set_len(len - 7))
            .unwrap();
        let torn_store = Arc::new(Store::open(&sub).unwrap());
        assert!(
            !torn_store.recovery().clean(),
            "truncation went unnoticed @ {threads} threads"
        );
        assert!(torn_store.recovery().quarantined_bytes > 0);
        let torn = run_with(threads, Some(torn_store));
        assert_eq!(reference, torn, "torn-recovery bytes @ {threads} threads");
    }

    // One store shared across thread counts: every persisted result is
    // thread-invariant, so entries written at t=1 warm the t=2/t=4 runs.
    let shared = dir.join("shared");
    let reference = run_with(1, Some(Arc::new(Store::open(&shared).unwrap())));
    for threads in [2usize, 4] {
        let warm = run_with(threads, Some(Arc::new(Store::open(&shared).unwrap())));
        assert_eq!(
            reference, warm,
            "cross-thread warm bytes @ {threads} threads"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The mined-pattern tier's determinism contract, both halves:
///
/// * **Mining off** (the default), the run is byte-identical to a
///   store-less run at every thread count — even over a warm store full of
///   banked scripts *and* mined patterns. Learning never leaks into a run
///   that did not opt in.
/// * **Mining on**, the run is deterministic and thread-count invariant:
///   the same report JSON and JSONL trace at 1/2/4 workers, with the
///   winning script and `mined` marker in the report.
#[test]
fn mined_tier_is_gated_and_thread_count_invariant() {
    use heterogen_core::{HeteroGen, JobSpec, PipelineConfig};
    use heterogen_store::Store;
    use heterogen_trace::JsonlSink;
    use std::sync::Arc;

    let s = benchsuite::subject("P3").unwrap();
    let p = s.parse();
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());
    let dir = std::env::temp_dir().join(format!("heterogen-test-mined-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let run_with = |threads: usize, store: Option<Arc<Store>>, mined: bool| {
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz = fuzz_cfg(threads);
        cfg.search = search_cfg(threads);
        let sink = Arc::new(JsonlSink::new());
        let mut builder = HeteroGen::builder().config(cfg).sink(sink.clone());
        if let Some(store) = store {
            builder = builder.store(store);
        }
        let spec = JobSpec::builder(p.clone(), s.kernel)
            .seeds(seeds.clone())
            .mined(mined)
            .build();
        let report = builder.build().run(spec).unwrap();
        (
            serde_json::to_string(&report).expect("serializable report"),
            sink.contents(),
        )
    };

    let reference = run_with(1, None, false);
    assert!(
        !reference.0.contains("\"mined\""),
        "a mining-off report must not carry the mined fields"
    );

    // Cold run banks the winning script; then mine patterns into the store
    // (what `reproduce mine` does).
    let store = Arc::new(Store::open(&dir).unwrap());
    let cold = run_with(1, Some(store.clone()), false);
    assert_eq!(reference, cold, "cold-store bytes");
    let scripts: Vec<repair::EditScript> = store.scripts().into_iter().map(|(_, s)| s).collect();
    assert!(
        !scripts.is_empty(),
        "the successful run must bank its script"
    );
    for pat in repair::mine::mine_patterns(&scripts) {
        store.put_pattern(&pat);
    }
    assert!(!store.patterns().is_empty());
    drop(store);

    // Mining off: the warm store full of scripts and patterns is invisible.
    for threads in [1usize, 2, 4] {
        let warm = run_with(threads, Some(Arc::new(Store::open(&dir).unwrap())), false);
        assert_eq!(reference, warm, "mining-off warm bytes @ {threads} threads");
    }

    // Mining on: deterministic across repeats and thread counts, and the
    // report opts into the script fields.
    let mined_base = run_with(1, Some(Arc::new(Store::open(&dir).unwrap())), true);
    assert!(
        mined_base.0.contains("\"mined\":true"),
        "a mined run's report must carry the mined marker"
    );
    assert!(
        mined_base.0.contains("\"script\":"),
        "a mined run's report must carry the winning script"
    );
    assert!(
        mined_base.1.contains("\"event\":\"repair_script\""),
        "a mined run's trace must carry the repair_script event"
    );
    for threads in [1usize, 2, 4] {
        let r = run_with(threads, Some(Arc::new(Store::open(&dir).unwrap())), true);
        assert_eq!(mined_base, r, "mined bytes @ {threads} threads");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `MetricsSink` counters must agree with the hand-maintained
/// `SearchStats` for the same run.
#[test]
fn trace_metrics_agree_with_search_stats() {
    use heterogen_trace::MetricsSink;

    let s = benchsuite::subject("P6").unwrap();
    let p = s.parse();
    let fr = testgen::fuzz(&p, s.kernel, s.seed_inputs.clone(), &fuzz_cfg(1)).unwrap();
    let broken = heterogen_core::initial_version(&p, &fr.profile);

    let metrics = MetricsSink::new();
    let out = repair::repair_persistent(
        &p,
        broken,
        s.kernel,
        &fr.corpus,
        &fr.profile,
        &search_cfg(2),
        &metrics,
        &NoFaults,
        &SimBackend::default_profile(),
        None,
    )
    .unwrap();

    assert_eq!(metrics.counter("candidate_evaluated"), out.stats.attempts);
    assert_eq!(
        metrics.counter("candidate.inapplicable"),
        out.stats.inapplicable
    );
    assert_eq!(
        metrics.counter("candidate.style_rejected"),
        out.stats.style_rejects
    );
    assert_eq!(metrics.counter("style_reject"), out.stats.style_rejects);
    assert_eq!(metrics.counter("full_compile"), out.stats.full_compiles);
    assert_eq!(metrics.counter("diff_evaluated"), out.stats.simulations);
    let admitted = metrics.counter("candidate.admitted");
    assert_eq!(metrics.counter("edit_applied"), admitted);
    assert!(admitted > 0, "no admitted candidates traced");
}

/// Sessions nested inside a `parallel_map` share the one helper pool with
/// their own parallel batches. P3 and P5 run concurrently, each searching
/// and fuzzing at two threads, and must produce report JSON and JSONL
/// traces byte-identical to sequential one-thread runs.
#[test]
fn nested_sessions_on_the_shared_pool_are_byte_identical() {
    use heterogen_core::{HeteroGen, JobSpec, PipelineConfig};
    use heterogen_trace::JsonlSink;
    use std::sync::Arc;

    let run_with = |id: &str, threads: usize| {
        let s = benchsuite::subject(id).unwrap();
        let mut seeds = s.seed_inputs.clone();
        seeds.extend(s.existing_tests.clone());
        let mut cfg = PipelineConfig::quick();
        cfg.fuzz = fuzz_cfg(threads);
        cfg.search = search_cfg(threads);
        let sink = Arc::new(JsonlSink::new());
        let session = HeteroGen::builder().config(cfg).sink(sink.clone()).build();
        let report = session
            .run(JobSpec::fuzz(s.parse(), s.kernel, seeds))
            .unwrap();
        (
            serde_json::to_string(&report).expect("serializable report"),
            sink.contents(),
        )
    };

    let ids = ["P3", "P5"];
    let sequential: Vec<_> = ids.iter().map(|id| run_with(id, 1)).collect();
    let nested = parallel::parallel_map(2, &ids, |_, id| run_with(id, 2));
    for ((id, base), got) in ids.iter().zip(&sequential).zip(&nested) {
        assert!(!base.1.is_empty(), "{id}: empty baseline trace");
        assert_eq!(base.0, got.0, "{id}: report bytes, nested @ 2 threads");
        assert_eq!(base.1, got.1, "{id}: trace bytes, nested @ 2 threads");
    }
}
