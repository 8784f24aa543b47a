//! Regenerates the paper's tables and figures, and drives single subjects
//! through the traced pipeline.
//!
//! ```text
//! cargo run --release -p bench --bin reproduce -- all
//! cargo run --release -p bench --bin reproduce -- table3
//! cargo run --release -p bench --bin reproduce -- fig9 --json out.json
//! cargo run --release -p bench --bin reproduce -- run P3 --json
//! cargo run --release -p bench --bin reproduce -- run P3 --store /tmp/hg --mined
//! cargo run --release -p bench --bin reproduce -- mine --store /tmp/hg
//! cargo run --release -p bench --bin reproduce -- trace P3 --json p3.jsonl
//! cargo run --release -p bench --bin reproduce -- toolchain P3 --backend embedded
//! cargo run --release -p bench --bin reproduce -- chaos P3
//! cargo run --release -p bench --bin reproduce -- serve --threads 4
//! ```

use bench::*;
use heterogen_core::{HeteroGen, JobSpec, PipelineConfig};
use heterogen_server::{Server, ServerConfig};
use heterogen_store::Store;
use heterogen_toolchain::{SimBackend, Toolchain};
use heterogen_trace::{JsonlSink, MetricsSink, NullSink, TeeSink, TraceSink};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The flags every subject-driving subcommand shares, parsed once:
/// `<subject>` (first non-flag positional after the subcommand),
/// `--backend <name>`, `--threads <n>`, `--store <dir>`, `--mined`, and
/// `--json [path]`.
#[derive(Debug, Clone, Default)]
struct CommonOpts {
    subcommand: String,
    subject: Option<String>,
    backend: Option<String>,
    threads: Option<usize>,
    store_dir: Option<String>,
    wants_store: bool,
    wants_mined: bool,
    wants_json: bool,
    json_path: Option<String>,
}

impl CommonOpts {
    fn parse(args: &[String]) -> CommonOpts {
        CommonOpts {
            subcommand: args.first().cloned().unwrap_or_else(|| "all".to_string()),
            subject: args.get(1).filter(|a| !a.starts_with("--")).cloned(),
            backend: flag_value(args, "--backend"),
            threads: flag_value(args, "--threads").and_then(|v| v.parse().ok()),
            store_dir: flag_value(args, "--store"),
            wants_store: args.iter().any(|a| a == "--store"),
            wants_mined: args.iter().any(|a| a == "--mined"),
            wants_json: args.iter().any(|a| a == "--json"),
            json_path: flag_value(args, "--json"),
        }
    }

    /// Opens the crash-safe evaluation store named by `--store`, if any,
    /// reporting (but tolerating) a recovered torn tail and exiting on
    /// irrecoverable files (wrong magic, schema version skew).
    fn open_store(&self) -> Option<Arc<Store>> {
        self.store_dir.as_deref().map(open_store_at)
    }

    /// The subject positional, or a usage error naming the subcommand.
    fn require_subject(&self) -> String {
        self.subject.clone().unwrap_or_else(|| {
            eprintln!(
                "usage: reproduce -- {} <subject> [--backend <name>] [--threads <n>] [--store <dir>] [--mined] [--json [path]]",
                self.subcommand
            );
            std::process::exit(2);
        })
    }

    /// The standard pipeline configuration with the `--threads` override
    /// applied to both the fuzzing and search phases.
    fn config(&self) -> PipelineConfig {
        let mut cfg = standard_config();
        if let Some(t) = self.threads {
            cfg.fuzz.threads = t;
            cfg.search.threads = t;
        }
        cfg
    }

    /// A job for `subject` honouring the `--backend` override.
    fn spec_for(&self, s: &benchsuite::Subject) -> JobSpec {
        let mut b = JobSpec::builder(s.parse(), s.kernel)
            .seeds(seeds(s))
            .mined(self.wants_mined);
        if let Some(name) = &self.backend {
            b = b.backend(name);
        }
        b.build()
    }
}

/// The value following `name`, unless it is itself a flag.
fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .filter(|p| !p.starts_with("--"))
        .cloned()
}

/// Opens (creating if absent) the store at `dir`, printing the recovery
/// summary when the open had to repair a torn or corrupt tail.
fn open_store_at(dir: impl AsRef<Path>) -> Arc<Store> {
    let dir = dir.as_ref();
    match Store::open(dir) {
        Ok(s) => {
            let r = s.recovery();
            if !r.clean() {
                eprintln!(
                    "store: recovered {} records ({} verdicts, {} corpora, {} diffs, \
                     {} scripts, {} patterns), quarantined {} bytes: {}",
                    r.records,
                    r.verdicts,
                    r.corpora,
                    r.diffs,
                    r.scripts,
                    r.patterns,
                    r.quarantined_bytes,
                    r.corruption.as_deref().unwrap_or("-"),
                );
            }
            Arc::new(s)
        }
        Err(e) => {
            eprintln!("store: cannot open `{}`: {e}", dir.display());
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = CommonOpts::parse(&args);
    let what = opts.subcommand.as_str();
    let json_path = opts.json_path.clone();

    // Single-subject drivers sit outside the table/figure bundle.
    match what {
        "run" => {
            run_one(&opts);
            return;
        }
        "trace" => {
            run_trace(&opts);
            return;
        }
        "toolchain" => {
            run_toolchain(&opts);
            return;
        }
        "chaos" => {
            if opts.wants_store {
                run_chaos_store(&opts);
            } else {
                run_chaos(&opts);
            }
            return;
        }
        "store" => {
            run_store(&opts, &args);
            return;
        }
        "mine" => {
            run_mine(&opts);
            return;
        }
        "serve" => {
            run_serve(&opts);
            return;
        }
        _ => {}
    }

    let mut bundle = ExperimentBundle::default();
    let threads = opts.threads.unwrap_or(0);
    match what {
        "fig3" => run_fig3(&mut bundle),
        "table1" => run_table1(),
        "table2" => run_table2(),
        "table3" => run_table3(&mut bundle, threads),
        "table4" => run_table4(&mut bundle, threads),
        "table5" => run_table5(&mut bundle, threads),
        "fig8" => run_fig8(&mut bundle, threads),
        "fig9" => run_fig9(
            &mut bundle,
            threads,
            args.get(1)
                .filter(|a| a.starts_with('P'))
                .map(String::as_str),
        ),
        "ablation-seed" => run_ablation_seed(threads),
        "ablation-bitwidth" => run_ablation_bitwidth(threads),
        "summary" | "all" => {
            run_fig3(&mut bundle);
            run_table1();
            run_table2();
            run_table3(&mut bundle, threads);
            run_table4(&mut bundle, threads);
            run_table5(&mut bundle, threads);
            run_fig8(&mut bundle, threads);
            run_fig9(&mut bundle, threads, None);
            run_ablation_seed(threads);
            run_ablation_bitwidth(threads);
            run_mined(&mut bundle, threads);
            run_summary(&bundle);
        }
        other => {
            eprintln!("unknown experiment `{other}`; expected one of: fig3 table1 table2 table3 table4 table5 fig8 fig9 ablation-seed ablation-bitwidth run trace toolchain chaos serve store mine summary all");
            std::process::exit(2);
        }
    }
    if let Some(path) = json_path {
        let json = serde_json::to_string_pretty(&bundle).expect("serializable bundle");
        std::fs::write(&path, json).expect("write json");
        println!("\nwrote {path}");
    }
}

fn load_subject(id: &str) -> benchsuite::Subject {
    benchsuite::subject(id).unwrap_or_else(|| {
        eprintln!(
            "unknown subject `{id}`; expected one of: {}",
            benchsuite::subjects()
                .iter()
                .map(|s| s.id)
                .collect::<Vec<_>>()
                .join(" ")
        );
        std::process::exit(2);
    })
}

/// `reproduce -- run <subject> [--backend <name>] [--threads <n>]
/// [--json [path]]`: one pipeline run; the report prints as a table or
/// serializes whole (program as HLS-C source).
fn run_one(opts: &CommonOpts) {
    let s = load_subject(&opts.require_subject());
    if opts.wants_mined && opts.store_dir.is_none() {
        eprintln!("note: --mined is inert without --store <dir> (patterns live in the store)");
    }
    let mut builder = HeteroGen::builder().config(opts.config());
    if let Some(store) = opts.open_store() {
        builder = builder.store(store);
    }
    let report = builder
        .build()
        .run(opts.spec_for(&s))
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", s.id));
    if opts.wants_json {
        let json = serde_json::to_string_pretty(&report).expect("serializable report");
        match opts.json_path.as_deref() {
            Some(path) => {
                std::fs::write(path, json).expect("write json");
                println!("wrote {path}");
            }
            None => println!("{json}"),
        }
        return;
    }
    println!("== {} ({}) ==", s.id, s.name);
    println!("kernel ............. {}", report.kernel);
    println!(
        "tests .............. {} generated ({} executed, coverage {:.0}%)",
        report.testgen.tests,
        report.testgen.executed,
        report.testgen.coverage * 100.0
    );
    println!("initial errors ..... {}", report.initial_errors);
    println!("edits applied ...... {:?}", report.repair.applied);
    println!(
        "success ............ {} (pass ratio {:.2})",
        report.success(),
        report.repair.pass_ratio
    );
    println!(
        "latency ............ CPU {:.4} ms vs FPGA {:.4} ms ({:.2}x)",
        report.repair.cpu_latency_ms,
        report.repair.fpga_latency_ms,
        report.speedup()
    );
    println!(
        "ΔLOC ............... +{} on {} original lines",
        report.delta_loc, report.origin_loc
    );
}

/// `reproduce -- trace <subject> [--backend <name>] [--threads <n>]
/// [--json path]`: the same run under a `MetricsSink` + `JsonlSink` tee,
/// summarized per phase.
fn run_trace(opts: &CommonOpts) {
    let s = load_subject(&opts.require_subject());
    let metrics = Arc::new(MetricsSink::new());
    let jsonl = Arc::new(JsonlSink::new());
    let tee: Arc<dyn TraceSink> = Arc::new(TeeSink::new(vec![
        metrics.clone() as Arc<dyn TraceSink>,
        jsonl.clone() as Arc<dyn TraceSink>,
    ]));
    let mut builder = HeteroGen::builder().config(opts.config()).sink(tee);
    if let Some(store) = opts.open_store() {
        builder = builder.store(store);
    }
    let report = builder
        .build()
        .run(opts.spec_for(&s))
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", s.id));

    println!("== trace: {} ({}) ==", s.id, s.name);
    println!("\n-- phases (simulated minutes) --");
    let histograms = metrics.histograms();
    print_table(
        &["Phase", "Min"],
        &histograms
            .iter()
            .filter_map(|(k, h)| {
                let name = k.strip_prefix("phase.")?.strip_suffix(".min")?;
                Some(vec![name.to_string(), format!("{:.1}", h.sum())])
            })
            .collect::<Vec<_>>(),
    );
    println!("\n-- counters --");
    print_table(
        &["Counter", "Count"],
        &metrics
            .counters()
            .iter()
            .map(|(k, v)| vec![k.clone(), v.to_string()])
            .collect::<Vec<_>>(),
    );
    println!("\n-- toolchain cost histograms --");
    print_table(
        &["Histogram", "Count", "Sum", "Mean", "Min", "Max"],
        &histograms
            .iter()
            .filter(|(k, _)| !k.starts_with("phase."))
            .map(|(k, h)| {
                vec![
                    k.clone(),
                    h.count().to_string(),
                    format!("{:.3}", h.sum()),
                    format!("{:.3}", h.mean()),
                    format!("{:.3}", h.min()),
                    format!("{:.3}", h.max()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\n{} events captured; repair success = {}",
        jsonl.events(),
        report.success()
    );
    if let Some(path) = &opts.json_path {
        std::fs::write(path, jsonl.contents()).expect("write jsonl");
        println!("wrote {path}");
    }
}

/// `reproduce -- toolchain <subject> [--backend <name>] [--threads <n>]`:
/// the same pipeline run twice, once through the default datacenter backend
/// and once through the named alternative, demonstrating that the repair
/// search is generic over the [`Toolchain`] it drives.
fn run_toolchain(opts: &CommonOpts) {
    let backend_name = opts.backend.as_deref().unwrap_or("embedded");
    let alt = SimBackend::by_name(backend_name).unwrap_or_else(|| {
        eprintln!(
            "unknown backend `{backend_name}`; expected one of: {}",
            SimBackend::names().join(" ")
        );
        std::process::exit(2);
    });
    let s = load_subject(&opts.require_subject());
    let cfg = opts.config();
    // The verdict key carries the backend profile, so both runs can share
    // one store without aliasing.
    let store = opts.open_store();
    let run_with = |backend: SimBackend| {
        let info = backend.info();
        let mut builder = HeteroGen::builder().config(cfg.clone()).backend(backend);
        if let Some(store) = &store {
            builder = builder.store(store.clone());
        }
        let report = builder
            .build()
            .run(JobSpec::fuzz(s.parse(), s.kernel, seeds(&s)))
            .unwrap_or_else(|e| panic!("{}: pipeline failed on `{}`: {e}", s.id, info.name));
        (info, report)
    };
    let (base_info, base) = run_with(SimBackend::default_profile());
    let (alt_info, alt_rep) = run_with(alt);

    println!("== toolchain: {} ({}) on two backends ==", s.id, s.name);
    println!("\n{base_info}");
    println!("\n{alt_info}");
    println!("\n-- pipeline outcome per backend --");
    print_table(
        &["Metric", &base_info.name, &alt_info.name],
        &[
            vec![
                "success".into(),
                tick(base.success()),
                tick(alt_rep.success()),
            ],
            vec![
                "pass ratio".into(),
                format!("{:.2}", base.repair.pass_ratio),
                format!("{:.2}", alt_rep.repair.pass_ratio),
            ],
            vec![
                "edits applied".into(),
                base.repair.applied.join(" "),
                alt_rep.repair.applied.join(" "),
            ],
            vec![
                "FPGA latency (ms)".into(),
                format!("{:.4}", base.repair.fpga_latency_ms),
                format!("{:.4}", alt_rep.repair.fpga_latency_ms),
            ],
            vec![
                "speedup vs CPU".into(),
                format!("{:.2}x", base.speedup()),
                format!("{:.2}x", alt_rep.speedup()),
            ],
            vec![
                "repair time (sim min)".into(),
                format!("{:.1}", base.repair.minutes),
                format!("{:.1}", alt_rep.repair.minutes),
            ],
            vec![
                "ΔLOC".into(),
                format!("+{}", base.delta_loc),
                format!("+{}", alt_rep.delta_loc),
            ],
        ],
    );
    println!(
        "\n`{}` vs `{}`: {:.2}x repair time, {:.2}x final latency",
        alt_info.name,
        base_info.name,
        alt_rep.repair.minutes / base.repair.minutes.max(f64::MIN_POSITIVE),
        alt_rep.repair.fpga_latency_ms / base.repair.fpga_latency_ms.max(f64::MIN_POSITIVE),
    );
}

/// `reproduce -- chaos [subject]`: runs one repair search fault-free, then
/// again under a deterministic fault plan (transient toolchain failures on
/// ~a third of the evaluation keys, plus one poisoned candidate that
/// panics mid-compile), and asserts the chaos run absorbed every fault
/// without perturbing the outcome: same applied edits, same stats, same
/// best program, bit-identical latency.
fn run_chaos(opts: &CommonOpts) {
    use heterogen_faults::FaultPlan;

    let id = opts.subject.as_deref().unwrap_or("P3");
    let s = load_subject(id);
    let p = s.parse();
    let fuzz_cfg = testgen::FuzzConfig::builder()
        .with_idle_stop_min(0.5)
        .with_max_execs(400)
        .build();
    let fr = testgen::fuzz(&p, s.kernel, seeds(&s), &fuzz_cfg).unwrap_or_else(|e| {
        eprintln!("{id}: fuzzing failed: {e}");
        std::process::exit(1);
    });
    let broken = heterogen_core::initial_version(&p, &fr.profile);
    let sc = repair::SearchConfig::builder()
        .with_budget_min(150.0)
        .with_max_diff_tests(12)
        .with_threads(opts.threads.unwrap_or(0))
        .build();

    let base_sink = JsonlSink::new();
    let base = repair::repair_traced(
        &p,
        broken.clone(),
        s.kernel,
        &fr.corpus,
        &fr.profile,
        &sc,
        &base_sink,
    )
    .unwrap_or_else(|e| {
        eprintln!("{id}: baseline repair failed: {e}");
        std::process::exit(1);
    });

    // Poison the last candidate the baseline admitted: the run ended on
    // budget expiry, so the final batch was never popped again and the
    // crash is billed exactly what the admission cost — the only visible
    // divergence is the resilience ledger.
    let admitted: Vec<u64> = base_sink
        .contents()
        .lines()
        .filter(|l| {
            l.contains("\"event\":\"candidate_evaluated\"")
                && l.contains("\"verdict\":\"admitted\"")
        })
        .filter_map(|l| {
            let at = l.find("\"fingerprint\":\"")? + "\"fingerprint\":\"".len();
            u64::from_str_radix(l.get(at..at + 16)?, 16).ok()
        })
        .collect();
    let mut builder = FaultPlan::builder(0xC0FFEE)
        .with_transient_rate(0.35)
        .with_transient_len(2);
    if let Some(&fp) = admitted.last() {
        builder = builder.with_poison_key(fp);
    }
    let plan = builder.build();

    // The poisoned candidate panics by design; the search isolates it with
    // `catch_unwind`. Mute the default panic hook for the chaos run so the
    // expected panic does not splat a backtrace over the report.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = repair::repair_resilient(
        &p,
        broken,
        s.kernel,
        &fr.corpus,
        &fr.profile,
        &sc,
        &NullSink,
        &plan,
    );
    std::panic::set_hook(hook);
    let r = r.unwrap_or_else(|e| {
        eprintln!("{id}: chaos repair failed: {e}");
        std::process::exit(1);
    });

    println!("== chaos: {} ({}) ==", s.id, s.name);
    println!(
        "transient faults ... {} (all retried)",
        r.resilience.transient_faults
    );
    println!("retries ............ {}", r.resilience.retries);
    println!(
        "backoff ............ {:.2} simulated min (resilience ledger)",
        r.resilience.backoff_min
    );
    println!("poisoned crashes ... {}", r.resilience.crashes);
    println!("permanent faults ... {}", r.resilience.permanent_faults);

    let mut failed = false;
    let mut check = |what: &str, ok: bool| {
        if !ok {
            eprintln!("FAIL: chaos run diverged from the fault-free run: {what}");
            failed = true;
        }
    };
    check("applied edits", base.applied == r.applied);
    check("search stats", base.stats == r.stats);
    check("success", base.success == r.success);
    check(
        "fpga latency",
        base.fpga_latency_ms.to_bits() == r.fpga_latency_ms.to_bits(),
    );
    check(
        "best program",
        minic::print_program(&base.program) == minic::print_program(&r.program),
    );
    check(
        "injected chaos (≥2 transients expected)",
        r.resilience.transient_faults >= 2,
    );
    check(
        "panic isolation (≥1 crash expected)",
        admitted.is_empty() || r.resilience.crashes >= 1,
    );
    if failed {
        std::process::exit(1);
    }
    println!("OK: fault-free and chaos runs agree on every observable output");
}

/// `reproduce -- chaos --store [dir] [subject] [--threads <n>]`: the
/// storage-chaos flow. For each thread count (1/2/4, or just `--threads`),
/// the full pipeline runs five ways — without a store (the reference),
/// against a fresh store, against the warm store, against the store after
/// its log is truncated mid-record (torn-write recovery), and against a
/// store whose I/O layer injects seeded faults (short writes, ENOSPC,
/// bit flips on read). Every run must produce a report and JSONL trace
/// byte-identical to the reference: durability buys wall time, nothing
/// else.
fn run_chaos_store(opts: &CommonOpts) {
    use heterogen_faults::IoFaultPlan;
    use heterogen_store::{log_path, sidecar_path, FaultyIo, RealIo, StoreIo};

    let id = opts.subject.as_deref().unwrap_or("P3");
    let s = load_subject(id);
    let thread_counts: Vec<usize> = match opts.threads {
        Some(t) => vec![t],
        None => vec![1, 2, 4],
    };
    let base = match &opts.store_dir {
        Some(d) => PathBuf::from(d),
        None => std::env::temp_dir().join(format!("heterogen-chaos-store-{}", std::process::id())),
    };
    let _ = std::fs::remove_dir_all(&base);

    println!("== chaos --store: {} ({}) ==", s.id, s.name);
    let failed = std::cell::Cell::new(false);
    for &threads in &thread_counts {
        let dir = base.join(format!("t{threads}"));
        let mut o = opts.clone();
        o.threads = Some(threads);
        let cfg = o.config();

        // One pipeline execution: report JSON plus the full JSONL trace.
        let run_with = |store: Option<Arc<Store>>| -> (String, String) {
            let jsonl = Arc::new(JsonlSink::new());
            let mut builder = HeteroGen::builder()
                .config(cfg.clone())
                .sink(jsonl.clone() as Arc<dyn TraceSink>);
            if let Some(store) = store {
                builder = builder.store(store);
            }
            let report = builder.build().run(o.spec_for(&s)).unwrap_or_else(|e| {
                eprintln!("{id}: pipeline failed: {e}");
                std::process::exit(1);
            });
            let json = serde_json::to_string_pretty(&report).expect("serializable report");
            (json, jsonl.contents())
        };
        let reference = run_with(None);
        let check = |stage: &str, got: &(String, String)| {
            let ok = *got == reference;
            println!(
                "  t{threads} {stage:<18} report {} trace {}",
                tick(got.0 == reference.0),
                tick(got.1 == reference.1),
            );
            if !ok {
                eprintln!("FAIL: t{threads} {stage}: bytes diverged from the store-less run");
                failed.set(true);
            }
        };

        check("cold", &run_with(Some(open_store_at(&dir))));
        check("warm", &run_with(Some(open_store_at(&dir))));

        // Torn write: chop the log mid-record and re-run. The open must
        // quarantine the tail and the rest of the records still warm the
        // run; the missing tail is simply re-executed and re-appended.
        let log = log_path(&dir);
        let len = std::fs::metadata(&log).map(|m| m.len()).unwrap_or(0);
        if len > 19 {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&log)
                .and_then(|f| f.set_len(len - 7))
                .expect("truncating the log mid-record");
        }
        check("torn-tail warm", &run_with(Some(open_store_at(&dir))));
        if !sidecar_path(&dir).exists() {
            eprintln!("FAIL: t{threads}: torn tail left no quarantine sidecar");
            failed.set(true);
        }

        // Seeded write faults: short writes and ENOSPC drop memo appends
        // but can never corrupt the log or perturb the run. Chop the log
        // down first so the run has plenty of records to re-append through
        // the faulty layer.
        let len = std::fs::metadata(&log).map(|m| m.len()).unwrap_or(0);
        if len > 40 {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&log)
                .and_then(|f| f.set_len(len / 3))
                .expect("truncating the log for the write-fault stage");
        }
        let write_plan = IoFaultPlan::builder(0xD15C + threads as u64)
            .with_short_write_rate(0.25)
            .with_enospc_rate(0.15)
            .build();
        let faulty = Arc::new(FaultyIo::new(RealIo, write_plan));
        let store = Arc::new(
            Store::open_with(&dir, faulty.clone() as Arc<dyn StoreIo>).unwrap_or_else(|e| {
                eprintln!("{id}: faulted open failed: {e}");
                std::process::exit(1);
            }),
        );
        check("write-faulted", &run_with(Some(store.clone())));
        println!(
            "  t{threads} injected {} write faults ({} appends dropped)",
            faulty.injected(),
            store.stats().write_errors
        );

        // Seeded bit rot on the read path: the open sees a flipped byte,
        // recovers the prefix before it, and the run stays byte-identical.
        // A flip landing in the file header makes the open refuse the
        // file instead — equally acceptable, and the log is untouched.
        let read_plan = IoFaultPlan::builder(0xB17 + threads as u64)
            .with_bit_flip_rate(1.0)
            .build();
        match Store::open_with(&dir, Arc::new(FaultyIo::new(RealIo, read_plan))) {
            Ok(store) => {
                let r = store.recovery();
                println!(
                    "  t{threads} bit-rot open recovered {} records, quarantined {} bytes",
                    r.records, r.quarantined_bytes
                );
                check("bit-rot warm", &run_with(Some(Arc::new(store))));
            }
            Err(e) => println!("  t{threads} bit-rot open refused: {e}"),
        }

        // After all that abuse a clean open must succeed: every surviving
        // byte on disk is a valid prefix of a valid log.
        let final_store = open_store_at(&dir);
        let st = final_store.stats();
        println!(
            "  t{threads} final store: {} verdicts, {} corpora, {} diffs, {} bytes",
            st.verdicts, st.corpora, st.diffs, st.log_bytes
        );
    }
    if opts.store_dir.is_none() {
        let _ = std::fs::remove_dir_all(&base);
    }
    if failed.get() {
        std::process::exit(1);
    }
    println!("OK: every store condition reproduced the store-less run byte for byte");
}

/// `reproduce -- store <verify|stats|compact|truncate|corrupt> --store <dir>
/// [--at <byte>]`: store maintenance and crash-simulation utilities.
/// `verify` opens the log, reporting (and completing) any recovery;
/// `truncate`/`corrupt` deliberately damage the log at a byte offset so CI
/// and operators can rehearse torn-write and bit-rot recovery.
fn run_store(opts: &CommonOpts, args: &[String]) {
    use heterogen_store::log_path;

    let usage = || -> ! {
        eprintln!(
            "usage: reproduce -- store <verify|stats|compact|truncate|corrupt> --store <dir> [--at <byte>]"
        );
        std::process::exit(2);
    };
    let action = opts.subject.clone().unwrap_or_else(|| "verify".to_string());
    let Some(dir) = opts.store_dir.clone() else {
        usage();
    };
    let dir = PathBuf::from(dir);
    let at = || -> u64 {
        flag_value(args, "--at")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                eprintln!("store {action}: --at <byte offset> is required");
                std::process::exit(2);
            })
    };
    match action.as_str() {
        "verify" => {
            let store = match Store::open(&dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("store: {e}");
                    std::process::exit(2);
                }
            };
            let r = store.recovery();
            println!("log ............ {}", store.log_file().display());
            println!("created ........ {}", r.created);
            println!(
                "records ........ {} ({} verdicts, {} corpora, {} diffs)",
                r.records, r.verdicts, r.corpora, r.diffs
            );
            if r.quarantined_bytes > 0 {
                println!(
                    "quarantined .... {} bytes -> {}",
                    r.quarantined_bytes,
                    store.sidecar_file().display()
                );
            } else {
                println!("quarantined .... 0 bytes");
            }
            println!(
                "corruption ..... {}",
                r.corruption.as_deref().unwrap_or("none")
            );
            println!(
                "{}",
                if r.clean() {
                    "OK: clean"
                } else {
                    "OK: recovered"
                }
            );
        }
        "stats" => {
            let store = open_store_at(&dir);
            let st = store.stats();
            print_table(
                &["Metric", "Value"],
                &[
                    vec!["verdicts".into(), st.verdicts.to_string()],
                    vec!["corpora".into(), st.corpora.to_string()],
                    vec!["diffs".into(), st.diffs.to_string()],
                    vec!["log bytes".into(), st.log_bytes.to_string()],
                    vec!["write errors".into(), st.write_errors.to_string()],
                    vec!["wedged".into(), st.wedged.to_string()],
                ],
            );
        }
        "compact" => {
            let store = open_store_at(&dir);
            let before = store.stats().log_bytes;
            match store.compact() {
                Ok(after) => println!("compacted {before} -> {after} bytes"),
                Err(e) => {
                    eprintln!("store: compaction failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        "truncate" => {
            let at = at();
            let log = log_path(&dir);
            std::fs::OpenOptions::new()
                .write(true)
                .open(&log)
                .and_then(|f| f.set_len(at))
                .unwrap_or_else(|e| {
                    eprintln!("store: truncate {}: {e}", log.display());
                    std::process::exit(2);
                });
            println!("truncated {} to {at} bytes", log.display());
        }
        "corrupt" => {
            let at = at() as usize;
            let log = log_path(&dir);
            let mut bytes = std::fs::read(&log).unwrap_or_else(|e| {
                eprintln!("store: read {}: {e}", log.display());
                std::process::exit(2);
            });
            if at >= bytes.len() {
                eprintln!(
                    "store: offset {at} is beyond the log ({} bytes)",
                    bytes.len()
                );
                std::process::exit(2);
            }
            bytes[at] ^= 0x40;
            std::fs::write(&log, &bytes).unwrap_or_else(|e| {
                eprintln!("store: write {}: {e}", log.display());
                std::process::exit(2);
            });
            println!("flipped a bit at byte {at} of {}", log.display());
        }
        _ => usage(),
    }
}

/// `reproduce -- mine --store <dir> [--json [path]]`: abstracts every
/// winning repair script banked in the store into ranked fix patterns and
/// persists them, so later `--mined` runs (and warm servers) promote them
/// ahead of the static edit precedence. Re-running after more repairs is
/// how an operator refreshes the pattern tier.
fn run_mine(opts: &CommonOpts) {
    let Some(store) = opts.open_store() else {
        eprintln!("usage: reproduce -- mine --store <dir> [--json [path]]");
        std::process::exit(2);
    };
    let scripts: Vec<repair::EditScript> = store
        .scripts()
        .into_iter()
        .map(|(_, script)| script)
        .collect();
    let patterns = repair::mine::mine_patterns(&scripts);
    for p in &patterns {
        store.put_pattern(p);
    }
    let stored = store.patterns();
    println!(
        "== mine: {} scripts -> {} patterns ==",
        scripts.len(),
        patterns.len()
    );
    print_table(
        &["Support", "Len", "Edits"],
        &stored
            .iter()
            .map(|p| {
                vec![
                    p.support.to_string(),
                    p.edits.len().to_string(),
                    p.edits
                        .iter()
                        .map(|e| e.kind.as_str())
                        .collect::<Vec<_>>()
                        .join(" -> "),
                ]
            })
            .collect::<Vec<_>>(),
    );
    if opts.wants_json {
        let json = serde_json::to_string_pretty(&stored).expect("serializable patterns");
        match opts.json_path.as_deref() {
            Some(path) => {
                std::fs::write(path, json).expect("write json");
                println!("wrote {path}");
            }
            None => println!("{json}"),
        }
    }
}

/// `reproduce -- serve [subject] [--backend <name>] [--threads <n>]
/// [--json [path]]`: runs the benchmark subjects through the in-process job
/// server — every subject is submitted up front under its own client id, the
/// bounded worker pool drains the queue, and the per-job reports plus the
/// server-wide stats snapshot print at the end.
fn run_serve(opts: &CommonOpts) {
    let subjects: Vec<benchsuite::Subject> = match &opts.subject {
        Some(id) => vec![load_subject(id)],
        None => benchsuite::subjects(),
    };
    let server = Server::start_with_store(
        ServerConfig::builder()
            .with_workers(opts.threads.unwrap_or(0))
            .with_pipeline(opts.config())
            .build(),
        opts.open_store(),
    );
    println!(
        "== serve: {} subjects on {} workers ==",
        subjects.len(),
        server.worker_count()
    );
    let handles: Vec<_> = subjects
        .iter()
        .map(|s| {
            let mut spec = opts.spec_for(s);
            spec.client = s.id.to_string();
            server.submit(spec).unwrap_or_else(|e| {
                eprintln!("{}: submission rejected: {e}", s.id);
                std::process::exit(1);
            })
        })
        .collect();
    let outputs: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    let stats = server.shutdown();

    print_table(
        &[
            "ID",
            "Queue (ms)",
            "Wall (ms)",
            "Success",
            "Speedup",
            "Degradations",
        ],
        &outputs
            .iter()
            .map(|o| {
                let (success, speedup, degradations) = match &o.report {
                    Ok(r) => (
                        tick(r.success()),
                        format!("{:.2}x", r.speedup()),
                        r.degradations.len().to_string(),
                    ),
                    Err(e) => (format!("error: {e}"), "-".into(), "-".into()),
                };
                vec![
                    o.client.clone(),
                    format!("{:.1}", o.queue_ms),
                    format!("{:.1}", o.wall_ms),
                    success,
                    speedup,
                    degradations,
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "accepted {} / completed {} (ok {}, degraded {}, failed {}); wall p50 {:.1} ms, p99 {:.1} ms",
        stats.accepted,
        stats.completed,
        stats.succeeded,
        stats.degraded,
        stats.failed,
        stats.wall_ms.p50,
        stats.wall_ms.p99,
    );
    if opts.wants_json {
        let reports: Vec<_> = outputs
            .iter()
            .filter_map(|o| o.report.as_ref().ok())
            .collect();
        let json = serde_json::to_string_pretty(&reports).expect("serializable reports");
        match opts.json_path.as_deref() {
            Some(path) => {
                std::fs::write(path, json).expect("write json");
                println!("wrote {path}");
            }
            None => println!("{json}"),
        }
    }
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

fn run_fig3(bundle: &mut ExperimentBundle) {
    println!("\n== Figure 3: HLS compatibility error types (1,000 forum posts) ==");
    let (rows, accuracy) = fig3(1000, 2022);
    print_table(
        &["Category", "Classified", "Share", "Paper"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.category.clone(),
                    r.classified.to_string(),
                    pct(r.share),
                    pct(r.paper_share),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("classifier accuracy vs ground truth: {}", pct(accuracy));
    bundle.fig3 = Some(rows);
}

fn run_table1() {
    println!("\n== Table 1: example HLS compatibility errors ==");
    let rows = table1();
    print_table(
        &["Type", "Code", "Error Symptom", "Repair"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.category.clone(),
                    r.code.clone(),
                    r.symptom.clone(),
                    r.repair.clone(),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn run_table2() {
    println!("\n== Table 2: parameterized edits per error type ==");
    for (category, edits) in table2() {
        println!("{category}:");
        for e in edits {
            println!("    {e}");
        }
    }
}

fn run_table3(bundle: &mut ExperimentBundle, threads: usize) {
    println!("\n== Table 3: subjects and overall results ==");
    let rows = table3(threads);
    print_table(
        &[
            "ID",
            "Subject",
            "HLS Compat.",
            "Improved?",
            "Speedup",
            "Paper Improved?",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.id.clone(),
                    r.name.clone(),
                    tick(r.compatible),
                    tick(r.improved),
                    format!("{:.2}x", r.speedup),
                    tick(r.paper_improved),
                ]
            })
            .collect::<Vec<_>>(),
    );
    bundle.table3 = Some(rows);
}

fn run_table4(bundle: &mut ExperimentBundle, threads: usize) {
    println!("\n== Table 4: generated tests ==");
    let rows = table4(threads);
    print_table(
        &[
            "ID",
            "# Tests",
            "Executed",
            "Time (min)",
            "Cov.",
            "# Existing",
            "Existing Cov.",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.id.clone(),
                    r.tests.to_string(),
                    r.executed.to_string(),
                    format!("{:.0}", r.time_min),
                    pct(r.coverage),
                    r.existing_tests
                        .map(|n| n.to_string())
                        .unwrap_or_else(|| "N/A".to_string()),
                    r.existing_coverage
                        .map(pct)
                        .unwrap_or_else(|| "N/A".to_string()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let avg: f64 = rows.iter().map(|r| r.executed as f64).sum::<f64>() / rows.len() as f64;
    let avg_cov: f64 = rows.iter().map(|r| r.coverage).sum::<f64>() / rows.len() as f64;
    println!(
        "average executed inputs: {avg:.0}; average coverage: {}",
        pct(avg_cov)
    );
    bundle.table4 = Some(rows);
}

fn run_table5(bundle: &mut ExperimentBundle, threads: usize) {
    println!("\n== Table 5: manual edits, HeteroRefactor and HeteroGen ==");
    let rows = table5(threads);
    let opt_usize = |v: Option<usize>| v.map(|x| x.to_string()).unwrap_or_else(|| "✗".into());
    let opt_ms = |v: Option<f64>| v.map(|x| format!("{:.4}", x)).unwrap_or_else(|| "✗".into());
    print_table(
        &[
            "ID",
            "Origin LOC",
            "ΔLOC Manual",
            "ΔLOC HR",
            "ΔLOC HG",
            "Origin ms",
            "Manual ms",
            "HR ms",
            "HG ms",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.id.clone(),
                    r.origin_loc.to_string(),
                    opt_usize(r.manual_delta_loc),
                    opt_usize(r.hr_delta_loc),
                    r.hg_delta_loc.to_string(),
                    format!("{:.4}", r.origin_ms),
                    opt_ms(r.manual_ms),
                    opt_ms(r.hr_ms),
                    format!("{:.4}", r.hg_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    let hg_speedups: Vec<f64> = rows
        .iter()
        .filter(|r| r.hg_ms > 0.0)
        .map(|r| r.origin_ms / r.hg_ms)
        .collect();
    let manual_speedups: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.manual_ms.map(|m| r.origin_ms / m))
        .collect();
    println!(
        "HG transpiles {}/10, HR transpiles {}/10; mean speedup: HG {:.2}x, Manual {:.2}x",
        rows.len(),
        rows.iter().filter(|r| r.hr_delta_loc.is_some()).count(),
        mean(&hg_speedups),
        mean(&manual_speedups),
    );
    bundle.table5 = Some(rows);
}

fn run_fig8(bundle: &mut ExperimentBundle, threads: usize) {
    println!("\n== Figure 8 / §6.2: stack-size divergence on P3 ==");
    let r = fig8(threads);
    println!(
        "repair with {} pre-existing tests, then evaluated on {} generated tests:",
        r.existing_tests, r.generated_tests
    );
    println!(
        "  existing-tests output: {} of generated tests behave identically (paper: 56%)",
        pct(r.existing_output_pass)
    );
    println!(
        "  generated-tests output: {} behave identically (paper: 100%)",
        pct(r.generated_output_pass)
    );
    println!("  edits applied by the generated run: {:?}", r.applied);
    bundle.fig8 = Some(r);
}

fn run_fig9(bundle: &mut ExperimentBundle, threads: usize, filter: Option<&str>) {
    println!("\n== Figure 9: repair time and HLS invocations (ablations) ==");
    let rows = fig9(threads, filter);
    let opt_min = |v: Option<f64>| {
        v.map(|x| format!("{:.0}", x))
            .unwrap_or_else(|| "timeout".into())
    };
    print_table(
        &[
            "ID",
            "HG (min)",
            "WithoutDep (min)",
            "Slowdown",
            "HG invoked",
            "HG avoided",
            "WC compiles",
        ],
        &rows
            .iter()
            .map(|r| {
                let slowdown = match (r.hg_min, r.wd_min) {
                    (Some(h), Some(w)) if h > 0.0 => format!("{:.0}x", w / h),
                    (Some(_), None) => ">budget".to_string(),
                    _ => "-".to_string(),
                };
                vec![
                    r.id.clone(),
                    opt_min(r.hg_min),
                    opt_min(r.wd_min),
                    slowdown,
                    pct(r.hg_invocation_ratio),
                    r.hg_style_rejects.to_string(),
                    r.wc_compiles.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    bundle.fig9 = Some(rows);
}

fn run_summary(bundle: &ExperimentBundle) {
    println!("\n== Headline summary ==");
    if let Some(t3) = &bundle.table3 {
        let compat = t3.iter().filter(|r| r.compatible).count();
        let improved = t3.iter().filter(|r| r.improved).count();
        let speedups: Vec<f64> = t3
            .iter()
            .filter(|r| r.improved)
            .map(|r| r.speedup)
            .collect();
        println!(
            "HLS-compatible: {compat}/10 (paper: 10/10); faster than CPU: {improved}/10 (paper: 9/10); mean speedup of winners {:.2}x (paper: 1.63x)",
            mean(&speedups)
        );
    }
    if let Some(t5) = &bundle.table5 {
        let dlocs: Vec<f64> = t5.iter().map(|r| r.hg_delta_loc as f64).collect();
        let hr = t5.iter().filter(|r| r.hr_delta_loc.is_some()).count();
        println!(
            "HG edit sizes {:.0}..{:.0} lines, mean {:.0} (paper: 9..438, mean 143); HeteroRefactor transpiles {hr}/10 (paper: 2/10)",
            dlocs.iter().cloned().fold(f64::MAX, f64::min),
            dlocs.iter().cloned().fold(0.0, f64::max),
            mean(&dlocs)
        );
    }
    if let Some(f9) = &bundle.fig9 {
        let slowdowns: Vec<f64> = f9
            .iter()
            .filter_map(|r| match (r.hg_min, r.wd_min) {
                (Some(h), Some(w)) if h > 0.0 => Some(w / h),
                _ => None,
            })
            .collect();
        let wd_timeouts = f9.iter().filter(|r| r.wd_min.is_none()).count();
        let avoided: f64 =
            f9.iter().map(|r| 1.0 - r.hg_invocation_ratio).sum::<f64>() / f9.len() as f64;
        println!(
            "dependence guidance: up to {:.0}x faster, {wd_timeouts} WithoutDependence timeouts (paper: up to 35x, P9 timeout); style checker avoids {} of compilations on average (paper: up to 75% on P3)",
            slowdowns.iter().cloned().fold(0.0, f64::max),
            pct(avoided)
        );
    }
}

fn run_ablation_seed(threads: usize) {
    println!("\n== Ablation: kernel-entry seeds vs random seeds (DESIGN §6) ==");
    let rows = ablation_seed(threads);
    print_table(
        &[
            "ID",
            "Seeded execs",
            "Seeded cov.",
            "Random execs",
            "Random cov.",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.id.clone(),
                    r.seeded_execs.to_string(),
                    pct(r.seeded_coverage),
                    r.random_execs.to_string(),
                    pct(r.random_coverage),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn run_ablation_bitwidth(threads: usize) {
    println!("\n== Ablation: profile-guided bitwidth finitization (DESIGN §6) ==");
    let rows = ablation_bitwidth(threads);
    print_table(
        &["ID", "Finitized (bits)", "Declared (bits)", "Saved"],
        &rows
            .iter()
            .map(|r| {
                let saved = if r.declared_resources > 0 {
                    1.0 - r.finitized_resources as f64 / r.declared_resources as f64
                } else {
                    0.0
                };
                vec![
                    r.id.clone(),
                    r.finitized_resources.to_string(),
                    r.declared_resources.to_string(),
                    pct(saved),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

fn run_mined(bundle: &mut ExperimentBundle, threads: usize) {
    println!("\n== Mined-pattern tier on the held-out split ==");
    let m = mined_holdout(threads);
    let opt_n = |v: Option<u64>| v.map(|n| n.to_string()).unwrap_or_else(|| "-".into());
    print_table(
        &[
            "ID",
            "Base 1st fix",
            "Mined 1st fix",
            "Base compiles",
            "Mined compiles",
        ],
        &m.rows
            .iter()
            .map(|r| {
                vec![
                    r.id.clone(),
                    opt_n(r.baseline_first_fix_attempts),
                    opt_n(r.mined_first_fix_attempts),
                    r.baseline_full_compiles.to_string(),
                    r.mined_full_compiles.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "trained on {} ({} patterns, top support {}); first-fix attempts {} -> {}, compiles {} -> {}",
        m.train.join(" "),
        m.patterns,
        m.top_support,
        m.baseline_attempts_total,
        m.mined_attempts_total,
        m.baseline_compiles_total,
        m.mined_compiles_total
    );
    bundle.mined = Some(m);
}

fn tick(b: bool) -> String {
    if b {
        "✓".to_string()
    } else {
        "✗".to_string()
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}
