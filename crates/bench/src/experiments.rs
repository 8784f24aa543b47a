//! One runner per paper table/figure.
//!
//! The ten subjects are independent (each pipeline carries its own seeded
//! RNG and simulated clock), so the per-subject runners fan out across the
//! worker pool; `parallel_map` returns rows in subject order, so the tables
//! read identically regardless of thread count. Every runner takes the
//! worker thread count (`0` = available parallelism) for both the fan-out
//! and each subject's fuzzing and repair phases.

use crate::{fpga_latency_ms, fuzz_subject, run_subject, seeds, standard_config};
use heterogen_core::PipelineConfig;
use hls_sim::ErrorCategory;
use minic_exec::{compiled_for, CoverageMap, MachineConfig, Vm};
use repair::{DifferentialTester, SearchConfig};
use serde::Serialize;

/// [`standard_config`] with `threads` workers for fuzzing and repair.
fn config(threads: usize) -> PipelineConfig {
    let mut cfg = standard_config();
    cfg.fuzz.threads = threads;
    cfg.search.threads = threads;
    cfg
}

// ---------------------------------------------------------------- Figure 3

/// One slice of the Figure 3 pie.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3Row {
    /// Category name.
    pub category: String,
    /// Posts classified into this category.
    pub classified: usize,
    /// Classified share (0..=1).
    pub share: f64,
    /// The paper's reported share.
    pub paper_share: f64,
}

/// Regenerates Figure 3: classify a 1,000-post corpus by message keywords
/// and tally the categories. Returns the rows plus classifier accuracy
/// against the ground-truth labels.
pub fn fig3(posts: usize, seed: u64) -> (Vec<Fig3Row>, f64) {
    let corpus = benchsuite::forum::forum_corpus(posts, seed);
    let accuracy = repair::classify::accuracy(&corpus);
    let rows = ErrorCategory::ALL
        .iter()
        .map(|c| {
            let classified = corpus
                .iter()
                .filter(|(m, _)| repair::classify_message(m) == *c)
                .count();
            Fig3Row {
                category: c.name().to_string(),
                classified,
                share: classified as f64 / posts as f64,
                paper_share: c.forum_share(),
            }
        })
        .collect();
    (rows, accuracy)
}

// ---------------------------------------------------------------- Table 1

/// One Table 1 row: a canonical error and its repair family.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Category name.
    pub category: String,
    /// Tool code emitted by the simulated checker.
    pub code: String,
    /// Error symptom text.
    pub symptom: String,
    /// Repair summary (Table 1 "Repair" column).
    pub repair: String,
}

/// Regenerates Table 1 from the checker's canonical diagnostics.
pub fn table1() -> Vec<Table1Row> {
    let repair_for = |c: ErrorCategory| match c {
        ErrorCategory::DynamicDataStructures => "Specify the array size / backing array + stack",
        ErrorCategory::UnsupportedDataTypes => {
            "Type transformation, explicit casting, operator overloading"
        }
        ErrorCategory::DataflowOptimization => "Pragma exploration / data segmentation",
        ErrorCategory::LoopParallelization => "Pragma exploration / explicit tripcount",
        ErrorCategory::StructAndUnion => "Insert explicit constructor, make stream static",
        ErrorCategory::TopFunction => "Configuration exploration",
    };
    hls_sim::errors::table1_examples()
        .into_iter()
        .map(|(c, code, symptom)| Table1Row {
            category: c.name().to_string(),
            code: code.to_string(),
            symptom: symptom.to_string(),
            repair: repair_for(c).to_string(),
        })
        .collect()
}

// ---------------------------------------------------------------- Table 2

/// Regenerates Table 2: the parameterized-edit catalog per error type.
pub fn table2() -> Vec<(String, Vec<&'static str>)> {
    vec![
        (
            ErrorCategory::DynamicDataStructures.name().to_string(),
            vec![
                "array_static($a1:arr,$i1:int)",
                "insert($a1:arr,$d1:dyn) [pointer_to_index]",
                "resize($a1:arr)",
                "stack_trans($d1:dyn)",
            ],
        ),
        (
            ErrorCategory::UnsupportedDataTypes.name().to_string(),
            vec![
                "pointer($v1:ptr) [pointer_param_to_array]",
                "type_trans($v1:var)",
                "type_casting($v1:var)",
                "op_overload($v1:var)",
            ],
        ),
        (
            ErrorCategory::DataflowOptimization.name().to_string(),
            vec![
                "delete($p1:pragma,$f1:func)",
                "insert($p1:pragma,$f1:func)",
                "segment($a1:arr) [duplicate_array_arg]",
            ],
        ),
        (
            ErrorCategory::LoopParallelization.name().to_string(),
            vec![
                "index_static($l1:loop)",
                "explore($p1:pragma,$l1:loop)",
                "pad_array($a1:arr)",
                "delete($p1:pragma,$f1:func)",
            ],
        ),
        (
            ErrorCategory::StructAndUnion.name().to_string(),
            vec![
                "constructor($s1:struct)",
                "flatten($s1:struct)",
                "stream_static($f1:stream,$s1:struct)",
                "inst_update($s1:struct)",
                "pointer($s1:struct)",
            ],
        ),
        (
            ErrorCategory::TopFunction.name().to_string(),
            vec![
                "set_top($f1:func)",
                "fix_clock()",
                "insert($p1:pragma,$f1:func)",
            ],
        ),
    ]
}

// ---------------------------------------------------------------- Table 3

/// One Table 3 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    /// Paper id.
    pub id: String,
    /// Subject name.
    pub name: String,
    /// HLS compatibility achieved.
    pub compatible: bool,
    /// FPGA version faster than CPU original.
    pub improved: bool,
    /// Measured speedup (CPU/FPGA).
    pub speedup: f64,
    /// Paper's verdicts.
    pub paper_improved: bool,
}

/// Regenerates Table 3 by running the full pipeline on every subject.
pub fn table3(threads: usize) -> Vec<Table3Row> {
    let cfg = config(threads);
    let subjects = benchsuite::subjects();
    parallel::parallel_map(threads, &subjects, |_, s| {
        let r = run_subject(s, &cfg);
        Table3Row {
            id: s.id.to_string(),
            name: s.name.to_string(),
            compatible: r.success(),
            improved: r.repair.improved,
            speedup: r.speedup(),
            paper_improved: s.paper.improved,
        }
    })
}

// ---------------------------------------------------------------- Table 4

/// One Table 4 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table4Row {
    /// Paper id.
    pub id: String,
    /// Generated tests (corpus).
    pub tests: usize,
    /// Inputs executed during fuzzing.
    pub executed: usize,
    /// Simulated fuzzing minutes.
    pub time_min: f64,
    /// Branch coverage of the generated suite.
    pub coverage: f64,
    /// Pre-existing test count, if any.
    pub existing_tests: Option<usize>,
    /// Branch coverage of the pre-existing tests, if any.
    pub existing_coverage: Option<f64>,
}

/// Regenerates Table 4: fuzzing statistics per subject, plus the coverage
/// of the subjects' pre-existing tests measured by replay.
pub fn table4(threads: usize) -> Vec<Table4Row> {
    let cfg = config(threads);
    let subjects = benchsuite::subjects();
    parallel::parallel_map(threads, &subjects, |_, s| {
        let (p, fr, _) = fuzz_subject(s, &cfg.fuzz);
        let existing_coverage = if s.existing_tests.is_empty() {
            None
        } else {
            let mut cov = CoverageMap::new();
            for t in &s.existing_tests {
                if let Ok(mut vm) = Vm::new(compiled_for(&p), MachineConfig::cpu()) {
                    let _ = vm.run_kernel(s.kernel, t);
                    cov.merge(&vm.coverage());
                }
            }
            Some(minic_exec::coverage::coverage_ratio(&cov, &p))
        };
        Table4Row {
            id: s.id.to_string(),
            tests: fr.corpus.len(),
            executed: fr.executed,
            time_min: fr.sim_minutes,
            coverage: fr.coverage,
            existing_tests: (!s.existing_tests.is_empty()).then_some(s.existing_tests.len()),
            existing_coverage,
        }
    })
}

// ---------------------------------------------------------------- Table 5

/// One Table 5 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table5Row {
    /// Paper id.
    pub id: String,
    /// Original size in lines.
    pub origin_loc: usize,
    /// ΔLOC of the manual port.
    pub manual_delta_loc: Option<usize>,
    /// ΔLOC of HeteroRefactor's output (None = HR fails the subject).
    pub hr_delta_loc: Option<usize>,
    /// ΔLOC of HeteroGen's output.
    pub hg_delta_loc: usize,
    /// CPU latency of the original (ms).
    pub origin_ms: f64,
    /// FPGA latency of the manual port (ms).
    pub manual_ms: Option<f64>,
    /// FPGA latency of HeteroRefactor's output (ms).
    pub hr_ms: Option<f64>,
    /// FPGA latency of HeteroGen's output (ms).
    pub hg_ms: f64,
}

/// Regenerates Table 5: ΔLOC and runtime for Manual / HeteroRefactor /
/// HeteroGen per subject.
pub fn table5(threads: usize) -> Vec<Table5Row> {
    let cfg = config(threads);
    let subjects = benchsuite::subjects();
    parallel::parallel_map(threads, &subjects, |_, s| {
        let p = s.parse();
        let hg = run_subject(s, &cfg);
        let orig_src = minic::print_program(&p);

        let manual = s.parse_manual();
        let (manual_delta_loc, manual_ms) = match &manual {
            Some(m) => (
                Some(minic::diff::line_diff(&orig_src, &minic::print_program(m)).delta_loc()),
                Some(fpga_latency_ms(&p, m, s.kernel, &hg.tests)),
            ),
            None => (None, None),
        };

        let hr = heterorefactor::refactor(&p);
        let (hr_delta_loc, hr_ms) = if hr.success {
            (
                Some(
                    minic::diff::line_diff(&orig_src, &minic::print_program(&hr.program))
                        .delta_loc(),
                ),
                Some(fpga_latency_ms(&p, &hr.program, s.kernel, &hg.tests)),
            )
        } else {
            (None, None)
        };

        Table5Row {
            id: s.id.to_string(),
            origin_loc: hg.origin_loc,
            manual_delta_loc,
            hr_delta_loc,
            hg_delta_loc: hg.delta_loc,
            origin_ms: hg.repair.cpu_latency_ms,
            manual_ms,
            hr_ms,
            hg_ms: hg.repair.fpga_latency_ms,
        }
    })
}

// ---------------------------------------------------------------- Figure 8

/// The §6.2 / Figure 8 case study result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig8Result {
    /// Subject id (P3 as in the paper).
    pub id: String,
    /// Tests generated by the fuzzer.
    pub generated_tests: usize,
    /// Pre-existing tests used by the baseline run.
    pub existing_tests: usize,
    /// Pass ratio of the existing-tests-only output on the generated suite
    /// (the paper reports 44% *failing* — i.e. 56% passing).
    pub existing_output_pass: f64,
    /// Pass ratio of the generated-tests output on the same suite.
    pub generated_output_pass: f64,
    /// Edits applied by the generated-tests run.
    pub applied: Vec<String>,
}

/// Regenerates the Figure 8 stack-size case study on P3: repairing with
/// pre-existing tests only yields a stack sized for shallow recursion that
/// silently corrupts deeper inputs; generated tests catch it.
pub fn fig8(threads: usize) -> Fig8Result {
    let s = benchsuite::subject("P3").expect("P3 exists");
    let p = s.parse();
    let cfg = config(threads);

    let session = heterogen_core::HeteroGen::builder().config(cfg).build();
    let existing_run = session
        .run(heterogen_core::JobSpec::with_tests(
            p.clone(),
            s.kernel,
            s.existing_tests.clone(),
        ))
        .expect("existing-tests run");

    let generated_run = session
        .run(heterogen_core::JobSpec::fuzz(
            p.clone(),
            s.kernel,
            seeds(&s),
        ))
        .expect("generated run");

    let d = DifferentialTester::new(&p, s.kernel, &generated_run.tests, 64)
        .expect("reference executes");
    Fig8Result {
        id: s.id.to_string(),
        generated_tests: generated_run.tests.len(),
        existing_tests: s.existing_tests.len(),
        existing_output_pass: d.evaluate(&existing_run.program).pass_ratio,
        generated_output_pass: d.evaluate(&generated_run.program).pass_ratio,
        applied: generated_run.repair.applied.clone(),
    }
}

// ---------------------------------------------------------------- Figure 9

/// One Figure 9 row (per subject).
#[derive(Debug, Clone, Serialize)]
pub struct Fig9Row {
    /// Paper id.
    pub id: String,
    /// HeteroGen's simulated minutes to first success.
    pub hg_min: Option<f64>,
    /// WithoutDependence's simulated minutes to first success (None =
    /// failed within the 12-hour budget, like the paper's P9).
    pub wd_min: Option<f64>,
    /// HeteroGen's fraction of attempts that reached full HLS compilation
    /// (the black bars; WithoutChecker is 1.0 by construction).
    pub hg_invocation_ratio: f64,
    /// Full compiles HeteroGen performed.
    pub hg_compiles: u64,
    /// Compilations the style checker avoided.
    pub hg_style_rejects: u64,
    /// Full compiles the WithoutChecker ablation performed.
    pub wc_compiles: u64,
    /// WithoutChecker's simulated minutes to first success.
    pub wc_min: Option<f64>,
}

/// Regenerates Figure 9: repair time with/without dependence-guided
/// exploration, and HLS-invocation counts with/without the style checker.
pub fn fig9(threads: usize, subject_filter: Option<&str>) -> Vec<Fig9Row> {
    let cfg = config(threads);
    let subjects = benchsuite::subjects();
    let picked: Vec<_> = subjects
        .iter()
        .filter(|s| subject_filter.map(|f| s.id == f).unwrap_or(true))
        .collect();
    parallel::parallel_map(threads, &picked, |_, s| {
        let (p, fr, broken) = fuzz_subject(s, &cfg.fuzz);

        let run = |sc: SearchConfig| {
            repair::repair(&p, broken.clone(), s.kernel, &fr.corpus, &fr.profile, &sc)
                .unwrap_or_else(|e| panic!("{}: {e}", s.id))
        };
        let hg = run(cfg.search.clone());
        let wd = run(cfg
            .search
            .clone()
            .to_builder()
            .with_dependence(false)
            .with_budget_min(720.0)
            .with_explore_performance(false)
            .build());
        let wc = run(cfg
            .search
            .clone()
            .to_builder()
            .with_style_checker(false)
            .build());
        Fig9Row {
            id: s.id.to_string(),
            hg_min: hg.stats.first_success_min,
            wd_min: wd.stats.first_success_min,
            hg_invocation_ratio: hg.stats.hls_invocation_ratio(),
            hg_compiles: hg.stats.full_compiles,
            hg_style_rejects: hg.stats.style_rejects,
            wc_compiles: wc.stats.full_compiles,
            wc_min: wc.stats.first_success_min,
        }
    })
}

// -------------------------------------------------- extra ablations (DESIGN §6)

/// Result of the seed-source ablation: kernel-entry seeds (the paper's
/// `getKernelSeed` insight, §4) vs purely random seeds.
#[derive(Debug, Clone, Serialize)]
pub struct SeedAblationRow {
    /// Paper id.
    pub id: String,
    /// Inputs executed to reach saturation with captured/provided seeds.
    pub seeded_execs: usize,
    /// Coverage with captured/provided seeds.
    pub seeded_coverage: f64,
    /// Inputs executed with random seeds only.
    pub random_execs: usize,
    /// Coverage with random seeds only.
    pub random_coverage: f64,
}

/// Runs the seed-source ablation: same fuzz budget, with and without the
/// subject's valid seed inputs. Valid seeds should reach equal-or-better
/// coverage at equal-or-lower cost (the paper's "improved fuzzing
/// efficiency" claim for kernel-entry seeds).
pub fn ablation_seed(threads: usize) -> Vec<SeedAblationRow> {
    let cfg = config(threads).fuzz;
    let subjects = benchsuite::subjects();
    parallel::parallel_map(threads, &subjects, |_, s| {
        let p = s.parse();
        let seeded =
            testgen::fuzz(&p, s.kernel, seeds(s), &cfg).unwrap_or_else(|e| panic!("{}: {e}", s.id));
        let random =
            testgen::fuzz(&p, s.kernel, vec![], &cfg).unwrap_or_else(|e| panic!("{}: {e}", s.id));
        SeedAblationRow {
            id: s.id.to_string(),
            seeded_execs: seeded.executed,
            seeded_coverage: seeded.coverage,
            random_execs: random.executed,
            random_coverage: random.coverage,
        }
    })
}

/// Result of the bitwidth-finitization ablation.
#[derive(Debug, Clone, Serialize)]
pub struct BitwidthAblationRow {
    /// Paper id.
    pub id: String,
    /// Resource estimate (bit units) of the transpiled design *with*
    /// profile-guided finitization.
    pub finitized_resources: u64,
    /// Resource estimate without finitization (declared C widths kept).
    pub declared_resources: u64,
}

/// Runs the bitwidth ablation: transpile each subject with and without the
/// initial-version type estimation, and compare resource estimates (the
/// paper's §2 motivation: oversized variables waste on-chip resources).
pub fn ablation_bitwidth(threads: usize) -> Vec<BitwidthAblationRow> {
    let cfg = config(threads);
    let subjects = benchsuite::subjects();
    parallel::parallel_map(threads, &subjects, |_, s| {
        let with = run_subject(s, &cfg);
        let mut cfg_off = cfg.clone();
        cfg_off.bitwidth_finitization = false;
        let without = run_subject(s, &cfg_off);
        BitwidthAblationRow {
            id: s.id.to_string(),
            finitized_resources: hls_sim::resource_estimate(&with.program),
            declared_resources: hls_sim::resource_estimate(&without.program),
        }
    })
}

// ------------------------------------------- mined-pattern tier (held out)

/// One held-out subject scored twice: static precedence only, then with the
/// mined-pattern tier trained on the other half of the suite.
#[derive(Debug, Clone, Serialize)]
pub struct MinedRow {
    /// Paper id.
    pub id: String,
    /// Whether the static-precedence search converged.
    pub baseline_success: bool,
    /// Whether the mined-tier search converged.
    pub mined_success: bool,
    /// Attempts until the first fully passing candidate, static precedence.
    pub baseline_first_fix_attempts: Option<u64>,
    /// Attempts until the first fully passing candidate, mined tier on.
    pub mined_first_fix_attempts: Option<u64>,
    /// Full HLS compiles, static precedence.
    pub baseline_full_compiles: u64,
    /// Full HLS compiles, mined tier on.
    pub mined_full_compiles: u64,
}

/// The train/held-out mined-tier experiment: the `mined` section of
/// `reproduce all --json`, pinned with the rest of the bundle by the golden
/// test.
#[derive(Debug, Clone, Serialize)]
pub struct MinedHoldout {
    /// Subjects whose winning scripts were mined (the training split).
    pub train: Vec<String>,
    /// Subjects the patterns were evaluated on (never mined from).
    pub holdout: Vec<String>,
    /// Distinct patterns mined from the training scripts.
    pub patterns: usize,
    /// Highest support among the mined patterns.
    pub top_support: u64,
    /// Per-held-out-subject measurements.
    pub rows: Vec<MinedRow>,
    /// Sum of `baseline_first_fix_attempts` over rows where both runs fixed.
    pub baseline_attempts_total: u64,
    /// Sum of `mined_first_fix_attempts` over the same rows.
    pub mined_attempts_total: u64,
    /// Sum of `baseline_full_compiles` over all rows.
    pub baseline_compiles_total: u64,
    /// Sum of `mined_full_compiles` over all rows.
    pub mined_compiles_total: u64,
}

/// The held-out mined-tier experiment: the suite's first half trains the
/// pattern miner (each subject's winning [`repair::EditScript`] is
/// collected), the second half is repaired twice — static precedence only,
/// then with the mined tier promoted ahead of it — and the attempts until
/// the first full fix plus the full-compile counts are compared. The
/// held-out subjects never contribute scripts, so any drop is transfer,
/// not memorization.
pub fn mined_holdout(threads: usize) -> MinedHoldout {
    let cfg = config(threads);
    let subjects = benchsuite::subjects();
    let mid = subjects.len() / 2;
    let (train, holdout) = subjects.split_at(mid);

    let scripts: Vec<repair::EditScript> = parallel::parallel_map(threads, train, |_, s| {
        let (p, fr, broken) = fuzz_subject(s, &cfg.fuzz);
        let out = repair::repair(&p, broken, s.kernel, &fr.corpus, &fr.profile, &cfg.search)
            .unwrap_or_else(|e| panic!("{}: {e}", s.id));
        out.success.then_some(out.script)
    })
    .into_iter()
    .flatten()
    .collect();
    let patterns = repair::mine::mine_patterns(&scripts);
    let top_support = patterns.first().map(|p| p.support).unwrap_or(0);

    let mined_cfg = cfg
        .search
        .clone()
        .to_builder()
        .with_mined_patterns(patterns.clone())
        .build();
    let rows: Vec<MinedRow> = parallel::parallel_map(threads, holdout, |_, s| {
        let (p, fr, broken) = fuzz_subject(s, &cfg.fuzz);
        let base = repair::repair(
            &p,
            broken.clone(),
            s.kernel,
            &fr.corpus,
            &fr.profile,
            &cfg.search,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", s.id));
        let mined = repair::repair(&p, broken, s.kernel, &fr.corpus, &fr.profile, &mined_cfg)
            .unwrap_or_else(|e| panic!("{}: {e}", s.id));
        MinedRow {
            id: s.id.to_string(),
            baseline_success: base.success,
            mined_success: mined.success,
            baseline_first_fix_attempts: base.stats.first_success_attempts,
            mined_first_fix_attempts: mined.stats.first_success_attempts,
            baseline_full_compiles: base.stats.full_compiles,
            mined_full_compiles: mined.stats.full_compiles,
        }
    });

    let fixed_by_both = rows
        .iter()
        .filter_map(|r| Some((r.baseline_first_fix_attempts?, r.mined_first_fix_attempts?)));
    let (baseline_attempts_total, mined_attempts_total) =
        fixed_by_both.fold((0, 0), |(b, m), (rb, rm)| (b + rb, m + rm));
    MinedHoldout {
        train: train.iter().map(|s| s.id.to_string()).collect(),
        holdout: holdout.iter().map(|s| s.id.to_string()).collect(),
        patterns: patterns.len(),
        top_support,
        baseline_attempts_total,
        mined_attempts_total,
        baseline_compiles_total: rows.iter().map(|r| r.baseline_full_compiles).sum(),
        mined_compiles_total: rows.iter().map(|r| r.mined_full_compiles).sum(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_matches_paper_proportions() {
        let (rows, accuracy) = fig3(1000, 2022);
        assert!(accuracy > 0.9, "classifier accuracy {accuracy}");
        for r in &rows {
            assert!(
                (r.share - r.paper_share).abs() < 0.05,
                "{}: {} vs {}",
                r.category,
                r.share,
                r.paper_share
            );
        }
    }

    #[test]
    fn table1_has_six_rows() {
        assert_eq!(table1().len(), 6);
    }

    #[test]
    fn table2_covers_six_categories() {
        let t = table2();
        assert_eq!(t.len(), 6);
        assert!(t.iter().all(|(_, edits)| !edits.is_empty()));
    }
}
