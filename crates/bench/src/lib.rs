//! Experiment runners regenerating every table and figure of the paper's
//! evaluation (§6). The `reproduce` binary prints them, and
//! `reproduce all --json` is pinned byte for byte by the golden test in
//! `tests/golden.rs`.
//!
//! Absolute numbers come from the simulated toolchain (see DESIGN.md); the
//! *shapes* — who wins, what fails, where the ablations bite — are the
//! reproduction targets, recorded in EXPERIMENTS.md.

use benchsuite::Subject;
use heterogen_core::{HeteroGen, JobSpec, PipelineConfig, PipelineReport};
use minic::Program;
use repair::DifferentialTester;
use serde::Serialize;
use testgen::{FuzzConfig, FuzzReport};

pub mod experiments;

pub use experiments::*;

/// The standard experiment configuration: paper-like budgets on the
/// simulated clock (3 h repair budget), quick real-time settings.
pub fn standard_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::quick();
    cfg.fuzz.idle_stop_min = 1.0;
    cfg.fuzz.max_execs = 800;
    cfg.search.budget_min = 180.0;
    cfg
}

/// A subject's fuzzing seeds: its kernel-entry inputs, then its
/// pre-existing tests.
pub fn seeds(s: &Subject) -> Vec<testgen::TestCase> {
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());
    seeds
}

/// Fuzzes a subject from its [`seeds`] and derives the broken initial
/// version the repair search starts from: `(original, fuzz report,
/// initial version)`.
pub fn fuzz_subject(s: &Subject, cfg: &FuzzConfig) -> (Program, FuzzReport, Program) {
    let p = s.parse();
    let fr = testgen::fuzz(&p, s.kernel, seeds(s), cfg).unwrap_or_else(|e| panic!("{}: {e}", s.id));
    let broken = heterogen_core::initial_version(&p, &fr.profile);
    (p, fr, broken)
}

/// Runs the full HeteroGen pipeline on one subject.
pub fn run_subject(s: &Subject, cfg: &PipelineConfig) -> PipelineReport {
    HeteroGen::builder()
        .config(cfg.clone())
        .build()
        .run(JobSpec::fuzz(s.parse(), s.kernel, seeds(s)))
        .unwrap_or_else(|e| panic!("{}: pipeline failed: {e}", s.id))
}

/// Measures a program's mean FPGA latency over a test suite (for the
/// manual versions in Table 5).
pub fn fpga_latency_ms(
    original: &minic::Program,
    candidate: &minic::Program,
    kernel: &str,
    tests: &[testgen::TestCase],
) -> f64 {
    let d = DifferentialTester::new(original, kernel, tests, 24).expect("reference executes");
    d.evaluate(candidate).fpga_latency_ms
}

/// A plain-text table printer with padded columns.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:width$}  ", c, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Serializable experiment bundle for `reproduce --json`.
#[derive(Debug, Serialize, Default)]
pub struct ExperimentBundle {
    /// Figure 3 category tallies.
    pub fig3: Option<Vec<Fig3Row>>,
    /// Table 3 rows.
    pub table3: Option<Vec<Table3Row>>,
    /// Table 4 rows.
    pub table4: Option<Vec<Table4Row>>,
    /// Table 5 rows.
    pub table5: Option<Vec<Table5Row>>,
    /// Figure 8 result.
    pub fig8: Option<Fig8Result>,
    /// Figure 9 rows.
    pub fig9: Option<Vec<Fig9Row>>,
    /// The mined-pattern tier on the held-out half of the suite.
    pub mined: Option<MinedHoldout>,
}
