//! The evaluation subjects of the HeteroGen reproduction.
//!
//! Ten programs P1–P10 mirroring the paper's Table 3 benchmark suite: eight
//! micro-benchmarks (forum-derived drafts and HeteroRefactor subjects) plus
//! two larger Rosetta-style applications. Each subject carries its original
//! source in the minic dialect (with the same incompatibility classes as
//! the paper's subject), an expert-written manual HLS version (Table 5's
//! "Manual" column), any pre-existing tests (Table 4), fuzzing seeds, and
//! the paper's reference numbers for shape comparison.
//!
//! # Examples
//!
//! ```
//! let subjects = benchsuite::subjects();
//! assert_eq!(subjects.len(), 10);
//! let p3 = benchsuite::subject("P3").unwrap();
//! assert!(minic::parse(p3.source).is_ok());
//! ```

pub mod forum;
pub mod subjects;

use minic_exec::ArgValue;

/// Reference numbers from the paper (Tables 3–5) for shape comparison in
/// EXPERIMENTS.md. Absolute values are not reproduction targets; signs and
/// orderings are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRow {
    /// Original program size (paper Table 5 "Origin LOC").
    pub origin_loc: usize,
    /// Lines added by the manual port (Table 5 "ΔLOC Manual").
    pub manual_delta_loc: usize,
    /// Lines added by HeteroGen (Table 5 "ΔLOC HG").
    pub hg_delta_loc: usize,
    /// Original CPU runtime in ms (Table 5).
    pub origin_ms: f64,
    /// Manual FPGA runtime in ms (Table 5).
    pub manual_ms: f64,
    /// HeteroGen FPGA runtime in ms (Table 5).
    pub hg_ms: f64,
    /// Whether HeteroRefactor transpiles this subject (Table 5: P3, P8).
    pub hr_works: bool,
    /// Whether HeteroGen's version beat the CPU original (Table 3).
    pub improved: bool,
    /// Pre-existing test count (Table 4), if any.
    pub existing_test_count: Option<usize>,
    /// Pre-existing branch coverage (Table 4), if any.
    pub existing_coverage: Option<f64>,
    /// Tests HeteroGen generated (Table 4).
    pub hg_tests: usize,
    /// Test-generation time in minutes (Table 4).
    pub hg_time_min: f64,
    /// Branch coverage of the generated tests (Table 4).
    pub hg_coverage: f64,
}

/// One evaluation subject.
#[derive(Debug, Clone)]
pub struct Subject {
    /// Paper id, `"P1"`–`"P10"`.
    pub id: &'static str,
    /// Human-readable name (Table 3).
    pub name: &'static str,
    /// Kernel (top) function name.
    pub kernel: &'static str,
    /// Original source in the minic dialect.
    pub source: &'static str,
    /// Expert-written HLS version, when available.
    pub manual_source: Option<&'static str>,
    /// Pre-existing tests (empty when the paper reports N/A).
    pub existing_tests: Vec<Vec<ArgValue>>,
    /// Seed inputs for the fuzzer (stand-in for host-run capture).
    pub seed_inputs: Vec<Vec<ArgValue>>,
    /// Paper reference numbers.
    pub paper: PaperRow,
}

impl Subject {
    /// Parses the original source.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source does not parse — a bug in the suite,
    /// covered by tests.
    pub fn parse(&self) -> minic::Program {
        minic::parse(self.source)
            .unwrap_or_else(|e| panic!("{}: original source does not parse: {e}", self.id))
    }

    /// Parses the manual HLS version, when present.
    pub fn parse_manual(&self) -> Option<minic::Program> {
        self.manual_source.map(|s| {
            minic::parse(s)
                .unwrap_or_else(|e| panic!("{}: manual source does not parse: {e}", self.id))
        })
    }
}

/// All ten subjects in paper order.
pub fn subjects() -> Vec<Subject> {
    vec![
        subjects::p1::subject(),
        subjects::p2::subject(),
        subjects::p3::subject(),
        subjects::p4::subject(),
        subjects::p5::subject(),
        subjects::p6::subject(),
        subjects::p7::subject(),
        subjects::p8::subject(),
        subjects::p9::subject(),
        subjects::p10::subject(),
    ]
}

/// Looks up a subject by paper id (`"P1"`–`"P10"`).
pub fn subject(id: &str) -> Option<Subject> {
    subjects().into_iter().find(|s| s.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic_exec::{compiled_for, MachineConfig, Vm};

    #[test]
    fn all_subjects_parse() {
        for s in subjects() {
            let p = s.parse();
            assert!(p.function(s.kernel).is_some(), "{}: kernel missing", s.id);
        }
    }

    #[test]
    fn all_ten_subjects_and_manual_versions_parse_within_the_nesting_limit() {
        let all = subjects();
        assert_eq!(all.len(), 10);
        for s in all {
            let manual = s.manual_source.expect("every subject has a manual version");
            for src in [s.source, manual] {
                match minic::parse(src) {
                    Err(e) => panic!("{}: {e} ({:?})", s.id, e.kind()),
                    // Well under the AST depth bound, not just at it.
                    Ok(p) => assert!(
                        minic::ast_depth(&p) * 4 <= minic::MAX_AST_DEPTH,
                        "{}: AST depth {}",
                        s.id,
                        minic::ast_depth(&p)
                    ),
                }
            }
        }
    }

    #[test]
    fn all_manual_versions_parse_and_are_synthesizable() {
        for s in subjects() {
            if let Some(m) = s.parse_manual() {
                let diags = hls_sim::check_program(&m);
                assert!(
                    diags.is_empty(),
                    "{}: manual version not synthesizable: {diags:?}",
                    s.id
                );
            }
        }
    }

    #[test]
    fn all_originals_fail_synthesizability() {
        for s in subjects() {
            let p = s.parse();
            let diags = hls_sim::check_program(&p);
            assert!(
                !diags.is_empty(),
                "{}: original unexpectedly synthesizable",
                s.id
            );
        }
    }

    #[test]
    fn all_seed_inputs_execute_on_cpu() {
        for s in subjects() {
            let p = s.parse();
            for (k, seed) in s.seed_inputs.iter().enumerate() {
                let mut m = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
                let out = m.run_kernel(s.kernel, seed);
                assert!(
                    !out.trapped,
                    "{} seed {k} trapped: {:?}",
                    s.id, out.trap_reason
                );
            }
        }
    }

    #[test]
    fn all_existing_tests_execute_on_cpu() {
        for s in subjects() {
            let p = s.parse();
            for (k, t) in s.existing_tests.iter().enumerate() {
                let mut m = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
                let out = m.run_kernel(s.kernel, t);
                assert!(
                    !out.trapped,
                    "{} existing test {k} trapped: {:?}",
                    s.id, out.trap_reason
                );
            }
        }
    }

    #[test]
    fn manual_versions_preserve_behaviour_on_seeds() {
        for s in subjects() {
            let Some(manual) = s.parse_manual() else {
                continue;
            };
            let orig = s.parse();
            for seed in &s.seed_inputs {
                let mut m1 = Vm::new(compiled_for(&orig), MachineConfig::cpu()).unwrap();
                let a = m1.run_kernel(s.kernel, seed);
                let mut m2 = Vm::new(compiled_for(&manual), MachineConfig::fpga()).unwrap();
                let b = m2.run_kernel(s.kernel, seed);
                assert!(
                    a.behaviour_eq(&b),
                    "{}: manual diverges on seed\nCPU: {a:?}\nFPGA: {b:?}",
                    s.id
                );
            }
        }
    }

    #[test]
    fn error_categories_cover_all_six() {
        use hls_sim::ErrorCategory;
        let mut seen = std::collections::BTreeSet::new();
        for s in subjects() {
            for d in hls_sim::check_program(&s.parse()) {
                seen.insert(d.category);
            }
        }
        for c in ErrorCategory::ALL {
            assert!(seen.contains(&c), "no subject exercises {c}");
        }
    }

    #[test]
    fn subject_lookup() {
        assert_eq!(subject("P7").unwrap().name, "bubble sort");
        assert!(subject("P11").is_none());
    }

    #[test]
    fn table4_subjects_with_existing_tests_match_paper() {
        for s in subjects() {
            match s.paper.existing_test_count {
                Some(n) => assert_eq!(s.existing_tests.len(), n, "{}", s.id),
                None => assert!(s.existing_tests.is_empty(), "{}", s.id),
            }
        }
    }
}
