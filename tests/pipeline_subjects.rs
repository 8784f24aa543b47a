//! End-to-end pipeline runs on all ten paper subjects (Table 3 shape).

use heterogen_core::{HeteroGen, JobSpec, PipelineConfig, PipelineReport};

fn test_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::quick();
    cfg.fuzz.idle_stop_min = 0.5;
    cfg.fuzz.max_execs = 400;
    cfg.search.budget_min = 180.0;
    cfg.search.max_diff_tests = 16;
    cfg
}

fn run(id: &str) -> PipelineReport {
    let s = benchsuite::subject(id).unwrap_or_else(|| panic!("missing subject {id}"));
    let p = s.parse();
    let mut seeds = s.seed_inputs.clone();
    seeds.extend(s.existing_tests.clone());
    HeteroGen::builder()
        .config(test_config())
        .build()
        .run(JobSpec::fuzz(p, s.kernel, seeds))
        .unwrap_or_else(|e| panic!("{id}: {e}"))
}

fn assert_transpiled(id: &str, r: &PipelineReport) {
    assert!(
        r.success(),
        "{id}: repair failed (pass={}, applied={:?})",
        r.repair.pass_ratio,
        r.repair.applied
    );
    assert!(
        hls_sim::check_program(&r.program).is_empty(),
        "{id}: final program not synthesizable"
    );
    assert_eq!(r.repair.pass_ratio, 1.0, "{id}: behaviour not preserved");
    // Repaired programs (P9's with its inserted constructor included) stay
    // inside the bytecode subset: reference runs never fall back.
    assert!(
        minic_exec::Prepared::new(minic_exec::ExecEngine::Bytecode, &r.program).uses_bytecode(),
        "{id}: final program fell back to the tree-walker"
    );
}

#[test]
fn p1_signal_transmission_compatible_but_not_faster() {
    let r = run("P1");
    assert_transpiled("P1", &r);
    assert!(
        !r.repair.improved,
        "P1 has no loops to parallelize — the paper's single ✗"
    );
    assert!(r.repair.applied.iter().any(|k| k == "type_trans"));
}

#[test]
fn p2_arithmetic_repairs_long_double_and_wins() {
    let r = run("P2");
    assert_transpiled("P2", &r);
    assert!(r.repair.improved, "speedup = {:.2}", r.speedup());
    assert!(r.repair.applied.iter().any(|k| k == "type_trans"));
}

#[test]
fn p3_merge_sort_converts_recursion() {
    let r = run("P3");
    assert_transpiled("P3", &r);
    assert!(r.repair.applied.iter().any(|k| k == "stack_trans"));
    assert!(!minic::edit::is_recursive(&r.program, "msort"));
    assert!(r.repair.improved);
}

#[test]
fn p4_image_processing_repairs_dataflow_and_vla() {
    let r = run("P4");
    assert_transpiled("P4", &r);
    assert!(r.repair.applied.iter().any(|k| k == "duplicate_array_arg"));
    assert!(r.repair.applied.iter().any(|k| k == "array_static"));
}

#[test]
fn p5_graph_traversal_applies_longest_chain() {
    let r = run("P5");
    assert_transpiled("P5", &r);
    for needed in ["pointer_to_index", "stack_trans", "type_trans"] {
        assert!(
            r.repair.applied.iter().any(|k| k == needed),
            "P5 missing {needed}: {:?}",
            r.repair.applied
        );
    }
    // Largest edit of the micro-benchmarks (paper: 438 lines).
    assert!(r.delta_loc >= 50, "ΔLOC = {}", r.delta_loc);
}

#[test]
fn p6_matmul_fixes_partition_factor() {
    let r = run("P6");
    assert_transpiled("P6", &r);
    assert!(r
        .repair
        .applied
        .iter()
        .any(|k| k == "pad_array" || k == "explore"));
}

#[test]
fn p7_bubble_sort_fixes_unroll_dataflow_interaction() {
    let r = run("P7");
    assert_transpiled("P7", &r);
    assert!(r.repair.improved);
}

#[test]
fn p8_linked_list_removes_all_pointers() {
    let r = run("P8");
    assert_transpiled("P8", &r);
    assert!(r.repair.applied.iter().any(|k| k == "pointer_to_index"));
    let src = minic::print_program(&r.program);
    assert!(!src.contains("malloc(sizeof"), "malloc must be gone");
}

#[test]
fn p9_face_detection_fixes_top_and_struct() {
    let r = run("P9");
    assert_transpiled("P9", &r);
    assert_eq!(r.program.config.top.as_deref(), Some("detect"));
    let a = &r.repair.applied;
    assert!(a.iter().any(|k| k == "set_top"));
    assert!(
        (a.iter().any(|k| k == "constructor") && a.iter().any(|k| k == "stream_static"))
            || (a.iter().any(|k| k == "flatten") && a.iter().any(|k| k == "inst_update")),
        "one Figure 7 branch must complete: {a:?}"
    );
}

#[test]
fn p10_digit_recognition_finitizes_vlas() {
    let r = run("P10");
    assert_transpiled("P10", &r);
    assert!(r.repair.applied.iter().any(|k| k == "array_static"));
}

#[test]
fn final_programs_preserve_behaviour_on_existing_tests() {
    // Beyond the generated suite: the subjects' own tests must agree too.
    for id in ["P3", "P6", "P10"] {
        let s = benchsuite::subject(id).unwrap();
        let p = s.parse();
        let r = run(id);
        let tester = repair::DifferentialTester::new(&p, s.kernel, &s.existing_tests, 16).unwrap();
        let report = tester.evaluate(&r.program);
        assert_eq!(
            report.pass_ratio, 1.0,
            "{id}: existing tests diverge on the transpiled program"
        );
    }
}

#[test]
fn delta_loc_is_measured_against_the_original() {
    let r = run("P2");
    // The paper's P2 row adds 9 lines; ours is the same order of magnitude.
    assert!(
        r.delta_loc >= 1 && r.delta_loc <= 30,
        "ΔLOC = {}",
        r.delta_loc
    );
    assert!(r.origin_loc >= 5);
}
