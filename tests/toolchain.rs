//! Cross-crate toolchain integration: checker ↔ repair ↔ simulator flows
//! that no single crate can test alone.

use minic_exec::{compiled_for, ArgValue, MachineConfig, Vm};

/// A full manual walk of the paper's pipeline stages on a small subject,
/// asserting the intermediate artifacts at each stage (Figure 1).
#[test]
fn figure1_stage_by_stage() {
    let src = r#"
        int kernel(int a[8], int n) {
            if (n > 8) { n = 8; }
            if (n < 1) { n = 1; }
            int buf[n];
            int ret = 0;
            for (int i = 0; i < n; i++) { buf[i] = a[i] * 2; }
            for (int i = 0; i < n; i++) {
                if (buf[i] > ret) { ret = buf[i]; }
            }
            return ret;
        }
    "#;
    let p = minic::parse(src).unwrap();

    // Stage 1: test generation.
    let cfg = testgen::FuzzConfig::builder()
        .with_idle_stop_min(0.5)
        .with_max_execs(600)
        .build();
    let fr = testgen::fuzz(&p, "kernel", vec![], &cfg).unwrap();
    assert!(fr.coverage > 0.8, "coverage {}", fr.coverage);
    assert!(!fr.corpus.is_empty());

    // Stage 2: initial HLS version with estimated types.
    let broken = heterogen_core::initial_version(&p, &fr.profile);

    // Stage 3: the HLS compiler reports the VLA.
    let diags = hls_sim::check_program(&broken);
    assert!(diags.iter().any(|d| d.message.contains("unknown size")));

    // Stage 4: localization proposes array_static with a profiled size.
    let edits = repair::candidate_edits(&broken, &diags, &fr.profile);
    assert!(edits
        .iter()
        .any(|e| matches!(e, repair::RepairEdit::ArrayStatic { var, .. } if var == "buf")));

    // Stage 5: full repair with differential testing.
    let out = repair::repair(
        &p,
        broken,
        "kernel",
        &fr.corpus,
        &fr.profile,
        &repair::SearchConfig::builder()
            .with_budget_min(200.0)
            .with_max_diff_tests(12)
            .with_explore_performance(false)
            .build(),
    )
    .unwrap();
    assert!(out.success, "applied: {:?}", out.applied);
    assert!(hls_sim::check_program(&out.program).is_empty());
}

/// Output of the repair loop stays re-parseable — the printed HLS-C is a
/// real artifact a developer could take away.
#[test]
fn transpiled_sources_reparse() {
    for id in ["P1", "P6", "P7"] {
        let s = benchsuite::subject(id).unwrap();
        let p = s.parse();
        let mut cfg = heterogen_core::PipelineConfig::quick();
        cfg.fuzz.idle_stop_min = 0.5;
        cfg.fuzz.max_execs = 300;
        let mut seeds = s.seed_inputs.clone();
        seeds.extend(s.existing_tests.clone());
        let r = heterogen_core::HeteroGen::builder()
            .config(cfg)
            .build()
            .run(heterogen_core::JobSpec::fuzz(p, s.kernel, seeds))
            .unwrap();
        let printed = minic::print_program(&r.program);
        let reparsed = minic::parse(&printed)
            .unwrap_or_else(|e| panic!("{id}: output does not reparse: {e}\n{printed}"));
        assert_eq!(printed, minic::print_program(&reparsed), "{id}");
    }
}

/// FPGA finitization semantics drive divergence detection: the same kernel,
/// same inputs, both interpreters — only the declared widths differ.
#[test]
fn differential_oracle_catches_width_truncation() {
    let orig = minic::parse("int kernel(int x) { int r = x + 100; return r; }").unwrap();
    let narrowed =
        minic::parse("int kernel(int x) { fpga_uint<6> r = x + 100; return r; }").unwrap();
    let tests: Vec<Vec<ArgValue>> = vec![
        vec![ArgValue::Int(-90)], // 10 fits in 6 bits → identical
        vec![ArgValue::Int(0)],   // 100 overflows 6 bits → diverges
    ];
    let tester = repair::DifferentialTester::new(&orig, "kernel", &tests, 8).unwrap();
    let r = tester.evaluate(&narrowed);
    assert!((r.pass_ratio - 0.5).abs() < 1e-9, "pass = {}", r.pass_ratio);
}

/// Streams thread through the whole stack: parser → checker → both
/// execution modes.
#[test]
fn stream_kernels_run_on_both_sides() {
    let src = r#"
        void kernel(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
            unsigned acc = 0u;
            while (!in.empty()) {
                acc = acc + in.read();
                out.write(acc);
            }
        }
    "#;
    let p = minic::parse(src).unwrap();
    assert!(hls_sim::check_program(&p).is_empty());
    let args = vec![
        ArgValue::IntStream(vec![1, 2, 3, 4]),
        ArgValue::IntStream(vec![]),
    ];
    let mut cpu = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
    let a = cpu.run_kernel("kernel", &args);
    let sim = hls_sim::FpgaSimulator::new(&p).unwrap();
    let b = sim.run(&args);
    assert!(a.behaviour_eq(&b.outcome));
    let prefix: Vec<i128> = b.outcome.streams[1]
        .iter()
        .map(|s| match s {
            minic_exec::ScalarOut::Int(v) => *v,
            _ => 0,
        })
        .collect();
    assert_eq!(prefix, vec![1, 3, 6, 10]);
}

/// The resource estimate shrinks under bitwidth finitization — the knock-on
/// effect the paper motivates type estimation with (§2).
#[test]
fn finitization_reduces_resource_estimate() {
    let p = minic::parse(
        "int kernel(int x) { int small = 0; small = x % 50; int other = small + 1; return other; }",
    )
    .unwrap();
    let mut profile = minic_exec::Profile::new();
    for x in [0i128, 10, 49, 120] {
        let mut m = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
        let _ = m.run_kernel("kernel", &[ArgValue::Int(x)]);
        profile.merge(&m.profile());
    }
    let narrowed = heterogen_core::initial_version(&p, &profile);
    assert!(
        hls_sim::resource_estimate(&narrowed) < hls_sim::resource_estimate(&p),
        "narrowing must reduce estimated resources"
    );
}

/// Compile-cost accounting is the quantity the ablations measure; the
/// style check must be at least an order of magnitude cheaper.
#[test]
fn cost_model_orders_style_before_compile() {
    let model = hls_sim::CompileCostModel::default();
    for s in benchsuite::subjects() {
        let p = s.parse();
        assert!(
            model.full_compile(&p) > 10.0 * model.style_check(&p),
            "{}: compile {} vs style {}",
            s.id,
            model.full_compile(&p),
            model.style_check(&p)
        );
    }
}
