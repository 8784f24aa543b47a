//! Property-based tests over the core data structures and the two heavy
//! program transforms.

use common::{assert_engines_agree, assert_engines_agree_with_fuel};
use minic::ast::{BinOp, Expr};
use minic::types::Type;
use minic_exec::{compiled_for, ArgValue, MachineConfig, Vm};
use proptest::prelude::*;

mod common;

// ------------------------------------------------------------ expressions

/// A generator for well-formed expressions over `int` variables a, b, c.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-1000i128..1000).prop_map(Expr::int),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(Expr::ident),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (
            prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Mul),
                Just(BinOp::BitAnd),
                Just(BinOp::BitOr),
                Just(BinOp::BitXor),
                Just(BinOp::Lt),
                Just(BinOp::Eq),
            ],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, l, r)| Expr::bin(op, l, r))
    })
}

/// Renders a generated expression into a complete kernel.
fn expr_program(e: &Expr) -> String {
    format!(
        "int kernel(int a, int b, int c) {{ int r = {}; return r; }}",
        minic::printer::print_expr(e)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Printing and reparsing an expression is a fixpoint.
    #[test]
    fn printer_parser_round_trip(e in arb_expr()) {
        let src = expr_program(&e);
        let p1 = minic::parse(&src).expect("generated source parses");
        let printed = minic::print_program(&p1);
        let p2 = minic::parse(&printed).expect("printed source reparses");
        prop_assert_eq!(printed, minic::print_program(&p2));
    }

    /// The interpreter is deterministic.
    #[test]
    fn interpreter_is_deterministic(
        e in arb_expr(),
        a in -100i128..100,
        b in -100i128..100,
        c in -100i128..100,
    ) {
        let src = expr_program(&e);
        let p = minic::parse(&src).unwrap();
        let args = vec![ArgValue::Int(a), ArgValue::Int(b), ArgValue::Int(c)];
        let mut m1 = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
        let r1 = m1.run_kernel("kernel", &args);
        let mut m2 = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
        let r2 = m2.run_kernel("kernel", &args);
        prop_assert!(r1.behaviour_eq(&r2));
    }

    /// Print-equal programs have equal structural fingerprints: separate
    /// parses of the same source (fresh `NodeId`s and spans) and a
    /// print/reparse round-trip all land on the same 64-bit key.
    #[test]
    fn fingerprint_agrees_with_print_equality(e in arb_expr()) {
        let src = expr_program(&e);
        let p1 = minic::parse(&src).unwrap();
        let p2 = minic::parse(&src).unwrap();
        prop_assert_eq!(minic::fingerprint_program(&p1), minic::fingerprint_program(&p2));
        let p3 = minic::parse(&minic::print_program(&p1)).unwrap();
        prop_assert_eq!(minic::fingerprint_program(&p1), minic::fingerprint_program(&p3));
    }

    /// The fingerprint is at least as discriminating as the pretty-print
    /// dedup key it replaced: programs that print differently fingerprint
    /// differently (up to the negligible 2^-64 collision chance, which
    /// would surface here as a flake).
    #[test]
    fn fingerprint_separates_print_distinct_programs(e1 in arb_expr(), e2 in arb_expr()) {
        let p1 = minic::parse(&expr_program(&e1)).unwrap();
        let p2 = minic::parse(&expr_program(&e2)).unwrap();
        let print_eq = minic::print_program(&p1) == minic::print_program(&p2);
        let fp_eq = minic::fingerprint_program(&p1) == minic::fingerprint_program(&p2);
        prop_assert_eq!(print_eq, fp_eq);
    }

    /// Reparsing the printed program computes the same results.
    #[test]
    fn round_trip_preserves_semantics(
        e in arb_expr(),
        a in -50i128..50,
        b in -50i128..50,
    ) {
        let p1 = minic::parse(&expr_program(&e)).unwrap();
        let p2 = minic::parse(&minic::print_program(&p1)).unwrap();
        let args = vec![ArgValue::Int(a), ArgValue::Int(b), ArgValue::Int(0)];
        let mut m1 = Vm::new(compiled_for(&p1), MachineConfig::cpu()).unwrap();
        let mut m2 = Vm::new(compiled_for(&p2), MachineConfig::cpu()).unwrap();
        prop_assert!(m1.run_kernel("kernel", &args).behaviour_eq(&m2.run_kernel("kernel", &args)));
    }
}

// ---------------------------------------------------------- engine parity

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bytecode VM agrees with the tree-walking reference on generated
    /// expression kernels, with full fuel and with a small random budget
    /// (as do the generated kernels below), so fuel also runs out mid-run.
    #[test]
    fn engines_agree_on_generated_expressions(
        e in arb_expr(),
        a in -100i128..100,
        b in -100i128..100,
        c in -100i128..100,
        fuel in 0u64..40,
    ) {
        let p = minic::parse(&expr_program(&e)).unwrap();
        let args = [ArgValue::Int(a), ArgValue::Int(b), ArgValue::Int(c)];
        assert_engines_agree(&p, "kernel", &args);
        assert_engines_agree_with_fuel(&p, "kernel", &args, fuel);
    }

    /// …and on generated loop/branch/division kernels, where traps
    /// (division by zero), coverage edges and fuel accounting diverge
    /// first if the engines drift.
    #[test]
    fn engines_agree_on_generated_control_flow(
        e1 in arb_expr(),
        e2 in arb_expr(),
        n in 0i128..24,
        a in -100i128..100,
        b in -100i128..100,
        c in -8i128..8,
        fuel in 0u64..400,
    ) {
        let src = format!(
            "int kernel(int a, int b, int c) {{\n    int s = 0;\n    for (int i = 0; i < {n}; i++) {{\n        if (({}) < s) {{ s += ({}) / (c - i); }} else {{ s -= i; }}\n    }}\n    return s;\n}}",
            minic::printer::print_expr(&e1),
            minic::printer::print_expr(&e2),
        );
        let p = minic::parse(&src).unwrap();
        let args = [ArgValue::Int(a), ArgValue::Int(b), ArgValue::Int(c)];
        assert_engines_agree(&p, "kernel", &args);
        assert_engines_agree_with_fuel(&p, "kernel", &args, fuel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// …and on generated kernels that jump: a top-level label and a
    /// `goto` back to it, forward past the loop, or to no label at all,
    /// from inside a loop or not, with a declaration the jump may cross.
    #[test]
    fn engines_agree_on_generated_gotos(
        src in arb_goto_kernel(),
        a in -100i128..100,
        b in -100i128..100,
        c in -8i128..8,
        fuel in 0u64..400,
    ) {
        let p = minic::parse(&src).unwrap();
        let args = [ArgValue::Int(a), ArgValue::Int(b), ArgValue::Int(c)];
        assert_engines_agree(&p, "kernel", &args);
        assert_engines_agree_with_fuel(&p, "kernel", &args, fuel);
    }
}

/// A kernel with a top-level label `top:` before a loop and `out:` after
/// it. The `goto` targets `top` (bounded by a trip counter), `out`, or an
/// unknown label; it sits in the loop body or right after the loop; an
/// optional declaration above the loop stays in scope, while one below it
/// is skipped by a forward jump and read after `out:`.
fn arb_goto_kernel() -> impl Strategy<Value = String> {
    (
        arb_expr(),
        arb_expr(),
        prop_oneof![
            Just("if (k < 3) goto top;"),
            Just("goto out;"),
            Just("goto nowhere;")
        ],
        any::<bool>(),
        prop_oneof![Just(""), Just("int d = s + k;"), Just("int t = s * 2;")],
        0i128..6,
    )
        .prop_map(|(e1, e2, jump, in_loop, decl, m)| {
            let (above, below, read) = match decl {
                "" => ("", "", "0"),
                d if d.contains(" d ") => (d, "", "d"),
                d => ("", d, "t"),
            };
            let (inner, after) = if in_loop { (jump, "") } else { ("", jump) };
            format!(
                "int kernel(int a, int b, int c) {{\n    int s = 0;\n    int k = 0;\n  top:\n    k += 1;\n    {above}\n    for (int i = 0; i < {m}; i++) {{\n        if (({}) < s + i) {{ {inner} }}\n        s += ({}) / (c - i);\n    }}\n    if (s > b) {{ {after} }}\n    {below}\n  out:\n    s += {read};\n    return s;\n}}",
                minic::printer::print_expr(&e1),
                minic::printer::print_expr(&e2),
            )
        })
}

/// Fixed-corpus regression: both engines replay every paper subject's
/// seed and existing test inputs identically, on the original and the
/// manual HLS version.
#[test]
fn engines_agree_on_paper_subjects_fixed_corpus() {
    for s in benchsuite::subjects() {
        let p = s.parse();
        let manual = s.parse_manual();
        let mut corpus = s.seed_inputs.clone();
        corpus.extend(s.existing_tests.clone());
        for case in &corpus {
            assert_engines_agree(&p, s.kernel, case);
            if let Some(m) = &manual {
                assert_engines_agree(m, s.kernel, case);
            }
        }
    }
}

// ------------------------------------------------------------ value model

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Wrapping is idempotent and lands inside the type's range.
    #[test]
    fn wrap_int_is_idempotent_and_in_range(
        v in any::<i64>().prop_map(|x| x as i128),
        bits in 1u16..64,
        signed in any::<bool>(),
    ) {
        let w = minic_exec::value::wrap_int(v, bits, signed);
        prop_assert_eq!(w, minic_exec::value::wrap_int(w, bits, signed));
        if signed {
            let lo = -(1i128 << (bits - 1));
            let hi = (1i128 << (bits - 1)) - 1;
            prop_assert!((lo..=hi).contains(&w));
        } else {
            prop_assert!((0..(1i128 << bits)).contains(&w));
        }
    }

    /// Quantization is idempotent and bounded by the mantissa precision.
    #[test]
    fn quantize_float_is_idempotent_and_close(
        v in -1.0e12f64..1.0e12,
        mant in 4u16..52,
    ) {
        prop_assume!(v != 0.0);
        let q = minic_exec::value::quantize_float(v, 10, mant);
        let q2 = minic_exec::value::quantize_float(q, 10, mant);
        prop_assert_eq!(q.to_bits(), q2.to_bits());
        if q.is_finite() && q != 0.0 {
            let rel = ((q - v) / v).abs();
            let ulp = 2f64.powi(-(mant as i32));
            prop_assert!(rel <= ulp, "rel {rel} > ulp {ulp}");
        }
    }

    /// `bits_for_range` produces a width that actually holds both bounds.
    #[test]
    fn bits_for_range_holds_its_range(
        lo in -100_000i128..100_000,
        hi in -100_000i128..100_000,
    ) {
        prop_assume!(lo <= hi);
        let signed = lo < 0;
        let bits = minic::types::bits_for_range(lo, hi, signed);
        prop_assert_eq!(minic_exec::value::wrap_int(lo, bits, signed), lo);
        prop_assert_eq!(minic_exec::value::wrap_int(hi, bits, signed), hi);
    }

    /// Line diff invariants: identity is empty; swap mirrors; counts bound.
    #[test]
    fn line_diff_invariants(
        a in proptest::collection::vec("[a-d]{1,3}", 0..12),
        b in proptest::collection::vec("[a-d]{1,3}", 0..12),
    ) {
        let ta = a.join("\n");
        let tb = b.join("\n");
        let same = minic::diff::line_diff(&ta, &ta);
        prop_assert_eq!(same.churn(), 0);
        let fwd = minic::diff::line_diff(&ta, &tb);
        let bwd = minic::diff::line_diff(&tb, &ta);
        prop_assert_eq!(fwd.added, bwd.removed);
        prop_assert_eq!(fwd.removed, bwd.added);
        prop_assert!(fwd.common <= a.len().min(b.len()));
    }
}

// ------------------------------------------------------------ transforms

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The recursion-to-stack transform preserves sorting behaviour on
    /// arbitrary inputs (when the stack is large enough).
    #[test]
    fn stack_trans_preserves_merge_sort(
        input in proptest::collection::vec(-1000i128..1000, 32),
        n in 1i128..=32,
    ) {
        let s = benchsuite::subject("P3").unwrap();
        let p = s.parse();
        let q = repair::xform_stack::stack_trans(&p, "msort", 256).expect("applicable");
        let args = vec![ArgValue::IntArray(input), ArgValue::Int(n)];
        let mut m1 = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
        let a = m1.run_kernel("kernel", &args);
        let mut m2 = Vm::new(compiled_for(&q), MachineConfig::cpu()).unwrap();
        let b = m2.run_kernel("kernel", &args);
        prop_assert!(!a.trapped && !b.trapped);
        prop_assert!(a.behaviour_eq(&b));
    }

    /// The pointer-removal transform preserves linked-list behaviour on
    /// arbitrary inputs (when the pool is large enough).
    #[test]
    fn pointer_to_index_preserves_linked_list(
        input in proptest::collection::vec(-1000i128..1000, 64),
        n in 1i128..=64,
    ) {
        let s = benchsuite::subject("P8").unwrap();
        let p = s.parse();
        let q = repair::xform_pointer::pointer_to_index(&p, "LNode", 256).expect("applicable");
        let args = vec![ArgValue::IntArray(input), ArgValue::Int(n)];
        let mut m1 = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
        let a = m1.run_kernel("kernel", &args);
        let mut m2 = Vm::new(compiled_for(&q), MachineConfig::cpu()).unwrap();
        let b = m2.run_kernel("kernel", &args);
        prop_assert!(!a.trapped && !b.trapped);
        prop_assert!(a.behaviour_eq(&b));
    }

    /// Type-valid mutation stays type-valid over long chains, for every
    /// subject's kernel signature.
    #[test]
    fn mutation_preserves_validity_for_all_subjects(
        seed in any::<u64>(),
        rounds in 1usize..40,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for s in benchsuite::subjects() {
            let p = s.parse();
            let specs = testgen::kernel_specs(&p, s.kernel).expect("fuzzable");
            let mut case: Vec<ArgValue> =
                specs.iter().map(|sp| testgen::random_value(sp, &mut rng)).collect();
            for _ in 0..rounds {
                case = testgen::mutate_case(&specs, &case, &mut rng);
                for (spec, v) in specs.iter().zip(&case) {
                    prop_assert!(spec.accepts(v), "{}: {spec:?} rejected {v:?}", s.id);
                }
            }
        }
    }

    /// Finitized bitwidths never change behaviour on inputs inside the
    /// profiled range.
    #[test]
    fn bitwidth_finitization_preserves_profiled_behaviour(
        xs in proptest::collection::vec(0i128..200, 1..16),
    ) {
        let p = minic::parse(
            "int kernel(int x) { int r = 0; r = x * 2; return r + 1; }",
        ).unwrap();
        // Profile over the exact input set…
        let mut profile = minic_exec::Profile::new();
        for &x in &xs {
            let mut m = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
            let _ = m.run_kernel("kernel", &[ArgValue::Int(x)]);
            profile.merge(&m.profile());
        }
        let narrowed = heterogen_core::initial_version(&p, &profile);
        // …then replay the same inputs: identical behaviour.
        for &x in &xs {
            let mut m1 = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
            let a = m1.run_kernel("kernel", &[ArgValue::Int(x)]);
            let mut m2 = Vm::new(compiled_for(&narrowed), MachineConfig::fpga()).unwrap();
            let b = m2.run_kernel("kernel", &[ArgValue::Int(x)]);
            prop_assert!(a.behaviour_eq(&b), "diverged on x={x}");
        }
    }
}

// ------------------------------------------------------------ checker

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every `array_partition` factor that divides the extent is clean;
    /// every factor that does not divide it is rejected.
    #[test]
    fn partition_divisibility_rule(extent in 2u64..64, factor in 2u32..16) {
        let src = format!(
            "void kernel(int x) {{\n    int a[{extent}];\n#pragma HLS array_partition variable=a factor={factor} dim=1\n    for (int i = 0; i < {extent}; i++) {{ a[i] = x; }}\n}}"
        );
        let p = minic::parse(&src).unwrap();
        let diags = hls_sim::check_program(&p);
        let has_partition_error = diags.iter().any(|d| d.message.contains("partition"));
        prop_assert_eq!(has_partition_error, extent % factor as u64 != 0);
    }

    /// The coerce-on-store rule: any value stored into `fpga_uint<N>`
    /// reads back inside `[0, 2^N)`.
    #[test]
    fn stores_respect_declared_widths(v in any::<i32>(), bits in 1u16..31) {
        let src = format!(
            "int kernel(int x) {{ fpga_uint<{bits}> r = x; return r; }}"
        );
        let p = minic::parse(&src).unwrap();
        let mut m = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
        let out = m.run_kernel("kernel", &[ArgValue::Int(v as i128)]);
        prop_assert!(!out.trapped);
        if let Some(minic_exec::ScalarOut::Int(r)) = out.ret {
            prop_assert!((0..(1i128 << bits)).contains(&r), "{r} outside {bits} bits");
        } else {
            prop_assert!(false, "int return expected");
        }
    }
}

// ------------------------------------------------------------ resilience

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The retry schedule is a pure function of the policy: deterministic,
    /// monotone non-decreasing (for backoff factors ≥ 1), bounded per-delay
    /// by `max_delay_min`, bounded cumulatively by `budget_min`, and never
    /// longer than `max_retries`.
    #[test]
    fn retry_schedule_is_deterministic_monotone_and_bounded(
        max_retries in 0u32..12,
        base_delay_min in 0.0f64..4.0,
        backoff_factor in 1.0f64..4.0,
        max_delay_min in 0.0f64..8.0,
        budget_min in 0.0f64..32.0,
    ) {
        let policy = heterogen_faults::RetryPolicy {
            max_retries,
            base_delay_min,
            backoff_factor,
            max_delay_min,
            budget_min,
        };
        let schedule = policy.schedule();
        // Deterministic: recomputing yields the same delays, bit for bit.
        let again = policy.schedule();
        prop_assert_eq!(schedule.len(), again.len());
        for (a, b) in schedule.iter().zip(&again) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        // Bounded in length and per delay.
        prop_assert!(schedule.len() <= max_retries as usize);
        for &d in &schedule {
            prop_assert!(d >= 0.0, "negative backoff {d}");
            prop_assert!(d <= max_delay_min, "{d} > max_delay_min {max_delay_min}");
        }
        // Monotone non-decreasing up to the per-delay cap.
        for w in schedule.windows(2) {
            prop_assert!(w[0] <= w[1], "schedule not monotone: {:?}", &schedule);
        }
        // Cumulative backoff stays within the budget.
        let total: f64 = schedule.iter().sum();
        prop_assert!(total <= budget_min, "total {total} > budget {budget_min}");
        // `delay_before` agrees with the schedule on every permitted retry
        // and rejects everything past it.
        for (i, &d) in schedule.iter().enumerate() {
            prop_assert_eq!(policy.delay_before(i as u32 + 1).map(f64::to_bits), Some(d.to_bits()));
        }
        prop_assert_eq!(policy.delay_before(0), None);
        prop_assert_eq!(policy.delay_before(schedule.len() as u32 + 1).is_none(), true);
    }

    /// Fault decisions are pure functions of `(seed, site, key, attempt)`:
    /// the same plan queried twice agrees everywhere, and a transient run,
    /// once it ends, stays ended (retrying past the run always succeeds).
    #[test]
    fn fault_plan_decisions_are_stable(
        seed in any::<u64>(),
        key in any::<u64>(),
        rate in 0.0f64..1.0,
        len in 1u32..4,
    ) {
        use heterogen_faults::{Fault, FaultInjector, FaultPlan, FaultSite};
        let plan = FaultPlan::builder(seed)
            .with_transient_rate(rate)
            .with_transient_len(len)
            .build();
        for site in [FaultSite::HlsCheck, FaultSite::HlsSim, FaultSite::Exec] {
            let mut cleared = false;
            for attempt in 0..(len + 2) {
                let a = plan.fault(site, key, attempt);
                prop_assert_eq!(a, plan.fault(site, key, attempt));
                match a {
                    Some(Fault::Transient) => {
                        prop_assert!(!cleared, "transient run restarted after success");
                        prop_assert!(attempt < len, "run exceeded transient_len");
                    }
                    None => cleared = true,
                    other => prop_assert!(false, "unexpected fault {other:?}"),
                }
            }
            prop_assert!(cleared, "transient run never ended within len+2 attempts");
        }
    }
}

// ------------------------------------------------------------- wire forms

use heterogen_store::codec::{self, Entry};
use heterogen_store::ScriptKey;
use repair::{EditKind, EditScript, FixPattern, PatternEdit, ScriptEdit};

/// A generator over every edit family.
fn arb_edit_kind() -> impl Strategy<Value = EditKind> {
    (0..EditKind::ALL.len()).prop_map(|i| EditKind::ALL[i])
}

/// Optional anchor identifiers, as the localizer produces them.
fn arb_opt_name() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), "[a-z_]{1,8}".prop_map(Some)]
}

fn arb_script_edit() -> impl Strategy<Value = ScriptEdit> {
    (
        arb_edit_kind(),
        arb_opt_name(),
        arb_opt_name(),
        prop_oneof![Just(None), (-4096i128..4096).prop_map(Some)],
        arb_opt_name(),
    )
        .prop_map(|(kind, site, symbol, value, label)| ScriptEdit {
            kind,
            site,
            symbol,
            value,
            label,
        })
}

fn arb_script() -> impl Strategy<Value = EditScript> {
    proptest::collection::vec(arb_script_edit(), 1..6).prop_map(|edits| EditScript { edits })
}

fn arb_pattern() -> impl Strategy<Value = FixPattern> {
    (
        proptest::collection::vec(
            (
                arb_edit_kind(),
                any::<bool>(),
                any::<bool>(),
                any::<bool>(),
                arb_opt_name(),
            )
                .prop_map(|(kind, has_site, has_symbol, has_value, label)| {
                    PatternEdit {
                        kind,
                        has_site,
                        has_symbol,
                        has_value,
                        label,
                    }
                }),
            1..5,
        ),
        1i128..64,
    )
        .prop_map(|(edits, support)| FixPattern {
            edits,
            support: support as u64,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `EditScript` wire round trip is exact — serialize → parse →
    /// serialize is a fixpoint and parsing recovers the original value —
    /// end to end through the store codec (encode to log text, decode the
    /// typed entry back).
    #[test]
    fn edit_script_wire_round_trips(script in arb_script(), fp in any::<u64>()) {
        use serde::Serialize as _;
        let v1 = script.to_json_value();
        let parsed = EditScript::from_value(&v1).expect("own wire form parses");
        prop_assert_eq!(&parsed, &script);
        prop_assert_eq!(parsed.to_json_value(), v1);

        let key = ScriptKey {
            program_fp: fp,
            kernel: "kernel".to_string(),
            backend: "datacenter".to_string(),
        };
        let line = codec::encode_script(&key, &script);
        match codec::decode_entry(&line) {
            Some(Entry::Script(k, s)) => {
                prop_assert_eq!(k, key);
                prop_assert_eq!(&s, &script);
                // …and re-encoding the decoded value reproduces the bytes.
                prop_assert_eq!(codec::encode_script(&ScriptKey {
                    program_fp: fp,
                    kernel: "kernel".to_string(),
                    backend: "datacenter".to_string(),
                }, &s), line);
            }
            other => prop_assert!(false, "decoded {other:?}"),
        }
    }

    /// Same for `FixPattern`, plus: the mined abstraction of a script keeps
    /// exactly the edit-kind sequence and the context *shape*.
    #[test]
    fn fix_pattern_wire_round_trips(pat in arb_pattern()) {
        use serde::Serialize as _;
        let v1 = pat.to_json_value();
        let parsed = FixPattern::from_value(&v1).expect("own wire form parses");
        prop_assert_eq!(&parsed, &pat);
        prop_assert_eq!(parsed.to_json_value(), v1);

        let line = codec::encode_pattern(&pat);
        match codec::decode_entry(&line) {
            Some(Entry::Pattern(p)) => {
                prop_assert_eq!(codec::encode_pattern(&p), line);
                prop_assert_eq!(p, pat);
            }
            other => prop_assert!(false, "decoded {other:?}"),
        }
    }

    /// The store rejects version-skewed script/pattern records wholesale:
    /// bumping the per-record `v` field makes `decode_entry` return `None`
    /// (the log layer then quarantines from that point), never a
    /// half-parsed entry.
    #[test]
    fn store_rejects_version_skewed_records(script in arb_script(), pat in arb_pattern()) {
        let key = ScriptKey {
            program_fp: 7,
            kernel: "kernel".to_string(),
            backend: "datacenter".to_string(),
        };
        let old = format!("\"v\":{}", codec::RECORD_VERSION);
        let new = format!("\"v\":{}", codec::RECORD_VERSION + 1);
        for line in [codec::encode_script(&key, &script), codec::encode_pattern(&pat)] {
            prop_assert!(line.contains(&old), "record carries its version: {line}");
            let skewed = line.replacen(&old, &new, 1);
            prop_assert!(codec::decode_entry(&line).is_some());
            prop_assert!(
                codec::decode_entry(&skewed).is_none(),
                "version-skewed record must be rejected: {skewed}"
            );
        }
    }

    /// Mining abstraction: every pattern mined from a script set is a
    /// contiguous kind-subsequence of at least one input script, with the
    /// label/shape of the matching edits preserved.
    #[test]
    fn mined_patterns_are_abstracted_subsequences(scripts in proptest::collection::vec(arb_script(), 1..4)) {
        let patterns = repair::mine::mine_patterns(&scripts);
        let abstracted: Vec<Vec<PatternEdit>> = scripts
            .iter()
            .map(|s| s.edits.iter().map(PatternEdit::from_edit).collect())
            .collect();
        for p in &patterns {
            prop_assert!(!p.edits.is_empty());
            prop_assert!(p.support >= 1);
            let matches = abstracted
                .iter()
                .filter(|a| a.windows(p.edits.len()).any(|w| w == p.edits.as_slice()))
                .count() as u64;
            prop_assert_eq!(
                matches, p.support,
                "support must equal the number of distinct scripts containing the shape"
            );
        }
    }
}

// A tiny non-proptest sanity check that the generated strategies build.
#[test]
fn arb_expr_strategy_builds() {
    let _ = arb_expr();
    let _ = Type::int();
}
