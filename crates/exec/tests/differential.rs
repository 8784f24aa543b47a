//! Differential tests: the bytecode VM must be observably identical to the
//! tree-walking reference interpreter — same values, same `ExecError`
//! variants *and messages*, same fuel accounting, same coverage / profile /
//! loop / call statistics — under both the CPU and FPGA configurations.

use minic_exec::{ArgValue, ExecEngine, ExecError, Machine, MachineConfig, Prepared, Trap, Vm};
use std::sync::{Arc, Barrier};

/// Runs `kernel(args)` under both engines with `config` and asserts every
/// observable matches.
fn diff_with(src: &str, kernel: &str, args: &[ArgValue], config: MachineConfig) {
    let p = minic::parse(src).expect("parse");
    let compiled = minic_exec::compile(&p);
    let tm = Machine::new(&p, config);
    let bm = Vm::new(Arc::new(compiled), config);
    match (tm, bm) {
        (Err(e1), Err(e2)) => assert_eq!(e1, e2, "constructor error mismatch"),
        (Ok(mut m), Ok(mut v)) => {
            assert_eq!(m.ops(), v.ops(), "ops after globals");
            let o1 = m.run_kernel(kernel, args);
            let o2 = v.run_kernel(kernel, args);
            assert_eq!(o1, o2, "outcome mismatch for:\n{src}");
            assert_eq!(m.ops(), v.ops(), "ops mismatch for:\n{src}");
            assert_eq!(m.coverage, v.coverage(), "coverage mismatch for:\n{src}");
            assert_eq!(m.profile, v.profile(), "profile mismatch for:\n{src}");
            assert_eq!(m.loop_stats, v.loop_stats(), "loop stats for:\n{src}");
            assert_eq!(m.call_counts, v.call_counts(), "call counts for:\n{src}");
            assert_eq!(
                m.mem.peak_cells(),
                v.mem().peak_cells(),
                "peak heap cells for:\n{src}"
            );
        }
        (t, b) => panic!(
            "constructor outcome diverged: tree={:?} vm={:?}",
            t.err(),
            b.err()
        ),
    }
}

/// Both default configurations.
fn diff(src: &str, kernel: &str, args: &[ArgValue]) {
    diff_with(src, kernel, args, MachineConfig::cpu());
    diff_with(src, kernel, args, MachineConfig::fpga());
}

#[test]
fn arithmetic_and_calls() {
    let src = "
        int add(int a, int b) { return a + b; }
        int kernel(int x) { return add(x * 2, x % 3) - (x / 2) + (x << 1 | 1) ^ (x & 7); }
    ";
    for x in [-17, 0, 5, 1 << 20] {
        diff(src, "kernel", &[ArgValue::Int(x)]);
    }
}

#[test]
fn loops_branches_coverage() {
    let src = "
        int kernel(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) s += i; else s -= 1;
            }
            int j = n;
            while (j > 0) { s++; j--; }
            do { s += 3; } while (s < 0);
            return s;
        }
    ";
    for n in [0, 1, 7, 40] {
        diff(src, "kernel", &[ArgValue::Int(n)]);
    }
}

#[test]
fn arrays_bounds_and_profiles() {
    let src = "
        int kernel(int idx) {
            int a[8];
            for (int i = 0; i < 8; i++) a[i] = i * i;
            return a[idx];
        }
    ";
    // In-bounds, trap (cpu) vs wrap (fpga), negative index.
    for idx in [0, 7, 8, 100, -1] {
        diff(src, "kernel", &[ArgValue::Int(idx)]);
    }
}

#[test]
fn array_arguments_and_writeback() {
    let src = "
        void kernel(int in[8], int out[8], int n) {
            for (int i = 0; i < n; i++) out[i] = in[n - 1 - i];
        }
    ";
    diff(
        src,
        "kernel",
        &[
            ArgValue::IntArray(vec![1, 2, 3, 4, 5, 6, 7, 8]),
            ArgValue::IntArray(vec![0; 8]),
            ArgValue::Int(8),
        ],
    );
}

#[test]
fn pointers_malloc_memcpy() {
    let src = "
        int kernel(int n) {
            int *p = (int*)malloc(n * sizeof(int));
            memset(p, 0, n);
            for (int i = 0; i < n; i++) *(p + i) = i + 1;
            int *q = (int*)malloc(n * sizeof(int));
            memcpy(q, p, n);
            int s = 0;
            for (int i = 0; i < n; i++) s += q[i];
            free(p);
            free(q);
            return s;
        }
    ";
    for n in [1, 6, 33] {
        diff(src, "kernel", &[ArgValue::Int(n)]);
    }
}

/// `free` releases a whole block only when handed its base: a `malloc`
/// base, or a local's or a parameter's cell (both are blocks too), every
/// time it is called. Any other address is a no-op. The release shows in
/// the heap peak of the allocation that follows it.
#[test]
fn free_releases_exactly_allocation_bases() {
    // `pad` keeps the live count above what the double free releases, so
    // the count never saturates at zero.
    let src = "
        int kernel(int mode, int k) {
            int pad[40];
            int local = 3;
            int *p = (int*)malloc(16);
            int *z = (int*)malloc(0);
            int *none = 0;
            if (mode == 1) free(p);
            if (mode == 2) free(&local);
            if (mode == 3) free(&k);
            if (mode == 4) free(p + 1);
            if (mode == 5) free(none);
            if (mode == 6) { free(p); free(p); }
            if (mode == 7) free(z);
            int *big = (int*)malloc(64);
            big[0] = local + k;
            return big[0] + p[0] + z[0] + pad[0];
        }
    ";
    let peak = |mode: i128| {
        let o = parity(src, "kernel", &ints(&[mode, 4]));
        assert!(!o.trapped, "mode {mode}: {:?}", o.trap_reason);
        let p = minic::parse(src).expect("parse");
        let mut vm = Vm::new(Arc::new(minic_exec::compile(&p)), MachineConfig::cpu()).unwrap();
        vm.run_kernel("kernel", &ints(&[mode, 4]));
        vm.profile().peak_heap_cells
    };
    let kept = peak(0);
    let released = [(1, 16), (2, 1), (3, 1), (4, 0), (5, 0), (6, 32), (7, 1)];
    for (mode, cells) in released {
        assert_eq!(peak(mode), kept - cells, "free mode {mode}");
    }
}

#[test]
fn structs_members_initializers() {
    let src = "
        struct Point { int x; int y; };
        int kernel(int a) {
            struct Point p = { a, a * 2 };
            struct Point *q = &p;
            q->y += 5;
            p.x++;
            return p.x + q->y;
        }
    ";
    for a in [0, 3, -9] {
        diff(src, "kernel", &[ArgValue::Int(a)]);
    }
}

#[test]
fn globals_defines_and_init_lists() {
    let src = "
        #define SCALE 3
        int table[4] = { 1, 2, 3, 4 };
        int bias = 10;
        int kernel(int i) {
            return table[i] * SCALE + bias;
        }
    ";
    for i in [0, 3, 5] {
        diff(src, "kernel", &[ArgValue::Int(i)]);
    }
}

#[test]
fn recursion_depth_profile() {
    let src = "
        int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }
        int kernel(int n) { return fib(n); }
    ";
    for n in [0, 1, 10] {
        diff(src, "kernel", &[ArgValue::Int(n)]);
    }
}

#[test]
fn stack_overflow_parity() {
    let src = "
        int down(int n) { return down(n + 1); }
        int kernel(int n) { return down(n); }
    ";
    // A small depth cap: the walker recurses natively, so the default 8192
    // would exhaust the test thread's stack before the trap fires.
    for config in [MachineConfig::cpu(), MachineConfig::fpga()] {
        diff_with(
            src,
            "kernel",
            &[ArgValue::Int(0)],
            MachineConfig {
                max_depth: 64,
                ..config
            },
        );
    }
}

#[test]
fn fuel_exhaustion_parity() {
    let src = "
        int kernel(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += i * i;
            return s;
        }
    ";
    // Sweep fuel so the trap point lands on every kind of charge site.
    for fuel in 0..200 {
        let config = MachineConfig {
            fuel,
            ..MachineConfig::cpu()
        };
        diff_with(src, "kernel", &[ArgValue::Int(50)], config);
    }
}

#[test]
fn fuel_exhaustion_in_calls_and_builtins() {
    let src = "
        double helper(double x) { return sqrt(x) + pow(x, 2.0); }
        double kernel(int n) {
            double s = 0.0;
            for (int i = 0; i < n; i++) s += helper((double)i);
            return s;
        }
    ";
    for fuel in 0..260 {
        let config = MachineConfig {
            fuel,
            ..MachineConfig::cpu()
        };
        diff_with(src, "kernel", &[ArgValue::Int(8)], config);
    }
}

/// Fuel runs out at every charge site of a kernel whose control flow
/// jumps: `continue`, `break`, `&&`/`||`, `?:`, `do`/`while`, and a `goto`
/// to a top-level label. A charge paid on the wrong side of a jump target
/// moves the trap point and shows here.
#[test]
fn fuel_exhaustion_across_jump_targets() {
    let src = "
        int kernel(int n) {
            int s = 0;
            int k = 0;
          again:
            k += 1;
            for (int i = 0; i < n; i++) {
                if (i == 2) continue;
                if (i > 0 && s > 40 || i == 7) break;
                s += i % 2 == 0 ? i : -1;
            }
            int j = 0;
            do {
                j++;
                if (j == 3) continue;
                s += j;
            } while (j < n && s != 12);
            while (j > 0) {
                j -= 2;
                if (j == 1) break;
            }
            if (k < 2) goto again;
            return s + j;
        }
    ";
    let full = parity(src, "kernel", &ints(&[6]));
    assert!(!full.trapped, "{:?}", full.trap_reason);
    for fuel in 0..=full.ops + 1 {
        for base in [MachineConfig::cpu(), MachineConfig::fpga()] {
            parity_with(src, "kernel", &ints(&[6]), MachineConfig { fuel, ..base });
        }
    }
}

#[test]
fn division_by_zero_and_null_deref() {
    let div = "int kernel(int a, int b) { return a / b; }";
    diff(div, "kernel", &[ArgValue::Int(5), ArgValue::Int(0)]);
    diff(div, "kernel", &[ArgValue::Int(5), ArgValue::Int(2)]);
    let null = "int kernel(int x) { int *p = 0; return *p + x; }";
    diff(null, "kernel", &[ArgValue::Int(1)]);
}

/// The repair candidate that aborted `hgbench --workload repair-bound
/// --seed 93`: a `resize` edit grew P8's node pool to 2^24 nodes, and
/// allocating its 2^25 cells while setting up globals asked for a 4 GiB
/// buffer. Both engines must refuse it with the same trap instead. The
/// candidate is cut down to its pool, allocator and kernel (P8's list
/// walks never run: the pool is allocated before the kernel is called),
/// and its `typedef` is moved above the struct that uses it so it parses.
const SEED_93_CANDIDATE: &str = "
        #define LNODE_ARR_SIZE 16777216
        typedef int LNode_ptr;
        struct LNode {
            int val;
            LNode_ptr next;
        };
        LNode LNode_arr[LNODE_ARR_SIZE];
        int LNode_next = 1;
        LNode_ptr LNode_malloc() {
            if (LNode_next >= LNODE_ARR_SIZE) {
                LNode_next = 1;
            }
            LNode_ptr r = LNode_next;
            LNode_next += 1;
            return r;
        }
        LNode_ptr push_front(LNode_ptr head, int v) {
            LNode_ptr fresh = LNode_malloc();
            LNode_arr[fresh].val = v;
            LNode_arr[fresh].next = head;
            return fresh;
        }
        int kernel(int vals[64], int n) {
            LNode_ptr head = 0;
            for (fpga_uint<7> i = 0; i < n; i++) {
                head = push_front(head, vals[i]);
            }
            return LNode_arr[head].val;
        }
";

#[test]
fn oversized_allocations_trap_identically() {
    let vals = ArgValue::IntArray((-20..44).collect());
    diff(SEED_93_CANDIDATE, "kernel", &[vals, ArgValue::Int(60)]);
    let p = minic::parse(SEED_93_CANDIDATE).expect("parse");
    let oom = ExecError::trap(Trap::OutOfMemory);
    assert_eq!(
        Machine::new(&p, MachineConfig::fpga()).err(),
        Some(oom.clone())
    );

    // The same cap at run time, through `malloc` and a VLA.
    let malloc = "int kernel(int n) { int *p = malloc(n); p[0] = 1; return p[0]; }";
    let vla = "int kernel(int n) { int a[n]; a[0] = 1; return a[0]; }";
    for src in [malloc, vla] {
        for n in [16, 1 << 24, i128::MAX] {
            diff(src, "kernel", &[ArgValue::Int(n)]);
        }
        let p = minic::parse(src).expect("parse");
        let out = Machine::new(&p, MachineConfig::cpu())
            .expect("no globals")
            .run_kernel("kernel", &[ArgValue::Int(1 << 24)]);
        assert_eq!(out.trap_reason, Some(oom.to_string()), "{src}");
    }
}

#[test]
fn short_circuit_and_ternary() {
    let src = "
        int kernel(int a, int b) {
            int t = (a > 0 && b > 0) ? a : (a < 0 || b < 0) ? -1 : 0;
            return t + (!a ? 100 : 7);
        }
    ";
    for (a, b) in [(1, 2), (1, -2), (-1, 5), (0, 0)] {
        diff(src, "kernel", &[ArgValue::Int(a), ArgValue::Int(b)]);
    }
}

#[test]
fn floats_casts_math() {
    let src = "
        double kernel(double x, int n) {
            double s = fabs(x) + floor(x) + ceil(x);
            s += fmin(x, (double)n) + fmax(x, 2.5) + fmod(x, 3.0);
            s += sin(x) + cos(x) + exp(x / 10.0) + log(fabs(x) + 1.0) + atan2(x, 2.0);
            int t = (int)s;
            return s + (double)t + (float)x;
        }
    ";
    for x in [0.0, 1.5, -3.75, 1e6] {
        diff(src, "kernel", &[ArgValue::Float(x), ArgValue::Int(4)]);
    }
}

#[test]
fn streams_push_pop() {
    let src = "
        int kernel(hls::stream<int> &in, int n) {
            hls::stream<int> tmp;
            int s = 0;
            for (int i = 0; i < n; i++) {
                int v = in.read();
                tmp.write(v * 2);
            }
            while (!tmp.empty()) s += tmp.read();
            return s + tmp.size();
        }
    ";
    diff(
        src,
        "kernel",
        &[ArgValue::IntStream(vec![1, 2, 3, 4]), ArgValue::Int(4)],
    );
    // Underflow: reads more than the stream holds.
    diff(
        src,
        "kernel",
        &[ArgValue::IntStream(vec![1]), ArgValue::Int(3)],
    );
}

#[test]
fn compound_assign_and_incdec() {
    let src = "
        int kernel(int x) {
            int a = x;
            a += 3; a -= 1; a *= 2; a /= 3; a %= 17;
            a <<= 1; a >>= 1; a |= 8; a &= 12; a ^= 5;
            int b = a++ + ++a + a-- - --a;
            return a * 100 + b;
        }
    ";
    for x in [0, 9, -40] {
        diff(src, "kernel", &[ArgValue::Int(x)]);
    }
}

/// Unary integer arithmetic on an unwrapped intermediate at `i128::MIN`
/// (`a << 127` with `a = 1`) wraps in both engines. Debug builds check
/// arithmetic overflow, so an unchecked `-x`, `abs(x)` or `x + 1` there
/// would panic instead of wrapping.
#[test]
fn unary_integer_arithmetic_wraps_at_i128_min() {
    let srcs = [
        "int kernel(int a) { long r = -(a << 127); return 0; }",
        "int kernel(int a) { long r = -(a << 127); return r == 0; }",
        "int kernel(int a) { long r = abs(a << 127); return r == 0; }",
        "int kernel(int a) { fpga_int<128> r = a << 127; r--; --r; return r < 0; }",
    ];
    for src in srcs {
        for a in [1, 2, -1] {
            diff(src, "kernel", &[ArgValue::Int(a)]);
        }
    }
}

#[test]
fn break_continue_nested() {
    let src = "
        int kernel(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i == 5) continue;
                for (int j = 0; j < i; j++) {
                    if (j == 3) break;
                    s += j;
                }
                if (s > 50) break;
            }
            return s;
        }
    ";
    for n in [0, 4, 12] {
        diff(src, "kernel", &[ArgValue::Int(n)]);
    }
}

#[test]
fn setup_errors_match() {
    // Unknown function called from the kernel.
    diff(
        "int kernel(int x) { return missing(x); }",
        "kernel",
        &[ArgValue::Int(1)],
    );
    // Arity mismatch: fewer arguments than parameters.
    diff(
        "int two(int a, int b) { return a + b; }
         int kernel(int x) { return two(x); }",
        "kernel",
        &[ArgValue::Int(1)],
    );
    // Unknown variable.
    diff(
        "int kernel(int x) { return x + nosuch; }",
        "kernel",
        &[ArgValue::Int(1)],
    );
}

#[test]
fn kernel_argument_mismatches() {
    let src = "int kernel(int a[4]) { return a[0]; }";
    let p = minic::parse(src).expect("parse");
    let compiled = minic_exec::compile(&p);
    let mut m = Machine::new(&p, MachineConfig::cpu()).unwrap();
    let mut v = Vm::new(Arc::new(compiled), MachineConfig::cpu()).unwrap();
    // Wrong arity and wrong argument kind must produce identical outcomes.
    for args in [
        vec![],
        vec![ArgValue::Int(1), ArgValue::Int(2)],
        vec![ArgValue::Int(3)],
    ] {
        assert_eq!(m.run_kernel("kernel", &args), v.run_kernel("kernel", &args));
    }
    assert_eq!(m.run_kernel("nosuch", &[]), v.run_kernel("nosuch", &[]));
}

#[test]
fn global_initializer_trap_parity() {
    // Global init list with an unknown-size element type stays a parse-level
    // concern; here a global array sized by a define plus a trap-free init.
    let src = "
        #define N 3
        int g[N] = { 7, 8, 9 };
        int kernel(int i) { return g[i]; }
    ";
    diff(src, "kernel", &[ArgValue::Int(2)]);
}

#[test]
fn runner_parity_through_engine_api() {
    let src = "
        int kernel(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += i;
            return s;
        }
    ";
    let p = minic::parse(src).expect("parse");
    let fast = Prepared::new(ExecEngine::Bytecode, &p);
    let slow = Prepared::new(ExecEngine::TreeWalk, &p);
    let mut rf = fast.runner(MachineConfig::cpu()).unwrap();
    let mut rs = slow.runner(MachineConfig::cpu()).unwrap();
    assert_eq!(
        rf.run_kernel("kernel", &[ArgValue::Int(10)]),
        rs.run_kernel("kernel", &[ArgValue::Int(10)])
    );
    assert_eq!(rf.ops(), rs.ops());
    assert_eq!(rf.coverage(), rs.coverage());
    assert_eq!(rf.profile(), rs.profile());
    assert_eq!(rf.loop_stats(), rs.loop_stats());
    assert_eq!(rf.call_counts(), rs.call_counts());
}

#[test]
fn fingerprint_equal_programs_with_different_ids_do_not_share_sites() {
    let src = "
        int kernel(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 2 == 0) s += i; else s -= 1;
            }
            while (s > 40) s -= 7;
            return s;
        }
    ";
    let p1 = minic::parse(src).expect("parse");
    // A padding global consumes node ids; dropping it afterwards yields a
    // program that prints identically to `p1` (equal structural
    // fingerprint) but whose every NodeId is shifted — exactly what
    // print-identical candidates derived along different edit paths look
    // like after `renumber_synthesized`.
    let mut p2 = minic::parse(&format!("int __pad = 1;\n{src}")).expect("parse");
    p2.items.remove(0);
    assert_eq!(
        minic::fingerprint_program(&p1),
        minic::fingerprint_program(&p2),
        "setup: programs must be fingerprint-equal"
    );
    assert_ne!(
        minic::fingerprint_node_ids(&p1),
        minic::fingerprint_node_ids(&p2),
        "setup: programs must be labeled differently"
    );
    // Warm the process-wide compile cache with p1, then prepare p2: the
    // compiled form must not be shared across labelings, or p2's coverage
    // and loop statistics would be keyed to p1's NodeIds and diverge from
    // the tree-walker (breaking engine parity and every downstream
    // consumer of loop stats, e.g. FPGA latency estimation).
    for p in [&p1, &p2] {
        let fast = Prepared::new(ExecEngine::Bytecode, p);
        let slow = Prepared::new(ExecEngine::TreeWalk, p);
        let mut rf = fast.runner(MachineConfig::cpu()).unwrap();
        let mut rs = slow.runner(MachineConfig::cpu()).unwrap();
        assert_eq!(
            rf.run_kernel("kernel", &[ArgValue::Int(9)]),
            rs.run_kernel("kernel", &[ArgValue::Int(9)])
        );
        assert_eq!(rf.coverage(), rs.coverage(), "coverage keyed to wrong ids");
        assert_eq!(
            rf.loop_stats(),
            rs.loop_stats(),
            "loop stats keyed to wrong ids"
        );
    }
}

#[test]
fn run_function_value_parity() {
    let src = "int sq(int x) { return x * x; }";
    let p = minic::parse(src).expect("parse");
    let compiled = minic_exec::compile(&p);
    let mut m = Machine::new(&p, MachineConfig::cpu()).unwrap();
    let mut v = Vm::new(Arc::new(compiled), MachineConfig::cpu()).unwrap();
    let a = m
        .run_function("sq", vec![minic_exec::Value::int(9)])
        .unwrap();
    let b = v
        .run_function("sq", vec![minic_exec::Value::int(9)])
        .unwrap();
    assert_eq!(a, b);
    assert_eq!(m.ops(), v.ops());
}

// ----- VLAs, struct literals and struct methods ---------------------------

/// Engine parity for one configuration: every observable `diff_with`
/// checks, plus — when all arguments are scalars — `run_function`'s value
/// or `ExecError` (variant and message) on fresh machines. Returns the
/// walker's kernel outcome.
fn parity_with(
    src: &str,
    kernel: &str,
    args: &[ArgValue],
    config: MachineConfig,
) -> minic_exec::Outcome {
    let p = minic::parse(src).expect("parse");
    diff_with(src, kernel, args, config);
    let scalars: Option<Vec<minic_exec::Value>> = args
        .iter()
        .map(|a| match a {
            ArgValue::Int(v) => Some(minic_exec::Value::int(*v)),
            _ => None,
        })
        .collect();
    let compiled = Arc::new(minic_exec::compile(&p));
    let mut m = Machine::new(&p, config).expect("globals");
    if let Some(values) = scalars {
        let mut v = Vm::new(Arc::clone(&compiled), config).expect("globals");
        let r1 = m.run_function(kernel, values.clone());
        let r2 = v.run_function(kernel, values);
        assert_eq!(r1, r2, "run_function value/error mismatch for:\n{src}");
        assert_eq!(m.ops(), v.ops(), "run_function ops for:\n{src}");
        assert_eq!(m.mem.peak_cells(), v.mem().peak_cells());
        m = Machine::new(&p, config).expect("globals");
    }
    m.run_kernel(kernel, args)
}

/// [`parity_with`] under both the CPU and the FPGA configuration; returns
/// the walker's CPU outcome.
fn parity(src: &str, kernel: &str, args: &[ArgValue]) -> minic_exec::Outcome {
    parity_with(src, kernel, args, MachineConfig::fpga());
    parity_with(src, kernel, args, MachineConfig::cpu())
}

fn ints(xs: &[i128]) -> Vec<ArgValue> {
    xs.iter().map(|&x| ArgValue::Int(x)).collect()
}

fn trap_of(o: &minic_exec::Outcome) -> String {
    o.trap_reason.clone().unwrap_or_default()
}

#[test]
fn vla_extent_from_parameter_and_local() {
    let from_param = "
        int kernel(int n, int i) {
            int a[n];
            for (int j = 0; j < n; j++) a[j] = j * 3 + 1;
            return a[i];
        }
    ";
    // In bounds, one past the end, and the zero and negative extents the
    // walker clamps to one element.
    for (n, i) in [(4, 2), (4, 3), (4, 4), (0, 0), (0, 1), (-3, 0), (-3, 2)] {
        parity(from_param, "kernel", &ints(&[n, i]));
    }
    let from_local = "
        int kernel(int x) {
            int w = x + 2;
            int line[w];
            int s = 0;
            for (int j = 0; j < w; j++) { line[j] = j * x; }
            for (int j = 0; j < w; j++) { s += line[j]; }
            return s;
        }
    ";
    for x in [-5, -2, 0, 3, 9] {
        parity(from_local, "kernel", &ints(&[x]));
    }
}

#[test]
fn vla_out_of_bounds_traps_with_the_declared_length() {
    // The extent variable changes after the declaration: bounds checks
    // keep using the length fixed when the declaration ran.
    let src = "
        int kernel(int n, int i) {
            int a[n];
            n = n + 10;
            a[i] = 5;
            return a[i] + n;
        }
    ";
    let o = parity(src, "kernel", &ints(&[5, 7]));
    assert!(
        trap_of(&o).contains("out of bounds for length 5"),
        "expected the declared length in the trap, got {:?}",
        o.trap_reason
    );
    let o = parity(src, "kernel", &ints(&[0, 1]));
    assert!(trap_of(&o).contains("out of bounds for length 1"));
    parity(src, "kernel", &ints(&[5, -1]));
    parity(src, "kernel", &ints(&[5, 4]));
}

#[test]
fn vla_redeclared_in_a_loop_is_resized_each_iteration() {
    let src = "
        int kernel(int rounds, int probe) {
            int s = 0;
            for (int r = 1; r <= rounds; r++) {
                int buf[r];
                for (int k = 0; k < r; k++) buf[k] = k + r;
                s += buf[r - 1];
                if (probe > 0) s += buf[probe];
            }
            return s;
        }
    ";
    for (rounds, probe) in [(0, 0), (1, 0), (6, 0), (6, 3)] {
        parity(src, "kernel", &ints(&[rounds, probe]));
    }
    let o = parity(src, "kernel", &ints(&[6, 3]));
    assert!(trap_of(&o).contains("index 3 out of bounds for length 1"));
}

#[test]
fn vla_passed_to_a_callee() {
    let src = "
        void fill(int a[], int n) { for (int i = 0; i < n; i++) a[i] = i * i; }
        int sum(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }
        int kernel(int n) {
            int v[n];
            fill(v, n);
            return sum(v, n);
        }
    ";
    for n in [-1, 0, 1, 8] {
        parity(src, "kernel", &ints(&[n]));
    }
}

#[test]
fn vla_sizeof_and_address_of_use_the_declared_length() {
    // `&v` strides by the whole array, `n * sizeof(elem)` cells, where n
    // is the length fixed at declaration — also for aggregate elements.
    let src = "
        struct P { int a; int b; };
        int kernel(int n) {
            int v[n];
            struct P ps[n];
            int k = n;
            n = 100;
            int *end = (int*)(&v + 1);
            struct P *pend = (struct P*)(&ps + 1);
            ps[k - 1].b = sizeof(struct P);
            return (end - v) * 1000 + (pend - ps) * 10 + ps[k - 1].b + sizeof(int);
        }
    ";
    for n in [-2, 1, 3, 7] {
        parity(src, "kernel", &ints(&[n]));
    }
}

#[test]
fn vla_extent_resolution_and_errors() {
    // Extent from a global and from a `#define`-free name out of scope.
    let global = "
        int g = 3;
        int kernel(int i) { int a[g]; a[i] = 4; return a[i] + g; }
    ";
    for i in [0, 2, 3] {
        parity(global, "kernel", &ints(&[i]));
    }
    let missing = "int kernel(int x) { int s = x; int a[nosuch]; return s; }";
    let o = parity(missing, "kernel", &ints(&[1]));
    assert!(trap_of(&o).contains("VLA size `nosuch` not in scope"));
    // The extent's variable went out of scope with its block.
    let closed = "
        int kernel(int x) {
            if (x > 0) { int m = x; }
            int a[m];
            return 0;
        }
    ";
    let o = parity(closed, "kernel", &ints(&[2]));
    assert!(trap_of(&o).contains("VLA size `m` not in scope"));
    // Errors that name a VLA's type name the declared length.
    let member = "int kernel(int n) { int a[n]; return a.x; }";
    let o = parity(member, "kernel", &ints(&[4]));
    assert!(
        trap_of(&o).contains("member access on non-struct `int[4]`"),
        "{:?}",
        o.trap_reason
    );
    let method = "int kernel(int n) { int a[n]; return a.size(); }";
    let o = parity(method, "kernel", &ints(&[-7]));
    assert!(
        trap_of(&o).contains("method call on non-struct `int[1]`"),
        "{:?}",
        o.trap_reason
    );
}

#[test]
fn struct_literal_positional() {
    let src = "
        struct P { int x; char c; int y; };
        struct H { int *p; int v; };
        int kernel(int a) {
            struct P p = P{a, a * 100, 7};
            struct P q = P{a + 1};
            int z = P{1, 2, 3, a}.y;
            // The literal is allocated before its arguments run, so the
            // address `malloc` returns depends on that order.
            struct H h = H{(int*)malloc(2), a};
            int addr = (int)h.p;
            return p.x + p.c + p.y + q.x + q.y + z + addr * 1000;
        }
    ";
    for a in [-3, 0, 2, 5] {
        parity(src, "kernel", &ints(&[a]));
    }
}

#[test]
fn struct_literal_with_constructor() {
    // A member-init naming a constructor parameter takes the argument;
    // any other init expression is evaluated in the caller's scope.
    let src = "
        struct Q {
            int x;
            char y;
            int z;
            Q(int a, int b) : x(a), y(b), z(k * 2 + a) {}
        };
        int kernel(int v) {
            int k = v + 1;
            struct Q q = Q{v, v * 50};
            return q.x * 10000 + q.y * 100 + q.z;
        }
    ";
    for v in [-4, 0, 1, 3] {
        parity(src, "kernel", &ints(&[v]));
    }
    // With fewer arguments than parameters the unbound parameter's name is
    // looked up in the caller: here it is unknown.
    let short = "
        struct Q { int x; int y; Q(int a, int b) : x(a), y(b) {} };
        int kernel(int v) { struct Q q = Q{v}; return q.x + q.y; }
    ";
    let o = parity(short, "kernel", &ints(&[2]));
    assert!(trap_of(&o).contains("unknown variable `b`"));
    // ... and here the caller has a variable of that name.
    let shadow = "
        struct Q { int x; int y; Q(int a, int b) : x(a), y(b) {} };
        int kernel(int b) { struct Q q = Q{b * 3}; return q.x + q.y; }
    ";
    parity(shadow, "kernel", &ints(&[5]));
}

#[test]
fn methods_on_literal_and_named_receivers() {
    let src = "
        struct Acc {
            int total;
            int scale;
            void add(int x) { total = total + x * scale; }
            int get() { return total; }
            int run(int n) {
                for (int i = 0; i < n; i++) { add(i); }
                return get();
            }
        };
        int kernel(int n) {
            struct Acc a = {0, 2};
            a.add(n);
            a.add(3);
            int lit = Acc{1, 3}.run(n);
            return a.get() * 1000 + lit;
        }
    ";
    for n in [0, 1, 5, 20] {
        parity(src, "kernel", &ints(&[n]));
    }
}

#[test]
fn sibling_calls_prefer_receiver_methods_and_share_stats_by_name() {
    // Inside a method, `step()` is the sibling method; outside, the free
    // function of the same name. Call counts and depth profiles are keyed
    // by name in both engines, so the two share one entry.
    let src = "
        int step(int x) { return x + 1000; }
        struct S {
            int v;
            int step(int x) { v = v + x; return v; }
            int twice(int x) { step(x); return step(x) * 2; }
        };
        int kernel(int x) {
            struct S s = S{1};
            return s.twice(x) + step(x);
        }
    ";
    for x in [0, 4, -9] {
        parity(src, "kernel", &ints(&[x]));
    }
}

#[test]
fn name_resolution_inside_methods() {
    // Block scopes shadow fields, fields shadow globals, and a name that
    // is neither resolves to the global.
    let src = "
        int x = 7;
        int g = 11;
        struct S {
            int x;
            int y;
            int shadowed(int k) {
                int a = x;
                { int x = 100 + k; a = a + x; }
                return a + y + g;
            }
            int field_over_global() { x = x + 1; return x * 10 + g; }
        };
        int kernel(int k) {
            struct S s = S{k, 3};
            int r = s.shadowed(k) + s.field_over_global();
            return r * 100 + x;
        }
    ";
    for k in [-2, 0, 9] {
        parity(src, "kernel", &ints(&[k]));
    }
    // Fewer arguments than parameters: the unbound parameter resolves to
    // the receiver's field of that name; extra arguments are evaluated
    // and ignored.
    let arity = "
        struct S {
            int b;
            int f(int a, int b) { return a * 100 + b; }
        };
        int kernel(int k) {
            struct S s = S{k + 1};
            return s.f(k) * 10000 + s.f(k, 2, k * 3) + s.f(k, 3);
        }
    ";
    for k in [1, 6] {
        parity(arity, "kernel", &ints(&[k]));
    }
    // A VLA inside a method sized by a receiver field.
    let vla = "
        struct S {
            int n;
            int sum() { int t[n]; for (int i = 0; i < n; i++) t[i] = i; return t[n - 1] + n; }
        };
        int kernel(int k) { return S{k}.sum(); }
    ";
    for k in [-1, 1, 5] {
        parity(vla, "kernel", &ints(&[k]));
    }
}

/// A constructor body runs after the member initializers, as a method of
/// the new aggregate: it sees the parameters and the fields, calls sibling
/// methods, and may leave early. Both engines agree on every observable,
/// and the body's effects show in the result.
#[test]
fn constructor_body_runs_after_the_initializers() {
    let src = "
        struct S {
            int x;
            int y;
            S(int a, int b) : x(a) {
                x = x + 1;
                if (b > 0) { y = bump(b); return; }
                for (int i = 0; i < a; i++) { y += i; }
            }
            int bump(int v) { return v * 10 + x; }
        };
        int kernel(int a, int b) {
            S s = S{a, b};
            return s.x * 1000 + s.y;
        }
    ";
    for (a, b) in [(3, 0), (3, 2), (0, 0), (5, -1)] {
        let o = parity(src, "kernel", &ints(&[a, b]));
        let x = a + 1;
        let y = if b > 0 {
            b * 10 + x
        } else {
            (0..a.max(0)).sum()
        };
        assert_eq!(
            o.ret,
            Some(minic_exec::ScalarOut::Int(x * 1000 + y)),
            "a={a} b={b}"
        );
    }
    // A trap inside the body surfaces from the construction, and fuel runs
    // out at the same point in both engines.
    let trapping = "
        struct T { int v; T(int a) : v(a) { int z[2]; z[a] = 1; v = z[0]; } };
        int kernel(int a) { T t = T{a}; return t.v; }
    ";
    for a in [0, 1, 2, 7] {
        parity(trapping, "kernel", &ints(&[a]));
    }
    let p = minic::parse(src).expect("parse");
    let compiled = Arc::new(minic_exec::compile(&p));
    for fuel in 1..120 {
        let config = MachineConfig {
            fuel,
            ..MachineConfig::cpu()
        };
        let mut m = Machine::new(&p, config).expect("globals");
        let mut v = Vm::new(Arc::clone(&compiled), config).expect("globals");
        let args = ints(&[3, 0]);
        assert_eq!(
            m.run_kernel("kernel", &args),
            v.run_kernel("kernel", &args),
            "fuel {fuel}"
        );
    }
}

#[test]
fn stream_reference_fields_through_constructor_and_positional() {
    let with_ctor = "
        struct Stage {
            hls::stream<unsigned> &in;
            hls::stream<unsigned> &out;
            Stage(hls::stream<unsigned> &i, hls::stream<unsigned> &o) : in(i), out(o) {}
            unsigned weak(unsigned l, unsigned r) { if (l > r) { return l - r; } return r - l; }
            void run() {
                unsigned prev = 0u;
                while (!in.empty()) {
                    unsigned v = in.read();
                    out.write(weak(v, prev));
                    prev = v;
                }
            }
        };
        void kernel(hls::stream<unsigned> &pixels, hls::stream<unsigned> &scores) {
            hls::stream<unsigned> mid;
            Stage{pixels, mid}.run();
            Stage{mid, scores}.run();
        }
    ";
    let positional = with_ctor.replace(
        "Stage(hls::stream<unsigned> &i, hls::stream<unsigned> &o) : in(i), out(o) {}",
        "",
    );
    for src in [with_ctor, positional.as_str()] {
        for input in [
            vec![],
            vec![3, 9, 4, 4, 12],
            (0..40).map(|i| i * 7 % 23).collect(),
        ] {
            parity(
                src,
                "kernel",
                &[ArgValue::IntStream(input), ArgValue::IntStream(vec![])],
            );
        }
    }
}

#[test]
fn fuel_exhaustion_inside_methods() {
    let src = "
        struct Acc {
            int total;
            void add(int x) { total += x * x; }
            int run(int n) { for (int i = 0; i < n; i++) add(i); return total; }
        };
        int kernel(int n) {
            int k = n;
            int buf[k];
            buf[0] = Acc{1}.run(n);
            return buf[0];
        }
    ";
    // Sweep fuel so the trap lands on every charge site: the literal, the
    // VLA declaration, the method prologue and the field stores.
    for fuel in 0..220 {
        for base in [MachineConfig::cpu(), MachineConfig::fpga()] {
            parity_with(src, "kernel", &ints(&[6]), MachineConfig { fuel, ..base });
        }
    }
}

#[test]
fn recursive_method_overflows_the_stack() {
    let src = "
        struct R {
            int d;
            int down(int n) { d = d + 1; return down(n + 1); }
        };
        int kernel(int n) { return R{0}.down(n); }
    ";
    // A small depth cap: the walker recurses natively.
    for base in [MachineConfig::cpu(), MachineConfig::fpga()] {
        let config = MachineConfig {
            max_depth: 64,
            ..base
        };
        let o = parity_with(src, "kernel", &ints(&[0]), config);
        assert!(
            trap_of(&o).contains("stack overflow"),
            "{:?}",
            o.trap_reason
        );
    }
}

#[test]
fn method_call_errors_match() {
    let no_method = "
        struct S { int a; int f() { return a; } };
        int kernel(int x) { struct S s = S{x}; return s.g(); }
    ";
    let o = parity(no_method, "kernel", &ints(&[1]));
    assert!(trap_of(&o).contains("no method `g` on `S`"));
    let non_struct = "int kernel(int x) { return x.f(); }";
    let o = parity(non_struct, "kernel", &ints(&[1]));
    assert!(trap_of(&o).contains("method call on non-struct"));
}

// ----- goto ---------------------------------------------------------------

#[test]
fn goto_jumps_forward_and_backward() {
    let backward = "
        int kernel(int x) {
            int s = 0;
          again:
            s += x;
            if (s < 10) goto again;
            return s;
        }
    ";
    for x in [1, 3, 11] {
        let o = parity(backward, "kernel", &ints(&[x]));
        assert!(!o.trapped, "{:?}", o.trap_reason);
    }
    let forward = "
        int kernel(int x) {
            int s = 1;
            if (x > 0) goto done;
            s = 2;
            s += x;
          done:
            return s * 10;
        }
    ";
    for x in [-4, 0, 5] {
        parity(forward, "kernel", &ints(&[x]));
    }
    // The first top-level label of a name is the target; the second one is
    // only ever reached by falling through.
    let duplicate = "
        int kernel(int x) {
            int s = 0;
          step:
            s += 1;
            if (s > x) return s;
          step:
            s += 100;
            goto step;
        }
    ";
    for x in [0, 150, 400] {
        parity(duplicate, "kernel", &ints(&[x]));
    }
    // Fuel runs out on every charge site of the jump-built loop, the
    // label (never charged when jumped to) included.
    for fuel in 0..60 {
        for base in [MachineConfig::cpu(), MachineConfig::fpga()] {
            parity_with(
                backward,
                "kernel",
                &ints(&[2]),
                MachineConfig { fuel, ..base },
            );
        }
    }
}

#[test]
fn goto_leaves_nested_loops_mid_iteration() {
    let src = "
        int kernel(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                int j = 0;
                while (j < n) {
                    s += i * j + 1;
                    if (s > 20) goto out;
                    j++;
                }
            }
            s = -1;
          out:
            return s;
        }
    ";
    for n in [0, 2, 4, 9] {
        parity(src, "kernel", &ints(&[n]));
    }
    // Both loops are left mid-iteration: the iterations begun are counted
    // and neither condition is evaluated again.
    let p = minic::parse(src).expect("parse");
    let walker = Prepared::new(ExecEngine::TreeWalk, &p);
    let mut r = walker.runner(MachineConfig::cpu()).unwrap();
    let o = r.run_kernel("kernel", &ints(&[9]));
    assert_eq!(o.ret.map(|s| format!("{s:?}")), Some("Int(24)".to_string()));
    let mut stats: Vec<u64> = r.loop_stats().into_values().collect();
    stats.sort_unstable();
    assert_eq!(stats, vec![2, 14], "outer and inner iterations begun");
}

#[test]
fn goto_leaves_a_vla_scope() {
    let src = "
        int kernel(int n) {
            int s = 1;
          top:
            {
                int buf[n];
                for (int k = 0; k < n; k++) buf[k] = k + s;
                s += buf[n - 1];
                if (s < 50) goto top;
            }
            return s;
        }
    ";
    for n in [1, 3, 7] {
        parity(src, "kernel", &ints(&[n]));
    }
}

#[test]
fn goto_inside_an_if_in_a_called_function() {
    let src = "
        int clamp(int v, int hi) {
            if (v > hi) { goto big; }
            return v;
          big:
            return hi;
        }
        int kernel(int x) { return clamp(x, 5) * 100 + clamp(x * 2, 7) + clamp(x, 5); }
    ";
    for x in [-3, 2, 4, 9] {
        parity(src, "kernel", &ints(&[x]));
    }
}

#[test]
fn goto_to_an_unknown_label_fails_when_it_runs() {
    let src = "
        int kernel(int x) {
            int s = x;
            while (s < 100) { s += 7; if (s > 50) goto nowhere; }
            return s;
        }
    ";
    let o = parity(src, "kernel", &ints(&[3]));
    assert!(
        trap_of(&o).contains("goto to unknown label `nowhere`"),
        "{:?}",
        o.trap_reason
    );
    assert!(!parity(src, "kernel", &ints(&[200])).trapped);
    // A label inside a nested block is not a target.
    let nested = "
        int kernel(int x) {
            int s = 0;
            if (x > 0) {
              inner:
                s += 1;
            }
            if (s < 3 && x > 0) goto inner;
            return s;
        }
    ";
    let o = parity(nested, "kernel", &ints(&[1]));
    assert!(
        trap_of(&o).contains("goto to unknown label `inner`"),
        "{:?}",
        o.trap_reason
    );
    assert!(!parity(nested, "kernel", &ints(&[0])).trapped);
}

#[test]
fn goto_crossing_a_used_declaration_fails_in_both_engines() {
    // Forward past a declaration used after the label.
    let forward = "
        int kernel(int x) {
            if (x > 0) goto skip;
            int y = 5;
          skip:
            return x + y;
        }
    ";
    let o = parity(forward, "kernel", &ints(&[1]));
    assert!(
        trap_of(&o).contains("goto `skip` crosses the declaration of `y`"),
        "{:?}",
        o.trap_reason
    );
    assert!(!parity(forward, "kernel", &ints(&[-1])).trapped);
    // Skipping a declaration nobody reads later is fine.
    let unused = "
        int kernel(int x) {
            if (x > 0) goto done;
            int unused = 3;
          done:
            return x;
        }
    ";
    assert!(!parity(unused, "kernel", &ints(&[1])).trapped);
    // Backward above a declaration whose name is read before it: the
    // first pass reads the global, a second would read the local.
    let backward = "
        int y = 2;
        int kernel(int x) {
            int s = x;
          again:
            s += y;
            int y = s + 10;
            if (s < 30) goto again;
            return s;
        }
    ";
    let o = parity(backward, "kernel", &ints(&[1]));
    assert!(
        trap_of(&o).contains("goto `again` crosses the declaration of `y`"),
        "{:?}",
        o.trap_reason
    );
    assert!(!parity(backward, "kernel", &ints(&[40])).trapped);
    // Redeclared before any read: the jump is fine.
    let redeclared = "
        int kernel(int x) {
            int s = x;
          again:
            int y = s + 1;
            s += y;
            if (s < 30) goto again;
            return s;
        }
    ";
    assert!(!parity(redeclared, "kernel", &ints(&[1])).trapped);
}

#[test]
fn for_initializer_swallows_break_continue_and_goto() {
    // The parser only puts declarations and expressions in a `for`
    // initializer; a hand-built AST can put any statement there, and the
    // walker then drops every flow but `return` out of it.
    for (flow, x) in [
        ("break;", 1),
        ("continue;", 1),
        ("goto out;", 1),
        ("goto nowhere;", 1),
        ("return 77;", 1),
        ("break;", -1),
    ] {
        let src = format!(
            "
            int kernel(int x) {{
                int s = 0;
                for (s = 1; s < 40; s += 5) {{ x += s; }}
                {{ s = 3; if (x > 0) {{ while (s < 9) {{ s += 1; if (s == 6) {{ {flow} }} }} }} s += 100; }}
              out:
                return s * 1000 + x;
            }}
        "
        );
        let mut p = minic::parse(&src).expect("parse");
        let body = p
            .function_mut("kernel")
            .unwrap()
            .body
            .as_mut()
            .unwrap()
            .stmts_mut();
        let init = body.remove(2);
        let minic::StmtKind::For(slot, ..) = &mut body[1].kind else {
            panic!("second statement is the loop")
        };
        *slot = Some(Box::new(init));
        for config in [MachineConfig::cpu(), MachineConfig::fpga()] {
            let mut m = Machine::new(&p, config).unwrap();
            let mut v = Vm::new(Arc::new(minic_exec::compile(&p)), config).unwrap();
            let args = ints(&[x]);
            assert_eq!(
                m.run_kernel("kernel", &args),
                v.run_kernel("kernel", &args),
                "{flow}"
            );
            assert_eq!(m.ops(), v.ops(), "{flow}");
            assert_eq!(m.coverage, v.coverage(), "{flow}");
            assert_eq!(m.loop_stats, v.loop_stats(), "{flow}");
        }
    }
}

// ----- totality: degenerate programs fail alike ---------------------------

#[test]
fn builtins_called_with_too_few_arguments_fail_alike() {
    for (call, name) in [
        ("malloc()", "malloc"),
        ("sqrt()", "sqrt"),
        ("pow(x)", "pow"),
        ("abs()", "abs"),
        ("memcpy(p, p)", "memcpy"),
        ("memset(p)", "memset"),
    ] {
        let src = format!(
            "int kernel(int x) {{ int *p = (int*)malloc(4); int r = x + 1; r = r + (int)({call}); return r; }}"
        );
        let o = parity(&src, "kernel", &ints(&[3]));
        assert!(
            trap_of(&o).contains(&format!("arity mismatch calling `{name}`")),
            "{call}: {:?}",
            o.trap_reason
        );
    }
    let stream = "
        void kernel(hls::stream<int> &s, int x) { s.write(x); s.write(); }
    ";
    parity(
        stream,
        "kernel",
        &[ArgValue::IntStream(vec![1]), ArgValue::Int(2)],
    );
}

#[test]
fn calling_a_method_prototype_fails_alike() {
    let src = "
        struct S {
            int a;
            int f(int k);
            int g(int k) { return a + k; }
        };
        int kernel(int x) {
            struct S s = S{x};
            int r = s.g(x);
            return r + s.f(x);
        }
    ";
    let o = parity(src, "kernel", &ints(&[4]));
    assert!(
        trap_of(&o).contains("call of prototype `f`"),
        "{:?}",
        o.trap_reason
    );
    // The failed call leaves no frame behind: a later run on the same
    // machine sees the same depth limit and profile in both engines.
    let p = minic::parse(src).expect("parse");
    for config in [MachineConfig::cpu(), MachineConfig::fpga()] {
        let mut m = Machine::new(&p, config).unwrap();
        let mut v = Vm::new(Arc::new(minic_exec::compile(&p)), config).unwrap();
        for x in [1, 2] {
            assert_eq!(
                m.run_kernel("kernel", &ints(&[x])),
                v.run_kernel("kernel", &ints(&[x]))
            );
        }
        assert_eq!(m.profile, v.profile());
        assert_eq!(m.call_counts, v.call_counts());
    }
}

#[test]
fn runtime_extent_below_the_outermost_dimension_fails_alike() {
    for decl in ["int a[n][n];", "int a[2][n];", "int a[n][3][n];"] {
        let src = format!("int kernel(int n) {{ int s = n; {decl} return s; }}");
        let o = parity(&src, "kernel", &ints(&[3]));
        assert!(
            trap_of(&o).contains("VLA `a` has a runtime extent below its outermost dimension"),
            "{decl}: {:?}",
            o.trap_reason
        );
    }
}

#[test]
fn self_recursive_by_value_struct_has_no_size() {
    // Without the type depth bound, sizing this struct recurses until the
    // walker's stack runs out.
    let src = "
        struct Node { int v; struct Node next; };
        int kernel(int x) { int s = x + 1; struct Node n; return s; }
    ";
    let o = parity(src, "kernel", &ints(&[1]));
    assert!(
        trap_of(&o).contains("nested deeper than 64 levels"),
        "{:?}",
        o.trap_reason
    );
    // ... also when only `sizeof` asks, or a pointer to it is stepped.
    let sizeof = "
        struct Node { int v; struct Node next; };
        int kernel(int x) { return x + sizeof(struct Node); }
    ";
    parity(sizeof, "kernel", &ints(&[1]));
    let stride = "
        struct Node { int v; struct Node next; };
        int kernel(int x) { struct Node *p = (struct Node*)malloc(4); p = p + x; return 0; }
    ";
    parity(stride, "kernel", &ints(&[1]));
}

// ----- one compiled program, many threads ---------------------------------

/// Everything a kernel run on a fresh VM lets its caller observe, the
/// memory peak and the captured kernel arguments included.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: minic_exec::Outcome,
    ops: u64,
    coverage: minic_exec::CoverageMap,
    profile: minic_exec::Profile,
    loops: std::collections::BTreeMap<minic::ast::NodeId, u64>,
    calls: std::collections::BTreeMap<String, u64>,
    peak_cells: usize,
    captured: Vec<Vec<ArgValue>>,
}

fn observe(
    prog: &Arc<minic_exec::CompiledProgram>,
    kernel: &str,
    args: &[ArgValue],
    config: MachineConfig,
) -> Result<Observed, ExecError> {
    let mut v = Vm::new(Arc::clone(prog), config)?;
    v.capture_args_of(kernel);
    let outcome = v.run_kernel(kernel, args);
    Ok(Observed {
        outcome,
        ops: v.ops(),
        coverage: v.coverage(),
        profile: v.profile(),
        loops: v.loop_stats(),
        calls: v.call_counts(),
        peak_cells: v.mem().peak_cells(),
        captured: v.into_captured(),
    })
}

/// Runs of one compiled program on four threads at once observe exactly
/// what the same runs observe one after another: the VMs share the
/// program and nothing they write. Checked on every subject's original,
/// manual and standard-pipeline repaired program over the corpus that
/// pipeline fuzzed, under both configurations. The threads start together
/// and each runs the whole corpus from its own case on, so they overlap
/// even on a one-case corpus. The program's reference count is back where it
/// started once the VMs are gone.
#[test]
fn concurrent_runs_of_one_program_observe_what_sequential_runs_do() {
    const THREADS: usize = 4;
    let cfg = bench::standard_config();
    for s in benchsuite::subjects() {
        let report = bench::run_subject(&s, &cfg);
        let corpus = &report.tests;
        assert!(!corpus.is_empty(), "{}: empty corpus", s.id);
        let programs = [
            ("original", s.parse()),
            ("manual", s.parse_manual().expect("manual")),
            ("repaired", report.program),
        ];
        for (title, p) in &programs {
            let prog = Arc::new(minic_exec::compile(p));
            let start = Arc::strong_count(&prog);
            for config in [MachineConfig::cpu(), MachineConfig::fpga()] {
                let run = |i: usize| observe(&prog, s.kernel, &corpus[i], config);
                let sequential: Vec<_> = (0..corpus.len()).map(run).collect();
                let start_line = Barrier::new(THREADS);
                let concurrent: Vec<Vec<(usize, Result<Observed, ExecError>)>> =
                    std::thread::scope(|scope| {
                        let workers: Vec<_> = (0..THREADS)
                            .map(|t| {
                                let start_line = &start_line;
                                scope.spawn(move || {
                                    start_line.wait();
                                    (0..corpus.len())
                                        .map(|k| (t + k) % corpus.len())
                                        .map(|i| (i, run(i)))
                                        .collect()
                                })
                            })
                            .collect();
                        workers
                            .into_iter()
                            .map(|w| w.join().expect("worker"))
                            .collect()
                    });
                for (t, runs) in concurrent.iter().enumerate() {
                    for (i, observed) in runs {
                        assert_eq!(
                            &sequential[*i], observed,
                            "{} {title}, thread {t}, case {i}, config {config:?}",
                            s.id
                        );
                    }
                }
            }
            assert_eq!(Arc::strong_count(&prog), start, "{} {title}", s.id);
        }
    }
}

/// Fuel runs out at every charge site of a kernel that recurses, calls a
/// method and fails to bind a callee's pointer parameter (its pointee has
/// no size) after binding the parameter before it: every trap point around
/// argument binding meets the walker.
#[test]
fn fuel_exhaustion_around_argument_binding() {
    let src = "
        struct Node { int v; struct Node next; };
        struct Acc {
            int total;
            int add(int x, int y) { total += x * y; return total; }
        };
        int rec(int n, int acc) { if (n <= 0) return acc; return rec(n - 1, acc + n); }
        int bad(int a, struct Node *p) { return a; }
        int kernel(int n) {
            int s = rec(n, 0);
            s += Acc{1}.add(s, n);
            if (n > 3) s += bad(s, 0);
            return s;
        }
    ";
    let full = parity(src, "kernel", &ints(&[3]));
    assert!(!full.trapped, "{:?}", full.trap_reason);
    let failed = parity(src, "kernel", &ints(&[4]));
    assert!(
        trap_of(&failed).contains("nested deeper than 64 levels"),
        "{:?}",
        failed.trap_reason
    );
    for (n, o) in [(3, &full), (4, &failed)] {
        for fuel in 0..=o.ops + 1 {
            for base in [MachineConfig::cpu(), MachineConfig::fpga()] {
                parity_with(src, "kernel", &ints(&[n]), MachineConfig { fuel, ..base });
            }
        }
    }
}
