//! FPGA latency and resource model.
//!
//! The model converts an executed kernel's dynamic statistics (abstract op
//! count and per-loop iteration counts from [`minic_exec::Vm`]) into
//! cycles, applying the standard HLS optimization effects:
//!
//! * **pipeline** — a loop body of weight `w` at initiation interval `II`
//!   retires one iteration every `II` cycles instead of every `w`;
//! * **unroll** — factor `f` processes `f` iterations at once, limited by
//!   the memory ports of the arrays it touches (their `array_partition`
//!   factors, 2 ports by default — dual-port BRAM);
//! * **dataflow** — top-level tasks overlap, shrinking the serial sum
//!   toward the slowest task.
//!
//! Unoptimized designs come out *slower* than CPU (250 MHz vs a ~GHz core),
//! which reproduces the paper's P1 row where the FPGA version never wins.

use crate::check::{collect_loops, partition_factors};
use minic::ast::*;
use minic::visit;
use std::collections::BTreeMap;

/// FPGA scheduling/latency estimate for one kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaEstimate {
    /// Estimated execution cycles.
    pub cycles: f64,
    /// Latency in milliseconds at the design clock.
    pub latency_ms: f64,
    /// Effective op count after parallelization (diagnostic).
    pub effective_ops: f64,
}

/// Model constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleModel {
    /// Cycles per abstract (unoptimized) operation.
    pub cycles_per_op: f64,
    /// Memory ports per unpartitioned array (dual-port BRAM).
    pub default_ports: u32,
    /// Hard cap on combined per-loop speedup.
    pub max_speedup: f64,
    /// Pipeline fill cost per loop entry, in cycles.
    pub pipeline_fill: f64,
    /// Per-iteration loop-control ops (counter, compare, branch); a
    /// pipelined loop hides these along with the body.
    pub loop_control_ops: f64,
}

impl Default for ScheduleModel {
    fn default() -> Self {
        ScheduleModel {
            cycles_per_op: 1.0,
            default_ports: 2,
            max_speedup: 24.0,
            pipeline_fill: 6.0,
            loop_control_ops: 6.0,
        }
    }
}

/// Static weight (node count) of a block, excluding nested loop bodies
/// (those are accounted by the nested loop's own entry). Calls to loop-free
/// defined functions contribute their callee's body weight — HLS inlines
/// small helpers into the pipelined caller loop.
fn body_weight(p: &Program, b: &Block) -> f64 {
    let mut w = 0f64;
    for s in &b.stmts {
        w += stmt_weight(p, s);
    }
    w.max(1.0)
}

/// Body weight of a loop-free callee, for bounded inlining (depth 2:
/// helpers like `push_front` calling `S_malloc` still inline). Returns
/// `None` when the callee is unknown, has loops, or exceeds the depth.
fn inlinable_weight(p: &Program, name: &str, depth: u8) -> Option<f64> {
    let f = p.function(name)?;
    let body = f.body.as_ref()?;
    let mut has_loop = false;
    let mut nested_calls: Vec<String> = Vec::new();
    for s in &body.stmts {
        visit::walk_stmt(s, &mut |s| {
            if matches!(
                s.kind,
                StmtKind::While(..) | StmtKind::DoWhile(..) | StmtKind::For(..)
            ) {
                has_loop = true;
            }
        });
        visit::walk_stmt_exprs(s, &mut |e| {
            if let ExprKind::Call(n, _) = &e.kind {
                if p.function(n).is_some() {
                    nested_calls.push(n.clone());
                }
            }
        });
    }
    if has_loop {
        return None;
    }
    let mut w = body_weight_flat(p, body);
    for n in nested_calls {
        if depth == 0 || n == name {
            return None;
        }
        w += inlinable_weight(p, &n, depth - 1)?;
    }
    Some(w)
}

/// Body weight without call inlining (used inside [`inlinable_weight`] to
/// avoid double counting the nested calls it adds explicitly).
fn body_weight_flat(_p: &Program, b: &Block) -> f64 {
    let mut w = 0f64;
    for s in &b.stmts {
        visit::walk_stmt(s, &mut |_| w += 1.0);
        visit::walk_stmt_exprs(s, &mut |_| w += 1.0);
    }
    w.max(1.0)
}

fn stmt_weight(p: &Program, s: &Stmt) -> f64 {
    match &s.kind {
        StmtKind::While(c, _) | StmtKind::DoWhile(_, c) => 1.0 + expr_weight(p, c),
        StmtKind::For(init, cond, step, _) => {
            1.0 + init.as_ref().map(|s| stmt_weight(p, s)).unwrap_or(0.0)
                + cond.as_ref().map(|e| expr_weight(p, e)).unwrap_or(0.0)
                + step.as_ref().map(|e| expr_weight(p, e)).unwrap_or(0.0)
        }
        StmtKind::If(c, t, e) => {
            1.0 + expr_weight(p, c)
                + body_weight(p, t)
                + e.as_ref().map(|b| body_weight(p, b)).unwrap_or(0.0)
        }
        StmtKind::Decl(d) => 1.0 + d.init.as_ref().map(|e| expr_weight(p, e)).unwrap_or(0.0),
        StmtKind::Expr(e) | StmtKind::Return(Some(e)) => 1.0 + expr_weight(p, e),
        StmtKind::Block(b) => body_weight(p, b),
        _ => 1.0,
    }
}

fn expr_weight(p: &Program, e: &Expr) -> f64 {
    let mut n = 0f64;
    visit::walk_expr(e, &mut |x| {
        n += 1.0;
        if let ExprKind::Call(callee, _) = &x.kind {
            if let Some(w) = inlinable_weight(p, callee, 2) {
                n += w;
            }
        }
    });
    n
}

/// Static body weight of one loop (by statement id) within a function —
/// the benefit estimate performance exploration uses to rank candidate
/// pragma insertions (heavier × hotter loops first).
pub fn loop_weight(p: &Program, f: &Function, id: NodeId) -> Option<f64> {
    find_loop_body(f, id).map(|b| body_weight(p, b))
}

/// Computes the effective per-iteration speedup of a loop from its pragmas.
fn loop_speedup(
    model: &ScheduleModel,
    body_w: f64,
    pragmas: &[PragmaKind],
    arrays: &[String],
    partitions: &BTreeMap<String, u32>,
) -> f64 {
    let mut s = 1.0f64;
    for pk in pragmas {
        match pk {
            PragmaKind::Pipeline { ii } => {
                let ii = ii.unwrap_or(1).max(1) as f64;
                s *= (body_w / ii).clamp(1.0, 10.0);
            }
            PragmaKind::Unroll { factor } => {
                let f = factor.unwrap_or(64).max(1);
                let port_limit = if arrays.is_empty() {
                    u32::MAX
                } else {
                    arrays
                        .iter()
                        .map(|a| *partitions.get(a).unwrap_or(&model.default_ports))
                        .min()
                        .unwrap_or(model.default_ports)
                };
                s *= f.min(port_limit) as f64;
            }
            _ => {}
        }
    }
    s.clamp(1.0, model.max_speedup)
}

/// Estimates FPGA latency for a kernel run.
///
/// `total_ops` and `loop_iters` come from a [`minic_exec::Vm`] that
/// executed the kernel in FPGA mode; `clock_mhz` from the design config.
pub fn estimate_latency(
    model: &ScheduleModel,
    program: &Program,
    total_ops: u64,
    loop_iters: &BTreeMap<NodeId, u64>,
    clock_mhz: f64,
) -> FpgaEstimate {
    let mut effective = total_ops as f64;
    let mut fill = 0.0;
    // Functions and struct methods alike host schedulable loops.
    let mut units: Vec<&Function> = program.functions().collect();
    for item in &program.items {
        if let Item::Struct(sd) = item {
            units.extend(sd.methods.iter().filter(|m| m.body.is_some()));
        }
    }
    for f in units {
        let parts = partition_factors(f);
        for l in collect_loops(program, f) {
            let iters = *loop_iters.get(&l.id).unwrap_or(&0);
            if iters == 0 {
                continue;
            }
            let w = match find_loop_body(f, l.id) {
                Some(b) => body_weight(program, b),
                None => continue,
            };
            let w = w + model.loop_control_ops;
            let s = loop_speedup(model, w, &l.pragmas, &l.arrays_accessed, &parts);
            if s > 1.0 {
                let loop_ops = iters as f64 * w;
                let capped = loop_ops.min(effective);
                effective -= capped * (1.0 - 1.0 / s);
                if l.pragmas
                    .iter()
                    .any(|p| matches!(p, PragmaKind::Pipeline { .. }))
                {
                    fill += model.pipeline_fill;
                }
            }
        }
    }
    // Dataflow overlap at the top function.
    if let Some(top) = program
        .top_function_name()
        .and_then(|n| program.function(n))
    {
        if let Some(body) = &top.body {
            let has_dataflow = body
                .stmts
                .iter()
                .any(|s| matches!(&s.kind, StmtKind::Pragma(p) if p.kind == PragmaKind::Dataflow));
            if has_dataflow {
                let tasks = body
                    .stmts
                    .iter()
                    .filter(|s| {
                        matches!(
                            &s.kind,
                            StmtKind::Expr(e) if matches!(
                                e.kind,
                                ExprKind::Call(..) | ExprKind::MethodCall(..)
                            )
                        )
                    })
                    .count();
                if tasks >= 2 {
                    let overlap = (1.0 + 0.6 * (tasks as f64 - 1.0)).min(3.0);
                    effective /= overlap;
                }
            }
        }
    }
    // Amdahl floor: control, interface and memory traffic bound the whole-
    // kernel speedup regardless of how parallel the loops are.
    effective = effective.max(total_ops as f64 * 0.05);
    let cycles = effective * model.cycles_per_op + fill;
    FpgaEstimate {
        cycles,
        latency_ms: cycles / (clock_mhz * 1e3),
        effective_ops: effective,
    }
}

fn find_loop_body(f: &Function, id: NodeId) -> Option<&Block> {
    fn in_block(b: &Block, id: NodeId) -> Option<&Block> {
        for s in &b.stmts {
            if s.id == id {
                match &s.kind {
                    StmtKind::While(_, body)
                    | StmtKind::DoWhile(body, _)
                    | StmtKind::For(_, _, _, body) => return Some(body),
                    _ => return None,
                }
            }
            let nested = match &s.kind {
                StmtKind::If(_, t, e) => {
                    in_block(t, id).or_else(|| e.as_ref().and_then(|e| in_block(e, id)))
                }
                StmtKind::While(_, body)
                | StmtKind::DoWhile(body, _)
                | StmtKind::For(_, _, _, body)
                | StmtKind::Block(body) => in_block(body, id),
                _ => None,
            };
            if nested.is_some() {
                return nested;
            }
        }
        None
    }
    f.body.as_ref().and_then(|b| in_block(b, id))
}

/// A crude LUT/FF resource estimate: the sum of declared integer bit widths
/// plus array storage bits. Used by the bitwidth-finitization ablation —
/// narrower profiled types should shrink this number.
pub fn resource_estimate(p: &Program) -> u64 {
    let mut bits: u64 = 0;
    let mut add_type = |t: &minic::types::Type| {
        let scalar_bits = t.int_bits().map(u64::from).unwrap_or(match t {
            minic::types::Type::Float => 32,
            minic::types::Type::Double | minic::types::Type::LongDouble => 64,
            minic::types::Type::FpgaFloat { exp, mant } => (exp + mant + 1) as u64,
            _ => 0,
        });
        bits += scalar_bits;
        if let minic::types::Type::Array(inner, size) = t {
            let n = size.as_const().unwrap_or(0).min(65536);
            let inner_bits = inner.int_bits().map(u64::from).unwrap_or(32);
            bits += n * inner_bits;
        }
    };
    let mut q = p.clone();
    minic::visit::visit_types_mut(&mut q, &mut |t| add_type(t));
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic_exec::{compiled_for, MachineConfig, Vm};

    fn run_and_estimate(src: &str, args: Vec<minic_exec::Value>) -> FpgaEstimate {
        let p = minic::parse(src).unwrap();
        let mut m = Vm::new(compiled_for(&p), MachineConfig::fpga()).unwrap();
        let top = p.top_function_name().unwrap().to_string();
        m.run_function(&top, args).unwrap();
        estimate_latency(
            &ScheduleModel::default(),
            &p,
            m.ops(),
            &m.loop_stats(),
            250.0,
        )
    }

    #[test]
    fn unoptimized_loop_has_no_speedup() {
        let e = run_and_estimate(
            "void kernel(int n) { int a[64]; for (int i = 0; i < 64; i++) { a[i] = n; } }",
            vec![minic_exec::Value::int(1)],
        );
        // effective ops equal raw ops (no pragmas)
        assert!(e.cycles > 100.0);
    }

    #[test]
    fn pipeline_reduces_cycles() {
        let base = run_and_estimate(
            "void kernel(int n) { int a[64]; for (int i = 0; i < 64; i++) { a[i] = n * 2 + 1; } }",
            vec![minic_exec::Value::int(1)],
        );
        let piped = run_and_estimate(
            "void kernel(int n) { int a[64]; for (int i = 0; i < 64; i++) {\n#pragma HLS pipeline\n a[i] = n * 2 + 1; } }",
            vec![minic_exec::Value::int(1)],
        );
        assert!(
            piped.cycles < base.cycles * 0.6,
            "pipeline {} vs base {}",
            piped.cycles,
            base.cycles
        );
    }

    #[test]
    fn unroll_limited_by_ports_without_partition() {
        let unrolled = run_and_estimate(
            "void kernel(int n) { int a[64]; for (int i = 0; i < 64; i++) {\n#pragma HLS unroll factor=16\n a[i] = n; } }",
            vec![minic_exec::Value::int(1)],
        );
        let partitioned = run_and_estimate(
            "void kernel(int n) { int a[64];\n#pragma HLS array_partition variable=a factor=16 dim=1\n for (int i = 0; i < 64; i++) {\n#pragma HLS unroll factor=16\n a[i] = n; } }",
            vec![minic_exec::Value::int(1)],
        );
        assert!(
            partitioned.cycles < unrolled.cycles,
            "partitioned {} vs unrolled-only {}",
            partitioned.cycles,
            unrolled.cycles
        );
    }

    #[test]
    fn dataflow_overlaps_tasks() {
        let serial = run_and_estimate(
            r#"
            void t1(int a[32]) { for (int i = 0; i < 32; i++) { a[i] = a[i] + 1; } }
            void t2(int b[32]) { for (int i = 0; i < 32; i++) { b[i] = b[i] * 2; } }
            void kernel(int x) { int a[32]; int b[32]; t1(a); t2(b); }
        "#,
            vec![minic_exec::Value::int(1)],
        );
        let overlapped = run_and_estimate(
            r#"
            void t1(int a[32]) { for (int i = 0; i < 32; i++) { a[i] = a[i] + 1; } }
            void t2(int b[32]) { for (int i = 0; i < 32; i++) { b[i] = b[i] * 2; } }
            void kernel(int x) {
            #pragma HLS dataflow
                int a[32]; int b[32]; t1(a); t2(b); }
        "#,
            vec![minic_exec::Value::int(1)],
        );
        assert!(overlapped.cycles < serial.cycles);
    }

    #[test]
    fn resource_estimate_shrinks_with_narrow_types() {
        let wide =
            minic::parse("void kernel(int a[64]) { int r = 0; r = a[0]; a[0] = r; }").unwrap();
        let narrow = minic::parse(
            "void kernel(fpga_uint<7> a[64]) { fpga_uint<7> r = 0; r = a[0]; a[0] = r; }",
        )
        .unwrap();
        assert!(resource_estimate(&narrow) < resource_estimate(&wide));
    }

    #[test]
    fn latency_uses_clock() {
        let p = minic::parse("void kernel(int a[4]) { a[0] = 1; }").unwrap();
        let model = ScheduleModel::default();
        let slow = estimate_latency(&model, &p, 1000, &BTreeMap::new(), 100.0);
        let fast = estimate_latency(&model, &p, 1000, &BTreeMap::new(), 400.0);
        assert!((slow.latency_ms / fast.latency_ms - 4.0).abs() < 1e-9);
    }
}
