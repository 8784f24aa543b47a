//! The recursion-removal transform: self-recursive `void` functions become
//! an explicit frame stack driven by a stage machine (paper Figure 2c).
//!
//! The body is segmented at top-level recursive-call statements. Each frame
//! holds the parameters, the locals that live across segments, and a stage
//! counter; the driver loop executes one segment per iteration, pushing a
//! child frame at each former call site. The stack array is statically
//! sized — an undersized stack silently wraps on "hardware", which is
//! exactly the CPU/FPGA divergence the paper's §6.2 example (stack 1024 →
//! 2048) demonstrates, and which the `resize` edit repairs.

use minic::ast::*;
use minic::types::Type;
use minic::visit;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Applies the transform to one function. Returns `None` when the function
/// is not a supported shape (non-void, not recursive, or recursive calls
/// nested inside loops).
pub fn stack_trans(p: &Program, function: &str, capacity: u64) -> Option<Program> {
    let f = p.function(function)?.clone();
    if f.ret != Type::Void || !minic::edit::is_recursive(p, function) {
        return None;
    }
    // Frame fields must be scalar; array/pointer/stream params are not
    // supported by this template.
    for par in &f.params {
        let ty = par.ty.resolve_named(&|n| p.typedef(n).cloned());
        if !(ty.is_integer() || ty.is_float()) {
            return None;
        }
    }
    let body = f.body.clone()?;
    let stmts = normalize_guard(function, body.stmts);

    // Split into segments at top-level recursive calls; reject nested ones.
    let mut segments: Vec<Vec<Stmt>> = vec![Vec::new()];
    let mut calls: Vec<Vec<Expr>> = Vec::new();
    for s in stmts {
        let is_rec_call = matches!(
            &s.kind,
            StmtKind::Expr(Expr { kind: ExprKind::Call(n, _), .. }) if n == function
        );
        if is_rec_call {
            if let StmtKind::Expr(Expr {
                kind: ExprKind::Call(_, args),
                ..
            }) = s.kind
            {
                calls.push(args);
                segments.push(Vec::new());
            }
        } else {
            // A recursive call anywhere deeper is unsupported.
            let mut nested = false;
            visit::walk_stmt_exprs(&s, &mut |e| {
                if matches!(&e.kind, ExprKind::Call(n, _) if n == function) {
                    nested = true;
                }
            });
            if nested {
                return None;
            }
            segments.last_mut().unwrap().push(s);
        }
    }
    if calls.is_empty() {
        return None;
    }

    // Locals that cross a segment boundary move into the frame.
    let mut decl_segment: Vec<(String, Type, usize)> = Vec::new();
    for (i, seg) in segments.iter().enumerate() {
        for s in seg {
            if let StmtKind::Decl(d) = &s.kind {
                decl_segment.push((d.name.clone(), d.ty.clone(), i));
            }
        }
    }
    let mut crossing: BTreeSet<String> = BTreeSet::new();
    for (name, _, declared_in) in &decl_segment {
        let mut used_later = false;
        for (i, seg) in segments.iter().enumerate() {
            let refs_here = seg.iter().any(|s| references(s, name))
                || (i < calls.len() && calls[i].iter().any(|e| expr_references(e, name)));
            if refs_here && i > *declared_in {
                used_later = true;
            }
        }
        // Call arguments of the boundary ending the declaring segment also
        // read the frame *after* the stage hand-off, so they count too.
        if *declared_in < calls.len()
            && calls[*declared_in].iter().any(|e| expr_references(e, name))
        {
            used_later = true;
        }
        if used_later {
            crossing.insert(name.clone());
        }
    }

    // Frame layout: params, crossing locals, stage.
    let frame_name = format!("{function}_frame");
    let stk = format!("{function}_stk");
    let sp = format!("{function}_sp");
    let cur = format!("{function}_cur");
    let st = format!("{function}_st");
    let cap_def = format!("{}_STACK_SIZE", function.to_uppercase());
    let mut frame_vars: Vec<(String, Type)> = f
        .params
        .iter()
        .map(|par| (par.name.clone(), par.ty.clone()))
        .collect();
    for (name, ty, _) in &decl_segment {
        if crossing.contains(name) && !frame_vars.iter().any(|(n, _)| n == name) {
            frame_vars.push((name.clone(), ty.clone()));
        }
    }
    let frame_var_names: BTreeSet<String> = frame_vars.iter().map(|(n, _)| n.clone()).collect();

    let frame_def = StructDef {
        id: NodeId::SYNTH,
        name: frame_name.clone(),
        is_union: false,
        fields: frame_vars
            .iter()
            .map(|(n, t)| Field {
                name: n.clone(),
                ty: t.clone(),
                by_ref: false,
            })
            .chain(std::iter::once(Field {
                name: "stage".to_string(),
                ty: Type::int(),
                by_ref: false,
            }))
            .collect(),
        methods: vec![],
        ctor: None,
    };

    // Build the driver body.
    let frame_access = |field: &str| -> Expr {
        Expr::synth(ExprKind::Member(
            Box::new(Expr::synth(ExprKind::Index(
                Box::new(Expr::ident(stk.clone())),
                Box::new(Expr::ident(cur.clone())),
            ))),
            field.to_string(),
            false,
        ))
    };
    let push_access = |field: &str| -> Expr {
        Expr::synth(ExprKind::Member(
            Box::new(Expr::synth(ExprKind::Index(
                Box::new(Expr::ident(stk.clone())),
                Box::new(Expr::ident(sp.clone())),
            ))),
            field.to_string(),
            false,
        ))
    };
    let assign = |lhs: Expr, rhs: Expr| -> Stmt {
        Stmt::synth(StmtKind::Expr(Expr::synth(ExprKind::Assign(
            None,
            Box::new(lhs),
            Box::new(rhs),
        ))))
    };

    let mut driver: Vec<Stmt> = Vec::new();
    driver.push(Stmt::synth(StmtKind::Decl(VarDecl::new(
        stk.clone(),
        Type::Array(
            Box::new(Type::Struct(frame_name.clone())),
            minic::types::ArraySize::Named(cap_def.clone()),
        ),
        None,
    ))));
    driver.push(Stmt::synth(StmtKind::Decl(VarDecl::new(
        sp.clone(),
        Type::int(),
        Some(Expr::int(0)),
    ))));
    // Seed frame 0 from the incoming parameters.
    for par in &f.params {
        driver.push(assign(
            Expr::synth(ExprKind::Member(
                Box::new(Expr::synth(ExprKind::Index(
                    Box::new(Expr::ident(stk.clone())),
                    Box::new(Expr::int(0)),
                ))),
                par.name.clone(),
                false,
            )),
            Expr::ident(par.name.clone()),
        ));
    }
    driver.push(assign(
        Expr::synth(ExprKind::Member(
            Box::new(Expr::synth(ExprKind::Index(
                Box::new(Expr::ident(stk.clone())),
                Box::new(Expr::int(0)),
            ))),
            "stage".to_string(),
            false,
        )),
        Expr::int(0),
    ));
    driver.push(assign(Expr::ident(sp.clone()), Expr::int(1)));

    // while (sp > 0) { cur = sp - 1; st = stk[cur].stage; <stage arms> }
    let mut loop_body: Vec<Stmt> = Vec::new();
    loop_body.push(Stmt::synth(StmtKind::Decl(VarDecl::new(
        cur.clone(),
        Type::int(),
        Some(Expr::bin(BinOp::Sub, Expr::ident(sp.clone()), Expr::int(1))),
    ))));
    loop_body.push(Stmt::synth(StmtKind::Decl(VarDecl::new(
        st.clone(),
        Type::int(),
        Some(frame_access("stage")),
    ))));

    let pop_and_continue = |body: &mut Vec<Stmt>| {
        body.push(assign(
            Expr::ident(sp.clone()),
            Expr::bin(BinOp::Sub, Expr::ident(sp.clone()), Expr::int(1)),
        ));
        body.push(Stmt::synth(StmtKind::Continue));
    };

    for (i, seg) in segments.iter().enumerate() {
        let mut arm: Vec<Stmt> = Vec::new();
        for s in seg {
            arm.push(rewrite_stmt(
                s.clone(),
                &frame_var_names,
                &frame_access,
                &sp,
            ));
        }
        if i < calls.len() {
            // Hand this frame off to the next stage, then push the child.
            arm.push(assign(frame_access("stage"), Expr::int(i as i128 + 1)));
            for (par, arg) in f.params.iter().zip(&calls[i]) {
                let mut arg = arg.clone();
                rewrite_expr_vars(&mut arg, &frame_var_names, &frame_access);
                arm.push(assign(push_access(&par.name), arg));
            }
            arm.push(assign(push_access("stage"), Expr::int(0)));
            arm.push(assign(
                Expr::ident(sp.clone()),
                Expr::bin(BinOp::Add, Expr::ident(sp.clone()), Expr::int(1)),
            ));
            arm.push(Stmt::synth(StmtKind::Continue));
        } else {
            pop_and_continue(&mut arm);
        }
        loop_body.push(Stmt::synth(StmtKind::If(
            Expr::bin(BinOp::Eq, Expr::ident(st.clone()), Expr::int(i as i128)),
            Block::new(arm),
            None,
        )));
    }
    driver.push(Stmt::synth(StmtKind::While(
        Expr::bin(BinOp::Gt, Expr::ident(sp.clone()), Expr::int(0)),
        Block::new(loop_body),
    )));

    // Splice everything into a fresh program.
    let mut out = p.clone();
    let fpos = out
        .items
        .iter()
        .position(|i| matches!(i, Item::Function(g) if g.name == function && g.body.is_some()))?;
    out.items
        .insert(fpos, Item::Define(cap_def, capacity.max(4) as i128));
    out.items
        .insert(fpos + 1, Item::Struct(Arc::new(frame_def)));
    if let Item::Function(g) = &mut out.items[fpos + 2] {
        Arc::make_mut(g).body = Some(Block::new(driver));
    }
    out.renumber_synthesized();
    Some(out)
}

/// Normalizes a trailing `if (cond) { …recursion… }` guard into
/// `if (!cond) { return; } …` so the calls surface at the top level.
fn normalize_guard(function: &str, stmts: Vec<Stmt>) -> Vec<Stmt> {
    let mut stmts = stmts;
    loop {
        let Some(last) = stmts.last() else {
            return stmts;
        };
        let rewrite = match &last.kind {
            StmtKind::If(_, then, None) => {
                let mut has_rec = false;
                for s in &then.stmts {
                    visit::walk_stmt_exprs(s, &mut |e| {
                        if matches!(&e.kind, ExprKind::Call(n, _) if n == function) {
                            has_rec = true;
                        }
                    });
                }
                has_rec
            }
            _ => false,
        };
        if !rewrite {
            return stmts;
        }
        let last = stmts.pop().unwrap();
        let StmtKind::If(cond, then, None) = last.kind else {
            unreachable!()
        };
        stmts.push(Stmt::synth(StmtKind::If(
            Expr::synth(ExprKind::Unary(UnOp::Not, Box::new(cond))),
            Block::new(vec![Stmt::synth(StmtKind::Return(None))]),
            None,
        )));
        stmts.extend(then.stmts);
    }
}

fn references(s: &Stmt, name: &str) -> bool {
    let mut found = false;
    visit::walk_stmt_exprs(s, &mut |e| {
        if matches!(&e.kind, ExprKind::Ident(n) if n == name) {
            found = true;
        }
    });
    found
}

fn expr_references(e: &Expr, name: &str) -> bool {
    let mut found = false;
    visit::walk_expr(e, &mut |x| {
        if matches!(&x.kind, ExprKind::Ident(n) if n == name) {
            found = true;
        }
    });
    found
}

fn rewrite_expr_vars(
    e: &mut Expr,
    frame_vars: &BTreeSet<String>,
    frame_access: &dyn Fn(&str) -> Expr,
) {
    visit::walk_expr_mut(e, &mut |x| {
        if let ExprKind::Ident(n) = &x.kind {
            if frame_vars.contains(n) {
                *x = frame_access(n);
            }
        }
    });
}

/// Rewrites one statement for life inside the driver loop: frame variables
/// are accessed through the stack, crossing-local declarations become frame
/// stores, and `return` becomes pop-and-continue.
fn rewrite_stmt(
    s: Stmt,
    frame_vars: &BTreeSet<String>,
    frame_access: &dyn Fn(&str) -> Expr,
    sp: &str,
) -> Stmt {
    let Stmt { id, span, kind } = s;
    let kind = match kind {
        StmtKind::Decl(d) if frame_vars.contains(&d.name) => match d.init {
            Some(mut init) => {
                rewrite_expr_vars(&mut init, frame_vars, frame_access);
                StmtKind::Expr(Expr::synth(ExprKind::Assign(
                    None,
                    Box::new(frame_access(&d.name)),
                    Box::new(init),
                )))
            }
            None => StmtKind::Empty,
        },
        StmtKind::Decl(mut d) => {
            if let Some(init) = &mut d.init {
                rewrite_expr_vars(init, frame_vars, frame_access);
            }
            StmtKind::Decl(d)
        }
        StmtKind::Expr(mut e) => {
            rewrite_expr_vars(&mut e, frame_vars, frame_access);
            StmtKind::Expr(e)
        }
        StmtKind::Return(_) => StmtKind::Block(Block::new(vec![
            Stmt::synth(StmtKind::Expr(Expr::synth(ExprKind::Assign(
                None,
                Box::new(Expr::ident(sp.to_string())),
                Box::new(Expr::bin(
                    BinOp::Sub,
                    Expr::ident(sp.to_string()),
                    Expr::int(1),
                )),
            )))),
            Stmt::synth(StmtKind::Continue),
        ])),
        StmtKind::If(mut c, t, e) => {
            rewrite_expr_vars(&mut c, frame_vars, frame_access);
            StmtKind::If(
                c,
                rewrite_block(t, frame_vars, frame_access, sp),
                e.map(|b| rewrite_block(b, frame_vars, frame_access, sp)),
            )
        }
        StmtKind::While(mut c, b) => {
            rewrite_expr_vars(&mut c, frame_vars, frame_access);
            StmtKind::While(c, rewrite_block(b, frame_vars, frame_access, sp))
        }
        StmtKind::DoWhile(b, mut c) => {
            rewrite_expr_vars(&mut c, frame_vars, frame_access);
            StmtKind::DoWhile(rewrite_block(b, frame_vars, frame_access, sp), c)
        }
        StmtKind::For(init, mut cond, mut step, b) => {
            let init = init.map(|i| Box::new(rewrite_stmt(*i, frame_vars, frame_access, sp)));
            if let Some(c) = &mut cond {
                rewrite_expr_vars(c, frame_vars, frame_access);
            }
            if let Some(stp) = &mut step {
                rewrite_expr_vars(stp, frame_vars, frame_access);
            }
            StmtKind::For(
                init,
                cond,
                step,
                rewrite_block(b, frame_vars, frame_access, sp),
            )
        }
        StmtKind::Block(b) => StmtKind::Block(rewrite_block(b, frame_vars, frame_access, sp)),
        other => other,
    };
    Stmt { id, span, kind }
}

fn rewrite_block(
    b: Block,
    frame_vars: &BTreeSet<String>,
    frame_access: &dyn Fn(&str) -> Expr,
    sp: &str,
) -> Block {
    Block::new(
        b.stmts
            .into_iter()
            .map(|s| rewrite_stmt(s, frame_vars, frame_access, sp))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic_exec::{compiled_for, ArgValue, MachineConfig, Vm};

    /// Recursive sum over a global array segment, merge-sort shaped:
    /// work before, between and after the two recursive calls.
    const MSORT: &str = r#"
        #define N 32
        int buf[N];
        int tmp[N];
        void msort(int lo, int hi) {
            if (lo >= hi) { return; }
            int mid = (lo + hi) / 2;
            msort(lo, mid);
            msort(mid + 1, hi);
            int i = lo;
            int j = mid + 1;
            int k = lo;
            while (i <= mid && j <= hi) {
                if (buf[i] <= buf[j]) { tmp[k] = buf[i]; i = i + 1; }
                else { tmp[k] = buf[j]; j = j + 1; }
                k = k + 1;
            }
            while (i <= mid) { tmp[k] = buf[i]; i = i + 1; k = k + 1; }
            while (j <= hi) { tmp[k] = buf[j]; j = j + 1; k = k + 1; }
            for (int t = lo; t <= hi; t = t + 1) { buf[t] = tmp[t]; }
        }
        void kernel(int a[32]) {
            for (int i = 0; i < 32; i++) { buf[i] = a[i]; }
            msort(0, 31);
            for (int i = 0; i < 32; i++) { a[i] = buf[i]; }
        }
    "#;

    const TRAVERSE: &str = r#"
        #define M 64
        int left[M];
        int right[M];
        int val[M];
        int total;
        void traverse(int curr) {
            if (curr == 0) { return; }
            total = total + val[curr];
            traverse(left[curr]);
            traverse(right[curr]);
        }
        int kernel(int root) {
            total = 0;
            traverse(root);
            return total;
        }
    "#;

    #[test]
    fn msort_transform_preserves_sorting() {
        let p = minic::parse(MSORT).unwrap();
        let q = stack_trans(&p, "msort", 128).unwrap();
        assert!(!minic::edit::is_recursive(&q, "msort"));
        let input: Vec<i128> = (0..32).map(|i| ((i * 37) % 51) as i128 - 20).collect();
        let mut m1 = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
        let a = m1.run_kernel("kernel", &[ArgValue::IntArray(input.clone())]);
        let mut m2 = Vm::new(compiled_for(&q), MachineConfig::cpu()).unwrap();
        let b = m2.run_kernel("kernel", &[ArgValue::IntArray(input)]);
        assert!(
            !a.trapped && !b.trapped,
            "{:?} {:?}",
            a.trap_reason,
            b.trap_reason
        );
        assert!(a.behaviour_eq(&b));
        // And the result really is sorted.
        let vals: Vec<i128> = b.arrays[0]
            .iter()
            .map(|s| match s {
                minic_exec::ScalarOut::Int(v) => *v,
                _ => 0,
            })
            .collect();
        let mut sorted = vals.clone();
        sorted.sort();
        assert_eq!(vals, sorted);
    }

    #[test]
    fn traverse_transform_preserves_sum() {
        let p = minic::parse(TRAVERSE).unwrap();
        let q = stack_trans(&p, "traverse", 64).unwrap();
        let mut m1 = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
        let a = m1
            .run_function("kernel", vec![minic_exec::Value::int(0)])
            .unwrap();
        let mut m2 = Vm::new(compiled_for(&q), MachineConfig::cpu()).unwrap();
        let b = m2
            .run_function("kernel", vec![minic_exec::Value::int(0)])
            .unwrap();
        assert_eq!(a.as_int(), b.as_int());
    }

    #[test]
    fn transformed_function_passes_recursion_check() {
        let p = minic::parse(MSORT).unwrap();
        let q = stack_trans(&p, "msort", 128).unwrap();
        let diags = hls_sim::check_program(&q);
        assert!(
            !diags.iter().any(|d| d.message.contains("recursive")),
            "{diags:?}"
        );
    }

    #[test]
    fn undersized_stack_diverges_on_fpga() {
        let p = minic::parse(MSORT).unwrap();
        // Depth for 32 elements exceeds a 4-frame stack.
        let q = stack_trans(&p, "msort", 4).unwrap();
        let input: Vec<i128> = (0..32).map(|i| (31 - i) as i128).collect();
        let mut cpu = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
        let want = cpu.run_kernel("kernel", &[ArgValue::IntArray(input.clone())]);
        let mut fpga = Vm::new(compiled_for(&q), MachineConfig::fpga()).unwrap();
        let got = fpga.run_kernel("kernel", &[ArgValue::IntArray(input)]);
        assert!(!want.trapped);
        assert!(!got.trapped, "{:?}", got.trap_reason);
        assert!(
            !want.behaviour_eq(&got),
            "undersized stack must diverge silently"
        );
    }

    #[test]
    fn not_applicable_to_non_void_or_non_recursive() {
        let p = minic::parse("int f(int n) { if (n < 2) { return n; } return f(n - 1); }").unwrap();
        assert!(stack_trans(&p, "f", 64).is_none(), "non-void unsupported");
        let p2 = minic::parse("void g(int n) { }").unwrap();
        assert!(stack_trans(&p2, "g", 64).is_none(), "not recursive");
    }

    #[test]
    fn guard_normalization_handles_wrapping_if() {
        let src = r#"
            #define M 16
            int val[M];
            int left[M];
            int total;
            void walk(int n) {
                if (n != 0) {
                    total = total + val[n];
                    walk(left[n]);
                }
            }
            int kernel(int root) { total = 0; walk(root); return total; }
        "#;
        let p = minic::parse(src).unwrap();
        let q = stack_trans(&p, "walk", 32).unwrap();
        assert!(!minic::edit::is_recursive(&q, "walk"));
        let mut m = Vm::new(compiled_for(&q), MachineConfig::cpu()).unwrap();
        let v = m
            .run_function("kernel", vec![minic_exec::Value::int(0)])
            .unwrap();
        assert_eq!(v.as_int(), 0);
    }
}
