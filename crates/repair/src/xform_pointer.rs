//! The pointer-removal transform: `struct S*` → array indices.
//!
//! Reproduces the paper's Figure 2b: a backing array `S_arr`, a bump
//! allocator `S_malloc`, a typedef `S_ptr`, and the rewrite of every
//! `p->field` into `S_arr[p].field`. Index 0 plays the role of the null
//! pointer. On "hardware", an exhausted backing array wraps around and
//! silently recycles slots — the divergence class the `resize` edit fixes.

use minic::ast::*;
use minic::typeck;
use minic::types::Type;
use minic::visit;
use std::sync::Arc;

/// Applies the transform for one struct type. Returns `None` when the
/// program has no `S*` usage to rewrite.
pub fn pointer_to_index(p: &Program, struct_name: &str, capacity: u64) -> Option<Program> {
    p.struct_def(struct_name)?;
    let ptr_ty = Type::ptr(Type::Struct(struct_name.to_string()));
    // Is there anything to do?
    let mut uses_ptr = false;
    let mut probe = p.clone();
    visit::visit_types_mut(&mut probe, &mut |t| {
        if *t == ptr_ty {
            uses_ptr = true;
        }
    });
    if !uses_ptr {
        return None;
    }

    let info = typeck::check(p);
    let mut out = p.clone();
    let arr = format!("{struct_name}_arr");
    let size_def = format!("{}_ARR_SIZE", struct_name.to_uppercase());
    let next = format!("{struct_name}_next");
    let ptr_name = format!("{struct_name}_ptr");
    let malloc_name = format!("{struct_name}_malloc");
    let free_name = format!("{struct_name}_free");

    // 1. Rewrite `(S*)malloc(...)` into `S_malloc()` and `free(p)` into
    //    `S_free(p)` where `p : S*`, using the *original* inferred types.
    visit::visit_exprs_mut(&mut out, &mut |e| {
        let replace_with_malloc = match &e.kind {
            ExprKind::Cast(t, inner) => {
                *t == ptr_ty && matches!(&inner.kind, ExprKind::Call(n, _) if n == "malloc")
            }
            _ => false,
        };
        if replace_with_malloc {
            e.kind = ExprKind::Call(malloc_name.clone(), vec![]);
            return;
        }
        let free_arg_is_s = match &e.kind {
            ExprKind::Call(n, args) if n == "free" && args.len() == 1 => {
                info.expr_types.get(&args[0].id) == Some(&ptr_ty)
            }
            _ => false,
        };
        if free_arg_is_s {
            if let ExprKind::Call(n, _) = &mut e.kind {
                *n = free_name.clone();
            }
        }
    });

    // 2. Rewrite `base->field` where `base : S*` into `S_arr[base].field`.
    visit::visit_exprs_mut(&mut out, &mut |e| {
        let is_arrow_on_s = match &e.kind {
            ExprKind::Member(base, _, true) => info.expr_types.get(&base.id) == Some(&ptr_ty),
            _ => false,
        };
        if is_arrow_on_s {
            if let ExprKind::Member(base, field, arrow) = &mut e.kind {
                let inner =
                    std::mem::replace(base.as_mut(), Expr::synth(ExprKind::Ident(String::new())));
                **base = Expr::synth(ExprKind::Index(
                    Box::new(Expr::ident(arr.clone())),
                    Box::new(inner),
                ));
                let _ = field;
                *arrow = false;
            }
        }
    });

    // 3. Rewrite the types: `S*` becomes the index typedef.
    visit::visit_types_mut(&mut out, &mut |t| {
        if *t == ptr_ty {
            *t = Type::Named(ptr_name.clone());
        }
    });

    // 4. Declare the backing storage and allocator, after the struct def.
    let insert_at = out
        .items
        .iter()
        .position(|i| matches!(i, Item::Struct(s) if s.name == struct_name))
        .map(|i| i + 1)
        .unwrap_or(0);
    let defs = vec![
        Item::Define(size_def.clone(), capacity.max(2) as i128),
        Item::Typedef(ptr_name.clone(), Type::int()),
        Item::Global(VarDecl::new(
            arr.clone(),
            Type::Array(
                Box::new(Type::Struct(struct_name.to_string())),
                minic::types::ArraySize::Named(size_def.clone()),
            ),
            None,
        )),
        Item::Global(VarDecl::new(next.clone(), Type::int(), Some(Expr::int(1)))),
        Item::Function(Arc::new(Function {
            id: NodeId::SYNTH,
            name: malloc_name,
            ret: Type::Named(ptr_name.clone()),
            params: vec![],
            body: Some(Block::new(vec![
                // if (S_next >= S_ARR_SIZE) { S_next = 1; }  — wrap: the
                // silent hardware recycling an undersized pool exhibits.
                Stmt::synth(StmtKind::If(
                    Expr::bin(
                        BinOp::Ge,
                        Expr::ident(next.clone()),
                        Expr::ident(size_def.clone()),
                    ),
                    Block::new(vec![Stmt::synth(StmtKind::Expr(Expr::synth(
                        ExprKind::Assign(
                            None,
                            Box::new(Expr::ident(next.clone())),
                            Box::new(Expr::int(1)),
                        ),
                    )))]),
                    None,
                )),
                Stmt::synth(StmtKind::Decl(VarDecl::new(
                    "r",
                    Type::Named(ptr_name.clone()),
                    Some(Expr::ident(next.clone())),
                ))),
                Stmt::synth(StmtKind::Expr(Expr::synth(ExprKind::Assign(
                    Some(BinOp::Add),
                    Box::new(Expr::ident(next.clone())),
                    Box::new(Expr::int(1)),
                )))),
                Stmt::synth(StmtKind::Return(Some(Expr::ident("r")))),
            ])),
            is_static: false,
        })),
        Item::Function(Arc::new(Function {
            id: NodeId::SYNTH,
            name: free_name,
            ret: Type::Void,
            params: vec![Param {
                name: "p".to_string(),
                ty: Type::Named(ptr_name),
                by_ref: false,
            }],
            body: Some(Block::new(vec![Stmt::synth(StmtKind::Empty)])),
            is_static: false,
        })),
    ];
    for (k, item) in defs.into_iter().enumerate() {
        out.items.insert(insert_at + k, item);
    }
    out.renumber_synthesized();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic_exec::{compiled_for, MachineConfig, Value, Vm};

    const LIST: &str = r#"
        struct Node { int val; struct Node* next; };
        int kernel(int n) {
            struct Node* head = (struct Node*)malloc(sizeof(struct Node));
            head->val = 0;
            head->next = 0;
            struct Node* cur = head;
            for (int i = 1; i < n; i++) {
                struct Node* node = (struct Node*)malloc(sizeof(struct Node));
                node->val = i * i;
                node->next = 0;
                cur->next = node;
                cur = node;
            }
            int sum = 0;
            cur = head;
            while (cur != 0) {
                sum = sum + cur->val;
                cur = cur->next;
            }
            free(head);
            return sum;
        }
    "#;

    #[test]
    fn rewrites_types_and_accessors() {
        let p = minic::parse(LIST).unwrap();
        let q = pointer_to_index(&p, "Node", 64).unwrap();
        let src = minic::print_program(&q);
        assert!(src.contains("Node_ptr"), "{src}");
        assert!(src.contains("Node_arr["), "{src}");
        assert!(src.contains("Node_malloc"), "{src}");
        assert!(
            !src.contains("struct Node*") && !src.contains("Node* "),
            "{src}"
        );
        assert!(!src.contains("malloc(sizeof"), "{src}");
    }

    #[test]
    fn transformed_program_preserves_behaviour() {
        let p = minic::parse(LIST).unwrap();
        let q = pointer_to_index(&p, "Node", 64).unwrap();
        let mut m1 = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
        let a = m1.run_function("kernel", vec![Value::int(6)]).unwrap();
        let mut m2 = Vm::new(compiled_for(&q), MachineConfig::cpu()).unwrap();
        let b = m2.run_function("kernel", vec![Value::int(6)]).unwrap();
        assert_eq!(a.as_int(), b.as_int());
        assert_eq!(a.as_int(), (1..6).map(|i: i128| i * i).sum::<i128>());
    }

    #[test]
    fn transformed_program_is_malloc_free() {
        let p = minic::parse(LIST).unwrap();
        let q = pointer_to_index(&p, "Node", 64).unwrap();
        let diags = hls_sim::check_program(&q);
        assert!(
            !diags.iter().any(|d| d.message.contains("dynamic memory")),
            "{diags:?}"
        );
        assert!(
            !diags.iter().any(|d| d.message.contains("pointer")),
            "{diags:?}"
        );
    }

    #[test]
    fn undersized_pool_wraps_on_fpga() {
        let p = minic::parse(LIST).unwrap();
        // Capacity 4 but the kernel allocates n nodes.
        let q = pointer_to_index(&p, "Node", 4).unwrap();
        let mut cpu = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
        let want = cpu.run_function("kernel", vec![Value::int(8)]).unwrap();
        let mut fpga = Vm::new(compiled_for(&q), MachineConfig::fpga()).unwrap();
        let got = fpga.run_function("kernel", vec![Value::int(8)]).unwrap();
        assert_ne!(
            want.as_int(),
            got.as_int(),
            "undersized pool must corrupt results silently"
        );
    }

    #[test]
    fn no_op_when_struct_unused() {
        let p = minic::parse("struct Node { int v; };\nint kernel(int x) { return x; }").unwrap();
        assert!(pointer_to_index(&p, "Node", 16).is_none());
    }
}
