//! Struct-and-union repairs: explicit constructors and struct flattening
//! (paper Figure 7a/7b).

use minic::ast::*;
use minic::visit;
use std::sync::Arc;

/// Inserts an explicit constructor into a struct (edit ➊ of Figure 7a):
/// one parameter per field, each forwarded by a member initializer.
/// Returns `None` when the struct is missing or already has a constructor.
pub fn insert_constructor(p: &Program, struct_name: &str) -> Option<Program> {
    let def = p.struct_def(struct_name)?;
    if def.ctor.is_some() {
        return None;
    }
    let params: Vec<Param> = def
        .fields
        .iter()
        .map(|f| Param {
            name: format!("{}0", f.name),
            ty: f.ty.clone(),
            by_ref: f.by_ref,
        })
        .collect();
    let inits: Vec<(String, Expr)> = def
        .fields
        .iter()
        .map(|f| (f.name.clone(), Expr::ident(format!("{}0", f.name))))
        .collect();
    let mut out = p.clone();
    let def = out.struct_def_mut(struct_name)?;
    def.ctor = Some(Ctor {
        params,
        inits,
        body: Block::default(),
    });
    out.renumber_synthesized();
    Some(out)
}

/// Flattens a struct's methods into free functions (edit ➋ of Figure 7b):
/// each method `m` becomes `S_m(field params…, method params…)`; the
/// methods are removed from the struct. Call sites are *not* rewritten —
/// that is the dependent `inst_update` edit (➍).
pub fn flatten(p: &Program, struct_name: &str) -> Option<Program> {
    let def = p.struct_def(struct_name)?.clone();
    if def.methods.is_empty() {
        return None;
    }
    let mut out = p.clone();
    for m in &def.methods {
        let mut params: Vec<Param> = def
            .fields
            .iter()
            .map(|f| Param {
                name: f.name.clone(),
                ty: f.ty.clone(),
                by_ref: f.by_ref || f.ty.is_array(),
            })
            .collect();
        params.extend(m.params.iter().cloned());
        // Method bodies referring to sibling methods keep working because
        // those are flattened too with the same field-first convention.
        let mut body = m.body.clone();
        if let Some(b) = &mut body {
            rewrite_sibling_calls(b, &def);
        }
        out.items.push(Item::Function(Arc::new(Function {
            id: NodeId::SYNTH,
            name: format!("{struct_name}_{}", m.name),
            ret: m.ret.clone(),
            params,
            body,
            is_static: false,
        })));
    }
    let def_mut = out.struct_def_mut(struct_name)?;
    def_mut.methods.clear();
    def_mut.ctor = None;
    out.renumber_synthesized();
    Some(out)
}

/// Rewrites `S{args…}.m(margs…)` call sites into `S_m(args…, margs…)`
/// after [`flatten`] (edit ➍ of Figure 7b). Returns `None` when there is
/// nothing to rewrite or the struct still has methods (flatten not applied).
pub fn inst_update(p: &Program, struct_name: &str) -> Option<Program> {
    let def = p.struct_def(struct_name)?;
    if !def.methods.is_empty() {
        return None;
    }
    let mut any = false;
    let mut out = p.clone();
    let sname = struct_name.to_string();
    let on_literal = |e: &Expr| match &e.kind {
        ExprKind::MethodCall(recv, _, _) => {
            matches!(&recv.kind, ExprKind::StructLit(n, _) if *n == sname)
        }
        _ => false,
    };
    visit::visit_exprs_mut_where(&mut out, &on_literal, &mut |e| {
        if on_literal(e) {
            let kind = std::mem::replace(&mut e.kind, ExprKind::IntLit(0, false));
            if let ExprKind::MethodCall(recv, method, margs) = kind {
                if let ExprKind::StructLit(_, ctor_args) = recv.kind {
                    let mut args = ctor_args;
                    args.extend(margs);
                    e.kind = ExprKind::Call(format!("{sname}_{method}"), args);
                    any = true;
                }
            }
        }
    });
    if !any {
        return None;
    }
    out.renumber_synthesized();
    Some(out)
}

fn rewrite_sibling_calls(b: &mut Block, def: &StructDef) {
    let method_names: Vec<String> = def.methods.iter().map(|m| m.name.clone()).collect();
    let field_names: Vec<String> = def.fields.iter().map(|f| f.name.clone()).collect();
    for s in b.stmts_mut() {
        sibling::rewrite(s, &def.name, &method_names, &field_names);
    }
}

mod sibling {
    use super::*;

    /// Rewrites bare calls of sibling methods (`doRead()`) inside a method
    /// body being flattened into calls of the flattened free function with
    /// the field values forwarded (`S_doRead(in, out)`).
    pub fn rewrite(s: &mut Stmt, struct_name: &str, methods: &[String], fields: &[String]) {
        visit::walk_stmt_exprs_mut(s, &mut |e| {
            let is_sibling = matches!(&e.kind, ExprKind::Call(n, _) if methods.contains(n));
            if is_sibling {
                let kind = std::mem::replace(&mut e.kind, ExprKind::IntLit(0, false));
                if let ExprKind::Call(n, margs) = kind {
                    let mut args: Vec<Expr> =
                        fields.iter().map(|f| Expr::ident(f.clone())).collect();
                    args.extend(margs);
                    e.kind = ExprKind::Call(format!("{struct_name}_{n}"), args);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IF2: &str = r#"
        #include <hls_stream.h>
        struct If2 {
            hls::stream<unsigned> &in;
            hls::stream<unsigned> &out;
            unsigned doRead() { return in.read(); }
            void do1() { out.write(doRead() + 1u); }
        };
        void kernel(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
        #pragma HLS dataflow
            static hls::stream<unsigned> tmp;
            If2{in, tmp}.do1();
            If2{tmp, out}.do1();
        }
    "#;

    #[test]
    fn constructor_insertion_fixes_the_struct_error() {
        let p = minic::parse(IF2).unwrap();
        let before = hls_sim::check_program(&p);
        assert!(before
            .iter()
            .any(|d| d.message.contains("unsynthesizable struct")));
        let q = insert_constructor(&p, "If2").unwrap();
        let after = hls_sim::check_program(&q);
        assert!(
            !after
                .iter()
                .any(|d| d.message.contains("unsynthesizable struct")),
            "{after:?}"
        );
    }

    #[test]
    fn constructor_preserves_behaviour() {
        let p = minic::parse(IF2).unwrap();
        let q = insert_constructor(&p, "If2").unwrap();
        let args = vec![
            minic_exec::ArgValue::IntStream(vec![10, 20]),
            minic_exec::ArgValue::IntStream(vec![]),
        ];
        let mut m1 = minic_exec::Vm::new(
            minic_exec::compiled_for(&p),
            minic_exec::MachineConfig::cpu(),
        )
        .unwrap();
        let a = m1.run_kernel("kernel", &args);
        let mut m2 = minic_exec::Vm::new(
            minic_exec::compiled_for(&q),
            minic_exec::MachineConfig::cpu(),
        )
        .unwrap();
        let b = m2.run_kernel("kernel", &args);
        assert!(
            !a.trapped && !b.trapped,
            "{:?} {:?}",
            a.trap_reason,
            b.trap_reason
        );
        assert!(a.behaviour_eq(&b));
    }

    #[test]
    fn flatten_plus_inst_update_preserves_behaviour() {
        let p = minic::parse(IF2).unwrap();
        let flat = flatten(&p, "If2").unwrap();
        // flatten alone leaves dangling struct-literal method calls:
        assert!(inst_update(&flat, "If2").is_some());
        let q = inst_update(&flat, "If2").unwrap();
        let src = minic::print_program(&q);
        assert!(src.contains("If2_do1("), "{src}");
        let args = vec![
            minic_exec::ArgValue::IntStream(vec![5, 6, 7]),
            minic_exec::ArgValue::IntStream(vec![]),
        ];
        let mut m1 = minic_exec::Vm::new(
            minic_exec::compiled_for(&p),
            minic_exec::MachineConfig::cpu(),
        )
        .unwrap();
        let a = m1.run_kernel("kernel", &args);
        let mut m2 = minic_exec::Vm::new(
            minic_exec::compiled_for(&q),
            minic_exec::MachineConfig::cpu(),
        )
        .unwrap();
        let b = m2.run_kernel("kernel", &args);
        assert!(!b.trapped, "{:?}", b.trap_reason);
        assert!(a.behaviour_eq(&b));
    }

    #[test]
    fn inst_update_requires_flatten_first() {
        let p = minic::parse(IF2).unwrap();
        assert!(
            inst_update(&p, "If2").is_none(),
            "methods still on the struct — dependence must hold"
        );
    }

    #[test]
    fn constructor_is_idempotent_guard() {
        let p = minic::parse(IF2).unwrap();
        let q = insert_constructor(&p, "If2").unwrap();
        assert!(insert_constructor(&q, "If2").is_none());
    }
}
