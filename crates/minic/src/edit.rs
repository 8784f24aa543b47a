//! AST edit primitives.
//!
//! The repair crate's parameterized templates (`array_static`, `stack_trans`,
//! `constructor`, …) are compositions of these primitives. All primitives
//! leave synthesized nodes with [`NodeId::SYNTH`]; callers should finish an
//! edit batch with [`Program::renumber_synthesized`].

use crate::ast::*;
use crate::types::Type;
use crate::visit::{self, Node, NodeMut};
use std::sync::Arc;

/// Where a statement insertion is anchored relative to the target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// Insert immediately before the target statement.
    Before,
    /// Insert immediately after the target statement.
    After,
    /// Replace the target statement.
    Replace,
}

/// Replaces the declared type of a variable.
///
/// Searches globals and, when `in_function` is given, locals/parameters of
/// that function only. Returns `true` when a declaration was rewritten.
pub fn rewrite_decl_type(
    p: &mut Program,
    var: &str,
    in_function: Option<&str>,
    new_ty: Type,
) -> bool {
    let mut changed = false;
    if in_function.is_none() {
        for item in &mut p.items {
            if let Item::Global(g) = item {
                if g.name == var {
                    g.ty = new_ty.clone();
                    changed = true;
                }
            }
        }
    }
    let declared_here = |n: Node<'_>| is_decl_of(n, var);
    for item in &mut p.items {
        if let Item::Function(f) = item {
            if in_function.is_some_and(|target| f.name != target) || !declares(f, var) {
                continue;
            }
            let f = Arc::make_mut(f);
            for par in &mut f.params {
                if par.name == var {
                    par.ty = new_ty.clone();
                    changed = true;
                }
            }
            // Only the blocks on the paths to a declaration are copied.
            let mut enter = |b: &Block| visit::block_holds(b, &declared_here);
            visit::CodeMut::Function(f).walk_where(&mut enter, &mut |n| {
                if let NodeMut::Stmt(Stmt {
                    kind: StmtKind::Decl(d),
                    ..
                }) = n
                {
                    if d.name == var {
                        d.ty = new_ty.clone();
                        changed = true;
                    }
                }
            });
        }
    }
    changed
}

/// Whether `n` is a declaration of `var`.
fn is_decl_of(n: Node<'_>, var: &str) -> bool {
    matches!(n, Node::Stmt(Stmt { kind: StmtKind::Decl(d), .. }) if d.name == var)
}

/// Whether `f` declares `var` as a parameter or a local.
fn declares(f: &Function, var: &str) -> bool {
    local_decl(f, var).is_some() || f.params.iter().any(|par| par.name == var)
}

/// The first declaration of the local `var` in `f`, in walk order.
fn local_decl<'a>(f: &'a Function, var: &str) -> Option<&'a VarDecl> {
    let mut found = None;
    visit::Code::Function(f).walk(&mut |n| {
        if let Node::Stmt(Stmt {
            kind: StmtKind::Decl(d),
            ..
        }) = n
        {
            if found.is_none() && d.name == var {
                found = Some(d);
            }
        }
    });
    found
}

/// Inserts, replaces, or removes statements at the statement with the given
/// id, anywhere in the program. Returns `true` when the target was found.
/// Copies only the blocks on the path to the target.
pub fn splice_at(p: &mut Program, target: NodeId, anchor: Anchor, new: Vec<Stmt>) -> bool {
    let mut done = false;
    let is_target = |n: Node<'_>| matches!(n, Node::Stmt(s) if s.id == target);
    visit::visit_blocks_mut_where(p, &is_target, &mut |b| {
        if done {
            return;
        }
        if let Some(idx) = b.stmts().iter().position(|s| s.id == target) {
            let at = match anchor {
                Anchor::Before => idx,
                Anchor::After => idx + 1,
                Anchor::Replace => {
                    b.stmts_mut().remove(idx);
                    idx
                }
            };
            b.stmts_mut().splice(at..at, new.iter().cloned());
            done = true;
        }
    });
    if done {
        p.renumber_synthesized();
    }
    done
}

/// Adds a global variable immediately before the first function definition
/// (after includes, defines, typedefs and struct definitions).
pub fn add_global(p: &mut Program, decl: VarDecl) {
    let idx = p
        .items
        .iter()
        .position(|i| matches!(i, Item::Function(_)))
        .unwrap_or(p.items.len());
    p.items.insert(idx, Item::Global(decl));
    p.renumber_synthesized();
}

/// Renames every direct call of `old` to `new` (definitions untouched).
pub fn rename_calls(p: &mut Program, old: &str, new: &str) -> usize {
    let mut count = 0;
    let calls_old = |e: &Expr| matches!(&e.kind, ExprKind::Call(name, _) if name == old);
    visit::visit_exprs_mut_where(p, &calls_old, &mut |e| {
        if let ExprKind::Call(name, _) = &mut e.kind {
            if name == old {
                *name = new.to_string();
                count += 1;
            }
        }
    });
    count
}

/// Renames a function definition and all of its call sites.
pub fn rename_function(p: &mut Program, old: &str, new: &str) -> bool {
    let mut found = false;
    for item in &mut p.items {
        if let Item::Function(f) = item {
            if f.name == old {
                Arc::make_mut(f).name = new.to_string();
                found = true;
            }
        }
    }
    if found {
        rename_calls(p, old, new);
        if p.config.top.as_deref() == Some(old) {
            p.config.top = Some(new.to_string());
        }
    }
    found
}

/// Marks a local declaration `static` (the struct-and-union repair makes the
/// connecting stream static). Returns `true` when found.
pub fn make_local_static(p: &mut Program, function: &str, var: &str) -> bool {
    if p.function(function)
        .and_then(|f| local_decl(f, var))
        .is_none()
    {
        return false;
    }
    let Some(f) = p.function_mut(function) else {
        return false;
    };
    let mut found = false;
    let mut enter = |b: &Block| visit::block_holds(b, &|n| is_decl_of(n, var));
    visit::CodeMut::Function(f).walk_where(&mut enter, &mut |n| {
        if let NodeMut::Stmt(Stmt {
            kind: StmtKind::Decl(d),
            ..
        }) = n
        {
            if !found && d.name == var {
                d.is_static = true;
                found = true;
            }
        }
    });
    found
}

/// Resolves an array extent against the program's `#define` constants.
pub fn resolve_array_size(p: &Program, size: &crate::types::ArraySize) -> Option<u64> {
    match size {
        crate::types::ArraySize::Const(n) => Some(*n),
        crate::types::ArraySize::Named(n) => p.define(n).map(|v| v as u64),
        crate::types::ArraySize::Runtime(_) | crate::types::ArraySize::Unknown => None,
    }
}

/// Finds the declared type of a name, looking through the given function's
/// parameters and locals, then globals.
pub fn declared_type(p: &Program, function: Option<&str>, var: &str) -> Option<Type> {
    if let Some(fname) = function {
        if let Some(f) = p.function(fname) {
            for par in &f.params {
                if par.name == var {
                    return Some(par.ty.clone());
                }
            }
            if let Some(d) = local_decl(f, var) {
                return Some(d.ty.clone());
            }
        }
    }
    p.global(var).map(|g| g.ty.clone())
}

/// All functions (by name) that call the named function directly.
pub fn callers_of(p: &Program, callee: &str) -> Vec<String> {
    let mut out = Vec::new();
    for f in p.functions() {
        let mut calls = false;
        visit::visit_function_exprs(f, &mut |e| {
            if let ExprKind::Call(name, _) = &e.kind {
                if name == callee {
                    calls = true;
                }
            }
        });
        if calls {
            out.push(f.name.clone());
        }
    }
    out
}

/// Whether the named function (directly) recurses.
pub fn is_recursive(p: &Program, name: &str) -> bool {
    let Some(f) = p.function(name) else {
        return false;
    };
    let mut rec = false;
    visit::visit_function_exprs(f, &mut |e| {
        if let ExprKind::Call(callee, _) = &e.kind {
            if callee == name {
                rec = true;
            }
        }
    });
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::types::IntWidth;

    #[test]
    fn rewrites_local_decl_type() {
        let mut p = parse("void f() { int ret = 0; ret = ret + 1; }").unwrap();
        assert!(rewrite_decl_type(
            &mut p,
            "ret",
            Some("f"),
            Type::FpgaInt {
                bits: 7,
                signed: false
            }
        ));
        let s = crate::print_program(&p);
        assert!(s.contains("fpga_uint<7> ret = 0;"), "{s}");
    }

    #[test]
    fn rewrites_param_type() {
        let mut p = parse("int f(long long x) { return x; }").unwrap();
        assert!(rewrite_decl_type(
            &mut p,
            "x",
            Some("f"),
            Type::Int {
                width: IntWidth::W16,
                signed: true
            }
        ));
        assert_eq!(
            p.function("f").unwrap().params[0].ty,
            Type::Int {
                width: IntWidth::W16,
                signed: true
            }
        );
    }

    #[test]
    fn splices_before_and_after() {
        let mut p = parse("void f() { int a = 1; }").unwrap();
        let target = p.function("f").unwrap().body.as_ref().unwrap().stmts()[0].id;
        assert!(splice_at(
            &mut p,
            target,
            Anchor::After,
            vec![Stmt::synth(StmtKind::Return(None))]
        ));
        let s = crate::print_program(&p);
        assert!(s.contains("int a = 1;\n    return;"), "{s}");
    }

    #[test]
    fn replace_removes_target() {
        let mut p = parse("void f() { int a = 1; int b = 2; }").unwrap();
        let target = p.function("f").unwrap().body.as_ref().unwrap().stmts()[0].id;
        assert!(splice_at(&mut p, target, Anchor::Replace, Vec::new()));
        let s = crate::print_program(&p);
        assert!(!s.contains("int a"), "{s}");
        assert!(s.contains("int b"), "{s}");
    }

    #[test]
    fn renames_function_and_calls() {
        let mut p = parse("void t(int x) { if (x > 0) { t(x - 1); } } void k() { t(3); }").unwrap();
        assert!(rename_function(&mut p, "t", "t_converted"));
        let s = crate::print_program(&p);
        assert!(!s.contains(" t("), "{s}");
        assert!(s.contains("t_converted(3)"), "{s}");
        assert!(s.contains("t_converted(x - 1)"), "{s}");
    }

    #[test]
    fn adds_global_before_functions() {
        let mut p = parse("struct Node { int v; };\nvoid f() {}").unwrap();
        add_global(
            &mut p,
            VarDecl::new(
                "Node_arr",
                Type::array(Type::Struct("Node".into()), 64),
                None,
            ),
        );
        let s = crate::print_program(&p);
        let arr_pos = s.find("Node_arr").unwrap();
        let f_pos = s.find("void f").unwrap();
        assert!(arr_pos < f_pos, "{s}");
    }

    #[test]
    fn makes_local_static() {
        let mut p = parse("void top() { hls::stream<unsigned> tmp; }").unwrap();
        assert!(make_local_static(&mut p, "top", "tmp"));
        let s = crate::print_program(&p);
        assert!(s.contains("static hls::stream<unsigned int> tmp;"), "{s}");
    }

    #[test]
    fn detects_recursion() {
        let p =
            parse("void t(int x) { if (x > 0) { t(x - 1); } } void u(int x) { t(x); }").unwrap();
        assert!(is_recursive(&p, "t"));
        assert!(!is_recursive(&p, "u"));
        assert_eq!(callers_of(&p, "t"), vec!["t".to_string(), "u".to_string()]);
    }

    #[test]
    fn declared_type_lookup() {
        let p = parse("int g;\nvoid f(float x) { double y = 0.0; }").unwrap();
        assert_eq!(declared_type(&p, Some("f"), "x"), Some(Type::Float));
        assert_eq!(declared_type(&p, Some("f"), "y"), Some(Type::Double));
        assert_eq!(declared_type(&p, Some("f"), "g"), Some(Type::int()));
        assert_eq!(declared_type(&p, Some("f"), "nope"), None);
    }
}
