//! Lightweight visitor helpers over the AST.
//!
//! The repair templates are expressed as closures over these walkers rather
//! than as a heavyweight visitor trait: each template typically needs "every
//! expression", "every statement (with mutation)", or "every declared type".
//!
//! The whole-program mutable walkers ([`visit_exprs_mut`],
//! [`visit_blocks_mut`], [`visit_types_mut`]) unshare every function and
//! struct they visit (see [`Item`]); an edit confined to one item walks that
//! item only, e.g. with [`visit_function_blocks_mut`].

use crate::ast::*;
use crate::types::Type;
use std::sync::Arc;

/// Visits every expression in the program (including struct methods,
/// constructors and global initializers), outermost first.
pub fn visit_exprs(p: &Program, f: &mut dyn FnMut(&Expr)) {
    for item in &p.items {
        match item {
            Item::Function(func) => visit_function_exprs(func, f),
            Item::Struct(s) => {
                for m in &s.methods {
                    visit_function_exprs(m, f);
                }
                if let Some(ctor) = &s.ctor {
                    for (_, e) in &ctor.inits {
                        walk_expr(e, f);
                    }
                    for st in &ctor.body.stmts {
                        walk_stmt_exprs(st, f);
                    }
                }
            }
            Item::Global(g) => {
                if let Some(e) = &g.init {
                    walk_expr(e, f);
                }
            }
            _ => {}
        }
    }
}

/// Visits every expression within one function.
pub fn visit_function_exprs(func: &Function, f: &mut dyn FnMut(&Expr)) {
    if let Some(b) = &func.body {
        for st in &b.stmts {
            walk_stmt_exprs(st, f);
        }
    }
}

/// Mutable variant of [`visit_exprs`].
pub fn visit_exprs_mut(p: &mut Program, f: &mut dyn FnMut(&mut Expr)) {
    for item in &mut p.items {
        match item {
            Item::Function(func) => {
                if let Some(b) = &mut Arc::make_mut(func).body {
                    for st in &mut b.stmts {
                        walk_stmt_exprs_mut(st, f);
                    }
                }
            }
            Item::Struct(s) => {
                let s = Arc::make_mut(s);
                for m in &mut s.methods {
                    if let Some(b) = &mut m.body {
                        for st in &mut b.stmts {
                            walk_stmt_exprs_mut(st, f);
                        }
                    }
                }
                if let Some(ctor) = &mut s.ctor {
                    for (_, e) in &mut ctor.inits {
                        walk_expr_mut(e, f);
                    }
                    for st in &mut ctor.body.stmts {
                        walk_stmt_exprs_mut(st, f);
                    }
                }
            }
            Item::Global(g) => {
                if let Some(e) = &mut g.init {
                    walk_expr_mut(e, f);
                }
            }
            _ => {}
        }
    }
}

/// Visits every statement in the program, outermost first.
pub fn visit_stmts(p: &Program, f: &mut dyn FnMut(&Stmt)) {
    for item in &p.items {
        match item {
            Item::Function(func) => {
                if let Some(b) = &func.body {
                    for st in &b.stmts {
                        walk_stmt(st, f);
                    }
                }
            }
            Item::Struct(s) => {
                for m in &s.methods {
                    if let Some(b) = &m.body {
                        for st in &b.stmts {
                            walk_stmt(st, f);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Visits every block in the program (function bodies and nested blocks),
/// with mutation. The callback may insert/remove statements.
pub fn visit_blocks_mut(p: &mut Program, f: &mut dyn FnMut(&mut Block)) {
    for item in &mut p.items {
        match item {
            Item::Function(func) => visit_function_blocks_mut(Arc::make_mut(func), f),
            Item::Struct(s) => {
                let s = Arc::make_mut(s);
                for m in &mut s.methods {
                    visit_function_blocks_mut(m, f);
                }
                if let Some(ctor) = &mut s.ctor {
                    walk_block_mut(&mut ctor.body, f);
                }
            }
            _ => {}
        }
    }
}

/// Visits every block of one function (its body and nested blocks), with
/// mutation, in the order [`visit_blocks_mut`] would.
pub fn visit_function_blocks_mut(func: &mut Function, f: &mut dyn FnMut(&mut Block)) {
    if let Some(b) = &mut func.body {
        walk_block_mut(b, f);
    }
}

/// Visits every declared type in the program with mutation: globals, locals,
/// parameters, returns, fields, typedefs and cast targets.
pub fn visit_types_mut(p: &mut Program, f: &mut dyn FnMut(&mut Type)) {
    for item in &mut p.items {
        match item {
            Item::Function(func) => visit_function_types_mut(Arc::make_mut(func), f),
            Item::Struct(s) => {
                let s = Arc::make_mut(s);
                for fld in &mut s.fields {
                    f(&mut fld.ty);
                }
                for m in &mut s.methods {
                    visit_function_types_mut(m, f);
                }
                if let Some(ctor) = &mut s.ctor {
                    for par in &mut ctor.params {
                        f(&mut par.ty);
                    }
                }
            }
            Item::Global(g) => f(&mut g.ty),
            Item::Typedef(_, t) => f(t),
            _ => {}
        }
    }
    // Cast targets live inside expressions.
    visit_exprs_mut(p, &mut |e| {
        if let ExprKind::Cast(t, _) = &mut e.kind {
            f(t);
        }
        if let ExprKind::SizeOf(t) = &mut e.kind {
            f(t);
        }
    });
}

fn visit_function_types_mut(func: &mut Function, f: &mut dyn FnMut(&mut Type)) {
    f(&mut func.ret);
    for p in &mut func.params {
        f(&mut p.ty);
    }
    if let Some(b) = &mut func.body {
        visit_block_decl_types_mut(b, f);
    }
}

fn visit_block_decl_types_mut(b: &mut Block, f: &mut dyn FnMut(&mut Type)) {
    for s in &mut b.stmts {
        visit_stmt_decl_types_mut(s, f);
    }
}

fn visit_stmt_decl_types_mut(s: &mut Stmt, f: &mut dyn FnMut(&mut Type)) {
    match &mut s.kind {
        StmtKind::Decl(d) => f(&mut d.ty),
        StmtKind::If(_, t, e) => {
            visit_block_decl_types_mut(t, f);
            if let Some(e) = e {
                visit_block_decl_types_mut(e, f);
            }
        }
        StmtKind::While(_, b) | StmtKind::DoWhile(b, _) => visit_block_decl_types_mut(b, f),
        StmtKind::For(init, _, _, b) => {
            if let Some(i) = init {
                visit_stmt_decl_types_mut(i, f);
            }
            visit_block_decl_types_mut(b, f);
        }
        StmtKind::Block(b) => visit_block_decl_types_mut(b, f),
        _ => {}
    }
}

/// Walks one statement's nested statements, outermost first.
pub fn walk_stmt(s: &Stmt, f: &mut dyn FnMut(&Stmt)) {
    f(s);
    match &s.kind {
        StmtKind::If(_, t, e) => {
            for st in &t.stmts {
                walk_stmt(st, f);
            }
            if let Some(e) = e {
                for st in &e.stmts {
                    walk_stmt(st, f);
                }
            }
        }
        StmtKind::While(_, b) | StmtKind::DoWhile(b, _) => {
            for st in &b.stmts {
                walk_stmt(st, f);
            }
        }
        StmtKind::For(init, _, _, b) => {
            if let Some(i) = init {
                walk_stmt(i, f);
            }
            for st in &b.stmts {
                walk_stmt(st, f);
            }
        }
        StmtKind::Block(b) => {
            for st in &b.stmts {
                walk_stmt(st, f);
            }
        }
        _ => {}
    }
}

fn walk_block_mut(b: &mut Block, f: &mut dyn FnMut(&mut Block)) {
    f(b);
    for s in &mut b.stmts {
        match &mut s.kind {
            StmtKind::If(_, t, e) => {
                walk_block_mut(t, f);
                if let Some(e) = e {
                    walk_block_mut(e, f);
                }
            }
            StmtKind::While(_, body) | StmtKind::DoWhile(body, _) => walk_block_mut(body, f),
            StmtKind::For(_, _, _, body) => walk_block_mut(body, f),
            StmtKind::Block(body) => walk_block_mut(body, f),
            _ => {}
        }
    }
}

/// Walks every expression inside one statement.
pub fn walk_stmt_exprs(s: &Stmt, f: &mut dyn FnMut(&Expr)) {
    match &s.kind {
        StmtKind::Decl(d) => {
            if let Some(e) = &d.init {
                walk_expr(e, f);
            }
        }
        StmtKind::Expr(e) => walk_expr(e, f),
        StmtKind::If(c, t, e) => {
            walk_expr(c, f);
            for st in &t.stmts {
                walk_stmt_exprs(st, f);
            }
            if let Some(e) = e {
                for st in &e.stmts {
                    walk_stmt_exprs(st, f);
                }
            }
        }
        StmtKind::While(c, b) => {
            walk_expr(c, f);
            for st in &b.stmts {
                walk_stmt_exprs(st, f);
            }
        }
        StmtKind::DoWhile(b, c) => {
            for st in &b.stmts {
                walk_stmt_exprs(st, f);
            }
            walk_expr(c, f);
        }
        StmtKind::For(init, cond, step, b) => {
            if let Some(i) = init {
                walk_stmt_exprs(i, f);
            }
            if let Some(c) = cond {
                walk_expr(c, f);
            }
            if let Some(st) = step {
                walk_expr(st, f);
            }
            for st in &b.stmts {
                walk_stmt_exprs(st, f);
            }
        }
        StmtKind::Return(Some(e)) => walk_expr(e, f),
        StmtKind::Block(b) => {
            for st in &b.stmts {
                walk_stmt_exprs(st, f);
            }
        }
        _ => {}
    }
}

fn walk_stmt_exprs_mut(s: &mut Stmt, f: &mut dyn FnMut(&mut Expr)) {
    match &mut s.kind {
        StmtKind::Decl(d) => {
            if let Some(e) = &mut d.init {
                walk_expr_mut(e, f);
            }
        }
        StmtKind::Expr(e) => walk_expr_mut(e, f),
        StmtKind::If(c, t, e) => {
            walk_expr_mut(c, f);
            for st in &mut t.stmts {
                walk_stmt_exprs_mut(st, f);
            }
            if let Some(e) = e {
                for st in &mut e.stmts {
                    walk_stmt_exprs_mut(st, f);
                }
            }
        }
        StmtKind::While(c, b) => {
            walk_expr_mut(c, f);
            for st in &mut b.stmts {
                walk_stmt_exprs_mut(st, f);
            }
        }
        StmtKind::DoWhile(b, c) => {
            for st in &mut b.stmts {
                walk_stmt_exprs_mut(st, f);
            }
            walk_expr_mut(c, f);
        }
        StmtKind::For(init, cond, step, b) => {
            if let Some(i) = init {
                walk_stmt_exprs_mut(i, f);
            }
            if let Some(c) = cond {
                walk_expr_mut(c, f);
            }
            if let Some(st) = step {
                walk_expr_mut(st, f);
            }
            for st in &mut b.stmts {
                walk_stmt_exprs_mut(st, f);
            }
        }
        StmtKind::Return(Some(e)) => walk_expr_mut(e, f),
        StmtKind::Block(b) => {
            for st in &mut b.stmts {
                walk_stmt_exprs_mut(st, f);
            }
        }
        _ => {}
    }
}

/// Walks one expression tree, outermost first.
pub fn walk_expr(e: &Expr, f: &mut dyn FnMut(&Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Unary(_, a) => walk_expr(a, f),
        ExprKind::Binary(_, a, b) | ExprKind::Assign(_, a, b) | ExprKind::Index(a, b) => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        ExprKind::Call(_, args) | ExprKind::InitList(args) | ExprKind::StructLit(_, args) => {
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::MethodCall(recv, _, args) => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Member(a, _, _) | ExprKind::Cast(_, a) => walk_expr(a, f),
        ExprKind::Ternary(a, b, c) => {
            walk_expr(a, f);
            walk_expr(b, f);
            walk_expr(c, f);
        }
        _ => {}
    }
}

/// Mutable variant of [`walk_expr`] (outermost first; the callback sees the
/// node before its children, so replacing children inside the callback is
/// safe).
pub fn walk_expr_mut(e: &mut Expr, f: &mut dyn FnMut(&mut Expr)) {
    f(e);
    match &mut e.kind {
        ExprKind::Unary(_, a) => walk_expr_mut(a, f),
        ExprKind::Binary(_, a, b) | ExprKind::Assign(_, a, b) | ExprKind::Index(a, b) => {
            walk_expr_mut(a, f);
            walk_expr_mut(b, f);
        }
        ExprKind::Call(_, args) | ExprKind::InitList(args) | ExprKind::StructLit(_, args) => {
            for a in args {
                walk_expr_mut(a, f);
            }
        }
        ExprKind::MethodCall(recv, _, args) => {
            walk_expr_mut(recv, f);
            for a in args {
                walk_expr_mut(a, f);
            }
        }
        ExprKind::Member(a, _, _) | ExprKind::Cast(_, a) => walk_expr_mut(a, f),
        ExprKind::Ternary(a, b, c) => {
            walk_expr_mut(a, f);
            walk_expr_mut(b, f);
            walk_expr_mut(c, f);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn counts_calls() {
        let p =
            parse("int g(int x) { return x; } int f(int a) { return g(a) + g(a + 1); }").unwrap();
        let mut calls = 0;
        visit_exprs(&p, &mut |e| {
            if matches!(e.kind, ExprKind::Call(..)) {
                calls += 1;
            }
        });
        assert_eq!(calls, 2);
    }

    #[test]
    fn rewrites_identifiers() {
        let mut p = parse("int f(int a) { return a + a; }").unwrap();
        visit_exprs_mut(&mut p, &mut |e| {
            if let ExprKind::Ident(n) = &mut e.kind {
                if n == "a" {
                    *n = "b".to_string();
                }
            }
        });
        let s = crate::print_program(&p);
        assert!(s.contains("b + b"));
    }

    #[test]
    fn rewrites_types_everywhere() {
        let mut p =
            parse("long double g; long double f(long double a) { long double b = a; return b; }")
                .unwrap();
        visit_types_mut(&mut p, &mut |t| {
            if *t == crate::Type::LongDouble {
                *t = crate::Type::Double;
            }
        });
        let s = crate::print_program(&p);
        assert!(!s.contains("long double"), "{s}");
    }

    #[test]
    fn visits_struct_method_bodies() {
        let p = parse("struct S { int v; int get() { return v; } };").unwrap();
        let mut idents = 0;
        visit_exprs(&p, &mut |e| {
            if matches!(e.kind, ExprKind::Ident(_)) {
                idents += 1;
            }
        });
        assert_eq!(idents, 1);
    }

    #[test]
    fn blocks_mut_can_insert_statements() {
        let mut p = parse("void f() { int a = 1; }").unwrap();
        visit_blocks_mut(&mut p, &mut |b| {
            b.stmts.push(Stmt::synth(StmtKind::Return(None)));
        });
        p.renumber_synthesized();
        let s = crate::print_program(&p);
        assert!(s.contains("return;"));
    }
}
