//! The AST depth bound every recursive pass relies on.
//!
//! The printer, type checker, fingerprint, HLS checker, bytecode compiler
//! and tree-walker all recurse over the AST. Instead of guarding each of
//! them, a program is admitted only when its depth is at most
//! [`MAX_AST_DEPTH`]: [`crate::parse`] refuses deeper sources, and the
//! pipeline refuses deeper hand-built programs.

use crate::ast::{Block, Expr, ExprKind, Function, Item, Program, Stmt, StmtKind};
use crate::types::Type;

/// Deepest AST [`ast_depth`] admits. The deepest paper subject, manual
/// version or repaired program measures 11. In a debug build on a 2 MiB
/// thread, the most stack-hungry shape measured — nested builtin calls run
/// by the tree-walker — overflows between 130 and 150 levels; the pipeline
/// itself survives 300 levels of every shape measured (binary, unary,
/// call, index, ternary and assignment chains; nested `if`, `while`,
/// `for` and blocks).
pub const MAX_AST_DEPTH: usize = 64;

enum Node<'a> {
    Stmt(&'a Stmt),
    Expr(&'a Expr),
    Type(&'a Type),
}

/// Nesting depth of a program's statements, expressions and types: one
/// level per statement, expression or type constructor on the longest
/// path, counted from each function, method, constructor, global or
/// typedef. Iterative, so it cannot overflow the stack it protects.
pub fn ast_depth(p: &Program) -> usize {
    let mut stack: Vec<(Node<'_>, usize)> = Vec::new();
    for item in &p.items {
        match item {
            Item::Function(f) => function(f, &mut stack),
            Item::Struct(s) => {
                stack.extend(s.fields.iter().map(|f| (Node::Type(&f.ty), 1)));
                for m in &s.methods {
                    function(m, &mut stack);
                }
                if let Some(c) = &s.ctor {
                    stack.extend(c.params.iter().map(|prm| (Node::Type(&prm.ty), 1)));
                    stack.extend(c.inits.iter().map(|(_, e)| (Node::Expr(e), 1)));
                    block(std::iter::once(&c.body), 1, &mut stack);
                }
            }
            Item::Global(g) => {
                stack.push((Node::Type(&g.ty), 1));
                stack.extend(g.init.iter().map(|e| (Node::Expr(e), 1)));
            }
            Item::Typedef(_, ty) => stack.push((Node::Type(ty), 1)),
            Item::Include(_) | Item::Define(..) | Item::Pragma(_) => {}
        }
    }
    let mut max = 0;
    while let Some((node, d)) = stack.pop() {
        max = max.max(d);
        let next = d + 1;
        match node {
            Node::Stmt(s) => match &s.kind {
                StmtKind::Decl(v) => {
                    stack.push((Node::Type(&v.ty), next));
                    stack.extend(v.init.iter().map(|e| (Node::Expr(e), next)));
                }
                StmtKind::Expr(e) | StmtKind::Return(Some(e)) => stack.push((Node::Expr(e), next)),
                StmtKind::If(c, t, e) => {
                    stack.push((Node::Expr(c), next));
                    block(std::iter::once(t).chain(e), next, &mut stack);
                }
                StmtKind::While(c, b) | StmtKind::DoWhile(b, c) => {
                    stack.push((Node::Expr(c), next));
                    block(std::iter::once(b), next, &mut stack);
                }
                StmtKind::For(init, cond, step, b) => {
                    stack.extend(init.iter().map(|s| (Node::Stmt(s), next)));
                    stack.extend(cond.iter().chain(step).map(|e| (Node::Expr(e), next)));
                    block(std::iter::once(b), next, &mut stack);
                }
                StmtKind::Block(b) => block(std::iter::once(b), next, &mut stack),
                _ => {}
            },
            Node::Expr(e) => match &e.kind {
                ExprKind::Unary(_, a) | ExprKind::Member(a, ..) => {
                    stack.push((Node::Expr(a), next))
                }
                ExprKind::Binary(_, a, b) | ExprKind::Assign(_, a, b) | ExprKind::Index(a, b) => {
                    stack.push((Node::Expr(a), next));
                    stack.push((Node::Expr(b), next));
                }
                ExprKind::Call(_, args)
                | ExprKind::InitList(args)
                | ExprKind::StructLit(_, args) => {
                    stack.extend(args.iter().map(|a| (Node::Expr(a), next)))
                }
                ExprKind::MethodCall(recv, _, args) => {
                    stack.push((Node::Expr(recv), next));
                    stack.extend(args.iter().map(|a| (Node::Expr(a), next)));
                }
                ExprKind::Cast(ty, a) => {
                    stack.push((Node::Type(ty), next));
                    stack.push((Node::Expr(a), next));
                }
                ExprKind::SizeOf(ty) => stack.push((Node::Type(ty), next)),
                ExprKind::Ternary(a, b, c) => {
                    stack.extend([a, b, c].map(|x| (Node::Expr(x), next)))
                }
                _ => {}
            },
            Node::Type(t) => match t {
                Type::Pointer(inner) | Type::Array(inner, _) | Type::Stream(inner) => {
                    stack.push((Node::Type(inner), next))
                }
                _ => {}
            },
        }
    }
    max
}

/// Pushes a function's signature types and body statements at depth 1.
fn function<'a>(f: &'a Function, stack: &mut Vec<(Node<'a>, usize)>) {
    stack.push((Node::Type(&f.ret), 1));
    stack.extend(f.params.iter().map(|prm| (Node::Type(&prm.ty), 1)));
    block(f.body.iter(), 1, stack);
}

/// Pushes the statements of `blocks` at depth `d`.
fn block<'a>(
    blocks: impl Iterator<Item = &'a Block>,
    d: usize,
    stack: &mut Vec<(Node<'a>, usize)>,
) {
    for b in blocks {
        stack.extend(b.stmts.iter().map(|s| (Node::Stmt(s), d)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_counts_statements_expressions_and_types() {
        let p = crate::parse("int k(int x) { return x; }").unwrap();
        // return -> x
        assert_eq!(ast_depth(&p), 2);
        let p = crate::parse("int k(int x) { if (x) { while (x) { x = -x + 1; } } return x; }")
            .unwrap();
        // if -> while -> expr stmt -> `=` -> `+` -> `-` -> x
        assert_eq!(ast_depth(&p), 7);
        let p = crate::parse("int **g;").unwrap();
        assert_eq!(ast_depth(&p), 3);
    }

    #[test]
    fn a_chain_far_past_the_bound_is_measured_without_recursion() {
        let mut e = Expr::ident("x");
        for _ in 0..100_000 {
            e = Expr::bin(crate::ast::BinOp::Add, e, Expr::ident("x"));
        }
        let mut p = crate::parse("int k(int x) { return x; }").unwrap();
        let body = &mut p.function_mut("k").unwrap().body.as_mut().unwrap().stmts;
        body[0].kind = StmtKind::Return(Some(e));
        assert_eq!(ast_depth(&p), 100_002);
        // Dropping a deep `Box` chain recurses too; keep it off this stack.
        std::mem::forget(p);
    }
}
