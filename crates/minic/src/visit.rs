//! The one traversal of the AST.
//!
//! Two walks know the generic structure of the tree, and every generic
//! walker in the workspace is a projection of them:
//!
//! - **The statement walk**, [`walk_block_nodes`] / [`walk_stmt_nodes`] and
//!   their `_mut` forms, visits a statement subtree in pre-order. A
//!   statement comes before its expressions and child statements, which
//!   follow in source order (the one definition of that order is
//!   [`stmt_children`]):
//!   - `Decl`, `Expr`, `Return`: the initializer or expression;
//!   - `If`: condition, then-block, else-block;
//!   - `While`: condition, body;
//!   - `DoWhile`: body, then condition;
//!   - `For`: initializer, condition, step, body;
//!   - `Block`: the block.
//!
//!   The mutable form also yields each block before its statements. The
//!   walk yields the root of each expression; [`walk_expr`] /
//!   [`walk_expr_mut`] walk an expression tree, outermost first and
//!   operands left to right. [`walk_stmt`] and [`walk_stmt_exprs`] project
//!   the walk to statements and to expressions.
//! - **The item iterator**, [`item_code`] / [`item_code_mut`], yields the
//!   parts of an item that hold code, in source order: a function; a
//!   struct's methods, its constructor's member initializers and its
//!   constructor body; a global's initializer.
//!
//! The whole-program visitors ([`visit_exprs`], [`visit_stmts`],
//! [`visit_blocks_mut`], …) walk every part the item iterator yields, so
//! they all cover the same code, and [`Program::renumber_synthesized`]
//! assigns ids in the same order. The mutable ones unshare every item and
//! block they visit (see [`Item`] and [`Block`]). Edits use the `_where`
//! forms ([`CodeMut::walk_where`], [`visit_function_blocks_mut_where`],
//! [`visit_blocks_mut_where`], [`visit_exprs_mut_where`]), which enter and
//! unshare only the items and blocks a read-only check accepts.
//!
//! Walkers that carry context or compute semantics (the printer, the
//! parser, the type checker, fingerprint hashing, the bytecode compiler,
//! the interpreter, coverage) keep their own recursion.
//!
//! The repair templates are closures over these walkers rather than
//! implementations of a visitor trait: each typically needs "every
//! expression", "every block (with mutation)" or "every declared type".

use crate::ast::*;
use crate::types::Type;
use std::iter::once;
use std::sync::Arc;

/// A direct child of a statement, as [`stmt_children`] yields it.
#[derive(Debug, Clone, Copy)]
pub enum Child<'a> {
    /// The root of one of the statement's expressions.
    Expr(&'a Expr),
    /// A `for` initializer.
    Stmt(&'a Stmt),
    /// A nested block.
    Block(&'a Block),
}

/// A direct child of a statement, as [`stmt_children_mut`] yields it.
#[derive(Debug)]
enum ChildMut<'a> {
    /// The root of one of the statement's expressions.
    Expr(&'a mut Expr),
    /// A `for` initializer.
    Stmt(&'a mut Stmt),
    /// A nested block.
    Block(&'a mut Block),
}

/// Yields the direct children of a statement in the order the module docs
/// give. This is the one definition of that order: every walk below and
/// the block digests are built on it.
pub fn stmt_children<'a, F: FnMut(Child<'a>) + ?Sized>(s: &'a Stmt, f: &mut F) {
    match &s.kind {
        StmtKind::Decl(VarDecl { init: Some(e), .. })
        | StmtKind::Expr(e)
        | StmtKind::Return(Some(e)) => f(Child::Expr(e)),
        StmtKind::If(c, t, e) => {
            f(Child::Expr(c));
            f(Child::Block(t));
            if let Some(e) = e {
                f(Child::Block(e));
            }
        }
        StmtKind::While(c, b) => {
            f(Child::Expr(c));
            f(Child::Block(b));
        }
        StmtKind::DoWhile(b, c) => {
            f(Child::Block(b));
            f(Child::Expr(c));
        }
        StmtKind::For(init, cond, step, b) => {
            if let Some(i) = init {
                f(Child::Stmt(i));
            }
            if let Some(c) = cond {
                f(Child::Expr(c));
            }
            if let Some(st) = step {
                f(Child::Expr(st));
            }
            f(Child::Block(b));
        }
        StmtKind::Block(b) => f(Child::Block(b)),
        _ => {}
    }
}

/// Mutable form of [`stmt_children`].
fn stmt_children_mut<'a, F: FnMut(ChildMut<'a>) + ?Sized>(s: &'a mut Stmt, f: &mut F) {
    match &mut s.kind {
        StmtKind::Decl(VarDecl { init: Some(e), .. })
        | StmtKind::Expr(e)
        | StmtKind::Return(Some(e)) => f(ChildMut::Expr(e)),
        StmtKind::If(c, t, e) => {
            f(ChildMut::Expr(c));
            f(ChildMut::Block(t));
            if let Some(e) = e {
                f(ChildMut::Block(e));
            }
        }
        StmtKind::While(c, b) => {
            f(ChildMut::Expr(c));
            f(ChildMut::Block(b));
        }
        StmtKind::DoWhile(b, c) => {
            f(ChildMut::Block(b));
            f(ChildMut::Expr(c));
        }
        StmtKind::For(init, cond, step, b) => {
            if let Some(i) = init {
                f(ChildMut::Stmt(i));
            }
            if let Some(c) = cond {
                f(ChildMut::Expr(c));
            }
            if let Some(st) = step {
                f(ChildMut::Expr(st));
            }
            f(ChildMut::Block(b));
        }
        StmtKind::Block(b) => f(ChildMut::Block(b)),
        _ => {}
    }
}

/// A node of a statement subtree, as [`walk_stmt_nodes`] yields it.
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    /// A statement, before its expressions and child statements.
    Stmt(&'a Stmt),
    /// The root of one of a statement's expressions.
    Expr(&'a Expr),
}

/// A node of a statement subtree, as [`walk_stmt_nodes_mut`] yields it. The
/// callback sees each node before the walk descends into it, so it may
/// insert or remove a block's statements, or replace a statement or an
/// expression.
#[derive(Debug)]
pub enum NodeMut<'a> {
    /// A block, before its statements.
    Block(&'a mut Block),
    /// A statement, before its expressions and child statements.
    Stmt(&'a mut Stmt),
    /// The root of one of a statement's expressions.
    Expr(&'a mut Expr),
}

/// Walks a block's statements and everything under them, down to
/// expression roots, in the order the module docs give.
pub fn walk_block_nodes<'a, F: FnMut(Node<'a>) + ?Sized>(b: &'a Block, f: &mut F) {
    for s in b.stmts() {
        walk_stmt_nodes(s, f);
    }
}

/// Walks a statement and everything under it, down to expression roots, in
/// the order the module docs give.
pub fn walk_stmt_nodes<'a, F: FnMut(Node<'a>) + ?Sized>(s: &'a Stmt, f: &mut F) {
    f(Node::Stmt(s));
    stmt_children(s, &mut |c| match c {
        Child::Expr(e) => f(Node::Expr(e)),
        Child::Stmt(i) => walk_stmt_nodes(i, f),
        Child::Block(b) => walk_block_nodes(b, f),
    });
}

/// Mutable form of [`walk_block_nodes`]; it also yields the block itself,
/// before its statements. Unshares every block it walks.
pub fn walk_block_nodes_mut<F: FnMut(NodeMut<'_>) + ?Sized>(b: &mut Block, f: &mut F) {
    walk_block_nodes_mut_where(b, &mut |_| true, f);
}

/// Mutable form of [`walk_stmt_nodes`].
pub fn walk_stmt_nodes_mut<F: FnMut(NodeMut<'_>) + ?Sized>(s: &mut Stmt, f: &mut F) {
    walk_stmt_nodes_mut_where(s, &mut |_| true, f);
}

/// [`walk_block_nodes_mut`] restricted to the blocks `enter` accepts (see
/// [`CodeMut::walk_where`]).
fn walk_block_nodes_mut_where<E, F>(b: &mut Block, enter: &mut E, f: &mut F)
where
    E: FnMut(&Block) -> bool + ?Sized,
    F: FnMut(NodeMut<'_>) + ?Sized,
{
    if !enter(b) {
        return;
    }
    f(NodeMut::Block(b));
    for s in b.stmts_mut() {
        walk_stmt_nodes_mut_where(s, enter, f);
    }
}

/// [`walk_stmt_nodes_mut`] restricted to the blocks `enter` accepts (see
/// [`walk_block_nodes_mut_where`]).
fn walk_stmt_nodes_mut_where<E, F>(s: &mut Stmt, enter: &mut E, f: &mut F)
where
    E: FnMut(&Block) -> bool + ?Sized,
    F: FnMut(NodeMut<'_>) + ?Sized,
{
    f(NodeMut::Stmt(s));
    stmt_children_mut(s, &mut |c| match c {
        ChildMut::Expr(e) => f(NodeMut::Expr(e)),
        ChildMut::Stmt(i) => walk_stmt_nodes_mut_where(i, enter, f),
        ChildMut::Block(b) => walk_block_nodes_mut_where(b, enter, f),
    });
}

/// Whether a node under `b` satisfies `hit`: a read-only walk that
/// unshares nothing.
pub fn block_holds(b: &Block, hit: &dyn Fn(Node<'_>) -> bool) -> bool {
    let mut found = false;
    walk_block_nodes(b, &mut |n| found = found || hit(n));
    found
}

/// Whether an expression tree holds a node satisfying `hit`.
pub(crate) fn expr_holds(e: &Expr, hit: &dyn Fn(&Expr) -> bool) -> bool {
    let mut found = false;
    walk_expr(e, &mut |e| found = found || hit(e));
    found
}

/// Walks one statement's nested statements, outermost first.
pub fn walk_stmt<'a, F: FnMut(&'a Stmt) + ?Sized>(s: &'a Stmt, f: &mut F) {
    walk_stmt_nodes(s, &mut |n| {
        if let Node::Stmt(s) = n {
            f(s);
        }
    });
}

/// Walks every expression inside one statement.
pub fn walk_stmt_exprs<'a, F: FnMut(&'a Expr) + ?Sized>(s: &'a Stmt, f: &mut F) {
    walk_stmt_nodes(s, &mut |n| {
        if let Node::Expr(e) = n {
            walk_expr(e, f);
        }
    });
}

/// Mutable variant of [`walk_stmt_exprs`].
pub fn walk_stmt_exprs_mut<F: FnMut(&mut Expr) + ?Sized>(s: &mut Stmt, f: &mut F) {
    walk_stmt_nodes_mut(s, &mut |n| {
        if let NodeMut::Expr(e) = n {
            walk_expr_mut(e, f);
        }
    });
}

/// Walks one expression tree, outermost first.
pub fn walk_expr<'a, F: FnMut(&'a Expr) + ?Sized>(e: &'a Expr, f: &mut F) {
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
pub fn walk_expr_mut<F: FnMut(&mut Expr) + ?Sized>(e: &mut Expr, f: &mut F) {
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

/// A part of an item that holds code, as [`item_code`] yields it.
#[derive(Debug, Clone, Copy)]
pub enum Code<'a> {
    /// A function (definition or prototype) or a struct method.
    Function(&'a Function),
    /// A constructor body.
    Block(&'a Block),
    /// A constructor's member initializer or a global's initializer.
    Expr(&'a Expr),
}

impl<'a> Code<'a> {
    /// Walks this part's statements and expression roots: a body through
    /// [`walk_block_nodes`]; an initializer is one expression root.
    pub fn walk<F: FnMut(Node<'a>) + ?Sized>(self, f: &mut F) {
        match self {
            Code::Function(func) => {
                if let Some(b) = &func.body {
                    walk_block_nodes(b, f);
                }
            }
            Code::Block(b) => walk_block_nodes(b, f),
            Code::Expr(e) => f(Node::Expr(e)),
        }
    }
}

/// A part of an item that holds code, as [`item_code_mut`] yields it.
#[derive(Debug)]
pub enum CodeMut<'a> {
    /// A function (definition or prototype) or a struct method.
    Function(&'a mut Function),
    /// A constructor body.
    Block(&'a mut Block),
    /// A constructor's member initializer or a global's initializer.
    Expr(&'a mut Expr),
}

impl CodeMut<'_> {
    /// Mutable form of [`Code::walk`].
    pub fn walk<F: FnMut(NodeMut<'_>) + ?Sized>(self, f: &mut F) {
        self.walk_where(&mut |_| true, f);
    }

    /// [`CodeMut::walk`] restricted to the blocks `enter` accepts. A block
    /// `enter` refuses (it sees the block before anything is unshared) is
    /// neither yielded nor walked, and stays shared; an initializer is
    /// always walked. This is the path rule for edits: a check like
    /// `|b| block_holds(b, &hit)` copies only the blocks on the paths down
    /// to the nodes an edit rewrites, and the walk still visits those nodes
    /// in the order [`CodeMut::walk`] would.
    pub fn walk_where<E, F>(self, enter: &mut E, f: &mut F)
    where
        E: FnMut(&Block) -> bool + ?Sized,
        F: FnMut(NodeMut<'_>) + ?Sized,
    {
        match self {
            CodeMut::Function(func) => {
                if let Some(b) = &mut func.body {
                    walk_block_nodes_mut_where(b, enter, f);
                }
            }
            CodeMut::Block(b) => walk_block_nodes_mut_where(b, enter, f),
            CodeMut::Expr(e) => f(NodeMut::Expr(e)),
        }
    }
}

/// Iterates over the parts of `item` that hold code, in source order: a
/// function; a struct's methods, then its constructor's member
/// initializers, then its constructor body; a global's initializer. Other
/// items hold none.
pub fn item_code(item: &Item) -> impl Iterator<Item = Code<'_>> {
    let (functions, ctor, init): (&[Function], _, _) = match item {
        Item::Function(f) => (std::slice::from_ref(&**f), None, None),
        Item::Struct(s) => (&s.methods, s.ctor.as_ref(), None),
        Item::Global(g) => (&[], None, g.init.as_ref()),
        _ => (&[], None, None),
    };
    functions
        .iter()
        .map(Code::Function)
        .chain(ctor.into_iter().flat_map(|c| {
            c.inits
                .iter()
                .map(|(_, e)| Code::Expr(e))
                .chain(once(Code::Block(&c.body)))
        }))
        .chain(init.map(Code::Expr))
}

/// Mutable form of [`item_code`]. Unshares a function or struct item.
pub fn item_code_mut(item: &mut Item) -> impl Iterator<Item = CodeMut<'_>> {
    let (functions, ctor, init): (&mut [Function], _, _) = match item {
        Item::Function(f) => (std::slice::from_mut(Arc::make_mut(f)), None, None),
        Item::Struct(s) => {
            let s = Arc::make_mut(s);
            (&mut s.methods, s.ctor.as_mut(), None)
        }
        Item::Global(g) => (&mut [], None, g.init.as_mut()),
        _ => (&mut [], None, None),
    };
    functions
        .iter_mut()
        .map(CodeMut::Function)
        .chain(ctor.into_iter().flat_map(|c| {
            let Ctor { inits, body, .. } = c;
            inits
                .iter_mut()
                .map(|(_, e)| CodeMut::Expr(e))
                .chain(once(CodeMut::Block(body)))
        }))
        .chain(init.map(CodeMut::Expr))
}

/// Walks every part of every item that holds code (see [`item_code`]).
fn walk_program<'a>(p: &'a Program, f: &mut impl FnMut(Node<'a>)) {
    for code in p.items.iter().flat_map(item_code) {
        code.walk(f);
    }
}

/// Mutable form of [`walk_program`]. Unshares every function and struct.
fn walk_program_mut(p: &mut Program, f: &mut impl FnMut(NodeMut<'_>)) {
    for code in p.items.iter_mut().flat_map(item_code_mut) {
        code.walk(f);
    }
}

/// Visits every expression in the program (including struct methods,
/// constructors and global initializers), outermost first.
pub fn visit_exprs(p: &Program, f: &mut dyn FnMut(&Expr)) {
    walk_program(p, &mut |n| {
        if let Node::Expr(e) = n {
            walk_expr(e, f);
        }
    });
}

/// Visits every expression within one function.
pub fn visit_function_exprs(func: &Function, f: &mut dyn FnMut(&Expr)) {
    Code::Function(func).walk(&mut |n| {
        if let Node::Expr(e) = n {
            walk_expr(e, f);
        }
    });
}

/// [`walk_program_mut`] over only the items and blocks that hold a node
/// `hit` accepts, found by a read-only walk first: every other item and
/// block stays shared. `f` sees every node of the blocks it enters, and an
/// entered item's initializers.
fn walk_program_mut_where(
    p: &mut Program,
    hit: &dyn Fn(Node<'_>) -> bool,
    f: &mut dyn FnMut(NodeMut<'_>),
) {
    for item in &mut p.items {
        let mut held = false;
        for code in item_code(item) {
            code.walk(&mut |n| held = held || hit(n));
        }
        if held {
            for code in item_code_mut(item) {
                code.walk_where(&mut |b| block_holds(b, hit), f);
            }
        }
    }
}

/// Mutable form of [`visit_exprs`], over only the items and blocks that
/// hold an expression `hit` accepts (see [`CodeMut::walk_where`]): `f` sees
/// every expression of the blocks it enters, and an entered item's
/// initializers, outermost first.
pub fn visit_exprs_mut_where(
    p: &mut Program,
    hit: &dyn Fn(&Expr) -> bool,
    f: &mut dyn FnMut(&mut Expr),
) {
    walk_program_mut_where(
        p,
        &|n| matches!(n, Node::Expr(e) if expr_holds(e, hit)),
        &mut |n| {
            if let NodeMut::Expr(e) = n {
                walk_expr_mut(e, f);
            }
        },
    );
}

/// Visits every statement in the program (including struct methods and
/// constructor bodies), outermost first.
pub fn visit_stmts(p: &Program, f: &mut dyn FnMut(&Stmt)) {
    walk_program(p, &mut |n| {
        if let Node::Stmt(s) = n {
            f(s);
        }
    });
}

/// Visits every block in the program (function bodies, method and
/// constructor bodies, and nested blocks), with mutation. The callback may
/// insert/remove statements.
pub fn visit_blocks_mut(p: &mut Program, f: &mut dyn FnMut(&mut Block)) {
    walk_program_mut(p, &mut |n| {
        if let NodeMut::Block(b) = n {
            f(b);
        }
    });
}

/// [`visit_blocks_mut`] over only the items and blocks that hold a node
/// `hit` accepts (see [`CodeMut::walk_where`]).
pub fn visit_blocks_mut_where(
    p: &mut Program,
    hit: &dyn Fn(Node<'_>) -> bool,
    f: &mut dyn FnMut(&mut Block),
) {
    walk_program_mut_where(p, hit, &mut |n| {
        if let NodeMut::Block(b) = n {
            f(b);
        }
    });
}

/// Visits, with mutation and in the order [`visit_blocks_mut`] would, the
/// blocks of one function that hold a node `hit` accepts (the body and
/// nested blocks on the paths down to such nodes), and only those: every
/// other block stays shared (see [`CodeMut::walk_where`]).
pub fn visit_function_blocks_mut_where(
    func: &mut Function,
    hit: &dyn Fn(Node<'_>) -> bool,
    f: &mut dyn FnMut(&mut Block),
) {
    CodeMut::Function(func).walk_where(&mut |b| block_holds(b, hit), &mut |n| {
        if let NodeMut::Block(b) = n {
            f(b);
        }
    });
}

/// Visits every declared type in the program: globals, locals, parameters,
/// returns, fields, typedefs and cast targets, in the order
/// [`visit_types_mut`] visits them.
pub fn visit_types(p: &Program, f: &mut dyn FnMut(&Type)) {
    for item in &p.items {
        item_types(item, f);
    }
}

/// Visits every declared type of one item (see [`visit_types`]).
fn item_types(item: &Item, f: &mut dyn FnMut(&Type)) {
    match item {
        Item::Struct(s) => {
            for fld in &s.fields {
                f(&fld.ty);
            }
            for par in s.ctor.iter().flat_map(|c| &c.params) {
                f(&par.ty);
            }
        }
        Item::Global(g) => f(&g.ty),
        Item::Typedef(_, t) => f(t),
        _ => {}
    }
    for code in item_code(item) {
        if let Code::Function(func) = code {
            f(&func.ret);
            for par in &func.params {
                f(&par.ty);
            }
        }
        code.walk(&mut |n| node_types(n, f));
    }
}

/// Visits the types one statement-walk node declares or casts to: a
/// declaration's type, and the cast and `sizeof` targets in an expression.
fn node_types(n: Node<'_>, f: &mut dyn FnMut(&Type)) {
    match n {
        Node::Stmt(Stmt {
            kind: StmtKind::Decl(d),
            ..
        }) => f(&d.ty),
        Node::Expr(e) => walk_expr(e, &mut |e| {
            if let ExprKind::Cast(t, _) | ExprKind::SizeOf(t) = &e.kind {
                f(t);
            }
        }),
        _ => {}
    }
}

/// Visits with mutation, in the order [`visit_types`] reads them, the
/// declared types `hit` accepts, copying only the items and blocks that
/// hold one: every other item and block stays shared.
pub fn visit_types_mut(p: &mut Program, hit: &dyn Fn(&Type) -> bool, f: &mut dyn FnMut(&mut Type)) {
    let mut f = |t: &mut Type| {
        if hit(t) {
            f(t);
        }
    };
    let declares = |n: Node<'_>| {
        let mut held = false;
        node_types(n, &mut |t| held = held || hit(t));
        held
    };
    for item in &mut p.items {
        let mut held = false;
        item_types(item, &mut |t| held = held || hit(t));
        if !held {
            continue;
        }
        match item {
            Item::Struct(s) => {
                let s = Arc::make_mut(s);
                for fld in &mut s.fields {
                    f(&mut fld.ty);
                }
                for par in s.ctor.iter_mut().flat_map(|c| &mut c.params) {
                    f(&mut par.ty);
                }
            }
            Item::Global(g) => f(&mut g.ty),
            Item::Typedef(_, t) => f(t),
            _ => {}
        }
        for mut code in item_code_mut(item) {
            if let CodeMut::Function(func) = &mut code {
                f(&mut func.ret);
                for par in &mut func.params {
                    f(&mut par.ty);
                }
            }
            code.walk_where(&mut |b| block_holds(b, &declares), &mut |n| match n {
                NodeMut::Stmt(Stmt {
                    kind: StmtKind::Decl(d),
                    ..
                }) => f(&mut d.ty),
                NodeMut::Expr(e) => walk_expr_mut(e, &mut |e| {
                    if let ExprKind::Cast(t, _) | ExprKind::SizeOf(t) = &mut e.kind {
                        f(t);
                    }
                }),
                _ => {}
            });
        }
    }
}

/// Visits every node id of `item` in walk order: a struct's id, then for
/// each part [`item_code`] yields, a function's id and then its statement
/// and expression ids.
#[cfg(test)]
pub(crate) fn item_node_ids(item: &Item, f: &mut impl FnMut(NodeId)) {
    if let Item::Struct(s) = item {
        f(s.id);
    }
    for code in item_code(item) {
        if let Code::Function(func) = code {
            f(func.id);
        }
        code.walk(&mut |n| match n {
            Node::Stmt(s) => f(s.id),
            Node::Expr(e) => walk_expr(e, &mut |e| f(e.id)),
        });
    }
}

/// Mutable form of [`item_node_ids`], restricted to the blocks `enter`
/// accepts (see [`walk_block_nodes_mut_where`]). Unshares a function or
/// struct item.
pub(crate) fn item_node_ids_mut(
    item: &mut Item,
    enter: &mut impl FnMut(&Block) -> bool,
    f: &mut impl FnMut(&mut NodeId),
) {
    if let Item::Struct(s) = item {
        f(&mut Arc::make_mut(s).id);
    }
    for mut code in item_code_mut(item) {
        if let CodeMut::Function(func) = &mut code {
            f(&mut func.id);
        }
        code.walk_where(enter, &mut |n| match n {
            NodeMut::Block(_) => {}
            NodeMut::Stmt(s) => f(&mut s.id),
            NodeMut::Expr(e) => walk_expr_mut(e, &mut |e| f(&mut e.id)),
        });
    }
}

/// Whether `item` holds a node with the id [`NodeId::SYNTH`]. Reads the
/// blocks' memos where they are filled (see [`Block::digest`]).
pub(crate) fn item_holds_synth(item: &Item) -> bool {
    let synth = |id: NodeId| id == NodeId::SYNTH;
    let expr_synth = |e: &Expr| expr_holds(e, &|e| synth(e.id));
    matches!(item, Item::Struct(s) if synth(s.id))
        || item_code(item).any(|code| match code {
            Code::Function(func) => {
                synth(func.id) || func.body.as_ref().is_some_and(Block::holds_synth)
            }
            Code::Block(b) => b.holds_synth(),
            Code::Expr(e) => expr_synth(e),
        })
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
        let is_a = |e: &Expr| matches!(&e.kind, ExprKind::Ident(n) if n == "a");
        visit_exprs_mut_where(&mut p, &is_a, &mut |e| {
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
        visit_types_mut(&mut p, &|t| *t == crate::Type::LongDouble, &mut |t| {
            *t = crate::Type::Double;
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

    /// One program holding every statement and expression kind, a
    /// declaration in a `for` initializer, a `do`/`while` body and an `else`
    /// branch, a struct with a method and a constructor with initializers,
    /// and a global initializer.
    const EVERY_KIND: &str = r#"
        int g = 1 + 2;
        struct S {
            int v;
            S(int a) : v(a * 2) { v = v + 1; }
            int get(int k) { return v + k; }
        };
        int f(int n) {
            int a[2] = {1, 2};
            S s = S{n};
            for (int i = 0; i < n; i++) {
            #pragma HLS pipeline
                a[i % 2] += s.get(i);
            }
            do { int t = -n; n = t; } while (n < 0);
            if (n > 0) { n--; } else { int e = (int)1.5; n = e ? sizeof(int) : 'c'; }
            while (n > 10) { if (true) { break; } n = n - 1; continue; }
            { puts("x"); ; }
            goto done;
            done:
            return a[0] + s.v;
        }
    "#;

    /// Pins the order the walkers visit nodes in, and the ids
    /// [`Program::renumber_synthesized`] assigns to an all-`SYNTH` copy.
    #[test]
    fn traversal_order_is_pinned() {
        let p = parse(EVERY_KIND).unwrap();
        let stmts = |p: &Program| {
            let mut out = Vec::new();
            visit_stmts(p, &mut |s| out.push(s.id.0));
            out
        };
        let exprs = |p: &Program| {
            let mut out = Vec::new();
            visit_exprs(p, &mut |e| out.push(e.id.0));
            out
        };
        let item_ids = |p: &Program| {
            let mut out = Vec::new();
            for item in &p.items {
                match item {
                    Item::Function(f) => out.push(f.id.0),
                    Item::Struct(s) => {
                        out.push(s.id.0);
                        out.extend(s.methods.iter().map(|m| m.id.0));
                    }
                    _ => {}
                }
            }
            out
        };
        let mut blocks = Vec::new();
        visit_blocks_mut(&mut p.clone(), &mut |b| {
            blocks.push(b.stmts().iter().map(|s| s.id.0).collect::<Vec<_>>());
        });
        // `12` is the constructor body's statement.
        assert_eq!(
            stmts(&p),
            [
                17, 12, 22, 25, 45, 27, 33, 44, 56, 48, 52, 73, 62, 65, 72, 87, 79, 78, 85, 86, 93,
                91, 92, 94, 95, 102
            ]
        );
        assert_eq!(
            exprs(&p),
            [
                2, 0, 1, 16, 14, 15, 6, 4, 5, 11, 7, 10, 8, 9, 21, 19, 20, 24, 23, 26, 30, 28, 29,
                32, 31, 43, 38, 34, 37, 35, 36, 42, 39, 41, 47, 46, 51, 49, 50, 55, 53, 54, 59, 57,
                58, 61, 60, 64, 63, 71, 66, 70, 67, 68, 69, 76, 74, 75, 77, 84, 80, 83, 81, 82, 90,
                89, 101, 98, 96, 97, 100, 99
            ]
        );
        let expected_blocks: [&[u32]; 10] = [
            &[17],
            &[12],
            &[22, 25, 45, 56, 73, 87, 93, 94, 95, 102],
            &[33, 44],
            &[48, 52],
            &[62],
            &[65, 72],
            &[79, 85, 86],
            &[78],
            &[91, 92],
        ];
        assert_eq!(blocks, expected_blocks);
        assert_eq!(item_ids(&p), [3, 13, 18]);

        // An all-`SYNTH` copy is renumbered in walk order: every id from
        // the parser's counter on, with no gaps.
        let mut q = p.clone();
        for item in &mut q.items {
            match item {
                Item::Function(f) => Arc::make_mut(f).id = NodeId::SYNTH,
                Item::Struct(s) => {
                    let s = Arc::make_mut(s);
                    s.id = NodeId::SYNTH;
                    for m in &mut s.methods {
                        m.id = NodeId::SYNTH;
                    }
                }
                _ => {}
            }
        }
        visit_blocks_mut(&mut q, &mut |b| {
            for s in b.stmts_mut() {
                s.id = NodeId::SYNTH;
                if let StmtKind::For(Some(init), ..) = &mut s.kind {
                    init.id = NodeId::SYNTH;
                }
            }
        });
        visit_exprs_mut_where(&mut q, &|_| true, &mut |e| e.id = NodeId::SYNTH);
        q.renumber_synthesized();
        assert_eq!(
            stmts(&q),
            [
                108, 115, 122, 126, 129, 130, 137, 138, 148, 149, 152, 159, 163, 166, 169, 176,
                180, 182, 183, 189, 190, 191, 194, 195, 196, 197
            ]
        );
        assert_eq!(
            exprs(&q),
            [
                103, 104, 105, 109, 110, 111, 112, 113, 114, 116, 117, 118, 119, 120, 123, 124,
                125, 127, 128, 131, 132, 133, 134, 135, 136, 139, 140, 141, 142, 143, 144, 145,
                146, 147, 150, 151, 153, 154, 155, 156, 157, 158, 160, 161, 162, 164, 165, 167,
                168, 170, 171, 172, 173, 174, 175, 177, 178, 179, 181, 184, 185, 186, 187, 188,
                192, 193, 198, 199, 200, 201, 202, 203
            ]
        );
        assert_eq!(item_ids(&q), [106, 107, 121]);
    }

    /// [`visit_types`] reads the types [`visit_types_mut`] writes, in the
    /// same order.
    #[test]
    fn visit_types_agrees_with_visit_types_mut() {
        let src =
            format!("typedef long word;\n{EVERY_KIND}\nlong double h(float x) {{ return x; }}");
        let mut p = parse(&src).unwrap();
        let mut read = Vec::new();
        visit_types(&p, &mut |t| read.push(t.clone()));
        let mut written = Vec::new();
        visit_types_mut(&mut p, &|_| true, &mut |t| written.push(t.clone()));
        assert_eq!(read, written);
        assert!(read.len() > 15, "{}", read.len());
        assert!(read.contains(&crate::Type::LongDouble));
        assert!(read.contains(&crate::Type::Float));
    }

    /// The immutable and mutable forms of the walk, and of the id walk that
    /// renumbering uses, yield the same nodes in the same order.
    #[test]
    fn immutable_and_mutable_walks_agree() {
        let mut p = parse(EVERY_KIND).unwrap();
        let mut read = Vec::new();
        let mut ids = Vec::new();
        for item in &p.items {
            for code in item_code(item) {
                code.walk(&mut |n| {
                    read.push(match n {
                        Node::Stmt(s) => ('s', s.id.0),
                        Node::Expr(e) => ('e', e.id.0),
                    })
                });
            }
            item_node_ids(item, &mut |id| ids.push(id.0));
        }
        let mut written = Vec::new();
        let mut ids_mut = Vec::new();
        for item in &mut p.items {
            for code in item_code_mut(item) {
                code.walk(&mut |n| match n {
                    NodeMut::Block(_) => {}
                    NodeMut::Stmt(s) => written.push(('s', s.id.0)),
                    NodeMut::Expr(e) => written.push(('e', e.id.0)),
                });
            }
            item_node_ids_mut(item, &mut |_| true, &mut |id| ids_mut.push(id.0));
        }
        assert_eq!(read, written);
        assert_eq!(ids, ids_mut);
        let mut distinct = ids.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), ids.len(), "no id is visited twice");
    }

    #[test]
    fn blocks_mut_can_insert_statements() {
        let mut p = parse("void f() { int a = 1; }").unwrap();
        visit_blocks_mut(&mut p, &mut |b| {
            b.stmts_mut().push(Stmt::synth(StmtKind::Return(None)));
        });
        p.renumber_synthesized();
        let s = crate::print_program(&p);
        assert!(s.contains("return;"));
    }
}
