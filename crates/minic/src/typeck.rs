//! A permissive type checker.
//!
//! The checker resolves names, checks call arity and field accesses, and
//! records an inferred type for every expression node. It is deliberately
//! lenient about implicit conversions — C programs the paper targets rely on
//! them — and records a [`TypeError`] instead of aborting wherever possible.

use crate::ast::*;
use crate::error::TypeError;
use crate::types::{IntWidth, Type};
use crate::visit;
use std::collections::HashMap;

/// The result of type checking: inferred expression types plus diagnostics.
#[derive(Debug, Clone, Default)]
pub struct TypeInfo {
    /// Inferred type per expression node.
    pub expr_types: HashMap<NodeId, Type>,
    /// Non-fatal semantic diagnostics.
    pub errors: Vec<TypeError>,
}

impl TypeInfo {
    /// Whether the program type checked without diagnostics.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Names of built-in functions with (arity, return type). `None` arity means
/// variadic.
pub fn builtin_signature(name: &str) -> Option<(Option<usize>, Type)> {
    let dbl = Type::Double;
    Some(match name {
        "malloc" => (Some(1), Type::ptr(Type::Void)),
        "free" => (Some(1), Type::Void),
        "sqrt" | "fabs" | "exp" | "log" | "sin" | "cos" | "tan" | "floor" | "ceil" | "round" => {
            (Some(1), dbl)
        }
        "pow" | "fmin" | "fmax" | "atan2" | "fmod" => (Some(2), dbl),
        "abs" => (Some(1), Type::int()),
        "printf" => (None, Type::int()),
        "memcpy" | "memset" => (Some(3), Type::ptr(Type::Void)),
        _ => return None,
    })
}

/// Type checks a program.
///
/// # Examples
///
/// ```
/// let p = minic::parse("int f(int a) { return a + 1; }").unwrap();
/// let info = minic::typeck::check(&p);
/// assert!(info.is_clean());
/// ```
pub fn check(p: &Program) -> TypeInfo {
    let mut cx = Checker {
        program: p,
        info: TypeInfo::default(),
        scopes: Vec::new(),
        current_struct: None,
    };
    for item in &p.items {
        match item {
            Item::Function(f) => cx.check_function(f),
            Item::Struct(s) => {
                cx.current_struct = Some(s.name.clone());
                for m in &s.methods {
                    cx.check_function(m);
                }
                if let Some(ctor) = &s.ctor {
                    cx.scopes.push(HashMap::new());
                    for par in &ctor.params {
                        cx.declare(&par.name, par.ty.clone());
                    }
                    for (field, e) in &ctor.inits {
                        if s.field(field).is_none() {
                            cx.info.errors.push(TypeError::new(
                                format!("constructor initializes unknown field `{field}`"),
                                e.span,
                            ));
                        }
                        cx.type_expr(e);
                    }
                    cx.check_block(&ctor.body);
                    cx.scopes.pop();
                }
                cx.current_struct = None;
            }
            Item::Global(g) => {
                if let Some(init) = &g.init {
                    cx.type_expr(init);
                }
            }
            _ => {}
        }
    }
    cx.info
}

struct Checker<'a> {
    program: &'a Program,
    info: TypeInfo,
    scopes: Vec<HashMap<String, Type>>,
    current_struct: Option<String>,
}

impl<'a> Checker<'a> {
    fn declare(&mut self, name: &str, ty: Type) {
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), ty);
        }
    }

    fn lookup(&self, name: &str) -> Option<Type> {
        for scope in self.scopes.iter().rev() {
            if let Some(t) = scope.get(name) {
                return Some(t.clone());
            }
        }
        // Fields of the enclosing struct (method bodies).
        if let Some(sname) = &self.current_struct {
            if let Some(s) = self.program.struct_def(sname) {
                if let Some(f) = s.field(name) {
                    return Some(f.ty.clone());
                }
            }
        }
        if let Some(g) = self.program.global(name) {
            return Some(g.ty.clone());
        }
        if self.program.define(name).is_some() {
            return Some(Type::int());
        }
        None
    }

    fn resolve(&self, t: &Type) -> Type {
        t.resolve_named(&|n| self.program.typedef(n).cloned())
    }

    fn check_function(&mut self, f: &Function) {
        let Some(body) = &f.body else { return };
        self.scopes.push(HashMap::new());
        for par in &f.params {
            self.declare(&par.name, par.ty.clone());
        }
        self.check_block(body);
        self.scopes.pop();
    }

    fn check_block(&mut self, b: &Block) {
        self.scopes.push(HashMap::new());
        for s in b.stmts() {
            self.check_stmt(s);
        }
        self.scopes.pop();
    }

    fn check_stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl(d) => {
                if let Some(init) = &d.init {
                    self.type_expr(init);
                }
                self.declare(&d.name, d.ty.clone());
            }
            StmtKind::Expr(e) => {
                self.type_expr(e);
            }
            StmtKind::If(c, t, e) => {
                self.type_expr(c);
                self.check_block(t);
                if let Some(e) = e {
                    self.check_block(e);
                }
            }
            StmtKind::While(c, b) => {
                self.type_expr(c);
                self.check_block(b);
            }
            StmtKind::DoWhile(b, c) => {
                self.check_block(b);
                self.type_expr(c);
            }
            StmtKind::For(init, cond, step, b) => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.check_stmt(i);
                }
                if let Some(c) = cond {
                    self.type_expr(c);
                }
                if let Some(st) = step {
                    self.type_expr(st);
                }
                self.check_block(b);
                self.scopes.pop();
            }
            StmtKind::Return(Some(e)) => {
                self.type_expr(e);
            }
            StmtKind::Block(b) => self.check_block(b),
            _ => {}
        }
    }

    fn err(&mut self, span: crate::token::Span, msg: impl Into<String>) {
        self.info.errors.push(TypeError::new(msg, span));
    }

    fn type_expr(&mut self, e: &Expr) -> Type {
        let t = self.type_expr_inner(e);
        self.info.expr_types.insert(e.id, t.clone());
        t
    }

    fn type_expr_inner(&mut self, e: &Expr) -> Type {
        match &e.kind {
            ExprKind::IntLit(_, unsigned) => {
                if *unsigned {
                    Type::uint()
                } else {
                    Type::int()
                }
            }
            ExprKind::FloatLit(_, true) => Type::LongDouble,
            ExprKind::FloatLit(_, false) => Type::Double,
            ExprKind::CharLit(_) => Type::Int {
                width: IntWidth::W8,
                signed: true,
            },
            ExprKind::StrLit(_) => Type::ptr(Type::Int {
                width: IntWidth::W8,
                signed: true,
            }),
            ExprKind::BoolLit(_) => Type::Bool,
            ExprKind::Ident(name) => match self.lookup(name) {
                Some(t) => self.resolve(&t),
                None => {
                    self.err(e.span, format!("use of undeclared identifier `{name}`"));
                    Type::int()
                }
            },
            ExprKind::Unary(op, a) => {
                let at = self.type_expr(a);
                match op {
                    UnOp::Deref => match at.element() {
                        Some(t) => t.clone(),
                        None => {
                            self.err(e.span, "dereference of a non-pointer value");
                            Type::int()
                        }
                    },
                    UnOp::AddrOf => Type::ptr(at),
                    UnOp::Not => Type::Bool,
                    _ => at,
                }
            }
            ExprKind::Binary(op, a, b) => {
                let at = self.type_expr(a);
                let bt = self.type_expr(b);
                if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                    Type::Bool
                } else {
                    usual_conversion(&at, &bt)
                }
            }
            ExprKind::Assign(_, a, b) => {
                let at = self.type_expr(a);
                self.type_expr(b);
                at
            }
            ExprKind::Call(name, args) => {
                let arg_types: Vec<Type> = args.iter().map(|a| self.type_expr(a)).collect();
                if let Some(f) = self.program.function(name).cloned() {
                    if f.params.len() != args.len() {
                        self.err(
                            e.span,
                            format!(
                                "call of `{name}` with {} arguments, expected {}",
                                args.len(),
                                f.params.len()
                            ),
                        );
                    }
                    return self.resolve(&f.ret);
                }
                // Prototypes (body-less declarations).
                for item in &self.program.items {
                    if let Item::Function(f) = item {
                        if f.name == *name {
                            return self.resolve(&f.ret.clone());
                        }
                    }
                }
                if let Some((arity, ret)) = builtin_signature(name) {
                    if let Some(n) = arity {
                        if n != args.len() {
                            self.err(
                                e.span,
                                format!("builtin `{name}` takes {n} arguments, got {}", args.len()),
                            );
                        }
                    }
                    return ret;
                }
                let _ = arg_types;
                self.err(e.span, format!("call of undeclared function `{name}`"));
                Type::int()
            }
            ExprKind::MethodCall(recv, method, args) => {
                let rt = self.type_expr(recv);
                for a in args {
                    self.type_expr(a);
                }
                match &rt {
                    Type::Stream(elem) => match method.as_str() {
                        "read" | "pop" => (**elem).clone(),
                        "write" | "push" => Type::Void,
                        "empty" | "full" => Type::Bool,
                        "size" => Type::int(),
                        other => {
                            self.err(e.span, format!("unknown stream method `{other}`"));
                            Type::int()
                        }
                    },
                    Type::Struct(sname) | Type::Union(sname) => {
                        match self
                            .program
                            .struct_def(sname)
                            .and_then(|s| s.method(method))
                        {
                            Some(m) => self.resolve(&m.ret.clone()),
                            None => {
                                self.err(
                                    e.span,
                                    format!("no method `{method}` on struct `{sname}`"),
                                );
                                Type::int()
                            }
                        }
                    }
                    other => {
                        self.err(
                            e.span,
                            format!("method call `{method}` on non-struct type `{other}`"),
                        );
                        Type::int()
                    }
                }
            }
            ExprKind::Index(a, i) => {
                let at = self.type_expr(a);
                self.type_expr(i);
                match at.element() {
                    Some(t) => self.resolve(t),
                    None => {
                        self.err(e.span, "indexing a non-array value");
                        Type::int()
                    }
                }
            }
            ExprKind::Member(a, field, arrow) => {
                let at = self.type_expr(a);
                let base = if *arrow {
                    match at.element() {
                        Some(t) => t.clone(),
                        None => {
                            self.err(e.span, "`->` on a non-pointer value");
                            return Type::int();
                        }
                    }
                } else {
                    at
                };
                let base = self.resolve(&base);
                match &base {
                    Type::Struct(sname) | Type::Union(sname) => {
                        match self.program.struct_def(sname).and_then(|s| s.field(field)) {
                            Some(f) => self.resolve(&f.ty.clone()),
                            None => {
                                self.err(e.span, format!("no field `{field}` on struct `{sname}`"));
                                Type::int()
                            }
                        }
                    }
                    other => {
                        self.err(
                            e.span,
                            format!("member access `.{field}` on non-struct type `{other}`"),
                        );
                        Type::int()
                    }
                }
            }
            ExprKind::Cast(ty, a) => {
                self.type_expr(a);
                self.resolve(ty)
            }
            ExprKind::SizeOf(_) => Type::uint(),
            ExprKind::Ternary(c, t, f) => {
                self.type_expr(c);
                let tt = self.type_expr(t);
                self.type_expr(f);
                tt
            }
            ExprKind::InitList(elems) => {
                for el in elems {
                    self.type_expr(el);
                }
                Type::Void
            }
            ExprKind::StructLit(name, args) => {
                for a in args {
                    self.type_expr(a);
                }
                if self.program.struct_def(name).is_none() {
                    self.err(e.span, format!("unknown struct `{name}`"));
                }
                Type::Struct(name.clone())
            }
        }
    }
}

/// Simplified "usual arithmetic conversions": the wider/floatier type wins.
pub fn usual_conversion(a: &Type, b: &Type) -> Type {
    fn float_rank(t: &Type) -> Option<u8> {
        match t {
            Type::LongDouble => Some(3),
            Type::Double => Some(2),
            Type::FpgaFloat { .. } => Some(2),
            Type::Float => Some(1),
            _ => None,
        }
    }
    match (float_rank(a), float_rank(b)) {
        (Some(ra), Some(rb)) => {
            if ra >= rb {
                a.clone()
            } else {
                b.clone()
            }
        }
        (Some(_), None) => a.clone(),
        (None, Some(_)) => b.clone(),
        (None, None) => {
            // Pointer arithmetic keeps the pointer type.
            if a.is_pointer() || a.is_array() {
                return a.clone();
            }
            if b.is_pointer() || b.is_array() {
                return b.clone();
            }
            let wa = a.int_bits().unwrap_or(32);
            let wb = b.int_bits().unwrap_or(32);
            if wa >= wb {
                a.clone()
            } else {
                b.clone()
            }
        }
    }
}

/// Collects every variable whose declared type is `long double` (or contains
/// one) — a helper used by the unsupported-data-type repair localizer.
pub fn long_double_decls(p: &Program) -> Vec<String> {
    fn contains_ld(t: &Type) -> bool {
        match t {
            Type::LongDouble => true,
            Type::Pointer(t) | Type::Array(t, _) | Type::Stream(t) => contains_ld(t),
            _ => false,
        }
    }
    let mut out = Vec::new();
    for item in &p.items {
        if let Item::Global(g) = item {
            if contains_ld(&g.ty) {
                out.push(g.name.clone());
            }
        }
    }
    let mut finder = |s: &Stmt| {
        if let StmtKind::Decl(d) = &s.kind {
            if contains_ld(&d.ty) {
                out.push(d.name.clone());
            }
        }
    };
    visit::visit_stmts(p, &mut finder);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn clean_program_checks() {
        let p = parse("int f(int a) { int b = a * 2; return b + 1; }").unwrap();
        let info = check(&p);
        assert!(info.is_clean(), "{:?}", info.errors);
    }

    #[test]
    fn undeclared_identifier_reported() {
        let p = parse("int f() { return nope; }").unwrap();
        let info = check(&p);
        assert_eq!(info.errors.len(), 1);
        assert!(info.errors[0].message().contains("nope"));
    }

    #[test]
    fn arity_mismatch_reported() {
        let p = parse("int g(int a, int b) { return a + b; } int f() { return g(1); }").unwrap();
        let info = check(&p);
        assert!(!info.is_clean());
    }

    #[test]
    fn builtins_are_known() {
        let p = parse("double f(double x) { return sqrt(x) + pow(x, 2.0) + fabs(x); }").unwrap();
        let info = check(&p);
        assert!(info.is_clean(), "{:?}", info.errors);
    }

    #[test]
    fn malloc_returns_void_pointer() {
        let p = parse("void f() { int* p = (int*)malloc(sizeof(int)); free(p); }").unwrap();
        let info = check(&p);
        assert!(info.is_clean(), "{:?}", info.errors);
    }

    #[test]
    fn stream_methods_typed() {
        let p = parse(
            "void f(hls::stream<unsigned> &s) { unsigned v = s.read(); s.write(v + 1u); bool e = s.empty(); }",
        )
        .unwrap();
        let info = check(&p);
        assert!(info.is_clean(), "{:?}", info.errors);
    }

    #[test]
    fn struct_fields_and_methods() {
        let p = parse(
            r#"
            struct Pt { int x; int y; int norm1() { return x + y; } };
            int f(struct Pt p) { return p.x + p.norm1(); }
        "#,
        )
        .unwrap();
        let info = check(&p);
        assert!(info.is_clean(), "{:?}", info.errors);
    }

    #[test]
    fn unknown_field_reported() {
        let p = parse("struct Pt { int x; };\nint f(struct Pt p) { return p.z; }").unwrap();
        let info = check(&p);
        assert!(info.errors.iter().any(|e| e.message().contains("z")));
    }

    #[test]
    fn arrow_through_pointer() {
        let p = parse(
            "struct Node { int v; struct Node* next; };\nint f(struct Node* n) { return n->next->v; }",
        )
        .unwrap();
        let info = check(&p);
        assert!(info.is_clean(), "{:?}", info.errors);
    }

    #[test]
    fn usual_conversions_prefer_float() {
        assert_eq!(usual_conversion(&Type::int(), &Type::Float), Type::Float);
        assert_eq!(
            usual_conversion(&Type::LongDouble, &Type::Double),
            Type::LongDouble
        );
        assert_eq!(
            usual_conversion(
                &Type::Int {
                    width: IntWidth::W64,
                    signed: true
                },
                &Type::int()
            )
            .int_bits(),
            Some(64)
        );
    }

    #[test]
    fn long_double_decl_finder() {
        let p =
            parse("long double g;\nvoid f() { long double x = 0.0L; double y = 1.0; }").unwrap();
        let found = long_double_decls(&p);
        assert_eq!(found, vec!["g".to_string(), "x".to_string()]);
    }

    #[test]
    fn typedef_resolution_in_exprs() {
        let p =
            parse("typedef unsigned int Node_ptr;\nNode_ptr next(Node_ptr c) { return c + 1u; }")
                .unwrap();
        let info = check(&p);
        assert!(info.is_clean(), "{:?}", info.errors);
    }
}
