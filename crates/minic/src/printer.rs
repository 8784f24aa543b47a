//! Pretty printer: renders an AST back to C-like source.
//!
//! The output is the surface on which lines of code (and therefore the
//! paper's ΔLOC numbers) are measured, and it is re-parseable by
//! [`crate::parse`] (round-trip tested).

use crate::ast::*;
use crate::types::{ArraySize, Type};
use std::fmt::Write;

/// Renders a whole program.
///
/// # Examples
///
/// ```
/// let p = minic::parse("int f(int a) { return a + 1; }").unwrap();
/// let src = minic::print_program(&p);
/// assert!(src.contains("return a + 1;"));
/// ```
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for item in &p.items {
        match item {
            Item::Include(path) => {
                let _ = writeln!(out, "#include {path}");
            }
            Item::Define(name, value) => {
                let _ = writeln!(out, "#define {name} {value}");
            }
            Item::Pragma(pr) => {
                let _ = writeln!(out, "{pr}");
            }
            Item::Typedef(name, ty) => {
                let _ = writeln!(out, "typedef {} {name};", type_prefix(ty));
            }
            Item::Struct(s) => print_struct(&mut out, s),
            Item::Global(g) => {
                print_var_decl(&mut out, 0, g);
            }
            Item::Function(f) => print_function(&mut out, 0, f),
        }
    }
    out
}

/// The number of lines [`print_program`] writes for an item. Every line it
/// writes holds a token, and nothing it writes inside a line breaks it
/// (string literals print escaped), so this is also the item's count of
/// non-blank lines.
pub(crate) fn item_lines(item: &Item) -> usize {
    match item {
        Item::Include(_)
        | Item::Define(..)
        | Item::Pragma(_)
        | Item::Typedef(..)
        | Item::Global(_) => 1,
        Item::Struct(s) => {
            let ctor = s.ctor.as_ref().map_or(0, |c| 2 + c.body.digest().lines);
            2 + s.fields.len() + ctor + s.methods.iter().map(function_lines).sum::<usize>()
        }
        Item::Function(f) => function_lines(f),
    }
}

fn function_lines(f: &Function) -> usize {
    f.body.as_ref().map_or(1, |b| 2 + b.digest().lines)
}

/// The number of lines the printer writes for a statement (see
/// [`item_lines`]); a nested block counts by its memoized digest.
pub(crate) fn stmt_lines(s: &Stmt) -> usize {
    match &s.kind {
        StmtKind::If(_, t, e) => {
            2 + t.digest().lines + e.as_ref().map_or(0, |e| 1 + e.digest().lines)
        }
        StmtKind::While(_, b) | StmtKind::DoWhile(b, _) | StmtKind::Block(b) => {
            2 + b.digest().lines
        }
        // The initializer's last line is joined to the loop header.
        StmtKind::For(init, _, _, b) => {
            2 + b.digest().lines + init.as_ref().map_or(0, |i| stmt_lines(i) - 1)
        }
        StmtKind::Decl(_)
        | StmtKind::Expr(_)
        | StmtKind::Return(_)
        | StmtKind::Break
        | StmtKind::Continue
        | StmtKind::Pragma(_)
        | StmtKind::Label(_)
        | StmtKind::Goto(_)
        | StmtKind::Empty => 1,
    }
}

/// Renders one expression.
pub fn print_expr(e: &Expr) -> String {
    let mut out = String::new();
    expr(&mut out, e);
    out
}

fn indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("    ");
    }
}

/// The "prefix" part of a type for declarations: for arrays the element type
/// is the prefix and the dimensions are a declarator suffix.
fn type_prefix(ty: &Type) -> String {
    match ty {
        Type::Array(inner, _) => type_prefix(inner),
        other => other.to_string(),
    }
}

/// The array-dimension suffix of a declarator, outermost first.
fn type_suffix(ty: &Type) -> String {
    match ty {
        Type::Array(inner, size) => {
            let dim = match size {
                ArraySize::Const(n) => format!("[{n}]"),
                ArraySize::Named(n) => format!("[{n}]"),
                ArraySize::Runtime(n) => format!("[{n}]"),
                ArraySize::Unknown => "[]".to_string(),
            };
            format!("{dim}{}", type_suffix(inner))
        }
        _ => String::new(),
    }
}

fn print_struct(out: &mut String, s: &StructDef) {
    let kw = if s.is_union { "union" } else { "struct" };
    let _ = writeln!(out, "{kw} {} {{", s.name);
    for f in &s.fields {
        indent(out, 1);
        let amp = if f.by_ref { "&" } else { "" };
        let _ = writeln!(
            out,
            "{} {amp}{}{};",
            type_prefix(&f.ty),
            f.name,
            type_suffix(&f.ty)
        );
    }
    if let Some(ctor) = &s.ctor {
        indent(out, 1);
        let _ = write!(out, "{}({})", s.name, params_str(&ctor.params));
        for (k, (n, e)) in ctor.inits.iter().enumerate() {
            out.push_str(if k == 0 { " : " } else { ", " });
            out.push_str(n);
            out.push('(');
            expr(out, e);
            out.push(')');
        }
        out.push_str(" {\n");
        for st in ctor.body.stmts() {
            stmt(out, 2, st);
        }
        indent(out, 1);
        out.push_str("}\n");
    }
    for m in &s.methods {
        print_function(out, 1, m);
    }
    out.push_str("};\n");
}

fn params_str(params: &[Param]) -> String {
    params
        .iter()
        .map(|p| {
            let amp = if p.by_ref { "&" } else { "" };
            format!(
                "{} {amp}{}{}",
                type_prefix(&p.ty),
                p.name,
                type_suffix(&p.ty)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn print_function(out: &mut String, level: usize, f: &Function) {
    indent(out, level);
    let staticity = if f.is_static { "static " } else { "" };
    let _ = write!(
        out,
        "{staticity}{} {}({})",
        f.ret,
        f.name,
        params_str(&f.params)
    );
    match &f.body {
        Some(body) => {
            out.push_str(" {\n");
            for st in body.stmts() {
                stmt(out, level + 1, st);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        None => out.push_str(";\n"),
    }
}

fn print_var_decl(out: &mut String, level: usize, d: &VarDecl) {
    indent(out, level);
    let staticity = if d.is_static { "static " } else { "" };
    let constness = if d.is_const { "const " } else { "" };
    let _ = write!(
        out,
        "{staticity}{constness}{} {}{}",
        type_prefix(&d.ty),
        d.name,
        type_suffix(&d.ty)
    );
    if let Some(init) = &d.init {
        out.push_str(" = ");
        expr(out, init);
    }
    out.push_str(";\n");
}

fn stmt(out: &mut String, level: usize, s: &Stmt) {
    match &s.kind {
        StmtKind::Decl(d) => print_var_decl(out, level, d),
        StmtKind::Expr(e) => {
            indent(out, level);
            expr(out, e);
            out.push_str(";\n");
        }
        StmtKind::If(c, t, e) => {
            indent(out, level);
            out.push_str("if (");
            expr(out, c);
            out.push_str(") {\n");
            for st in t.stmts() {
                stmt(out, level + 1, st);
            }
            indent(out, level);
            match e {
                Some(els) => {
                    out.push_str("} else {\n");
                    for st in els.stmts() {
                        stmt(out, level + 1, st);
                    }
                    indent(out, level);
                    out.push_str("}\n");
                }
                None => out.push_str("}\n"),
            }
        }
        StmtKind::While(c, b) => {
            indent(out, level);
            out.push_str("while (");
            expr(out, c);
            out.push_str(") {\n");
            for st in b.stmts() {
                stmt(out, level + 1, st);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::DoWhile(b, c) => {
            indent(out, level);
            out.push_str("do {\n");
            for st in b.stmts() {
                stmt(out, level + 1, st);
            }
            indent(out, level);
            out.push_str("} while (");
            expr(out, c);
            out.push_str(");\n");
        }
        StmtKind::For(init, cond, step, b) => {
            indent(out, level);
            out.push_str("for (");
            if let Some(st) = init {
                // The initializer prints as a statement; keep one `;`.
                let start = out.len();
                stmt(out, 0, st);
                let kept = out[start..].trim_end().trim_end_matches(';').len();
                out.truncate(start + kept);
            }
            out.push_str("; ");
            if let Some(c) = cond {
                expr(out, c);
            }
            out.push_str("; ");
            if let Some(st) = step {
                expr(out, st);
            }
            out.push_str(") {\n");
            for st in b.stmts() {
                stmt(out, level + 1, st);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::Return(v) => {
            indent(out, level);
            match v {
                Some(e) => {
                    out.push_str("return ");
                    expr(out, e);
                    out.push_str(";\n");
                }
                None => out.push_str("return;\n"),
            }
        }
        StmtKind::Break => {
            indent(out, level);
            out.push_str("break;\n");
        }
        StmtKind::Continue => {
            indent(out, level);
            out.push_str("continue;\n");
        }
        StmtKind::Block(b) => {
            indent(out, level);
            out.push_str("{\n");
            for st in b.stmts() {
                stmt(out, level + 1, st);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::Pragma(p) => {
            let _ = writeln!(out, "{p}");
        }
        StmtKind::Label(l) => {
            let _ = writeln!(out, "{l}:");
        }
        StmtKind::Goto(l) => {
            indent(out, level);
            let _ = writeln!(out, "goto {l};");
        }
        StmtKind::Empty => {
            indent(out, level);
            out.push_str(";\n");
        }
    }
}

fn expr(out: &mut String, e: &Expr) {
    match &e.kind {
        ExprKind::IntLit(v, unsigned) => {
            let _ = write!(out, "{v}");
            if *unsigned {
                out.push('u');
            }
        }
        ExprKind::FloatLit(v, long_double) => {
            let start = out.len();
            let _ = write!(out, "{v}");
            let s = &out[start..];
            if !s.contains('.') && !s.contains('e') && !s.contains("inf") && !s.contains("NaN") {
                out.push_str(".0");
            }
            if *long_double {
                out.push('L');
            }
        }
        ExprKind::CharLit(c) => match *c as char {
            '\n' => out.push_str("'\\n'"),
            '\t' => out.push_str("'\\t'"),
            '\'' => out.push_str("'\\''"),
            '\\' => out.push_str("'\\\\'"),
            ch => {
                let _ = write!(out, "'{ch}'");
            }
        },
        ExprKind::StrLit(s) => {
            let _ = write!(out, "{s:?}");
        }
        ExprKind::BoolLit(b) => out.push_str(if *b { "true" } else { "false" }),
        ExprKind::Ident(n) => out.push_str(n),
        ExprKind::Unary(op, a) => {
            let (prefix, postfix) = match op {
                UnOp::Neg => ("-", ""),
                UnOp::Not => ("!", ""),
                UnOp::BitNot => ("~", ""),
                UnOp::Deref => ("*", ""),
                UnOp::AddrOf => ("&", ""),
                UnOp::Inc(true) => ("++", ""),
                UnOp::Inc(false) => ("", "++"),
                UnOp::Dec(true) => ("--", ""),
                UnOp::Dec(false) => ("", "--"),
            };
            out.push_str(prefix);
            atom(out, a);
            out.push_str(postfix);
        }
        ExprKind::Binary(op, a, b) => {
            atom(out, a);
            out.push(' ');
            out.push_str(op.as_str());
            out.push(' ');
            atom(out, b);
        }
        ExprKind::Assign(op, a, b) => {
            expr(out, a);
            out.push(' ');
            if let Some(o) = op {
                out.push_str(o.as_str());
            }
            out.push_str("= ");
            expr(out, b);
        }
        ExprKind::Call(f, args) => {
            out.push_str(f);
            out.push('(');
            args_str(out, args);
            out.push(')');
        }
        ExprKind::MethodCall(recv, m, args) => {
            atom(out, recv);
            out.push('.');
            out.push_str(m);
            out.push('(');
            args_str(out, args);
            out.push(')');
        }
        ExprKind::Index(a, i) => {
            atom(out, a);
            out.push('[');
            expr(out, i);
            out.push(']');
        }
        ExprKind::Member(a, f, arrow) => {
            atom(out, a);
            out.push_str(if *arrow { "->" } else { "." });
            out.push_str(f);
        }
        ExprKind::Cast(ty, a) => {
            let _ = write!(out, "({ty})");
            atom(out, a);
        }
        ExprKind::SizeOf(ty) => {
            let _ = write!(out, "sizeof({ty})");
        }
        ExprKind::Ternary(c, t, e2) => {
            atom(out, c);
            out.push_str(" ? ");
            expr(out, t);
            out.push_str(" : ");
            expr(out, e2);
        }
        ExprKind::InitList(elems) => {
            out.push('{');
            args_str(out, elems);
            out.push('}');
        }
        ExprKind::StructLit(name, args) => {
            out.push_str(name);
            out.push('{');
            args_str(out, args);
            out.push('}');
        }
    }
}

fn args_str(out: &mut String, args: &[Expr]) {
    for (k, a) in args.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        expr(out, a);
    }
}

/// Renders a subexpression, parenthesizing anything non-atomic so that the
/// output is unambiguous without tracking precedence.
fn atom(out: &mut String, e: &Expr) {
    match &e.kind {
        ExprKind::IntLit(..)
        | ExprKind::FloatLit(..)
        | ExprKind::CharLit(..)
        | ExprKind::StrLit(..)
        | ExprKind::BoolLit(..)
        | ExprKind::Ident(..)
        | ExprKind::Call(..)
        | ExprKind::MethodCall(..)
        | ExprKind::Index(..)
        | ExprKind::Member(..)
        | ExprKind::StructLit(..)
        | ExprKind::SizeOf(..) => expr(out, e),
        _ => {
            out.push('(');
            expr(out, e);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn round_trip(src: &str) {
        let p1 = parse(src).unwrap();
        let printed = print_program(&p1);
        let p2 = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        let printed2 = print_program(&p2);
        assert_eq!(printed, printed2, "printer not idempotent for:\n{src}");
    }

    #[test]
    fn round_trips_simple_function() {
        round_trip("int f(int a) { return a + 1; }");
    }

    #[test]
    fn round_trips_control_flow() {
        round_trip(
            r#"
            int f(int n) {
                int acc = 0;
                for (int i = 0; i < n; i++) {
                    if (i % 2 == 0) { acc += i; } else { acc -= 1; }
                }
                while (acc > 100) { acc /= 2; }
                do { acc++; } while (acc < 0);
                return acc;
            }
        "#,
        );
    }

    #[test]
    fn round_trips_structs_streams_pragmas() {
        round_trip(
            r#"
            #include <hls_stream.h>
            struct If2 {
                hls::stream<unsigned> &in;
                hls::stream<unsigned> &out;
                If2(hls::stream<unsigned> &i, hls::stream<unsigned> &o) : in(i), out(o) {}
                void do1() { out.write(in.read()); }
            };
            void top(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
            #pragma HLS dataflow
                static hls::stream<unsigned> tmp;
                If2{in, tmp}.do1();
                If2{tmp, out}.do1();
            }
        "#,
        );
    }

    #[test]
    fn round_trips_pointers_and_arrays() {
        round_trip(
            r#"
            #define N 16
            struct Node { int val; struct Node* next; };
            int heap[N];
            int* find(int* base, int n) {
                int a[4][4];
                a[0][1] = *base;
                return &heap[n];
            }
        "#,
        );
    }

    #[test]
    fn round_trips_goto() {
        round_trip(
            r#"
            int f(int x) {
                if (x > 0) { goto done; }
                x++;
            done:
                return x;
            }
        "#,
        );
    }

    #[test]
    fn prints_array_declarator_suffix() {
        let p = parse("#define W 4\nfloat img[W][8];").unwrap();
        let s = print_program(&p);
        assert!(s.contains("float img[4][8];"), "{s}");
    }

    #[test]
    fn loc_counts_nonempty_lines() {
        let p = parse("int f(int a) { return a; }").unwrap();
        assert_eq!(crate::loc(&p), 3); // signature+{, return, }
    }

    #[test]
    fn prints_float_literals_reparseably() {
        round_trip("double f() { return 1.0 + 2.5e10 + 3.0L; }");
    }

    #[test]
    fn round_trips_nested_ternaries() {
        round_trip("int f(int a) { return a > 0 ? (a > 10 ? 2 : 1) : (a < -10 ? -2 : -1); }");
    }

    #[test]
    fn round_trips_casts_inside_expressions() {
        round_trip("float f(int a, float b) { return (float)a * b + (float)(a + 1) / 2.0; }");
    }

    #[test]
    fn round_trips_unions() {
        round_trip(
            r#"
            union Bits { int i; float f; };
            int f() { union Bits b; b.i = 3; return b.i; }
        "#,
        );
    }

    #[test]
    fn round_trips_fpga_types_everywhere() {
        round_trip(
            r#"
            typedef fpga_uint<12> idx_t;
            fpga_float<8,23> g;
            fpga_int<5> f(idx_t i, fpga_uint<7> w) { return (fpga_int<5>)(i + w); }
        "#,
        );
    }

    #[test]
    fn round_trips_sizeof_and_address_of() {
        round_trip(
            r#"
            struct S { int a; int b; };
            int f() {
                struct S s;
                s.a = sizeof(struct S);
                int* p = &s.b;
                *p = 4;
                return s.a + s.b;
            }
        "#,
        );
    }

    #[test]
    fn empty_and_pragma_only_bodies() {
        round_trip("void f() { ; }");
        round_trip("void top(int a[4]) {\n#pragma HLS dataflow\n}");
    }

    #[test]
    fn prints_char_and_string_literals() {
        round_trip(r#"int f() { char c = 'x'; char nl = '\n'; return c + nl; }"#);
    }
}
