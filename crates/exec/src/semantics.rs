//! The semantics both engines share, defined once: the run configuration,
//! type sizes and layout, the `goto` crossing rule, binary-operator
//! arithmetic, and the setup errors both raise verbatim.

use crate::error::{ExecError, Trap};
use crate::value::Value;
use minic::ast::*;
use minic::types::{ArraySize, Type};
use std::collections::HashSet;

/// What happens when a static-array index falls outside the declared extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OobPolicy {
    /// Trap (CPU-style debug semantics).
    Trap,
    /// Wrap modulo the extent — hardware address truncation. This is the
    /// silent-corruption mode that makes undersized stacks/arrays produce
    /// wrong results instead of crashing (paper §6.2).
    Wrap,
}

/// Interpreter configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Abstract-operation budget before trapping with fuel exhaustion.
    pub fuel: u64,
    /// Maximum call depth.
    pub max_depth: u64,
    /// Static-array bounds behaviour.
    pub oob_policy: OobPolicy,
    /// Record value-range/depth/heap profiles.
    pub profile: bool,
}

impl MachineConfig {
    /// CPU-side defaults: trapping bounds, profiling on.
    pub fn cpu() -> MachineConfig {
        MachineConfig {
            fuel: 50_000_000,
            max_depth: 8192,
            oob_policy: OobPolicy::Trap,
            profile: true,
        }
    }

    /// FPGA-simulation defaults: wrapping bounds (silent corruption),
    /// profiling off.
    pub fn fpga() -> MachineConfig {
        MachineConfig {
            fuel: 50_000_000,
            max_depth: 8192,
            oob_policy: OobPolicy::Wrap,
            profile: false,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::cpu()
    }
}

pub(crate) fn arity_error(name: &str) -> ExecError {
    ExecError::setup(format!("arity mismatch calling `{name}`"))
}

pub(crate) fn unknown_label_error(label: &str) -> ExecError {
    ExecError::setup(format!("goto to unknown label `{label}`"))
}

pub(crate) fn crossing_error(label: &str, name: &str) -> ExecError {
    ExecError::setup(format!(
        "goto `{label}` crosses the declaration of `{name}`"
    ))
}

pub(crate) fn nested_vla_error(name: &str) -> ExecError {
    ExecError::setup(format!(
        "VLA `{name}` has a runtime extent below its outermost dimension"
    ))
}

/// Whether a resolved type still contains a runtime array extent (only the
/// array spine counts).
pub(crate) fn has_runtime_extent(t: &Type) -> bool {
    match t {
        Type::Array(_, ArraySize::Runtime(_)) => true,
        Type::Array(inner, _) => has_runtime_extent(inner),
        _ => false,
    }
}

/// Deepest type nesting [`type_size`] follows: array elements and struct
/// and union fields each add a level, so a struct that contains itself by
/// value stops here instead of recursing without bound.
pub(crate) const MAX_TYPE_DEPTH: u32 = 64;

/// Size of a type in cells, shared by both engines. Sizes saturate at
/// `usize::MAX`, which the allocator then refuses with
/// [`Trap::OutOfMemory`].
pub(crate) fn type_size(p: &Program, t: &Type, depth: u32) -> Result<usize, ExecError> {
    if depth > MAX_TYPE_DEPTH {
        return Err(ExecError::unknown_size(format!(
            "`{t}`: type nested deeper than {MAX_TYPE_DEPTH} levels"
        )));
    }
    let t = t.resolve_named(&|n| p.typedef(n).cloned());
    Ok(match &t {
        Type::Array(inner, size) => {
            let n = minic::edit::resolve_array_size(p, size)
                .ok_or_else(|| ExecError::unknown_size("array with unresolved extent"))?;
            (n as usize).saturating_mul(type_size(p, inner, depth + 1)?)
        }
        Type::Struct(name) => {
            let def = p
                .struct_def(name)
                .ok_or_else(|| ExecError::unknown_size(format!("struct `{name}`")))?;
            let mut sum = 0usize;
            for f in &def.fields {
                let s = if f.by_ref {
                    1
                } else {
                    type_size(p, &f.ty, depth + 1)?
                };
                sum = sum.saturating_add(s);
            }
            sum.max(1)
        }
        Type::Union(name) => {
            let def = p
                .struct_def(name)
                .ok_or_else(|| ExecError::unknown_size(format!("union `{name}`")))?;
            let mut mx = 1;
            for f in &def.fields {
                mx = mx.max(type_size(p, &f.ty, depth + 1)?);
            }
            mx
        }
        _ => 1,
    })
}

/// Offset in cells and declared type of a struct or union field, shared by
/// both engines.
pub(crate) fn field_offset(
    p: &Program,
    struct_name: &str,
    field: &str,
) -> Result<(usize, Type), ExecError> {
    let def = p
        .struct_def(struct_name)
        .ok_or_else(|| ExecError::setup(format!("unknown struct `{struct_name}`")))?;
    if def.is_union {
        // All union fields share offset 0.
        let f = def
            .field(field)
            .ok_or_else(|| ExecError::setup(format!("no field `{field}`")))?;
        return Ok((0, f.ty.clone()));
    }
    let mut off = 0usize;
    for f in &def.fields {
        if f.name == field {
            return Ok((off, f.ty.clone()));
        }
        let s = if f.by_ref { 1 } else { type_size(p, &f.ty, 0)? };
        off = off.saturating_add(s);
    }
    Err(ExecError::setup(format!(
        "no field `{field}` on `{struct_name}`"
    )))
}

/// The top-level declaration a `goto` from top-level statement `from` to
/// the label at top-level index `to` would let be observed out of its
/// lexical order, if any. The walker keeps one dynamic scope for a body's
/// top-level declarations; the VM resolves names lexically. They agree
/// unless a forward jump skips a declaration whose name is used after the
/// label, or a backward jump resumes above a declaration whose name is
/// used before it is redeclared — C++'s "jump crosses initialization".
/// Both engines reject exactly those jumps, so neither scoping rule is
/// ever observable.
pub(crate) fn goto_crossing<'b>(
    p: &Program,
    body: &'b Block,
    from: usize,
    to: usize,
) -> Option<&'b str> {
    let decl_name = |s: &'b Stmt| match &s.kind {
        StmtKind::Decl(d) => Some(d.name.as_str()),
        _ => None,
    };
    let stmts = &body.stmts();
    if to > from {
        let used_after = names_used(p, &stmts[to + 1..]);
        return stmts[from + 1..to]
            .iter()
            .filter_map(decl_name)
            .find(|n| used_after.contains(*n));
    }
    let mut seen = HashSet::new();
    for (d, s) in stmts.iter().enumerate().skip(to + 1) {
        if let Some(n) = decl_name(s) {
            if seen.insert(n) && names_used(p, &stmts[to + 1..=d]).contains(n) {
                return Some(n);
            }
        }
    }
    None
}

/// Every variable name the statements may look up: identifiers, VLA
/// extents, and — when a struct literal appears — the identifiers of every
/// constructor initializer, which run in the caller's scope.
fn names_used(p: &Program, stmts: &[Stmt]) -> HashSet<String> {
    let mut out = HashSet::new();
    let mut literal = false;
    for s in stmts {
        minic::visit::walk_stmt_exprs(s, &mut |e| note_ident(e, &mut out, &mut literal));
        minic::visit::walk_stmt(s, &mut |st| {
            if let StmtKind::Decl(d) = &st.kind {
                let mut t = &d.ty;
                while let Type::Array(inner, size) = t {
                    if let ArraySize::Runtime(v) = size {
                        out.insert(v.clone());
                    }
                    t = inner;
                }
            }
        });
    }
    if literal {
        for item in &p.items {
            if let Item::Struct(s) = item {
                for (_, e) in s.ctor.iter().flat_map(|c| &c.inits) {
                    minic::visit::walk_expr(e, &mut |e| note_ident(e, &mut out, &mut literal));
                }
            }
        }
    }
    out
}

fn note_ident(e: &Expr, out: &mut HashSet<String>, literal: &mut bool) {
    match &e.kind {
        ExprKind::Ident(n) => {
            out.insert(n.clone());
        }
        ExprKind::StructLit(..) => *literal = true,
        _ => {}
    }
}

fn rhs_is_ptr(v: &Value) -> bool {
    matches!(v, Value::Ptr { .. })
}

/// Binary-operator semantics shared by the tree-walker and the bytecode VM.
/// The caller is responsible for charging the one fuel unit first.
pub(crate) fn binop_value(op: BinOp, lhs: Value, rhs: Value) -> Result<Value, ExecError> {
    if let (Value::Int { v: a, .. }, Value::Int { v: b, .. }) = (&lhs, &rhs) {
        return int_binop(op, *a, *b);
    }
    // Pointer arithmetic.
    if let (Value::Ptr { addr, stride }, false) = (&lhs, rhs_is_ptr(&rhs)) {
        if matches!(op, BinOp::Add | BinOp::Sub) {
            let delta = rhs.as_int() * (*stride).max(1) as i128;
            let na = if matches!(op, BinOp::Add) {
                *addr as i128 + delta
            } else {
                *addr as i128 - delta
            };
            return Ok(Value::Ptr {
                addr: na.max(0) as usize,
                stride: *stride,
            });
        }
    }
    let float_math = matches!(&lhs, Value::Float { .. }) || matches!(&rhs, Value::Float { .. });
    if float_math && op.is_comparison() {
        let a = lhs.as_f64();
        let b = rhs.as_f64();
        return Ok(Value::Bool(match op {
            BinOp::Lt => a < b,
            BinOp::Gt => a > b,
            BinOp::Le => a <= b,
            BinOp::Ge => a >= b,
            BinOp::Eq => a == b,
            BinOp::Ne => a != b,
            _ => unreachable!(),
        }));
    }
    if float_math && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div) {
        let a = lhs.as_f64();
        let b = rhs.as_f64();
        let v = match op {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            _ => unreachable!(),
        };
        return Ok(Value::double(v));
    }
    int_binop(op, lhs.as_int(), rhs.as_int())
}

/// Integer-operator semantics on the operands' integer views: comparisons
/// yield `Bool`, arithmetic wraps at 128 bits and yields a signed 64-bit
/// `Int` (the holding type's width is applied when the result is stored).
/// The one definition of integer operator arithmetic: [`binop_value`] and
/// the VM's in-place fast path both call it.
///
/// # Errors
///
/// Division or remainder by zero traps.
#[inline]
pub(crate) fn int_binop(op: BinOp, a: i128, b: i128) -> Result<Value, ExecError> {
    let v = match op {
        BinOp::Lt => return Ok(Value::Bool(a < b)),
        BinOp::Gt => return Ok(Value::Bool(a > b)),
        BinOp::Le => return Ok(Value::Bool(a <= b)),
        BinOp::Ge => return Ok(Value::Bool(a >= b)),
        BinOp::Eq => return Ok(Value::Bool(a == b)),
        BinOp::Ne => return Ok(Value::Bool(a != b)),
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Err(ExecError::trap(Trap::DivisionByZero));
            }
            a.wrapping_div(b)
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(ExecError::trap(Trap::DivisionByZero));
            }
            a.wrapping_rem(b)
        }
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b.clamp(0, 127) as u32),
        BinOp::Shr => a.wrapping_shr(b.clamp(0, 127) as u32),
        BinOp::And | BinOp::Or => unreachable!("short-circuit operators never reach binop"),
    };
    Ok(Value::Int {
        v,
        bits: 64,
        signed: true,
    })
}

/// Integer negation (`-x`), wrapping at 128 bits like [`int_binop`]: an
/// unwrapped intermediate such as `a << 127` can sit at `i128::MIN`.
#[inline]
pub(crate) fn int_neg(x: i128) -> i128 {
    x.wrapping_neg()
}

/// Integer `abs(x)`, wrapping at 128 bits like [`int_binop`].
#[inline]
pub(crate) fn int_abs(x: i128) -> i128 {
    x.wrapping_abs()
}

/// Integer `++`/`--` (`x + delta`), wrapping at 128 bits like
/// [`int_binop`].
#[inline]
pub(crate) fn int_step(x: i128, delta: i128) -> i128 {
    x.wrapping_add(delta)
}
