//! Parameterized repair edits (paper Table 2).
//!
//! Each [`RepairEdit`] is a parameterized AST transformation whose holes
//! (`$a1:arr`, `$s1:struct`, …) have been concretized by the
//! [localizer](crate::localize). `apply` returns the edited program, or
//! `None` when the edit is not applicable in the given context — the
//! search treats inapplicable edits as zero-cost rejections.

use crate::script::{EditKind, ScriptEdit};
use crate::{xform_pointer, xform_stack, xform_struct};
use minic::ast::*;
use minic::types::Type;
use minic::visit::{self, Node, NodeMut};
use std::sync::Arc;

/// What a `resize` edit scales.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ResizeTarget {
    /// A `#define NAME n` constant (backing arrays and stacks size through
    /// these).
    Define(String),
}

/// A concretized parameterized edit.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairEdit {
    // --- Dynamic data structures -----------------------------------------
    /// `array_static($a1:arr, $i1:int)`: give an unknown-extent array a
    /// constant size.
    ArrayStatic {
        /// Variable to resize.
        var: String,
        /// Function scope (`None` = global).
        function: Option<String>,
        /// New extent.
        size: u64,
    },
    /// `insert($a1:arr, $d1:dyn)` + `pointer($v1:ptr)`: replace
    /// `malloc`/`free`/`S*` with a backing array and indices (Fig. 2b).
    PointerToIndex {
        /// The struct whose pointers are removed.
        struct_name: String,
        /// Backing-array capacity.
        capacity: u64,
    },
    /// `stack_trans($d1:dyn)`: recursion → explicit stack (Fig. 2c).
    StackTrans {
        /// The recursive function.
        function: String,
        /// Stack capacity in frames.
        capacity: u64,
    },
    /// `resize($a1:arr)`: scale a size constant (stack or backing array)
    /// by a factor — the exploration edit of §6.2 (1024 → 2048).
    Resize {
        /// Which constant to scale.
        target: ResizeTarget,
        /// Multiplier.
        factor: u64,
    },

    // --- Unsupported data types -------------------------------------------
    /// `type_trans($v1:var)`: retype a declaration (e.g. `long double` →
    /// `fpga_float<8,71>`, or width finitization `int` → `fpga_uint<7>`).
    TypeTrans {
        /// Variable to retype.
        var: String,
        /// Function scope (`None` = everywhere/global).
        function: Option<String>,
        /// Replacement type.
        to: Type,
    },
    /// `type_casting($v1:var)`: make conversions on a retyped variable
    /// explicit (Fig. 4 line 6). Depends on `type_trans`.
    TypeCasting {
        /// The previously retyped variable.
        var: String,
        /// Function scope.
        function: Option<String>,
    },
    /// `op_overload($v1:var)`: route arithmetic on a custom float through
    /// an explicit overload (Fig. 4 line 5). Depends on `type_casting`.
    OpOverload {
        /// The custom-float variable.
        var: String,
        /// Function scope.
        function: Option<String>,
    },
    /// `pointer($v1:ptr)` for non-struct pointers: turn a helper's pointer
    /// parameter into a sized array parameter.
    PointerParamToArray {
        /// The helper function.
        function: String,
        /// The pointer parameter.
        param: String,
        /// Array extent to declare.
        size: u64,
    },

    // --- Pragma edits (dataflow optimization & top function) ---------------
    /// `insert($p1:pragma, $f1:func)`: insert a pragma at the head of a
    /// function body or of a loop body (`loop_index` into
    /// [`hls_sim::check::collect_loops`] order).
    InsertPragma {
        /// Target function.
        function: String,
        /// Loop within the function (`None` = function body head).
        loop_index: Option<usize>,
        /// The pragma to insert.
        pragma: PragmaKind,
    },
    /// `insert($p1:pragma, $f1:func)` for struct methods: insert a pragma
    /// into a loop of `struct_name::method` (stream-wrapper tasks like the
    /// paper's `If2::do1` host the hot loops of P9-style designs).
    InsertPragmaInMethod {
        /// Owning struct.
        struct_name: String,
        /// Method name.
        method: String,
        /// Loop within the method (collect_loops order).
        loop_index: usize,
        /// The pragma to insert.
        pragma: PragmaKind,
    },
    /// `delete($p1:pragma, $f1:func)`: delete pragmas of a given kind.
    DeletePragma {
        /// Target function.
        function: String,
        /// Kind name to delete (`"dataflow"`, `"unroll"`, …).
        kind: String,
    },
    /// Dataflow repair: give the second-and-later tasks reading a shared
    /// array their own copies (the paper's data segmentation fix).
    DuplicateArrayArg {
        /// Function containing the dataflow region.
        function: String,
        /// The shared array.
        var: String,
    },

    // --- Loop parallelization ----------------------------------------------
    /// `index_static($l1:loop)`: add an explicit tripcount bound.
    IndexStatic {
        /// Target function.
        function: String,
        /// Loop index.
        loop_index: usize,
        /// Bound from profiling.
        min: u64,
        /// Bound from profiling.
        max: u64,
    },
    /// `explore($p1:pragma, $l1:loop)`: replace a pragma's numeric knob
    /// (unroll factor / partition factor / pipeline II).
    ReplacePragmaFactor {
        /// Target function.
        function: String,
        /// Kind name (`"unroll"`, `"array_partition"`, `"pipeline"`).
        kind: String,
        /// Variable filter for array_partition.
        var: Option<String>,
        /// New factor / II.
        value: u32,
    },
    /// `resize($a1:arr)` for partition mismatches: pad a fixed array so the
    /// declared partition factor divides it.
    PadArray {
        /// Array variable.
        var: String,
        /// Function scope.
        function: Option<String>,
        /// New (padded) extent.
        new_size: u64,
    },

    // --- Struct and union ----------------------------------------------------
    /// `constructor($s1:struct)` (Fig. 7 ➊).
    Constructor {
        /// Target struct.
        struct_name: String,
    },
    /// `flatten($s1:struct)` (Fig. 7 ➋).
    Flatten {
        /// Target struct.
        struct_name: String,
    },
    /// `stream_static($f1:stream, $s1:struct)` (Fig. 7 ➌).
    StreamStatic {
        /// Function containing the stream local.
        function: String,
        /// The connecting stream variable.
        var: String,
    },
    /// `inst_update($s1:struct)` (Fig. 7 ➍) — rewrite call sites after
    /// `flatten`.
    InstUpdate {
        /// Target struct.
        struct_name: String,
    },

    // --- Top function -----------------------------------------------------------
    /// Configuration exploration: set the design's top function.
    SetTop {
        /// Function name to configure as top.
        name: String,
    },
    /// Configuration exploration: clamp the clock into the device range.
    FixClock,
}

impl RepairEdit {
    /// The template family (Table 2 vocabulary), used by the dependence
    /// graph and the script IR.
    pub fn kind_enum(&self) -> EditKind {
        match self {
            RepairEdit::ArrayStatic { .. } => EditKind::ArrayStatic,
            RepairEdit::PointerToIndex { .. } => EditKind::PointerToIndex,
            RepairEdit::StackTrans { .. } => EditKind::StackTrans,
            RepairEdit::Resize { .. } => EditKind::Resize,
            RepairEdit::TypeTrans { .. } => EditKind::TypeTrans,
            RepairEdit::TypeCasting { .. } => EditKind::TypeCasting,
            RepairEdit::OpOverload { .. } => EditKind::OpOverload,
            RepairEdit::PointerParamToArray { .. } => EditKind::PointerParamToArray,
            RepairEdit::InsertPragma { .. } => EditKind::InsertPragma,
            RepairEdit::InsertPragmaInMethod { .. } => EditKind::InsertPragma,
            RepairEdit::DeletePragma { .. } => EditKind::DeletePragma,
            RepairEdit::DuplicateArrayArg { .. } => EditKind::DuplicateArrayArg,
            RepairEdit::IndexStatic { .. } => EditKind::IndexStatic,
            RepairEdit::ReplacePragmaFactor { .. } => EditKind::Explore,
            RepairEdit::PadArray { .. } => EditKind::PadArray,
            RepairEdit::Constructor { .. } => EditKind::Constructor,
            RepairEdit::Flatten { .. } => EditKind::Flatten,
            RepairEdit::StreamStatic { .. } => EditKind::StreamStatic,
            RepairEdit::InstUpdate { .. } => EditKind::InstUpdate,
            RepairEdit::SetTop { .. } => EditKind::SetTop,
            RepairEdit::FixClock => EditKind::FixClock,
        }
    }

    /// The template family name (Table 2 vocabulary).
    pub fn kind(&self) -> &'static str {
        self.kind_enum().as_str()
    }

    /// The script-IR form of this edit: family plus the minimal anchor
    /// context (localization site, rewritten symbol, numeric knob, node
    /// label) needed to replay or abstract it.
    pub fn script_edit(&self) -> ScriptEdit {
        let mut e = ScriptEdit::bare(self.kind_enum());
        match self {
            RepairEdit::ArrayStatic {
                var,
                function,
                size,
            } => {
                e.site = function.clone();
                e.symbol = Some(var.clone());
                e.value = Some(*size as i128);
            }
            RepairEdit::PointerToIndex {
                struct_name,
                capacity,
            } => {
                e.site = Some(struct_name.clone());
                e.value = Some(*capacity as i128);
            }
            RepairEdit::StackTrans { function, capacity } => {
                e.site = Some(function.clone());
                e.value = Some(*capacity as i128);
            }
            RepairEdit::Resize { target, factor } => {
                let ResizeTarget::Define(name) = target;
                e.symbol = Some(name.clone());
                e.value = Some(*factor as i128);
            }
            RepairEdit::TypeTrans { var, function, to } => {
                e.site = function.clone();
                e.symbol = Some(var.clone());
                e.label = Some(format!("{to:?}"));
            }
            RepairEdit::TypeCasting { var, function }
            | RepairEdit::OpOverload { var, function } => {
                e.site = function.clone();
                e.symbol = Some(var.clone());
            }
            RepairEdit::PointerParamToArray {
                function,
                param,
                size,
            } => {
                e.site = Some(function.clone());
                e.symbol = Some(param.clone());
                e.value = Some(*size as i128);
            }
            RepairEdit::InsertPragma {
                function,
                loop_index,
                pragma,
            } => {
                e.site = Some(function.clone());
                e.value = loop_index.map(|i| i as i128);
                e.label = Some(pragma_label(pragma));
            }
            RepairEdit::InsertPragmaInMethod {
                struct_name,
                method,
                loop_index,
                pragma,
            } => {
                e.site = Some(struct_name.clone());
                e.symbol = Some(method.clone());
                e.value = Some(*loop_index as i128);
                e.label = Some(pragma_label(pragma));
            }
            RepairEdit::DeletePragma { function, kind } => {
                e.site = Some(function.clone());
                e.label = Some(kind.clone());
            }
            RepairEdit::DuplicateArrayArg { function, var } => {
                e.site = Some(function.clone());
                e.symbol = Some(var.clone());
            }
            RepairEdit::IndexStatic {
                function,
                loop_index,
                ..
            } => {
                e.site = Some(function.clone());
                e.value = Some(*loop_index as i128);
            }
            RepairEdit::ReplacePragmaFactor {
                function,
                kind,
                var,
                value,
            } => {
                e.site = Some(function.clone());
                e.symbol = var.clone();
                e.value = Some(*value as i128);
                e.label = Some(kind.clone());
            }
            RepairEdit::PadArray {
                var,
                function,
                new_size,
            } => {
                e.site = function.clone();
                e.symbol = Some(var.clone());
                e.value = Some(*new_size as i128);
            }
            RepairEdit::Constructor { struct_name }
            | RepairEdit::Flatten { struct_name }
            | RepairEdit::InstUpdate { struct_name } => {
                e.site = Some(struct_name.clone());
            }
            RepairEdit::StreamStatic { function, var } => {
                e.site = Some(function.clone());
                e.symbol = Some(var.clone());
            }
            RepairEdit::SetTop { name } => {
                e.site = Some(name.clone());
            }
            RepairEdit::FixClock => {}
        }
        e
    }

    /// Applies the edit. `None` means not applicable in this context.
    pub fn apply(&self, p: &Program) -> Option<Program> {
        match self {
            RepairEdit::ArrayStatic {
                var,
                function,
                size,
            } => array_static(p, var, function.as_deref(), *size),
            RepairEdit::PointerToIndex {
                struct_name,
                capacity,
            } => xform_pointer::pointer_to_index(p, struct_name, *capacity),
            RepairEdit::StackTrans { function, capacity } => {
                xform_stack::stack_trans(p, function, *capacity)
            }
            RepairEdit::Resize { target, factor } => resize(p, target, *factor),
            RepairEdit::TypeTrans { var, function, to } => {
                let mut out = p.clone();
                if minic::edit::rewrite_decl_type(&mut out, var, function.as_deref(), to.clone()) {
                    Some(out)
                } else {
                    None
                }
            }
            RepairEdit::TypeCasting { var, function } => type_casting(p, var, function.as_deref()),
            RepairEdit::OpOverload { var, function } => op_overload(p, var, function.as_deref()),
            RepairEdit::PointerParamToArray {
                function,
                param,
                size,
            } => pointer_param_to_array(p, function, param, *size),
            RepairEdit::InsertPragma {
                function,
                loop_index,
                pragma,
            } => insert_pragma(p, function, *loop_index, pragma),
            RepairEdit::InsertPragmaInMethod {
                struct_name,
                method,
                loop_index,
                pragma,
            } => insert_pragma_in_method(p, struct_name, method, *loop_index, pragma),
            RepairEdit::DeletePragma { function, kind } => delete_pragma(p, function, kind),
            RepairEdit::DuplicateArrayArg { function, var } => {
                duplicate_array_arg(p, function, var)
            }
            RepairEdit::IndexStatic {
                function,
                loop_index,
                min,
                max,
            } => insert_pragma(
                p,
                function,
                Some(*loop_index),
                &PragmaKind::LoopTripcount {
                    min: *min,
                    max: *max,
                },
            ),
            RepairEdit::ReplacePragmaFactor {
                function,
                kind,
                var,
                value,
            } => replace_pragma_factor(p, function, kind, var.as_deref(), *value),
            RepairEdit::PadArray {
                var,
                function,
                new_size,
            } => pad_array(p, var, function.as_deref(), *new_size),
            RepairEdit::Constructor { struct_name } => {
                xform_struct::insert_constructor(p, struct_name)
            }
            RepairEdit::Flatten { struct_name } => xform_struct::flatten(p, struct_name),
            RepairEdit::StreamStatic { function, var } => {
                let mut out = p.clone();
                if minic::edit::make_local_static(&mut out, function, var) {
                    Some(out)
                } else {
                    None
                }
            }
            RepairEdit::InstUpdate { struct_name } => xform_struct::inst_update(p, struct_name),
            RepairEdit::SetTop { name } => {
                if p.function(name).is_none() || p.config.top.as_deref() == Some(name) {
                    return None;
                }
                let mut out = p.clone();
                out.config.top = Some(name.clone());
                // Keep the file-level configuration pragma in sync so the
                // printed source reflects the design config.
                let mut updated = false;
                for item in &mut out.items {
                    if let Item::Pragma(pr) = item {
                        if let PragmaKind::Top { name: n } = &mut pr.kind {
                            *n = name.clone();
                            updated = true;
                        }
                    }
                }
                if !updated {
                    out.items.insert(
                        0,
                        Item::Pragma(Pragma {
                            kind: PragmaKind::Top { name: name.clone() },
                        }),
                    );
                }
                Some(out)
            }
            RepairEdit::FixClock => {
                if (50.0..=800.0).contains(&p.config.clock_mhz) {
                    return None;
                }
                let mut out = p.clone();
                out.config.clock_mhz = out.config.clock_mhz.clamp(50.0, 800.0);
                let clock = out.config.clock_mhz;
                for item in &mut out.items {
                    if let Item::Pragma(pr) = item {
                        if let PragmaKind::Other(raw) = &mut pr.kind {
                            if raw.contains("clock=") {
                                *raw = format!("config clock={clock}");
                            }
                        }
                    }
                }
                Some(out)
            }
        }
    }
}

/// The pragma-kind label kept in the script IR: the directive name, not its
/// knobs (knobs are generalized away when patterns are mined).
fn pragma_label(p: &PragmaKind) -> String {
    match p {
        PragmaKind::Pipeline { .. } => "pipeline",
        PragmaKind::Unroll { .. } => "unroll",
        PragmaKind::Dataflow => "dataflow",
        PragmaKind::ArrayPartition { .. } => "array_partition",
        PragmaKind::Interface { .. } => "interface",
        PragmaKind::Top { .. } => "top",
        PragmaKind::Inline => "inline",
        PragmaKind::LoopTripcount { .. } => "loop_tripcount",
        PragmaKind::Other(_) => "other",
    }
    .to_string()
}

// ----- individual transforms ------------------------------------------------

fn array_static(p: &Program, var: &str, function: Option<&str>, size: u64) -> Option<Program> {
    let ty = minic::edit::declared_type(p, function, var)?;
    let Type::Array(elem, size_spec) = ty else {
        return None;
    };
    if minic::edit::resolve_array_size(p, &size_spec).is_some() {
        return None; // already statically sized
    }
    let new_ty = Type::Array(elem, minic::types::ArraySize::Const(size.max(1)));
    let mut out = p.clone();
    if minic::edit::rewrite_decl_type(&mut out, var, function, new_ty) {
        Some(out)
    } else {
        None
    }
}

fn resize(p: &Program, target: &ResizeTarget, factor: u64) -> Option<Program> {
    let ResizeTarget::Define(name) = target;
    let old = p.define(name)?;
    let mut out = p.clone();
    for item in &mut out.items {
        if let Item::Define(n, v) = item {
            if n == name {
                *v = old * factor.max(2) as i128;
            }
        }
    }
    Some(out)
}

fn pad_array(p: &Program, var: &str, function: Option<&str>, new_size: u64) -> Option<Program> {
    let ty = minic::edit::declared_type(p, function, var)?;
    let Type::Array(elem, size) = ty else {
        return None;
    };
    let old = minic::edit::resolve_array_size(p, &size)?;
    if new_size <= old {
        return None;
    }
    let mut out = p.clone();
    if minic::edit::rewrite_decl_type(
        &mut out,
        var,
        function,
        Type::Array(elem, minic::types::ArraySize::Const(new_size)),
    ) {
        Some(out)
    } else {
        None
    }
}

/// Wraps integer literals combined with the custom-float variable in
/// explicit casts (Fig. 4: `thls::to<fpga_float<8,71>>(1)` becomes a plain
/// cast in the minic dialect).
fn type_casting(p: &Program, var: &str, function: Option<&str>) -> Option<Program> {
    let ty = minic::edit::declared_type(p, function, var)?;
    if !matches!(ty, Type::FpgaFloat { .. } | Type::FpgaInt { .. }) {
        return None;
    }
    let is_var = |e: &Expr| matches!(&e.kind, ExprKind::Ident(n) if n == var);
    let is_lit = |e: &Expr| matches!(e.kind, ExprKind::IntLit(..) | ExprKind::FloatLit(..));
    // A literal operand of the variable, left or right.
    let hit = |e: &Expr| match &e.kind {
        ExprKind::Binary(_, a, b) => (is_var(a) && is_lit(b)) || (is_var(b) && is_lit(a)),
        _ => false,
    };
    if !holds_expr(p, &hit) {
        return None;
    }
    let mut out = p.clone();
    visit::visit_exprs_mut_where(&mut out, &hit, &mut |e| {
        if let ExprKind::Binary(_, a, b) = &mut e.kind {
            let lit = if is_var(a) && is_lit(b) {
                b
            } else if is_var(b) && is_lit(a) {
                a
            } else {
                return;
            };
            let inner = std::mem::replace(lit.as_mut(), Expr::int(0));
            **lit = Expr::synth(ExprKind::Cast(ty.clone(), Box::new(inner)));
        }
    });
    out.renumber_synthesized();
    Some(out)
}

/// Whether an expression anywhere in `p` satisfies `hit` (read-only).
fn holds_expr(p: &Program, hit: &dyn Fn(&Expr) -> bool) -> bool {
    let mut found = false;
    visit::visit_exprs(p, &mut |e| found = found || hit(e));
    found
}

/// Routes `var + x` through an explicit overload function (Fig. 4 line 5's
/// `sum_80`). Behaviour-preserving; the overload performs the same add.
fn op_overload(p: &Program, var: &str, function: Option<&str>) -> Option<Program> {
    let ty = minic::edit::declared_type(p, function, var)?;
    let Type::FpgaFloat { exp, mant } = ty else {
        return None;
    };
    let fname = format!("fpga_add_{exp}_{mant}");
    if p.function(&fname).is_some() {
        return None;
    }
    let is_add_on_var = |e: &Expr| {
        matches!(&e.kind, ExprKind::Binary(BinOp::Add, a, _)
            if matches!(&a.kind, ExprKind::Ident(n) if n == var))
    };
    if !holds_expr(p, &is_add_on_var) {
        return None;
    }
    let mut out = p.clone();
    visit::visit_exprs_mut_where(&mut out, &is_add_on_var, &mut |e| {
        if is_add_on_var(e) {
            let kind = std::mem::replace(&mut e.kind, ExprKind::IntLit(0, false));
            if let ExprKind::Binary(_, a, b) = kind {
                e.kind = ExprKind::Call(fname.clone(), vec![*a, *b]);
            }
        }
    });
    let float_ty = Type::FpgaFloat { exp, mant };
    out.items.push(Item::Function(Arc::new(Function {
        id: NodeId::SYNTH,
        name: fname,
        ret: float_ty.clone(),
        params: vec![
            Param {
                name: "a".to_string(),
                ty: float_ty.clone(),
                by_ref: false,
            },
            Param {
                name: "b".to_string(),
                ty: float_ty,
                by_ref: false,
            },
        ],
        body: Some(Block::new(vec![Stmt::synth(StmtKind::Return(Some(
            Expr::bin(BinOp::Add, Expr::ident("a"), Expr::ident("b")),
        )))])),
        is_static: false,
    })));
    out.renumber_synthesized();
    Some(out)
}

fn pointer_param_to_array(p: &Program, function: &str, param: &str, size: u64) -> Option<Program> {
    let f = p.function(function)?;
    let par = f.params.iter().find(|q| q.name == param)?;
    let Type::Pointer(elem) = &par.ty else {
        return None;
    };
    let new_ty = Type::Array(elem.clone(), minic::types::ArraySize::Const(size.max(1)));
    let mut out = p.clone();
    minic::edit::rewrite_decl_type(&mut out, param, Some(function), new_ty).then_some(out)
}

fn insert_pragma(
    p: &Program,
    function: &str,
    loop_index: Option<usize>,
    pragma: &PragmaKind,
) -> Option<Program> {
    let f = p.function(function)?;
    match loop_index {
        None => {
            // Function-body head. Refuse duplicates of the same kind.
            if holds_same_kind(f.body.as_ref()?, pragma) {
                return None;
            }
            let mut out = p.clone();
            let g = out.function_mut(function)?;
            g.body.as_mut()?.stmts_mut().insert(0, pragma_stmt(pragma));
            out.renumber_synthesized();
            Some(out)
        }
        Some(idx) => {
            let loops = hls_sim::check::collect_loops(p, f);
            let target = loops.get(idx)?.id;
            if !loop_takes(f, target, pragma) {
                return None;
            }
            let mut out = p.clone();
            insert_at_loop_head(out.function_mut(function)?, target, pragma);
            out.renumber_synthesized();
            Some(out)
        }
    }
}

fn insert_pragma_in_method(
    p: &Program,
    struct_name: &str,
    method: &str,
    loop_index: usize,
    pragma: &PragmaKind,
) -> Option<Program> {
    let def = p.struct_def(struct_name)?;
    let m = def.method(method)?;
    let loops = hls_sim::check::collect_loops(p, m);
    let target = loops.get(loop_index)?.id;
    if !loop_takes(m, target, pragma) {
        return None;
    }
    let mut out = p.clone();
    let m = out
        .struct_def_mut(struct_name)?
        .methods
        .iter_mut()
        .find(|m| m.name == method)?;
    insert_at_loop_head(m, target, pragma);
    out.renumber_synthesized();
    Some(out)
}

fn pragma_stmt(pragma: &PragmaKind) -> Stmt {
    Stmt::synth(StmtKind::Pragma(Pragma {
        kind: pragma.clone(),
    }))
}

/// Whether `b` holds, at its head level, a pragma of the same kind.
fn holds_same_kind(b: &Block, pragma: &PragmaKind) -> bool {
    b.stmts()
        .iter()
        .any(|s| matches!(&s.kind, StmtKind::Pragma(pr) if same_kind(&pr.kind, pragma)))
}

/// The body of a `while`, `do`/`while` or `for` loop.
fn loop_body(s: &Stmt) -> Option<&Block> {
    match &s.kind {
        StmtKind::While(_, body) | StmtKind::DoWhile(body, _) | StmtKind::For(_, _, _, body) => {
            Some(body)
        }
        _ => None,
    }
}

/// Whether `func` holds the loop `target` and that loop's body holds no
/// pragma of the same kind: whether [`insert_at_loop_head`] applies.
/// Read-only.
fn loop_takes(func: &Function, target: NodeId, pragma: &PragmaKind) -> bool {
    let mut takes = false;
    visit::Code::Function(func).walk(&mut |n| {
        if let Node::Stmt(s) = n {
            if s.id == target {
                takes = loop_body(s).is_some_and(|b| !holds_same_kind(b, pragma));
            }
        }
    });
    takes
}

/// Inserts `pragma` at the head of the body of the loop `target` in `func`
/// (check [`loop_takes`] first). Walks `func` only (no loop id appears in
/// two functions), and copies only the blocks on the path to the loop and
/// the loop's body.
fn insert_at_loop_head(func: &mut Function, target: NodeId, pragma: &PragmaKind) {
    let is_target = |n: Node<'_>| matches!(n, Node::Stmt(s) if s.id == target);
    let mut on_path = |b: &Block| visit::block_holds(b, &is_target);
    visit::CodeMut::Function(func).walk_where(&mut on_path, &mut |n| {
        if let NodeMut::Stmt(Stmt {
            id,
            kind:
                StmtKind::While(_, body) | StmtKind::DoWhile(body, _) | StmtKind::For(_, _, _, body),
            ..
        }) = n
        {
            if *id == target {
                body.stmts_mut().insert(0, pragma_stmt(pragma));
            }
        }
    });
}

/// Whether two pragmas belong to the same directive family.
fn same_kind(a: &PragmaKind, b: &PragmaKind) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
        && !matches!(a, PragmaKind::ArrayPartition { .. })
}

fn pragma_kind_name(k: &PragmaKind) -> &'static str {
    match k {
        PragmaKind::Pipeline { .. } => "pipeline",
        PragmaKind::Unroll { .. } => "unroll",
        PragmaKind::Dataflow => "dataflow",
        PragmaKind::ArrayPartition { .. } => "array_partition",
        PragmaKind::Interface { .. } => "interface",
        PragmaKind::Top { .. } => "top",
        PragmaKind::Inline => "inline",
        PragmaKind::LoopTripcount { .. } => "loop_tripcount",
        PragmaKind::Other(_) => "other",
    }
}

fn delete_pragma(p: &Program, function: &str, kind: &str) -> Option<Program> {
    let is_match = |n: Node<'_>| {
        matches!(n, Node::Stmt(Stmt { kind: StmtKind::Pragma(pr), .. })
            if pragma_kind_name(&pr.kind) == kind)
    };
    // Only inside the requested function.
    if !visit::block_holds(p.function(function)?.body.as_ref()?, &is_match) {
        return None;
    }
    let mut out = p.clone();
    visit::visit_function_blocks_mut_where(out.function_mut(function)?, &is_match, &mut |b| {
        b.stmts_mut().retain(|s| !is_match(Node::Stmt(s)));
    });
    Some(out)
}

fn replace_pragma_factor(
    p: &Program,
    function: &str,
    kind: &str,
    var: Option<&str>,
    value: u32,
) -> Option<Program> {
    // Sets the knob of a pragma of the requested kind to `value`; whether
    // that changed it.
    let set = |pk: &mut PragmaKind| match (pk, kind) {
        (PragmaKind::Unroll { factor }, "unroll") if *factor != Some(value) => {
            *factor = Some(value);
            true
        }
        (PragmaKind::Pipeline { ii }, "pipeline") if *ii != Some(value) => {
            *ii = Some(value);
            true
        }
        (
            PragmaKind::ArrayPartition {
                var: pvar, factor, ..
            },
            "array_partition",
        ) if var.map(|v| v == pvar).unwrap_or(true) && *factor != value => {
            *factor = value;
            true
        }
        _ => false,
    };
    let changes = |n: Node<'_>| {
        matches!(n, Node::Stmt(Stmt { kind: StmtKind::Pragma(pr), .. })
            if set(&mut pr.kind.clone()))
    };
    if !visit::block_holds(p.function(function)?.body.as_ref()?, &changes) {
        return None;
    }
    let mut out = p.clone();
    visit::visit_function_blocks_mut_where(out.function_mut(function)?, &changes, &mut |b| {
        for s in b.stmts_mut() {
            if let StmtKind::Pragma(pr) = &mut s.kind {
                set(&mut pr.kind);
            }
        }
    });
    Some(out)
}

/// Gives each subsequent task reading `var` its own copy: declares
/// `var_copyK`, inserts an element-wise copy loop, and redirects the K-th
/// call argument (the paper's data-segmentation dataflow fix).
fn duplicate_array_arg(p: &Program, function: &str, var: &str) -> Option<Program> {
    let ty = minic::edit::declared_type(p, Some(function), var)?;
    let Type::Array(elem, size) = &ty else {
        return None;
    };
    let extent = minic::edit::resolve_array_size(p, size)?;
    let f = p.function(function)?;
    let body = f.body.as_ref()?;
    // Kernel parameters may feed at most one task; locals may feed a
    // producer plus one consumer (mirrors the checker's rule).
    let is_param = f.params.iter().any(|q| q.name == var);
    let keep = if is_param { 1 } else { 2 };
    let mut seen = 0usize;
    let mut rewrites: Vec<(NodeId, usize)> = Vec::new(); // (stmt id, arg pos)
    for s in body.stmts() {
        if let StmtKind::Expr(e) = &s.kind {
            if let ExprKind::Call(_, args) = &e.kind {
                for (k, a) in args.iter().enumerate() {
                    if matches!(&a.kind, ExprKind::Ident(n) if n == var) {
                        seen += 1;
                        if seen > keep {
                            rewrites.push((s.id, k));
                        }
                    }
                }
            }
        }
    }
    if rewrites.is_empty() {
        return None;
    }
    let mut out = p.clone();
    for (copy_idx, (stmt_id, arg_pos)) in rewrites.iter().enumerate() {
        let copy_name = format!("{var}_copy{}", copy_idx + 1);
        // Declare the copy and fill it, right before the consuming call.
        let decl = Stmt::synth(StmtKind::Decl(VarDecl::new(
            copy_name.clone(),
            Type::Array(elem.clone(), minic::types::ArraySize::Const(extent)),
            None,
        )));
        let i = "df_i".to_string();
        let copy_loop = Stmt::synth(StmtKind::For(
            Some(Box::new(Stmt::synth(StmtKind::Decl(VarDecl::new(
                i.clone(),
                Type::int(),
                Some(Expr::int(0)),
            ))))),
            Some(Expr::bin(
                BinOp::Lt,
                Expr::ident(i.clone()),
                Expr::int(extent as i128),
            )),
            Some(Expr::synth(ExprKind::Assign(
                Some(BinOp::Add),
                Box::new(Expr::ident(i.clone())),
                Box::new(Expr::int(1)),
            ))),
            Block::new(vec![Stmt::synth(StmtKind::Expr(Expr::synth(
                ExprKind::Assign(
                    None,
                    Box::new(Expr::synth(ExprKind::Index(
                        Box::new(Expr::ident(copy_name.clone())),
                        Box::new(Expr::ident(i.clone())),
                    ))),
                    Box::new(Expr::synth(ExprKind::Index(
                        Box::new(Expr::ident(var.to_string())),
                        Box::new(Expr::ident(i.clone())),
                    ))),
                ),
            )))]),
        ));
        minic::edit::splice_at(
            &mut out,
            *stmt_id,
            minic::edit::Anchor::Before,
            vec![decl, copy_loop],
        );
        // Redirect the argument.
        let mut done = false;
        let is_call = |n: Node<'_>| matches!(n, Node::Stmt(s) if s.id == *stmt_id);
        visit::visit_blocks_mut_where(&mut out, &is_call, &mut |b| {
            if done {
                return;
            }
            for s in b.stmts_mut() {
                if s.id != *stmt_id {
                    continue;
                }
                if let StmtKind::Expr(e) = &mut s.kind {
                    if let ExprKind::Call(_, args) = &mut e.kind {
                        if let Some(a) = args.get_mut(*arg_pos) {
                            a.kind = ExprKind::Ident(copy_name.clone());
                            done = true;
                        }
                    }
                }
            }
        });
        if !done {
            return None;
        }
    }
    out.renumber_synthesized();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_static_sets_extent() {
        let p = minic::parse("void kernel(int n) { int buf[n]; buf[0] = 1; }").unwrap();
        let e = RepairEdit::ArrayStatic {
            var: "buf".into(),
            function: Some("kernel".into()),
            size: 32,
        };
        let q = e.apply(&p).unwrap();
        assert!(minic::print_program(&q).contains("int buf[32];"));
        // The unknown-size diagnostic is gone.
        assert!(!hls_sim::check_program(&q)
            .iter()
            .any(|d| d.message.contains("unknown size")));
    }

    #[test]
    fn resize_scales_defines() {
        let p = minic::parse(
            "#define STACK_SIZE 1024\nint s[STACK_SIZE];\nvoid kernel(int x) { s[0] = x; }",
        )
        .unwrap();
        let e = RepairEdit::Resize {
            target: ResizeTarget::Define("STACK_SIZE".into()),
            factor: 2,
        };
        let q = e.apply(&p).unwrap();
        assert_eq!(q.define("STACK_SIZE"), Some(2048));
    }

    #[test]
    fn type_trans_replaces_long_double() {
        let p =
            minic::parse("int kernel(int x) { long double y = x; y = y + 1; return y; }").unwrap();
        let e = RepairEdit::TypeTrans {
            var: "y".into(),
            function: Some("kernel".into()),
            to: Type::FpgaFloat { exp: 8, mant: 71 },
        };
        let q = e.apply(&p).unwrap();
        assert!(minic::print_program(&q).contains("fpga_float<8,71> y"));
        assert!(hls_sim::check_program(&q).is_empty());
    }

    #[test]
    fn type_casting_then_op_overload_chain() {
        let p = minic::parse("int kernel(int x) { fpga_float<8,71> y = x; y = y + 1; return y; }")
            .unwrap();
        let cast = RepairEdit::TypeCasting {
            var: "y".into(),
            function: Some("kernel".into()),
        };
        let q = cast.apply(&p).unwrap();
        assert!(minic::print_program(&q).contains("(fpga_float<8,71>)"));
        let ovl = RepairEdit::OpOverload {
            var: "y".into(),
            function: Some("kernel".into()),
        };
        let r = ovl.apply(&q).unwrap();
        let src = minic::print_program(&r);
        assert!(src.contains("fpga_add_8_71("), "{src}");
        // Behaviour preserved.
        let mut m1 = minic_exec::Vm::new(
            minic_exec::compiled_for(&p),
            minic_exec::MachineConfig::cpu(),
        )
        .unwrap();
        let a = m1
            .run_function("kernel", vec![minic_exec::Value::int(41)])
            .unwrap();
        let mut m2 = minic_exec::Vm::new(
            minic_exec::compiled_for(&r),
            minic_exec::MachineConfig::cpu(),
        )
        .unwrap();
        let b = m2
            .run_function("kernel", vec![minic_exec::Value::int(41)])
            .unwrap();
        assert_eq!(a.as_int(), b.as_int());
    }

    #[test]
    fn pointer_param_to_array() {
        let p = minic::parse(
            "void helper(float* p) { p[0] = 1.0; }\nvoid kernel(float a[4]) { helper(a); }",
        )
        .unwrap();
        let e = RepairEdit::PointerParamToArray {
            function: "helper".into(),
            param: "p".into(),
            size: 4,
        };
        let q = e.apply(&p).unwrap();
        assert!(
            hls_sim::check_program(&q).is_empty(),
            "{:?}",
            hls_sim::check_program(&q)
        );
    }

    #[test]
    fn insert_and_delete_pragma() {
        let p = minic::parse("void kernel(int a[8]) { for (int i = 0; i < 8; i++) { a[i] = 0; } }")
            .unwrap();
        let ins = RepairEdit::InsertPragma {
            function: "kernel".into(),
            loop_index: Some(0),
            pragma: PragmaKind::Pipeline { ii: Some(1) },
        };
        let q = ins.apply(&p).unwrap();
        assert!(minic::print_program(&q).contains("#pragma HLS pipeline II=1"));
        // Duplicate insert refused.
        assert!(ins.apply(&q).is_none());
        let del = RepairEdit::DeletePragma {
            function: "kernel".into(),
            kind: "pipeline".into(),
        };
        let r = del.apply(&q).unwrap();
        assert!(!minic::print_program(&r).contains("pipeline"));
    }

    #[test]
    fn replace_unroll_factor() {
        let p = minic::parse(
            "void kernel(int a[8]) { for (int i = 0; i < 8; i++) {\n#pragma HLS unroll factor=50\n a[i] = 0; } }",
        )
        .unwrap();
        let e = RepairEdit::ReplacePragmaFactor {
            function: "kernel".into(),
            kind: "unroll".into(),
            var: None,
            value: 4,
        };
        let q = e.apply(&p).unwrap();
        assert!(minic::print_program(&q).contains("unroll factor=4"));
    }

    #[test]
    fn pad_array_fixes_partition_mismatch() {
        let p = minic::parse(
            r#"
            void kernel(int x) {
                int A[13];
            #pragma HLS array_partition variable=A factor=4 dim=1
                for (int i = 0; i < 13; i++) { A[i] = x; }
            }
        "#,
        )
        .unwrap();
        assert!(!hls_sim::check_program(&p).is_empty());
        let e = RepairEdit::PadArray {
            var: "A".into(),
            function: Some("kernel".into()),
            new_size: 16,
        };
        let q = e.apply(&p).unwrap();
        assert!(hls_sim::check_program(&q).is_empty());
    }

    #[test]
    fn duplicate_array_arg_fixes_dataflow() {
        let src = r#"
            void task(int d[8], int out[8], int mult) {
                for (int i = 0; i < 8; i++) { out[i] = d[i] * mult; }
            }
            void kernel(int data[8], int o1[8], int o2[8]) {
            #pragma HLS dataflow
                task(data, o1, 2);
                task(data, o2, 3);
            }
        "#;
        let p = minic::parse(src).unwrap();
        assert!(hls_sim::check_program(&p)
            .iter()
            .any(|d| d.message.contains("dataflow")));
        let e = RepairEdit::DuplicateArrayArg {
            function: "kernel".into(),
            var: "data".into(),
        };
        let q = e.apply(&p).unwrap();
        assert!(
            hls_sim::check_program(&q).is_empty(),
            "{:?}",
            hls_sim::check_program(&q)
        );
        // Behaviour preserved.
        let args = vec![
            minic_exec::ArgValue::IntArray((0..8).collect()),
            minic_exec::ArgValue::IntArray(vec![0; 8]),
            minic_exec::ArgValue::IntArray(vec![0; 8]),
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
        assert!(a.behaviour_eq(&b), "{a:?} vs {b:?}");
    }

    #[test]
    fn insert_pragma_in_method_targets_struct_loops() {
        let p = minic::parse(
            r#"
            struct Worker {
                hls::stream<unsigned> &in;
                hls::stream<unsigned> &out;
                Worker(hls::stream<unsigned> &i, hls::stream<unsigned> &o) : in(i), out(o) {}
                void run() {
                    while (!in.empty()) { out.write(in.read() * 2u); }
                }
            };
            void kernel(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
                Worker{in, out}.run();
            }
        "#,
        )
        .unwrap();
        let e = RepairEdit::InsertPragmaInMethod {
            struct_name: "Worker".into(),
            method: "run".into(),
            loop_index: 0,
            pragma: PragmaKind::Pipeline { ii: Some(1) },
        };
        let q = e.apply(&p).unwrap();
        let src = minic::print_program(&q);
        assert!(src.contains("pipeline II=1"), "{src}");
        // Duplicate insert refused.
        assert!(e.apply(&q).is_none());
        // Missing method refused.
        let bad = RepairEdit::InsertPragmaInMethod {
            struct_name: "Worker".into(),
            method: "nope".into(),
            loop_index: 0,
            pragma: PragmaKind::Pipeline { ii: Some(1) },
        };
        assert!(bad.apply(&p).is_none());
    }

    #[test]
    fn set_top_updates_the_printed_pragma() {
        let p =
            minic::parse("#pragma HLS top name=wrong\nvoid proc(int a[4]) { a[0] = 1; }").unwrap();
        let q = RepairEdit::SetTop {
            name: "proc".into(),
        }
        .apply(&p)
        .unwrap();
        let printed = minic::print_program(&q);
        assert!(printed.contains("top name=proc"), "{printed}");
        // Reparsing the printed source restores the same configuration.
        let r = minic::parse(&printed).unwrap();
        assert_eq!(r.config.top.as_deref(), Some("proc"));
    }

    #[test]
    fn set_top_fixes_missing_top() {
        let p = minic::parse("void process(int a[4]) { a[0] = 1; }").unwrap();
        assert!(!hls_sim::check_program(&p).is_empty());
        let e = RepairEdit::SetTop {
            name: "process".into(),
        };
        let q = e.apply(&p).unwrap();
        assert!(hls_sim::check_program(&q).is_empty());
    }

    #[test]
    fn fix_clock_clamps() {
        let p = minic::parse("#pragma HLS config clock=1200\nvoid kernel(int a[4]) { a[0] = 1; }")
            .unwrap();
        let q = RepairEdit::FixClock.apply(&p).unwrap();
        assert!(hls_sim::check_program(&q).is_empty());
        assert!(RepairEdit::FixClock.apply(&q).is_none());
    }
}
