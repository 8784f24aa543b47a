//! Bytecode compiler for minic: lowers a [`Program`] into a flat instruction
//! array executed by [`crate::vm::Vm`].
//!
//! The compiler is **total**: every program compiles, and the result is
//! *observably identical* to the reference tree-walker (`interp::Machine`):
//! same values, same `ExecError` classifications and message strings, same
//! fuel (`ops`) accounting, same coverage/profile/loop statistics, same
//! allocation order.
//!
//! Key ideas:
//!
//! - **Symbols are interned** (`names`), variables are resolved to frame
//!   **slots** at compile time, and jump targets are absolute indices.
//!   Lexical scope equals the walker's dynamic scope because both engines
//!   reject a `goto` that would tell them apart (`semantics::goto_crossing`).
//! - **`goto`** is a jump, patched once the body is laid out, to just past
//!   the first top-level label of its name; like the walker, it leaves any
//!   enclosing block or loop, and an unknown label fails when the `goto`
//!   executes.
//! - **Fuel charges are merged**: the walker charges 1 unit at every
//!   statement/expression/place entry; consecutive unit charges with no
//!   intervening side effect collapse into one stepwise charge whose trap
//!   state (`ops == fuel + 1`) is exactly what the unit-at-a-time sequence
//!   would produce. The merged charge rides in the `charge` field of the
//!   next instruction when it has one (`Const`, `LoadVar`, `AddrVar`,
//!   `StoreVar`, `Alloc`) and is a standalone `Insn::Charge` otherwise and
//!   at every jump target. Multi-unit charges (calls, streams, math
//!   builtins) keep walker overshoot semantics via `Insn::ChargeN`.
//! - **Types are erased**: every coercion site is precompiled to a `Co`
//!   (resolved scalar target, pointer stride, or a deterministic error),
//!   every store site to a `StoreK`, so the VM never consults typedef,
//!   struct, or define tables.
//! - **Statically-known runtime errors** (unknown variable/function or
//!   label, non-lvalue assignment, a builtin called with too few
//!   arguments, a call of a method prototype, a runtime extent below a
//!   VLA's outermost dimension, …) compile to `Insn::FailErr` at the exact
//!   program point — and with the exact message — where the walker would
//!   discover them.
//! - **VLAs** (`int line[w]`) are sized when the declaration executes:
//!   `Insn::AllocVla` reads the extent off the operand stack and keeps the
//!   length in a hidden slot next to the array's, which bounds checks,
//!   `&vla` strides and type-naming errors read back.
//! - **Struct methods** compile to their own `FnSpec` per (struct,
//!   method, bound-argument count); the receiver's base address travels in
//!   a hidden slot after the parameters, and receiver fields resolve to
//!   `base + offset` places after block scopes and before globals, exactly
//!   as the walker's `lookup`. **Struct literals** allocate first, keep
//!   their arguments on the operand stack, and store fields through
//!   `Insn::StoreAgg`.

use crate::error::ExecError;
use crate::semantics::{
    arity_error, crossing_error, field_offset, goto_crossing, has_runtime_extent, nested_vla_error,
    type_size, unknown_label_error,
};
use crate::value::Value;
use minic::ast::*;
use minic::typeck;
use minic::types::{ArraySize, Type};
use std::collections::HashMap;

/// Slot index; the high bit marks a global slot.
pub(crate) const GLOBAL_BIT: u32 = 1 << 31;

/// A precompiled coercion target (mirrors [`crate::value::coerce`]).
#[derive(Debug, Clone)]
pub(crate) enum Co {
    /// Coerce to this (non-pointer) type; `coerce` never consults `size_of`
    /// for these.
    Ty(Type),
    /// Pointer target with precomputed `size_of(inner).max(1)` stride.
    PtrStride(usize),
    /// Pointer target whose pointee size is deterministically unknowable:
    /// coercing always fails with this error.
    PtrErr(ExecError),
}

/// A precompiled `store_typed` site.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StoreK {
    /// Raw single-cell store (streams).
    Raw,
    /// Struct/union aggregate copy of this many cells when the value is a
    /// pointer; raw store otherwise.
    AggOk(usize),
    /// Aggregate whose size is unknowable: fails (index into `errors`) when
    /// the value is a pointer, raw store otherwise.
    AggErr(u32),
    /// Scalar/pointer coercion site (index into `cos`).
    Co(u32),
}

/// Unary math builtins charging 8 fuel units.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Math1Op {
    Sqrt,
    Fabs,
    Exp,
    Log,
    Sin,
    Cos,
    Tan,
    Floor,
    Ceil,
    Round,
}

/// Binary math builtins charging 10 fuel units.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Math2Op {
    Pow,
    Fmin,
    Fmax,
    Atan2,
    Fmod,
}

/// One VM instruction. Place addresses travel the operand stack as
/// `Value::Ptr { addr, stride: 1 }`.
#[derive(Debug, Clone)]
pub(crate) enum Insn {
    /// Stop executing (globals epilogue / outermost return).
    Halt,
    /// `n` merged unit charges: on exhaustion `ops` is clamped to
    /// `fuel + 1`, exactly as `n` consecutive walker `charge(1)` calls.
    Charge(u64),
    /// A single multi-unit charge with walker overshoot semantics.
    ChargeN(u64),
    /// Push a constant. Like every `charge` field, `charge` holds the unit
    /// charges folded in by `emit`, applied as an [`Insn::Charge`] would be
    /// before the instruction takes effect.
    Const {
        v: Value,
        charge: u64,
    },
    Pop,
    Jump(u32),
    /// Pop condition, record branch coverage, jump when false.
    BranchFalse {
        site: u32,
        target: u32,
    },
    /// Pop condition, record branch coverage, jump when true.
    BranchTrue {
        site: u32,
        target: u32,
    },
    /// Record an always-true branch outcome (`for` with no condition).
    CoverTrue {
        site: u32,
    },
    /// Count one loop iteration.
    LoopIter {
        site: u32,
    },
    /// Short-circuit `&&`: pop lhs; when falsy push `false` and jump.
    AndShort(u32),
    /// Short-circuit `||`: pop lhs; when truthy push `true` and jump.
    OrShort(u32),
    ToBool,
    /// Push the scalar stored in a variable's cell.
    LoadVar {
        sl: u32,
        charge: u64,
    },
    /// Push a decay pointer (array/aggregate rvalue) to a variable's cell.
    DecayVar {
        sl: u32,
        stride: usize,
    },
    /// Push a variable's cell address as a place.
    AddrVar {
        sl: u32,
        charge: u64,
    },
    /// Push a receiver field's place: the base address held in method
    /// slot `sl` plus the field offset.
    AddrField {
        sl: u32,
        off: usize,
    },
    /// Pop a place, push the value stored there.
    LoadPlace,
    /// Pop a place, push `Ptr { addr, stride }` (array/aggregate decay,
    /// `&` address-of).
    DecayPlace(usize),
    /// Pop a value, require a non-null pointer, push its address as a place.
    PlaceDeref,
    /// Pop base place and index: static-array indexing with bounds policy
    /// and (when `prof != u32::MAX`) max-index profiling.
    PlaceIndexArr {
        esize: usize,
        len: u64,
        prof: u32,
    },
    /// [`Insn::PlaceIndexArr`] on a VLA: the length is the one fixed at
    /// declaration, held in slot `len_sl`.
    PlaceIndexVla {
        esize: usize,
        len_sl: u32,
        prof: u32,
    },
    /// Pop base place and index: load the pointer stored at the base and
    /// offset by `index * stride`.
    PlaceIndexPtr,
    /// Pop a pointer rvalue and index: offset by `index * stride`.
    PlaceIndexVal,
    /// Pop a place, push it offset by a field offset.
    PlaceOffset(usize),
    /// Pop a value, require a non-null pointer (`->`), push as place.
    ArrowAddr,
    /// Assignment to a named variable (pop rhs, optional compound op,
    /// store via `k`, optional int-range profiling, push the reloaded
    /// value).
    StoreVar {
        sl: u32,
        k: StoreK,
        op: Option<BinOp>,
        prof: u32,
        charge: u64,
    },
    /// Assignment through a place (stack: rhs below place); `prof` as in
    /// [`Insn::StoreVar`] (receiver fields assigned by name).
    StoreInd {
        k: StoreK,
        op: Option<BinOp>,
        prof: u32,
    },
    /// Declaration initializer store (no result pushed).
    StoreInit {
        sl: u32,
        k: StoreK,
    },
    /// Init-list element store at `slot address + off` through coercion
    /// `co` (no result pushed).
    StoreCell {
        sl: u32,
        off: usize,
        co: u32,
    },
    /// `++`/`--` on a popped place.
    IncDec {
        delta: i8,
        prefix: bool,
        k: StoreK,
        prof: u32,
    },
    /// Allocate `size` cells for a declaration (fresh per execution) and
    /// bind the slot; `stream` seeds the cell with a new stream handle.
    Alloc {
        sl: u32,
        size: usize,
        stream: bool,
        charge: u64,
    },
    /// VLA declaration: pop the extent variable's value `v`, allocate
    /// `max(v, 0).max(1) * esize` cells, bind slot `sl` and record the
    /// length in slot `sl + 1`.
    AllocVla {
        sl: u32,
        esize: usize,
    },
    /// Pop a VLA place, push `&vla` (stride: the declared length times
    /// `esize`, length from slot `len_sl`).
    DecayVla {
        esize: usize,
        len_sl: u32,
    },
    /// Struct literal: allocate this many cells and push them as a place.
    NewAgg(usize),
    /// Push a copy of the operand `depth` entries below the top.
    Pick(u32),
    /// Pop a value and store it through `k` at `off` cells past the place
    /// `below` entries under the (post-pop) top.
    StoreAgg {
        below: u32,
        off: usize,
        k: StoreK,
    },
    /// Discard this many operands from the top of the stack.
    DropN(u32),
    /// `#define` global: allocate one cell holding the constant.
    GDefine {
        sl: u32,
        v: i128,
    },
    Neg,
    NotL,
    BitNot,
    /// Pop rhs/lhs, charge 1, apply [`crate::semantics::binop_value`].
    Bin(BinOp),
    /// Pop, apply coercion `co`, push.
    CastTo(u32),
    /// Call a compiled function; argument count comes from its `FnSpec`.
    CallFn {
        f: u32,
    },
    /// Call a compiled struct method: pop the arguments, then the
    /// receiver place, whose address binds the method's receiver slot.
    CallMethod {
        f: u32,
    },
    /// Return the popped value (it stays on the operand stack).
    Ret,
    /// Return `Unit`.
    RetUnit,
    /// A statically-known runtime error at this program point.
    FailErr(u32),
    /// A runtime error naming a VLA's type, whose extent is read from
    /// slot `len_sl` (template index into `vla_errs`).
    FailVla {
        msg: u32,
        len_sl: u32,
    },
    Malloc,
    FreeP,
    AbsI,
    Math1(Math1Op),
    Math2(Math2Op),
    Memset,
    Memcpy,
    /// Pop a stream-typed rvalue, push its handle.
    StreamFromVal,
    /// Pop a place holding a stream handle, push the handle.
    StreamFromPlace,
    StreamPush,
    StreamPop,
    StreamEmptyQ,
    StreamFullQ,
    StreamSizeQ,
}

impl Insn {
    /// The folded unit-charge field, for the variants that carry one.
    fn charge_mut(&mut self) -> Option<&mut u64> {
        match self {
            Insn::Const { charge, .. }
            | Insn::LoadVar { charge, .. }
            | Insn::AddrVar { charge, .. }
            | Insn::StoreVar { charge, .. }
            | Insn::Alloc { charge, .. } => Some(charge),
            _ => None,
        }
    }
}

/// Per-parameter precomputed binding/conversion data.
#[derive(Debug, Clone)]
pub(crate) struct ParamSpec {
    /// Interned parameter name (diagnostics for unbound parameters).
    pub pname: u32,
    /// Resolved declared type (kernel argument matching + error messages).
    pub pty: Type,
    /// Binding type (arrays decayed to pointers) is a stream: bind raw.
    pub is_stream: bool,
    /// Coercion for call-site binding (unused when `is_stream`).
    pub bco: u32,
    /// Coercion for kernel-entry integer arguments (`u32::MAX` when the
    /// parameter is not integer/bool typed).
    pub kco: u32,
    /// Kernel-entry array argument: element-is-float, or the error index
    /// for a non-array parameter.
    pub arr: Result<bool, u32>,
}

/// A compiled function.
#[derive(Debug, Clone)]
pub(crate) struct FnSpec {
    /// Interned function name.
    pub name: u32,
    /// Entry offset into `code`.
    pub entry: u32,
    /// Local slot count (parameters first, then a method's receiver slot).
    pub n_slots: u32,
    pub params: Vec<ParamSpec>,
}

/// A program compiled to bytecode. Independent of [`crate::MachineConfig`]:
/// bounds policy, fuel and profiling are runtime concerns, so one compile
/// serves both CPU and FPGA configurations.
#[derive(Debug)]
pub struct CompiledProgram {
    pub(crate) code: Vec<Insn>,
    pub(crate) funcs: Vec<FnSpec>,
    /// Function definitions by name (first definition wins, mirroring
    /// `Program::function`).
    pub(crate) by_name: HashMap<String, u32>,
    /// Interned names (functions, profiled variables, `"<global>"`).
    pub(crate) names: Vec<String>,
    /// Precomputed runtime errors referenced by instructions.
    pub(crate) errors: Vec<ExecError>,
    /// Precompiled coercions.
    pub(crate) cos: Vec<Co>,
    /// `(message prefix, element type)` templates of errors naming a VLA's
    /// type: the message is ``{prefix} `{elem}[n]` `` with the length `n`
    /// fixed at declaration.
    pub(crate) vla_errs: Vec<(&'static str, Type)>,
    /// Branch-coverage sites (statement/ternary node ids).
    pub(crate) branch_sites: Vec<NodeId>,
    /// Loop-statistics sites.
    pub(crate) loop_sites: Vec<NodeId>,
    /// Int-range profile sites `(function name, variable name)`.
    pub(crate) int_sites: Vec<(u32, u32)>,
    /// Max-index profile sites `(function name, array name)`.
    pub(crate) idx_sites: Vec<(u32, u32)>,
    /// Global slot count.
    pub(crate) n_globals: u32,
    /// Entry offset of the globals-initialization segment.
    pub(crate) globals_entry: u32,
}

/// Compiles a program to bytecode. Total: every program compiles, and
/// whatever the walker would reject at run time compiles to a failing
/// instruction at the same program point.
pub fn compile(p: &Program) -> CompiledProgram {
    Compiler::new(p).run()
}

/// A compile-time variable binding (resolved type).
#[derive(Debug, Clone)]
struct CVar {
    sl: u32,
    ty: Type,
    /// Slot holding a VLA's length fixed at declaration.
    vla_len: Option<u32>,
}

impl CVar {
    fn new(sl: u32, ty: Type) -> CVar {
        CVar {
            sl,
            ty,
            vla_len: None,
        }
    }
}

/// What a name resolves to (the walker's `lookup` order).
#[derive(Debug, Clone)]
enum Name {
    /// A block-scoped local or a global.
    Var(CVar),
    /// A field of the method receiver whose base sits in slot `sl`.
    Field { sl: u32, off: usize, ty: Type },
}

impl Name {
    fn ty(&self) -> &Type {
        match self {
            Name::Var(cv) => &cv.ty,
            Name::Field { ty, .. } => ty,
        }
    }

    fn vla_len(&self) -> Option<u32> {
        match self {
            Name::Var(cv) => cv.vla_len,
            Name::Field { .. } => None,
        }
    }
}

/// The receiver of the method body being compiled.
struct SelfCtx<'p> {
    /// Struct name as resolved from the receiver's place type.
    sname: &'p str,
    /// Slot holding the receiver's base address.
    sl: u32,
}

#[derive(Default)]
struct LoopCtx {
    /// Forward patches jumping to the loop end.
    brks: Vec<usize>,
    /// Forward patches for `continue` (do-while condition / for step).
    conts: Vec<usize>,
    /// Backward `continue` target when already known (`while`).
    cont_target: Option<u32>,
    /// A `for` initializer rather than a loop: the walker drops every flow
    /// but `return` there, so `break`, `continue` and `goto` all land at
    /// the initializer's end (patched through `brks` and `conts`).
    init: bool,
}

struct Compiler<'p> {
    p: &'p Program,
    expr_types: HashMap<NodeId, Type>,
    code: Vec<Insn>,
    funcs: Vec<FnSpec>,
    fn_asts: Vec<&'p Function>,
    /// Per function: `(receiver struct, bound-argument count)` for methods.
    fn_recv: Vec<Option<(&'p str, usize)>>,
    by_name: HashMap<String, u32>,
    /// Method variants by `(struct, method, bound-argument count)`.
    methods: HashMap<(&'p str, &'p str, usize), u32>,
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    errors: Vec<ExecError>,
    cos: Vec<Co>,
    vla_errs: Vec<(&'static str, Type)>,
    branch_sites: Vec<NodeId>,
    loop_sites: Vec<NodeId>,
    int_sites: Vec<(u32, u32)>,
    int_ids: HashMap<(u32, u32), u32>,
    idx_sites: Vec<(u32, u32)>,
    idx_ids: HashMap<(u32, u32), u32>,
    globals: HashMap<String, CVar>,
    locals: Vec<HashMap<String, CVar>>,
    next_slot: u32,
    n_globals: u32,
    cur_fn: u32,
    self_ctx: Option<SelfCtx<'p>>,
    loop_stack: Vec<LoopCtx>,
    /// Body of the function being compiled.
    body: Option<&'p Block>,
    /// Index of the top-level statement being compiled.
    top: usize,
    /// First top-level index of each label in the body (the walker's
    /// `goto` targets).
    labels: HashMap<&'p str, usize>,
    /// Resume offset after each top-level label, by index.
    label_pcs: HashMap<usize, u32>,
    /// `goto` jumps awaiting their label's offset: (patch site, index).
    gotos: Vec<(usize, usize)>,
    /// Unit charges accumulated since the last emitted instruction.
    pending: u64,
}

impl<'p> Compiler<'p> {
    fn new(p: &'p Program) -> Compiler<'p> {
        Compiler {
            p,
            expr_types: typeck::check(p).expr_types,
            code: Vec::new(),
            funcs: Vec::new(),
            fn_asts: Vec::new(),
            fn_recv: Vec::new(),
            by_name: HashMap::new(),
            methods: HashMap::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            errors: Vec::new(),
            cos: Vec::new(),
            vla_errs: Vec::new(),
            branch_sites: Vec::new(),
            loop_sites: Vec::new(),
            int_sites: Vec::new(),
            int_ids: HashMap::new(),
            idx_sites: Vec::new(),
            idx_ids: HashMap::new(),
            globals: HashMap::new(),
            locals: Vec::new(),
            next_slot: 0,
            n_globals: 0,
            cur_fn: 0,
            self_ctx: None,
            loop_stack: Vec::new(),
            body: None,
            top: 0,
            labels: HashMap::new(),
            label_pcs: HashMap::new(),
            gotos: Vec::new(),
            pending: 0,
        }
    }

    fn run(mut self) -> CompiledProgram {
        // Register function definitions first (calls resolve in any order;
        // the first definition of a name wins, like `Program::function`).
        for item in &self.p.items {
            if let Item::Function(f) = item {
                if f.body.is_some() && !self.by_name.contains_key(&f.name) {
                    let idx = self.register_fn(f, None);
                    self.by_name.insert(f.name.clone(), idx);
                }
            }
        }
        // code[0] is the universal halt used as the outermost return target.
        self.code.push(Insn::Halt);
        let globals_entry = self.code.len() as u32;
        self.compile_globals();
        // Method variants are registered as call sites reach them, so the
        // list grows while it is walked.
        let mut i = 0;
        while i < self.funcs.len() {
            self.compile_function(i);
            i += 1;
        }
        debug_assert_eq!(self.pending, 0);
        // Compiled programs live in the process-wide cache: drop the
        // growth slack of the arrays that scale with program size.
        self.code.shrink_to_fit();
        self.cos.shrink_to_fit();
        self.errors.shrink_to_fit();
        CompiledProgram {
            code: self.code,
            funcs: self.funcs,
            by_name: self.by_name,
            names: self.names,
            errors: self.errors,
            cos: self.cos,
            vla_errs: self.vla_errs,
            branch_sites: self.branch_sites,
            loop_sites: self.loop_sites,
            int_sites: self.int_sites,
            idx_sites: self.idx_sites,
            n_globals: self.n_globals,
            globals_entry,
        }
    }

    // ----- small helpers ----------------------------------------------------

    fn name_id(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(s) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(s.to_string());
        self.name_ids.insert(s.to_string(), id);
        id
    }

    /// Queues a function body (a method with its receiver struct and
    /// bound-argument count) for compilation; returns its index.
    fn register_fn(&mut self, f: &'p Function, recv: Option<(&'p str, usize)>) -> u32 {
        let idx = self.funcs.len() as u32;
        let name = self.name_id(&f.name);
        self.fn_asts.push(f);
        self.fn_recv.push(recv);
        self.funcs.push(FnSpec {
            name,
            entry: 0,
            n_slots: 0,
            params: Vec::new(),
        });
        idx
    }

    fn err_id(&mut self, e: ExecError) -> u32 {
        self.errors.push(e);
        (self.errors.len() - 1) as u32
    }

    fn co_push(&mut self, co: Co) -> u32 {
        self.cos.push(co);
        (self.cos.len() - 1) as u32
    }

    fn bsite(&mut self, id: NodeId) -> u32 {
        self.branch_sites.push(id);
        (self.branch_sites.len() - 1) as u32
    }

    fn lsite(&mut self, id: NodeId) -> u32 {
        self.loop_sites.push(id);
        (self.loop_sites.len() - 1) as u32
    }

    fn int_site(&mut self, var: &str) -> u32 {
        let key = (self.cur_fn, self.name_id(var));
        if let Some(&id) = self.int_ids.get(&key) {
            return id;
        }
        let id = self.int_sites.len() as u32;
        self.int_sites.push(key);
        self.int_ids.insert(key, id);
        id
    }

    fn idx_site(&mut self, var: &str) -> u32 {
        let key = (self.cur_fn, self.name_id(var));
        if let Some(&id) = self.idx_ids.get(&key) {
            return id;
        }
        let id = self.idx_sites.len() as u32;
        self.idx_sites.push(key);
        self.idx_ids.insert(key, id);
        id
    }

    fn flush(&mut self) {
        if self.pending > 0 {
            let n = std::mem::take(&mut self.pending);
            self.code.push(Insn::Charge(n));
        }
    }

    /// Appends `i`. Pending unit charges fold into its `charge` field when
    /// it has one, and otherwise flush as a standalone `Charge` before it.
    fn emit(&mut self, mut i: Insn) {
        match i.charge_mut() {
            Some(charge) => *charge = std::mem::take(&mut self.pending),
            None => self.flush(),
        }
        self.code.push(i);
    }

    fn emit_const(&mut self, v: Value) {
        self.emit(Insn::Const { v, charge: 0 });
    }

    /// Binds a label here (flushing pending charges into the fall-through
    /// path first, so jumps land after them). The flush is always a
    /// standalone `Charge`, never folded into the instruction at the label:
    /// every jump target is taken here, so no jump skips or pays a charge
    /// that belongs to the path falling through.
    fn here(&mut self) -> u32 {
        self.flush();
        self.code.len() as u32
    }

    fn emit_patch(&mut self, i: Insn) -> usize {
        self.emit(i);
        self.code.len() - 1
    }

    fn set_target(&mut self, at: usize, t: u32) {
        match &mut self.code[at] {
            Insn::Jump(x)
            | Insn::BranchFalse { target: x, .. }
            | Insn::BranchTrue { target: x, .. }
            | Insn::AndShort(x)
            | Insn::OrShort(x) => *x = t,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn patch_to_here(&mut self, at: usize) {
        let t = self.here();
        self.set_target(at, t);
    }

    /// Emits a statically-known runtime error at the current point.
    fn fail(&mut self, e: ExecError) {
        let id = self.err_id(e);
        self.emit(Insn::FailErr(id));
    }

    fn new_slot(&mut self) -> u32 {
        let s = self.next_slot;
        self.next_slot += 1;
        s
    }

    fn new_gslot(&mut self) -> u32 {
        let s = self.n_globals;
        self.n_globals += 1;
        s | GLOBAL_BIT
    }

    /// Mirror of `Machine::lookup`: block scopes, then the receiver's
    /// fields (one whose offset the walker cannot compute is skipped, as
    /// there), then globals.
    fn lookup(&self, name: &str) -> Option<Name> {
        for scope in self.locals.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(Name::Var(v.clone()));
            }
        }
        if let Some(cx) = &self.self_ctx {
            if let Ok((off, fty)) = field_offset(self.p, cx.sname, name) {
                return Some(Name::Field {
                    sl: cx.sl,
                    off,
                    ty: self.resolve(&fty),
                });
            }
        }
        self.globals.get(name).cloned().map(Name::Var)
    }

    /// Pushes a resolved name's cell address as a place (no charge).
    fn emit_addr(&mut self, n: &Name) {
        match n {
            Name::Var(cv) => self.emit(Insn::AddrVar {
                sl: cv.sl,
                charge: 0,
            }),
            Name::Field { sl, off, .. } => self.emit(Insn::AddrField { sl: *sl, off: *off }),
        }
    }

    fn declare(&mut self, name: &str, cv: CVar) {
        self.locals
            .last_mut()
            .expect("scope")
            .insert(name.to_string(), cv);
    }

    // ----- type mirrors -----------------------------------------------------

    fn resolve(&self, t: &Type) -> Type {
        t.resolve_named(&|n| self.p.typedef(n).cloned())
    }

    fn size_of(&self, t: &Type) -> Result<usize, ExecError> {
        type_size(self.p, t, 0)
    }

    /// Precompiles `coerce(v, t)` for a target type *as the walker would
    /// pass it* (raw or resolved — `coerce` matches on the type as given).
    fn co_of(&mut self, t: &Type) -> u32 {
        let co = match t {
            Type::Pointer(inner) => match self.size_of(inner) {
                Ok(n) => Co::PtrStride(n.max(1)),
                Err(e) => Co::PtrErr(e),
            },
            other => Co::Ty(other.clone()),
        };
        self.co_push(co)
    }

    /// Precompiles a `store_typed` site (resolves first, like the walker).
    fn storek(&mut self, ty: &Type) -> StoreK {
        let ty = self.resolve(ty);
        match &ty {
            Type::Struct(_) | Type::Union(_) => match self.size_of(&ty) {
                Ok(n) => StoreK::AggOk(n),
                Err(e) => {
                    let id = self.err_id(e);
                    StoreK::AggErr(id)
                }
            },
            Type::Stream(_) => StoreK::Raw,
            _ => StoreK::Co(self.co_of(&ty)),
        }
    }

    /// Mirror of `Machine::static_type`: resolved binding type for a known
    /// identifier, raw inferred type otherwise.
    fn static_type(&self, e: &Expr) -> Option<Type> {
        if let ExprKind::Ident(n) = &e.kind {
            if let Some(name) = self.lookup(n) {
                return Some(name.ty().clone());
            }
        }
        self.expr_types.get(&e.id).cloned()
    }

    // ----- globals ----------------------------------------------------------

    fn compile_globals(&mut self) {
        self.cur_fn = self.name_id("<global>");
        for item in &self.p.items {
            match item {
                Item::Define(name, v) => {
                    let sl = self.new_gslot();
                    self.emit(Insn::GDefine { sl, v: *v });
                    self.globals
                        .insert(name.clone(), CVar::new(sl, Type::int()));
                }
                Item::Global(g) => {
                    let rty = self.resolve(&g.ty);
                    let sl = self.new_gslot();
                    match self.size_of(&g.ty) {
                        Err(e) => {
                            // `Machine::new` fails here; code past this
                            // point in the globals segment is dead but the
                            // binding stays visible to later compilation.
                            self.fail(e);
                            self.globals.insert(g.name.clone(), CVar::new(sl, rty));
                        }
                        Ok(size) => {
                            // The walker checks the *raw* declared type for
                            // stream initialization.
                            let stream = matches!(g.ty, Type::Stream(_));
                            self.emit(Insn::Alloc {
                                sl,
                                size,
                                stream,
                                charge: 0,
                            });
                            self.globals.insert(g.name.clone(), CVar::new(sl, rty));
                            if let Some(init) = &g.init {
                                // Globals match init shapes on the raw type.
                                self.compile_init(sl, &g.ty, init);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        self.emit(Insn::Halt);
    }

    // ----- functions --------------------------------------------------------

    fn compile_function(&mut self, idx: usize) {
        let f = self.fn_asts[idx];
        let recv = self.fn_recv[idx];
        self.cur_fn = self.funcs[idx].name;
        self.next_slot = 0;
        self.locals = vec![HashMap::new()];
        self.loop_stack.clear();
        // A method variant binds only the parameters its call sites pass
        // (the walker's `zip`); the rest resolve like any other name.
        let nbound = recv.map_or(f.params.len(), |(_, n)| n);
        let mut specs = Vec::with_capacity(nbound);
        for param in f.params.iter().take(nbound) {
            let pty = self.resolve(&param.ty);
            let bty = match &pty {
                Type::Array(e, _) => Type::Pointer(e.clone()),
                other => other.clone(),
            };
            let is_stream = matches!(bty, Type::Stream(_));
            let bco = if is_stream {
                u32::MAX
            } else {
                self.co_of(&bty)
            };
            let kco = if pty.is_integer() || matches!(pty, Type::Bool) {
                self.co_of(&pty)
            } else {
                u32::MAX
            };
            let arr = match &pty {
                Type::Array(e, _) | Type::Pointer(e) => Ok(self.resolve(e).is_float()),
                other => Err(self.err_id(ExecError::setup(format!(
                    "array argument for non-array parameter `{other}`"
                )))),
            };
            let sl = self.new_slot();
            let pname = self.name_id(&param.name);
            self.locals[0].insert(param.name.clone(), CVar::new(sl, bty));
            specs.push(ParamSpec {
                pname,
                pty,
                is_stream,
                bco,
                kco,
                arr,
            });
        }
        if let Some((sname, _)) = recv {
            let sl = self.new_slot();
            self.self_ctx = Some(SelfCtx { sname, sl });
        }
        let entry = self.here();
        match &f.body {
            Some(body) => self.compile_body(body),
            // Only a method can name a prototype: the walker binds its
            // parameters, then fails.
            None => self.fail(ExecError::setup(format!("call of prototype `{}`", f.name))),
        }
        self.self_ctx = None;
        let name = self.funcs[idx].name;
        self.funcs[idx] = FnSpec {
            name,
            entry,
            n_slots: self.next_slot,
            params: specs,
        };
        debug_assert!(self.loop_stack.is_empty());
    }

    /// Compiles a function body. Its top-level labels are the `goto`
    /// targets (the first of a name wins), patched once the body is laid
    /// out.
    fn compile_body(&mut self, body: &'p Block) {
        self.body = Some(body);
        self.labels.clear();
        self.label_pcs.clear();
        for (i, s) in body.stmts.iter().enumerate() {
            if let StmtKind::Label(l) = &s.kind {
                self.labels.entry(l.as_str()).or_insert(i);
            }
        }
        for (i, s) in body.stmts.iter().enumerate() {
            self.top = i;
            self.compile_stmt(s);
            if matches!(s.kind, StmtKind::Label(_)) {
                // Flushes the label's own charge into the fall-through
                // path: a `goto` resumes after the label, uncharged.
                let pc = self.here();
                self.label_pcs.insert(i, pc);
            }
        }
        self.emit(Insn::RetUnit);
        for (at, t) in std::mem::take(&mut self.gotos) {
            let pc = self.label_pcs[&t];
            self.set_target(at, pc);
        }
    }

    /// Mirror of the walker's `goto`: a `for` initializer swallows it;
    /// anywhere else it leaves every enclosing block and loop and resumes
    /// after its label, failing where the walker does when the label is
    /// not a top-level one or the jump crosses a declaration.
    fn compile_goto(&mut self, label: &str) {
        if let Some(i) = self.loop_stack.iter().rposition(|c| c.init) {
            let at = self.emit_patch(Insn::Jump(0));
            self.loop_stack[i].brks.push(at);
            return;
        }
        let body = self.body.expect("goto outside a function body");
        match self.labels.get(label).copied() {
            None => self.fail(unknown_label_error(label)),
            Some(t) => match goto_crossing(self.p, body, self.top, t) {
                Some(name) => self.fail(crossing_error(label, name)),
                None => {
                    let at = self.emit_patch(Insn::Jump(0));
                    self.gotos.push((at, t));
                }
            },
        }
    }

    // ----- statements -------------------------------------------------------

    fn compile_block(&mut self, b: &Block) {
        self.locals.push(HashMap::new());
        for s in &b.stmts {
            self.compile_stmt(s);
        }
        self.locals.pop();
    }

    fn compile_stmt(&mut self, s: &Stmt) {
        self.pending += 1;
        match &s.kind {
            StmtKind::Decl(d) => self.compile_decl(d),
            StmtKind::Expr(e) => {
                self.compile_expr(e);
                self.emit(Insn::Pop);
            }
            StmtKind::If(c, t, els) => {
                self.compile_expr(c);
                let site = self.bsite(s.id);
                let bf = self.emit_patch(Insn::BranchFalse { site, target: 0 });
                self.compile_block(t);
                if let Some(e) = els {
                    let j = self.emit_patch(Insn::Jump(0));
                    self.patch_to_here(bf);
                    self.compile_block(e);
                    self.patch_to_here(j);
                } else {
                    self.patch_to_here(bf);
                }
            }
            StmtKind::While(c, b) => {
                let start = self.here();
                self.compile_expr(c);
                let site = self.bsite(s.id);
                let bf = self.emit_patch(Insn::BranchFalse { site, target: 0 });
                let lsite = self.lsite(s.id);
                self.emit(Insn::LoopIter { site: lsite });
                self.loop_stack.push(LoopCtx {
                    cont_target: Some(start),
                    ..LoopCtx::default()
                });
                self.compile_block(b);
                self.emit(Insn::Jump(start));
                let ctx = self.loop_stack.pop().expect("loop ctx");
                let end = self.here();
                self.set_target(bf, end);
                for at in ctx.brks {
                    self.set_target(at, end);
                }
            }
            StmtKind::DoWhile(b, c) => {
                let start = self.here();
                let site = self.bsite(s.id);
                let lsite = self.lsite(s.id);
                self.emit(Insn::LoopIter { site: lsite });
                self.loop_stack.push(LoopCtx::default());
                self.compile_block(b);
                let ctx = self.loop_stack.pop().expect("loop ctx");
                let cond_l = self.here();
                for at in ctx.conts {
                    self.set_target(at, cond_l);
                }
                self.compile_expr(c);
                self.emit(Insn::BranchTrue {
                    site,
                    target: start,
                });
                let end = self.here();
                for at in ctx.brks {
                    self.set_target(at, end);
                }
            }
            StmtKind::For(init, cond, step, b) => {
                self.locals.push(HashMap::new());
                if let Some(i) = init {
                    self.loop_stack.push(LoopCtx {
                        init: true,
                        ..LoopCtx::default()
                    });
                    self.compile_stmt(i);
                    let ctx = self.loop_stack.pop().expect("init ctx");
                    let end = self.here();
                    for at in ctx.brks.into_iter().chain(ctx.conts) {
                        self.set_target(at, end);
                    }
                }
                let start = self.here();
                let site = self.bsite(s.id);
                let bf = match cond {
                    Some(c) => {
                        self.compile_expr(c);
                        Some(self.emit_patch(Insn::BranchFalse { site, target: 0 }))
                    }
                    None => {
                        self.emit(Insn::CoverTrue { site });
                        None
                    }
                };
                let lsite = self.lsite(s.id);
                self.emit(Insn::LoopIter { site: lsite });
                self.loop_stack.push(LoopCtx::default());
                self.compile_block(b);
                let ctx = self.loop_stack.pop().expect("loop ctx");
                let step_l = self.here();
                for at in ctx.conts {
                    self.set_target(at, step_l);
                }
                if let Some(st) = step {
                    self.compile_expr(st);
                    self.emit(Insn::Pop);
                }
                self.emit(Insn::Jump(start));
                let end = self.here();
                if let Some(at) = bf {
                    self.set_target(at, end);
                }
                for at in ctx.brks {
                    self.set_target(at, end);
                }
                self.locals.pop();
            }
            StmtKind::Return(v) => match v {
                Some(e) => {
                    self.compile_expr(e);
                    self.emit(Insn::Ret);
                }
                None => self.emit(Insn::RetUnit),
            },
            StmtKind::Break => {
                if self.loop_stack.is_empty() {
                    // Flow::Break escapes the body; the function returns Unit.
                    self.emit(Insn::RetUnit);
                } else {
                    let at = self.emit_patch(Insn::Jump(0));
                    self.loop_stack.last_mut().expect("loop ctx").brks.push(at);
                }
            }
            StmtKind::Continue => match self.loop_stack.last() {
                None => self.emit(Insn::RetUnit),
                Some(ctx) => match ctx.cont_target {
                    Some(t) => self.emit(Insn::Jump(t)),
                    None => {
                        let at = self.emit_patch(Insn::Jump(0));
                        self.loop_stack.last_mut().expect("loop ctx").conts.push(at);
                    }
                },
            },
            StmtKind::Block(b) => self.compile_block(b),
            StmtKind::Pragma(_) | StmtKind::Label(_) | StmtKind::Empty => {}
            StmtKind::Goto(label) => self.compile_goto(label),
        }
    }

    fn compile_decl(&mut self, d: &VarDecl) {
        let ty = self.resolve(&d.ty);
        if has_runtime_extent(&ty) {
            return self.compile_vla_decl(d, ty);
        }
        let sl = self.new_slot();
        match self.size_of(&ty) {
            Err(e) => self.fail(e),
            Ok(size) => {
                let stream = matches!(ty, Type::Stream(_));
                self.emit(Insn::Alloc {
                    sl,
                    size,
                    stream,
                    charge: 0,
                });
                if let Some(init) = &d.init {
                    self.compile_init(sl, &ty, init);
                }
            }
        }
        self.declare(&d.name, CVar::new(sl, ty));
    }

    /// Mirror of the walker's `materialize_vla` declaration: the extent is
    /// the size variable's value when the declaration executes. Only the
    /// outermost dimension may be a runtime extent.
    fn compile_vla_decl(&mut self, d: &VarDecl, ty: Type) {
        let sl = self.new_slot();
        let len_sl = self.new_slot();
        match &ty {
            Type::Array(elem, ArraySize::Runtime(v)) if !has_runtime_extent(elem) => {
                match self.lookup(v) {
                    None => self.fail(ExecError::setup(format!("VLA size `{v}` not in scope"))),
                    Some(n) => {
                        self.emit_addr(&n);
                        self.emit(Insn::LoadPlace);
                        match self.size_of(elem) {
                            Err(e) => self.fail(e),
                            Ok(esize) => {
                                self.emit(Insn::AllocVla { sl, esize });
                                if let Some(init) = &d.init {
                                    self.compile_init(sl, &ty, init);
                                }
                            }
                        }
                    }
                }
            }
            _ => self.fail(nested_vla_error(&d.name)),
        }
        let cv = CVar {
            sl,
            ty,
            vla_len: Some(len_sl),
        };
        self.declare(&d.name, cv);
    }

    /// Mirror of `Machine::init_binding`; `ty` is the binding type exactly
    /// as the walker stores it (resolved for locals, raw for globals).
    fn compile_init(&mut self, sl: u32, ty: &Type, init: &Expr) {
        match (ty, &init.kind) {
            (Type::Array(elem, _), ExprKind::InitList(elems)) => match self.size_of(elem) {
                Err(e) => self.fail(e),
                Ok(esize) => {
                    let co = self.co_of(elem);
                    for (i, e) in elems.iter().enumerate() {
                        self.compile_expr(e);
                        self.emit(Insn::StoreCell {
                            sl,
                            off: i * esize,
                            co,
                        });
                    }
                }
            },
            (Type::Struct(name), ExprKind::InitList(elems)) => {
                match self.p.struct_def(name) {
                    None => {
                        if !elems.is_empty() {
                            self.fail(ExecError::setup("unknown struct"));
                        }
                    }
                    Some(def) => {
                        for (i, e) in elems.iter().enumerate() {
                            let Some(field) = def.fields.get(i) else {
                                break;
                            };
                            let fname = field.name.clone();
                            match field_offset(self.p, name, &fname) {
                                Err(err) => {
                                    self.fail(err);
                                    break;
                                }
                                Ok((off, fty)) => {
                                    // The walker coerces to the *raw* field
                                    // type here.
                                    let co = self.co_of(&fty);
                                    self.compile_expr(e);
                                    self.emit(Insn::StoreCell { sl, off, co });
                                }
                            }
                        }
                    }
                }
            }
            _ => {
                self.compile_expr(init);
                let k = self.storek(ty);
                self.emit(Insn::StoreInit { sl, k });
            }
        }
    }

    // ----- expressions ------------------------------------------------------

    fn compile_expr(&mut self, e: &Expr) {
        self.pending += 1;
        match &e.kind {
            ExprKind::IntLit(v, unsigned) => {
                self.emit_const(Value::Int {
                    v: *v,
                    bits: 64,
                    signed: !*unsigned,
                });
            }
            ExprKind::FloatLit(v, _) => {
                self.emit_const(Value::double(*v));
            }
            ExprKind::CharLit(c) => {
                self.emit_const(Value::Int {
                    v: *c as i128,
                    bits: 8,
                    signed: true,
                });
            }
            ExprKind::StrLit(_) => {
                self.emit_const(Value::null());
            }
            ExprKind::BoolLit(b) => {
                self.emit_const(Value::Bool(*b));
            }
            ExprKind::Ident(name) => self.compile_ident_rvalue(name),
            ExprKind::Unary(op, a) => self.compile_unary(e, *op, a),
            ExprKind::Binary(op, a, b) => {
                if matches!(op, BinOp::And | BinOp::Or) {
                    self.compile_expr(a);
                    let at = self.emit_patch(match op {
                        BinOp::And => Insn::AndShort(0),
                        _ => Insn::OrShort(0),
                    });
                    self.compile_expr(b);
                    self.emit(Insn::ToBool);
                    self.patch_to_here(at);
                    return;
                }
                self.compile_expr(a);
                self.compile_expr(b);
                self.emit(Insn::Bin(*op));
            }
            ExprKind::Assign(op, lhs, rhs) => {
                self.compile_expr(rhs);
                if let ExprKind::Ident(name) = &lhs.kind {
                    // Inline the walker's `place(Ident)` (entry charge +
                    // lookup) so assignment profiling can key on the name.
                    self.pending += 1;
                    match self.lookup(name) {
                        None => {
                            self.fail(ExecError::setup(format!("unknown variable `{name}`")));
                        }
                        Some(Name::Var(cv)) => {
                            let k = self.storek(&cv.ty);
                            let prof = self.int_site(name);
                            self.emit(Insn::StoreVar {
                                sl: cv.sl,
                                k,
                                op: *op,
                                prof,
                                charge: 0,
                            });
                        }
                        Some(field) => {
                            let k = self.storek(field.ty());
                            let prof = self.int_site(name);
                            self.emit_addr(&field);
                            self.emit(Insn::StoreInd { k, op: *op, prof });
                        }
                    }
                } else {
                    let ty = self.compile_place(lhs);
                    let k = self.storek(&ty);
                    self.emit(Insn::StoreInd {
                        k,
                        op: *op,
                        prof: u32::MAX,
                    });
                }
            }
            ExprKind::Call(name, args) => self.compile_call(name, args),
            ExprKind::MethodCall(recv, method, args) => self.compile_method(recv, method, args),
            ExprKind::Index(..) | ExprKind::Member(..) => {
                let ty = self.compile_place(e);
                match &ty {
                    Type::Array(elem, _) => match self.size_of(elem) {
                        Ok(stride) => self.emit(Insn::DecayPlace(stride)),
                        Err(err) => self.fail(err),
                    },
                    Type::Struct(_) | Type::Union(_) => self.emit(Insn::DecayPlace(1)),
                    _ => self.emit(Insn::LoadPlace),
                }
            }
            ExprKind::Cast(ty, a) => {
                self.compile_expr(a);
                let r = self.resolve(ty);
                let co = self.co_of(&r);
                self.emit(Insn::CastTo(co));
            }
            ExprKind::SizeOf(ty) => match self.size_of(ty) {
                Ok(n) => self.emit_const(Value::int(n as i128)),
                Err(err) => self.fail(err),
            },
            ExprKind::Ternary(c, t, f) => {
                self.compile_expr(c);
                let site = self.bsite(e.id);
                let bf = self.emit_patch(Insn::BranchFalse { site, target: 0 });
                self.compile_expr(t);
                let j = self.emit_patch(Insn::Jump(0));
                self.patch_to_here(bf);
                self.compile_expr(f);
                self.patch_to_here(j);
            }
            ExprKind::InitList(_) => {
                self.fail(ExecError::setup("initializer list outside declaration"));
            }
            ExprKind::StructLit(name, args) => self.compile_struct_lit(name, args),
        }
    }

    fn compile_ident_rvalue(&mut self, name: &str) {
        let Some(n) = self.lookup(name) else {
            self.fail(ExecError::setup(format!("unknown variable `{name}`")));
            return;
        };
        // Arrays and aggregates decay to a pointer; scalars load.
        let decay = match n.ty() {
            Type::Array(elem, _) => match self.size_of(elem) {
                Ok(stride) => Some(stride),
                Err(e) => {
                    self.fail(e);
                    return;
                }
            },
            Type::Struct(_) | Type::Union(_) => Some(1),
            _ => None,
        };
        match (&n, decay) {
            (Name::Var(cv), Some(stride)) => self.emit(Insn::DecayVar { sl: cv.sl, stride }),
            (Name::Var(cv), None) => self.emit(Insn::LoadVar {
                sl: cv.sl,
                charge: 0,
            }),
            (Name::Field { .. }, Some(stride)) => {
                self.emit_addr(&n);
                self.emit(Insn::DecayPlace(stride));
            }
            (Name::Field { .. }, None) => {
                self.emit_addr(&n);
                self.emit(Insn::LoadPlace);
            }
        }
    }

    fn compile_unary(&mut self, e: &Expr, op: UnOp, a: &Expr) {
        match op {
            UnOp::Neg => {
                self.compile_expr(a);
                self.emit(Insn::Neg);
            }
            UnOp::Not => {
                self.compile_expr(a);
                self.emit(Insn::NotL);
            }
            UnOp::BitNot => {
                self.compile_expr(a);
                self.emit(Insn::BitNot);
            }
            UnOp::Deref => {
                // Rvalue deref goes through `place(e)`; arrays do *not*
                // decay here (walker quirk) — only aggregates do.
                let ty = self.compile_place(e);
                match &ty {
                    Type::Struct(_) | Type::Union(_) => self.emit(Insn::DecayPlace(1)),
                    _ => self.emit(Insn::LoadPlace),
                }
            }
            UnOp::AddrOf => {
                let (ty, vla) = self.compile_place_vla(a);
                match (vla, &ty) {
                    // `&vla` strides by the length fixed at declaration.
                    (Some(len_sl), Type::Array(elem, _)) => match self.size_of(elem) {
                        Ok(esize) => self.emit(Insn::DecayVla { esize, len_sl }),
                        Err(err) => self.fail(err),
                    },
                    _ => match self.size_of(&ty) {
                        Ok(stride) => self.emit(Insn::DecayPlace(stride)),
                        Err(err) => self.fail(err),
                    },
                }
            }
            UnOp::Inc(prefix) | UnOp::Dec(prefix) => {
                let delta: i8 = if matches!(op, UnOp::Inc(_)) { 1 } else { -1 };
                let ty = self.compile_place(a);
                let k = self.storek(&ty);
                let prof = if let ExprKind::Ident(name) = &a.kind {
                    let name = name.clone();
                    self.int_site(&name)
                } else {
                    u32::MAX
                };
                self.emit(Insn::IncDec {
                    delta,
                    prefix,
                    k,
                    prof,
                });
            }
        }
    }

    /// Compiles an lvalue: emits code leaving a place on the stack and
    /// returns the *resolved* place type. When the walker would fail
    /// deterministically, a `FailErr` is emitted and a dummy type returned
    /// (the continuation is unreachable).
    fn compile_place(&mut self, e: &Expr) -> Type {
        self.compile_place_vla(e).0
    }

    /// [`Self::compile_place`], also returning the length slot when the
    /// place is a VLA variable (whose walker type carries the extent fixed
    /// at declaration).
    fn compile_place_vla(&mut self, e: &Expr) -> (Type, Option<u32>) {
        self.pending += 1;
        match &e.kind {
            ExprKind::Ident(name) => match self.lookup(name) {
                Some(n) => {
                    self.emit_addr(&n);
                    let vla = n.vla_len();
                    (n.ty().clone(), vla)
                }
                None => {
                    self.fail(ExecError::setup(format!("unknown variable `{name}`")));
                    (Type::int(), None)
                }
            },
            ExprKind::Unary(UnOp::Deref, inner) => {
                self.compile_expr(inner);
                self.emit(Insn::PlaceDeref);
                let ty = self
                    .expr_types
                    .get(&e.id)
                    .cloned()
                    .unwrap_or_else(Type::int);
                (self.resolve(&ty), None)
            }
            ExprKind::Index(base, idx) => {
                self.compile_expr(idx);
                match &base.kind {
                    ExprKind::Ident(_) | ExprKind::Member(..) | ExprKind::Index(..) => {
                        let (bty, vla) = self.compile_place_vla(base);
                        match &bty {
                            Type::Array(elem, size) => match self.size_of(elem) {
                                Err(err) => {
                                    self.fail(err);
                                    (Type::int(), None)
                                }
                                Ok(esize) => {
                                    let prof = if let ExprKind::Ident(n) = &base.kind {
                                        let n = n.clone();
                                        self.idx_site(&n)
                                    } else {
                                        u32::MAX
                                    };
                                    self.emit(match vla {
                                        Some(len_sl) => Insn::PlaceIndexVla {
                                            esize,
                                            len_sl,
                                            prof,
                                        },
                                        None => Insn::PlaceIndexArr {
                                            esize,
                                            len: minic::edit::resolve_array_size(self.p, size)
                                                .unwrap_or(u64::MAX),
                                            prof,
                                        },
                                    });
                                    (self.resolve(elem), None)
                                }
                            },
                            Type::Pointer(elem) => {
                                self.emit(Insn::PlaceIndexPtr);
                                (self.resolve(elem), None)
                            }
                            other => {
                                self.fail(ExecError::setup(format!(
                                    "indexing non-array `{other}`"
                                )));
                                (Type::int(), None)
                            }
                        }
                    }
                    _ => {
                        self.compile_expr(base);
                        self.emit(Insn::PlaceIndexVal);
                        let ty = self
                            .expr_types
                            .get(&e.id)
                            .cloned()
                            .unwrap_or_else(Type::int);
                        (self.resolve(&ty), None)
                    }
                }
            }
            ExprKind::Member(base, field, arrow) => {
                let (bty, vla) = if *arrow {
                    self.compile_expr(base);
                    self.emit(Insn::ArrowAddr);
                    match self.static_type(base) {
                        Some(Type::Pointer(t)) => (self.resolve(&t), None),
                        _ => {
                            self.fail(ExecError::setup("`->` base type unknown"));
                            return (Type::int(), None);
                        }
                    }
                } else {
                    self.compile_place_vla(base)
                };
                match &bty {
                    Type::Struct(name) | Type::Union(name) => {
                        match field_offset(self.p, name, field) {
                            Ok((off, fty)) => {
                                self.emit(Insn::PlaceOffset(off));
                                (self.resolve(&fty), None)
                            }
                            Err(err) => {
                                self.fail(err);
                                (Type::int(), None)
                            }
                        }
                    }
                    other => {
                        self.fail_non_struct("member access on non-struct", other, vla);
                        (Type::int(), None)
                    }
                }
            }
            ExprKind::StructLit(name, args) => {
                self.compile_struct_lit(name, args);
                (Type::Struct(name.clone()), None)
            }
            other => {
                self.fail(ExecError::setup(format!(
                    "expression is not an lvalue: {other:?}"
                )));
                (Type::int(), None)
            }
        }
    }

    /// Emits the walker's ``{what} `{ty}` `` error. A VLA's type names the
    /// length fixed at declaration, so its message is built at run time.
    fn fail_non_struct(&mut self, what: &'static str, ty: &Type, vla: Option<u32>) {
        match (vla, ty) {
            (Some(len_sl), Type::Array(elem, _)) => {
                self.vla_errs.push((what, (**elem).clone()));
                let msg = (self.vla_errs.len() - 1) as u32;
                self.emit(Insn::FailVla { msg, len_sl });
            }
            _ => self.fail(ExecError::setup(format!("{what} `{ty}`"))),
        }
    }

    /// Mirror of `Machine::construct_struct`: allocates before evaluating
    /// the arguments and leaves the new aggregate's address on the stack
    /// (its place and its rvalue are the same `Ptr { addr, stride: 1 }`).
    /// The arguments stay on the stack while the fields are stored.
    fn compile_struct_lit(&mut self, name: &str, args: &[Expr]) {
        let size = match self.size_of(&Type::Struct(name.to_string())) {
            Ok(n) => n,
            Err(e) => {
                self.fail(e);
                return;
            }
        };
        self.emit(Insn::NewAgg(size));
        let p = self.p;
        let Some(def) = p.struct_def(name) else {
            self.fail(ExecError::setup(format!("unknown struct `{name}`")));
            return;
        };
        for a in args {
            self.compile_expr(a);
        }
        let nargs = args.len() as u32;
        // Stack depth of argument `i` below the top.
        let pick = |i: usize| nargs - 1 - i as u32;
        if let Some(ctor) = &def.ctor {
            // Later duplicates win, like the walker's environment map.
            let env: HashMap<&str, usize> = ctor
                .params
                .iter()
                .take(args.len())
                .enumerate()
                .map(|(i, prm)| (prm.name.as_str(), i))
                .collect();
            for (field, init) in &ctor.inits {
                let (off, fty) = match field_offset(self.p, name, field) {
                    Ok(x) => x,
                    Err(e) => {
                        self.fail(e);
                        return;
                    }
                };
                match &init.kind {
                    ExprKind::Ident(n) if env.contains_key(n.as_str()) => {
                        self.emit(Insn::Pick(pick(env[n.as_str()])));
                    }
                    _ => self.compile_expr(init),
                }
                let Some(fd) = def.field(field) else {
                    self.fail(ExecError::setup(format!(
                        "unknown field `{field}` on `{name}`"
                    )));
                    return;
                };
                let k = self.field_storek(fd.by_ref, &fty);
                self.emit(Insn::StoreAgg {
                    below: nargs,
                    off,
                    k,
                });
            }
        } else {
            // Positional aggregate initialization.
            for (i, fd) in def.fields.iter().take(args.len()).enumerate() {
                let (off, fty) = match field_offset(self.p, name, &fd.name) {
                    Ok(x) => x,
                    Err(e) => {
                        self.fail(e);
                        return;
                    }
                };
                self.emit(Insn::Pick(pick(i)));
                let k = self.field_storek(fd.by_ref, &fty);
                self.emit(Insn::StoreAgg {
                    below: nargs,
                    off,
                    k,
                });
            }
        }
        if nargs > 0 {
            self.emit(Insn::DropN(nargs));
        }
    }

    /// Struct-literal field store: reference and stream fields (raw type)
    /// store the value as is, the rest go through `store_typed`.
    fn field_storek(&mut self, by_ref: bool, fty: &Type) -> StoreK {
        if by_ref || matches!(fty, Type::Stream(_)) {
            StoreK::Raw
        } else {
            self.storek(fty)
        }
    }

    fn compile_call(&mut self, name: &str, args: &[Expr]) {
        let (arity, insn) = match name {
            "malloc" => (1, Insn::Malloc),
            "free" => (1, Insn::FreeP),
            "abs" => (1, Insn::AbsI),
            "sqrt" => (1, Insn::Math1(Math1Op::Sqrt)),
            "fabs" => (1, Insn::Math1(Math1Op::Fabs)),
            "exp" => (1, Insn::Math1(Math1Op::Exp)),
            "log" => (1, Insn::Math1(Math1Op::Log)),
            "sin" => (1, Insn::Math1(Math1Op::Sin)),
            "cos" => (1, Insn::Math1(Math1Op::Cos)),
            "tan" => (1, Insn::Math1(Math1Op::Tan)),
            "floor" => (1, Insn::Math1(Math1Op::Floor)),
            "ceil" => (1, Insn::Math1(Math1Op::Ceil)),
            "round" => (1, Insn::Math1(Math1Op::Round)),
            "pow" => (2, Insn::Math2(Math2Op::Pow)),
            "fmin" => (2, Insn::Math2(Math2Op::Fmin)),
            "fmax" => (2, Insn::Math2(Math2Op::Fmax)),
            "atan2" => (2, Insn::Math2(Math2Op::Atan2)),
            "fmod" => (2, Insn::Math2(Math2Op::Fmod)),
            "memset" => (3, Insn::Memset),
            "memcpy" => (3, Insn::Memcpy),
            "printf" => {
                for a in args {
                    self.compile_expr(a);
                    self.emit(Insn::Pop);
                }
                self.emit_const(Value::int(0));
                return;
            }
            _ => {
                // Inside a method body a bare call dispatches to a method
                // of the receiver before any free function.
                if let Some(cx) = &self.self_ctx {
                    let (p, sl) = (self.p, cx.sl);
                    if let Some(def) = p.struct_def(cx.sname) {
                        if let Some(m) = def.method(name) {
                            self.emit(Insn::AddrVar { sl, charge: 0 });
                            return self.compile_method_call(def, m, args);
                        }
                    }
                }
                return self.compile_free_call(name, args);
            }
        };
        if self.builtin_args(name, args, arity) {
            self.emit(insn);
        }
    }

    /// Compiles the first `n` arguments of builtin `name`. When the call
    /// passes fewer, emits the walker's arity error after the ones it has
    /// and returns false.
    fn builtin_args(&mut self, name: &str, args: &[Expr], n: usize) -> bool {
        for a in args.iter().take(n) {
            self.compile_expr(a);
        }
        if args.len() < n {
            self.fail(arity_error(name));
            return false;
        }
        true
    }

    fn compile_free_call(&mut self, name: &str, args: &[Expr]) {
        match self.by_name.get(name).copied() {
            None => {
                self.fail(ExecError::setup(format!("unknown function `{name}`")));
            }
            Some(fi) => {
                let nparams = self.fn_asts[fi as usize].params.len();
                for a in args.iter().take(nparams) {
                    self.compile_expr(a);
                }
                if args.len() < nparams {
                    self.fail(ExecError::setup(format!("arity mismatch calling `{name}`")));
                } else {
                    self.emit(Insn::CallFn { f: fi });
                }
            }
        }
    }

    /// Calls method `m` of `def` on the receiver place already on the
    /// stack. Every argument is evaluated; those past the method's
    /// parameters are dropped, like the walker's unchecked `zip`.
    fn compile_method_call(&mut self, def: &'p StructDef, m: &'p Function, args: &[Expr]) {
        let nbound = args.len().min(m.params.len());
        for (i, a) in args.iter().enumerate() {
            self.compile_expr(a);
            if i >= nbound {
                self.emit(Insn::Pop);
            }
        }
        let key = (def.name.as_str(), m.name.as_str(), nbound);
        let f = match self.methods.get(&key) {
            Some(&f) => f,
            None => {
                let f = self.register_fn(m, Some((def.name.as_str(), nbound)));
                self.methods.insert(key, f);
                f
            }
        };
        self.emit(Insn::CallMethod { f });
    }

    fn compile_method(&mut self, recv: &Expr, method: &str, args: &[Expr]) {
        if matches!(self.static_type(recv), Some(Type::Stream(_))) {
            self.compile_expr(recv);
            self.emit(Insn::StreamFromVal);
            return self.compile_stream_op(method, args);
        }
        let (ty, vla) = self.compile_place_vla(recv);
        match &ty {
            Type::Stream(_) => {
                self.emit(Insn::StreamFromPlace);
                self.compile_stream_op(method, args)
            }
            Type::Struct(sname) | Type::Union(sname) => {
                let p = self.p;
                let Some(def) = p.struct_def(sname) else {
                    self.fail(ExecError::setup(format!("unknown struct `{sname}`")));
                    return;
                };
                let Some(m) = def.method(method) else {
                    self.fail(ExecError::setup(format!(
                        "no method `{method}` on `{sname}`"
                    )));
                    return;
                };
                self.compile_method_call(def, m, args)
            }
            other => {
                self.fail_non_struct("method call on non-struct", other, vla);
            }
        }
    }

    fn compile_stream_op(&mut self, method: &str, args: &[Expr]) {
        self.emit(Insn::ChargeN(2));
        match method {
            "write" | "push" => {
                if self.builtin_args(method, args, 1) {
                    self.emit(Insn::StreamPush);
                }
            }
            "read" | "pop" => self.emit(Insn::StreamPop),
            "empty" => self.emit(Insn::StreamEmptyQ),
            "full" => self.emit(Insn::StreamFullQ),
            "size" => self.emit(Insn::StreamSizeQ),
            other => {
                self.fail(ExecError::setup(format!("unknown stream method `{other}`")));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{compile, Insn};
    use std::collections::HashSet;

    /// The dispatch loop streams `Insn`s; a variant with a fat payload
    /// would widen every instruction. Side tables indexed by `u32` keep
    /// it at the size it had before struct methods and VLAs compiled.
    #[test]
    fn instruction_size_is_pinned() {
        assert!(
            std::mem::size_of::<Insn>() <= 48,
            "Insn grew to {} bytes",
            std::mem::size_of::<Insn>()
        );
    }

    /// `emit` folds every pending unit charge into a foldable instruction,
    /// so a standalone `Charge` followed by one exists only where `here()`
    /// bound a jump target. Checked over all 30 subject programs: each
    /// subject's original, its manual HLS version, and the program its
    /// standard pipeline run repairs to.
    #[test]
    fn charges_fold_into_instructions_except_at_jump_targets() {
        let cfg = bench::standard_config();
        let mut programs = Vec::new();
        for s in benchsuite::subjects() {
            programs.push((format!("{} original", s.id), s.parse()));
            programs.push((
                format!("{} manual", s.id),
                s.parse_manual().expect("manual"),
            ));
            programs.push((
                format!("{} repaired", s.id),
                bench::run_subject(&s, &cfg).program,
            ));
        }
        assert_eq!(programs.len(), 30);
        for (title, p) in &programs {
            let cp = compile(p);
            let mut targets: HashSet<usize> = cp.funcs.iter().map(|f| f.entry as usize).collect();
            targets.insert(cp.globals_entry as usize);
            for insn in &cp.code {
                if let Insn::Jump(t)
                | Insn::BranchFalse { target: t, .. }
                | Insn::BranchTrue { target: t, .. }
                | Insn::AndShort(t)
                | Insn::OrShort(t) = insn
                {
                    targets.insert(*t as usize);
                }
            }
            for (pc, pair) in cp.code.windows(2).enumerate() {
                if let [Insn::Charge(_), next] = pair {
                    let foldable = matches!(
                        next,
                        Insn::Const { .. }
                            | Insn::LoadVar { .. }
                            | Insn::AddrVar { .. }
                            | Insn::StoreVar { .. }
                            | Insn::Alloc { .. }
                    );
                    assert!(
                        !foldable || targets.contains(&(pc + 1)),
                        "{title}: the Charge at {pc} was not folded into {next:?}"
                    );
                }
            }
        }
    }
}
