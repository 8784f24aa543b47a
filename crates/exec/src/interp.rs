//! Tree-walking interpreter for minic with coverage, profiling and loop
//! statistics.
//!
//! The same machine executes both the original C program (CPU side of the
//! differential test) and — via [`hls-sim`] — the transformed HLS version
//! (FPGA side): storing into a typed location always coerces through
//! [`crate::value::coerce`], so declared bit widths and static array bounds
//! are semantically significant, exactly as on hardware.
//!
//! [`hls-sim`]: https://example.invalid/heterogen

use crate::coverage::CoverageMap;
use crate::error::{ExecError, Trap};
use crate::memory::Memory;
use crate::profile::Profile;
use crate::semantics::{
    arity_error, binop_value, crossing_error, field_offset, goto_crossing, has_runtime_extent,
    int_abs, int_neg, int_step, nested_vla_error, type_size, unknown_label_error, MachineConfig,
    OobPolicy,
};
use crate::value::{coerce, ArgValue, Outcome, ScalarOut, Value};
use minic::ast::*;
use minic::typeck;
use minic::types::{ArraySize, Type};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Control flow out of a statement.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
    Goto(String),
}

/// A storage binding for a named variable.
#[derive(Debug, Clone)]
struct Binding {
    addr: usize,
    ty: Type,
}

struct Frame {
    function: String,
    scopes: Vec<HashMap<String, Binding>>,
    /// Struct whose fields are in scope (method bodies).
    self_struct: Option<(usize, String)>,
}

/// The interpreter.
pub struct Machine<'p> {
    program: &'p Program,
    /// Flat memory.
    pub mem: Memory,
    /// Stream table.
    pub streams: Vec<VecDeque<Value>>,
    /// Branch coverage of this machine's executions.
    pub coverage: CoverageMap,
    /// Value/depth/heap profile (when enabled).
    pub profile: Profile,
    /// Iterations executed per loop statement.
    pub loop_stats: BTreeMap<NodeId, u64>,
    /// Calls executed per function.
    pub call_counts: BTreeMap<String, u64>,
    config: MachineConfig,
    expr_types: HashMap<NodeId, Type>,
    globals: HashMap<String, Binding>,
    frames: Vec<Frame>,
    active_calls: HashMap<String, u64>,
    ops: u64,
}

impl<'p> Machine<'p> {
    /// Creates a machine for a program, allocating globals.
    ///
    /// # Errors
    ///
    /// Fails when a global initializer traps or an array extent cannot be
    /// resolved.
    pub fn new(program: &'p Program, config: MachineConfig) -> Result<Machine<'p>, ExecError> {
        let info = typeck::check(program);
        let mut m = Machine {
            program,
            mem: Memory::new(),
            streams: Vec::new(),
            coverage: CoverageMap::new(),
            profile: Profile::new(),
            loop_stats: BTreeMap::new(),
            call_counts: BTreeMap::new(),
            config,
            expr_types: info.expr_types,
            globals: HashMap::new(),
            frames: Vec::new(),
            active_calls: HashMap::new(),
            ops: 0,
        };
        m.init_globals()?;
        Ok(m)
    }

    /// Abstract operations executed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    fn init_globals(&mut self) -> Result<(), ExecError> {
        for item in &self.program.items {
            match item {
                Item::Define(name, v) => {
                    let addr = self.mem.alloc(1)?;
                    self.mem.store(addr, Value::int(*v))?;
                    self.globals.insert(
                        name.clone(),
                        Binding {
                            addr,
                            ty: Type::int(),
                        },
                    );
                }
                Item::Global(g) => {
                    let size = self.size_of(&g.ty)?;
                    let addr = self.mem.alloc(size)?;
                    if matches!(g.ty, Type::Stream(_)) {
                        let handle = self.new_stream();
                        self.mem.store(addr, Value::StreamRef(handle))?;
                    }
                    self.globals.insert(
                        g.name.clone(),
                        Binding {
                            addr,
                            ty: g.ty.clone(),
                        },
                    );
                    if let Some(init) = &g.init {
                        let b = Binding {
                            addr,
                            ty: g.ty.clone(),
                        };
                        self.init_binding(&b, init)?;
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Creates a fresh stream and returns its handle.
    pub fn new_stream(&mut self) -> usize {
        self.streams.push(VecDeque::new());
        self.streams.len() - 1
    }

    fn resolve(&self, t: &Type) -> Type {
        t.resolve_named(&|n| self.program.typedef(n).cloned())
    }

    /// Size of a type in cells. Sizes saturate at `usize::MAX`, and a type
    /// nested deeper than 64 levels has no size.
    pub fn size_of(&self, t: &Type) -> Result<usize, ExecError> {
        type_size(self.program, t, 0)
    }

    /// Replaces a VLA's outermost `Runtime(v)` extent with the current
    /// value of `v`.
    fn materialize_vla(&self, name: &str, ty: &Type) -> Result<Type, ExecError> {
        match ty {
            Type::Array(elem, ArraySize::Runtime(v)) if !has_runtime_extent(elem) => {
                let b = self
                    .lookup(v)
                    .ok_or_else(|| ExecError::setup(format!("VLA size `{v}` not in scope")))?;
                let n = self.mem.load(b.addr)?.as_int().max(0) as u64;
                Ok(Type::Array(elem.clone(), ArraySize::Const(n.max(1))))
            }
            t if has_runtime_extent(t) => Err(nested_vla_error(name)),
            other => Ok(other.clone()),
        }
    }

    fn charge(&mut self, n: u64) -> Result<(), ExecError> {
        self.ops += n;
        if self.ops > self.config.fuel {
            Err(ExecError::trap(Trap::FuelExhausted))
        } else {
            Ok(())
        }
    }

    fn current_function(&self) -> &str {
        self.frames
            .last()
            .map(|f| f.function.as_str())
            .unwrap_or("<global>")
    }

    fn lookup(&self, name: &str) -> Option<Binding> {
        if let Some(frame) = self.frames.last() {
            for scope in frame.scopes.iter().rev() {
                if let Some(b) = scope.get(name) {
                    return Some(b.clone());
                }
            }
            if let Some((base, sname)) = &frame.self_struct {
                if let Ok((off, ty)) = field_offset(self.program, sname, name) {
                    return Some(Binding {
                        addr: base + off,
                        ty,
                    });
                }
            }
        }
        self.globals.get(name).cloned()
    }

    fn declare(&mut self, name: &str, b: Binding) {
        if let Some(frame) = self.frames.last_mut() {
            if let Some(scope) = frame.scopes.last_mut() {
                scope.insert(name.to_string(), b);
                return;
            }
        }
        self.globals.insert(name.to_string(), b);
    }

    // ----- public run API ---------------------------------------------------

    /// Runs a function with already-constructed values.
    ///
    /// # Errors
    ///
    /// Returns traps (fuel, bounds, null, …) and setup errors (unknown
    /// function, arity mismatch).
    pub fn run_function(&mut self, name: &str, args: Vec<Value>) -> Result<Value, ExecError> {
        let f = self
            .program
            .function(name)
            .ok_or_else(|| ExecError::setup(format!("unknown function `{name}`")))?
            .clone();
        self.call_function(&f, args, None)
    }

    /// Runs the kernel with fuzzer-level arguments and collects the full
    /// observable outcome.
    pub fn run_kernel(&mut self, name: &str, args: &[ArgValue]) -> Outcome {
        match self.run_kernel_inner(name, args) {
            Ok(outcome) => outcome,
            Err(e) => Outcome {
                trapped: true,
                trap_reason: Some(e.to_string()),
                ops: self.ops,
                ..Default::default()
            },
        }
    }

    fn run_kernel_inner(&mut self, name: &str, args: &[ArgValue]) -> Result<Outcome, ExecError> {
        let f = self
            .program
            .function(name)
            .ok_or_else(|| ExecError::setup(format!("unknown function `{name}`")))?
            .clone();
        if f.params.len() != args.len() {
            return Err(ExecError::setup(format!(
                "kernel `{name}` takes {} arguments, got {}",
                f.params.len(),
                args.len()
            )));
        }
        let mut values = Vec::new();
        let mut array_views: Vec<Option<(usize, usize, bool)>> = Vec::new();
        let mut stream_views: Vec<Option<usize>> = Vec::new();
        for (param, arg) in f.params.iter().zip(args) {
            let pty = self.resolve(&param.ty);
            match (arg, &pty) {
                (ArgValue::Int(v), _) if pty.is_integer() || matches!(pty, Type::Bool) => {
                    let size = |_: &Type| Ok(1usize);
                    values.push(coerce(
                        Value::Int {
                            v: *v,
                            bits: 127,
                            signed: true,
                        },
                        &pty,
                        &size,
                    )?);
                    array_views.push(None);
                    stream_views.push(None);
                }
                (ArgValue::Int(v), t) if t.is_float() => {
                    values.push(Value::double(*v as f64));
                    array_views.push(None);
                    stream_views.push(None);
                }
                (ArgValue::Float(v), _) => {
                    values.push(Value::double(*v));
                    array_views.push(None);
                    stream_views.push(None);
                }
                (ArgValue::IntArray(vs), _) => {
                    let (addr, elem_float) = self.alloc_arg_array(&pty, vs.len())?;
                    for (i, v) in vs.iter().enumerate() {
                        let val = if elem_float {
                            Value::double(*v as f64)
                        } else {
                            Value::int(*v)
                        };
                        self.mem.store(addr + i, val)?;
                    }
                    values.push(Value::Ptr { addr, stride: 1 });
                    array_views.push(Some((addr, vs.len(), elem_float)));
                    stream_views.push(None);
                }
                (ArgValue::FloatArray(vs), _) => {
                    let (addr, _) = self.alloc_arg_array(&pty, vs.len())?;
                    for (i, v) in vs.iter().enumerate() {
                        self.mem.store(addr + i, Value::double(*v))?;
                    }
                    values.push(Value::Ptr { addr, stride: 1 });
                    array_views.push(Some((addr, vs.len(), true)));
                    stream_views.push(None);
                }
                (ArgValue::IntStream(vs), _) => {
                    let h = self.new_stream();
                    for v in vs {
                        self.streams[h].push_back(Value::int(*v));
                    }
                    values.push(Value::StreamRef(h));
                    array_views.push(None);
                    stream_views.push(Some(h));
                }
                (a, t) => {
                    return Err(ExecError::setup(format!(
                        "argument {a:?} incompatible with parameter type `{t}`"
                    )))
                }
            }
        }
        let ret = self.call_function(&f, values, None)?;
        let mut outcome = Outcome {
            ops: self.ops,
            ..Default::default()
        };
        outcome.ret = match ret {
            Value::Unit => None,
            other => Some(ScalarOut::from(&other)),
        };
        for (addr, len, _) in array_views.iter().flatten() {
            let vals = self.mem.load_run(*addr, *len)?;
            outcome
                .arrays
                .push(vals.iter().map(ScalarOut::from).collect());
        }
        for h in stream_views.iter().flatten() {
            outcome
                .streams
                .push(self.streams[*h].iter().map(ScalarOut::from).collect());
        }
        Ok(outcome)
    }

    fn alloc_arg_array(&mut self, pty: &Type, len: usize) -> Result<(usize, bool), ExecError> {
        let elem = match pty {
            Type::Array(e, _) | Type::Pointer(e) => self.resolve(e),
            other => {
                return Err(ExecError::setup(format!(
                    "array argument for non-array parameter `{other}`"
                )))
            }
        };
        let addr = self.mem.alloc(len)?;
        Ok((addr, elem.is_float()))
    }

    // ----- calls -------------------------------------------------------------

    fn call_function(
        &mut self,
        f: &Function,
        args: Vec<Value>,
        self_struct: Option<(usize, String)>,
    ) -> Result<Value, ExecError> {
        if self.frames.len() as u64 >= self.config.max_depth {
            return Err(ExecError::trap(Trap::StackOverflow));
        }
        self.charge(5)?;
        *self.call_counts.entry(f.name.clone()).or_insert(0) += 1;
        let depth_entry = self.active_calls.entry(f.name.clone()).or_insert(0);
        *depth_entry += 1;
        let depth_now = *depth_entry;
        if self.config.profile {
            self.profile.record_depth(&f.name, depth_now);
        }

        let mut frame = Frame {
            function: f.name.clone(),
            scopes: vec![HashMap::new()],
            self_struct,
        };
        // Bind parameters: array types decay to pointers.
        for (param, arg) in f.params.iter().zip(args) {
            let pty = self.resolve(&param.ty);
            let bty = match &pty {
                Type::Array(e, _) => Type::Pointer(e.clone()),
                other => other.clone(),
            };
            let addr = self.mem.alloc(1)?;
            let stored = match &bty {
                Type::Stream(_) => arg,
                _ => {
                    let size_of = sizer(self);
                    coerce(arg, &bty, &size_of)?
                }
            };
            self.mem.store(addr, stored)?;
            frame.scopes[0].insert(param.name.clone(), Binding { addr, ty: bty });
        }
        self.frames.push(frame);
        let result = match &f.body {
            Some(body) => self.exec_body(body),
            None => Err(ExecError::setup(format!("call of prototype `{}`", f.name))),
        };
        self.frames.pop();
        if let Some(d) = self.active_calls.get_mut(&f.name) {
            *d -= 1;
        }
        if self.config.profile {
            self.profile.peak_heap_cells = self.profile.peak_heap_cells.max(self.mem.peak_cells());
        }
        match result? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Unit),
        }
    }

    /// Executes a function body with top-level label/goto support: a
    /// `goto` resumes after the first top-level label of its name.
    fn exec_body(&mut self, body: &Block) -> Result<Flow, ExecError> {
        let mut idx = 0usize;
        loop {
            if idx >= body.stmts().len() {
                return Ok(Flow::Normal);
            }
            match self.exec_stmt(&body.stmts()[idx])? {
                Flow::Goto(label) => {
                    let t = body
                        .stmts()
                        .iter()
                        .position(|s| matches!(&s.kind, StmtKind::Label(l) if *l == label))
                        .ok_or_else(|| unknown_label_error(&label))?;
                    if let Some(name) = goto_crossing(self.program, body, idx, t) {
                        return Err(crossing_error(&label, name));
                    }
                    idx = t + 1;
                }
                Flow::Normal => idx += 1,
                other => return Ok(other),
            }
        }
    }

    // ----- statements ---------------------------------------------------------

    fn exec_block(&mut self, b: &Block) -> Result<Flow, ExecError> {
        if let Some(frame) = self.frames.last_mut() {
            frame.scopes.push(HashMap::new());
        }
        let mut out = Flow::Normal;
        for s in b.stmts() {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                flow => {
                    out = flow;
                    break;
                }
            }
        }
        if let Some(frame) = self.frames.last_mut() {
            frame.scopes.pop();
        }
        Ok(out)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<Flow, ExecError> {
        self.charge(1)?;
        match &s.kind {
            StmtKind::Decl(d) => {
                let ty = self.resolve(&d.ty);
                // VLAs: materialize runtime extents from the current value
                // of the size variable (CPU semantics; HLS rejects these).
                let ty = self.materialize_vla(&d.name, &ty)?;
                let size = self.size_of(&ty)?;
                let addr = self.mem.alloc(size)?;
                if let Type::Stream(_) = &ty {
                    let h = self.new_stream();
                    self.mem.store(addr, Value::StreamRef(h))?;
                }
                let b = Binding {
                    addr,
                    ty: ty.clone(),
                };
                if let Some(init) = &d.init {
                    self.init_binding(&b, init)?;
                }
                self.declare(&d.name, b);
                Ok(Flow::Normal)
            }
            StmtKind::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            StmtKind::If(c, t, els) => {
                let cond = self.eval(c)?.is_truthy();
                self.coverage.record(s.id, cond);
                if cond {
                    self.exec_block(t)
                } else if let Some(e) = els {
                    self.exec_block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While(c, b) => {
                loop {
                    let cond = self.eval(c)?.is_truthy();
                    self.coverage.record(s.id, cond);
                    if !cond {
                        break;
                    }
                    *self.loop_stats.entry(s.id).or_insert(0) += 1;
                    match self.exec_block(b)? {
                        Flow::Break => break,
                        Flow::Normal | Flow::Continue => {}
                        flow => return Ok(flow),
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::DoWhile(b, c) => {
                loop {
                    *self.loop_stats.entry(s.id).or_insert(0) += 1;
                    match self.exec_block(b)? {
                        Flow::Break => break,
                        Flow::Normal | Flow::Continue => {}
                        flow => return Ok(flow),
                    }
                    let cond = self.eval(c)?.is_truthy();
                    self.coverage.record(s.id, cond);
                    if !cond {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For(init, cond, step, b) => {
                if let Some(frame) = self.frames.last_mut() {
                    frame.scopes.push(HashMap::new());
                }
                let mut result = Flow::Normal;
                if let Some(i) = init {
                    if let Flow::Return(v) = self.exec_stmt(i)? {
                        result = Flow::Return(v);
                    }
                }
                if matches!(result, Flow::Normal) {
                    loop {
                        let c = match cond {
                            Some(c) => self.eval(c)?.is_truthy(),
                            None => true,
                        };
                        self.coverage.record(s.id, c);
                        if !c {
                            break;
                        }
                        *self.loop_stats.entry(s.id).or_insert(0) += 1;
                        match self.exec_block(b)? {
                            Flow::Break => break,
                            Flow::Normal | Flow::Continue => {}
                            flow => {
                                result = flow;
                                break;
                            }
                        }
                        if let Some(st) = step {
                            self.eval(st)?;
                        }
                    }
                }
                if let Some(frame) = self.frames.last_mut() {
                    frame.scopes.pop();
                }
                Ok(result)
            }
            StmtKind::Return(v) => {
                let value = match v {
                    Some(e) => self.eval(e)?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(value))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Block(b) => self.exec_block(b),
            StmtKind::Pragma(_) | StmtKind::Label(_) | StmtKind::Empty => Ok(Flow::Normal),
            StmtKind::Goto(l) => Ok(Flow::Goto(l.clone())),
        }
    }

    fn init_binding(&mut self, b: &Binding, init: &Expr) -> Result<(), ExecError> {
        match (&b.ty, &init.kind) {
            (Type::Array(elem, _), ExprKind::InitList(elems)) => {
                let esize = self.size_of(elem)?;
                for (i, e) in elems.iter().enumerate() {
                    let v = self.eval(e)?;
                    let v = {
                        let size_of = sizer(self);
                        coerce(v, elem, &size_of)?
                    };
                    self.mem.store(b.addr + i * esize, v)?;
                }
                Ok(())
            }
            (Type::Struct(name), ExprKind::InitList(elems)) => {
                let name = name.clone();
                for (i, e) in elems.iter().enumerate() {
                    let def = self
                        .program
                        .struct_def(&name)
                        .ok_or_else(|| ExecError::setup("unknown struct"))?;
                    let Some(field) = def.fields.get(i).cloned() else {
                        break;
                    };
                    let (off, fty) = field_offset(self.program, &name, &field.name)?;
                    let v = self.eval(e)?;
                    let v = {
                        let size_of = sizer(self);
                        coerce(v, &fty, &size_of)?
                    };
                    self.mem.store(b.addr + off, v)?;
                }
                Ok(())
            }
            _ => {
                let v = self.eval(init)?;
                self.store_typed(b.addr, &b.ty, v)
            }
        }
    }

    fn store_typed(&mut self, addr: usize, ty: &Type, v: Value) -> Result<(), ExecError> {
        let ty = self.resolve(ty);
        match &ty {
            Type::Struct(_) | Type::Union(_) => {
                // Aggregate copy.
                if let Value::Ptr { addr: src, .. } = v {
                    let n = self.size_of(&ty)?;
                    let vals = self.mem.load_run(src, n)?;
                    for (i, val) in vals.into_iter().enumerate() {
                        self.mem.store(addr + i, val)?;
                    }
                    Ok(())
                } else {
                    self.mem.store(addr, v)
                }
            }
            Type::Stream(_) => self.mem.store(addr, v),
            _ => {
                let coerced = {
                    let size_of = sizer(self);
                    coerce(v, &ty, &size_of)?
                };
                if self.config.profile {
                    if let Value::Int { v, .. } = &coerced {
                        // The caller records names; store-level profiling is
                        // done in `assign_place`.
                        let _ = v;
                    }
                }
                self.mem.store(addr, coerced)
            }
        }
    }

    // ----- places -------------------------------------------------------------

    /// Resolves an lvalue expression to (cell address, type).
    fn place(&mut self, e: &Expr) -> Result<(usize, Type), ExecError> {
        self.charge(1)?;
        match &e.kind {
            ExprKind::Ident(name) => {
                let b = self
                    .lookup(name)
                    .ok_or_else(|| ExecError::setup(format!("unknown variable `{name}`")))?;
                Ok((b.addr, self.resolve(&b.ty)))
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let p = self.eval(inner)?;
                let Value::Ptr { addr, .. } = p else {
                    return Err(ExecError::setup("dereference of non-pointer"));
                };
                if addr == 0 {
                    return Err(ExecError::trap(Trap::NullDeref));
                }
                let ty = self
                    .expr_types
                    .get(&e.id)
                    .cloned()
                    .unwrap_or_else(Type::int);
                Ok((addr, self.resolve(&ty)))
            }
            ExprKind::Index(base, idx) => {
                let i = self.eval(idx)?.as_int();
                // Static array: bounds policy applies.
                let (addr, ty) = match &base.kind {
                    ExprKind::Ident(_) | ExprKind::Member(..) | ExprKind::Index(..) => {
                        let (baddr, bty) = self.place(base)?;
                        match &bty {
                            Type::Array(elem, size) => {
                                let len = minic::edit::resolve_array_size(self.program, size)
                                    .unwrap_or(u64::MAX);
                                let esize = self.size_of(elem)?;
                                let eff = self.bounded_index(i, len)?;
                                if self.config.profile {
                                    if let ExprKind::Ident(name) = &base.kind {
                                        let f = self.current_function().to_string();
                                        self.profile.record_index(&f, name, i);
                                    }
                                }
                                (baddr + eff * esize, (**elem).clone())
                            }
                            Type::Pointer(elem) => {
                                let pv = self.mem.load(baddr)?.clone();
                                let Value::Ptr { addr, stride } = pv else {
                                    return Err(ExecError::setup("indexing non-pointer"));
                                };
                                let target = addr as i128 + i * stride.max(1) as i128;
                                if target <= 0 {
                                    return Err(ExecError::trap(Trap::NullDeref));
                                }
                                (target as usize, (**elem).clone())
                            }
                            other => {
                                return Err(ExecError::setup(format!(
                                    "indexing non-array `{other}`"
                                )))
                            }
                        }
                    }
                    _ => {
                        // Arbitrary pointer-valued expression.
                        let pv = self.eval(base)?;
                        let Value::Ptr { addr, stride } = pv else {
                            return Err(ExecError::setup("indexing non-pointer value"));
                        };
                        let ty = self
                            .expr_types
                            .get(&e.id)
                            .cloned()
                            .unwrap_or_else(Type::int);
                        let target = addr as i128 + i * stride.max(1) as i128;
                        if target <= 0 {
                            return Err(ExecError::trap(Trap::NullDeref));
                        }
                        (target as usize, ty)
                    }
                };
                Ok((addr, self.resolve(&ty)))
            }
            ExprKind::Member(base, field, arrow) => {
                let (baddr, bty) = if *arrow {
                    let pv = self.eval(base)?;
                    let Value::Ptr { addr, .. } = pv else {
                        return Err(ExecError::setup("`->` on non-pointer"));
                    };
                    if addr == 0 {
                        return Err(ExecError::trap(Trap::NullDeref));
                    }
                    let bty = match self.static_type(base) {
                        Some(Type::Pointer(t)) => self.resolve(&t),
                        _ => {
                            return Err(ExecError::setup("`->` base type unknown"));
                        }
                    };
                    (addr, bty)
                } else {
                    self.place(base)?
                };
                match &bty {
                    Type::Struct(name) | Type::Union(name) => {
                        let (off, fty) = field_offset(self.program, name, field)?;
                        Ok((baddr + off, self.resolve(&fty)))
                    }
                    other => Err(ExecError::setup(format!(
                        "member access on non-struct `{other}`"
                    ))),
                }
            }
            ExprKind::StructLit(name, args) => {
                let addr = self.construct_struct(name, args)?;
                Ok((addr, Type::Struct(name.clone())))
            }
            other => Err(ExecError::setup(format!(
                "expression is not an lvalue: {other:?}"
            ))),
        }
    }

    fn bounded_index(&mut self, i: i128, len: u64) -> Result<usize, ExecError> {
        if i >= 0 && (i as u64) < len {
            return Ok(i as usize);
        }
        match self.config.oob_policy {
            OobPolicy::Trap => Err(ExecError::trap(Trap::ArrayIndexOutOfBounds {
                index: i,
                len,
            })),
            OobPolicy::Wrap => {
                if len == 0 || len == u64::MAX {
                    return Err(ExecError::trap(Trap::ArrayIndexOutOfBounds {
                        index: i,
                        len,
                    }));
                }
                Ok((i.rem_euclid(len as i128)) as usize)
            }
        }
    }

    fn static_type(&self, e: &Expr) -> Option<Type> {
        if let ExprKind::Ident(n) = &e.kind {
            if let Some(b) = self.lookup(n) {
                return Some(self.resolve(&b.ty));
            }
        }
        self.expr_types.get(&e.id).cloned()
    }

    fn construct_struct(&mut self, name: &str, args: &[Expr]) -> Result<usize, ExecError> {
        let size = self.size_of(&Type::Struct(name.to_string()))?;
        let addr = self.mem.alloc(size)?;
        let def = self
            .program
            .struct_def(name)
            .ok_or_else(|| ExecError::setup(format!("unknown struct `{name}`")))?
            .clone();
        let arg_values: Vec<Value> = args
            .iter()
            .map(|a| self.eval(a))
            .collect::<Result<_, _>>()?;
        if let Some(ctor) = &def.ctor {
            // Bind ctor params, evaluate member inits into field slots.
            let mut env: HashMap<String, Value> = HashMap::new();
            for (p, v) in ctor.params.iter().zip(arg_values.iter()) {
                env.insert(p.name.clone(), v.clone());
            }
            for (field, init) in &ctor.inits {
                let (off, fty) = field_offset(self.program, name, field)?;
                // Ctor inits in the subjects are simple parameter references.
                let v = match &init.kind {
                    ExprKind::Ident(n) if env.contains_key(n) => env[n].clone(),
                    _ => self.eval(init)?,
                };
                let by_ref = def
                    .field(field)
                    .ok_or_else(|| {
                        ExecError::setup(format!("unknown field `{field}` on `{name}`"))
                    })?
                    .by_ref;
                if by_ref || matches!(fty, Type::Stream(_)) {
                    self.mem.store(addr + off, v)?;
                } else {
                    self.store_typed(addr + off, &fty, v)?;
                }
            }
            // Then the body, as a method of the new aggregate named after
            // the struct. An empty body is not called.
            if !ctor.body.stmts().is_empty() {
                let body = Function {
                    id: NodeId::SYNTH,
                    name: def.name.clone(),
                    ret: Type::Void,
                    params: ctor.params.clone(),
                    body: Some(ctor.body.clone()),
                    is_static: false,
                };
                self.call_function(&body, arg_values, Some((addr, def.name.clone())))?;
            }
        } else {
            // Positional aggregate initialization.
            for (i, v) in arg_values.into_iter().enumerate() {
                let Some(field) = def.fields.get(i) else {
                    break;
                };
                let (off, fty) = field_offset(self.program, name, &field.name)?;
                if field.by_ref || matches!(fty, Type::Stream(_)) {
                    self.mem.store(addr + off, v)?;
                } else {
                    self.store_typed(addr + off, &fty, v)?;
                }
            }
        }
        Ok(addr)
    }

    // ----- expressions ----------------------------------------------------------

    fn eval(&mut self, e: &Expr) -> Result<Value, ExecError> {
        self.charge(1)?;
        match &e.kind {
            ExprKind::IntLit(v, unsigned) => Ok(Value::Int {
                v: *v,
                bits: 64,
                signed: !*unsigned,
            }),
            ExprKind::FloatLit(v, _) => Ok(Value::double(*v)),
            ExprKind::CharLit(c) => Ok(Value::Int {
                v: *c as i128,
                bits: 8,
                signed: true,
            }),
            ExprKind::StrLit(_) => Ok(Value::null()),
            ExprKind::BoolLit(b) => Ok(Value::Bool(*b)),
            ExprKind::Ident(name) => {
                let b = self
                    .lookup(name)
                    .ok_or_else(|| ExecError::setup(format!("unknown variable `{name}`")))?;
                match self.resolve(&b.ty) {
                    // Arrays decay to a pointer to their first element.
                    Type::Array(elem, _) => {
                        let stride = self.size_of(&elem)?;
                        Ok(Value::Ptr {
                            addr: b.addr,
                            stride,
                        })
                    }
                    Type::Struct(_) | Type::Union(_) => Ok(Value::Ptr {
                        addr: b.addr,
                        stride: 1,
                    }),
                    _ => self.mem.load(b.addr).cloned(),
                }
            }
            ExprKind::Unary(op, a) => self.eval_unary(e, *op, a),
            ExprKind::Binary(op, a, b) => {
                // Short-circuit logical operators with branch coverage.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let lv = self.eval(a)?.is_truthy();
                    return Ok(Value::Bool(match op {
                        BinOp::And => lv && self.eval(b)?.is_truthy(),
                        _ => lv || self.eval(b)?.is_truthy(),
                    }));
                }
                let lhs = self.eval(a)?;
                let rhs = self.eval(b)?;
                self.binop(*op, lhs, rhs)
            }
            ExprKind::Assign(op, lhs, rhs) => {
                let rv = self.eval(rhs)?;
                let (addr, ty) = self.place(lhs)?;
                let final_v = match op {
                    None => rv,
                    Some(o) => {
                        let cur = self.mem.load(addr)?.clone();
                        self.binop(*o, cur, rv)?
                    }
                };
                self.store_typed(addr, &ty, final_v.clone())?;
                // Profile integer writes to named variables.
                if self.config.profile {
                    if let ExprKind::Ident(name) = &lhs.kind {
                        let stored = self.mem.load(addr)?.clone();
                        if let Value::Int { v, .. } = stored {
                            let f = self.current_function().to_string();
                            self.profile.record_int(&f, name, v);
                        }
                    }
                }
                self.mem.load(addr).cloned()
            }
            ExprKind::Call(name, args) => self.eval_call(name, args),
            ExprKind::MethodCall(recv, method, args) => self.eval_method(recv, method, args),
            ExprKind::Index(..) | ExprKind::Member(..) => {
                let (addr, ty) = self.place(e)?;
                match self.resolve(&ty) {
                    Type::Array(elem, _) => {
                        let stride = self.size_of(&elem)?;
                        Ok(Value::Ptr { addr, stride })
                    }
                    Type::Struct(_) | Type::Union(_) => Ok(Value::Ptr { addr, stride: 1 }),
                    _ => self.mem.load(addr).cloned(),
                }
            }
            ExprKind::Cast(ty, a) => {
                let v = self.eval(a)?;
                let ty = self.resolve(ty);
                let size_of = sizer(self);
                coerce(v, &ty, &size_of)
            }
            ExprKind::SizeOf(ty) => {
                let n = self.size_of(ty)?;
                Ok(Value::int(n as i128))
            }
            ExprKind::Ternary(c, t, f) => {
                let cond = self.eval(c)?.is_truthy();
                self.coverage.record(e.id, cond);
                if cond {
                    self.eval(t)
                } else {
                    self.eval(f)
                }
            }
            ExprKind::InitList(_) => Err(ExecError::setup("initializer list outside declaration")),
            ExprKind::StructLit(name, args) => {
                let addr = self.construct_struct(name, args)?;
                Ok(Value::Ptr { addr, stride: 1 })
            }
        }
    }

    fn eval_unary(&mut self, e: &Expr, op: UnOp, a: &Expr) -> Result<Value, ExecError> {
        match op {
            UnOp::Neg => {
                let v = self.eval(a)?;
                Ok(match v {
                    Value::Float { v, kind } => Value::Float { v: -v, kind },
                    other => Value::Int {
                        v: int_neg(other.as_int()),
                        bits: 64,
                        signed: true,
                    },
                })
            }
            UnOp::Not => {
                let v = self.eval(a)?;
                Ok(Value::Bool(!v.is_truthy()))
            }
            UnOp::BitNot => {
                let v = self.eval(a)?;
                Ok(Value::Int {
                    v: !v.as_int(),
                    bits: 64,
                    signed: true,
                })
            }
            UnOp::Deref => {
                let (addr, ty) = self.place(e)?;
                match self.resolve(&ty) {
                    Type::Struct(_) | Type::Union(_) => Ok(Value::Ptr { addr, stride: 1 }),
                    _ => self.mem.load(addr).cloned(),
                }
            }
            UnOp::AddrOf => {
                let (addr, ty) = self.place(a)?;
                let stride = self.size_of(&ty)?;
                Ok(Value::Ptr { addr, stride })
            }
            UnOp::Inc(prefix) | UnOp::Dec(prefix) => {
                let delta = if matches!(op, UnOp::Inc(_)) { 1 } else { -1 };
                let (addr, ty) = self.place(a)?;
                let old = self.mem.load(addr)?.clone();
                let new = match &old {
                    Value::Float { v, kind } => Value::Float {
                        v: v + delta as f64,
                        kind: *kind,
                    },
                    Value::Ptr { addr: pa, stride } => Value::Ptr {
                        addr: (*pa as i128 + delta * *stride as i128).max(0) as usize,
                        stride: *stride,
                    },
                    other => Value::Int {
                        v: int_step(other.as_int(), delta),
                        bits: 64,
                        signed: true,
                    },
                };
                self.store_typed(addr, &ty, new)?;
                if self.config.profile {
                    if let ExprKind::Ident(name) = &a.kind {
                        let stored = self.mem.load(addr)?.clone();
                        if let Value::Int { v, .. } = stored {
                            let f = self.current_function().to_string();
                            self.profile.record_int(&f, name, v);
                        }
                    }
                }
                if prefix {
                    self.mem.load(addr).cloned()
                } else {
                    Ok(old)
                }
            }
        }
    }

    fn binop(&mut self, op: BinOp, lhs: Value, rhs: Value) -> Result<Value, ExecError> {
        self.charge(1)?;
        binop_value(op, lhs, rhs)
    }

    fn eval_call(&mut self, name: &str, args: &[Expr]) -> Result<Value, ExecError> {
        // Builtins first.
        match name {
            "malloc" => {
                let n = self.eval(builtin_arg(name, args, 0)?)?.as_int().max(0) as usize;
                let addr = self.mem.alloc(n)?;
                return Ok(Value::Ptr { addr, stride: 1 });
            }
            "free" => {
                let p = self.eval(builtin_arg(name, args, 0)?)?;
                if let Value::Ptr { addr, .. } = p {
                    if let Some(n) = self.mem.block_size(addr) {
                        self.mem.free(n);
                    }
                }
                return Ok(Value::Unit);
            }
            "sqrt" | "fabs" | "exp" | "log" | "sin" | "cos" | "tan" | "floor" | "ceil"
            | "round" => {
                let x = self.eval(builtin_arg(name, args, 0)?)?.as_f64();
                self.charge(8)?;
                let v = match name {
                    "sqrt" => x.sqrt(),
                    "fabs" => x.abs(),
                    "exp" => x.exp(),
                    "log" => x.ln(),
                    "sin" => x.sin(),
                    "cos" => x.cos(),
                    "tan" => x.tan(),
                    "floor" => x.floor(),
                    "ceil" => x.ceil(),
                    _ => x.round(),
                };
                return Ok(Value::double(v));
            }
            "pow" | "fmin" | "fmax" | "atan2" | "fmod" => {
                let x = self.eval(builtin_arg(name, args, 0)?)?.as_f64();
                let y = self.eval(builtin_arg(name, args, 1)?)?.as_f64();
                self.charge(10)?;
                let v = match name {
                    "pow" => x.powf(y),
                    "fmin" => x.min(y),
                    "fmax" => x.max(y),
                    "atan2" => x.atan2(y),
                    _ => x % y,
                };
                return Ok(Value::double(v));
            }
            "abs" => {
                let x = self.eval(builtin_arg(name, args, 0)?)?.as_int();
                return Ok(Value::int(int_abs(x)));
            }
            "printf" => {
                for a in args {
                    self.eval(a)?;
                }
                return Ok(Value::int(0));
            }
            "memset" => {
                let p = self.eval(builtin_arg(name, args, 0)?)?;
                let fill = self.eval(builtin_arg(name, args, 1)?)?;
                let n = self.eval(builtin_arg(name, args, 2)?)?.as_int().max(0) as usize;
                if let Value::Ptr { addr, .. } = p {
                    for i in 0..n {
                        self.mem.store(addr + i, fill.clone())?;
                        self.charge(1)?;
                    }
                }
                return Ok(Value::Unit);
            }
            "memcpy" => {
                let dst = self.eval(builtin_arg(name, args, 0)?)?;
                let src = self.eval(builtin_arg(name, args, 1)?)?;
                let n = self.eval(builtin_arg(name, args, 2)?)?.as_int().max(0) as usize;
                if let (Value::Ptr { addr: d, .. }, Value::Ptr { addr: s, .. }) = (dst, src) {
                    let vals = self.mem.load_run(s, n)?;
                    for (i, v) in vals.into_iter().enumerate() {
                        self.mem.store(d + i, v)?;
                        self.charge(1)?;
                    }
                }
                return Ok(Value::Unit);
            }
            _ => {}
        }
        // Sibling method call inside a struct method body (`doRead()` from
        // `do1()`): dispatch on the current receiver.
        if let Some((base, sname)) = self.frames.last().and_then(|fr| fr.self_struct.clone()) {
            if let Some(m) = self
                .program
                .struct_def(&sname)
                .and_then(|d| d.method(name))
                .cloned()
            {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a)?);
                }
                return self.call_function(&m, values, Some((base, sname)));
            }
        }
        let f = self
            .program
            .function(name)
            .ok_or_else(|| ExecError::setup(format!("unknown function `{name}`")))?
            .clone();
        let mut values = Vec::with_capacity(args.len());
        for (param, arg) in f.params.iter().zip(args) {
            let pty = self.resolve(&param.ty);
            let v = if param.by_ref && !matches!(pty, Type::Stream(_)) {
                // Non-stream by-ref degrades to by-value in this subset.
                self.eval(arg)?
            } else {
                self.eval(arg)?
            };
            values.push(v);
        }
        if values.len() != f.params.len() {
            return Err(ExecError::setup(format!("arity mismatch calling `{name}`")));
        }
        self.call_function(&f, values, None)
    }

    fn eval_method(
        &mut self,
        recv: &Expr,
        method: &str,
        args: &[Expr],
    ) -> Result<Value, ExecError> {
        // Stream methods operate on the stream handle.
        let recv_static = self.static_type(recv);
        if let Some(Type::Stream(_)) = recv_static {
            let handle = match self.eval(recv)? {
                Value::StreamRef(h) => h,
                Value::Ptr { addr, .. } => match self.mem.load(addr)?.clone() {
                    Value::StreamRef(h) => h,
                    _ => return Err(ExecError::setup("not a stream")),
                },
                _ => return Err(ExecError::setup("not a stream")),
            };
            return self.stream_op(handle, method, args);
        }
        // Struct method: resolve receiver storage, bind fields, run body.
        let (base, ty) = self.place(recv)?;
        match self.resolve(&ty) {
            Type::Stream(_) => {
                let handle = match self.mem.load(base)?.clone() {
                    Value::StreamRef(h) => h,
                    _ => return Err(ExecError::setup("not a stream")),
                };
                self.stream_op(handle, method, args)
            }
            Type::Struct(sname) | Type::Union(sname) => {
                let def = self
                    .program
                    .struct_def(&sname)
                    .ok_or_else(|| ExecError::setup(format!("unknown struct `{sname}`")))?;
                let m = def
                    .method(method)
                    .ok_or_else(|| ExecError::setup(format!("no method `{method}` on `{sname}`")))?
                    .clone();
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a)?);
                }
                self.call_function(&m, values, Some((base, sname)))
            }
            other => Err(ExecError::setup(format!(
                "method call on non-struct `{other}`"
            ))),
        }
    }

    fn stream_op(
        &mut self,
        handle: usize,
        method: &str,
        args: &[Expr],
    ) -> Result<Value, ExecError> {
        self.charge(2)?;
        match method {
            "write" | "push" => {
                let v = self.eval(builtin_arg(method, args, 0)?)?;
                self.streams
                    .get_mut(handle)
                    .ok_or_else(|| ExecError::setup("bad stream handle"))?
                    .push_back(v);
                Ok(Value::Unit)
            }
            "read" | "pop" => self
                .streams
                .get_mut(handle)
                .ok_or_else(|| ExecError::setup("bad stream handle"))?
                .pop_front()
                .ok_or_else(|| ExecError::trap(Trap::StreamUnderflow)),
            "empty" => Ok(Value::Bool(
                self.streams
                    .get(handle)
                    .map(|s| s.is_empty())
                    .unwrap_or(true),
            )),
            "full" => Ok(Value::Bool(false)),
            "size" => Ok(Value::int(
                self.streams.get(handle).map(|s| s.len()).unwrap_or(0) as i128,
            )),
            other => Err(ExecError::setup(format!("unknown stream method `{other}`"))),
        }
    }
}

/// Argument `i` of builtin `name`, or the arity error both engines raise
/// when the call passes fewer.
fn builtin_arg<'e>(name: &str, args: &'e [Expr], i: usize) -> Result<&'e Expr, ExecError> {
    args.get(i).ok_or_else(|| arity_error(name))
}

/// A `size_of` closure decoupled from `&mut self` borrows, for [`coerce`].
fn sizer<'m, 'p>(m: &'m Machine<'p>) -> impl Fn(&Type) -> Result<usize, ExecError> + 'm {
    move |t: &Type| m.size_of(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, f: &str, args: Vec<Value>) -> Value {
        let p = minic::parse(src).unwrap();
        let mut m = Machine::new(&p, MachineConfig::cpu()).unwrap();
        m.run_function(f, args).unwrap()
    }

    #[test]
    fn arithmetic_and_loops() {
        let v = run(
            "int sum(int n) { int acc = 0; for (int i = 0; i <= n; i++) { acc += i; } return acc; }",
            "sum",
            vec![Value::int(10)],
        );
        assert_eq!(v.as_int(), 55);
    }

    #[test]
    fn recursion() {
        let v = run(
            "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }",
            "fib",
            vec![Value::int(10)],
        );
        assert_eq!(v.as_int(), 55);
    }

    #[test]
    fn pointers_and_malloc() {
        let v = run(
            r#"
            int f() {
                int* p = (int*)malloc(4 * sizeof(int));
                for (int i = 0; i < 4; i++) { p[i] = i * i; }
                int s = p[0] + p[1] + p[2] + p[3];
                free(p);
                return s;
            }
        "#,
            "f",
            vec![],
        );
        assert_eq!(v.as_int(), 14);
    }

    #[test]
    fn structs_through_pointers() {
        let v = run(
            r#"
            struct Node { int val; struct Node* next; };
            int f() {
                struct Node* a = (struct Node*)malloc(sizeof(struct Node));
                struct Node* b = (struct Node*)malloc(sizeof(struct Node));
                a->val = 7;
                a->next = b;
                b->val = 35;
                b->next = 0;
                return a->val + a->next->val;
            }
        "#,
            "f",
            vec![],
        );
        assert_eq!(v.as_int(), 42);
    }

    #[test]
    fn fpga_uint_wraps() {
        let v = run(
            "int f(int x) { fpga_uint<7> r = x; return r; }",
            "f",
            vec![Value::int(200)],
        );
        assert_eq!(v.as_int(), 200 % 128);
    }

    #[test]
    fn static_array_wrap_policy() {
        let src =
            "int f(int i) { int a[4]; a[0] = 10; a[1] = 11; a[2] = 12; a[3] = 13; return a[i]; }";
        let p = minic::parse(src).unwrap();
        let mut cpu = Machine::new(&p, MachineConfig::cpu()).unwrap();
        assert!(cpu.run_function("f", vec![Value::int(7)]).is_err());
        let mut fpga = Machine::new(&p, MachineConfig::fpga()).unwrap();
        let v = fpga.run_function("f", vec![Value::int(7)]).unwrap();
        assert_eq!(v.as_int(), 13, "index 7 wraps to 3");
    }

    #[test]
    fn streams_write_read() {
        let v = run(
            r#"
            unsigned f() {
                hls::stream<unsigned> s;
                s.write(5u);
                s.write(6u);
                unsigned a = s.read();
                unsigned b = s.read();
                return a + b;
            }
        "#,
            "f",
            vec![],
        );
        assert_eq!(v.as_int(), 11);
    }

    #[test]
    fn stream_underflow_traps() {
        let p = minic::parse("unsigned f() { hls::stream<unsigned> s; return s.read(); }").unwrap();
        let mut m = Machine::new(&p, MachineConfig::cpu()).unwrap();
        let err = m.run_function("f", vec![]).unwrap_err();
        assert_eq!(err.as_trap(), Some(&Trap::StreamUnderflow));
    }

    #[test]
    fn struct_methods_and_literals() {
        let v = run(
            r#"
            struct Acc {
                int total;
                void add(int x) { total = total + x; }
                int get() { return total; }
            };
            int f() {
                struct Acc a;
                a.total = 0;
                a.add(4);
                a.add(5);
                return a.get();
            }
        "#,
            "f",
            vec![],
        );
        assert_eq!(v.as_int(), 9);
    }

    #[test]
    fn struct_literal_with_ctor_binds_streams() {
        let v = run(
            r#"
            struct If2 {
                hls::stream<unsigned> &in;
                hls::stream<unsigned> &out;
                If2(hls::stream<unsigned> &i, hls::stream<unsigned> &o) : in(i), out(o) {}
                void do1() { out.write(in.read() + 1u); }
            };
            unsigned top() {
                hls::stream<unsigned> a;
                hls::stream<unsigned> b;
                a.write(41u);
                If2{a, b}.do1();
                return b.read();
            }
        "#,
            "top",
            vec![],
        );
        assert_eq!(v.as_int(), 42);
    }

    #[test]
    fn goto_skips_forward() {
        let v = run(
            r#"
            int f(int x) {
                if (x > 0) { goto done; }
                x = x + 100;
            done:
                return x;
            }
        "#,
            "f",
            vec![Value::int(5)],
        );
        assert_eq!(v.as_int(), 5);
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let p = minic::parse("void f() { while (1) { } }").unwrap();
        let mut cfg = MachineConfig::cpu();
        cfg.fuel = 10_000;
        let mut m = Machine::new(&p, cfg).unwrap();
        let err = m.run_function("f", vec![]).unwrap_err();
        assert_eq!(err.as_trap(), Some(&Trap::FuelExhausted));
    }

    #[test]
    fn division_by_zero_traps() {
        let p = minic::parse("int f(int a) { return 10 / a; }").unwrap();
        let mut m = Machine::new(&p, MachineConfig::cpu()).unwrap();
        let err = m.run_function("f", vec![Value::int(0)]).unwrap_err();
        assert_eq!(err.as_trap(), Some(&Trap::DivisionByZero));
    }

    #[test]
    fn coverage_records_branches() {
        let p = minic::parse("int f(int a) { if (a > 0) { return 1; } return 0; }").unwrap();
        let mut m = Machine::new(&p, MachineConfig::cpu()).unwrap();
        m.run_function("f", vec![Value::int(5)]).unwrap();
        assert_eq!(m.coverage.hits(), 1);
        m.run_function("f", vec![Value::int(-5)]).unwrap();
        assert_eq!(m.coverage.hits(), 2);
    }

    #[test]
    fn profile_records_max_value() {
        let p =
            minic::parse("int f(int x) { int ret = 0; ret = x; ret = 83; return ret; }").unwrap();
        let mut m = Machine::new(&p, MachineConfig::cpu()).unwrap();
        m.run_function("f", vec![Value::int(10)]).unwrap();
        let r = m.profile.range_of("f", "ret").unwrap();
        assert_eq!(r.max, 83);
        assert_eq!(r.required_bits(), (7, false));
    }

    #[test]
    fn profile_records_recursion_depth() {
        let p = minic::parse("void t(int n) { if (n > 0) { t(n - 1); } } void k(int n) { t(n); }")
            .unwrap();
        let mut m = Machine::new(&p, MachineConfig::cpu()).unwrap();
        m.run_function("k", vec![Value::int(9)]).unwrap();
        assert_eq!(m.profile.max_depth["t"], 10);
    }

    #[test]
    fn run_kernel_returns_arrays() {
        let p =
            minic::parse("void k(int a[4]) { for (int i = 0; i < 4; i++) { a[i] = a[i] * 2; } }")
                .unwrap();
        let mut m = Machine::new(&p, MachineConfig::cpu()).unwrap();
        let out = m.run_kernel("k", &[ArgValue::IntArray(vec![1, 2, 3, 4])]);
        assert!(!out.trapped, "{:?}", out.trap_reason);
        assert_eq!(
            out.arrays[0],
            vec![
                ScalarOut::Int(2),
                ScalarOut::Int(4),
                ScalarOut::Int(6),
                ScalarOut::Int(8)
            ]
        );
    }

    #[test]
    fn run_kernel_with_streams() {
        let p = minic::parse(
            r#"
            void k(hls::stream<unsigned> &in, hls::stream<unsigned> &out) {
                while (!in.empty()) { out.write(in.read() * 3u); }
            }
        "#,
        )
        .unwrap();
        let mut m = Machine::new(&p, MachineConfig::cpu()).unwrap();
        let out = m.run_kernel(
            "k",
            &[ArgValue::IntStream(vec![1, 2]), ArgValue::IntStream(vec![])],
        );
        assert!(!out.trapped, "{:?}", out.trap_reason);
        assert_eq!(out.streams[0], Vec::<ScalarOut>::new());
        assert_eq!(out.streams[1], vec![ScalarOut::Int(3), ScalarOut::Int(6)]);
    }

    #[test]
    fn loop_stats_count_iterations() {
        let p = minic::parse("void f() { for (int i = 0; i < 7; i++) { } }").unwrap();
        let mut m = Machine::new(&p, MachineConfig::cpu()).unwrap();
        m.run_function("f", vec![]).unwrap();
        assert_eq!(m.loop_stats.values().sum::<u64>(), 7);
    }

    #[test]
    fn global_arrays_and_defines() {
        let v = run(
            "#define N 3\nint tab[N];\nint f() { for (int i = 0; i < N; i++) { tab[i] = i + 1; } return tab[0] + tab[1] + tab[2]; }",
            "f",
            vec![],
        );
        assert_eq!(v.as_int(), 6);
    }

    #[test]
    fn two_d_arrays() {
        let v = run(
            r#"
            int f() {
                int m[2][3];
                for (int i = 0; i < 2; i++) {
                    for (int j = 0; j < 3; j++) { m[i][j] = i * 3 + j; }
                }
                return m[1][2];
            }
        "#,
            "f",
            vec![],
        );
        assert_eq!(v.as_int(), 5);
    }

    #[test]
    fn float_quantization_diverges() {
        // A fpga_float with tiny mantissa loses precision vs double.
        let src = "double f(double x) { fpga_float<8,8> y = x; return y; }";
        let v = run(src, "f", vec![Value::double(1.000244140625)]);
        assert_ne!(v.as_f64(), 1.000244140625);
    }

    #[test]
    fn address_of_and_deref() {
        let v = run(
            r#"
            void set(int* p) { *p = 99; }
            int f() { int x = 1; set(&x); return x; }
        "#,
            "f",
            vec![],
        );
        assert_eq!(v.as_int(), 99);
    }

    #[test]
    fn goto_backward_loops() {
        let v = run(
            r#"
            int f() {
                int i = 0;
                int acc = 0;
            again:
                acc = acc + i;
                i = i + 1;
                if (i < 5) { goto again; }
                return acc;
            }
        "#,
            "f",
            vec![],
        );
        assert_eq!(v.as_int(), 10);
    }

    #[test]
    fn memcpy_and_memset_builtins() {
        let v = run(
            r#"
            int f() {
                int a[4];
                int b[4];
                memset(a, 7, 4);
                memcpy(b, a, 4);
                return b[0] + b[3];
            }
        "#,
            "f",
            vec![],
        );
        assert_eq!(v.as_int(), 14);
    }

    #[test]
    fn pointer_arithmetic_walks_arrays() {
        let v = run(
            r#"
            int f() {
                int a[5];
                for (int i = 0; i < 5; i++) { a[i] = i * 10; }
                int* p = a;
                p = p + 2;
                int x = *p;
                p++;
                return x + *p;
            }
        "#,
            "f",
            vec![],
        );
        assert_eq!(v.as_int(), 50);
    }

    #[test]
    fn pointer_arithmetic_respects_struct_stride() {
        let v = run(
            r#"
            struct Pair { int a; int b; };
            int f() {
                struct Pair ps[3];
                ps[0].a = 1; ps[0].b = 2;
                ps[1].a = 3; ps[1].b = 4;
                ps[2].a = 5; ps[2].b = 6;
                struct Pair* p = ps;
                p = p + 2;
                return p->a + p->b;
            }
        "#,
            "f",
            vec![],
        );
        assert_eq!(v.as_int(), 11);
    }

    #[test]
    fn break_and_continue_in_nested_loops() {
        let v = run(
            r#"
            int f() {
                int acc = 0;
                for (int i = 0; i < 5; i++) {
                    if (i == 3) { continue; }
                    int j = 0;
                    while (1) {
                        j = j + 1;
                        if (j >= i) { break; }
                    }
                    acc = acc + j;
                }
                return acc;
            }
        "#,
            "f",
            vec![],
        );
        // i=0→j1, i=1→j1, i=2→j2, i=3 skipped, i=4→j4
        assert_eq!(v.as_int(), 8);
    }

    #[test]
    fn compound_assignment_operators() {
        let v = run(
            r#"
            int f() {
                int x = 100;
                x += 5; x -= 1; x *= 2; x /= 4; x %= 13;
                x <<= 2; x >>= 1; x |= 8; x &= 14; x ^= 1;
                return x;
            }
        "#,
            "f",
            vec![],
        );
        let mut x: i128 = 100;
        x += 5;
        x -= 1;
        x *= 2;
        x /= 4;
        x %= 13;
        x <<= 2;
        x >>= 1;
        x |= 8;
        x &= 14;
        x ^= 1;
        assert_eq!(v.as_int(), x);
    }

    #[test]
    fn ternary_evaluates_one_side() {
        // The untaken side would trap (division by zero) if evaluated.
        let v = run(
            "int f(int a) { return a > 0 ? a * 2 : a / 0; }",
            "f",
            vec![Value::int(21)],
        );
        assert_eq!(v.as_int(), 42);
    }

    #[test]
    fn union_fields_share_storage() {
        let v = run(
            r#"
            union U { int a; int b; };
            int f() { union U u; u.a = 5; return u.b; }
        "#,
            "f",
            vec![],
        );
        assert_eq!(v.as_int(), 5);
    }
}
