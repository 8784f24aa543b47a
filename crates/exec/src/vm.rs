//! The bytecode virtual machine: executes a [`CompiledProgram`] with the
//! exact observable semantics of the reference tree-walker (`interp::Machine`).
//!
//! "Observable" covers everything the rest of the pipeline reads: values,
//! `ExecError` variants *and message strings*, the abstract op counter
//! (fuel accounting trap-for-trap), branch coverage, loop statistics, call
//! counts, value-range/depth/heap profiles, and the memory-allocation
//! order (pointer addresses are observable through profiles and traps).
//!
//! One `Vm` corresponds to one `Machine`: construction runs the globals
//! segment (like `Machine::new`), and the coverage/profile/statistics
//! accumulate across `run_kernel` calls. The compiled program itself is
//! shared — `Arc<CompiledProgram>` — across any number of `Vm`s and
//! threads, which is what makes compile-once/run-many profitable. A run
//! reads it through a borrow and writes only its own VM's state, so runs
//! on different threads write no memory they share.

use crate::bytecode::{Co, CompiledProgram, Insn, Math1Op, Math2Op, ParamSpec, StoreK, GLOBAL_BIT};
use crate::coverage::CoverageMap;
use crate::error::{ExecError, Trap};
use crate::memory::Memory;
use crate::profile::{Profile, Range};
use crate::semantics::{
    binop_value, int_abs, int_binop, int_neg, int_step, MachineConfig, OobPolicy,
};
use crate::value::{coerce, coerce_int, ArgValue, Outcome, ScalarOut, Value};
use minic::ast::NodeId;
use minic::types::{ArraySize, Type};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The universal return target: `code[0]` is `Halt`.
const HALT_PC: u32 = 0;

struct VmFrame {
    /// Interned function name: the walker keys call statistics by name,
    /// so a method and a free function of the same name share them.
    name: u32,
    ret_pc: u32,
    prev_base: usize,
}

/// Bytecode interpreter (the VM analogue of the walker's `Machine`): a
/// shared program and the state this VM's runs write.
pub struct Vm {
    prog: Arc<CompiledProgram>,
    st: State,
}

/// Everything a run writes. It sits beside the program, not around it, so
/// a run can borrow the program while it writes here, without cloning the
/// `Arc`.
struct State {
    config: MachineConfig,
    /// Flat memory (same allocator as the tree-walker).
    mem: Memory,
    /// Stream table.
    streams: Vec<VecDeque<Value>>,
    ops: u64,
    stack: Vec<Value>,
    /// Local variable slots, frame-stacked; each holds a cell address.
    slots: Vec<usize>,
    /// Global variable slots.
    gslots: Vec<usize>,
    frames: Vec<VmFrame>,
    cur_base: usize,
    /// Branch coverage flags per site: `[false-hit, true-hit]`.
    cov: Vec<[bool; 2]>,
    /// Iteration counts per loop site.
    loops: Vec<u64>,
    /// Call counts per interned function name.
    calls: Vec<u64>,
    /// Currently-active call count per function name (recursion depth).
    active: Vec<u64>,
    /// Maximum observed `active` per function name (profiling).
    depth_max: Vec<u64>,
    /// Observed (min, max) per int-range profile site.
    int_acc: Vec<Option<(i128, i128)>>,
    /// Observed max index per index profile site.
    idx_acc: Vec<Option<i128>>,
    peak_heap: usize,
    /// Interned name of the function whose entry arguments are captured.
    capture: Option<u32>,
    /// Entry arguments captured by [`Vm::capture_args_of`], in call order.
    captured: Vec<Vec<ArgValue>>,
}

impl Vm {
    /// Creates a VM and runs the globals segment (mirrors `Machine::new`).
    ///
    /// # Errors
    ///
    /// Fails when a global initializer traps or an array extent cannot be
    /// resolved — the identical conditions, errors, and op charges as the
    /// tree-walker's constructor.
    pub fn new(prog: Arc<CompiledProgram>, config: MachineConfig) -> Result<Vm, ExecError> {
        let mut st = State {
            config,
            mem: Memory::new(),
            streams: Vec::new(),
            ops: 0,
            stack: Vec::new(),
            slots: Vec::new(),
            gslots: vec![0; prog.n_globals as usize],
            frames: Vec::new(),
            cur_base: 0,
            cov: vec![[false; 2]; prog.branch_sites.len()],
            loops: vec![0; prog.loop_sites.len()],
            calls: vec![0; prog.names.len()],
            active: vec![0; prog.names.len()],
            depth_max: vec![0; prog.names.len()],
            int_acc: vec![None; prog.int_sites.len()],
            idx_acc: vec![None; prog.idx_sites.len()],
            peak_heap: 0,
            capture: None,
            captured: Vec::new(),
        };
        st.exec_from(&prog, prog.globals_entry)?;
        Ok(Vm { prog, st })
    }

    /// Starts capturing the arguments of every call to `name` (paper Alg. 1
    /// `getKernelSeed`: snapshot the kernel's entry state during a host
    /// run). A name no function carries captures nothing.
    pub fn capture_args_of(&mut self, name: &str) {
        self.st.capture = self
            .prog
            .names
            .iter()
            .position(|n| n == name)
            .map(|i| i as u32);
    }

    /// The entry arguments captured since [`Vm::capture_args_of`], in call
    /// order.
    pub fn into_captured(self) -> Vec<Vec<ArgValue>> {
        self.st.captured
    }

    /// The VM's memory.
    pub fn mem(&self) -> &Memory {
        &self.st.mem
    }

    /// Abstract operations executed so far.
    pub fn ops(&self) -> u64 {
        self.st.ops
    }

    /// Materializes branch coverage (identical to the walker's map).
    pub fn coverage(&self) -> CoverageMap {
        let mut map = CoverageMap::new();
        for (i, flags) in self.st.cov.iter().enumerate() {
            if flags[0] {
                map.record(self.prog.branch_sites[i], false);
            }
            if flags[1] {
                map.record(self.prog.branch_sites[i], true);
            }
        }
        map
    }

    /// Materializes per-loop iteration counts.
    pub fn loop_stats(&self) -> BTreeMap<NodeId, u64> {
        let mut map = BTreeMap::new();
        for (i, &n) in self.st.loops.iter().enumerate() {
            if n > 0 {
                *map.entry(self.prog.loop_sites[i]).or_insert(0) += n;
            }
        }
        map
    }

    /// Materializes per-function call counts.
    pub fn call_counts(&self) -> BTreeMap<String, u64> {
        let mut map = BTreeMap::new();
        for (i, &n) in self.st.calls.iter().enumerate() {
            if n > 0 {
                map.insert(self.prog.names[i].clone(), n);
            }
        }
        map
    }

    /// Materializes the value-range/depth/heap profile.
    pub fn profile(&self) -> Profile {
        let mut p = Profile::new();
        let st = &self.st;
        if !st.config.profile {
            return p;
        }
        // Sites are unique per (function, name): each key is inserted once.
        let key = |(f, v): (u32, u32)| {
            let names = &self.prog.names;
            (names[f as usize].clone(), names[v as usize].clone())
        };
        for (i, acc) in st.int_acc.iter().enumerate() {
            if let Some((min, max)) = *acc {
                p.int_ranges
                    .insert(key(self.prog.int_sites[i]), Range { min, max });
            }
        }
        for (i, acc) in st.idx_acc.iter().enumerate() {
            if let Some(mx) = *acc {
                p.max_index.insert(key(self.prog.idx_sites[i]), mx);
            }
        }
        for (i, &d) in st.depth_max.iter().enumerate() {
            if d > 0 {
                p.max_depth.insert(self.prog.names[i].clone(), d);
            }
        }
        p.peak_heap_cells = st.peak_heap;
        p
    }

    /// Runs a function with already-constructed values (mirrors
    /// `Machine::run_function`).
    ///
    /// # Errors
    ///
    /// Returns traps and setup errors exactly as the walker, with one
    /// documented approximation: the walker leaves missing trailing
    /// parameters unbound and fails with "unknown variable" at first *use*;
    /// the VM reports that error eagerly at call time (production callers
    /// pass exact arity — `run_kernel` checks it).
    pub fn run_function(&mut self, name: &str, args: Vec<Value>) -> Result<Value, ExecError> {
        let prog = &*self.prog;
        let fi = *prog
            .by_name
            .get(name)
            .ok_or_else(|| ExecError::setup(format!("unknown function `{name}`")))?;
        let spec = &prog.funcs[fi as usize];
        if args.len() < spec.params.len() {
            let missing = &prog.names[spec.params[args.len()].pname as usize];
            return Err(ExecError::setup(format!("unknown variable `{missing}`")));
        }
        self.st.invoke(prog, fi, args)
    }

    /// Runs the kernel with fuzzer-level arguments and collects the full
    /// observable outcome (mirrors `Machine::run_kernel`).
    pub fn run_kernel(&mut self, name: &str, args: &[ArgValue]) -> Outcome {
        match self.st.run_kernel(&self.prog, name, args) {
            Ok(outcome) => outcome,
            Err(e) => Outcome {
                trapped: true,
                trap_reason: Some(e.to_string()),
                ops: self.st.ops,
                ..Default::default()
            },
        }
    }
}

impl State {
    /// Renders entry arguments into fuzzable [`ArgValue`]s: scalars
    /// directly, pointers as the rest of their allocation, streams as their
    /// queued contents. `None` when an argument has no such form (a unit
    /// value, or a pointer into no allocation, such as null).
    fn snapshot_args(&self, params: &[ParamSpec], args: &[Value]) -> Option<Vec<ArgValue>> {
        let snap = |(ps, v): (&ParamSpec, &Value)| {
            Some(match v {
                Value::Int { v, .. } => ArgValue::Int(*v),
                Value::Bool(b) => ArgValue::Int(*b as i128),
                Value::Float { v, .. } => ArgValue::Float(*v),
                Value::Ptr { addr, stride } => {
                    let (base, size) = self.mem.block_containing(*addr)?;
                    let elems = (base + size - addr) / (*stride).max(1);
                    let vals = self.mem.load_run(*addr, elems).ok()?;
                    if matches!(ps.pty.element(), Some(t) if t.is_float()) {
                        ArgValue::FloatArray(vals.iter().map(Value::as_f64).collect())
                    } else {
                        ArgValue::IntArray(vals.iter().map(Value::as_int).collect())
                    }
                }
                Value::StreamRef(h) => {
                    ArgValue::IntStream(self.streams.get(*h)?.iter().map(Value::as_int).collect())
                }
                Value::Unit => return None,
            })
        };
        params.iter().zip(args).map(snap).collect()
    }

    fn run_kernel(
        &mut self,
        prog: &CompiledProgram,
        name: &str,
        args: &[ArgValue],
    ) -> Result<Outcome, ExecError> {
        let fi = *prog
            .by_name
            .get(name)
            .ok_or_else(|| ExecError::setup(format!("unknown function `{name}`")))?;
        let spec = &prog.funcs[fi as usize];
        if spec.params.len() != args.len() {
            return Err(ExecError::setup(format!(
                "kernel `{name}` takes {} arguments, got {}",
                spec.params.len(),
                args.len()
            )));
        }
        let mut values = Vec::new();
        let mut array_views: Vec<Option<(usize, usize, bool)>> = Vec::new();
        let mut stream_views: Vec<Option<usize>> = Vec::new();
        for (ps, arg) in spec.params.iter().zip(args) {
            match arg {
                ArgValue::Int(v) if ps.kco != u32::MAX => {
                    values.push(apply_co(
                        &prog.cos[ps.kco as usize],
                        Value::Int {
                            v: *v,
                            bits: 127,
                            signed: true,
                        },
                    )?);
                    array_views.push(None);
                    stream_views.push(None);
                }
                ArgValue::Int(v) if ps.pty.is_float() => {
                    values.push(Value::double(*v as f64));
                    array_views.push(None);
                    stream_views.push(None);
                }
                ArgValue::Float(v) => {
                    values.push(Value::double(*v));
                    array_views.push(None);
                    stream_views.push(None);
                }
                ArgValue::IntArray(vs) => {
                    let (addr, elem_float) = self.alloc_arg_array(prog, ps, vs.len())?;
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
                ArgValue::FloatArray(vs) => {
                    let (addr, _) = self.alloc_arg_array(prog, ps, vs.len())?;
                    for (i, v) in vs.iter().enumerate() {
                        self.mem.store(addr + i, Value::double(*v))?;
                    }
                    values.push(Value::Ptr { addr, stride: 1 });
                    array_views.push(Some((addr, vs.len(), true)));
                    stream_views.push(None);
                }
                ArgValue::IntStream(vs) => {
                    let h = self.new_stream();
                    for v in vs {
                        self.streams[h].push_back(Value::int(*v));
                    }
                    values.push(Value::StreamRef(h));
                    array_views.push(None);
                    stream_views.push(Some(h));
                }
                a => {
                    return Err(ExecError::setup(format!(
                        "argument {a:?} incompatible with parameter type `{}`",
                        ps.pty
                    )))
                }
            }
        }
        let ret = self.invoke(prog, fi, values)?;
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

    fn alloc_arg_array(
        &mut self,
        prog: &CompiledProgram,
        ps: &ParamSpec,
        len: usize,
    ) -> Result<(usize, bool), ExecError> {
        let elem_float = match ps.arr {
            Ok(ef) => ef,
            Err(ei) => return Err(prog.errors[ei as usize].clone()),
        };
        let addr = self.mem.alloc(len)?;
        Ok((addr, elem_float))
    }

    // ----- machine primitives ----------------------------------------------

    fn new_stream(&mut self) -> usize {
        self.streams.push(VecDeque::new());
        self.streams.len() - 1
    }

    /// A single walker `charge(n)` call: overshoot is retained on trap.
    fn charge(&mut self, n: u64) -> Result<(), ExecError> {
        self.ops += n;
        if self.ops > self.config.fuel {
            Err(ExecError::trap(Trap::FuelExhausted))
        } else {
            Ok(())
        }
    }

    /// `n` merged walker `charge(1)` calls: on exhaustion the counter lands
    /// on exactly `fuel + 1`, where the unit-at-a-time sequence stops.
    fn charge_merged(&mut self, n: u64) -> Result<(), ExecError> {
        if self.ops + n > self.config.fuel {
            self.ops = self.config.fuel + 1;
            Err(ExecError::trap(Trap::FuelExhausted))
        } else {
            self.ops += n;
            Ok(())
        }
    }

    fn slot_addr(&self, sl: u32) -> usize {
        if sl & GLOBAL_BIT != 0 {
            self.gslots[(sl & !GLOBAL_BIT) as usize]
        } else {
            self.slots[self.cur_base + sl as usize]
        }
    }

    fn set_slot(&mut self, sl: u32, addr: usize) {
        if sl & GLOBAL_BIT != 0 {
            self.gslots[(sl & !GLOBAL_BIT) as usize] = addr;
        } else {
            self.slots[self.cur_base + sl as usize] = addr;
        }
    }

    fn pop(&mut self) -> Value {
        self.stack.pop().expect("vm operand stack underflow")
    }

    /// Pops a place (encoded as a stride-1 pointer by the compiler).
    fn pop_addr(&mut self) -> usize {
        match self.pop() {
            Value::Ptr { addr, .. } => addr,
            other => unreachable!("vm place was {other:?}"),
        }
    }

    /// Mirror of `Machine::store_typed` through a precompiled site.
    fn store_k(
        &mut self,
        prog: &CompiledProgram,
        addr: usize,
        k: StoreK,
        v: Value,
    ) -> Result<(), ExecError> {
        match k {
            StoreK::Raw => self.mem.store(addr, v),
            StoreK::AggOk(n) => {
                if let Value::Ptr { addr: src, .. } = v {
                    let vals = self.mem.load_run(src, n)?;
                    for (i, val) in vals.into_iter().enumerate() {
                        self.mem.store(addr + i, val)?;
                    }
                    Ok(())
                } else {
                    self.mem.store(addr, v)
                }
            }
            StoreK::AggErr(ei) => {
                if matches!(v, Value::Ptr { .. }) {
                    Err(prog.errors[ei as usize].clone())
                } else {
                    self.mem.store(addr, v)
                }
            }
            StoreK::Co(ci) => {
                // Integer stores, the hottest kind, wrap here directly
                // rather than through `apply_co`'s `Result`.
                let coerced = match &prog.cos[ci as usize] {
                    Co::Int { bits, signed } => coerce_int(&v, *bits, *signed),
                    co => apply_co(co, v)?,
                };
                self.mem.store(addr, coerced)
            }
        }
    }

    fn bounded_index(&self, i: i128, len: u64) -> Result<usize, ExecError> {
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

    /// Records an integer write for profiling (reload from memory, like the
    /// walker's post-store reload).
    fn record_int_site(&mut self, prof: u32, addr: usize) -> Result<(), ExecError> {
        if prof != u32::MAX && self.config.profile {
            if let Value::Int { v, .. } = self.mem.load(addr)? {
                let v = *v;
                let acc = &mut self.int_acc[prof as usize];
                *acc = Some(match *acc {
                    None => (v, v),
                    Some((mn, mx)) => (mn.min(v), mx.max(v)),
                });
            }
        }
        Ok(())
    }

    // ----- calls -----------------------------------------------------------

    /// Enters a function frame; returns its entry pc. The arguments are
    /// the top `params.len()` operand-stack values, first parameter
    /// deepest, and bind straight off the stack; a method's receiver lies
    /// under them and takes the slot after its parameters. Mirrors the
    /// walker's `call_function` prologue, including its bookkeeping order:
    /// counters are bumped *before* parameter binding, so a binding error
    /// leaves the callee's active count elevated exactly as the walker
    /// does. What an error leaves on the stack, `invoke` truncates.
    fn enter(
        &mut self,
        prog: &CompiledProgram,
        fi: u32,
        method: bool,
        ret_pc: u32,
    ) -> Result<u32, ExecError> {
        let spec = &prog.funcs[fi as usize];
        if self.frames.len() as u64 >= self.config.max_depth {
            return Err(ExecError::trap(Trap::StackOverflow));
        }
        self.charge(5)?;
        let at = self.stack.len() - spec.params.len();
        if self.capture == Some(spec.name) {
            if let Some(snap) = self.snapshot_args(&spec.params, &self.stack[at..]) {
                self.captured.push(snap);
            }
        }
        let name = spec.name as usize;
        self.calls[name] += 1;
        self.active[name] += 1;
        if self.config.profile {
            let d = self.active[name];
            let e = &mut self.depth_max[name];
            *e = (*e).max(d);
        }
        let base = self.slots.len();
        for (ps, arg) in spec.params.iter().zip(self.stack.drain(at..)) {
            let addr = self.mem.alloc(1)?;
            let stored = if ps.is_stream {
                arg
            } else {
                apply_co(&prog.cos[ps.bco as usize], arg)?
            };
            self.mem.store(addr, stored)?;
            self.slots.push(addr);
        }
        if method {
            let base_addr = self.pop_addr();
            self.slots.push(base_addr);
        }
        self.slots.resize(base + spec.n_slots as usize, usize::MAX);
        self.frames.push(VmFrame {
            name: spec.name,
            ret_pc,
            prev_base: self.cur_base,
        });
        self.cur_base = base;
        Ok(spec.entry)
    }

    /// Leaves the current frame (the walker's `call_function` epilogue);
    /// returns the pc to resume at.
    fn leave(&mut self) -> u32 {
        let fr = self.frames.pop().expect("vm frame underflow");
        self.active[fr.name as usize] -= 1;
        if self.config.profile {
            self.peak_heap = self.peak_heap.max(self.mem.peak_cells());
        }
        self.slots.truncate(self.cur_base);
        self.cur_base = fr.prev_base;
        fr.ret_pc
    }

    /// Calls function `fi` with `args` (extras ignored, like the walker's
    /// `zip` binding) and runs to completion.
    fn invoke(
        &mut self,
        prog: &CompiledProgram,
        fi: u32,
        args: Vec<Value>,
    ) -> Result<Value, ExecError> {
        let nparams = prog.funcs[fi as usize].params.len();
        let stack_len = self.stack.len();
        let slots_len = self.slots.len();
        let frames_len = self.frames.len();
        let base_save = self.cur_base;
        self.stack.extend(args.into_iter().take(nparams));
        let result = self
            .enter(prog, fi, false, HALT_PC)
            .and_then(|entry| self.exec_from(prog, entry));
        match result {
            Ok(()) => Ok(self.pop()),
            Err(e) => {
                // The walker unwinds every open frame on error, updating the
                // per-function active counts and the heap peak as it goes.
                while self.frames.len() > frames_len {
                    self.leave();
                }
                self.cur_base = base_save;
                self.slots.truncate(slots_len);
                self.stack.truncate(stack_len);
                Err(e)
            }
        }
    }

    // ----- the dispatch loop -----------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn exec_from(&mut self, prog: &CompiledProgram, entry: u32) -> Result<(), ExecError> {
        let code = &prog.code;
        let mut pc = entry as usize;
        loop {
            let insn = &code[pc];
            pc += 1;
            match insn {
                Insn::Halt => return Ok(()),
                Insn::Charge(n) => self.charge_merged(*n)?,
                Insn::ChargeN(n) => self.charge(*n)?,
                Insn::Const { v, charge } => {
                    self.charge_merged(*charge)?;
                    self.stack.push(v.clone());
                }
                Insn::Pop => {
                    self.pop();
                }
                Insn::Jump(t) => pc = *t as usize,
                Insn::BranchFalse { site, target } => {
                    let taken = self.pop().is_truthy();
                    self.cov[*site as usize][taken as usize] = true;
                    if !taken {
                        pc = *target as usize;
                    }
                }
                Insn::BranchTrue { site, target } => {
                    let taken = self.pop().is_truthy();
                    self.cov[*site as usize][taken as usize] = true;
                    if taken {
                        pc = *target as usize;
                    }
                }
                Insn::CoverTrue { site } => self.cov[*site as usize][1] = true,
                Insn::LoopIter { site } => self.loops[*site as usize] += 1,
                Insn::AndShort(t) => {
                    if !self.pop().is_truthy() {
                        self.stack.push(Value::Bool(false));
                        pc = *t as usize;
                    }
                }
                Insn::OrShort(t) => {
                    if self.pop().is_truthy() {
                        self.stack.push(Value::Bool(true));
                        pc = *t as usize;
                    }
                }
                Insn::ToBool => {
                    let v = self.pop().is_truthy();
                    self.stack.push(Value::Bool(v));
                }
                Insn::LoadVar { sl, charge } => {
                    self.charge_merged(*charge)?;
                    let addr = self.slot_addr(*sl);
                    let v = self.mem.load(addr)?.clone();
                    self.stack.push(v);
                }
                Insn::DecayVar { sl, stride } => {
                    let addr = self.slot_addr(*sl);
                    self.stack.push(Value::Ptr {
                        addr,
                        stride: *stride,
                    });
                }
                Insn::AddrVar { sl, charge } => {
                    self.charge_merged(*charge)?;
                    let addr = self.slot_addr(*sl);
                    self.stack.push(Value::Ptr { addr, stride: 1 });
                }
                Insn::AddrField { sl, off } => {
                    let addr = self.slot_addr(*sl) + off;
                    self.stack.push(Value::Ptr { addr, stride: 1 });
                }
                Insn::LoadPlace => {
                    let addr = self.pop_addr();
                    let v = self.mem.load(addr)?.clone();
                    self.stack.push(v);
                }
                Insn::DecayPlace(stride) => {
                    let addr = self.pop_addr();
                    self.stack.push(Value::Ptr {
                        addr,
                        stride: *stride,
                    });
                }
                Insn::PlaceDeref => {
                    let v = self.pop();
                    let Value::Ptr { addr, .. } = v else {
                        return Err(ExecError::setup("dereference of non-pointer"));
                    };
                    if addr == 0 {
                        return Err(ExecError::trap(Trap::NullDeref));
                    }
                    self.stack.push(Value::Ptr { addr, stride: 1 });
                }
                Insn::PlaceIndexArr { esize, len, prof } => {
                    let baddr = self.pop_addr();
                    let i = self.pop().as_int();
                    let eff = self.bounded_index(i, *len)?;
                    if *prof != u32::MAX && self.config.profile {
                        let acc = &mut self.idx_acc[*prof as usize];
                        *acc = Some(match *acc {
                            None => i,
                            Some(mx) => mx.max(i),
                        });
                    }
                    self.stack.push(Value::Ptr {
                        addr: baddr + eff * esize,
                        stride: 1,
                    });
                }
                Insn::PlaceIndexVla {
                    esize,
                    len_sl,
                    prof,
                } => {
                    let len = self.slot_addr(*len_sl) as u64;
                    let baddr = self.pop_addr();
                    let i = self.pop().as_int();
                    let eff = self.bounded_index(i, len)?;
                    if *prof != u32::MAX && self.config.profile {
                        let acc = &mut self.idx_acc[*prof as usize];
                        *acc = Some(match *acc {
                            None => i,
                            Some(mx) => mx.max(i),
                        });
                    }
                    self.stack.push(Value::Ptr {
                        addr: baddr + eff * esize,
                        stride: 1,
                    });
                }
                Insn::PlaceIndexPtr => {
                    let baddr = self.pop_addr();
                    let i = self.pop().as_int();
                    let pv = self.mem.load(baddr)?.clone();
                    let Value::Ptr { addr, stride } = pv else {
                        return Err(ExecError::setup("indexing non-pointer"));
                    };
                    let target = addr as i128 + i * stride.max(1) as i128;
                    if target <= 0 {
                        return Err(ExecError::trap(Trap::NullDeref));
                    }
                    self.stack.push(Value::Ptr {
                        addr: target as usize,
                        stride: 1,
                    });
                }
                Insn::PlaceIndexVal => {
                    let pv = self.pop();
                    let i = self.pop().as_int();
                    let Value::Ptr { addr, stride } = pv else {
                        return Err(ExecError::setup("indexing non-pointer value"));
                    };
                    let target = addr as i128 + i * stride.max(1) as i128;
                    if target <= 0 {
                        return Err(ExecError::trap(Trap::NullDeref));
                    }
                    self.stack.push(Value::Ptr {
                        addr: target as usize,
                        stride: 1,
                    });
                }
                Insn::PlaceOffset(off) => {
                    let addr = self.pop_addr();
                    self.stack.push(Value::Ptr {
                        addr: addr + off,
                        stride: 1,
                    });
                }
                Insn::ArrowAddr => {
                    let v = self.pop();
                    let Value::Ptr { addr, .. } = v else {
                        return Err(ExecError::setup("`->` on non-pointer"));
                    };
                    if addr == 0 {
                        return Err(ExecError::trap(Trap::NullDeref));
                    }
                    self.stack.push(Value::Ptr { addr, stride: 1 });
                }
                Insn::StoreVar {
                    sl,
                    k,
                    op,
                    prof,
                    keep,
                    charge,
                } => {
                    self.charge_merged(*charge)?;
                    let rv = self.pop();
                    let addr = self.slot_addr(*sl);
                    let final_v = match op {
                        None => rv,
                        Some(o) => {
                            let cur = self.mem.load(addr)?.clone();
                            self.charge(1)?;
                            binop_value(*o, cur, rv)?
                        }
                    };
                    self.store_k(prog, addr, *k, final_v)?;
                    self.record_int_site(*prof, addr)?;
                    if *keep {
                        let out = self.mem.load(addr)?.clone();
                        self.stack.push(out);
                    }
                }
                Insn::StoreInd { k, op, prof, keep } => {
                    let addr = self.pop_addr();
                    let rv = self.pop();
                    let final_v = match op {
                        None => rv,
                        Some(o) => {
                            let cur = self.mem.load(addr)?.clone();
                            self.charge(1)?;
                            binop_value(*o, cur, rv)?
                        }
                    };
                    self.store_k(prog, addr, *k, final_v)?;
                    self.record_int_site(*prof, addr)?;
                    if *keep {
                        let out = self.mem.load(addr)?.clone();
                        self.stack.push(out);
                    }
                }
                Insn::StoreInit { sl, k } => {
                    let v = self.pop();
                    let addr = self.slot_addr(*sl);
                    self.store_k(prog, addr, *k, v)?;
                }
                Insn::StoreCell { sl, off, co } => {
                    let v = self.pop();
                    let v = apply_co(&prog.cos[*co as usize], v)?;
                    let addr = self.slot_addr(*sl) + off;
                    self.mem.store(addr, v)?;
                }
                Insn::IncDec {
                    delta,
                    prefix,
                    k,
                    prof,
                    keep,
                } => {
                    let addr = self.pop_addr();
                    let old = self.mem.load(addr)?.clone();
                    let delta = *delta as i128;
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
                    self.store_k(prog, addr, *k, new)?;
                    self.record_int_site(*prof, addr)?;
                    if *keep {
                        let out = if *prefix {
                            self.mem.load(addr)?.clone()
                        } else {
                            old
                        };
                        self.stack.push(out);
                    }
                }
                Insn::Alloc {
                    sl,
                    size,
                    stream,
                    charge,
                } => {
                    self.charge_merged(*charge)?;
                    let addr = self.mem.alloc(*size)?;
                    if *stream {
                        let h = self.new_stream();
                        self.mem.store(addr, Value::StreamRef(h))?;
                    }
                    self.set_slot(*sl, addr);
                }
                Insn::AllocVla { sl, esize } => {
                    let n = (self.pop().as_int().max(0) as u64).max(1);
                    let addr = self.mem.alloc((n as usize).saturating_mul(*esize))?;
                    self.set_slot(*sl, addr);
                    self.set_slot(sl + 1, n as usize);
                }
                Insn::DecayVla { esize, len_sl } => {
                    let addr = self.pop_addr();
                    let stride = self.slot_addr(*len_sl) * esize;
                    self.stack.push(Value::Ptr { addr, stride });
                }
                Insn::NewAgg(size) => {
                    let addr = self.mem.alloc(*size)?;
                    self.stack.push(Value::Ptr { addr, stride: 1 });
                }
                Insn::Pick(depth) => {
                    let v = self.stack[self.stack.len() - 1 - *depth as usize].clone();
                    self.stack.push(v);
                }
                Insn::StoreAgg { below, off, k } => {
                    let v = self.pop();
                    let base = match &self.stack[self.stack.len() - 1 - *below as usize] {
                        Value::Ptr { addr, .. } => *addr,
                        other => unreachable!("vm aggregate base was {other:?}"),
                    };
                    self.store_k(prog, base + off, *k, v)?;
                }
                Insn::DropN(n) => {
                    let len = self.stack.len() - *n as usize;
                    self.stack.truncate(len);
                }
                Insn::GDefine { sl, v } => {
                    let addr = self.mem.alloc(1)?;
                    self.mem.store(addr, Value::int(*v))?;
                    self.set_slot(*sl, addr);
                }
                Insn::Neg => {
                    let v = self.pop();
                    self.stack.push(match v {
                        Value::Float { v, kind } => Value::Float { v: -v, kind },
                        other => Value::Int {
                            v: int_neg(other.as_int()),
                            bits: 64,
                            signed: true,
                        },
                    });
                }
                Insn::NotL => {
                    let v = self.pop().is_truthy();
                    self.stack.push(Value::Bool(!v));
                }
                Insn::BitNot => {
                    let v = self.pop().as_int();
                    self.stack.push(Value::Int {
                        v: !v,
                        bits: 64,
                        signed: true,
                    });
                }
                Insn::Bin(op) => {
                    // Two `Int`s combine in place: the result overwrites
                    // the left operand's slot.
                    if let [.., Value::Int { v: a, .. }, Value::Int { v: b, .. }] =
                        self.stack.as_slice()
                    {
                        let (a, b) = (*a, *b);
                        self.charge(1)?;
                        let v = int_binop(*op, a, b)?;
                        let n = self.stack.len();
                        self.stack.truncate(n - 1);
                        self.stack[n - 2] = v;
                    } else {
                        let rhs = self.pop();
                        let lhs = self.pop();
                        self.charge(1)?;
                        let v = binop_value(*op, lhs, rhs)?;
                        self.stack.push(v);
                    }
                }
                Insn::CastTo(co) => {
                    let v = self.pop();
                    let v = apply_co(&prog.cos[*co as usize], v)?;
                    self.stack.push(v);
                }
                Insn::CallFn { f } => pc = self.enter(prog, *f, false, pc as u32)? as usize,
                Insn::CallMethod { f } => pc = self.enter(prog, *f, true, pc as u32)? as usize,
                Insn::Ret => {
                    let v = self.pop();
                    pc = self.leave() as usize;
                    self.stack.push(v);
                }
                Insn::RetUnit => {
                    pc = self.leave() as usize;
                    self.stack.push(Value::Unit);
                }
                Insn::FailErr(ei) => return Err(prog.errors[*ei as usize].clone()),
                Insn::FailVla { msg, len_sl } => {
                    let (what, elem) = &prog.vla_errs[*msg as usize];
                    let n = self.slot_addr(*len_sl) as u64;
                    let ty = Type::Array(Box::new(elem.clone()), ArraySize::Const(n));
                    return Err(ExecError::setup(format!("{what} `{ty}`")));
                }
                Insn::Malloc => {
                    let n = self.pop().as_int().max(0) as usize;
                    let addr = self.mem.alloc(n)?;
                    self.stack.push(Value::Ptr { addr, stride: 1 });
                }
                Insn::FreeP => {
                    let p = self.pop();
                    if let Value::Ptr { addr, .. } = p {
                        if let Some(n) = self.mem.block_size(addr) {
                            self.mem.free(n);
                        }
                    }
                    self.stack.push(Value::Unit);
                }
                Insn::AbsI => {
                    let x = self.pop().as_int();
                    self.stack.push(Value::int(int_abs(x)));
                }
                Insn::Math1(op) => {
                    let x = self.pop().as_f64();
                    self.charge(8)?;
                    let v = match op {
                        Math1Op::Sqrt => x.sqrt(),
                        Math1Op::Fabs => x.abs(),
                        Math1Op::Exp => x.exp(),
                        Math1Op::Log => x.ln(),
                        Math1Op::Sin => x.sin(),
                        Math1Op::Cos => x.cos(),
                        Math1Op::Tan => x.tan(),
                        Math1Op::Floor => x.floor(),
                        Math1Op::Ceil => x.ceil(),
                        Math1Op::Round => x.round(),
                    };
                    self.stack.push(Value::double(v));
                }
                Insn::Math2(op) => {
                    let y = self.pop().as_f64();
                    let x = self.pop().as_f64();
                    self.charge(10)?;
                    let v = match op {
                        Math2Op::Pow => x.powf(y),
                        Math2Op::Fmin => x.min(y),
                        Math2Op::Fmax => x.max(y),
                        Math2Op::Atan2 => x.atan2(y),
                        Math2Op::Fmod => x % y,
                    };
                    self.stack.push(Value::double(v));
                }
                Insn::Memset => {
                    let n = self.pop().as_int().max(0) as usize;
                    let fill = self.pop();
                    let p = self.pop();
                    if let Value::Ptr { addr, .. } = p {
                        for i in 0..n {
                            self.mem.store(addr + i, fill.clone())?;
                            self.charge(1)?;
                        }
                    }
                    self.stack.push(Value::Unit);
                }
                Insn::Memcpy => {
                    let n = self.pop().as_int().max(0) as usize;
                    let src = self.pop();
                    let dst = self.pop();
                    if let (Value::Ptr { addr: d, .. }, Value::Ptr { addr: s, .. }) = (dst, src) {
                        let vals = self.mem.load_run(s, n)?;
                        for (i, v) in vals.into_iter().enumerate() {
                            self.mem.store(d + i, v)?;
                            self.charge(1)?;
                        }
                    }
                    self.stack.push(Value::Unit);
                }
                Insn::StreamFromVal => {
                    let h = match self.pop() {
                        Value::StreamRef(h) => h,
                        Value::Ptr { addr, .. } => match self.mem.load(addr)?.clone() {
                            Value::StreamRef(h) => h,
                            _ => return Err(ExecError::setup("not a stream")),
                        },
                        _ => return Err(ExecError::setup("not a stream")),
                    };
                    self.stack.push(Value::StreamRef(h));
                }
                Insn::StreamFromPlace => {
                    let addr = self.pop_addr();
                    match self.mem.load(addr)?.clone() {
                        Value::StreamRef(h) => self.stack.push(Value::StreamRef(h)),
                        _ => return Err(ExecError::setup("not a stream")),
                    }
                }
                Insn::StreamPush => {
                    let v = self.pop();
                    let h = self.pop_stream();
                    self.streams
                        .get_mut(h)
                        .ok_or_else(|| ExecError::setup("bad stream handle"))?
                        .push_back(v);
                    self.stack.push(Value::Unit);
                }
                Insn::StreamPop => {
                    let h = self.pop_stream();
                    let v = self
                        .streams
                        .get_mut(h)
                        .ok_or_else(|| ExecError::setup("bad stream handle"))?
                        .pop_front()
                        .ok_or_else(|| ExecError::trap(Trap::StreamUnderflow))?;
                    self.stack.push(v);
                }
                Insn::StreamEmptyQ => {
                    let h = self.pop_stream();
                    let b = self.streams.get(h).map(|s| s.is_empty()).unwrap_or(true);
                    self.stack.push(Value::Bool(b));
                }
                Insn::StreamFullQ => {
                    self.pop_stream();
                    self.stack.push(Value::Bool(false));
                }
                Insn::StreamSizeQ => {
                    let h = self.pop_stream();
                    let n = self.streams.get(h).map(|s| s.len()).unwrap_or(0);
                    self.stack.push(Value::int(n as i128));
                }
            }
        }
    }

    fn pop_stream(&mut self) -> usize {
        match self.pop() {
            Value::StreamRef(h) => h,
            other => unreachable!("vm stream operand was {other:?}"),
        }
    }
}

/// Applies a precompiled coercion (the walker's `coerce` for the type the
/// site was compiled against).
#[inline]
fn apply_co(co: &Co, v: Value) -> Result<Value, ExecError> {
    match co {
        Co::Int { bits, signed } => Ok(coerce_int(&v, *bits, *signed)),
        Co::Ty(t) => coerce(v, t, &|_| Ok(1usize)),
        Co::PtrStride(stride) => Ok(match v {
            Value::Ptr { addr, .. } => Value::Ptr {
                addr,
                stride: *stride,
            },
            other => Value::Ptr {
                addr: other.as_int().max(0) as usize,
                stride: *stride,
            },
        }),
        Co::PtrErr(e) => Err(e.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::compiled_for;
    use ArgValue::{Float, FloatArray, Int, IntArray, IntStream};

    #[test]
    fn captured_args_snapshot_arrays_and_streams() {
        const STREAMS: &str = r#"
            int kernel(int a[3], hls::stream<unsigned> &s) { return a[0] + s.read(); }
            int host() {
                int buf[3];
                buf[0] = 9; buf[1] = 8; buf[2] = 7;
                hls::stream<unsigned> st;
                st.write(100u);
                return kernel(buf, st);
            }
        "#;
        const FLOATS: &str = r#"
            float kernel(float *a, int n, float k) { return a[0] * k + n; }
            float host() {
                float buf[2];
                buf[0] = 1.5; buf[1] = 2.5;
                return kernel(buf, 2, 0.5);
            }
        "#;
        // An interior pointer captures the tail of its block.
        const INTERIOR: &str = r#"
            int kernel(int *a) { return a[0]; }
            int host() {
                int buf[5];
                for (int i = 0; i < 5; i++) { buf[i] = i * 10; }
                return kernel(buf + 2);
            }
        "#;
        // Every call is captured in call order, with its own entry state.
        const TWICE: &str = r#"
            int kernel(int a[2], int x) { a[0] = a[0] + x; return a[0]; }
            int host() {
                int buf[2];
                buf[0] = 1; buf[1] = 2;
                kernel(buf, 5);
                return kernel(buf, 7);
            }
        "#;
        // A null pointer points into no block: that call is skipped.
        const NULL: &str = r#"
            int kernel(int *a) { return a == 0; }
            int host() {
                int *p = 0;
                int one[1];
                one[0] = 4;
                return kernel(p) + kernel(one);
            }
        "#;
        const NO_CALL: &str = r#"
            int kernel(int x) { return x; }
            int host() { return 3; }
        "#;
        let cases: Vec<(&str, &str, &str, Vec<Vec<ArgValue>>)> = vec![
            (
                STREAMS,
                "host",
                "kernel",
                vec![vec![IntArray(vec![9, 8, 7]), IntStream(vec![100])]],
            ),
            (
                FLOATS,
                "host",
                "kernel",
                vec![vec![FloatArray(vec![1.5, 2.5]), Int(2), Float(0.5)]],
            ),
            (
                INTERIOR,
                "host",
                "kernel",
                vec![vec![IntArray(vec![20, 30, 40])]],
            ),
            (
                TWICE,
                "host",
                "kernel",
                vec![
                    vec![IntArray(vec![1, 2]), Int(5)],
                    vec![IntArray(vec![6, 2]), Int(7)],
                ],
            ),
            (NULL, "host", "kernel", vec![vec![IntArray(vec![4])]]),
            (NO_CALL, "host", "kernel", vec![]),
            (NO_CALL, "no_such_host", "kernel", vec![]),
            (NO_CALL, "host", "no_such_kernel", vec![]),
        ];
        for (src, host, kernel, want) in cases {
            let p = minic::parse(src).unwrap();
            let mut vm = Vm::new(compiled_for(&p), MachineConfig::cpu()).unwrap();
            vm.capture_args_of(kernel);
            let _ = vm.run_function(host, vec![]);
            assert_eq!(vm.into_captured(), want, "{host} -> {kernel} in {src}");
        }
    }
}
