//! The FPGA behavioural simulator.
//!
//! Runs a (synthesizable) kernel on the interpreter in FPGA mode — wrapping
//! array indices, masking integers to declared bit widths, quantizing custom
//! floats — and attaches a scheduled latency estimate. Together with the CPU
//! side this is the engine of HeteroGen's differential testing.

use crate::errors::ToolchainError;
use crate::schedule::{FpgaEstimate, ScheduleModel, SchedulePlan};
use minic::ast::{Block, Function, Item, NodeId, Program, Stmt, StmtKind};
use minic_exec::{ArgValue, ExecEngine, ExecError, MachineConfig, Outcome, Prepared, Runner, Trap};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Result of simulating one test input on the FPGA side.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Observable behaviour (return value, arrays, streams).
    pub outcome: Outcome,
    /// Scheduled latency estimate.
    pub estimate: FpgaEstimate,
}

/// What one co-simulation run observed, less its statement-pragma charges:
/// the run of any program that differs from the traced one only in
/// statement pragmas, on the same input, observes the same, plus one unit
/// of fuel per pragma execution ([`FpgaSimulator::replay`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SimTrace {
    /// The outcome, its `ops` less the pragma charges.
    outcome: Outcome,
    /// Iterations per loop.
    loop_iters: BTreeMap<NodeId, u64>,
    /// Calls per function name.
    calls: BTreeMap<String, u64>,
}

/// Why a run is neither recorded as a [`SimTrace`] nor answered from one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Untraced {
    /// A statement pragma sits outside the leading run of a loop body or of
    /// a free function's body, so no loop or call count says how often it
    /// runs.
    PragmaSite,
    /// A function-head pragma's function shares its name with another
    /// function, a method or a constructor; the VM counts calls by name.
    SharedName,
    /// The run trapped.
    Trapped,
    /// The derived op count exceeds the fuel allowance, where the real run
    /// traps.
    FuelLimit,
}

/// How often a program's statement pragmas run, in terms of one run's loop
/// and call counts: a pragma in the leading run of a loop body runs once
/// per iteration, one in the leading run of a free function's body once
/// per call.
#[derive(Debug, Default)]
struct PragmaCharges {
    /// Leading pragmas per loop body, by loop statement id.
    loops: Vec<(NodeId, u64)>,
    /// Leading pragmas per free function body, by function name.
    calls: Vec<(String, u64)>,
}

impl PragmaCharges {
    fn of(p: &Program) -> Result<PragmaCharges, Untraced> {
        let mut charges = PragmaCharges::default();
        for item in &p.items {
            match item {
                Item::Function(f) => {
                    let Some(body) = &f.body else { continue };
                    let head = leading_pragmas(body);
                    if head > 0 {
                        if name_shared(p, f) {
                            return Err(Untraced::SharedName);
                        }
                        charges.calls.push((f.name.clone(), head as u64));
                    }
                    charges.loop_heads(&body.stmts()[head..])?;
                }
                Item::Struct(s) => {
                    for body in s.methods.iter().filter_map(|m| m.body.as_ref()) {
                        charges.block(body)?;
                    }
                    if let Some(c) = &s.ctor {
                        charges.block(&c.body)?;
                    }
                }
                _ => {}
            }
        }
        Ok(charges)
    }

    fn block(&mut self, b: &Block) -> Result<(), Untraced> {
        if b.holds_pragma() {
            self.loop_heads(b.stmts())?;
        }
        Ok(())
    }

    /// Records the leading pragmas of the loop bodies under `stmts`, and
    /// fails on any other statement pragma there.
    fn loop_heads(&mut self, stmts: &[Stmt]) -> Result<(), Untraced> {
        for s in stmts {
            match &s.kind {
                StmtKind::Pragma(_) => return Err(Untraced::PragmaSite),
                StmtKind::While(_, body) | StmtKind::DoWhile(body, _) | StmtKind::For(.., body) => {
                    if let StmtKind::For(Some(init), ..) = &s.kind {
                        self.loop_heads(std::slice::from_ref(&**init))?;
                    }
                    if body.holds_pragma() {
                        let head = leading_pragmas(body);
                        if head > 0 {
                            self.loops.push((s.id, head as u64));
                        }
                        self.loop_heads(&body.stmts()[head..])?;
                    }
                }
                StmtKind::If(_, t, e) => {
                    self.block(t)?;
                    if let Some(e) = e {
                        self.block(e)?;
                    }
                }
                StmtKind::Block(b) => self.block(b)?,
                _ => {}
            }
        }
        Ok(())
    }

    /// The pragma executions of a run with these loop and call counts,
    /// saturating.
    fn count(&self, loop_iters: &BTreeMap<NodeId, u64>, calls: &BTreeMap<String, u64>) -> u64 {
        let per_loop = self
            .loops
            .iter()
            .map(|(id, n)| loop_iters.get(id).map_or(0, |i| i.saturating_mul(*n)));
        let per_call = self
            .calls
            .iter()
            .map(|(f, n)| calls.get(f).map_or(0, |c| c.saturating_mul(*n)));
        per_loop.chain(per_call).fold(0, u64::saturating_add)
    }
}

/// The number of statement pragmas that open `b`.
fn leading_pragmas(b: &Block) -> usize {
    b.stmts()
        .iter()
        .take_while(|s| matches!(s.kind, StmtKind::Pragma(_)))
        .count()
}

/// Whether a function other than `f`, a method or a constructor runs under
/// `f`'s name.
fn name_shared(p: &Program, f: &Function) -> bool {
    p.items.iter().any(|item| match item {
        Item::Function(g) => g.body.is_some() && g.name == f.name && !std::ptr::eq(&**g, f),
        Item::Struct(s) => s.name == f.name || s.methods.iter().any(|m| m.name == f.name),
        _ => false,
    })
}

/// FPGA simulator for one program.
///
/// Construction resolves the top function and builds the
/// [`SchedulePlan`] — the static half of the latency model. The bytecode
/// lowering is fetched (or performed) through the process-wide compile
/// cache on the first real run, so a simulator that only
/// [replays](FpgaSimulator::replay) traces never lowers. Each simulated
/// test then only pays for a fresh per-run interpreter, the run itself,
/// and one pass over the plan's loops.
#[derive(Debug)]
pub struct FpgaSimulator<'p> {
    program: &'p Program,
    engine: ExecEngine,
    prepared: OnceLock<Prepared<'p>>,
    charges: OnceLock<Result<PragmaCharges, Untraced>>,
    plan: SchedulePlan,
    clock_mhz: f64,
    kernel: String,
}

impl<'p> FpgaSimulator<'p> {
    /// Creates a simulator for the program's top function on the bytecode
    /// VM under the default schedule model.
    ///
    /// # Errors
    ///
    /// Fails when the program has no resolvable top function.
    pub fn new(program: &'p Program) -> Result<FpgaSimulator<'p>, ExecError> {
        FpgaSimulator::configured(program, ExecEngine::Bytecode, &ScheduleModel::default())
    }

    /// Creates a simulator for the program's top function on `engine`
    /// ([`ExecEngine::TreeWalk`] simulates on the reference interpreter),
    /// estimating latency under `model`.
    ///
    /// # Errors
    ///
    /// Fails when the program has no resolvable top function.
    pub fn configured(
        program: &'p Program,
        engine: ExecEngine,
        model: &ScheduleModel,
    ) -> Result<FpgaSimulator<'p>, ExecError> {
        let kernel = program
            .top_function_name()
            .ok_or_else(|| ExecError::setup("no top function in design"))?
            .to_string();
        Ok(FpgaSimulator {
            program,
            engine,
            prepared: OnceLock::new(),
            charges: OnceLock::new(),
            plan: SchedulePlan::new(model, program),
            clock_mhz: program.config.clock_mhz,
            kernel,
        })
    }

    /// The kernel (top function) name being simulated.
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// Simulates one test input.
    pub fn run(&self, args: &[ArgValue]) -> SimResult {
        self.run_with_config(args, MachineConfig::fpga())
    }

    /// Simulates one test input under a fuel allowance slashed by `factor`,
    /// as an injected fuel-spike fault does. If the kernel still finishes,
    /// the result is identical to the unspiked run (fuel only bounds, never
    /// alters, deterministic execution); if the allowance is exhausted the
    /// invocation is classified transient so the caller retries it unspiked.
    ///
    /// # Errors
    ///
    /// Returns a transient [`ToolchainError`] at `hls_sim` when the slashed
    /// fuel allowance runs out before the kernel completes.
    pub fn run_spiked(
        &self,
        args: &[ArgValue],
        factor: u32,
        attempt: u32,
    ) -> Result<SimResult, ToolchainError> {
        let mut config = MachineConfig::fpga();
        config.fuel = (config.fuel / u64::from(factor.max(1))).max(1);
        let r = self.run_with_config(args, config);
        let fuel_exhausted = ExecError::trap(Trap::FuelExhausted).to_string();
        if r.outcome.trapped && r.outcome.trap_reason.as_deref() == Some(&fuel_exhausted) {
            Err(ToolchainError::transient(
                "hls_sim",
                attempt,
                "fuel spike exhausted the simulation budget",
            ))
        } else {
            Ok(r)
        }
    }

    /// Whether this program's runs can be recorded as, and answered from,
    /// [`SimTrace`]s: every statement pragma runs once per iteration of
    /// its loop or once per call of its function.
    ///
    /// # Errors
    ///
    /// [`Untraced::PragmaSite`] or [`Untraced::SharedName`] otherwise.
    pub fn traceable(&self) -> Result<(), Untraced> {
        self.charges().map(|_| ())
    }

    /// Simulates one test input, as [`FpgaSimulator::run`] does, and
    /// returns the run's trace next to its result.
    ///
    /// # Errors
    ///
    /// The trace is an [`Untraced`] reason when the program is not
    /// [traceable](FpgaSimulator::traceable) or the run trapped.
    pub fn run_traced(&self, args: &[ArgValue]) -> (SimResult, Result<SimTrace, Untraced>) {
        let charges = match self.charges() {
            Ok(c) => c,
            Err(why) => return (self.run(args), Err(why)),
        };
        let (outcome, runner) = match self.execute(args, MachineConfig::fpga()) {
            Ok(ran) => ran,
            Err(e) => return (setup_failed(e), Err(Untraced::Trapped)),
        };
        let loop_iters = runner.loop_stats();
        let result = SimResult {
            estimate: self
                .plan
                .estimate(runner.ops(), &loop_iters, self.clock_mhz),
            outcome,
        };
        if result.outcome.trapped {
            return (result, Err(Untraced::Trapped));
        }
        let calls = runner.call_counts();
        let ops = result
            .outcome
            .ops
            .checked_sub(charges.count(&loop_iters, &calls))
            .expect("a run pays one unit for each pragma it executes");
        let trace = SimTrace {
            outcome: Outcome {
                ops,
                ..result.outcome.clone()
            },
            loop_iters,
            calls,
        };
        (result, Ok(trace))
    }

    /// The result of a run of this program that observes what `trace`
    /// observed, plus one unit of fuel per execution of each of this
    /// program's statement pragmas. Exact (equal to a fresh run, bit for
    /// bit) when `trace` came from a program that differs from this one
    /// only in statement pragmas, run on the same input: the VM charges a
    /// statement pragma one unit and does nothing else, and fuel runs out
    /// only once the count passes the allowance.
    ///
    /// # Errors
    ///
    /// [`Untraced::FuelLimit`] when the derived op count exceeds the fuel
    /// allowance (the real run traps), or the reason this program is not
    /// [traceable](FpgaSimulator::traceable).
    pub fn replay(&self, trace: &SimTrace) -> Result<SimResult, Untraced> {
        let charged = self.charges()?.count(&trace.loop_iters, &trace.calls);
        let ops = trace
            .outcome
            .ops
            .checked_add(charged)
            .filter(|&ops| ops <= MachineConfig::fpga().fuel)
            .ok_or(Untraced::FuelLimit)?;
        Ok(SimResult {
            outcome: Outcome {
                ops,
                ..trace.outcome.clone()
            },
            estimate: self.plan.estimate(ops, &trace.loop_iters, self.clock_mhz),
        })
    }

    fn charges(&self) -> Result<&PragmaCharges, Untraced> {
        self.charges
            .get_or_init(|| PragmaCharges::of(self.program))
            .as_ref()
            .map_err(|why| *why)
    }

    fn run_with_config(&self, args: &[ArgValue], config: MachineConfig) -> SimResult {
        match self.execute(args, config) {
            Ok((outcome, runner)) => SimResult {
                estimate: self
                    .plan
                    .estimate(runner.ops(), &runner.loop_stats(), self.clock_mhz),
                outcome,
            },
            Err(e) => setup_failed(e),
        }
    }

    /// Runs one test on a fresh interpreter, returning the outcome with
    /// the interpreter.
    fn execute(
        &self,
        args: &[ArgValue],
        config: MachineConfig,
    ) -> Result<(Outcome, Runner<'p>), ExecError> {
        let prepared = self
            .prepared
            .get_or_init(|| Prepared::new(self.engine, self.program));
        let mut runner = prepared.runner(config)?;
        let outcome = runner.run_kernel(&self.kernel, args);
        Ok((outcome, runner))
    }
}

/// The trapped result of a run whose interpreter could not be set up.
fn setup_failed(e: ExecError) -> SimResult {
    SimResult {
        outcome: Outcome {
            trapped: true,
            trap_reason: Some(e.to_string()),
            ..Default::default()
        },
        estimate: FpgaEstimate {
            cycles: 0.0,
            latency_ms: 0.0,
            effective_ops: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulates_kernel_behaviour() {
        let p = minic::parse(
            "void kernel(int a[4]) { for (int i = 0; i < 4; i++) { a[i] = a[i] + 10; } }",
        )
        .unwrap();
        let sim = FpgaSimulator::new(&p).unwrap();
        let r = sim.run(&[ArgValue::IntArray(vec![1, 2, 3, 4])]);
        assert!(!r.outcome.trapped);
        assert_eq!(
            r.outcome.arrays[0]
                .iter()
                .map(|s| match s {
                    minic_exec::ScalarOut::Int(v) => *v,
                    _ => 0,
                })
                .collect::<Vec<_>>(),
            vec![11, 12, 13, 14]
        );
        assert!(r.estimate.latency_ms > 0.0);
    }

    #[test]
    fn fpga_mode_wraps_undersized_arrays() {
        // Static stack of 2 silently wraps when 3 values are pushed — the
        // CPU reference would keep all three. This is the §6.2 divergence.
        let p = minic::parse(
            r#"
            void kernel(int out[4], int n) {
                int stack[2];
                int sp = 0;
                for (int i = 0; i < n; i++) { stack[sp] = i + 1; sp = sp + 1; }
                for (int i = 0; i < n; i++) { out[i] = stack[i]; }
            }
        "#,
        )
        .unwrap();
        let sim = FpgaSimulator::new(&p).unwrap();
        let r = sim.run(&[ArgValue::IntArray(vec![0, 0, 0, 0]), ArgValue::Int(3)]);
        assert!(!r.outcome.trapped);
        // stack[2] wrapped to stack[0]: out = [3, 2, 3(wrap), 0]
        let got: Vec<i128> = r.outcome.arrays[0]
            .iter()
            .map(|s| match s {
                minic_exec::ScalarOut::Int(v) => *v,
                _ => 0,
            })
            .collect();
        assert_eq!(got[0], 3, "first slot overwritten by wrap");
    }

    #[test]
    fn missing_top_is_a_setup_error() {
        let p = minic::parse("void helper(int x) { }").unwrap();
        assert!(FpgaSimulator::new(&p).is_err());
    }

    #[test]
    fn survivable_fuel_spike_is_transparent() {
        let p = minic::parse("int kernel(int x) { return x + 1; }").unwrap();
        let sim = FpgaSimulator::new(&p).unwrap();
        let args = vec![ArgValue::Int(5)];
        // A mild spike that a one-expression kernel survives.
        let spiked = sim.run_spiked(&args, 4, 0).unwrap();
        assert_eq!(spiked, sim.run(&args));
    }

    #[test]
    fn lethal_fuel_spike_is_transient() {
        let p = minic::parse(
            "int kernel(int n) { int s = 0; for (int i = 0; i < 100000; i++) { s = s + i; } return s + n; }",
        )
        .unwrap();
        let sim = FpgaSimulator::new(&p).unwrap();
        let args = vec![ArgValue::Int(1)];
        let err = sim.run_spiked(&args, 1_000_000, 0).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(err.site(), "hls_sim");
        // The unspiked rerun completes normally.
        assert!(!sim.run(&args).outcome.trapped);
    }
}
