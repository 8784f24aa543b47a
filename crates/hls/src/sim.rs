//! The FPGA behavioural simulator.
//!
//! Runs a (synthesizable) kernel on the interpreter in FPGA mode — wrapping
//! array indices, masking integers to declared bit widths, quantizing custom
//! floats — and attaches a scheduled latency estimate. Together with the CPU
//! side this is the engine of HeteroGen's differential testing.

use crate::errors::ToolchainError;
use crate::schedule::{FpgaEstimate, ScheduleModel, SchedulePlan};
use minic::Program;
use minic_exec::{ArgValue, ExecEngine, ExecError, MachineConfig, Outcome, Prepared, Trap};

/// Result of simulating one test input on the FPGA side.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Observable behaviour (return value, arrays, streams).
    pub outcome: Outcome,
    /// Scheduled latency estimate.
    pub estimate: FpgaEstimate,
}

/// FPGA simulator for one program.
///
/// Construction does all per-program work once: it fetches (or performs)
/// the bytecode lowering through the process-wide compile cache, resolves
/// the top function, and builds the [`SchedulePlan`] — the static half of
/// the latency model. Each simulated test then only pays for a fresh
/// per-run interpreter, the run itself, and one pass over the plan's
/// loops.
#[derive(Debug)]
pub struct FpgaSimulator<'p> {
    prepared: Prepared<'p>,
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
            prepared: Prepared::new(engine, program),
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

    fn run_with_config(&self, args: &[ArgValue], config: MachineConfig) -> SimResult {
        let mut runner = match self.prepared.runner(config) {
            Ok(r) => r,
            Err(e) => {
                return SimResult {
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
        };
        let outcome = runner.run_kernel(&self.kernel, args);
        let estimate = self
            .plan
            .estimate(runner.ops(), &runner.loop_stats(), self.clock_mhz);
        SimResult { outcome, estimate }
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
