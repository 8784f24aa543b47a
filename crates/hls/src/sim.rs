//! The FPGA behavioural simulator.
//!
//! Runs a (synthesizable) kernel on the interpreter in FPGA mode — wrapping
//! array indices, masking integers to declared bit widths, quantizing custom
//! floats — and attaches a scheduled latency estimate. Together with the CPU
//! side this is the engine of HeteroGen's differential testing.

use crate::errors::ToolchainError;
use crate::schedule::{estimate_latency, FpgaEstimate, ScheduleModel};
use heterogen_faults::{Fault, FaultInjector, FaultSite};
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
/// Construction performs the one-time bytecode lowering (shared through the
/// process-wide compile cache), so each simulated test only pays for a cheap
/// per-run interpreter.
#[derive(Debug)]
pub struct FpgaSimulator<'p> {
    program: &'p Program,
    prepared: Prepared<'p>,
    model: ScheduleModel,
    kernel: String,
}

impl<'p> FpgaSimulator<'p> {
    /// Creates a simulator for the program's top function on the bytecode
    /// VM.
    ///
    /// # Errors
    ///
    /// Fails when the program has no resolvable top function.
    pub fn new(program: &'p Program) -> Result<FpgaSimulator<'p>, ExecError> {
        FpgaSimulator::new_with_engine(program, ExecEngine::Bytecode)
    }

    /// Creates a simulator for the program's top function on `engine`;
    /// [`ExecEngine::TreeWalk`] simulates on the reference interpreter.
    ///
    /// # Errors
    ///
    /// Fails when the program has no resolvable top function.
    pub fn new_with_engine(
        program: &'p Program,
        engine: ExecEngine,
    ) -> Result<FpgaSimulator<'p>, ExecError> {
        let kernel = program
            .top_function_name()
            .ok_or_else(|| ExecError::setup("no top function in design"))?
            .to_string();
        Ok(FpgaSimulator {
            program,
            prepared: Prepared::new(engine, program),
            model: ScheduleModel::default(),
            kernel,
        })
    }

    /// Overrides the schedule model.
    pub fn with_model(mut self, model: ScheduleModel) -> Self {
        self.model = model;
        self
    }

    /// The kernel (top function) name being simulated.
    pub fn kernel(&self) -> &str {
        &self.kernel
    }

    /// Simulates one test input.
    pub fn run(&self, args: &[ArgValue]) -> SimResult {
        self.run_with_config(args, MachineConfig::fpga())
    }

    /// Simulates one test input through a fault injector, as the resilient
    /// repair loop does.
    ///
    /// `key` identifies the invocation (candidate fingerprint mixed with the
    /// test index) and `attempt` is the zero-based retry count. A fuel-spike
    /// fault reruns the test under a slashed fuel allowance: if the kernel
    /// still finishes, the result is identical to the unspiked run (fuel only
    /// bounds, never alters, deterministic execution); if the allowance is
    /// exhausted the invocation is classified transient so the caller retries
    /// it unspiked. With [`heterogen_faults::NoFaults`] this compiles down to
    /// a plain [`FpgaSimulator::run`] call.
    ///
    /// # Errors
    ///
    /// Returns a [`ToolchainError`] when the injector fails this invocation;
    /// a poison fault panics instead (caught at the caller's isolation
    /// boundary).
    pub fn run_resilient<I>(
        &self,
        args: &[ArgValue],
        injector: &I,
        key: u64,
        attempt: u32,
    ) -> Result<SimResult, ToolchainError>
    where
        I: FaultInjector + ?Sized,
    {
        if !injector.enabled() {
            return Ok(self.run(args));
        }
        match injector.fault(FaultSite::HlsSim, key, attempt) {
            Some(Fault::Poison) => heterogen_faults::poison(FaultSite::HlsSim, key),
            Some(Fault::Permanent) => Err(ToolchainError::permanent(
                "hls_sim",
                "co-simulation backend rejected the invocation",
            )),
            Some(Fault::Transient) => Err(ToolchainError::transient(
                "hls_sim",
                attempt,
                "co-simulation crashed; the invocation may be retried",
            )),
            Some(Fault::FuelSpike { factor }) => self.run_spiked(args, factor, attempt),
            None => Ok(self.run(args)),
        }
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
        let estimate = estimate_latency(
            &self.model,
            self.program,
            runner.ops(),
            &runner.loop_stats(),
            self.program.config.clock_mhz,
        );
        SimResult { outcome, estimate }
    }

    /// Simulates a batch of inputs and returns the mean latency (ms) and
    /// the per-test results.
    pub fn run_all(&self, tests: &[Vec<ArgValue>]) -> (f64, Vec<SimResult>) {
        let results: Vec<SimResult> = tests.iter().map(|t| self.run(t)).collect();
        let mean = if results.is_empty() {
            0.0
        } else {
            results.iter().map(|r| r.estimate.latency_ms).sum::<f64>() / results.len() as f64
        };
        (mean, results)
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
    fn run_all_averages_latency() {
        let p = minic::parse("int kernel(int x) { return x * 2; }").unwrap();
        let sim = FpgaSimulator::new(&p).unwrap();
        let tests = vec![vec![ArgValue::Int(1)], vec![ArgValue::Int(2)]];
        let (mean, results) = sim.run_all(&tests);
        assert_eq!(results.len(), 2);
        assert!(mean > 0.0);
    }

    #[test]
    fn missing_top_is_a_setup_error() {
        let p = minic::parse("void helper(int x) { }").unwrap();
        assert!(FpgaSimulator::new(&p).is_err());
    }

    #[test]
    fn run_resilient_with_no_faults_matches_run() {
        let p = minic::parse("int kernel(int x) { return x * 2; }").unwrap();
        let sim = FpgaSimulator::new(&p).unwrap();
        let args = vec![ArgValue::Int(21)];
        let plain = sim.run(&args);
        let resilient = sim
            .run_resilient(&args, &heterogen_faults::NoFaults, 7, 0)
            .unwrap();
        assert_eq!(plain, resilient);
    }

    #[test]
    fn survivable_fuel_spike_is_transparent() {
        let p = minic::parse("int kernel(int x) { return x + 1; }").unwrap();
        let sim = FpgaSimulator::new(&p).unwrap();
        let args = vec![ArgValue::Int(5)];
        // Rate 1.0 fires a fault on every draw; make it a mild spike that a
        // one-expression kernel survives.
        let plan = heterogen_faults::FaultPlan::builder(3)
            .with_fuel_spike_rate(1.0)
            .with_spike_factor(4)
            .build();
        let spiked = sim.run_resilient(&args, &plan, 11, 0).unwrap();
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
        let plan = heterogen_faults::FaultPlan::builder(3)
            .with_fuel_spike_rate(1.0)
            .with_spike_factor(1_000_000)
            .build();
        let err = sim.run_resilient(&args, &plan, 11, 0).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(err.site(), "hls_sim");
        // The unspiked rerun (next attempt: the plan only spikes attempt 0)
        // completes normally.
        let retried = sim.run_resilient(&args, &plan, 11, 1).unwrap();
        assert!(!retried.outcome.trapped);
    }
}
