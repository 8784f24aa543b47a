//! Bytecode VM for the minic dialect, with branch coverage, value-range
//! profiling, loop statistics and a CPU latency model. The tree-walking
//! [`interp`] is only the reference the parity tests check the VM against.
//!
//! This crate is the "CPU side" of HeteroGen's differential testing, and —
//! configured with wrapping array semantics via [`MachineConfig::fpga`] —
//! also the behavioural substrate of the FPGA simulator in `hls-sim`.
//!
//! # Examples
//!
//! ```
//! use minic_exec::{compiled_for, MachineConfig, Value, Vm};
//!
//! let program = minic::parse("int sq(int x) { return x * x; }")?;
//! let mut vm = Vm::new(compiled_for(&program), MachineConfig::cpu())?;
//! let v = vm.run_function("sq", vec![Value::int(9)])?;
//! assert_eq!(v.as_int(), 81);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bytecode;
pub mod cost;
pub mod coverage;
pub mod engine;
pub mod error;
pub mod interp;
pub mod memory;
pub mod profile;
pub mod semantics;
pub mod value;
pub mod vm;

pub use bytecode::{compile, CompiledProgram};
pub use cost::CpuCostModel;
pub use coverage::CoverageMap;
pub use engine::{compiled_for, ExecEngine, Prepared, Runner};
pub use error::{ExecError, Trap};
pub use interp::Machine;
pub use memory::Memory;
pub use profile::{Profile, Range};
pub use semantics::{MachineConfig, OobPolicy};
pub use value::{ArgValue, Outcome, ScalarOut, Value};
pub use vm::Vm;
