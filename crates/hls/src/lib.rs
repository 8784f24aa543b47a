//! Simulated HLS toolchain: synthesizability checking, coding-style
//! checking, scheduling/latency estimation, FPGA behavioural simulation, and
//! compile-time cost accounting.
//!
//! The crate replaces the proprietary Vivado HLS flow the paper drives. Its
//! observable interface matches what HeteroGen's repair loop needs:
//!
//! 1. [`check::check_program`] — the *expensive* full check, emitting
//!    Vivado-style diagnostics for the six error categories;
//! 2. [`style::check_style`] — the *cheap* structural pre-check (the
//!    paper's lightweight LLVM front-end);
//! 3. [`sim::FpgaSimulator`] — behaviour + latency of a synthesizable
//!    design under test inputs, with hardware finitization semantics;
//! 4. [`cost::CompileCostModel`] / [`cost::SimClock`] — simulated minutes
//!    billed per invocation, reproducing the paper's time dynamics without
//!    hour-long real waits.
//!
//! # Examples
//!
//! ```
//! let p = minic::parse("int kernel(int n) { return kernel(n); }").unwrap();
//! let diags = hls_sim::check_program(&p);
//! assert!(diags.iter().any(|d| d.message.contains("recursive")));
//! ```

pub mod check;
pub mod cost;
pub mod errors;
pub mod schedule;
pub mod sim;
pub mod style;

pub use check::check_program;
pub use cost::{CompileCostModel, SimClock};
pub use errors::{ErrorCategory, HlsDiagnostic, ToolchainError};
pub use schedule::{resource_estimate, FpgaEstimate, ScheduleModel, SchedulePlan};
pub use sim::{FpgaSimulator, SimResult, SimTrace, Untraced};
pub use style::{check_style, StyleViolation};
