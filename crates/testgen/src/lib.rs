//! Automated test input generation for HLS differential testing (paper §4).
//!
//! HeteroGen needs tests to judge behaviour preservation and performance of
//! repair candidates, but real programs rarely ship with tests. This crate
//! reproduces the paper's Algorithm 1: seed inputs are captured at the
//! kernel entry of a host execution (ensuring validity), mutated with
//! HLS-type-aware operators, and kept when they increase branch coverage.
//!
//! # Examples
//!
//! ```
//! use testgen::{fuzz, FuzzConfig};
//!
//! let p = minic::parse("int kernel(int x) { if (x > 0) { return 1; } return 0; }").unwrap();
//! let cfg = FuzzConfig::builder()
//!     .with_idle_stop_min(0.5)
//!     .with_max_execs(300)
//!     .build();
//! let report = fuzz(&p, "kernel", vec![], &cfg).unwrap();
//! assert!(report.coverage > 0.9);
//! ```

pub mod generator;
pub mod mutate;
pub mod spec;

pub use generator::{
    fuzz, fuzz_traced, kernel_seeds_from_host, FuzzConfig, FuzzConfigBuilder, FuzzReport,
    FuzzRound, TestCase, EXEC_COST_MIN, MAX_FAILING, MUTANTS_PER_SEED,
};
pub use mutate::{mutate_case, random_value, MAX_DYNAMIC_LEN};
pub use spec::{kernel_specs, ArgSpec};
