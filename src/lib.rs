//! # HeteroGen (reproduction)
//!
//! A from-scratch Rust reproduction of *HeteroGen: Transpiling C to
//! Heterogeneous HLS Code with Automated Test Generation and Program
//! Repair* (Zhang, Wang, Xu, Kim — ASPLOS 2022).
//!
//! HeteroGen takes a C kernel and automatically produces an HLS-C version
//! that passes synthesizability checking, preserves test behaviour, and —
//! where the paper's subjects allow — runs faster than the CPU original.
//! This crate is a façade over the workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`minic`] | C-subset frontend: lexer, parser, AST, type checker, printer, edits |
//! | [`minic_exec`] | interpreter with coverage, profiling and a CPU cost model |
//! | [`hls_sim`] | simulated HLS toolchain: checkers, scheduler, FPGA simulator |
//! | [`testgen`] | coverage-guided, HLS-type-aware test generation (Alg. 1) |
//! | [`repair`] | localization, parameterized edits, dependence-guided search |
//! | [`heterorefactor`] | the ICSE'20 baseline (dynamic data structures only) |
//! | [`benchsuite`] | the ten evaluation subjects P1–P10 |
//! | [`heterogen_core`] | the end-to-end pipeline |
//! | [`heterogen_toolchain`] | backend-agnostic toolchain trait + store/retry/drain middleware |
//! | [`heterogen_trace`] | structured event tracing and metrics |
//! | [`heterogen_faults`] | deterministic fault injection, retry policies, resilience stats |
//! | [`heterogen_server`] | in-process job server: fair-share queue, worker pool, drain |
//!
//! # Examples
//!
//! ```
//! use heterogen::prelude::*;
//!
//! let program = minic::parse(
//!     "int kernel(int x) { long double y = x; y = y + 1; return y; }",
//! )?;
//! let mut cfg = PipelineConfig::quick();
//! cfg.fuzz.idle_stop_min = 0.5;
//! cfg.fuzz.max_execs = 200;
//! let session = HeteroGen::builder().config(cfg).build();
//! let report = session.run(JobSpec::fuzz(program, "kernel", vec![]))?;
//! assert!(report.success());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! To observe what the pipeline did, attach a sink from
//! [`heterogen_trace`]:
//!
//! ```
//! use heterogen::prelude::*;
//! use std::sync::Arc;
//!
//! let program = minic::parse("int kernel(int x) { return x + 1; }")?;
//! let mut cfg = PipelineConfig::quick();
//! cfg.fuzz.idle_stop_min = 0.2;
//! cfg.fuzz.max_execs = 100;
//! let metrics = Arc::new(MetricsSink::new());
//! let session = HeteroGen::builder().config(cfg).sink(metrics.clone()).build();
//! session.run(JobSpec::fuzz(program, "kernel", vec![]))?;
//! assert_eq!(metrics.counter("phase_enter"), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! To serve many concurrent jobs, start a [`heterogen_server::Server`]:
//!
//! ```
//! use heterogen::prelude::*;
//!
//! let mut cfg = PipelineConfig::quick();
//! cfg.fuzz.idle_stop_min = 0.2;
//! cfg.fuzz.max_execs = 60;
//! let server = Server::start(ServerConfig::builder().with_pipeline(cfg).build());
//! let program = minic::parse("int kernel(int x) { return x + 1; }")?;
//! let handle = server.submit(JobSpec::builder(program, "kernel").client("readme").build())
//!     .expect("admission");
//! assert!(handle.wait().report?.success());
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use benchsuite;
pub use heterogen_core;
pub use heterogen_faults;
pub use heterogen_server;
pub use heterogen_toolchain;
pub use heterogen_trace;
pub use heterorefactor;
pub use hls_sim;
pub use minic;
pub use minic_exec;
pub use repair;
pub use testgen;

/// The most common imports for driving the pipeline.
pub mod prelude {
    pub use heterogen_core::{
        Degradation, DegradationReason, HeteroGen, JobSpec, JobSpecBuilder, PhaseBudgets,
        PhaseBudgetsBuilder, PipelineConfig, PipelineConfigBuilder, PipelineError, PipelineReport,
        Session, SessionBuilder, TestSource,
    };
    pub use heterogen_faults::{
        FaultInjector, FaultPlan, FaultPlanBuilder, NoFaults, ResilienceStats, RetryPolicy,
    };
    pub use heterogen_server::{
        JobHandle, JobOutput, LatencyStats, RejectReason, Rejected, Server, ServerConfig,
        ServerConfigBuilder, ServerStats,
    };
    pub use heterogen_toolchain::{
        BackendInfo, DrainGate, DrainSignal, EvalResult, MockToolchain, Resilient, SimBackend,
        Toolchain,
    };
    pub use heterogen_trace::{
        Event, JsonlSink, MetricsSink, NullSink, TeeSink, TraceSink, Verdict,
    };
    pub use minic::{parse, print_program, Program};
    pub use minic_exec::{ArgValue, Outcome};
    pub use repair::{RepairOutcome, SearchConfig, SearchConfigBuilder};
    pub use testgen::{FuzzConfig, FuzzConfigBuilder, TestCase};
}
