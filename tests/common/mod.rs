//! Helpers shared by the root integration tests.

use minic_exec::{ArgValue, ExecEngine, MachineConfig, Prepared};

/// Runs `kernel(args)` under both execution engines and asserts every
/// observable the pipeline consumes matches: the outcome (return value,
/// trap flag, `ExecError` variant *and* message), fuel (`ops`), branch
/// coverage, the value-range/depth/heap profile, and loop/call statistics
/// — under both the CPU and FPGA configurations.
pub fn assert_engines_agree(p: &minic::Program, kernel: &str, args: &[ArgValue]) {
    let tree = Prepared::new(ExecEngine::TreeWalk, p);
    let byte = Prepared::new(ExecEngine::Bytecode, p);
    for config in [MachineConfig::cpu(), MachineConfig::fpga()] {
        match (tree.runner(config), byte.runner(config)) {
            (Err(e1), Err(e2)) => assert_eq!(e1, e2, "constructor error mismatch"),
            (Ok(mut t), Ok(mut b)) => {
                let o1 = t.run_kernel(kernel, args);
                let o2 = b.run_kernel(kernel, args);
                assert_eq!(o1, o2, "outcome mismatch");
                assert_eq!(t.ops(), b.ops(), "fuel mismatch");
                assert_eq!(t.coverage(), b.coverage(), "coverage mismatch");
                assert_eq!(t.profile(), b.profile(), "profile mismatch");
                assert_eq!(t.loop_stats(), b.loop_stats(), "loop stats mismatch");
                assert_eq!(t.call_counts(), b.call_counts(), "call counts mismatch");
            }
            (t, b) => panic!(
                "constructor outcome diverged: tree={:?} vm={:?}",
                t.err(),
                b.err()
            ),
        }
    }
}
