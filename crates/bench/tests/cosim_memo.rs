//! The co-simulation trace memo is exact.
//!
//! A `SimBackend` answers a candidate that differs from an already
//! simulated program only in statement pragmas from the stored trace plus
//! the candidate's own schedule. Every such answer must equal a fresh run
//! bit for bit: the outcome (its op count included) and the bits of the
//! latency estimate. This pins that on every subject's repaired program
//! under every chain of the performance edits the search would stack onto
//! it, on the subject's seeds and generated tests.

use bench::{run_subject, standard_config};
use heterogen_toolchain::{SimBackend, SimResult, Toolchain};
use hls_sim::FpgaSimulator;
use minic::Program;

fn assert_same_run(got: &SimResult, fresh: &SimResult, what: &str) {
    assert_eq!(
        format!("{:?}", got.outcome),
        format!("{:?}", fresh.outcome),
        "{what}"
    );
    assert_eq!(
        got.estimate.cycles.to_bits(),
        fresh.estimate.cycles.to_bits(),
        "{what}"
    );
    assert_eq!(
        got.estimate.latency_ms.to_bits(),
        fresh.estimate.latency_ms.to_bits(),
        "{what}"
    );
}

#[test]
fn memo_answers_equal_fresh_runs_under_every_performance_chain() {
    let cfg = standard_config();
    let mut hits = 0;
    for s in benchsuite::subjects() {
        let report = run_subject(&s, &cfg);
        let mut tests = bench::seeds(&s);
        tests.extend(report.tests.iter().take(cfg.search.max_diff_tests).cloned());
        let repaired = report.program;
        // The repaired program and every chain the search could build from
        // its performance edits: each suffix of the edit list, applied in
        // turn, every prefix of the chain simulated.
        let edits = repair::performance_edits(&repaired);
        let mut programs: Vec<(String, Program)> = vec![("repaired".to_string(), repaired.clone())];
        for start in 0..edits.len() {
            let mut base = repaired.clone();
            for (i, edit) in edits.iter().enumerate().skip(start) {
                if let Some(p) = edit.apply(&base) {
                    programs.push((format!("chain {start}..={i}"), p.clone()));
                    base = p;
                }
            }
        }
        let backend = SimBackend::default_profile();
        for (what, p) in &programs {
            if !backend.can_simulate(p) {
                continue;
            }
            let cosim = backend.co_simulator(p).unwrap();
            let fresh = FpgaSimulator::new(p).unwrap();
            for (t, args) in tests.iter().enumerate() {
                let got = cosim.run(args, 0).unwrap().result;
                assert_same_run(
                    &got,
                    &fresh.run(args),
                    &format!("{} {what}, test {t}", s.id),
                );
            }
        }
        let stats = backend.memo_stats();
        hits += stats.hits;
        assert!(stats.evictions == 0, "{}: {stats:?}", s.id);
    }
    assert!(hits >= 1000, "only {hits} memo answers were checked");
}
