//! The printer's bytes, pinned: every subject's original source, its manual
//! HLS version and the program its standard pipeline run repairs to must
//! print exactly as in `tests/golden/printed_programs.txt`.
//!
//! The golden file holds printed source, not LOC counts, so a printer change
//! that keeps every line count but moves a byte still fails here. Each run
//! writes what it printed to the test's scratch directory; an intended change
//! re-blesses the golden file by running this test and copying that file:
//!
//! ```text
//! cargo test -q -p bench --test printed_programs
//! cp target/tmp/printed_programs.txt crates/bench/tests/golden/printed_programs.txt
//! ```

use std::fmt::Write;
use std::path::Path;

/// Every pinned program, printed, under a `=== <subject> <version>` header.
fn printed_programs() -> String {
    let cfg = bench::standard_config();
    let subjects = benchsuite::subjects();
    let repaired: Vec<minic::Program> = std::thread::scope(|scope| {
        let runs: Vec<_> = subjects
            .iter()
            .map(|s| scope.spawn(|| bench::run_subject(s, &cfg).program))
            .collect();
        runs.into_iter()
            .map(|h| h.join().expect("pipeline run"))
            .collect()
    });
    let mut out = String::new();
    for (s, repaired) in subjects.iter().zip(&repaired) {
        let mut section = |version: &str, p: &minic::Program| {
            let _ = writeln!(out, "=== {} {version}", s.id);
            out.push_str(&minic::print_program(p));
        };
        section("original", &s.parse());
        if let Some(manual) = s.parse_manual() {
            section("manual", &manual);
        }
        section("repaired", repaired);
    }
    out
}

#[test]
fn printed_programs_match_the_golden_file() {
    let got = printed_programs();
    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR")).join("printed_programs.txt");
    std::fs::write(&scratch, &got).unwrap_or_else(|e| panic!("{}: {e}", scratch.display()));
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/printed_programs.txt");
    let want =
        std::fs::read_to_string(&golden).unwrap_or_else(|e| panic!("{}: {e}", golden.display()));
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map_or(got.lines().count().min(want.lines().count()), |i| i);
        panic!(
            "printed programs differ from tests/golden/printed_programs.txt at line {}; \
             this run's output is in {}. If the change is intended, re-bless the golden \
             file (see this file's header)",
            line + 1,
            scratch.display()
        );
    }
}
