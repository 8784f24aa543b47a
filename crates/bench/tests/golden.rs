//! The paper's results, pinned: `reproduce all --json` must reproduce
//! `tests/golden/reproduce_all.json` byte for byte at one and two worker
//! threads, the mined-pattern tier must keep its meaning on the held-out
//! split, and EXPERIMENTS.md must print the golden numbers.
//!
//! An intended change to the results re-blesses the golden file with the
//! same command the test runs, pointed at the golden path:
//!
//! ```text
//! cargo run --release -p bench --bin reproduce -- all --threads 1 \
//!     --json crates/bench/tests/golden/reproduce_all.json
//! ```

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden_text() -> String {
    let path = manifest_dir().join("tests/golden/reproduce_all.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn golden() -> Value {
    serde_json::from_str(&golden_text()).expect("golden file is JSON")
}

fn rows<'a>(v: &'a Value, section: &str) -> &'a [Value] {
    match v.get(section) {
        Some(Value::Array(rows)) => rows,
        other => panic!("section `{section}` is not an array: {other:?}"),
    }
}

fn id(row: &Value) -> &str {
    row.get("id").and_then(Value::as_str).expect("row id")
}

/// A number, or `None` for `null`.
fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        Value::Null => None,
        other => panic!("not a number: {other:?}"),
    }
}

fn field(row: &Value, key: &str) -> Option<f64> {
    num(row.get(key).unwrap_or_else(|| panic!("missing `{key}`")))
}

fn count(v: &Value, key: &str) -> f64 {
    field(v, key).unwrap_or_else(|| panic!("`{key}` is null"))
}

#[test]
fn reproduce_all_matches_the_golden_file_at_one_and_two_threads() {
    let want = golden_text();
    // Both runs go at once: the one-thread run is serial, so the two-thread
    // run fits in the time it takes.
    let runs: Vec<(usize, PathBuf, std::process::Child)> = [1usize, 2]
        .into_iter()
        .map(|threads| {
            let out = std::env::temp_dir().join(format!(
                "reproduce-golden-{}-t{threads}.json",
                std::process::id()
            ));
            let child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
                .args(["all", "--threads", &threads.to_string(), "--json"])
                .arg(&out)
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn reproduce");
            (threads, out, child)
        })
        .collect();
    for (threads, out, mut child) in runs {
        let status = child.wait().expect("wait for reproduce");
        assert!(
            status.success(),
            "reproduce all --threads {threads}: {status}"
        );
        let got = std::fs::read_to_string(&out).expect("reproduce wrote its JSON");
        let _ = std::fs::remove_file(&out);
        assert!(
            got == want,
            "reproduce all --threads {threads} --json differs from tests/golden/reproduce_all.json; \
             if the change is intended, re-bless it (see this file's header)"
        );
    }
}

/// Patterns mined from the suite's first half must not make the held-out
/// second half worse: no lost repair, no more attempts until the first fix,
/// no more full compiles.
#[test]
fn mined_tier_helps_the_held_out_split() {
    let g = golden();
    let m = g.get("mined").expect("mined section");
    assert!(count(m, "patterns") >= 1.0, "mining yielded no pattern");
    assert!(
        count(m, "mined_attempts_total") <= count(m, "baseline_attempts_total"),
        "the mined tier needs more attempts until the first fix"
    );
    assert!(
        count(m, "mined_compiles_total") <= count(m, "baseline_compiles_total"),
        "the mined tier needs more full compiles"
    );
    for r in rows(m, "rows") {
        let fixed = |key: &str| matches!(r.get(key), Some(Value::Bool(true)));
        assert!(
            !fixed("baseline_success") || fixed("mined_success"),
            "{}: the mined tier lost a repair the baseline found",
            id(r)
        );
    }
}

/// The markdown table rows (`| P…`) of the EXPERIMENTS.md section headed
/// `heading`, split into trimmed cells.
fn doc_rows(doc: &str, heading: &str) -> Vec<Vec<String>> {
    let start = doc
        .find(heading)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{heading}` section"));
    let section = &doc[start + heading.len()..];
    let section = &section[..section.find("\n## ").unwrap_or(section.len())];
    section
        .lines()
        .filter(|l| l.starts_with("| P"))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect()
}

/// Checks cell `col` of each subject's doc row against `printed` of its golden row.
fn assert_doc_column(
    doc: &[Vec<String>],
    golden: &[Value],
    what: &str,
    col: usize,
    printed: impl Fn(&Value) -> String,
) {
    assert_eq!(doc.len(), golden.len(), "{what}: row count");
    for (d, g) in doc.iter().zip(golden) {
        assert_eq!(d[0], id(g), "{what}: row order");
        assert_eq!(d[col], printed(g), "{what}, {}", id(g));
    }
}

#[test]
fn experiments_doc_prints_the_golden_numbers() {
    let path = manifest_dir().join("../../EXPERIMENTS.md");
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let g = golden();

    let table3 = doc_rows(&doc, "## Table 3");
    assert_doc_column(&table3, rows(&g, "table3"), "Table 3 speedup", 4, |r| {
        format!("{:.2}×", count(r, "speedup"))
    });

    let minutes = |key: &'static str| {
        move |r: &Value| match field(r, key) {
            Some(m) => format!("{m:.0}"),
            None => "timeout".to_string(),
        }
    };
    let fig9 = doc_rows(&doc, "## Figure 9");
    assert_doc_column(
        &fig9,
        rows(&g, "fig9"),
        "Figure 9 HeteroGen minutes",
        1,
        minutes("hg_min"),
    );
    assert_doc_column(
        &fig9,
        rows(&g, "fig9"),
        "Figure 9 WithoutDependence minutes",
        2,
        minutes("wd_min"),
    );
}
