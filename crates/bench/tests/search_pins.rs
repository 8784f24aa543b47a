//! The fault-free repair search of every subject, pinned.
//!
//! `tests/determinism.rs` checks that the search does not depend on the
//! thread count; this file pins what it produces. For each of the ten
//! subjects, the whole JSONL trace of `repair_persistent` (no faults, no
//! store, the default backend) is pinned to an FNV-1a digest and its
//! `SearchStats` field by field, at one thread and at two (where the next
//! pop is tested ahead). A refactoring of the search must leave every
//! candidate, event and counter where it was; if an intended change moves
//! them, the assertion message prints the new values.

use bench::standard_config;
use heterogen_faults::NoFaults;
use heterogen_toolchain::SimBackend;
use heterogen_trace::JsonlSink;
use repair::SearchStats;

/// `(subject, trace digest, stats)`; the stats' columns are attempts,
/// inapplicable, style checks, style rejects, full compiles, simulations,
/// elapsed minutes, and the first success's minutes and attempts.
type Pin = (&'static str, u64, SearchStats);

#[allow(clippy::too_many_arguments)]
const fn stats(
    attempts: u64,
    inapplicable: u64,
    style_checks: u64,
    style_rejects: u64,
    full_compiles: u64,
    simulations: u64,
    elapsed_min: f64,
    first_success: Option<(f64, u64)>,
) -> SearchStats {
    let (first_success_min, first_success_attempts) = match first_success {
        Some((min, attempts)) => (Some(min), Some(attempts)),
        None => (None, None),
    };
    SearchStats {
        attempts,
        inapplicable,
        style_checks,
        style_rejects,
        full_compiles,
        simulations,
        elapsed_min,
        first_success_min,
        first_success_attempts,
    }
}

#[rustfmt::skip]
const PINS: [Pin; 10] = [
    ("P1", 0x96e3_ed93_923c_212c, stats(378, 186, 63, 0, 64, 1, 146.51219999999992, Some((50.33219999999999, 36)))),
    ("P2", 0xaae7_869c_acb0_bb97, stats(32, 12, 14, 4, 11, 4, 25.228200000000008, Some((15.842200000000004, 9)))),
    ("P3", 0x48ee_21b7_d8c8_fdc9, stats(115, 0, 100, 56, 45, 22, 183.39680000000024, Some((6.8988, 1)))),
    ("P4", 0x9906_2d91_340c_8bfe, stats(114, 25, 88, 33, 56, 12, 181.54420000000022, Some((17.892200000000003, 5)))),
    ("P5", 0x2d98_444f_2a7b_908e, stats(122, 1, 77, 34, 44, 31, 182.7788000000003, Some((31.668800000000008, 9)))),
    ("P6", 0x6c95_ed1d_bb4b_9c10, stats(234, 44, 146, 78, 69, 51, 180.0022000000003, Some((7.122199999999999, 2)))),
    ("P7", 0x2cb6_be60_c2b0_afed, stats(121, 9, 79, 46, 34, 33, 84.69619999999983, Some((9.482199999999999, 4)))),
    ("P8", 0x59d4_98d1_f9ea_b836, stats(172, 0, 126, 79, 48, 33, 182.6986000000003, Some((24.006600000000006, 6)))),
    ("P9", 0x93eb_09f8_7228_d018, stats(32, 0, 23, 6, 18, 6, 56.44219999999997, Some((24.792199999999998, 7)))),
    ("P10", 0xd278_5fe3_5830_72a4, stats(141, 23, 110, 57, 54, 20, 183.46060000000037, Some((41.57659999999999, 15)))),
];

fn assert_pinned_at(threads: usize) {
    let cfg = standard_config();
    let search = cfg
        .search
        .clone()
        .to_builder()
        .with_threads(threads)
        .build();
    let mut moved = Vec::new();
    for (id, trace_digest, pinned) in PINS {
        let s = benchsuite::subject(id).unwrap();
        let (p, fuzz, initial) = bench::fuzz_subject(&s, &cfg.fuzz);
        let sink = JsonlSink::new();
        let r = repair::repair_persistent(
            &p,
            initial,
            s.kernel,
            &fuzz.corpus,
            &fuzz.profile,
            &search,
            &sink,
            &NoFaults,
            &SimBackend::default_profile(),
            None,
        )
        .unwrap_or_else(|e| panic!("{id}: {e}"));
        let d = minic::fnv1a(sink.contents().as_bytes());
        if d != trace_digest || r.stats != pinned {
            moved.push(format!("{id}: digest {d:#018x}, {:?}", r.stats));
        }
    }
    assert!(
        moved.is_empty(),
        "at {threads} thread(s), moved:\n{}",
        moved.join("\n")
    );
}

#[test]
fn fault_free_searches_are_pinned_at_one_thread() {
    assert_pinned_at(1);
}

#[test]
fn fault_free_searches_are_pinned_at_two_threads() {
    assert_pinned_at(2);
}
