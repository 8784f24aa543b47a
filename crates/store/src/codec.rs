//! Typed record payloads ⇄ JSON text.
//!
//! Every float crosses the disk as its IEEE-754 bit pattern in an integer
//! field: the workspace's JSON renderer collapses non-finite floats to
//! `null` and shortest-prints the rest, and a persistent cache must
//! round-trip *exactly* — a verdict that changes by one ULP across a
//! save/load cycle would break cold-vs-warm byte identity.
//!
//! Decoders return `Option`: `None` means the payload (which already
//! passed the log layer's checksum) does not match the typed schema — the
//! store treats that record and everything after it as corrupt, exactly
//! like a failed checksum.

use crate::{CorpusKey, ScriptKey};
use heterogen_toolchain::{DiffKey, DiffReport, EvalResult, VerdictKey};
use hls_sim::{ErrorCategory, HlsDiagnostic};
use minic::ast::NodeId;
use minic_exec::{ArgValue, Profile, Range};
use repair::{EditScript, FixPattern};
use serde::Serialize;
use serde::Value;
use std::sync::Arc;
use testgen::{FuzzReport, FuzzRound};

/// Per-record schema version, checked on decode on top of the file-level
/// version in the log header.
pub const RECORD_VERSION: i128 = 1;

/// One decoded log entry.
#[derive(Debug, Clone)]
pub enum Entry {
    /// A persisted evaluation verdict.
    Verdict(VerdictKey, EvalResult),
    /// A persisted fuzz campaign.
    Corpus(CorpusKey, FuzzReport),
    /// A persisted fault-free differential-test verdict.
    Diff(DiffKey, DiffReport),
    /// A persisted winning repair script.
    Script(ScriptKey, EditScript),
    /// A persisted mined fix pattern.
    Pattern(FixPattern),
}

struct Raw(Value);
impl serde::Serialize for Raw {
    fn to_json_value(&self) -> Value {
        self.0.clone()
    }
}

fn render(v: Value) -> String {
    serde_json::to_string(&Raw(v)).expect("in-memory JSON rendering is infallible")
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn u64v(x: u64) -> Value {
    Value::Int(x as i128)
}

fn bits(x: f64) -> Value {
    Value::Int(x.to_bits() as i128)
}

fn opt_str(s: &Option<String>) -> Value {
    match s {
        Some(s) => Value::Str(s.clone()),
        None => Value::Null,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

fn as_usize(v: &Value) -> Option<usize> {
    as_u64(v).and_then(|n| usize::try_from(n).ok())
}

fn as_f64_bits(v: &Value) -> Option<f64> {
    as_u64(v).map(f64::from_bits)
}

fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn as_array(v: &Value) -> Option<&[Value]> {
    match v {
        Value::Array(xs) => Some(xs),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    v.as_str()
}

fn as_opt_str(v: &Value) -> Option<Option<String>> {
    match v {
        Value::Null => Some(None),
        Value::Str(s) => Some(Some(s.clone())),
        _ => None,
    }
}

// ---- ArgValue ----

fn encode_arg(a: &ArgValue) -> Value {
    match a {
        ArgValue::Int(v) => obj(vec![("i", Value::Int(*v))]),
        ArgValue::Float(f) => obj(vec![("f", bits(*f))]),
        ArgValue::IntArray(xs) => obj(vec![(
            "ia",
            Value::Array(xs.iter().map(|&v| Value::Int(v)).collect()),
        )]),
        ArgValue::FloatArray(xs) => obj(vec![(
            "fa",
            Value::Array(xs.iter().map(|&f| bits(f)).collect()),
        )]),
        ArgValue::IntStream(xs) => obj(vec![(
            "is",
            Value::Array(xs.iter().map(|&v| Value::Int(v)).collect()),
        )]),
    }
}

fn decode_arg(v: &Value) -> Option<ArgValue> {
    let Value::Object(fields) = v else {
        return None;
    };
    let [(tag, body)] = fields.as_slice() else {
        return None;
    };
    let ints = |b: &Value| -> Option<Vec<i128>> {
        as_array(b)?
            .iter()
            .map(|x| match x {
                Value::Int(n) => Some(*n),
                _ => None,
            })
            .collect()
    };
    match tag.as_str() {
        "i" => match body {
            Value::Int(n) => Some(ArgValue::Int(*n)),
            _ => None,
        },
        "f" => as_f64_bits(body).map(ArgValue::Float),
        "ia" => ints(body).map(ArgValue::IntArray),
        "is" => ints(body).map(ArgValue::IntStream),
        "fa" => as_array(body)?
            .iter()
            .map(as_f64_bits)
            .collect::<Option<Vec<f64>>>()
            .map(ArgValue::FloatArray),
        _ => None,
    }
}

fn encode_case(case: &[ArgValue]) -> Value {
    Value::Array(case.iter().map(encode_arg).collect())
}

fn decode_case(v: &Value) -> Option<Vec<ArgValue>> {
    as_array(v)?.iter().map(decode_arg).collect()
}

fn encode_cases(cases: &[Vec<ArgValue>]) -> Value {
    Value::Array(cases.iter().map(|c| encode_case(c)).collect())
}

fn decode_cases(v: &Value) -> Option<Vec<Vec<ArgValue>>> {
    as_array(v)?.iter().map(decode_case).collect()
}

// ---- Profile ----

fn encode_profile(p: &Profile) -> Value {
    obj(vec![
        (
            "ranges",
            Value::Array(
                p.int_ranges
                    .iter()
                    .map(|((f, v), r)| {
                        Value::Array(vec![
                            Value::Str(f.clone()),
                            Value::Str(v.clone()),
                            Value::Int(r.min),
                            Value::Int(r.max),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "depth",
            Value::Array(
                p.max_depth
                    .iter()
                    .map(|(f, d)| Value::Array(vec![Value::Str(f.clone()), u64v(*d)]))
                    .collect(),
            ),
        ),
        ("heap", Value::Int(p.peak_heap_cells as i128)),
        (
            "index",
            Value::Array(
                p.max_index
                    .iter()
                    .map(|((f, v), i)| {
                        Value::Array(vec![
                            Value::Str(f.clone()),
                            Value::Str(v.clone()),
                            Value::Int(*i),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn decode_profile(v: &Value) -> Option<Profile> {
    let mut p = Profile::new();
    for r in as_array(v.get("ranges")?)? {
        let [f, var, min, max] = as_array(r)? else {
            return None;
        };
        let (Value::Int(min), Value::Int(max)) = (min, max) else {
            return None;
        };
        p.int_ranges.insert(
            (as_str(f)?.to_string(), as_str(var)?.to_string()),
            Range {
                min: *min,
                max: *max,
            },
        );
    }
    for d in as_array(v.get("depth")?)? {
        let [f, depth] = as_array(d)? else {
            return None;
        };
        p.max_depth.insert(as_str(f)?.to_string(), as_u64(depth)?);
    }
    p.peak_heap_cells = as_usize(v.get("heap")?)?;
    for i in as_array(v.get("index")?)? {
        let [f, var, idx] = as_array(i)? else {
            return None;
        };
        let Value::Int(idx) = idx else { return None };
        p.max_index
            .insert((as_str(f)?.to_string(), as_str(var)?.to_string()), *idx);
    }
    Some(p)
}

// ---- Diagnostics / EvalResult ----

fn category_name(c: ErrorCategory) -> &'static str {
    c.name()
}

fn category_from_name(s: &str) -> Option<ErrorCategory> {
    [
        ErrorCategory::DynamicDataStructures,
        ErrorCategory::UnsupportedDataTypes,
        ErrorCategory::DataflowOptimization,
        ErrorCategory::LoopParallelization,
        ErrorCategory::StructAndUnion,
        ErrorCategory::TopFunction,
    ]
    .into_iter()
    .find(|c| c.name() == s)
}

fn encode_diag(d: &HlsDiagnostic) -> Value {
    obj(vec![
        ("code", Value::Str(d.code.clone())),
        ("message", Value::Str(d.message.clone())),
        (
            "category",
            Value::Str(category_name(d.category).to_string()),
        ),
        (
            "location",
            match d.location {
                Some(NodeId(id)) => Value::Int(id as i128),
                None => Value::Null,
            },
        ),
        ("symbol", opt_str(&d.symbol)),
        ("function", opt_str(&d.function)),
    ])
}

fn decode_diag(v: &Value) -> Option<HlsDiagnostic> {
    let mut d = HlsDiagnostic::new(
        as_str(v.get("code")?)?,
        as_str(v.get("message")?)?,
        category_from_name(as_str(v.get("category")?)?)?,
    );
    d.location = match v.get("location")? {
        Value::Null => None,
        Value::Int(n) => Some(NodeId(u32::try_from(*n).ok()?)),
        _ => return None,
    };
    d.symbol = as_opt_str(v.get("symbol")?)?;
    d.function = as_opt_str(v.get("function")?)?;
    Some(d)
}

fn encode_eval(r: &EvalResult) -> Value {
    obj(vec![
        ("style_clean", Value::Bool(r.style_clean)),
        ("loc", Value::Int(r.loc as i128)),
        ("transients", Value::Int(r.transients as i128)),
        (
            "diags",
            match &r.diags {
                None => Value::Null,
                Some(ds) => Value::Array(ds.iter().map(encode_diag).collect()),
            },
        ),
    ])
}

fn decode_eval(v: &Value) -> Option<EvalResult> {
    Some(EvalResult {
        style_clean: as_bool(v.get("style_clean")?)?,
        loc: as_usize(v.get("loc")?)?,
        transients: u32::try_from(as_u64(v.get("transients")?)?).ok()?,
        diags: match v.get("diags")? {
            Value::Null => None,
            arr => Some(Arc::new(
                as_array(arr)?
                    .iter()
                    .map(decode_diag)
                    .collect::<Option<Vec<_>>>()?,
            )),
        },
    })
}

/// Stable fingerprint of a set of test cases (seed inputs), computed over
/// their canonical JSON rendering so it is bit-exact for floats.
pub fn cases_fingerprint(cases: &[Vec<ArgValue>]) -> u64 {
    minic::fnv1a(render(encode_cases(cases)).as_bytes())
}

// ---- Records ----

/// Renders one verdict entry as a record payload.
pub fn encode_verdict(key: &VerdictKey, val: &EvalResult) -> String {
    render(obj(vec![
        ("kind", Value::Str("verdict".to_string())),
        ("v", Value::Int(RECORD_VERSION)),
        ("program_fp", u64v(key.program_fp)),
        ("node_fp", u64v(key.node_fp)),
        ("backend", Value::Str(key.backend.clone())),
        ("style_gate", Value::Bool(key.style_gate)),
        ("val", encode_eval(val)),
    ]))
}

/// Renders one fuzz-campaign entry as a record payload.
pub fn encode_corpus(key: &CorpusKey, rec: &FuzzReport) -> String {
    render(obj(vec![
        ("kind", Value::Str("corpus".to_string())),
        ("v", Value::Int(RECORD_VERSION)),
        ("program_fp", u64v(key.program_fp)),
        ("kernel", Value::Str(key.kernel.clone())),
        ("seeds_fp", u64v(key.seeds_fp)),
        ("config_fp", u64v(key.config_fp)),
        (
            "val",
            obj(vec![
                ("corpus", encode_cases(&rec.corpus)),
                ("executed", Value::Int(rec.executed as i128)),
                ("sim_minutes", bits(rec.sim_minutes)),
                ("coverage", bits(rec.coverage)),
                ("profile", encode_profile(&rec.profile)),
                ("peak_heap_cells", Value::Int(rec.peak_heap_cells as i128)),
                ("failing", encode_cases(&rec.failing)),
                (
                    "rounds",
                    Value::Array(
                        rec.rounds
                            .iter()
                            .map(|r| {
                                Value::Array(vec![
                                    u64v(r.round),
                                    u64v(r.executed),
                                    u64v(r.corpus),
                                    Value::Bool(r.new_coverage),
                                    bits(r.at_min),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
    ]))
}

/// Renders one differential-verdict entry as a record payload.
pub fn encode_diff(key: &DiffKey, val: &DiffReport) -> String {
    render(obj(vec![
        ("kind", Value::Str("diff".to_string())),
        ("v", Value::Int(RECORD_VERSION)),
        ("program_fp", u64v(key.program_fp)),
        ("reference_fp", u64v(key.reference_fp)),
        ("kernel", Value::Str(key.kernel.clone())),
        ("tests_fp", u64v(key.tests_fp)),
        ("backend", Value::Str(key.backend.clone())),
        (
            "val",
            obj(vec![
                ("pass_ratio", bits(val.pass_ratio)),
                ("fpga_latency_ms", bits(val.fpga_latency_ms)),
            ]),
        ),
    ]))
}

/// Renders one winning-repair-script entry as a record payload.
///
/// The `val` field is the [`EditScript`] wire form owned by the repair
/// crate, so the store and the trace archive speak the same script schema.
pub fn encode_script(key: &ScriptKey, script: &EditScript) -> String {
    render(obj(vec![
        ("kind", Value::Str("script".to_string())),
        ("v", Value::Int(RECORD_VERSION)),
        ("program_fp", u64v(key.program_fp)),
        ("kernel", Value::Str(key.kernel.clone())),
        ("backend", Value::Str(key.backend.clone())),
        ("val", script.to_json_value()),
    ]))
}

/// Renders one mined-fix-pattern entry as a record payload.
pub fn encode_pattern(pattern: &FixPattern) -> String {
    render(obj(vec![
        ("kind", Value::Str("pattern".to_string())),
        ("v", Value::Int(RECORD_VERSION)),
        ("val", pattern.to_json_value()),
    ]))
}

/// Parses one record payload back into a typed entry. `None` = schema
/// mismatch; the caller treats it as corruption at that record.
pub fn decode_entry(text: &str) -> Option<Entry> {
    let v = serde_json::from_str(text).ok()?;
    if v.get("v")?.as_i128()? != RECORD_VERSION {
        return None;
    }
    match as_str(v.get("kind")?)? {
        "verdict" => {
            let key = VerdictKey {
                program_fp: as_u64(v.get("program_fp")?)?,
                node_fp: as_u64(v.get("node_fp")?)?,
                backend: as_str(v.get("backend")?)?.to_string(),
                style_gate: as_bool(v.get("style_gate")?)?,
            };
            let val = decode_eval(v.get("val")?)?;
            Some(Entry::Verdict(key, val))
        }
        "corpus" => {
            let key = CorpusKey {
                program_fp: as_u64(v.get("program_fp")?)?,
                kernel: as_str(v.get("kernel")?)?.to_string(),
                seeds_fp: as_u64(v.get("seeds_fp")?)?,
                config_fp: as_u64(v.get("config_fp")?)?,
            };
            let val = v.get("val")?;
            let rounds = as_array(val.get("rounds")?)?
                .iter()
                .map(|r| {
                    let [round, executed, corpus, new_coverage, at_min] = as_array(r)? else {
                        return None;
                    };
                    Some(FuzzRound {
                        round: as_u64(round)?,
                        executed: as_u64(executed)?,
                        corpus: as_u64(corpus)?,
                        new_coverage: as_bool(new_coverage)?,
                        at_min: as_f64_bits(at_min)?,
                    })
                })
                .collect::<Option<Vec<_>>>()?;
            let rec = FuzzReport {
                corpus: decode_cases(val.get("corpus")?)?,
                executed: as_usize(val.get("executed")?)?,
                sim_minutes: as_f64_bits(val.get("sim_minutes")?)?,
                coverage: as_f64_bits(val.get("coverage")?)?,
                profile: decode_profile(val.get("profile")?)?,
                peak_heap_cells: as_usize(val.get("peak_heap_cells")?)?,
                failing: decode_cases(val.get("failing")?)?,
                rounds,
            };
            Some(Entry::Corpus(key, rec))
        }
        "diff" => {
            let key = DiffKey {
                program_fp: as_u64(v.get("program_fp")?)?,
                reference_fp: as_u64(v.get("reference_fp")?)?,
                kernel: as_str(v.get("kernel")?)?.to_string(),
                tests_fp: as_u64(v.get("tests_fp")?)?,
                backend: as_str(v.get("backend")?)?.to_string(),
            };
            let val = v.get("val")?;
            let rec = DiffReport {
                pass_ratio: as_f64_bits(val.get("pass_ratio")?)?,
                fpga_latency_ms: as_f64_bits(val.get("fpga_latency_ms")?)?,
            };
            Some(Entry::Diff(key, rec))
        }
        "script" => {
            let key = ScriptKey {
                program_fp: as_u64(v.get("program_fp")?)?,
                kernel: as_str(v.get("kernel")?)?.to_string(),
                backend: as_str(v.get("backend")?)?.to_string(),
            };
            let script = EditScript::from_value(v.get("val")?)?;
            Some(Entry::Script(key, script))
        }
        "pattern" => FixPattern::from_value(v.get("val")?).map(Entry::Pattern),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_round_trips_exactly() {
        let key = VerdictKey {
            program_fp: u64::MAX,
            node_fp: 7,
            backend: "hls_sim".to_string(),
            style_gate: true,
        };
        let diag = HlsDiagnostic::new("HG-001", "no \"dynamic\" memory", {
            ErrorCategory::DynamicDataStructures
        })
        .at(NodeId(42))
        .on("buf")
        .in_function("kernel");
        let val = EvalResult {
            style_clean: false,
            loc: 31,
            diags: Some(Arc::new(vec![diag.clone()])),
            transients: 2,
        };
        let text = encode_verdict(&key, &val);
        let Some(Entry::Verdict(k2, v2)) = decode_entry(&text) else {
            panic!("decode failed: {text}")
        };
        assert_eq!(k2, key);
        assert_eq!(v2.style_clean, val.style_clean);
        assert_eq!(v2.loc, val.loc);
        assert_eq!(v2.transients, val.transients);
        assert_eq!(v2.diags.as_deref(), Some(&vec![diag]));

        // Gated verdicts (diags: None) round-trip too.
        let gated = EvalResult {
            style_clean: false,
            loc: 0,
            diags: None,
            transients: 0,
        };
        let text = encode_verdict(&key, &gated);
        let Some(Entry::Verdict(_, v3)) = decode_entry(&text) else {
            panic!("decode failed")
        };
        assert!(v3.diags.is_none());
    }

    #[test]
    fn corpus_round_trips_floats_bit_exactly() {
        let key = CorpusKey {
            program_fp: 1,
            kernel: "kernel".to_string(),
            seeds_fp: 2,
            config_fp: 3,
        };
        let mut profile = Profile::new();
        profile.record_int("kernel", "x", -5);
        profile.record_int("kernel", "x", 999);
        let rec = FuzzReport {
            corpus: vec![
                vec![ArgValue::Int(-3), ArgValue::Float(0.1 + 0.2)],
                vec![
                    ArgValue::IntArray(vec![1, 2]),
                    ArgValue::FloatArray(vec![f64::NAN, f64::INFINITY, -0.0]),
                    ArgValue::IntStream(vec![9]),
                ],
            ],
            executed: 1234,
            sim_minutes: 0.1 + 0.7, // not exactly representable shortest-print
            coverage: f64::from_bits(0x3FEF_FFFF_FFFF_FFFF),
            profile,
            peak_heap_cells: 64,
            failing: vec![vec![ArgValue::Int(0)]],
            rounds: vec![FuzzRound {
                round: 0,
                executed: 17,
                corpus: 2,
                new_coverage: true,
                at_min: 0.012 * 17.0,
            }],
        };
        let text = encode_corpus(&key, &rec);
        // The payload's bytes are the schema: a change here is a store
        // format change.
        assert_eq!(
            minic::fnv1a(text.as_bytes()),
            0x230f_eed2_4c30_d8ad,
            "{text}"
        );
        let Some(Entry::Corpus(k2, r2)) = decode_entry(&text) else {
            panic!("decode failed: {text}")
        };
        assert_eq!(k2, key);
        assert_eq!(r2.executed, rec.executed);
        assert_eq!(r2.sim_minutes.to_bits(), rec.sim_minutes.to_bits());
        assert_eq!(r2.coverage.to_bits(), rec.coverage.to_bits());
        assert_eq!(r2.peak_heap_cells, rec.peak_heap_cells);
        assert_eq!(r2.profile, rec.profile);
        assert_eq!(r2.corpus[0], rec.corpus[0]);
        assert_eq!(r2.failing, rec.failing);
        assert_eq!(r2.rounds.len(), 1);
        assert_eq!(
            r2.rounds[0].at_min.to_bits(),
            rec.rounds[0].at_min.to_bits()
        );
        // NaN and ±inf survive (they would have become JSON null as floats).
        let ArgValue::FloatArray(fa) = &r2.corpus[1][1] else {
            panic!("wrong arg shape")
        };
        assert!(fa[0].is_nan());
        assert_eq!(fa[1], f64::INFINITY);
        assert_eq!(fa[2].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn diff_round_trips_non_finite_floats() {
        let key = DiffKey {
            program_fp: 5,
            reference_fp: 6,
            kernel: "kernel".to_string(),
            tests_fp: 7,
            backend: "hls_sim".to_string(),
        };
        // An unsimulatable candidate persists `(0.0, inf)` — the infinity
        // must survive the trip (it would become JSON null as a float).
        let val = DiffReport {
            pass_ratio: 0.1 + 0.2,
            fpga_latency_ms: f64::INFINITY,
        };
        let text = encode_diff(&key, &val);
        assert_eq!(
            minic::fnv1a(text.as_bytes()),
            0xd82b_759c_3ff3_35f8,
            "{text}"
        );
        let Some(Entry::Diff(k2, v2)) = decode_entry(&text) else {
            panic!("decode failed: {text}")
        };
        assert_eq!(k2, key);
        assert_eq!(v2.pass_ratio.to_bits(), val.pass_ratio.to_bits());
        assert_eq!(v2.fpga_latency_ms, f64::INFINITY);
    }

    #[test]
    fn script_round_trips_exactly() {
        use repair::{EditKind, ScriptEdit};
        let key = ScriptKey {
            program_fp: 17,
            kernel: "kernel".to_string(),
            backend: "hls_sim".to_string(),
        };
        let script = EditScript {
            edits: vec![
                ScriptEdit {
                    kind: EditKind::ArrayStatic,
                    site: Some("kernel".to_string()),
                    symbol: Some("buf".to_string()),
                    value: Some(64),
                    label: None,
                },
                ScriptEdit::bare(EditKind::Constructor),
            ],
        };
        let text = encode_script(&key, &script);
        let Some(Entry::Script(k2, s2)) = decode_entry(&text) else {
            panic!("decode failed: {text}")
        };
        assert_eq!(k2, key);
        assert_eq!(s2, script);
    }

    #[test]
    fn pattern_round_trips_exactly() {
        use repair::mine;
        use repair::{EditKind, ScriptEdit};
        let script = EditScript {
            edits: vec![
                ScriptEdit {
                    kind: EditKind::StackTrans,
                    site: Some("f".to_string()),
                    symbol: None,
                    value: Some(32),
                    label: None,
                },
                ScriptEdit::bare(EditKind::Resize),
            ],
        };
        let pattern = FixPattern {
            edits: mine::abstract_script(&script),
            support: 3,
        };
        let text = encode_pattern(&pattern);
        let Some(Entry::Pattern(p2)) = decode_entry(&text) else {
            panic!("decode failed: {text}")
        };
        assert_eq!(p2, pattern);
    }

    #[test]
    fn malformed_and_version_skewed_payloads_are_rejected() {
        assert!(decode_entry("not json").is_none());
        assert!(decode_entry("{}").is_none());
        assert!(decode_entry("{\"kind\":\"verdict\",\"v\":2}").is_none());
        assert!(decode_entry("{\"kind\":\"mystery\",\"v\":1}").is_none());
        assert!(decode_entry("{\"kind\":\"script\",\"v\":2}").is_none());
        assert!(decode_entry("{\"kind\":\"pattern\",\"v\":2}").is_none());
        // A script whose payload names an unknown edit family is schema
        // skew, not data: reject the whole record.
        assert!(decode_entry(concat!(
            "{\"kind\":\"script\",\"v\":1,\"program_fp\":1,",
            "\"kernel\":\"k\",\"backend\":\"b\",\"val\":[{\"kind\":\"warp_drive\",",
            "\"site\":null,\"symbol\":null,\"value\":null,\"label\":null}]}"
        ))
        .is_none());
    }
}
