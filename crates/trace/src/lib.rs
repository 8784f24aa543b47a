//! Structured event tracing and metrics for the HeteroGen pipeline.
//!
//! The pipeline's interesting behaviour is *internal*: compile invocations
//! avoided by the style checker, simulated minutes per phase, candidates
//! attempted versus rejected. This crate gives every stage a typed event
//! stream to report through — a [`TraceSink`] trait plus an [`Event`] enum
//! with simulated-clock timestamps — without committing any stage to a
//! particular consumer.
//!
//! Three sinks ship with the crate:
//!
//! * [`NullSink`] — the default; [`TraceSink::enabled`] returns `false`, so
//!   instrumented code skips event construction entirely (zero cost when
//!   tracing is off);
//! * [`MetricsSink`] — in-memory counters and histograms, queryable after a
//!   run;
//! * [`JsonlSink`] — one JSON object per event, for offline analysis and
//!   the `reproduce -- trace <subject>` flamegraph summary.
//!
//! # The merge-phase emission rule
//!
//! The repair search and the fuzzer evaluate candidates on worker pools but
//! merge results on the caller thread, in a deterministic order. Events
//! MUST be emitted from that merge phase only — never from worker threads —
//! so the event stream is bit-identical at any thread count. The
//! workspace's `tests/determinism.rs` pins this by comparing raw JSONL
//! bytes across thread counts.
//!
//! # Examples
//!
//! ```
//! use heterogen_trace::{Event, MetricsSink, TraceSink, Verdict};
//!
//! let sink = MetricsSink::new();
//! sink.emit(&Event::PhaseEnter { phase: "repair".into(), at_min: 0.0 });
//! sink.emit(&Event::CandidateEvaluated {
//!     kind: "type_trans".into(),
//!     fingerprint: 0xfeed,
//!     verdict: Verdict::Admitted,
//!     sim_cost_min: 2.5,
//!     at_min: 2.5,
//! });
//! sink.emit(&Event::PhaseExit { phase: "repair".into(), at_min: 2.5, elapsed_min: 2.5 });
//! assert_eq!(sink.counter("candidate.admitted"), 1);
//! assert_eq!(sink.histogram("phase.repair.min").unwrap().count(), 1);
//! ```

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// How one candidate attempt ended (the merge phase's classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The edit did not apply structurally (free rejection).
    Inapplicable,
    /// The resulting program was already seen (fingerprint dedup).
    Duplicate,
    /// The cheap style checker rejected it before full compilation.
    StyleRejected,
    /// Compiled, but with strictly more errors than its parent.
    Regressed,
    /// Admitted to the search frontier.
    Admitted,
    /// The evaluation panicked and was isolated (`catch_unwind`); the
    /// candidate is dropped without aborting its batch.
    Crashed,
}

impl Verdict {
    /// Stable lowercase name, used as a metrics-counter suffix.
    pub fn as_str(&self) -> &'static str {
        match self {
            Verdict::Inapplicable => "inapplicable",
            Verdict::Duplicate => "duplicate",
            Verdict::StyleRejected => "style_rejected",
            Verdict::Regressed => "regressed",
            Verdict::Admitted => "admitted",
            Verdict::Crashed => "crashed",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One parameterized edit inside an [`Event::RepairScript`]: the edit-family
/// name plus the minimal anchor context (localization site, touched symbol,
/// numeric parameter, extra label) the repair layer recorded for it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEdit {
    /// Edit-family name (same vocabulary as [`Event::EditApplied`]).
    pub kind: String,
    /// Localization site (function or struct name), if any.
    pub site: Option<String>,
    /// Touched symbol (variable, parameter, method), if any.
    pub symbol: Option<String>,
    /// Numeric parameter (size, capacity, factor, loop index), if any.
    pub value: Option<i128>,
    /// Extra discriminating label (pragma family, target type), if any.
    pub label: Option<String>,
}

impl Serialize for TraceEdit {
    fn to_json_value(&self) -> Value {
        fn opt_str(v: &Option<String>) -> Value {
            v.as_ref().map_or(Value::Null, |s| Value::Str(s.clone()))
        }
        Value::Object(vec![
            ("kind".to_string(), Value::Str(self.kind.clone())),
            ("site".to_string(), opt_str(&self.site)),
            ("symbol".to_string(), opt_str(&self.symbol)),
            (
                "value".to_string(),
                self.value.map_or(Value::Null, Value::Int),
            ),
            ("label".to_string(), opt_str(&self.label)),
        ])
    }
}

/// One structured pipeline event.
///
/// `at_min` fields are *simulated minutes on the emitting phase's clock*
/// (the fuzzer's campaign clock, the repair search's budget clock) — not
/// wall-clock time, so traces are deterministic and machine-independent.
///
/// Every event is emitted by a pipeline phase's merge step (or the session
/// driving it); the toolchain middleware stack emits none, so a worker
/// thread never touches a sink.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// A pipeline phase started.
    PhaseEnter {
        /// Phase name (`"testgen"`, `"repair"`, …).
        phase: String,
        /// Simulated minutes already on the pipeline clock.
        at_min: f64,
    },
    /// A pipeline phase finished.
    PhaseExit {
        /// Phase name, matching the corresponding [`Event::PhaseEnter`].
        phase: String,
        /// Simulated minutes on the pipeline clock at exit.
        at_min: f64,
        /// Simulated minutes the phase consumed.
        elapsed_min: f64,
    },
    /// One havoc round of the fuzzing campaign completed.
    FuzzRoundEnd {
        /// Round index (0-based).
        round: u64,
        /// Total inputs executed so far.
        executed: u64,
        /// Corpus size so far (coverage-increasing inputs).
        corpus: u64,
        /// Whether this round found new coverage.
        new_coverage: bool,
        /// Simulated minutes on the campaign clock.
        at_min: f64,
    },
    /// One repair-search attempt was merged (every attempt gets exactly one
    /// of these, in merge order).
    CandidateEvaluated {
        /// Edit-family name that produced the candidate.
        kind: String,
        /// Structural fingerprint of the candidate program (0 when the edit
        /// was inapplicable and no program exists).
        fingerprint: u64,
        /// How the attempt ended.
        verdict: Verdict,
        /// Simulated minutes billed for this attempt (style check + full
        /// compile; 0 for free rejections).
        sim_cost_min: f64,
        /// Simulated minutes on the search clock after billing.
        at_min: f64,
    },
    /// The style checker rejected a candidate, avoiding a full compile.
    StyleReject {
        /// Structural fingerprint of the rejected candidate.
        fingerprint: u64,
        /// Simulated minutes on the search clock.
        at_min: f64,
    },
    /// A full HLS compilation was billed.
    FullCompile {
        /// Structural fingerprint of the compiled candidate.
        fingerprint: u64,
        /// Pretty-printed line count (drives the cost model).
        loc: u64,
        /// Simulated minutes billed for the compile.
        cost_min: f64,
        /// Simulated minutes on the search clock after billing.
        at_min: f64,
    },
    /// An edit was accepted onto a live search path (admitted to the
    /// frontier, or chained onto the performance-exploration base).
    EditApplied {
        /// Edit-family name.
        kind: String,
        /// Simulated minutes on the search clock.
        at_min: f64,
    },
    /// The winning repair script of a search: the ordered, parameterized
    /// edits along the successful path, with their anchor context. Emitted
    /// once per successful mined-tier search, so JSONL archives carry the
    /// whole script, not only the per-edit [`Event::EditApplied`] stream.
    RepairScript {
        /// Ordered edits of the winning script.
        edits: Vec<TraceEdit>,
        /// Simulated minutes on the search clock at emission.
        at_min: f64,
    },
    /// A candidate was differentially tested against the reference.
    DiffEvaluated {
        /// Tests compared.
        tests: u64,
        /// Fraction with identical behaviour.
        pass_ratio: f64,
        /// Mean FPGA latency over the tests (ms).
        fpga_latency_ms: f64,
    },
    /// The fault injector sabotaged a toolchain invocation.
    FaultInjected {
        /// Fault site name (`"hls_check"`, `"hls_sim"`, `"exec"`).
        site: String,
        /// Fault kind name (`"transient"`, `"permanent"`, `"poison"`,
        /// `"fuel_spike"`).
        fault: String,
        /// Stable evaluation key the fault was drawn for.
        fingerprint: u64,
        /// Attempt number the fault struck (0 = first try).
        attempt: u64,
        /// Simulated minutes on the emitting phase's clock.
        at_min: f64,
    },
    /// A transient fault was scheduled for a deterministic backoff retry.
    RetryScheduled {
        /// Fault site name.
        site: String,
        /// Stable evaluation key being retried.
        fingerprint: u64,
        /// Retry number (1 = first retry).
        attempt: u64,
        /// Simulated-minute backoff before the retry (resilience clock).
        delay_min: f64,
        /// Simulated minutes on the emitting phase's clock.
        at_min: f64,
    },
    /// A candidate evaluation panicked and was isolated; the batch
    /// continued without it.
    CandidateCrashed {
        /// Edit-family name that produced the candidate.
        kind: String,
        /// Structural fingerprint of the crashed candidate.
        fingerprint: u64,
        /// Simulated minutes on the search clock.
        at_min: f64,
    },
    /// A pipeline phase finished degraded: it returned a best-effort result
    /// after exhausting a budget or hitting a permanent fault.
    PhaseDegraded {
        /// Phase name (`"testgen"`, `"repair"`).
        phase: String,
        /// Stable degradation-reason name.
        reason: String,
        /// Simulated minutes on the pipeline clock.
        at_min: f64,
    },
}

impl Event {
    /// Stable event-type name (the `"event"` field of the JSONL encoding
    /// and the metrics-counter key).
    pub fn name(&self) -> &'static str {
        match self {
            Event::PhaseEnter { .. } => "phase_enter",
            Event::PhaseExit { .. } => "phase_exit",
            Event::FuzzRoundEnd { .. } => "fuzz_round_end",
            Event::CandidateEvaluated { .. } => "candidate_evaluated",
            Event::StyleReject { .. } => "style_reject",
            Event::FullCompile { .. } => "full_compile",
            Event::EditApplied { .. } => "edit_applied",
            Event::RepairScript { .. } => "repair_script",
            Event::DiffEvaluated { .. } => "diff_evaluated",
            Event::FaultInjected { .. } => "fault_injected",
            Event::RetryScheduled { .. } => "retry_scheduled",
            Event::CandidateCrashed { .. } => "candidate_crashed",
            Event::PhaseDegraded { .. } => "phase_degraded",
        }
    }
}

impl Serialize for Event {
    fn to_json_value(&self) -> Value {
        let mut fields: Vec<(String, Value)> =
            vec![("event".into(), Value::Str(self.name().into()))];
        let mut push = |name: &str, v: Value| fields.push((name.into(), v));
        match self {
            Event::PhaseEnter { phase, at_min } => {
                push("phase", Value::Str(phase.clone()));
                push("at_min", Value::Float(*at_min));
            }
            Event::PhaseExit {
                phase,
                at_min,
                elapsed_min,
            } => {
                push("phase", Value::Str(phase.clone()));
                push("at_min", Value::Float(*at_min));
                push("elapsed_min", Value::Float(*elapsed_min));
            }
            Event::FuzzRoundEnd {
                round,
                executed,
                corpus,
                new_coverage,
                at_min,
            } => {
                push("round", Value::Int(*round as i128));
                push("executed", Value::Int(*executed as i128));
                push("corpus", Value::Int(*corpus as i128));
                push("new_coverage", Value::Bool(*new_coverage));
                push("at_min", Value::Float(*at_min));
            }
            Event::CandidateEvaluated {
                kind,
                fingerprint,
                verdict,
                sim_cost_min,
                at_min,
            } => {
                push("kind", Value::Str(kind.clone()));
                push("fingerprint", Value::Str(format!("{fingerprint:016x}")));
                push("verdict", Value::Str(verdict.as_str().into()));
                push("sim_cost_min", Value::Float(*sim_cost_min));
                push("at_min", Value::Float(*at_min));
            }
            Event::StyleReject {
                fingerprint,
                at_min,
            } => {
                push("fingerprint", Value::Str(format!("{fingerprint:016x}")));
                push("at_min", Value::Float(*at_min));
            }
            Event::FullCompile {
                fingerprint,
                loc,
                cost_min,
                at_min,
            } => {
                push("fingerprint", Value::Str(format!("{fingerprint:016x}")));
                push("loc", Value::Int(*loc as i128));
                push("cost_min", Value::Float(*cost_min));
                push("at_min", Value::Float(*at_min));
            }
            Event::EditApplied { kind, at_min } => {
                push("kind", Value::Str(kind.clone()));
                push("at_min", Value::Float(*at_min));
            }
            Event::RepairScript { edits, at_min } => {
                push(
                    "edits",
                    Value::Array(edits.iter().map(Serialize::to_json_value).collect()),
                );
                push("at_min", Value::Float(*at_min));
            }
            Event::DiffEvaluated {
                tests,
                pass_ratio,
                fpga_latency_ms,
            } => {
                push("tests", Value::Int(*tests as i128));
                push("pass_ratio", Value::Float(*pass_ratio));
                push("fpga_latency_ms", Value::Float(*fpga_latency_ms));
            }
            Event::FaultInjected {
                site,
                fault,
                fingerprint,
                attempt,
                at_min,
            } => {
                push("site", Value::Str(site.clone()));
                push("fault", Value::Str(fault.clone()));
                push("fingerprint", Value::Str(format!("{fingerprint:016x}")));
                push("attempt", Value::Int(*attempt as i128));
                push("at_min", Value::Float(*at_min));
            }
            Event::RetryScheduled {
                site,
                fingerprint,
                attempt,
                delay_min,
                at_min,
            } => {
                push("site", Value::Str(site.clone()));
                push("fingerprint", Value::Str(format!("{fingerprint:016x}")));
                push("attempt", Value::Int(*attempt as i128));
                push("delay_min", Value::Float(*delay_min));
                push("at_min", Value::Float(*at_min));
            }
            Event::CandidateCrashed {
                kind,
                fingerprint,
                at_min,
            } => {
                push("kind", Value::Str(kind.clone()));
                push("fingerprint", Value::Str(format!("{fingerprint:016x}")));
                push("at_min", Value::Float(*at_min));
            }
            Event::PhaseDegraded {
                phase,
                reason,
                at_min,
            } => {
                push("phase", Value::Str(phase.clone()));
                push("reason", Value::Str(reason.clone()));
                push("at_min", Value::Float(*at_min));
            }
        }
        Value::Object(fields)
    }
}

/// A consumer of pipeline events.
///
/// `emit` takes `&self` so sinks can be shared (`Arc<dyn TraceSink>`);
/// stateful sinks use interior mutability. Events arrive from the merge
/// phase of the instrumented loops — one thread at a time — but sinks must
/// still be `Send + Sync` because the pipeline objects holding them are.
pub trait TraceSink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &Event);

    /// Whether events are observed at all. Instrumented code gates event
    /// *construction* on this, so a disabled sink costs one virtual call
    /// per would-be event and nothing else.
    fn enabled(&self) -> bool {
        true
    }
}

impl<T: TraceSink + ?Sized> TraceSink for &T {
    fn emit(&self, event: &Event) {
        (**self).emit(event)
    }
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

impl<T: TraceSink + ?Sized> TraceSink for Arc<T> {
    fn emit(&self, event: &Event) {
        (**self).emit(event)
    }
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
}

/// The default sink: drops everything and reports itself disabled, so
/// instrumented code never constructs event payloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _event: &Event) {}
    fn enabled(&self) -> bool {
        false
    }
}

/// Running aggregate of one histogram-tracked quantity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest sample (0.0 when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct MetricsInner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    /// Phase → enter timestamp, for computing `phase.<name>.min` spans.
    open_phases: BTreeMap<String, f64>,
}

/// In-memory counters and histograms, queryable after a run.
///
/// Counter keys:
///
/// * one per event-type name (`"candidate_evaluated"`, `"full_compile"`, …);
/// * `"candidate.<verdict>"` per [`Verdict`] (`"candidate.admitted"`, …);
/// * `"edit_applied.<kind>"` per edit family.
///
/// Histogram keys: `"full_compile.cost_min"`, `"candidate.sim_cost_min"`,
/// `"diff.pass_ratio"`, `"diff.fpga_latency_ms"`, and `"phase.<name>.min"`
/// for every completed phase span.
#[derive(Debug, Default)]
pub struct MetricsSink {
    inner: Mutex<MetricsInner>,
}

impl MetricsSink {
    /// Creates an empty metrics sink.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    /// The value of one counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// One histogram's aggregate, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.lock().unwrap().histograms.get(name).copied()
    }

    /// All counters, sorted by key.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.lock().unwrap().counters.clone()
    }

    /// All histograms, sorted by key.
    pub fn histograms(&self) -> BTreeMap<String, Histogram> {
        self.inner.lock().unwrap().histograms.clone()
    }
}

impl TraceSink for MetricsSink {
    fn emit(&self, event: &Event) {
        let mut m = self.inner.lock().unwrap();
        *m.counters.entry(event.name().to_string()).or_insert(0) += 1;
        match event {
            Event::PhaseEnter { phase, at_min } => {
                m.open_phases.insert(phase.clone(), *at_min);
            }
            Event::PhaseExit {
                phase,
                at_min,
                elapsed_min,
            } => {
                // Prefer the emitter's elapsed figure; fall back to the
                // span between enter and exit timestamps.
                let span = if *elapsed_min > 0.0 {
                    *elapsed_min
                } else {
                    m.open_phases
                        .get(phase)
                        .map(|enter| (at_min - enter).max(0.0))
                        .unwrap_or(0.0)
                };
                m.open_phases.remove(phase);
                m.histograms
                    .entry(format!("phase.{phase}.min"))
                    .or_default()
                    .record(span);
            }
            Event::CandidateEvaluated {
                verdict,
                sim_cost_min,
                ..
            } => {
                *m.counters
                    .entry(format!("candidate.{}", verdict.as_str()))
                    .or_insert(0) += 1;
                m.histograms
                    .entry("candidate.sim_cost_min".to_string())
                    .or_default()
                    .record(*sim_cost_min);
            }
            Event::FullCompile { cost_min, .. } => {
                m.histograms
                    .entry("full_compile.cost_min".to_string())
                    .or_default()
                    .record(*cost_min);
            }
            Event::EditApplied { kind, .. } => {
                *m.counters
                    .entry(format!("edit_applied.{kind}"))
                    .or_insert(0) += 1;
            }
            Event::RepairScript { edits, .. } => {
                m.histograms
                    .entry("repair_script.edits".to_string())
                    .or_default()
                    .record(edits.len() as f64);
            }
            Event::DiffEvaluated {
                pass_ratio,
                fpga_latency_ms,
                ..
            } => {
                m.histograms
                    .entry("diff.pass_ratio".to_string())
                    .or_default()
                    .record(*pass_ratio);
                m.histograms
                    .entry("diff.fpga_latency_ms".to_string())
                    .or_default()
                    .record(*fpga_latency_ms);
            }
            Event::FaultInjected { site, .. } => {
                *m.counters.entry(format!("fault.{site}")).or_insert(0) += 1;
            }
            Event::RetryScheduled { delay_min, .. } => {
                m.histograms
                    .entry("retry.delay_min".to_string())
                    .or_default()
                    .record(*delay_min);
            }
            Event::PhaseDegraded { phase, .. } => {
                *m.counters.entry(format!("degraded.{phase}")).or_insert(0) += 1;
            }
            Event::FuzzRoundEnd { .. }
            | Event::StyleReject { .. }
            | Event::CandidateCrashed { .. } => {}
        }
    }
}

/// Version of the serialized wire format: the JSONL trace stream and the
/// pipeline report JSON. Bump when an event or report field changes shape;
/// consumers reject streams whose version they do not understand.
pub const SCHEMA_VERSION: u32 = 1;

/// The header line prepended to every rendered JSONL stream.
pub fn schema_header() -> String {
    format!("{{\"event\":\"schema\",\"schema_version\":{SCHEMA_VERSION}}}")
}

/// Renders each event as one JSON object per line, in emission order.
///
/// The buffer accumulates in memory; [`JsonlSink::contents`] returns the
/// stream for writing to disk or byte-for-byte comparison (the determinism
/// tests compare exactly these bytes across thread counts). The rendered
/// stream opens with a [`schema_header`] line carrying [`SCHEMA_VERSION`];
/// [`JsonlSink::events`] counts only real events, never the header.
#[derive(Debug, Default)]
pub struct JsonlSink {
    buf: Mutex<String>,
}

impl JsonlSink {
    /// Creates an empty in-memory JSONL sink.
    pub fn new() -> JsonlSink {
        JsonlSink::default()
    }

    /// The accumulated JSONL stream: a schema header line, then one event
    /// per line.
    pub fn contents(&self) -> String {
        let buf = self.buf.lock().unwrap();
        let mut out = schema_header();
        out.push('\n');
        out.push_str(&buf);
        out
    }

    /// Number of events captured so far (the schema header is not an event).
    pub fn events(&self) -> usize {
        self.buf.lock().unwrap().lines().count()
    }
}

impl TraceSink for JsonlSink {
    fn emit(&self, event: &Event) {
        let line = serde_json::to_string(event).expect("events always serialize");
        let mut buf = self.buf.lock().unwrap();
        buf.push_str(&line);
        buf.push('\n');
    }
}

/// Broadcasts every event to several sinks (e.g. metrics + JSONL at once).
pub struct TeeSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl TeeSink {
    /// Creates a tee over the given sinks.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> TeeSink {
        TeeSink { sinks }
    }
}

impl TraceSink for TeeSink {
    fn emit(&self, event: &Event) {
        for s in &self.sinks {
            s.emit(event);
        }
    }
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
        s.emit(&Event::EditApplied {
            kind: "noop".into(),
            at_min: 0.0,
        });
    }

    #[test]
    fn metrics_counts_verdicts_and_kinds() {
        let s = MetricsSink::new();
        for (verdict, cost) in [
            (Verdict::Admitted, 2.5),
            (Verdict::Admitted, 3.5),
            (Verdict::StyleRejected, 0.05),
            (Verdict::Inapplicable, 0.0),
            (Verdict::Duplicate, 0.0),
            (Verdict::Regressed, 2.0),
        ] {
            s.emit(&Event::CandidateEvaluated {
                kind: "type_trans".into(),
                fingerprint: 1,
                verdict,
                sim_cost_min: cost,
                at_min: 0.0,
            });
        }
        assert_eq!(s.counter("candidate_evaluated"), 6);
        assert_eq!(s.counter("candidate.admitted"), 2);
        assert_eq!(s.counter("candidate.style_rejected"), 1);
        assert_eq!(s.counter("candidate.inapplicable"), 1);
        assert_eq!(s.counter("candidate.duplicate"), 1);
        assert_eq!(s.counter("candidate.regressed"), 1);
        assert_eq!(s.counter("candidate.never"), 0);
        let h = s.histogram("candidate.sim_cost_min").unwrap();
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 8.05).abs() < 1e-12);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 3.5);
    }

    #[test]
    fn metrics_tracks_phase_spans_and_compiles() {
        let s = MetricsSink::new();
        s.emit(&Event::PhaseEnter {
            phase: "repair".into(),
            at_min: 1.0,
        });
        s.emit(&Event::FullCompile {
            fingerprint: 7,
            loc: 40,
            cost_min: 2.8,
            at_min: 3.8,
        });
        s.emit(&Event::FullCompile {
            fingerprint: 8,
            loc: 41,
            cost_min: 2.82,
            at_min: 6.62,
        });
        s.emit(&Event::PhaseExit {
            phase: "repair".into(),
            at_min: 7.0,
            elapsed_min: 6.0,
        });
        assert_eq!(s.counter("full_compile"), 2);
        let c = s.histogram("full_compile.cost_min").unwrap();
        assert_eq!(c.count(), 2);
        assert!((c.mean() - 2.81).abs() < 1e-12);
        let p = s.histogram("phase.repair.min").unwrap();
        assert_eq!(p.count(), 1);
        assert_eq!(p.sum(), 6.0);
    }

    #[test]
    fn metrics_phase_span_falls_back_to_timestamps() {
        let s = MetricsSink::new();
        s.emit(&Event::PhaseEnter {
            phase: "testgen".into(),
            at_min: 2.0,
        });
        s.emit(&Event::PhaseExit {
            phase: "testgen".into(),
            at_min: 5.5,
            elapsed_min: 0.0,
        });
        assert_eq!(s.histogram("phase.testgen.min").unwrap().sum(), 3.5);
    }

    #[test]
    fn jsonl_renders_one_object_per_line() {
        let s = JsonlSink::new();
        s.emit(&Event::PhaseEnter {
            phase: "testgen".into(),
            at_min: 0.0,
        });
        s.emit(&Event::StyleReject {
            fingerprint: 0xabcd,
            at_min: 1.5,
        });
        let out = s.contents();
        assert_eq!(s.events(), 2);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], schema_header());
        assert_eq!(
            lines[1],
            r#"{"event":"phase_enter","phase":"testgen","at_min":0.0}"#
        );
        assert_eq!(
            lines[2],
            r#"{"event":"style_reject","fingerprint":"000000000000abcd","at_min":1.5}"#
        );
    }

    #[test]
    fn jsonl_stream_opens_with_schema_header() {
        let s = JsonlSink::new();
        assert_eq!(
            s.contents(),
            format!("{{\"event\":\"schema\",\"schema_version\":{SCHEMA_VERSION}}}\n")
        );
        assert_eq!(s.events(), 0);
    }

    #[test]
    fn tee_broadcasts_and_reports_enabled() {
        let metrics = Arc::new(MetricsSink::new());
        let jsonl = Arc::new(JsonlSink::new());
        let tee = TeeSink::new(vec![metrics.clone(), jsonl.clone()]);
        assert!(tee.enabled());
        tee.emit(&Event::EditApplied {
            kind: "resize".into(),
            at_min: 4.0,
        });
        assert_eq!(metrics.counter("edit_applied.resize"), 1);
        assert_eq!(jsonl.events(), 1);
        let off = TeeSink::new(vec![Arc::new(NullSink)]);
        assert!(!off.enabled());
    }

    #[test]
    fn jsonl_renders_fault_events() {
        let s = JsonlSink::new();
        s.emit(&Event::FaultInjected {
            site: "hls_check".into(),
            fault: "transient".into(),
            fingerprint: 0x1f,
            attempt: 0,
            at_min: 2.0,
        });
        s.emit(&Event::RetryScheduled {
            site: "hls_check".into(),
            fingerprint: 0x1f,
            attempt: 1,
            delay_min: 0.25,
            at_min: 2.0,
        });
        s.emit(&Event::CandidateCrashed {
            kind: "resize".into(),
            fingerprint: 0x2a,
            at_min: 3.5,
        });
        s.emit(&Event::PhaseDegraded {
            phase: "repair".into(),
            reason: "permanent_fault".into(),
            at_min: 4.0,
        });
        let out = s.contents();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(
            lines[1],
            r#"{"event":"fault_injected","site":"hls_check","fault":"transient","fingerprint":"000000000000001f","attempt":0,"at_min":2.0}"#
        );
        assert_eq!(
            lines[2],
            r#"{"event":"retry_scheduled","site":"hls_check","fingerprint":"000000000000001f","attempt":1,"delay_min":0.25,"at_min":2.0}"#
        );
        assert_eq!(
            lines[3],
            r#"{"event":"candidate_crashed","kind":"resize","fingerprint":"000000000000002a","at_min":3.5}"#
        );
        assert_eq!(
            lines[4],
            r#"{"event":"phase_degraded","phase":"repair","reason":"permanent_fault","at_min":4.0}"#
        );
    }

    #[test]
    fn metrics_counts_faults_and_retries() {
        let s = MetricsSink::new();
        s.emit(&Event::FaultInjected {
            site: "hls_sim".into(),
            fault: "transient".into(),
            fingerprint: 1,
            attempt: 0,
            at_min: 0.0,
        });
        s.emit(&Event::FaultInjected {
            site: "hls_sim".into(),
            fault: "fuel_spike".into(),
            fingerprint: 2,
            attempt: 0,
            at_min: 0.0,
        });
        s.emit(&Event::RetryScheduled {
            site: "hls_sim".into(),
            fingerprint: 1,
            attempt: 1,
            delay_min: 0.25,
            at_min: 0.0,
        });
        s.emit(&Event::RetryScheduled {
            site: "hls_sim".into(),
            fingerprint: 1,
            attempt: 2,
            delay_min: 0.5,
            at_min: 0.0,
        });
        s.emit(&Event::PhaseDegraded {
            phase: "repair".into(),
            reason: "budget".into(),
            at_min: 9.0,
        });
        assert_eq!(s.counter("fault_injected"), 2);
        assert_eq!(s.counter("fault.hls_sim"), 2);
        assert_eq!(s.counter("retry_scheduled"), 2);
        assert_eq!(s.counter("degraded.repair"), 1);
        let h = s.histogram("retry.delay_min").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 0.75);
    }

    #[test]
    fn crashed_verdict_has_stable_name() {
        assert_eq!(Verdict::Crashed.as_str(), "crashed");
        let s = MetricsSink::new();
        s.emit(&Event::CandidateEvaluated {
            kind: "resize".into(),
            fingerprint: 9,
            verdict: Verdict::Crashed,
            sim_cost_min: 0.0,
            at_min: 1.0,
        });
        assert_eq!(s.counter("candidate.crashed"), 1);
    }

    #[test]
    fn histogram_aggregates() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        h.record(2.0);
        h.record(-1.0);
        h.record(5.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.sum(), 6.0);
        assert_eq!(h.mean(), 2.0);
    }
}
