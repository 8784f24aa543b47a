//! Crash-safe persistent evaluation store.
//!
//! An append-only, length-prefixed, checksummed record log (see [`log`])
//! holding five kinds of typed entries:
//!
//! * **verdict memos** — `(program fingerprint, node-id fingerprint,
//!   backend, style gate) →` toolchain verdict, served through the
//!   [`heterogen_toolchain::VerdictStore`] seam so the repair engine's
//!   `Persisted` middleware can skip whole compiles across process runs;
//! * **fuzz corpora** — per-subject campaign results, kept as the
//!   [`testgen::FuzzReport`] itself (corpus, profile, failing inputs,
//!   per-round trace tuples) keyed by [`CorpusKey`], so `testgen`
//!   campaigns warm-start byte-identically;
//! * **differential verdicts** — fault-free differential-test results
//!   `(candidate, reference, kernel, tests, backend) →`
//!   [`heterogen_toolchain::DiffReport`] (pass ratio, FPGA latency), so a
//!   warm repair search skips candidate simulation — the dominant
//!   wall-clock cost on simulation-heavy subjects;
//! * **repair scripts** — `(program fingerprint, kernel, backend) →` the
//!   winning [`repair::EditScript`] of a successful repair search, the raw
//!   material `repair::mine` abstracts fix patterns from;
//! * **fix patterns** — mined [`repair::FixPattern`]s (abstracted edit
//!   sequences ranked by support), persisted so later runs can seed the
//!   mined candidate tier without re-mining.
//!
//! # Crash model and recovery
//!
//! The only write during operation is an append, so corruption is either a
//! *torn tail* (crash mid-append) or *bit rot* inside an existing record.
//! [`Store::open`] replays the log, verifies every record's length,
//! checksum, and schema version, keeps everything before the first bad
//! byte, quarantines the bytes from there on into a `store.log.corrupt`
//! sidecar (evidence is never deleted), and truncates the log back to its
//! intact prefix. Files that are not store logs, or logs written by a
//! different format version, are refused with a typed [`StoreError`] —
//! they are never truncated or overwritten.
//!
//! Appends are best-effort per the `VerdictStore` contract: a refused or
//! torn append degrades to a dropped write (counted in
//! [`StoreStats::write_errors`]), never an error surfaced to the repair
//! loop, and a torn append is rolled back immediately by truncating to the
//! last known-good length. Persistence is an optimization; correctness
//! never depends on it.

pub mod codec;
pub mod io;
pub mod log;

pub use codec::Entry;
pub use io::{FaultyIo, MemIo, RealIo, StoreIo};

use heterogen_toolchain::{DiffKey, DiffReport, EvalResult, VerdictKey, VerdictStore};
use repair::{EditScript, FixPattern, PatternEdit};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use testgen::{FuzzConfig, FuzzReport, TestCase};

/// Log file name inside the store directory.
pub const LOG_FILE: &str = "store.log";
/// Quarantine sidecar: unreadable tail bytes are appended here on recovery.
pub const CORRUPT_FILE: &str = "store.log.corrupt";
/// Compaction generation file, atomically renamed over [`LOG_FILE`].
pub const GENERATION_FILE: &str = "store.log.gen";

/// Path of the record log inside `dir`.
pub fn log_path(dir: &Path) -> PathBuf {
    dir.join(LOG_FILE)
}

/// Path of the quarantine sidecar inside `dir`.
pub fn sidecar_path(dir: &Path) -> PathBuf {
    dir.join(CORRUPT_FILE)
}

/// Whole-store failures. Per-record corruption is *not* an error — it is
/// recovered from and reported in [`RecoveryReport`].
#[derive(Debug)]
pub enum StoreError {
    /// The file exists but does not carry the store magic; refusing to
    /// touch it (it is probably not ours to truncate).
    NotAStoreLog {
        /// The offending file.
        path: PathBuf,
    },
    /// The log was written by a different format version.
    VersionMismatch {
        /// The offending file.
        path: PathBuf,
        /// Version found in the file.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The underlying filesystem failed outright.
    Io(std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotAStoreLog { path } => {
                write!(
                    f,
                    "{} is not a store log; refusing to touch it",
                    path.display()
                )
            }
            StoreError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "{} is store-log format v{found}, this build expects v{expected}",
                path.display()
            ),
            StoreError::Io(e) => write!(f, "store I/O failed: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// What [`Store::open`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// The log did not exist and was created.
    pub created: bool,
    /// Intact records replayed.
    pub records: usize,
    /// Verdict entries among them.
    pub verdicts: usize,
    /// Corpus entries among them.
    pub corpora: usize,
    /// Differential-verdict entries among them.
    pub diffs: usize,
    /// Repair-script entries among them.
    pub scripts: usize,
    /// Fix-pattern entries among them.
    pub patterns: usize,
    /// Bytes moved to the quarantine sidecar (0 on a clean open).
    pub quarantined_bytes: u64,
    /// Human-readable reason the scan stopped early, when it did.
    pub corruption: Option<String>,
}

impl RecoveryReport {
    /// True when the log replayed end to end with nothing to recover.
    pub fn clean(&self) -> bool {
        self.corruption.is_none()
    }
}

/// Point-in-time store counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Verdict memos held.
    pub verdicts: usize,
    /// Fuzz campaigns held.
    pub corpora: usize,
    /// Differential verdicts held.
    pub diffs: usize,
    /// Winning repair scripts held.
    pub scripts: usize,
    /// Mined fix patterns held.
    pub patterns: usize,
    /// Current log length in bytes.
    pub log_bytes: u64,
    /// Appends dropped (refused or torn-and-rolled-back) since open.
    pub write_errors: u64,
    /// The store gave up persisting (evidence could not be quarantined or
    /// a torn append could not be rolled back); reads still work.
    pub wedged: bool,
}

/// Key of one persisted winning repair script: the subject a successful
/// repair search fixed. `program_fp` fingerprints the *original* (broken)
/// program, so a later run on the same subject finds the script before
/// attempting any repair of its own.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ScriptKey {
    /// `minic::fingerprint_program` of the original subject.
    pub program_fp: u64,
    /// Kernel (entry function) the search repaired.
    pub kernel: String,
    /// Backend the candidates were evaluated on.
    pub backend: String,
}

/// Key of one persisted fuzz campaign.
///
/// `seeds_fp` fingerprints the seed inputs and `config_fp` the
/// result-relevant [`FuzzConfig`] knobs — deliberately excluding `threads`,
/// which is documented not to change campaign results.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CorpusKey {
    /// `minic::fingerprint_program` of the subject.
    pub program_fp: u64,
    /// Kernel (entry function) the campaign fuzzed.
    pub kernel: String,
    /// Fingerprint of the seed inputs.
    pub seeds_fp: u64,
    /// Fingerprint of the result-relevant fuzzing knobs.
    pub config_fp: u64,
}

/// Builds the [`CorpusKey`] for a campaign over `seeds` with `cfg`.
///
/// The config fingerprint covers exactly the knobs that influence campaign
/// *results* (`rng_seed`, `idle_stop_min`, `max_execs`), interleaved with
/// the fixed [`testgen::EXEC_COST_MIN`] and [`testgen::MUTANTS_PER_SEED`]
/// so existing stores keep their keys; `threads` only influences
/// wall-clock time and is excluded, so a campaign recorded at one thread
/// count warms a run at any other.
pub fn fuzz_campaign_key(
    program_fp: u64,
    kernel: &str,
    seeds: &[TestCase],
    cfg: &FuzzConfig,
) -> CorpusKey {
    let mut cfg_bytes = Vec::with_capacity(40);
    cfg_bytes.extend_from_slice(&cfg.rng_seed.to_le_bytes());
    cfg_bytes.extend_from_slice(&testgen::EXEC_COST_MIN.to_bits().to_le_bytes());
    cfg_bytes.extend_from_slice(&cfg.idle_stop_min.to_bits().to_le_bytes());
    cfg_bytes.extend_from_slice(&(cfg.max_execs as u64).to_le_bytes());
    cfg_bytes.extend_from_slice(&(testgen::MUTANTS_PER_SEED as u64).to_le_bytes());
    CorpusKey {
        program_fp,
        kernel: kernel.to_string(),
        seeds_fp: codec::cases_fingerprint(seeds),
        config_fp: minic::fnv1a(&cfg_bytes),
    }
}

#[derive(Default)]
struct State {
    verdicts: HashMap<VerdictKey, EvalResult>,
    corpora: HashMap<CorpusKey, FuzzReport>,
    diffs: HashMap<DiffKey, DiffReport>,
    scripts: HashMap<ScriptKey, EditScript>,
    patterns: HashMap<Vec<PatternEdit>, u64>,
    /// Known-good log length: every byte below this verified on open or
    /// was appended whole by us.
    len: u64,
    write_errors: u64,
    wedged: bool,
}

/// The crash-safe store: an in-memory index over an append-only log.
pub struct Store {
    io: Arc<dyn StoreIo>,
    log: PathBuf,
    sidecar: PathBuf,
    generation: PathBuf,
    state: Mutex<State>,
    recovery: RecoveryReport,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("log", &self.log)
            .field("recovery", &self.recovery)
            .finish_non_exhaustive()
    }
}

impl Store {
    /// Opens (creating if absent) the store in `dir` on the real
    /// filesystem, recovering from any torn or corrupt tail.
    ///
    /// # Errors
    ///
    /// Refuses non-store files and version-mismatched logs; propagates
    /// filesystem failures. Per-record corruption is *recovered*, not an
    /// error — inspect [`Store::recovery`] for what happened.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        std::fs::create_dir_all(dir)?;
        Store::open_with(dir, Arc::new(RealIo))
    }

    /// [`Store::open`] over an explicit I/O layer (tests, chaos runs).
    ///
    /// # Errors
    ///
    /// As [`Store::open`].
    pub fn open_with(dir: &Path, io: Arc<dyn StoreIo>) -> Result<Store, StoreError> {
        let log = log_path(dir);
        let sidecar = sidecar_path(dir);
        let generation = dir.join(GENERATION_FILE);
        let mut report = RecoveryReport::default();
        let mut state = State::default();

        match io.read(&log)? {
            None => {
                io.write_file(&log, &log::file_header())?;
                report.created = true;
                state.len = log::FILE_HEADER_LEN as u64;
            }
            Some(bytes) => {
                let replayed = match log::replay(&bytes) {
                    Ok(r) => r,
                    Err(log::HeaderError::NotAStoreLog) => {
                        return Err(StoreError::NotAStoreLog { path: log });
                    }
                    Err(log::HeaderError::VersionMismatch { found, expected }) => {
                        return Err(StoreError::VersionMismatch {
                            path: log,
                            found,
                            expected,
                        });
                    }
                };
                let mut good_len = replayed.good_len;
                let mut corruption = replayed.corruption.map(|c| c.to_string());
                for raw in &replayed.records {
                    // A checksum-valid record that fails the typed decoder
                    // is corruption too: stop there, quarantine the rest.
                    match codec::decode_entry(&raw.payload) {
                        Some(Entry::Verdict(k, v)) => {
                            state.verdicts.insert(k, v);
                        }
                        Some(Entry::Corpus(k, r)) => {
                            state.corpora.insert(k, r);
                        }
                        Some(Entry::Diff(k, v)) => {
                            state.diffs.insert(k, v);
                        }
                        Some(Entry::Script(k, s)) => {
                            state.scripts.insert(k, s);
                        }
                        Some(Entry::Pattern(p)) => {
                            state.patterns.insert(p.edits, p.support);
                        }
                        None => {
                            good_len = raw.offset;
                            corruption = Some("record does not match any known schema".to_string());
                            break;
                        }
                    }
                    report.records += 1;
                }
                report.verdicts = state.verdicts.len();
                report.corpora = state.corpora.len();
                report.diffs = state.diffs.len();
                report.scripts = state.scripts.len();
                report.patterns = state.patterns.len();
                report.corruption = corruption;

                let tail = &bytes[good_len as usize..];
                if !tail.is_empty() {
                    // Quarantine first, truncate second: the tail bytes must
                    // be safe in the sidecar before they leave the log. If
                    // either step fails the store wedges (reads still work,
                    // appends stop) rather than risk destroying evidence.
                    match io.append(&sidecar, tail) {
                        Ok(n) if n == tail.len() => {
                            if io.truncate(&log, good_len).is_err() {
                                state.wedged = true;
                            }
                        }
                        _ => state.wedged = true,
                    }
                    report.quarantined_bytes = tail.len() as u64;
                }
                if good_len < log::FILE_HEADER_LEN as u64 && !state.wedged {
                    // Torn creation: nothing usable, start a fresh header.
                    io.write_file(&log, &log::file_header())?;
                    state.len = log::FILE_HEADER_LEN as u64;
                } else {
                    state.len = good_len;
                }
            }
        }

        Ok(Store {
            io,
            log,
            sidecar,
            generation,
            state: Mutex::new(state),
            recovery: report,
        })
    }

    /// What [`Store::open`] found and recovered.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        let st = self.state.lock().unwrap();
        StoreStats {
            verdicts: st.verdicts.len(),
            corpora: st.corpora.len(),
            diffs: st.diffs.len(),
            scripts: st.scripts.len(),
            patterns: st.patterns.len(),
            log_bytes: st.len,
            write_errors: st.write_errors,
            wedged: st.wedged,
        }
    }

    /// Path of the record log backing this store.
    pub fn log_file(&self) -> &Path {
        &self.log
    }

    /// Path of the quarantine sidecar.
    pub fn sidecar_file(&self) -> &Path {
        &self.sidecar
    }

    /// Looks up a persisted fuzz campaign.
    pub fn get_corpus(&self, key: &CorpusKey) -> Option<FuzzReport> {
        self.state.lock().unwrap().corpora.get(key).cloned()
    }

    /// Durably records one fuzz campaign. First writer wins; re-recording
    /// an existing key is a no-op (warm runs must not grow the log).
    pub fn put_corpus(&self, key: &CorpusKey, rec: &FuzzReport) {
        let mut st = self.state.lock().unwrap();
        if st.corpora.contains_key(key) {
            return;
        }
        st.corpora.insert(key.clone(), rec.clone());
        let payload = codec::encode_corpus(key, rec);
        self.append_payload(&mut st, &payload);
    }

    /// Looks up the persisted winning script for a subject.
    pub fn get_script(&self, key: &ScriptKey) -> Option<EditScript> {
        self.state.lock().unwrap().scripts.get(key).cloned()
    }

    /// Durably records the winning script of a successful repair search.
    /// First writer wins; empty scripts (a subject that needed no edits)
    /// are not worth a record and are dropped.
    pub fn put_script(&self, key: &ScriptKey, script: &EditScript) {
        if script.is_empty() {
            return;
        }
        let mut st = self.state.lock().unwrap();
        if st.scripts.contains_key(key) {
            return;
        }
        st.scripts.insert(key.clone(), script.clone());
        let payload = codec::encode_script(key, script);
        self.append_payload(&mut st, &payload);
    }

    /// Every persisted winning script, sorted by key so mining input is
    /// independent of insertion order.
    pub fn scripts(&self) -> Vec<(ScriptKey, EditScript)> {
        let st = self.state.lock().unwrap();
        let mut out: Vec<_> = st
            .scripts
            .iter()
            .map(|(k, s)| (k.clone(), s.clone()))
            .collect();
        out.sort_by(|(a, _), (b, _)| {
            (a.program_fp, &a.kernel, &a.backend).cmp(&(b.program_fp, &b.kernel, &b.backend))
        });
        out
    }

    /// Durably records one mined fix pattern, keyed by its abstracted edit
    /// sequence. First writer wins (support counts are re-derived by
    /// re-mining, not accumulated in place).
    pub fn put_pattern(&self, pattern: &FixPattern) {
        if pattern.edits.is_empty() {
            return;
        }
        let mut st = self.state.lock().unwrap();
        if st.patterns.contains_key(&pattern.edits) {
            return;
        }
        st.patterns.insert(pattern.edits.clone(), pattern.support);
        let payload = codec::encode_pattern(pattern);
        self.append_payload(&mut st, &payload);
    }

    /// Every persisted fix pattern, in the mined ranking (support
    /// descending, longer sequences first, then shape) — ready to feed
    /// `SearchConfigBuilder::with_mined_patterns` directly.
    pub fn patterns(&self) -> Vec<FixPattern> {
        let st = self.state.lock().unwrap();
        let mut out: Vec<_> = st
            .patterns
            .iter()
            .map(|(edits, support)| FixPattern {
                edits: edits.clone(),
                support: *support,
            })
            .collect();
        out.sort_by(|a, b| {
            b.support
                .cmp(&a.support)
                .then(b.edits.len().cmp(&a.edits.len()))
                .then_with(|| a.edits.cmp(&b.edits))
        });
        out
    }

    /// Rewrites the log as one clean generation (every live entry, no
    /// quarantined garbage, deterministic order) and atomically renames it
    /// over the old log. Returns the new log length.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the old log is untouched unless the
    /// rename succeeded.
    pub fn compact(&self) -> Result<u64, StoreError> {
        let mut st = self.state.lock().unwrap();
        let mut bytes = log::file_header();
        let mut verdicts: Vec<_> = st.verdicts.iter().collect();
        verdicts.sort_by(|(a, _), (b, _)| {
            (a.program_fp, a.node_fp, &a.backend, a.style_gate).cmp(&(
                b.program_fp,
                b.node_fp,
                &b.backend,
                b.style_gate,
            ))
        });
        for (k, v) in verdicts {
            bytes.extend_from_slice(&log::encode_record(codec::encode_verdict(k, v).as_bytes()));
        }
        let mut corpora: Vec<_> = st.corpora.iter().collect();
        corpora.sort_by(|(a, _), (b, _)| {
            (a.program_fp, &a.kernel, a.seeds_fp, a.config_fp).cmp(&(
                b.program_fp,
                &b.kernel,
                b.seeds_fp,
                b.config_fp,
            ))
        });
        for (k, r) in corpora {
            bytes.extend_from_slice(&log::encode_record(codec::encode_corpus(k, r).as_bytes()));
        }
        let mut diffs: Vec<_> = st.diffs.iter().collect();
        diffs.sort_by(|(a, _), (b, _)| {
            (
                a.program_fp,
                a.reference_fp,
                &a.kernel,
                a.tests_fp,
                &a.backend,
            )
                .cmp(&(
                    b.program_fp,
                    b.reference_fp,
                    &b.kernel,
                    b.tests_fp,
                    &b.backend,
                ))
        });
        for (k, v) in diffs {
            bytes.extend_from_slice(&log::encode_record(codec::encode_diff(k, v).as_bytes()));
        }
        let mut scripts: Vec<_> = st.scripts.iter().collect();
        scripts.sort_by(|(a, _), (b, _)| {
            (a.program_fp, &a.kernel, &a.backend).cmp(&(b.program_fp, &b.kernel, &b.backend))
        });
        for (k, s) in scripts {
            bytes.extend_from_slice(&log::encode_record(codec::encode_script(k, s).as_bytes()));
        }
        let mut patterns: Vec<_> = st.patterns.iter().collect();
        patterns.sort_by(|(a, sa), (b, sb)| {
            sb.cmp(sa)
                .then(b.len().cmp(&a.len()))
                .then_with(|| a.cmp(b))
        });
        for (edits, support) in patterns {
            let p = FixPattern {
                edits: edits.clone(),
                support: *support,
            };
            bytes.extend_from_slice(&log::encode_record(codec::encode_pattern(&p).as_bytes()));
        }
        self.io.write_file(&self.generation, &bytes)?;
        self.io.rename(&self.generation, &self.log)?;
        st.len = bytes.len() as u64;
        // A fresh generation is intact by construction: un-wedge.
        st.wedged = false;
        Ok(st.len)
    }

    /// Best-effort append honoring the infallible-store contract: errors
    /// become dropped writes, torn appends are rolled back by truncating
    /// to the last known-good length.
    fn append_payload(&self, st: &mut State, payload: &str) {
        if st.wedged {
            st.write_errors += 1;
            return;
        }
        let rec = log::encode_record(payload.as_bytes());
        match self.io.append(&self.log, &rec) {
            Ok(n) if n == rec.len() => st.len += n as u64,
            Ok(_) => {
                // Torn append: roll the tail back so the log stays clean
                // for the next reader even if we crash right after.
                st.write_errors += 1;
                if self.io.truncate(&self.log, st.len).is_err() {
                    st.wedged = true;
                }
            }
            Err(_) => st.write_errors += 1,
        }
    }
}

impl VerdictStore for Store {
    fn get_verdict(&self, key: &VerdictKey) -> Option<EvalResult> {
        self.state.lock().unwrap().verdicts.get(key).cloned()
    }

    fn put_verdict(&self, key: &VerdictKey, r: &EvalResult) {
        let mut st = self.state.lock().unwrap();
        if st.verdicts.contains_key(key) {
            return;
        }
        st.verdicts.insert(key.clone(), r.clone());
        let payload = codec::encode_verdict(key, r);
        self.append_payload(&mut st, &payload);
    }

    fn get_diff(&self, key: &DiffKey) -> Option<DiffReport> {
        self.state.lock().unwrap().diffs.get(key).copied()
    }

    fn put_diff(&self, key: &DiffKey, v: &DiffReport) {
        let mut st = self.state.lock().unwrap();
        if st.diffs.contains_key(key) {
            return;
        }
        st.diffs.insert(key.clone(), *v);
        let payload = codec::encode_diff(key, v);
        self.append_payload(&mut st, &payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use heterogen_faults::IoFaultPlan;
    use minic_exec::{ArgValue, Profile};
    use testgen::FuzzRound;

    fn dir() -> PathBuf {
        PathBuf::from("/store")
    }

    fn vkey(n: u64) -> VerdictKey {
        VerdictKey {
            program_fp: n,
            node_fp: n.wrapping_mul(31),
            backend: "hls_sim".to_string(),
            style_gate: false,
        }
    }

    fn verdict(loc: usize) -> EvalResult {
        EvalResult {
            style_clean: true,
            loc,
            diags: Some(std::sync::Arc::new(Vec::new())),
            transients: 0,
        }
    }

    fn dkey(n: u64) -> DiffKey {
        DiffKey {
            program_fp: n,
            reference_fp: 9,
            kernel: "kernel".to_string(),
            tests_fp: 11,
            backend: "hls_sim".to_string(),
        }
    }

    fn corpus_record() -> FuzzReport {
        FuzzReport {
            corpus: vec![vec![ArgValue::Int(1)], vec![ArgValue::Float(2.5)]],
            executed: 120,
            sim_minutes: 1.44,
            coverage: 0.875,
            profile: Profile::new(),
            peak_heap_cells: 3,
            failing: vec![vec![ArgValue::Int(-1)]],
            rounds: vec![FuzzRound {
                round: 0,
                executed: 120,
                corpus: 2,
                new_coverage: true,
                at_min: 1.44,
            }],
        }
    }

    #[test]
    fn fresh_store_round_trips_across_reopen() {
        let mem = Arc::new(MemIo::new());
        let ckey = fuzz_campaign_key(
            9,
            "kernel",
            &[vec![ArgValue::Int(7)]],
            &FuzzConfig::default(),
        );
        {
            let s = Store::open_with(&dir(), mem.clone()).unwrap();
            assert!(s.recovery().created);
            s.put_verdict(&vkey(1), &verdict(10));
            s.put_verdict(&vkey(2), &verdict(20));
            s.put_corpus(&ckey, &corpus_record());
            s.put_diff(
                &dkey(5),
                &DiffReport {
                    pass_ratio: 1.0,
                    fpga_latency_ms: 3.25,
                },
            );
            assert_eq!(s.stats().write_errors, 0);
        }
        let s = Store::open_with(&dir(), mem).unwrap();
        assert!(s.recovery().clean());
        assert_eq!(s.recovery().records, 4);
        assert_eq!(s.recovery().diffs, 1);
        assert_eq!(s.get_verdict(&vkey(1)).unwrap().loc, 10);
        assert_eq!(s.get_verdict(&vkey(2)).unwrap().loc, 20);
        assert_eq!(s.get_corpus(&ckey).unwrap(), corpus_record());
        assert_eq!(s.get_diff(&dkey(5)).unwrap().fpga_latency_ms, 3.25);
        assert!(s.get_verdict(&vkey(3)).is_none());
        assert!(s.get_diff(&dkey(6)).is_none());
    }

    #[test]
    fn scripts_and_patterns_round_trip_and_rank() {
        use repair::{EditKind, ScriptEdit};
        let mem = Arc::new(MemIo::new());
        let skey = |n: u64| ScriptKey {
            program_fp: n,
            kernel: "kernel".to_string(),
            backend: "hls_sim".to_string(),
        };
        let script = EditScript {
            edits: vec![
                ScriptEdit {
                    kind: EditKind::StackTrans,
                    site: Some("kernel".to_string()),
                    symbol: None,
                    value: Some(32),
                    label: None,
                },
                ScriptEdit::bare(EditKind::Resize),
            ],
        };
        let rare = FixPattern {
            edits: repair::mine::abstract_script(&script)[..1].to_vec(),
            support: 1,
        };
        let common = FixPattern {
            edits: repair::mine::abstract_script(&script),
            support: 4,
        };
        {
            let s = Store::open_with(&dir(), mem.clone()).unwrap();
            s.put_script(&skey(1), &script);
            s.put_script(&skey(1), &EditScript::new()); // first writer wins
            s.put_script(&skey(2), &EditScript::new()); // empty: dropped
            s.put_pattern(&rare);
            s.put_pattern(&common);
            s.put_pattern(&FixPattern {
                edits: common.edits.clone(),
                support: 99, // first writer wins
            });
            assert_eq!(s.stats().write_errors, 0);
        }
        let s = Store::open_with(&dir(), mem).unwrap();
        assert!(s.recovery().clean());
        assert_eq!(s.recovery().scripts, 1);
        assert_eq!(s.recovery().patterns, 2);
        assert_eq!(s.get_script(&skey(1)).unwrap(), script);
        assert!(s.get_script(&skey(2)).is_none());
        assert_eq!(s.scripts(), vec![(skey(1), script)]);
        // Ranked: higher support first, original support preserved.
        assert_eq!(s.patterns(), vec![common, rare]);
    }

    #[test]
    fn duplicate_puts_do_not_grow_the_log() {
        let mem = Arc::new(MemIo::new());
        let s = Store::open_with(&dir(), mem.clone()).unwrap();
        s.put_verdict(&vkey(1), &verdict(10));
        let len = s.stats().log_bytes;
        s.put_verdict(&vkey(1), &verdict(10));
        s.put_verdict(&vkey(1), &verdict(99)); // first writer wins
        assert_eq!(s.stats().log_bytes, len);
        assert_eq!(s.get_verdict(&vkey(1)).unwrap().loc, 10);
    }

    #[test]
    fn torn_tail_is_recovered_and_quarantined() {
        let mem = Arc::new(MemIo::new());
        {
            let s = Store::open_with(&dir(), mem.clone()).unwrap();
            s.put_verdict(&vkey(1), &verdict(10));
            s.put_verdict(&vkey(2), &verdict(20));
        }
        // Crash mid-append of record 2: cut the file inside its payload.
        let full = mem.snapshot(&log_path(&dir())).unwrap();
        let boundary = {
            let r = log::replay(&full).unwrap();
            r.records[1].offset as usize
        };
        let cut = boundary + log::RECORD_HEADER_LEN + 3;
        mem.set(&log_path(&dir()), full[..cut].to_vec());

        let s = Store::open_with(&dir(), mem.clone()).unwrap();
        assert!(!s.recovery().clean());
        assert_eq!(s.recovery().records, 1);
        assert_eq!(s.recovery().quarantined_bytes, (cut - boundary) as u64);
        assert_eq!(s.get_verdict(&vkey(1)).unwrap().loc, 10);
        assert!(s.get_verdict(&vkey(2)).is_none());
        // Evidence preserved, log truncated back to the intact prefix.
        let quarantined = mem.snapshot(&sidecar_path(&dir())).unwrap();
        assert_eq!(quarantined, full[boundary..cut].to_vec());
        assert_eq!(
            mem.snapshot(&log_path(&dir())).unwrap(),
            full[..boundary].to_vec()
        );
        // The recovered store keeps working.
        s.put_verdict(&vkey(3), &verdict(30));
        let s2 = Store::open_with(&dir(), mem).unwrap();
        assert!(s2.recovery().clean());
        assert_eq!(s2.get_verdict(&vkey(3)).unwrap().loc, 30);
    }

    #[test]
    fn checksum_valid_but_unknown_schema_truncates_there() {
        let mem = Arc::new(MemIo::new());
        {
            let s = Store::open_with(&dir(), mem.clone()).unwrap();
            s.put_verdict(&vkey(1), &verdict(10));
        }
        let mut bytes = mem.snapshot(&log_path(&dir())).unwrap();
        let good = bytes.len();
        bytes.extend_from_slice(&log::encode_record(b"{\"kind\":\"mystery\",\"v\":1}"));
        mem.set(&log_path(&dir()), bytes);

        let s = Store::open_with(&dir(), mem.clone()).unwrap();
        assert!(!s.recovery().clean());
        assert_eq!(s.recovery().records, 1);
        assert_eq!(s.get_verdict(&vkey(1)).unwrap().loc, 10);
        assert_eq!(mem.snapshot(&log_path(&dir())).unwrap().len(), good);
        assert!(mem.snapshot(&sidecar_path(&dir())).is_some());
    }

    #[test]
    fn foreign_files_and_version_skew_are_refused_untouched() {
        let mem = Arc::new(MemIo::new());
        mem.set(&log_path(&dir()), b"#!/bin/sh\necho not a log\n".to_vec());
        match Store::open_with(&dir(), mem.clone()) {
            Err(StoreError::NotAStoreLog { .. }) => {}
            other => panic!("expected NotAStoreLog, got {other:?}"),
        }
        assert_eq!(
            mem.snapshot(&log_path(&dir())).unwrap(),
            b"#!/bin/sh\necho not a log\n".to_vec(),
            "refused file must not be modified"
        );

        let mut header = log::file_header();
        header[log::MAGIC.len()..].copy_from_slice(&9u32.to_le_bytes());
        mem.set(&log_path(&dir()), header.clone());
        match Store::open_with(&dir(), mem.clone()) {
            Err(StoreError::VersionMismatch {
                found: 9, expected, ..
            }) => {
                assert_eq!(expected, log::SCHEMA_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        assert_eq!(mem.snapshot(&log_path(&dir())).unwrap(), header);
    }

    #[test]
    fn compaction_preserves_entries_and_clears_garbage() {
        let mem = Arc::new(MemIo::new());
        let ckey = fuzz_campaign_key(9, "kernel", &[], &FuzzConfig::default());
        {
            let s = Store::open_with(&dir(), mem.clone()).unwrap();
            for i in 0..5 {
                s.put_verdict(&vkey(i), &verdict(i as usize));
            }
            s.put_corpus(&ckey, &corpus_record());
            for i in 0..3 {
                s.put_diff(
                    &dkey(i),
                    &DiffReport {
                        pass_ratio: 0.5,
                        fpga_latency_ms: i as f64,
                    },
                );
            }
            s.put_script(
                &ScriptKey {
                    program_fp: 4,
                    kernel: "kernel".to_string(),
                    backend: "hls_sim".to_string(),
                },
                &EditScript {
                    edits: vec![repair::ScriptEdit::bare(repair::EditKind::Flatten)],
                },
            );
            s.put_pattern(&FixPattern {
                edits: vec![repair::PatternEdit {
                    kind: repair::EditKind::Flatten,
                    has_site: false,
                    has_symbol: false,
                    has_value: false,
                    label: None,
                }],
                support: 2,
            });
            let before = s.stats().log_bytes;
            let after = s.compact().unwrap();
            assert!(after <= before);
        }
        let s = Store::open_with(&dir(), mem.clone()).unwrap();
        assert!(s.recovery().clean());
        assert_eq!(s.stats().verdicts, 5);
        assert_eq!(s.stats().corpora, 1);
        assert_eq!(s.stats().diffs, 3);
        assert_eq!(s.stats().scripts, 1);
        assert_eq!(s.stats().patterns, 1);
        // Compaction output is deterministic: compacting the reopened
        // store byte-identically reproduces the file.
        let first = mem.snapshot(&log_path(&dir())).unwrap();
        s.compact().unwrap();
        assert_eq!(mem.snapshot(&log_path(&dir())).unwrap(), first);
    }

    #[test]
    fn injected_write_faults_drop_writes_but_never_corrupt_the_log() {
        let mem = Arc::new(MemIo::new());
        let plan = IoFaultPlan::builder(42)
            .with_short_write_rate(0.3)
            .with_enospc_rate(0.2)
            .build();
        let faulty = Arc::new(FaultyIo::new(mem.clone(), plan));
        let s = Store::open_with(&dir(), faulty.clone()).unwrap();
        for i in 0..40 {
            s.put_verdict(&vkey(i), &verdict(i as usize));
        }
        let stats = s.stats();
        assert!(faulty.injected() > 0, "plan must actually fire");
        assert!(stats.write_errors > 0);
        assert!(!stats.wedged);
        drop(s);

        // Whatever survived is a clean log: reopen without faults.
        let s = Store::open_with(&dir(), mem).unwrap();
        assert!(s.recovery().clean(), "recovery: {:?}", s.recovery());
        let persisted = (0..40)
            .filter(|&i| s.get_verdict(&vkey(i)).is_some())
            .count();
        assert_eq!(persisted + stats.write_errors as usize, 40);
        // Served values are exact.
        for i in 0..40 {
            if let Some(v) = s.get_verdict(&vkey(i)) {
                assert_eq!(v.loc, i as usize);
            }
        }
    }

    #[test]
    fn injected_bit_rot_on_open_recovers_a_prefix_deterministically() {
        let mem = Arc::new(MemIo::new());
        {
            let s = Store::open_with(&dir(), mem.clone()).unwrap();
            for i in 0..20 {
                s.put_verdict(&vkey(i), &verdict(i as usize));
            }
        }
        let plan = IoFaultPlan::builder(7).with_bit_flip_rate(1.0).build();
        let open_faulty = || {
            let faulty = Arc::new(FaultyIo::new(mem.clone(), plan));
            Store::open_with(&dir(), faulty).map(|s| {
                let rec = s.recovery().clone();
                let served: Vec<u64> = (0..20)
                    .filter(|&i| s.get_verdict(&vkey(i)).is_some())
                    .collect();
                (rec.records, rec.quarantined_bytes, served)
            })
        };
        // Same seed, same file ⇒ same flip ⇒ same recovery, twice over.
        // (Each open quarantines + truncates, so restore the image between.)
        let snapshot = mem.snapshot(&log_path(&dir())).unwrap();
        let a = open_faulty().unwrap();
        mem.set(&log_path(&dir()), snapshot.clone());
        mem.set(&sidecar_path(&dir()), Vec::new());
        let b = open_faulty().unwrap();
        assert_eq!(a, b);
        assert!(a.0 < 20, "the always-on flip must cost some records");
    }

    #[test]
    fn campaign_key_ignores_threads_and_engine_but_not_results_knobs() {
        let seeds = vec![vec![ArgValue::Int(1)]];
        let base = FuzzConfig::default();
        // The key's bytes are part of the store format: pin the default
        // configuration's and the benchmark suite's (`bench::standard_config`).
        let standard = FuzzConfig::builder()
            .with_idle_stop_min(1.0)
            .with_max_execs(800)
            .build();
        let config_fp = |cfg: &FuzzConfig| fuzz_campaign_key(1, "k", &seeds, cfg).config_fp;
        assert_eq!(config_fp(&base), 0x0758_0141_c241_e090);
        assert_eq!(config_fp(&standard), 0x2e79_fe3d_3b8f_c808);
        let mut threaded = base;
        threaded.threads = 8;
        assert_eq!(
            fuzz_campaign_key(1, "k", &seeds, &base),
            fuzz_campaign_key(1, "k", &seeds, &threaded)
        );
        let mut reseeded = base;
        reseeded.rng_seed ^= 1;
        assert_ne!(
            fuzz_campaign_key(1, "k", &seeds, &base),
            fuzz_campaign_key(1, "k", &seeds, &reseeded)
        );
        assert_ne!(
            fuzz_campaign_key(1, "k", &seeds, &base),
            fuzz_campaign_key(1, "k", &[], &base)
        );
        assert_ne!(
            fuzz_campaign_key(1, "k", &seeds, &base),
            fuzz_campaign_key(2, "k", &seeds, &base)
        );
    }
}
