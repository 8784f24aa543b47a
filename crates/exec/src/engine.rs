//! The compile-once/run-many cache, and the reference engine switch.
//!
//! The repair loop executes every test input against every candidate, so a
//! candidate's `Program` is lowered to bytecode **once** (keyed by its
//! structural fingerprint, shared process-wide) and then executed many
//! times by cheap per-run [`Vm`] instances. Every program compiles, so the
//! VM is the one production engine; the tree-walking [`Machine`] stays
//! behind [`ExecEngine::TreeWalk`] only as the reference the parity tests
//! and the benchmark's output oracle check the VM against.

use crate::bytecode::{compile, CompiledProgram};
use crate::error::ExecError;
use crate::interp::Machine;
use crate::value::{ArgValue, Outcome, Value};
use crate::vm::Vm;
use crate::{CoverageMap, MachineConfig, Profile};
use minic::ast::{NodeId, Program};
use std::collections::BTreeMap;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Arc, Mutex, OnceLock};

/// Which interpreter executes a program.
///
/// Both engines are observably identical (values, traps and their message
/// strings, fuel accounting, coverage, profiles). `Bytecode` is the one
/// the pipeline runs; `TreeWalk` is the reference implementation that
/// parity tests and the benchmark's output oracle check it against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecEngine {
    /// The original AST-walking reference interpreter.
    TreeWalk,
    /// Compile-once/run-many bytecode VM.
    #[default]
    Bytecode,
}

/// Compile-cache key: the structural fingerprint **plus** the node-id
/// fingerprint. The structural fingerprint deliberately ignores `NodeId`s,
/// but a [`CompiledProgram`] bakes them into its branch/loop sites — two
/// print-identical programs with different id labelings (reparses,
/// candidates derived along different edit paths) must not share a
/// compiled form, or `coverage()`/`loop_stats()` would be keyed to the
/// other AST's ids and silently diverge from the tree-walker.
type CompileKey = (u64, u64);

/// Process-wide key → compiled-program cache.
static COMPILE_CACHE: OnceLock<Mutex<SecondChanceCache<CompileKey, Arc<CompiledProgram>>>> =
    OnceLock::new();

/// Capacity bound for the compile cache (the search working set is far
/// smaller; this only guards unbounded growth across long server runs).
/// At capacity the second-chance ring evicts the coldest entry — hot
/// entries survive arbitrarily many inserts, so a scan of one-shot
/// candidates cannot flush the working set and trigger a recompile storm.
const COMPILE_CACHE_CAP: usize = 4096;

/// A second-chance (clock) cache: a `HashMap` for lookups plus an
/// insertion-order ring of keys with one referenced bit each. A hit sets
/// the entry's bit; eviction sweeps from the ring's front, granting each
/// referenced entry a second chance (bit cleared, re-queued at the back)
/// and removing the first unreferenced one. This approximates LRU with
/// O(1) hits and amortized O(1) eviction, and — unlike evicting an
/// arbitrary `HashMap` key — never discards an entry that was touched
/// since the last sweep while cold entries remain.
#[derive(Debug)]
struct SecondChanceCache<K, V> {
    map: HashMap<K, (V, bool)>,
    ring: VecDeque<K>,
    cap: usize,
}

impl<K: Eq + Hash + Copy, V: Clone> SecondChanceCache<K, V> {
    fn new(cap: usize) -> SecondChanceCache<K, V> {
        assert!(cap > 0, "cache capacity must be positive");
        SecondChanceCache {
            map: HashMap::with_capacity(cap.min(1024)),
            ring: VecDeque::with_capacity(cap.min(1024)),
            cap,
        }
    }

    /// Looks up `k`, marking the entry referenced on a hit.
    fn get(&mut self, k: &K) -> Option<V> {
        let (v, referenced) = self.map.get_mut(k)?;
        *referenced = true;
        Some(v.clone())
    }

    /// Inserts `k → v` unless `k` is already present (first writer wins,
    /// mirroring `entry().or_insert`), evicting the coldest entry when at
    /// capacity. Returns the value now cached under `k`.
    fn insert(&mut self, k: K, v: V) -> V {
        if let Some((existing, referenced)) = self.map.get_mut(&k) {
            *referenced = true;
            return existing.clone();
        }
        while self.map.len() >= self.cap {
            let victim = self
                .ring
                .pop_front()
                .expect("ring and map hold the same keys");
            match self.map.get_mut(&victim) {
                Some((_, referenced)) if *referenced => {
                    *referenced = false;
                    self.ring.push_back(victim);
                }
                _ => {
                    self.map.remove(&victim);
                    break;
                }
            }
        }
        self.ring.push_back(k);
        self.map.insert(k, (v.clone(), false));
        v
    }

    #[cfg(test)]
    fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }
}

/// Returns the shared compiled form of `p`, compiling on first sight.
pub fn compiled_for(p: &Program) -> Arc<CompiledProgram> {
    let key = (
        minic::fingerprint_program(p),
        minic::fingerprint_node_ids(p),
    );
    let cache = COMPILE_CACHE.get_or_init(|| Mutex::new(SecondChanceCache::new(COMPILE_CACHE_CAP)));
    if let Some(hit) = cache.lock().expect("compile cache poisoned").get(&key) {
        return hit;
    }
    // Compile outside the lock: lowering is the expensive part.
    let compiled = Arc::new(compile(p));
    cache
        .lock()
        .expect("compile cache poisoned")
        .insert(key, compiled)
}

/// A program prepared for repeated execution under a chosen engine.
///
/// Construction performs (or fetches from the shared cache) the one-time
/// bytecode lowering; [`Prepared::runner`] then mints cheap per-run
/// interpreters.
#[derive(Debug)]
pub struct Prepared<'p> {
    program: &'p Program,
    /// `None` for the tree-walk reference.
    compiled: Option<Arc<CompiledProgram>>,
}

impl<'p> Prepared<'p> {
    pub fn new(engine: ExecEngine, program: &'p Program) -> Prepared<'p> {
        let compiled = match engine {
            ExecEngine::TreeWalk => None,
            ExecEngine::Bytecode => Some(compiled_for(program)),
        };
        Prepared { program, compiled }
    }

    /// Creates a fresh interpreter (runs global initializers, mirroring
    /// `Machine::new`).
    ///
    /// # Errors
    ///
    /// Fails when a global initializer traps — identically under both
    /// engines.
    pub fn runner(&self, config: MachineConfig) -> Result<Runner<'p>, ExecError> {
        match &self.compiled {
            Some(cp) => Ok(Runner::Vm(Box::new(Vm::new(Arc::clone(cp), config)?))),
            None => Ok(Runner::Tree(Box::new(Machine::new(self.program, config)?))),
        }
    }
}

/// A unified interpreter handle over the two engines.
pub enum Runner<'p> {
    Tree(Box<Machine<'p>>),
    Vm(Box<Vm>),
}

impl Runner<'_> {
    /// See [`Machine::run_kernel`].
    pub fn run_kernel(&mut self, name: &str, args: &[ArgValue]) -> Outcome {
        match self {
            Runner::Tree(m) => m.run_kernel(name, args),
            Runner::Vm(vm) => vm.run_kernel(name, args),
        }
    }

    /// See [`Machine::run_function`].
    ///
    /// # Errors
    ///
    /// Propagates traps and setup errors from the callee.
    pub fn run_function(&mut self, name: &str, args: Vec<Value>) -> Result<Value, ExecError> {
        match self {
            Runner::Tree(m) => m.run_function(name, args),
            Runner::Vm(vm) => vm.run_function(name, args),
        }
    }

    /// Abstract operations executed so far.
    pub fn ops(&self) -> u64 {
        match self {
            Runner::Tree(m) => m.ops(),
            Runner::Vm(vm) => vm.ops(),
        }
    }

    /// Branch coverage accumulated so far.
    pub fn coverage(&self) -> CoverageMap {
        match self {
            Runner::Tree(m) => m.coverage.clone(),
            Runner::Vm(vm) => vm.coverage(),
        }
    }

    /// Value-range/depth/heap profile accumulated so far.
    pub fn profile(&self) -> Profile {
        match self {
            Runner::Tree(m) => m.profile.clone(),
            Runner::Vm(vm) => vm.profile(),
        }
    }

    /// Per-loop iteration counts.
    pub fn loop_stats(&self) -> BTreeMap<NodeId, u64> {
        match self {
            Runner::Tree(m) => m.loop_stats.clone(),
            Runner::Vm(vm) => vm.loop_stats(),
        }
    }

    /// Peak heap cells allocated so far (feeds array finitization).
    pub fn peak_heap_cells(&self) -> usize {
        match self {
            Runner::Tree(m) => m.mem.peak_cells(),
            Runner::Vm(vm) => vm.mem.peak_cells(),
        }
    }

    /// Per-function call counts.
    pub fn call_counts(&self) -> BTreeMap<String, u64> {
        match self {
            Runner::Tree(m) => m.call_counts.clone(),
            Runner::Vm(vm) => vm.call_counts(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::SecondChanceCache;

    #[test]
    fn second_chance_pins_eviction_order_under_repeated_hits() {
        let mut c: SecondChanceCache<u32, u32> = SecondChanceCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        // Repeated hits on 1 and 3 set their referenced bits; 2 stays cold.
        for _ in 0..4 {
            assert_eq!(c.get(&1), Some(10));
            assert_eq!(c.get(&3), Some(30));
        }
        // At capacity the sweep grants 1 a second chance (it was hit) and
        // evicts 2, the first unreferenced entry — not an arbitrary key.
        c.insert(4, 40);
        assert!(c.contains(&1), "hot entry 1 must survive");
        assert!(!c.contains(&2), "cold entry 2 is the eviction victim");
        assert!(c.contains(&3), "hot entry 3 must survive");
        assert!(c.contains(&4));

        // State after that sweep: ring is [3, 1, 4]; 1's bit was cleared
        // when it was granted its second chance, 3's bit is still set (the
        // sweep stopped at 2 before reaching it), 4 is fresh/unreferenced.
        // The next insert therefore re-queues 3 and evicts 1.
        c.insert(5, 50);
        assert!(!c.contains(&1), "1's second chance was spent");
        assert!(c.contains(&3) && c.contains(&4) && c.contains(&5));

        // A hit between inserts re-protects an entry about to be swept:
        // ring is [4, 3, 5] with all bits clear; hitting 4 saves it and
        // the sweep falls through to 3.
        assert_eq!(c.get(&4), Some(40));
        c.insert(6, 60);
        assert!(c.contains(&4), "freshly hit entry survives");
        assert!(!c.contains(&3), "unreferenced 3 is evicted");
        assert!(c.contains(&5) && c.contains(&6));

        // Re-inserting an existing key is a no-op hit (first writer wins).
        assert_eq!(c.insert(4, 999), 40);
        assert_eq!(c.get(&4), Some(40));
    }

    #[test]
    fn second_chance_evicts_in_insertion_order_when_nothing_is_hit() {
        let mut c: SecondChanceCache<u32, &'static str> = SecondChanceCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        c.insert(3, "c");
        assert!(!c.contains(&1));
        c.insert(4, "d");
        assert!(!c.contains(&2));
        assert!(c.contains(&3) && c.contains(&4));
    }
}
