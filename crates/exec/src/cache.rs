//! A bounded map with second-chance (clock) eviction, shared by the
//! process-wide compile cache ([`compiled_for`](crate::compiled_for)) and
//! the toolchain's co-simulation trace memo.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A second-chance (clock) cache: a `HashMap` for lookups plus an
/// insertion-order ring of keys with one referenced bit each. A hit sets
/// the entry's bit; eviction sweeps from the ring's front, granting each
/// referenced entry a second chance (bit cleared, re-queued at the back)
/// and removing the first unreferenced one. This approximates LRU with
/// O(1) hits and amortized O(1) eviction, and — unlike evicting an
/// arbitrary `HashMap` key — never discards an entry that was touched
/// since the last sweep while cold entries remain.
#[derive(Debug)]
pub struct SecondChanceCache<K, V> {
    map: HashMap<K, (V, bool)>,
    ring: VecDeque<K>,
    cap: usize,
    evictions: u64,
}

impl<K: Eq + Hash + Copy, V: Clone> SecondChanceCache<K, V> {
    /// Creates an empty cache holding at most `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics when `cap` is zero.
    pub fn new(cap: usize) -> SecondChanceCache<K, V> {
        assert!(cap > 0, "cache capacity must be positive");
        SecondChanceCache {
            map: HashMap::with_capacity(cap.min(1024)),
            ring: VecDeque::with_capacity(cap.min(1024)),
            cap,
            evictions: 0,
        }
    }

    /// Looks up `k`, marking the entry referenced on a hit.
    pub fn get(&mut self, k: &K) -> Option<V> {
        let (v, referenced) = self.map.get_mut(k)?;
        *referenced = true;
        Some(v.clone())
    }

    /// Inserts `k → v` unless `k` is already present (first writer wins,
    /// mirroring `entry().or_insert`), evicting the coldest entry when at
    /// capacity. Returns the value now cached under `k`.
    pub fn insert(&mut self, k: K, v: V) -> V {
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
                    self.evictions += 1;
                    break;
                }
            }
        }
        self.ring.push_back(k);
        self.map.insert(k, (v.clone(), false));
        v
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    #[cfg(test)]
    pub(crate) fn contains(&self, k: &K) -> bool {
        self.map.contains_key(k)
    }
}
