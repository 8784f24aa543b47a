//! Value-range and resource profiling.
//!
//! HeteroGen's initial-HLS-version generation profiles the kernel under the
//! generated tests and records, per variable, the extreme values observed —
//! the input to bitwidth finitization (`int ret` observed ≤ 83 becomes
//! `fpga_uint<7>`). The profiler also tracks recursion depth and heap size,
//! which seed the stack/array sizing repairs.

use std::collections::BTreeMap;

/// Observed integer range of one variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// Minimum observed value.
    pub min: i128,
    /// Maximum observed value.
    pub max: i128,
}

impl Range {
    /// A range covering exactly one value.
    pub fn point(v: i128) -> Range {
        Range { min: v, max: v }
    }

    /// Extends the range to cover `v`.
    pub fn extend(&mut self, v: i128) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Minimal bits to hold every observed value (unsigned when min >= 0).
    pub fn required_bits(&self) -> (u16, bool) {
        let signed = self.min < 0;
        (
            minic::types::bits_for_range(self.min, self.max, signed),
            signed,
        )
    }
}

/// Accumulated profile over one or more executions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Integer ranges keyed by `(function, variable)`.
    pub int_ranges: BTreeMap<(String, String), Range>,
    /// Maximum observed direct-recursion depth per function.
    pub max_depth: BTreeMap<String, u64>,
    /// Peak live heap cells across runs.
    pub peak_heap_cells: usize,
    /// Maximum observed index per `(function, array)`.
    pub max_index: BTreeMap<(String, String), i128>,
}

/// Tuple map keys render as `"function::variable"` — JSON objects only take
/// string keys, and `::` cannot appear in a minic identifier, so the encoding
/// is unambiguous.
impl serde::Serialize for Profile {
    fn to_json_value(&self) -> serde::Value {
        use serde::Value;
        let int_ranges = self
            .int_ranges
            .iter()
            .map(|((f, v), r)| {
                (
                    format!("{f}::{v}"),
                    Value::Object(vec![
                        ("min".to_string(), Value::Int(r.min)),
                        ("max".to_string(), Value::Int(r.max)),
                    ]),
                )
            })
            .collect();
        let max_depth = self
            .max_depth
            .iter()
            .map(|(f, d)| (f.clone(), Value::Int(*d as i128)))
            .collect();
        let max_index = self
            .max_index
            .iter()
            .map(|((f, a), i)| (format!("{f}::{a}"), Value::Int(*i)))
            .collect();
        Value::Object(vec![
            ("int_ranges".to_string(), Value::Object(int_ranges)),
            ("max_depth".to_string(), Value::Object(max_depth)),
            (
                "peak_heap_cells".to_string(),
                Value::Int(self.peak_heap_cells as i128),
            ),
            ("max_index".to_string(), Value::Object(max_index)),
        ])
    }
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    /// Records an integer assignment to `var` in `function`.
    pub fn record_int(&mut self, function: &str, var: &str, v: i128) {
        self.int_ranges
            .entry((function.to_string(), var.to_string()))
            .and_modify(|r| r.extend(v))
            .or_insert_with(|| Range::point(v));
    }

    /// Records an observed recursion depth.
    pub fn record_depth(&mut self, function: &str, depth: u64) {
        let e = self.max_depth.entry(function.to_string()).or_insert(0);
        *e = (*e).max(depth);
    }

    /// Records an index used on `array` in `function`.
    pub fn record_index(&mut self, function: &str, array: &str, idx: i128) {
        let e = self
            .max_index
            .entry((function.to_string(), array.to_string()))
            .or_insert(i128::MIN);
        *e = (*e).max(idx);
    }

    /// Merges another profile into this one. A key already present is
    /// updated in place; only a new key is cloned.
    pub fn merge(&mut self, other: &Profile) {
        for (key, r) in &other.int_ranges {
            match self.int_ranges.get_mut(key) {
                Some(mine) => {
                    mine.extend(r.min);
                    mine.extend(r.max);
                }
                None => {
                    self.int_ranges.insert(key.clone(), *r);
                }
            }
        }
        for (f, d) in &other.max_depth {
            match self.max_depth.get_mut(f) {
                Some(mine) => *mine = (*mine).max(*d),
                None => {
                    self.max_depth.insert(f.clone(), *d);
                }
            }
        }
        self.peak_heap_cells = self.peak_heap_cells.max(other.peak_heap_cells);
        for (key, i) in &other.max_index {
            match self.max_index.get_mut(key) {
                Some(mine) => *mine = (*mine).max(*i),
                None => {
                    self.max_index.insert(key.clone(), *i);
                }
            }
        }
    }

    /// The observed range of a variable, if any.
    pub fn range_of(&self, function: &str, var: &str) -> Option<Range> {
        self.int_ranges
            .get(&(function.to_string(), var.to_string()))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_extends_and_sizes() {
        let mut r = Range::point(10);
        r.extend(83);
        r.extend(0);
        assert_eq!(r, Range { min: 0, max: 83 });
        assert_eq!(r.required_bits(), (7, false));
    }

    #[test]
    fn signed_ranges_need_sign_bit() {
        let r = Range { min: -3, max: 83 };
        assert_eq!(r.required_bits(), (8, true));
    }

    #[test]
    fn profile_records_and_merges() {
        let mut a = Profile::new();
        a.record_int("k", "ret", 10);
        a.record_depth("traverse", 5);
        let mut b = Profile::new();
        b.record_int("k", "ret", 83);
        b.record_depth("traverse", 9);
        b.peak_heap_cells = 128;
        a.merge(&b);
        assert_eq!(a.range_of("k", "ret"), Some(Range { min: 10, max: 83 }));
        assert_eq!(a.max_depth["traverse"], 9);
        assert_eq!(a.peak_heap_cells, 128);
    }

    #[test]
    fn index_profile() {
        let mut p = Profile::new();
        p.record_index("f", "buf", 3);
        p.record_index("f", "buf", 12);
        assert_eq!(p.max_index[&("f".into(), "buf".into())], 12);
    }
}
