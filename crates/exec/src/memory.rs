//! Flat cell memory with a bump allocator and explicit free.
//!
//! Every scalar occupies one cell; aggregates are contiguous cell runs.
//! Cell address 0 is reserved as the null pointer. `sizeof(T)` in the
//! interpreter is measured in cells, so `malloc(sizeof(struct Node))`
//! allocates exactly the flattened field count.
//!
//! Every allocation is a block of at least one cell, so the bump allocator
//! hands out strictly increasing bases: the block table is an append-only
//! list sorted by base, searched in `O(log n)` and grown in `O(1)`.

use crate::error::{ExecError, Trap};
use crate::value::Value;

/// The most cells one machine may allocate over a run: 2^21, or 64 MiB of
/// 32-byte cells. The largest run in the paper experiments and benchmark
/// workloads allocates 417 447 cells; a repair candidate that grows a
/// backing array past the cap traps with [`Trap::OutOfMemory`] instead of
/// aborting the process.
pub const MAX_CELLS: usize = 1 << 21;

/// Flat memory: a growable vector of cells.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    cells: Vec<Value>,
    /// Peak number of live allocated cells (profiling input for array
    /// finitization).
    peak: usize,
    live: usize,
    /// `(base, cells)` of every allocation, in allocation (= base) order.
    blocks: Vec<(usize, usize)>,
}

impl Memory {
    /// Creates an empty memory (address 0 reserved).
    pub fn new() -> Memory {
        Memory {
            cells: vec![Value::Unit],
            peak: 0,
            live: 0,
            blocks: Vec::new(),
        }
    }

    /// Allocates `n` contiguous cells (at least one) initialized to zero
    /// ints, records the block, and returns its base address.
    ///
    /// # Errors
    ///
    /// [`Trap::OutOfMemory`] when the run would exceed [`MAX_CELLS`].
    pub fn alloc(&mut self, n: usize) -> Result<usize, ExecError> {
        let n = n.max(1);
        let base = self.cells.len();
        if n > MAX_CELLS - base {
            return Err(ExecError::trap(Trap::OutOfMemory));
        }
        self.cells
            .extend(std::iter::repeat_with(|| Value::int(0)).take(n));
        self.blocks.push((base, n));
        self.live += n;
        self.peak = self.peak.max(self.live);
        Ok(base)
    }

    /// Size in cells of the block whose base is `addr`; `None` for any
    /// other address (interior pointers and null included).
    pub fn block_size(&self, addr: usize) -> Option<usize> {
        self.blocks
            .binary_search_by_key(&addr, |&(base, _)| base)
            .ok()
            .map(|i| self.blocks[i].1)
    }

    /// `(base, cells)` of the block holding `addr`, if any.
    pub fn block_containing(&self, addr: usize) -> Option<(usize, usize)> {
        let i = self.blocks.partition_point(|&(base, _)| base <= addr);
        let (base, n) = *self.blocks.get(i.checked_sub(1)?)?;
        (addr < base + n).then_some((base, n))
    }

    /// Marks `n` cells as freed (storage is not reused; the interpreter only
    /// tracks live-size for profiling).
    pub fn free(&mut self, n: usize) {
        self.live = self.live.saturating_sub(n);
    }

    /// Reads a cell.
    pub fn load(&self, addr: usize) -> Result<&Value, ExecError> {
        if addr == 0 {
            return Err(ExecError::trap(Trap::NullDeref));
        }
        self.cells
            .get(addr)
            .ok_or_else(|| ExecError::trap(Trap::OutOfBounds { addr }))
    }

    /// Writes a cell.
    pub fn store(&mut self, addr: usize, v: Value) -> Result<(), ExecError> {
        if addr == 0 {
            return Err(ExecError::trap(Trap::NullDeref));
        }
        match self.cells.get_mut(addr) {
            Some(slot) => {
                *slot = v;
                Ok(())
            }
            None => Err(ExecError::trap(Trap::OutOfBounds { addr })),
        }
    }

    /// Reads `n` cells starting at `addr`.
    pub fn load_run(&self, addr: usize, n: usize) -> Result<Vec<Value>, ExecError> {
        (0..n).map(|i| self.load(addr + i).cloned()).collect()
    }

    /// Peak live allocation in cells.
    pub fn peak_cells(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_distinct_regions() {
        let mut m = Memory::new();
        let a = m.alloc(4).unwrap();
        let b = m.alloc(2).unwrap();
        assert!(a >= 1);
        assert_eq!(b, a + 4);
    }

    #[test]
    fn load_store_round_trip() {
        let mut m = Memory::new();
        let a = m.alloc(2).unwrap();
        m.store(a + 1, Value::int(42)).unwrap();
        assert_eq!(m.load(a + 1).unwrap().as_int(), 42);
    }

    #[test]
    fn null_access_traps() {
        let mut m = Memory::new();
        assert!(m.load(0).is_err());
        assert!(m.store(0, Value::int(1)).is_err());
    }

    #[test]
    fn oob_access_traps() {
        let m = Memory::new();
        assert!(m.load(999).is_err());
    }

    #[test]
    fn peak_tracks_live_allocation() {
        let mut m = Memory::new();
        m.alloc(10).unwrap();
        m.free(10);
        m.alloc(5).unwrap();
        assert_eq!(m.peak_cells(), 10);
    }

    #[test]
    fn block_table_knows_bases_and_interiors() {
        let mut m = Memory::new();
        let a = m.alloc(3).unwrap();
        let b = m.alloc(0).unwrap();
        assert_eq!(b, a + 3, "an empty request still takes one cell");
        assert_eq!(m.block_size(a), Some(3));
        assert_eq!(m.block_size(b), Some(1));
        assert_eq!(m.block_size(a + 1), None);
        assert_eq!(m.block_size(0), None);
        assert_eq!(m.block_containing(a + 2), Some((a, 3)));
        assert_eq!(m.block_containing(b), Some((b, 1)));
        assert_eq!(m.block_containing(b + 1), None);
        assert_eq!(m.block_containing(0), None);
    }

    #[test]
    fn allocation_past_the_cap_traps() {
        let mut m = Memory::new();
        let a = m.alloc(MAX_CELLS - 2).unwrap();
        assert_eq!(m.alloc(2), Err(ExecError::trap(Trap::OutOfMemory)));
        assert_eq!(m.alloc(usize::MAX), Err(ExecError::trap(Trap::OutOfMemory)));
        // A refused request leaves memory as it was; the last cell still fits.
        assert_eq!(m.alloc(1).unwrap(), a + MAX_CELLS - 2);
    }
}
