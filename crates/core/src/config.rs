//! Tracer hardware configuration (paper §5, Tables 1 and 5).

/// Capacities of the TEST hardware structures.
///
/// Defaults reproduce the paper's implementation: eight comparator
/// banks; the five 2 kB speculation store buffers statically
/// partitioned into three buffers of heap store timestamps (192 lines),
/// one of cache-line timestamps and one of local-variable timestamps
/// (64 entries); and the Table 1 speculative buffer limits the overflow
/// analysis checks against (512 load lines in L1, 64 store-buffer
/// lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracerConfig {
    /// Number of comparator banks (concurrently traceable STLs).
    pub n_banks: usize,
    /// Heap store-timestamp FIFO capacity, in 32 B lines (3 × 2 kB
    /// buffers = 192 lines, §5.3).
    pub store_ts_lines: usize,
    /// Entries in the direct-mapped load-side cache-line timestamp
    /// table (Figure 4 indexes loads with address bits 13:5 → 512).
    pub ld_table_entries: usize,
    /// Entries in the direct-mapped store-side table (bits 10:5 → 64).
    pub st_table_entries: usize,
    /// Local-variable store-timestamp slots (one 2 kB buffer, 64
    /// entries).
    pub local_var_capacity: usize,
    /// Per-thread speculative load state limit in lines (Table 1:
    /// 16 kB / 32 B = 512).
    pub ld_line_limit: u32,
    /// Per-thread store buffer limit in lines (Table 1: 2 kB / 32 B =
    /// 64).
    pub st_line_limit: u32,
    /// Capacity of the extended implementation's per-PC dependency
    /// bins (the CAM/SRAM of Figure 8b). `0` disables the extension.
    pub pc_bin_capacity: usize,
    /// Adaptive bank policy (§5.2): free a bank after this many
    /// *consecutive* overflowing threads, so it can serve loops deeper
    /// in the nest ("when a comparator bank consistently predicts
    /// speculative buffer overflows for an outer STL, it can be freed
    /// to be used deeper in a loop nest"). `0` disables the policy.
    pub overflow_release_threads: u64,
    /// Adaptive annotation policy (§5.2): once a loop has this many
    /// recorded threads, stop allocating banks for it (the runtime
    /// would overwrite its annotations with `nop`s), guaranteeing
    /// deeply nested decompositions eventually get analyzed. `0`
    /// disables the policy.
    pub sufficient_threads: u64,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            n_banks: 8,
            store_ts_lines: 192,
            ld_table_entries: 512,
            st_table_entries: 64,
            local_var_capacity: 64,
            ld_line_limit: 512,
            st_line_limit: 64,
            pc_bin_capacity: 256,
            overflow_release_threads: 16,
            sufficient_threads: 0,
        }
    }
}

impl TracerConfig {
    /// A configuration with effectively unbounded structures — the
    /// "ideal hardware" used to quantify how much precision the real
    /// capacities give up (paper §6.2). Its 1M-entry line tables
    /// allocate slots on demand, so their memory scales with the line
    /// range a program touches, not with their capacity.
    pub fn unbounded() -> Self {
        TracerConfig {
            n_banks: 64,
            store_ts_lines: usize::MAX / 2,
            ld_table_entries: 1 << 20,
            st_table_entries: 1 << 20,
            local_var_capacity: usize::MAX / 2,
            ld_line_limit: 512,
            st_line_limit: 64,
            pc_bin_capacity: 1 << 16,
            overflow_release_threads: 0,
            sufficient_threads: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = TracerConfig::default();
        assert_eq!(c.n_banks, 8);
        assert_eq!(c.store_ts_lines, 192); // 6 kB of 32 B lines
        assert_eq!(c.ld_table_entries, 512);
        assert_eq!(c.st_table_entries, 64);
        assert_eq!(c.local_var_capacity, 64);
        // Table 1: 16 kB load buffer, 2 kB store buffer, 32 B lines
        assert_eq!(c.ld_line_limit * 32, 16 * 1024);
        assert_eq!(c.st_line_limit * 32, 2 * 1024);
    }

    #[test]
    fn tables_are_powers_of_two() {
        let c = TracerConfig::default();
        assert!(c.ld_table_entries.is_power_of_two());
        assert!(c.st_table_entries.is_power_of_two());
    }
}
