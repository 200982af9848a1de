//! Machine configuration.

use crate::cost::CostProfile;

/// Static configuration of a simulated machine.
#[derive(Debug, Clone)]
pub struct HwConfig {
    /// Number of logical cores.
    pub num_cores: usize,
    /// Total DRAM pages (physical address space size / 4 KiB).
    pub dram_pages: u64,
    /// Number of pages reserved for the Processor Reserved Memory region.
    /// The EPC lives inside PRM; PRM occupies the *last* `prm_pages` pages
    /// of DRAM.
    pub prm_pages: u64,
    /// TLB capacity per core, in entries.
    pub tlb_entries: usize,
    /// Last-level cache capacity in bytes.
    pub llc_bytes: usize,
    /// LLC associativity.
    pub llc_ways: usize,
    /// Cycle-cost profile.
    pub cost: CostProfile,
    /// When true, EWB-triggered TLB shootdowns interrupt every core instead
    /// of only the cores tracked as running the affected enclave tree.
    /// (§ IV-E: "A simplified, but potentially more costly solution is to
    /// send inter-processor interrupts to all the cores in the system.")
    pub flush_all_on_evict: bool,
    /// Record an event trace (cheap counters are always maintained).
    pub trace_events: bool,
    /// Run the naive (pre-optimization) translate/data-access pipeline
    /// instead of the fast one. Both produce byte-identical architectural
    /// outputs; the reference path exists as the differential oracle the
    /// optimized path is property-tested against. It selects only the
    /// machine's path: `ne-crypto` has no switch, and its tests call its
    /// reference forms by name.
    pub reference_path: bool,
}

impl HwConfig {
    /// A small machine suitable for unit tests: 4 cores, 16 MiB DRAM with a
    /// 4 MiB PRM, tiny TLBs so flush/refill behaviour is visible.
    pub fn small() -> HwConfig {
        HwConfig {
            num_cores: 4,
            dram_pages: 4096,
            prm_pages: 1024,
            tlb_entries: 64,
            llc_bytes: 2 * 1024 * 1024,
            llc_ways: 8,
            cost: CostProfile::emulated(),
            flush_all_on_evict: false,
            trace_events: false,
            reference_path: false,
        }
    }

    /// A machine shaped like the paper's testbed (i7-7700: 4 cores, 8 MiB
    /// LLC) with a large PRM so the case-study workloads fit.
    pub fn testbed() -> HwConfig {
        HwConfig {
            num_cores: 4,
            dram_pages: 16 * 1024 * 1024 / 4, // 16 GiB
            prm_pages: 4 * 1024 * 1024 / 4,   // 4 GiB PRM (generous; § V uses emulation)
            tlb_entries: 1536,
            llc_bytes: 8 * 1024 * 1024,
            llc_ways: 16,
            cost: CostProfile::emulated(),
            flush_all_on_evict: false,
            trace_events: false,
            reference_path: false,
        }
    }

    /// First PRM physical page number.
    pub fn prm_start(&self) -> u64 {
        self.dram_pages - self.prm_pages
    }

    /// True if physical page `ppn` lies inside PRM.
    pub fn in_prm(&self, ppn: u64) -> bool {
        ppn >= self.prm_start() && ppn < self.dram_pages
    }
}

impl Default for HwConfig {
    fn default() -> Self {
        HwConfig::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prm_is_top_of_dram() {
        let c = HwConfig::small();
        assert_eq!(c.prm_start(), 3072);
        assert!(c.in_prm(3072));
        assert!(c.in_prm(4095));
        assert!(!c.in_prm(3071));
        assert!(!c.in_prm(4096));
    }

    #[test]
    fn testbed_has_8mb_llc() {
        assert_eq!(HwConfig::testbed().llc_bytes, 8 * 1024 * 1024);
    }
}
