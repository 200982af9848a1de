//! Cycle-cost model.
//!
//! Every architectural action charges simulated cycles to the executing
//! core. The constants are calibrated so the experiment harness reproduces
//! the paper's Table II latencies and the relative shapes of Figs. 7–11;
//! they are not microarchitecturally exact.
//!
//! Two profiles exist, mirroring the paper's methodology (§ V):
//!
//! * [`CostProfile::hw_sgx`] — real-hardware SGX transition costs
//!   (Table II row 1: ecall 3.45 µs, ocall 3.13 µs at 3.6 GHz).
//! * [`CostProfile::emulated`] — SDK simulation-mode costs (Table II rows
//!   2–3), which the paper uses for all comparative runs because nested
//!   enclave only exists in emulation.

/// Simulated clock frequency used to convert cycles to wall time.
pub const DEFAULT_CLOCK_GHZ: f64 = 3.6;

/// Cycle costs of architectural events.
#[derive(Debug, Clone, PartialEq)]
pub struct CostProfile {
    /// Human-readable profile name (shows up in experiment output).
    pub name: &'static str,
    /// Clock frequency in GHz, for cycle→time conversion.
    pub clock_ghz: f64,
    /// TLB hit during translation.
    pub tlb_hit: u64,
    /// Page-table walk on a TLB miss (before validation).
    pub tlb_miss_walk: u64,
    /// One step of the TLB-miss access-validation flow (Fig. 2 / Fig. 6).
    /// Nested validation takes more steps, so inner-enclave accesses to the
    /// outer enclave cost slightly more — the overhead § IV-D describes.
    pub validation_step: u64,
    /// Full TLB flush of one core.
    pub tlb_flush: u64,
    /// Last-level-cache hit.
    pub llc_hit: u64,
    /// DRAM access on an LLC miss (non-PRM line).
    pub dram_access: u64,
    /// Extra MEE work to decrypt+verify one PRM cache line on an LLC miss.
    pub mee_decrypt_line: u64,
    /// Extra MEE work to encrypt+hash one dirty PRM line on writeback.
    pub mee_encrypt_line: u64,
    /// EENTER/ERESUME round half: untrusted → enclave (one ecall direction,
    /// including SDK marshalling; Table II).
    pub ecall: u64,
    /// EEXIT half: enclave → untrusted (one ocall direction; Table II).
    pub ocall: u64,
    /// NEENTER: outer → inner direct transition (Table II `n_ecall`).
    pub n_ecall: u64,
    /// NEEXIT: inner → outer direct transition (Table II `n_ocall`).
    pub n_ocall: u64,
    /// Asynchronous enclave exit (interrupt delivery + state save).
    pub aex: u64,
    /// Inter-processor interrupt for eviction thread tracking.
    pub ipi: u64,
    /// ECREATE.
    pub ecreate: u64,
    /// EADD of one page (copy + EPCM update).
    pub eadd_page: u64,
    /// EEXTEND measurement of one page (16 × 256-byte chunks).
    pub eextend_page: u64,
    /// EINIT finalization.
    pub einit: u64,
    /// SGX2 EAUG of one page (zeroing + EPCM update).
    pub eaug_page: u64,
    /// SGX2 EACCEPT of one page.
    pub eaccept_page: u64,
    /// EWB eviction of one page (sealing).
    pub ewb_page: u64,
    /// ELDU reload of one page (unsealing + verification).
    pub eldu_page: u64,
    /// Software AES-GCM: fixed per-call setup cost (key schedule, J0, tag).
    pub gcm_setup: u64,
    /// Software AES-GCM: marginal cycles per byte (one direction).
    pub gcm_per_byte: u64,
}

impl CostProfile {
    /// Real-hardware SGX cost profile (Table II row "HW SGX ecall/ocall").
    pub fn hw_sgx() -> CostProfile {
        CostProfile {
            name: "hw-sgx",
            clock_ghz: DEFAULT_CLOCK_GHZ,
            tlb_hit: 1,
            tlb_miss_walk: 60,
            validation_step: 6,
            tlb_flush: 200,
            llc_hit: 30,
            dram_access: 170,
            mee_decrypt_line: 130,
            mee_encrypt_line: 130,
            // 3.45 µs / 3.13 µs at 3.6 GHz.
            ecall: 12_420,
            ocall: 11_268,
            // Nested transitions do not exist on real hardware; keep them at
            // the projected direct-switch cost for completeness.
            n_ecall: 4_000,
            n_ocall: 3_820,
            aex: 2_000,
            ipi: 1_500,
            ecreate: 10_000,
            eadd_page: 4_500,
            eextend_page: 9_600,
            einit: 60_000,
            eaug_page: 4_000,
            eaccept_page: 2_000,
            ewb_page: 12_000,
            eldu_page: 12_000,
            gcm_setup: 2_200,
            gcm_per_byte: 3,
        }
    }

    /// SDK simulation-mode cost profile (Table II rows "Emulated ...").
    ///
    /// The paper notes emulated transitions *underestimate* real costs; all
    /// comparative experiments use this profile for both the monolithic
    /// baseline and nested enclave, exactly as § V describes.
    pub fn emulated() -> CostProfile {
        CostProfile {
            name: "emulated",
            // 1.25 µs / 1.14 µs and 1.11 µs / 1.06 µs at 3.6 GHz.
            ecall: 4_500,
            ocall: 4_104,
            n_ecall: 3_996,
            n_ocall: 3_816,
            ..CostProfile::hw_sgx()
        }
    }

    /// Software AES-GCM over `len` bytes, one direction: the per-call
    /// setup plus the per-byte rate (Fig. 11's `GCM`).
    pub fn gcm(&self, len: usize) -> u64 {
        self.gcm_setup + self.gcm_per_byte * len as u64
    }

    /// Converts a cycle count to microseconds at this profile's clock.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1_000.0)
    }

    /// Converts microseconds to cycles at this profile's clock.
    pub fn us_to_cycles(&self, us: f64) -> u64 {
        (us * self.clock_ghz * 1_000.0) as u64
    }
}

impl Default for CostProfile {
    fn default() -> Self {
        CostProfile::emulated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_hw_latencies() {
        let p = CostProfile::hw_sgx();
        assert!((p.cycles_to_us(p.ecall) - 3.45).abs() < 0.01);
        assert!((p.cycles_to_us(p.ocall) - 3.13).abs() < 0.01);
    }

    #[test]
    fn table2_emulated_latencies() {
        let p = CostProfile::emulated();
        assert!((p.cycles_to_us(p.ecall) - 1.25).abs() < 0.01);
        assert!((p.cycles_to_us(p.ocall) - 1.14).abs() < 0.01);
        assert!((p.cycles_to_us(p.n_ecall) - 1.11).abs() < 0.01);
        assert!((p.cycles_to_us(p.n_ocall) - 1.06).abs() < 0.01);
    }

    #[test]
    fn emulated_underestimates_hardware() {
        // § V: "the emulated transitions ... tend to underestimate the
        // transition costs, compared to the real hardware measurement."
        let hw = CostProfile::hw_sgx();
        let em = CostProfile::emulated();
        assert!(em.ecall < hw.ecall);
        assert!(em.ocall < hw.ocall);
    }

    #[test]
    fn nested_cheaper_than_emulated_ecall() {
        let em = CostProfile::emulated();
        assert!(em.n_ecall < em.ecall);
        assert!(em.n_ocall < em.ocall);
    }

    #[test]
    fn cycle_time_roundtrip() {
        let p = CostProfile::emulated();
        assert_eq!(p.us_to_cycles(p.cycles_to_us(7200)), 7200);
    }
}
