#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ne-sgx — a cycle-accounted simulator of the Intel SGX micro-architecture
//!
//! This crate is the hardware substrate for the reproduction of
//! *"Nested Enclave: Supporting Fine-grained Hierarchical Isolation with
//! SGX"* (ISCA 2020). It models the parts of SGX the paper's proposal
//! touches, at the level the proposal is defined at:
//!
//! * **Memory system** — sparse DRAM with a Processor Reserved Memory
//!   region, the Enclave Page Cache Map ([`epcm`]), untrusted OS page
//!   tables ([`page_table`]), per-core TLBs ([`tlb`]), a set-associative
//!   LLC ([`cache`]) and the Memory Encryption Engine ([`mee`]).
//! * **Access control** — the TLB-miss validation flow of the paper's
//!   Fig. 2, implemented as a swappable [`validate::TlbValidator`] so the
//!   nested-enclave extension (crate `ne-core`) can install its Fig. 6
//!   flow like a microcode patch.
//! * **Enclave life cycle** — ECREATE/EADD/EEXTEND/EINIT with real SHA-256
//!   measurement, EENTER/EEXIT/AEX/ERESUME with TLB-flush and
//!   register-scrub semantics, EWB/ELDU paging with sealing and rollback
//!   protection, and local attestation ([`attest`]).
//! * **Cost model** — every architectural action charges simulated cycles
//!   ([`cost`]), calibrated against the paper's Table II.
//!
//! # Example
//!
//! ```
//! use ne_sgx::addr::{VirtAddr, VirtRange, PAGE_SIZE};
//! use ne_sgx::config::HwConfig;
//! use ne_sgx::enclave::{ProcessId, SigStruct};
//! use ne_sgx::epcm::{PagePerms, PageType};
//! use ne_sgx::instr::PageSource;
//! use ne_sgx::machine::Machine;
//!
//! # fn main() -> Result<(), ne_sgx::error::SgxError> {
//! let mut m = Machine::new(HwConfig::small());
//! let base = VirtAddr(0x10_0000);
//! let eid = m.ecreate(ProcessId(0), VirtRange::new(base, 2 * PAGE_SIZE as u64))?;
//! m.add_tcs(eid, base, base.add(PAGE_SIZE as u64))?;
//! m.eadd(eid, base.add(PAGE_SIZE as u64), PageType::Reg,
//!        PageSource::Zeros, PagePerms::RW)?;
//! m.eextend(eid, base.add(PAGE_SIZE as u64))?;
//! let measured = m.enclaves().get(eid).unwrap().measurement.finalize();
//! m.einit(eid, &SigStruct::new(b"author", measured))?;
//! m.eenter(0, eid, base)?;
//! m.write(0, base.add(PAGE_SIZE as u64), b"sealed inside")?;
//! m.eexit(0)?;
//! // Untrusted reads of EPC memory observe only abort-page ones:
//! assert_eq!(m.read(0, base.add(PAGE_SIZE as u64), 4)?, vec![0xFF; 4]);
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod attest;
pub mod cache;
pub mod config;
pub mod cost;
pub mod enclave;
pub mod epcm;
pub mod error;
pub mod fault;
pub mod instr;
pub mod machine;
pub mod mee;
pub mod mem;
pub mod metrics;
pub mod page_table;
pub mod profile;
pub mod spantree;
pub mod tlb;
pub mod trace;
pub mod validate;

pub use addr::{PhysAddr, VirtAddr, VirtRange, PAGE_SIZE};
pub use config::HwConfig;
pub use cost::CostProfile;
pub use enclave::{EnclaveId, ProcessId, SigStruct};
pub use error::{FaultKind, Result, SgxError};
pub use fault::{ChaosStats, FaultPlan};
pub use instr::{EvictedPage, PageSource};
pub use machine::{AccessKind, CoreMode, Machine};
