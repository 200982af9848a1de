//! `NEREPORT` — attestation extended with nesting relations (§ IV-E).
//!
//! "The current local and remote attestation only reports the measurement
//! of an individual enclave. However, to support nested enclave, the
//! attestation must be able to report the relationship between enclaves."
//! NEREPORT therefore returns the reporting enclave's measurement *plus*
//! the measurements and roles of every associated enclave, MACed with the
//! same per-target report-key hierarchy as EREPORT.
//!
//! Reports come from peers, so this module may not index, unwrap or
//! panic: every access is checked and a failure is an [`SgxError`].
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use ne_crypto::hmac::hmac_sha256;
use ne_crypto::Digest32;
use ne_sgx::attest::ReportData;
use ne_sgx::enclave::EnclaveId;
use ne_sgx::error::{Result, SgxError};
use ne_sgx::machine::Machine;

/// Role of a related enclave relative to the reporting enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// The related enclave is an outer enclave of the reporter.
    Outer,
    /// The related enclave is an inner enclave sharing the reporter.
    Inner,
}

/// One association record inside a nested report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationRecord {
    /// Role of the related enclave.
    pub relation: Relation,
    /// Its measurement.
    pub mrenclave: Digest32,
    /// Its signer identity.
    pub mrsigner: Digest32,
}

/// The NEREPORT output: an EREPORT body plus the association list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestedReport {
    /// Measurement of the reporting enclave.
    pub mrenclave: Digest32,
    /// Signer of the reporting enclave.
    pub mrsigner: Digest32,
    /// Caller payload.
    pub report_data: ReportData,
    /// Immediate associations of the reporting enclave.
    pub relations: Vec<RelationRecord>,
    /// MAC over everything above, keyed for the target enclave.
    pub mac: [u8; 32],
}

fn body(
    mrenclave: &Digest32,
    mrsigner: &Digest32,
    report_data: &ReportData,
    relations: &[RelationRecord],
) -> Vec<u8> {
    let mut b = Vec::with_capacity(128 + relations.len() * 65);
    b.extend_from_slice(mrenclave);
    b.extend_from_slice(mrsigner);
    b.extend_from_slice(report_data);
    b.extend_from_slice(&(relations.len() as u32).to_le_bytes());
    for r in relations {
        b.push(match r.relation {
            Relation::Outer => 0,
            Relation::Inner => 1,
        });
        b.extend_from_slice(&r.mrenclave);
        b.extend_from_slice(&r.mrsigner);
    }
    b
}

/// Executes `NEREPORT` for the enclave running on `core`, targeting
/// `target`.
///
/// An attestation of an outer enclave reports "the measurements of all
/// inner enclaves sharing the outer enclave, in addition to the measurement
/// of the outer enclave"; an inner enclave reports its outer(s).
///
/// # Errors
///
/// General-protection fault outside enclave mode; fails if `target` is not
/// a live initialized enclave.
pub fn nereport(
    machine: &mut Machine,
    core: usize,
    target: EnclaveId,
    report_data: ReportData,
) -> Result<NestedReport> {
    let eid = machine
        .current_enclave(core)
        .ok_or_else(|| SgxError::GeneralProtection("NEREPORT outside enclave mode".into()))?;
    let (mrenclave, mrsigner, outers, inners) = {
        let secs = machine
            .enclaves()
            .get(eid)
            .ok_or(SgxError::NoSuchEnclave(eid))?;
        (
            secs.mrenclave,
            secs.mrsigner,
            secs.outer_eids.clone(),
            secs.inner_eids.clone(),
        )
    };
    let mut relations = Vec::new();
    for (role, ids) in [(Relation::Outer, outers), (Relation::Inner, inners)] {
        for id in ids {
            if let Some(secs) = machine.enclaves().get(id) {
                relations.push(RelationRecord {
                    relation: role,
                    mrenclave: secs.mrenclave,
                    mrsigner: secs.mrsigner,
                });
            }
        }
    }
    let key = machine.derive_report_key(target)?;
    let mac = hmac_sha256(&key, &body(&mrenclave, &mrsigner, &report_data, &relations));
    Ok(NestedReport {
        mrenclave,
        mrsigner,
        report_data,
        relations,
        mac,
    })
}

/// Verifies a nested report from the enclave running on `core` (which must
/// have been the report's target).
///
/// # Errors
///
/// General-protection fault outside enclave mode.
pub fn verify_nested_report(
    machine: &mut Machine,
    core: usize,
    report: &NestedReport,
) -> Result<bool> {
    let eid = machine.current_enclave(core).ok_or_else(|| {
        SgxError::GeneralProtection("nested report verification outside enclave mode".into())
    })?;
    let key = machine.derive_report_key(eid)?;
    let expected = hmac_sha256(
        &key,
        &body(
            &report.mrenclave,
            &report.mrsigner,
            &report.report_data,
            &report.relations,
        ),
    );
    Ok(ne_crypto::ct::ct_eq(&expected, &report.mac))
}

#[cfg(test)]
#[allow(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]
mod tests {
    use super::*;
    use crate::nasso::{nasso, AssocPolicy, ExpectedIdentity};
    use ne_sgx::addr::{VirtAddr, VirtRange, PAGE_SIZE};
    use ne_sgx::config::HwConfig;
    use ne_sgx::enclave::{ProcessId, SigStruct};
    use ne_sgx::epcm::{PagePerms, PageType};
    use ne_sgx::instr::PageSource;

    fn build(m: &mut Machine, base: u64, signer: &[u8]) -> EnclaveId {
        let base = VirtAddr(base);
        let eid = m
            .ecreate(ProcessId(0), VirtRange::new(base, 2 * PAGE_SIZE as u64))
            .unwrap();
        m.add_tcs(eid, base, base.add(PAGE_SIZE as u64)).unwrap();
        m.eadd(
            eid,
            base.add(PAGE_SIZE as u64),
            PageType::Reg,
            PageSource::Zeros,
            PagePerms::RW,
        )
        .unwrap();
        m.eextend(eid, base.add(PAGE_SIZE as u64)).unwrap();
        let measured = m.enclaves().get(eid).unwrap().measurement.finalize();
        m.einit(eid, &SigStruct::new(signer, measured)).unwrap();
        eid
    }

    fn setup() -> (Machine, EnclaveId, EnclaveId, EnclaveId, EnclaveId) {
        let mut m = Machine::new(HwConfig::small());
        let outer = build(&mut m, 0x10_0000, b"provider");
        let i1 = build(&mut m, 0x20_0000, b"tenant1");
        let i2 = build(&mut m, 0x30_0000, b"tenant2");
        let verifier = build(&mut m, 0x40_0000, b"verifier");
        for inner in [i1, i2] {
            let oi = ExpectedIdentity::enclave(m.enclaves().get(outer).unwrap().mrenclave);
            let ii = ExpectedIdentity::enclave(m.enclaves().get(inner).unwrap().mrenclave);
            nasso(&mut m, inner, outer, &oi, &ii, AssocPolicy::SingleOuter).unwrap();
        }
        (m, outer, i1, i2, verifier)
    }

    #[test]
    fn outer_reports_all_inners() {
        let (mut m, outer, i1, i2, verifier) = setup();
        m.eenter(0, outer, VirtAddr(0x10_0000)).unwrap();
        let report = nereport(&mut m, 0, verifier, [0u8; 64]).unwrap();
        m.eexit(0).unwrap();
        assert_eq!(report.relations.len(), 2);
        let i1_mre = m.enclaves().get(i1).unwrap().mrenclave;
        let i2_mre = m.enclaves().get(i2).unwrap().mrenclave;
        assert!(report
            .relations
            .iter()
            .any(|r| r.relation == Relation::Inner && r.mrenclave == i1_mre));
        assert!(report
            .relations
            .iter()
            .any(|r| r.relation == Relation::Inner && r.mrenclave == i2_mre));
        // Verifier accepts.
        m.eenter(0, verifier, VirtAddr(0x40_0000)).unwrap();
        assert!(verify_nested_report(&mut m, 0, &report).unwrap());
    }

    #[test]
    fn inner_reports_its_outer() {
        let (mut m, outer, i1, _i2, verifier) = setup();
        m.eenter(0, i1, VirtAddr(0x20_0000)).unwrap();
        let report = nereport(&mut m, 0, verifier, [9u8; 64]).unwrap();
        m.eexit(0).unwrap();
        let outer_mre = m.enclaves().get(outer).unwrap().mrenclave;
        assert_eq!(report.relations.len(), 1);
        assert_eq!(report.relations[0].relation, Relation::Outer);
        assert_eq!(report.relations[0].mrenclave, outer_mre);
    }

    #[test]
    fn forged_relation_detected() {
        let (mut m, outer, _i1, _i2, verifier) = setup();
        m.eenter(0, outer, VirtAddr(0x10_0000)).unwrap();
        let mut report = nereport(&mut m, 0, verifier, [0u8; 64]).unwrap();
        m.eexit(0).unwrap();
        // OS tries to hide one inner enclave from the verifier.
        report.relations.pop();
        m.eenter(0, verifier, VirtAddr(0x40_0000)).unwrap();
        assert!(!verify_nested_report(&mut m, 0, &report).unwrap());
    }

    #[test]
    fn unassociated_enclave_reports_empty_relations() {
        let (mut m, _outer, _i1, _i2, verifier) = setup();
        let lone = build(&mut m, 0x50_0000, b"lone");
        m.eenter(0, lone, VirtAddr(0x50_0000)).unwrap();
        let report = nereport(&mut m, 0, verifier, [0u8; 64]).unwrap();
        assert!(report.relations.is_empty());
    }

    #[test]
    fn nereport_requires_enclave_mode() {
        let (mut m, _o, _i1, _i2, verifier) = setup();
        assert!(nereport(&mut m, 0, verifier, [0u8; 64]).is_err());
    }
}
