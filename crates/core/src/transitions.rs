//! `NEENTER` / `NEEXIT` — direct inner↔outer transitions (Table I, § IV-B).
//!
//! These are the instructions that make nested enclaves cheap: switching
//! between an inner and its outer never drops to the untrusted context.
//! Both flush the TLB (translations of the two domains differ in what they
//! may contain) and both scrub the architectural registers when control
//! moves *down* a security level (inner → outer), so inner state cannot
//! leak.
//!
//! The pair supports both call directions of Fig. 5:
//!
//! * **outer calls inner (n_ecall)** — `NEENTER` acquires the inner's TCS,
//!   recording the outer context in it; the matching `NEEXIT` returns.
//! * **inner calls outer (n_ocall)** — `NEEXIT` suspends the inner thread
//!   in its own TCS (context saved in the SSA, TCS stays busy), acquires an
//!   idle TCS of the outer enclave, and records the inner context there;
//!   the matching `NEENTER` back into the busy-but-suspended inner TCS
//!   resumes it and releases the outer slot.

use ne_sgx::addr::VirtAddr;
use ne_sgx::enclave::{EnclaveId, SavedContext};
use ne_sgx::error::{Result, SgxError};
use ne_sgx::machine::{CoreMode, Machine};
use ne_sgx::trace::Event;

/// `NEENTER`: transitions `core` from its current (outer) enclave into the
/// inner enclave `inner` through the TCS at `tcs_va`.
///
/// Checks, per § IV-B: the core must be in enclave mode; the destination
/// enclave must exist and be an inner of the current enclave; the TCS must
/// belong to it and be idle — or be the suspended frame of an n_ocall this
/// thread is returning from. "Any invalid invocation results in a general
/// protection fault."
///
/// # Errors
///
/// [`SgxError::GeneralProtection`] on every invalid invocation.
pub fn neenter(
    machine: &mut Machine,
    core: usize,
    inner: EnclaveId,
    tcs_va: VirtAddr,
) -> Result<()> {
    let (outer_eid, outer_tcs) = match machine.core(core).mode {
        CoreMode::Enclave { eid, tcs } => (eid, tcs),
        CoreMode::NonEnclave => {
            return Err(SgxError::GeneralProtection(
                "NEENTER outside enclave mode".into(),
            ))
        }
    };
    {
        let secs = machine
            .enclaves()
            .get(inner)
            .ok_or(SgxError::NoSuchEnclave(inner))?;
        if !secs.is_initialized() {
            return Err(SgxError::GeneralProtection(
                "NEENTER into uninitialized enclave".into(),
            ));
        }
        if !secs.outer_eids.contains(&outer_eid) {
            return Err(SgxError::GeneralProtection(
                "NEENTER destination is not an inner enclave of the caller".into(),
            ));
        }
    }
    // A crashed inner enclave faults fresh entries until it is rebuilt
    // (same semantics as EENTER into a poisoned enclave).
    if machine.is_poisoned(inner) {
        return Err(SgxError::EnclavePoisoned(inner));
    }
    // Distinguish a fresh call from an n_ocall return: on return, the
    // *current outer* TCS carries a caller link pointing at `tcs_va`.
    let returning = machine
        .tcs(outer_eid, outer_tcs)
        .map(|t| t.caller == Some((inner, tcs_va)))
        .unwrap_or(false);
    if returning {
        let saved = {
            let inner_tcs = machine
                .tcs_mut(inner, tcs_va)
                .ok_or_else(|| SgxError::GeneralProtection("NEENTER with invalid TCS".into()))?;
            inner_tcs.ssa.take().ok_or_else(|| {
                SgxError::GeneralProtection("NEENTER return without suspended context".into())
            })?
        };
        // Release the outer slot acquired by the n_ocall.
        let outer_slot = machine.tcs_mut(outer_eid, outer_tcs).expect("checked");
        outer_slot.busy = false;
        outer_slot.caller = None;
        *machine.regs_mut(core) = saved;
        machine.flush_tlb(core);
        machine.set_core_mode(
            core,
            CoreMode::Enclave {
                eid: inner,
                tcs: tcs_va,
            },
        );
        if let Some(secs) = machine.enclaves_mut().get_mut(outer_eid) {
            secs.active_threads = secs.active_threads.saturating_sub(1);
        }
    } else {
        {
            let tcs = machine
                .tcs_mut(inner, tcs_va)
                .ok_or_else(|| SgxError::GeneralProtection("NEENTER with invalid TCS".into()))?;
            if tcs.busy {
                return Err(SgxError::GeneralProtection("NEENTER on busy TCS".into()));
            }
            tcs.busy = true;
            tcs.caller = Some((outer_eid, outer_tcs));
        }
        machine.flush_tlb(core);
        machine.set_core_mode(
            core,
            CoreMode::Enclave {
                eid: inner,
                tcs: tcs_va,
            },
        );
        machine
            .enclaves_mut()
            .get_mut(inner)
            .expect("validated above")
            .active_threads += 1;
    }
    machine.note(Event::Neenter {
        core,
        from: outer_eid,
        to: inner,
    });
    Ok(())
}

/// `NEEXIT`: transitions `core` from an inner enclave to its outer
/// enclave, clearing "all the information of the inner enclave by flushing
/// the TLB and setting 0s for all registers".
///
/// Two shapes:
/// * **return** — the inner was NEENTERed; control goes back to the saved
///   outer context and the inner TCS becomes idle.
/// * **call (n_ocall)** — the inner thread suspends in place and acquires
///   an idle TCS of the (single) outer enclave. Lattice inners with several
///   outers must use [`neexit_to`].
///
/// # Errors
///
/// [`SgxError::GeneralProtection`] when the core is not in an inner
/// enclave, or no idle outer TCS exists on the call path.
pub fn neexit(machine: &mut Machine, core: usize) -> Result<()> {
    neexit_impl(machine, core, None)
}

/// [`neexit`] with an explicit outer target, for § VIII lattice inners
/// bound to several outer enclaves.
///
/// # Errors
///
/// See [`neexit`]; additionally faults if `outer` is not an outer enclave
/// of the caller.
pub fn neexit_to(machine: &mut Machine, core: usize, outer: EnclaveId) -> Result<()> {
    neexit_impl(machine, core, Some(outer))
}

fn neexit_impl(machine: &mut Machine, core: usize, target: Option<EnclaveId>) -> Result<()> {
    let (inner_eid, inner_tcs) = match machine.core(core).mode {
        CoreMode::Enclave { eid, tcs } => (eid, tcs),
        CoreMode::NonEnclave => {
            return Err(SgxError::GeneralProtection(
                "NEEXIT outside enclave mode".into(),
            ))
        }
    };
    let caller = machine
        .tcs(inner_eid, inner_tcs)
        .ok_or_else(|| SgxError::GeneralProtection("NEEXIT with missing TCS".into()))?
        .caller;
    let (outer_eid, outer_tcs, returning) = match caller {
        // Return path: go back where NEENTER came from (target, if given,
        // must agree).
        Some((o, ot)) => {
            if let Some(t) = target {
                if t != o {
                    return Err(SgxError::GeneralProtection(
                        "NEEXIT target does not match the NEENTER caller".into(),
                    ));
                }
            }
            (o, ot, true)
        }
        // Call path: pick the outer enclave and acquire one of its TCSes.
        None => {
            let outers = machine
                .enclaves()
                .get(inner_eid)
                .expect("running enclave is live")
                .outer_eids
                .clone();
            let o = match target {
                Some(t) => {
                    if !outers.contains(&t) {
                        return Err(SgxError::GeneralProtection(
                            "NEEXIT target is not an outer enclave of the caller".into(),
                        ));
                    }
                    t
                }
                None => match outers.as_slice() {
                    [] => {
                        return Err(SgxError::GeneralProtection(
                            "NEEXIT from an enclave with no outer enclave".into(),
                        ))
                    }
                    [single] => *single,
                    _ => {
                        return Err(SgxError::GeneralProtection(
                            "NEEXIT ambiguous: lattice inner must use neexit_to".into(),
                        ))
                    }
                },
            };
            let ot = machine.find_idle_tcs(o).ok_or_else(|| {
                SgxError::GeneralProtection("NEEXIT: no idle TCS in the outer enclave".into())
            })?;
            (o, ot, false)
        }
    };
    if returning {
        let tcs = machine.tcs_mut(inner_eid, inner_tcs).expect("checked");
        tcs.busy = false;
        tcs.ssa = None;
        tcs.caller = None;
        if let Some(secs) = machine.enclaves_mut().get_mut(inner_eid) {
            secs.active_threads = secs.active_threads.saturating_sub(1);
        }
    } else {
        // Suspend the inner thread in place; the outer slot remembers whom
        // to resume.
        let saved = *machine.regs_mut(core);
        machine.tcs_mut(inner_eid, inner_tcs).expect("checked").ssa = Some(saved);
        let outer_slot = machine.tcs_mut(outer_eid, outer_tcs).expect("idle TCS");
        outer_slot.busy = true;
        outer_slot.caller = Some((inner_eid, inner_tcs));
        machine
            .enclaves_mut()
            .get_mut(outer_eid)
            .expect("live")
            .active_threads += 1;
    }
    // Scrub all architectural registers before handing control down a
    // security level.
    *machine.regs_mut(core) = SavedContext::default();
    machine.flush_tlb(core);
    machine.set_core_mode(
        core,
        CoreMode::Enclave {
            eid: outer_eid,
            tcs: outer_tcs,
        },
    );
    machine.note(Event::Neexit {
        core,
        from: inner_eid,
        to: outer_eid,
    });
    Ok(())
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::nasso::{nasso, AssocPolicy, ExpectedIdentity};
    use crate::validate::NestedValidator;
    use ne_sgx::addr::{VirtRange, PAGE_SIZE};
    use ne_sgx::config::HwConfig;
    use ne_sgx::enclave::{ProcessId, SigStruct};
    use ne_sgx::epcm::{PagePerms, PageType};
    use ne_sgx::instr::PageSource;

    fn build(m: &mut Machine, base: u64, signer: &[u8]) -> EnclaveId {
        let base = VirtAddr(base);
        let eid = m
            .ecreate(ProcessId(0), VirtRange::new(base, 3 * PAGE_SIZE as u64))
            .unwrap();
        m.add_tcs(eid, base, base.add(PAGE_SIZE as u64)).unwrap();
        for i in 1..3u64 {
            m.eadd(
                eid,
                base.add(i * PAGE_SIZE as u64),
                PageType::Reg,
                PageSource::Zeros,
                PagePerms::RW,
            )
            .unwrap();
            m.eextend(eid, base.add(i * PAGE_SIZE as u64)).unwrap();
        }
        let measured = m.enclaves().get(eid).unwrap().measurement.finalize();
        m.einit(eid, &SigStruct::new(signer, measured)).unwrap();
        eid
    }

    fn nested_machine() -> (Machine, EnclaveId, EnclaveId) {
        let mut m = Machine::with_validator(HwConfig::small(), Box::new(NestedValidator::new()));
        let outer = build(&mut m, 0x10_0000, b"provider");
        let inner = build(&mut m, 0x20_0000, b"tenant");
        let oi = ExpectedIdentity::enclave(m.enclaves().get(outer).unwrap().mrenclave);
        let ii = ExpectedIdentity::enclave(m.enclaves().get(inner).unwrap().mrenclave);
        nasso(&mut m, inner, outer, &oi, &ii, AssocPolicy::SingleOuter).unwrap();
        (m, outer, inner)
    }

    #[test]
    fn neenter_neexit_roundtrip() {
        let (mut m, outer, inner) = nested_machine();
        m.eenter(0, outer, VirtAddr(0x10_0000)).unwrap();
        neenter(&mut m, 0, inner, VirtAddr(0x20_0000)).unwrap();
        assert_eq!(m.current_enclave(0), Some(inner));
        neexit(&mut m, 0).unwrap();
        assert_eq!(m.current_enclave(0), Some(outer));
        m.eexit(0).unwrap();
        assert_eq!(m.current_enclave(0), None);
    }

    #[test]
    fn neenter_requires_enclave_mode() {
        let (mut m, _outer, inner) = nested_machine();
        let err = neenter(&mut m, 0, inner, VirtAddr(0x20_0000)).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn neenter_rejects_unrelated_enclave() {
        let (mut m, outer, _inner) = nested_machine();
        let stranger = build(&mut m, 0x30_0000, b"stranger");
        m.eenter(0, outer, VirtAddr(0x10_0000)).unwrap();
        let err = neenter(&mut m, 0, stranger, VirtAddr(0x30_0000)).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn direct_calls_among_peer_inners_rejected() {
        // § VII-B: "nested enclave never allow any direct calls among inner
        // enclaves" — a peer is not an inner of an inner.
        let (mut m, outer, inner) = nested_machine();
        let peer = build(&mut m, 0x30_0000, b"tenant2");
        let oi = ExpectedIdentity::enclave(m.enclaves().get(outer).unwrap().mrenclave);
        let pi = ExpectedIdentity::enclave(m.enclaves().get(peer).unwrap().mrenclave);
        nasso(&mut m, peer, outer, &oi, &pi, AssocPolicy::SingleOuter).unwrap();
        m.eenter(0, outer, VirtAddr(0x10_0000)).unwrap();
        neenter(&mut m, 0, inner, VirtAddr(0x20_0000)).unwrap();
        let err = neenter(&mut m, 0, peer, VirtAddr(0x30_0000)).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn neexit_scrubs_registers_and_flushes() {
        let (mut m, outer, inner) = nested_machine();
        m.eenter(0, outer, VirtAddr(0x10_0000)).unwrap();
        neenter(&mut m, 0, inner, VirtAddr(0x20_0000)).unwrap();
        m.set_reg(0, 0, 0x5EC2E7);
        // Populate the TLB from inner mode.
        m.read(0, VirtAddr(0x20_0000 + PAGE_SIZE as u64), 1)
            .unwrap();
        assert!(!m.core(0).tlb.is_empty());
        neexit(&mut m, 0).unwrap();
        assert_eq!(m.reg(0, 0), 0, "NEEXIT must zero registers");
        assert!(m.core(0).tlb.is_empty(), "NEEXIT must flush the TLB");
    }

    #[test]
    fn neexit_without_neenter_rejected() {
        let (mut m, outer, _inner) = nested_machine();
        m.eenter(0, outer, VirtAddr(0x10_0000)).unwrap();
        let err = neexit(&mut m, 0).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn busy_inner_tcs_rejected() {
        let (mut m, outer, inner) = nested_machine();
        m.eenter(0, outer, VirtAddr(0x10_0000)).unwrap();
        m.eenter(1, outer, VirtAddr(0x10_0000)).unwrap_err(); // outer TCS busy, expected
        neenter(&mut m, 0, inner, VirtAddr(0x20_0000)).unwrap();
        // Another core (entered outer via its own hypothetical TCS) cannot
        // NEENTER the same inner TCS; simulate by direct call from core 0's
        // perspective being busy:
        neexit(&mut m, 0).unwrap();
        neenter(&mut m, 0, inner, VirtAddr(0x20_0000)).unwrap();
        let err = neenter(&mut m, 0, inner, VirtAddr(0x20_0000)).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn inner_reads_outer_memory_after_neenter() {
        let (mut m, outer, inner) = nested_machine();
        let outer_data = VirtAddr(0x10_0000 + PAGE_SIZE as u64);
        m.eenter(0, outer, VirtAddr(0x10_0000)).unwrap();
        m.write(0, outer_data, b"shared by outer").unwrap();
        neenter(&mut m, 0, inner, VirtAddr(0x20_0000)).unwrap();
        assert_eq!(m.read(0, outer_data, 15).unwrap(), b"shared by outer");
        m.audit_tlbs().unwrap();
        // And the outer cannot read inner memory.
        let inner_data = VirtAddr(0x20_0000 + PAGE_SIZE as u64);
        m.write(0, inner_data, b"inner secret").unwrap();
        neexit(&mut m, 0).unwrap();
        let err = m.read(0, inner_data, 12).unwrap_err();
        assert!(matches!(err, SgxError::Fault { .. }));
        m.audit_tlbs().unwrap();
    }

    #[test]
    fn stats_count_nested_transitions() {
        let (mut m, outer, inner) = nested_machine();
        m.eenter(0, outer, VirtAddr(0x10_0000)).unwrap();
        for _ in 0..5 {
            neenter(&mut m, 0, inner, VirtAddr(0x20_0000)).unwrap();
            neexit(&mut m, 0).unwrap();
        }
        assert_eq!(m.stats().n_ecalls, 5);
        assert_eq!(m.stats().n_ocalls, 5);
    }
}
