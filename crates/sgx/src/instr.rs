//! Enclave life-cycle and transition instructions
//! (ECREATE/EADD/EEXTEND/EINIT/EENTER/EEXIT/AEX/ERESUME/EWB/ELDU/EREMOVE).

use crate::addr::{VirtAddr, VirtRange, Vpn, LINE_SIZE, PAGE_SIZE};
use crate::enclave::{EnclaveId, EnclaveState, ProcessId, SavedContext, SigStruct, Tcs};
use crate::epcm::{EpcmEntry, PagePerms, PageType};
use crate::error::{Result, SgxError};
use crate::fault::{ChaosAction, ChaosInjection, ChaosKind};
use crate::machine::{CoreMode, Machine};
use crate::metrics::CycleCategory;
use crate::trace::Event;
use ne_crypto::gcm::AesGcm;
use ne_crypto::Digest32;
use std::sync::LazyLock;

/// SHA-256 of an all-zero page, [`PageSource::Zeros`]'s content digest.
static ZERO_PAGE_DIGEST: LazyLock<Digest32> =
    LazyLock::new(|| ne_crypto::sha256::digest(&[0u8; PAGE_SIZE]));

/// Initial contents of an EADDed page.
///
/// `Image` carries real bytes. `Opaque` models pages whose exact bytes are
/// irrelevant to an experiment (e.g. the 4 MB library text of Fig. 10): the
/// measurement still binds the content identity via the seed, but the bytes
/// are not materialized, keeping host memory proportional to pages actually
/// touched.
#[derive(Debug, Clone)]
pub enum PageSource {
    /// Zero-filled page.
    Zeros,
    /// Explicit initial bytes (at most one page; padded with zeros).
    Image(Vec<u8>),
    /// Content identified by a seed but never materialized.
    Opaque {
        /// Identity of the synthetic content.
        seed: u64,
    },
}

impl PageSource {
    /// Digest of the page content as EEXTEND will measure it. Public so
    /// loaders can *replay* a measurement without performing the load
    /// (an enclave file must embed the expected MRENCLAVE of counterparts
    /// that are not loaded yet — § IV-C). The zero page's digest, which
    /// every heap page and every replay of one needs, is hashed once per
    /// process.
    pub fn content_digest(&self) -> Digest32 {
        match self {
            PageSource::Zeros => *ZERO_PAGE_DIGEST,
            PageSource::Image(bytes) => {
                let mut page = vec![0u8; PAGE_SIZE];
                page[..bytes.len()].copy_from_slice(bytes);
                ne_crypto::sha256::digest(&page)
            }
            PageSource::Opaque { seed } => {
                let mut h = ne_crypto::sha256::Sha256::new();
                h.update(b"opaque-page");
                h.update(&seed.to_le_bytes());
                h.finalize()
            }
        }
    }
}

/// An EPC page evicted to untrusted memory by [`Machine::ewb`]: sealed
/// ciphertext plus the metadata the reload needs. The OS holds this; it can
/// drop or replay it, but not forge or roll it back undetected.
#[derive(Debug, Clone)]
pub struct EvictedPage {
    /// Owner enclave.
    pub eid: EnclaveId,
    /// Bound virtual page.
    pub vpn: Vpn,
    /// Anti-replay version stamped at eviction.
    pub version: u64,
    /// AES-GCM sealed page contents.
    pub sealed: Vec<u8>,
    /// Page metadata needed to rebuild the EPCM entry.
    pub page_type: PageType,
    /// Author permissions to rebuild the EPCM entry.
    pub perms: PagePerms,
}

impl Machine {
    // ----- build-time instructions -------------------------------------------

    /// `ECREATE`: creates an enclave with the given ELRANGE in process
    /// `pid`, consuming one EPC page for the SECS.
    ///
    /// # Errors
    ///
    /// Fails if the EPC is full or the range overlaps a live enclave in the
    /// same process.
    pub fn ecreate(&mut self, pid: ProcessId, elrange: VirtRange) -> Result<EnclaveId> {
        for other in self.enclaves().iter() {
            if other.pid == pid && other.elrange.overlaps(elrange) {
                return Err(SgxError::RangeConflict(format!(
                    "ELRANGE overlaps enclave {}",
                    other.eid
                )));
            }
        }
        let secs_page = self.alloc_epc()?;
        let eid = self.enclaves_mut().create(pid, elrange);
        // SECS pages have no linear mapping; the sentinel VPN can never be
        // produced by a walk, and the page type blocks software access.
        self.epcm_mut().insert(
            secs_page,
            EpcmEntry {
                eid,
                vpn: Vpn(u64::MAX),
                page_type: PageType::Secs,
                perms: PagePerms::R,
                blocked: false,
                pending: false,
            },
        );
        let cost = self.config().cost.ecreate;
        self.charge_cat(0, CycleCategory::Lifecycle, cost);
        Ok(eid)
    }

    /// `EADD`: adds one page at `va` to enclave `eid` and maps it in the
    /// owning process (as the SGX driver would).
    ///
    /// # Errors
    ///
    /// Fails if the enclave is initialized, `va` is outside ELRANGE or
    /// unaligned, the page was already added, or the EPC is full.
    pub fn eadd(
        &mut self,
        eid: EnclaveId,
        va: VirtAddr,
        page_type: PageType,
        source: PageSource,
        perms: PagePerms,
    ) -> Result<()> {
        if page_type == PageType::Secs {
            return Err(SgxError::GeneralProtection(
                "SECS pages are created by ECREATE only".into(),
            ));
        }
        let secs = self
            .enclaves()
            .get(eid)
            .ok_or(SgxError::NoSuchEnclave(eid))?;
        if secs.state != EnclaveState::Building {
            return Err(SgxError::BadEnclaveState(
                "EADD after EINIT (no SGX2 dynamic EPC in this model)".into(),
            ));
        }
        if !va.is_page_aligned() {
            return Err(SgxError::GeneralProtection("EADD address unaligned".into()));
        }
        if !secs.elrange.contains_page(va.vpn()) {
            return Err(SgxError::RangeConflict(format!(
                "EADD {va} outside ELRANGE"
            )));
        }
        let pid = secs.pid;
        let page_offset = va.0 - secs.elrange.start().0;
        if self.pending_digests.contains_key(&(eid.0, va.vpn().0))
            || self
                .os_lookup(pid, va.vpn())
                .map(|pte| {
                    self.epcm()
                        .get(pte.ppn)
                        .map(|e| e.eid == eid)
                        .unwrap_or(false)
                })
                .unwrap_or(false)
        {
            return Err(SgxError::RangeConflict(format!("{va} already added")));
        }
        let ppn = self.alloc_epc()?;
        let digest = source.content_digest();
        if let PageSource::Image(bytes) = &source {
            assert!(bytes.len() <= PAGE_SIZE, "EADD image larger than a page");
            let mut page = [0u8; PAGE_SIZE];
            page[..bytes.len()].copy_from_slice(bytes);
            self.dram_mut().write_page(ppn, &page);
        } else {
            self.dram_mut().clear_page(ppn);
        }
        self.mee_mut().clear_tamper(ppn.base().0, PAGE_SIZE);
        self.epcm_mut().insert(
            ppn,
            EpcmEntry {
                eid,
                vpn: va.vpn(),
                page_type,
                perms,
                blocked: false,
                pending: false,
            },
        );
        self.os_map(pid, va.vpn(), ppn, perms);
        let type_tag = match page_type {
            PageType::Secs => 0,
            PageType::Tcs => 1,
            PageType::Reg => 2,
        };
        let perm_bits = (perms.r as u8) | ((perms.w as u8) << 1) | ((perms.x as u8) << 2);
        self.enclaves_mut()
            .get_mut(eid)
            .expect("checked above")
            .measurement
            .eadd(page_offset, type_tag, perm_bits);
        self.pending_digests.insert((eid.0, va.vpn().0), digest);
        let cost = self.config().cost.eadd_page;
        self.charge_cat(0, CycleCategory::Lifecycle, cost);
        Ok(())
    }

    /// `EEXTEND`: measures the contents of a previously EADDed page into
    /// the enclave measurement.
    ///
    /// # Errors
    ///
    /// Fails if the page was not EADDed or was already extended.
    pub fn eextend(&mut self, eid: EnclaveId, va: VirtAddr) -> Result<()> {
        let secs = self
            .enclaves()
            .get(eid)
            .ok_or(SgxError::NoSuchEnclave(eid))?;
        if secs.state != EnclaveState::Building {
            return Err(SgxError::BadEnclaveState("EEXTEND after EINIT".into()));
        }
        let page_offset =
            va.0.checked_sub(secs.elrange.start().0)
                .ok_or_else(|| SgxError::RangeConflict(format!("EEXTEND {va} outside ELRANGE")))?;
        let digest = self
            .pending_digests
            .get(&(eid.0, va.vpn().0))
            .copied()
            .ok_or_else(|| SgxError::GeneralProtection(format!("EEXTEND before EADD at {va}")))?;
        self.enclaves_mut()
            .get_mut(eid)
            .expect("checked above")
            .measurement
            .eextend(page_offset, &digest);
        let cost = self.config().cost.eextend_page;
        self.charge_cat(0, CycleCategory::Lifecycle, cost);
        Ok(())
    }

    /// `EINIT`: finalizes the enclave, verifying the author's SIGSTRUCT
    /// against the accumulated measurement.
    ///
    /// # Errors
    ///
    /// Fails if the measurement does not match the signed expectation.
    pub fn einit(&mut self, eid: EnclaveId, sig: &SigStruct) -> Result<()> {
        let secs = self
            .enclaves()
            .get(eid)
            .ok_or(SgxError::NoSuchEnclave(eid))?;
        if secs.state != EnclaveState::Building {
            return Err(SgxError::BadEnclaveState("double EINIT".into()));
        }
        let measured = secs.measurement.finalize();
        if measured != sig.expected_mrenclave {
            return Err(SgxError::InitVerification(
                "measurement does not match SIGSTRUCT".into(),
            ));
        }
        let mrsigner = sig.mrsigner();
        let secs = self.enclaves_mut().get_mut(eid).expect("checked above");
        secs.mrenclave = measured;
        secs.mrsigner = mrsigner;
        secs.state = EnclaveState::Initialized;
        let cost = self.config().cost.einit;
        self.charge_cat(0, CycleCategory::Lifecycle, cost);
        Ok(())
    }

    /// Convenience: EADD + register a Thread Control Structure whose entry
    /// point is `entry`.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Machine::eadd`], plus `entry` must lie in
    /// ELRANGE.
    pub fn add_tcs(&mut self, eid: EnclaveId, va: VirtAddr, entry: VirtAddr) -> Result<()> {
        {
            let secs = self
                .enclaves()
                .get(eid)
                .ok_or(SgxError::NoSuchEnclave(eid))?;
            if !secs.elrange.contains(entry) {
                return Err(SgxError::GeneralProtection(
                    "TCS entry point outside ELRANGE".into(),
                ));
            }
        }
        self.eadd(eid, va, PageType::Tcs, PageSource::Zeros, PagePerms::RW)?;
        self.tcs_table.insert(
            (eid.0, va.0),
            Tcs {
                eid,
                va,
                entry,
                busy: false,
                ssa: None,
                caller: None,
            },
        );
        Ok(())
    }

    // ----- transition instructions -------------------------------------------

    /// `EENTER`: enters enclave `eid` through the TCS at `tcs_va`.
    ///
    /// Flushes the TLB (the transition invariant) but charges only the
    /// architectural flush; the SDK-level call cost of Table II is charged
    /// by the runtime dispatch layer.
    ///
    /// # Errors
    ///
    /// General-protection fault if the core is already in enclave mode, the
    /// enclave is not initialized, or the TCS is missing/busy/foreign.
    /// [`SgxError::EnclavePoisoned`] if the enclave crashed earlier (entry
    /// into a crashed enclave faults until EREMOVE rebuilds it).
    pub fn eenter(&mut self, core: usize, eid: EnclaveId, tcs_va: VirtAddr) -> Result<()> {
        if self.current_enclave(core).is_some() {
            return Err(SgxError::GeneralProtection(
                "EENTER while already in enclave mode".into(),
            ));
        }
        {
            let secs = self
                .enclaves()
                .get(eid)
                .ok_or(SgxError::NoSuchEnclave(eid))?;
            if !secs.is_initialized() {
                return Err(SgxError::BadEnclaveState("EENTER before EINIT".into()));
            }
            if secs.pid != self.core(core).pid {
                return Err(SgxError::GeneralProtection(
                    "EENTER from a different process".into(),
                ));
            }
        }
        if self.is_poisoned(eid) {
            return Err(SgxError::EnclavePoisoned(eid));
        }
        {
            let tcs = self
                .tcs_table
                .get(&(eid.0, tcs_va.0))
                .ok_or_else(|| SgxError::GeneralProtection("EENTER with invalid TCS".into()))?;
            if tcs.busy {
                return Err(SgxError::GeneralProtection("EENTER on busy TCS".into()));
            }
        }
        // Consult the fault plan once the entry is architecturally valid: a
        // crash injection poisons its victim and, if the victim is this
        // enclave, preempts the entry itself.
        let chaos_actions = self.chaos_decide_eenter(core, eid)?;
        if let Some(tcs) = self.tcs_table.get_mut(&(eid.0, tcs_va.0)) {
            tcs.busy = true;
        }
        self.flush_tlb(core);
        self.set_core_mode(core, CoreMode::Enclave { eid, tcs: tcs_va });
        self.enclaves_mut()
            .get_mut(eid)
            .expect("live")
            .active_threads += 1;
        self.note(Event::Eenter { core, eid });
        self.chaos_apply_post_entry(core, eid, tcs_va, chaos_actions)?;
        Ok(())
    }

    /// `EEXIT`: leaves enclave mode to untrusted execution.
    ///
    /// # Errors
    ///
    /// General-protection fault if the core is not in enclave mode.
    pub fn eexit(&mut self, core: usize) -> Result<()> {
        let (eid, tcs_va) = match self.core(core).mode {
            CoreMode::Enclave { eid, tcs } => (eid, tcs),
            CoreMode::NonEnclave => {
                return Err(SgxError::GeneralProtection(
                    "EEXIT outside enclave mode".into(),
                ))
            }
        };
        self.flush_tlb(core);
        if let Some(tcs) = self.tcs_table.get_mut(&(eid.0, tcs_va.0)) {
            tcs.busy = false;
            tcs.ssa = None;
        }
        self.set_core_mode(core, CoreMode::NonEnclave);
        if let Some(secs) = self.enclaves_mut().get_mut(eid) {
            secs.active_threads = secs.active_threads.saturating_sub(1);
        }
        self.note(Event::Eexit { core, eid });
        Ok(())
    }

    /// Asynchronous Enclave Exit: an interrupt/exception kicks the core out
    /// of enclave mode, saving the context in the TCS's SSA and scrubbing
    /// the registers. The TCS stays busy until [`Machine::eresume`].
    ///
    /// # Errors
    ///
    /// General-protection fault if the core is not in enclave mode.
    pub fn aex(&mut self, core: usize) -> Result<()> {
        let (eid, tcs_va) = match self.core(core).mode {
            CoreMode::Enclave { eid, tcs } => (eid, tcs),
            CoreMode::NonEnclave => {
                return Err(SgxError::GeneralProtection(
                    "AEX outside enclave mode".into(),
                ))
            }
        };
        let saved = *self.regs_mut(core);
        *self.regs_mut(core) = SavedContext::default(); // scrub
        if let Some(tcs) = self.tcs_table.get_mut(&(eid.0, tcs_va.0)) {
            tcs.ssa = Some(saved);
        }
        self.flush_tlb(core);
        self.set_core_mode(core, CoreMode::NonEnclave);
        if let Some(secs) = self.enclaves_mut().get_mut(eid) {
            secs.active_threads = secs.active_threads.saturating_sub(1);
        }
        self.note(Event::Aex { core, eid });
        Ok(())
    }

    /// `ERESUME`: resumes an enclave thread interrupted by [`Machine::aex`].
    ///
    /// # Errors
    ///
    /// General-protection fault unless the TCS is busy with a saved SSA.
    pub fn eresume(&mut self, core: usize, eid: EnclaveId, tcs_va: VirtAddr) -> Result<()> {
        if self.current_enclave(core).is_some() {
            return Err(SgxError::GeneralProtection(
                "ERESUME while in enclave mode".into(),
            ));
        }
        let saved = {
            let tcs = self
                .tcs_table
                .get_mut(&(eid.0, tcs_va.0))
                .ok_or_else(|| SgxError::GeneralProtection("ERESUME with invalid TCS".into()))?;
            if !tcs.busy {
                return Err(SgxError::GeneralProtection("ERESUME on idle TCS".into()));
            }
            tcs.ssa
                .take()
                .ok_or_else(|| SgxError::GeneralProtection("ERESUME without saved state".into()))?
        };
        *self.regs_mut(core) = saved;
        self.flush_tlb(core);
        self.set_core_mode(core, CoreMode::Enclave { eid, tcs: tcs_va });
        self.enclaves_mut()
            .get_mut(eid)
            .expect("live")
            .active_threads += 1;
        self.note(Event::Eresume { core, eid });
        Ok(())
    }

    // ----- SGX2 dynamic memory --------------------------------------------------

    /// `EAUG` (SGX2): the OS adds a zeroed EPC page at `va` to the
    /// *initialized* enclave `eid`, in the *pending* state. The enclave
    /// must `EACCEPT` it before any access succeeds — otherwise a hostile
    /// OS could inject pages into a running enclave.
    ///
    /// Dynamic pages are not measured (MRENCLAVE is fixed at EINIT); the
    /// pending/accept handshake is what replaces the measurement in the
    /// trust argument.
    ///
    /// # Errors
    ///
    /// Fails before EINIT, outside ELRANGE, on already-backed pages, and
    /// when the EPC is full.
    pub fn eaug(&mut self, eid: EnclaveId, va: VirtAddr) -> Result<()> {
        let (pid, in_range, initialized) = {
            let secs = self
                .enclaves()
                .get(eid)
                .ok_or(SgxError::NoSuchEnclave(eid))?;
            (
                secs.pid,
                secs.elrange.contains_page(va.vpn()),
                secs.is_initialized(),
            )
        };
        if !initialized {
            return Err(SgxError::BadEnclaveState(
                "EAUG before EINIT (use EADD while building)".into(),
            ));
        }
        if !va.is_page_aligned() {
            return Err(SgxError::GeneralProtection("EAUG address unaligned".into()));
        }
        if !in_range {
            return Err(SgxError::RangeConflict(format!(
                "EAUG {va} outside ELRANGE"
            )));
        }
        if self
            .os_lookup(pid, va.vpn())
            .map(|pte| self.epcm().get(pte.ppn).is_some())
            .unwrap_or(false)
        {
            return Err(SgxError::RangeConflict(format!("{va} already backed")));
        }
        let ppn = self.alloc_epc()?;
        self.dram_mut().clear_page(ppn);
        self.mee_mut().clear_tamper(ppn.base().0, PAGE_SIZE);
        self.epcm_mut().insert(
            ppn,
            EpcmEntry {
                eid,
                vpn: va.vpn(),
                page_type: PageType::Reg,
                perms: PagePerms::RW,
                blocked: false,
                pending: true,
            },
        );
        self.os_map(pid, va.vpn(), ppn, PagePerms::RW);
        let cost = self.config().cost.eaug_page;
        self.charge_cat(0, CycleCategory::Lifecycle, cost);
        Ok(())
    }

    /// `EACCEPT` (SGX2): the enclave running on `core` accepts the pending
    /// page at `va` into its protection domain.
    ///
    /// # Errors
    ///
    /// General-protection fault outside enclave mode, or when `va` is not
    /// a pending page of the current enclave.
    pub fn eaccept(&mut self, core: usize, va: VirtAddr) -> Result<()> {
        let eid = self
            .current_enclave(core)
            .ok_or_else(|| SgxError::GeneralProtection("EACCEPT outside enclave mode".into()))?;
        let pid = self.core(core).pid;
        let pte = self
            .os_lookup(pid, va.vpn())
            .ok_or_else(|| SgxError::GeneralProtection(format!("EACCEPT: {va} not mapped")))?;
        let entry = self.epcm_mut().get_mut(pte.ppn).ok_or_else(|| {
            SgxError::GeneralProtection(format!("EACCEPT: {va} is not an EPC page"))
        })?;
        if entry.eid != eid || entry.vpn != va.vpn() {
            return Err(SgxError::GeneralProtection(
                "EACCEPT: page does not belong to the calling enclave".into(),
            ));
        }
        if !entry.pending {
            return Err(SgxError::GeneralProtection(
                "EACCEPT: page is not pending".into(),
            ));
        }
        entry.pending = false;
        let cost = self.config().cost.eaccept_page;
        self.charge_cat(core, CycleCategory::Lifecycle, cost);
        Ok(())
    }

    // ----- EPC paging ----------------------------------------------------------

    /// `EWB`: evicts the EPC page at `va` of enclave `eid` to a sealed blob
    /// the OS keeps in untrusted memory.
    ///
    /// Before the page can leave, every core whose TLB may cache a
    /// translation to it is interrupted (AEX + flush). Which cores those
    /// are depends on the installed validator's tracking set — the nested
    /// validator extends it to inner-enclave threads (§ IV-E) — or on the
    /// `flush_all_on_evict` config knob (the paper's simpler alternative).
    ///
    /// # Errors
    ///
    /// Fails for unknown pages and for SECS/TCS pages (not evictable in
    /// this model).
    pub fn ewb(&mut self, eid: EnclaveId, va: VirtAddr) -> Result<EvictedPage> {
        let pid = {
            let secs = self
                .enclaves()
                .get(eid)
                .ok_or(SgxError::NoSuchEnclave(eid))?;
            secs.pid
        };
        let pte = self
            .os_lookup(pid, va.vpn())
            .ok_or_else(|| SgxError::Paging(format!("{va} not mapped")))?;
        let entry = *self
            .epcm()
            .get(pte.ppn)
            .ok_or_else(|| SgxError::Paging(format!("{va} is not an EPC page")))?;
        if entry.eid != eid || entry.vpn != va.vpn() {
            return Err(SgxError::Paging(format!("{va} does not belong to {eid}")));
        }
        if entry.page_type != PageType::Reg {
            return Err(SgxError::Paging("only REG pages are evictable here".into()));
        }
        // Mark blocked so no new TLB fills can recreate the translation.
        self.epcm_mut().get_mut(pte.ppn).expect("present").blocked = true;
        // Thread tracking: interrupt every core that may cache it.
        self.evict_shootdown(eid)?;
        // Seal the contents.
        let plain = self.dram().read_page(pte.ppn);
        let version = self.next_evict_version;
        self.next_evict_version += 1;
        let key = self.paging_key(eid);
        let cipher = AesGcm::new(&key);
        let nonce = Self::paging_nonce(version);
        let aad = Self::paging_aad(eid, va.vpn(), version, entry);
        let sealed = cipher.seal(&nonce, &plain, &aad);
        self.evicted_versions.insert((eid.0, va.vpn().0), version);
        // Free the EPC page.
        self.epcm_mut().remove(pte.ppn);
        self.dram_mut().clear_page(pte.ppn);
        self.os_unmap(pid, va.vpn());
        self.free_epc(pte.ppn);
        self.note(Event::Ewb { eid, addr: va });
        Ok(EvictedPage {
            eid,
            vpn: va.vpn(),
            version,
            sealed,
            page_type: entry.page_type,
            perms: entry.perms,
        })
    }

    /// `ELDU`: reloads an evicted page into the EPC, verifying freshness.
    ///
    /// # Errors
    ///
    /// Fails on forged or replayed blobs and when the EPC is full.
    pub fn eldu(&mut self, page: &EvictedPage) -> Result<()> {
        let pid = {
            let secs = self
                .enclaves()
                .get(page.eid)
                .ok_or(SgxError::NoSuchEnclave(page.eid))?;
            secs.pid
        };
        let expected = self
            .evicted_versions
            .get(&(page.eid.0, page.vpn.0))
            .copied()
            .ok_or_else(|| SgxError::Paging("no eviction record (replay?)".into()))?;
        if expected != page.version {
            return Err(SgxError::Paging(format!(
                "version mismatch: expected {expected}, blob has {} (rollback attack)",
                page.version
            )));
        }
        let key = self.paging_key(page.eid);
        let cipher = AesGcm::new(&key);
        let nonce = Self::paging_nonce(page.version);
        let entry = EpcmEntry {
            eid: page.eid,
            vpn: page.vpn,
            page_type: page.page_type,
            perms: page.perms,
            blocked: false,
            pending: false,
        };
        let aad = Self::paging_aad(page.eid, page.vpn, page.version, entry);
        let plain = cipher
            .open(&nonce, &page.sealed, &aad)
            .map_err(|_| SgxError::Paging("sealed page failed authentication".into()))?;
        let ppn = self.alloc_epc()?;
        let mut buf = [0u8; PAGE_SIZE];
        buf.copy_from_slice(&plain);
        self.dram_mut().write_page(ppn, &buf);
        self.mee_mut().clear_tamper(ppn.base().0, PAGE_SIZE);
        self.epcm_mut().insert(ppn, entry);
        self.os_map(pid, page.vpn, ppn, page.perms);
        self.evicted_versions.remove(&(page.eid.0, page.vpn.0));
        self.note(Event::Eldu {
            eid: page.eid,
            addr: page.vpn.base(),
        });
        Ok(())
    }

    /// Interrupts (AEX) every core that may cache translations into pages
    /// of `eid`, per the tracking policy.
    fn evict_shootdown(&mut self, eid: EnclaveId) -> Result<()> {
        let affected: Vec<EnclaveId> = if self.config().flush_all_on_evict {
            Vec::new() // sentinel: every enclave core
        } else {
            self.validator().eviction_tracking_set(eid, self.enclaves())
        };
        let flush_all = self.config().flush_all_on_evict;
        for core in 0..self.num_cores() {
            let hit = match self.core(core).mode {
                CoreMode::Enclave { eid: running, .. } => flush_all || affected.contains(&running),
                // Idle/untrusted cores hold no enclave translations
                // (invariant 1), except under flush-all which IPIs everyone.
                CoreMode::NonEnclave => flush_all,
            };
            if hit {
                self.note(Event::Ipi { core, eid });
                if self.current_enclave(core).is_some() {
                    self.aex(core)?;
                } else {
                    self.flush_tlb(core);
                }
            }
        }
        Ok(())
    }

    /// `EREMOVE`-style teardown of a whole enclave: frees all EPC pages.
    ///
    /// # Errors
    ///
    /// Fails while any thread is executing inside the enclave, and also
    /// while any of its TCSes is still **busy** without counting as an
    /// active thread — an AEX'd context awaiting `ERESUME`, or an inner
    /// context suspended mid-`n_ocall`. Tearing those down would free the
    /// pages a live `SavedContext` still refers to; the enclave (and its
    /// EPCM entries) is left untouched so the context can be resumed and
    /// exited cleanly first.
    pub fn eremove(&mut self, eid: EnclaveId) -> Result<()> {
        let secs = self
            .enclaves()
            .get(eid)
            .ok_or(SgxError::NoSuchEnclave(eid))?;
        if secs.active_threads > 0 {
            return Err(SgxError::BadEnclaveState(
                "EREMOVE while threads are active".into(),
            ));
        }
        if self
            .tcs_table
            .iter()
            .any(|((e, _), tcs)| *e == eid.0 && tcs.busy)
        {
            return Err(SgxError::BadEnclaveState(
                "EREMOVE while a TCS is busy (interrupted or suspended context in flight)".into(),
            ));
        }
        let pid = secs.pid;
        let pages = self.epcm().pages_of(eid);
        for ppn in pages {
            let entry = self.epcm_mut().remove(ppn).expect("listed");
            if entry.vpn.0 != u64::MAX {
                self.os_unmap(pid, entry.vpn);
            }
            self.dram_mut().clear_page(ppn);
            self.free_epc(ppn);
        }
        self.tcs_table.retain(|(e, _), _| *e != eid.0);
        self.pending_digests.retain(|(e, _), _| *e != eid.0);
        // Sever any nested-enclave associations so no SECS keeps a
        // dangling link to the destroyed enclave.
        let (outers, inners) = {
            let secs = self.enclaves().get(eid).expect("checked above");
            (secs.outer_eids.clone(), secs.inner_eids.clone())
        };
        for outer in outers {
            if let Some(s) = self.enclaves_mut().get_mut(outer) {
                s.inner_eids.retain(|&i| i != eid);
            }
        }
        for inner in inners {
            if let Some(s) = self.enclaves_mut().get_mut(inner) {
                s.outer_eids.retain(|&o| o != eid);
            }
        }
        self.enclaves_mut().remove(eid);
        // Destroying the enclave cures a crash-injected poisoning and
        // invalidates any chaos-evicted blobs still parked for it.
        self.poisoned.remove(&eid.0);
        self.chaos_evicted.retain(|b| b.eid != eid);
        self.flush_all_tlbs();
        Ok(())
    }

    // ----- fault-injection application ---------------------------------------

    /// Runs the fault plan's EENTER trigger (if a plan is installed) and
    /// applies crash poisonings. Returns the remaining actions to apply
    /// after the entry completes.
    ///
    /// # Errors
    ///
    /// [`SgxError::EnclavePoisoned`] if a crash injection selected the
    /// entered enclave itself — the entry is preempted, exactly as if the
    /// enclave had aborted inside the previous ecall.
    fn chaos_decide_eenter(&mut self, core: usize, eid: EnclaveId) -> Result<Vec<ChaosAction>> {
        let actions = match self.chaos.as_mut() {
            Some(plan) => plan.on_eenter(eid.0),
            None => return Ok(Vec::new()),
        };
        let cycle = self.cycles(core);
        for action in &actions {
            if let ChaosAction::Crash { pick } = *action {
                let victim = self.chaos_crash_victim(eid, pick);
                self.chaos_events.push(ChaosInjection {
                    cycle,
                    eid: victim.0,
                    kind: ChaosKind::Crash,
                });
                self.poison_enclave(victim);
                if victim == eid {
                    return Err(SgxError::EnclavePoisoned(eid));
                }
            }
        }
        Ok(actions)
    }

    /// The crash victim for an entry into `eid`: the enclave itself or one
    /// of its inner enclaves, selected by the plan's PRNG draw over the
    /// VA-sorted candidate list (deterministic across runs).
    fn chaos_crash_victim(&self, eid: EnclaveId, pick: u64) -> EnclaveId {
        let mut candidates = vec![eid];
        if let Some(secs) = self.enclaves().get(eid) {
            let mut inners = secs.inner_eids.clone();
            inners.sort_by_key(|e| e.0);
            candidates.extend(inners);
        }
        candidates[(pick % candidates.len() as u64) as usize]
    }

    /// Applies the non-crash chaos actions after the entry completed, using
    /// the real instruction implementations so every attribution identity
    /// keeps holding.
    fn chaos_apply_post_entry(
        &mut self,
        core: usize,
        eid: EnclaveId,
        tcs_va: VirtAddr,
        actions: Vec<ChaosAction>,
    ) -> Result<()> {
        for action in actions {
            // Log the injection before applying it, stamped with the
            // entering core's clock at the injection point.
            if let Some(kind) = match action {
                ChaosAction::AexStorm { .. } => Some(ChaosKind::Aex),
                ChaosAction::Evict { .. } => Some(ChaosKind::Evict),
                ChaosAction::Mac => Some(ChaosKind::Mac),
                ChaosAction::Stall { .. } => Some(ChaosKind::Stall),
                ChaosAction::Migrate => Some(ChaosKind::Migrate),
                ChaosAction::Crash { .. } => None, // logged pre-entry
            } {
                self.chaos_events.push(ChaosInjection {
                    cycle: self.cycles(core),
                    eid: eid.0,
                    kind,
                });
            }
            match action {
                ChaosAction::AexStorm { rounds } => {
                    for _ in 0..rounds {
                        self.aex(core)?;
                        self.eresume(core, eid, tcs_va)?;
                    }
                }
                ChaosAction::Evict { pages } => {
                    let mut victims = vec![eid];
                    if let Some(secs) = self.enclaves().get(eid) {
                        let mut inners = secs.inner_eids.clone();
                        inners.sort_by_key(|e| e.0);
                        victims.extend(inners);
                    }
                    for victim in victims {
                        for vpn in self.chaos_hot_pages(victim, pages as usize) {
                            let blob = self.ewb(victim, vpn.base())?;
                            if let Some(plan) = self.chaos.as_mut() {
                                plan.count_forced_eviction();
                            }
                            self.chaos_evicted.push(blob);
                        }
                    }
                    // The eviction shootdown may have AEXed this very core;
                    // resume so the caller still holds a completed entry.
                    if self.current_enclave(core).is_none() {
                        self.eresume(core, eid, tcs_va)?;
                    }
                }
                ChaosAction::Mac => self.chaos_apply_mac(eid),
                ChaosAction::Stall { window } => {
                    if let Some(plan) = self.chaos.as_mut() {
                        plan.open_stall(window);
                    }
                }
                // No architectural fault: park the request for the host's
                // next safe point (a cluster barrier). Dedup keeps a storm
                // of entries from queueing the same victim twice.
                ChaosAction::Migrate => {
                    if !self.migration_requests.contains(&eid.0) {
                        self.migration_requests.push(eid.0);
                    }
                }
                ChaosAction::Crash { .. } => {} // applied before entry
            }
        }
        Ok(())
    }

    /// The `n` lowest-VA resident REG pages of `victim` — its hottest
    /// pages in practice (entry code first), and a deterministic choice.
    fn chaos_hot_pages(&self, victim: EnclaveId, n: usize) -> Vec<Vpn> {
        let mut vpns: Vec<Vpn> = self
            .epcm()
            .pages_of(victim)
            .into_iter()
            .filter_map(|ppn| self.epcm().get(ppn))
            .filter(|e| e.page_type == PageType::Reg && !e.blocked && !e.pending)
            .map(|e| e.vpn)
            .collect();
        vpns.sort();
        vpns.truncate(n);
        vpns
    }

    /// Tampers one cache line of `eid`'s lowest-VA REG page (the entry
    /// code page) on the DRAM bus: the MEE rejects the next fetch through
    /// that line with an integrity violation.
    fn chaos_apply_mac(&mut self, eid: EnclaveId) {
        let target = self
            .epcm()
            .pages_of(eid)
            .into_iter()
            .filter_map(|ppn| self.epcm().get(ppn).map(|e| (e.vpn, ppn, e.page_type)))
            .filter(|&(_, _, t)| t == PageType::Reg)
            .min_by_key(|&(vpn, _, _)| vpn.0);
        if let Some((_, ppn, _)) = target {
            self.physical_tamper(ppn.base(), &[0xA5; LINE_SIZE]);
        }
    }

    /// Audits EPCM consistency: every valid EPC entry points into PRM, and
    /// every REG/TCS entry's virtual page lies inside its owner's ELRANGE.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency (test/diagnostic
    /// use; a correct machine never produces one).
    pub fn audit_epcm(&self) -> std::result::Result<(), String> {
        for (ppn, entry) in self.epcm().iter() {
            if !self.config().in_prm(ppn.0) {
                return Err(format!("EPCM entry for non-PRM page {ppn:?}"));
            }
            let secs = match self.enclaves().get(entry.eid) {
                Some(s) => s,
                None => return Err(format!("EPCM entry for dead enclave {}", entry.eid)),
            };
            if entry.page_type != PageType::Secs && !secs.elrange.contains_page(entry.vpn) {
                return Err(format!(
                    "EPCM entry {ppn:?} binds {:?} outside {}'s ELRANGE",
                    entry.vpn, entry.eid
                ));
            }
        }
        Ok(())
    }

    fn paging_key(&self, eid: EnclaveId) -> [u8; 16] {
        ne_crypto::kdf::derive_key(&self.platform_secret, b"epc-paging", &eid.0.to_le_bytes())
    }

    fn paging_nonce(version: u64) -> [u8; 12] {
        let mut n = [0u8; 12];
        n[..8].copy_from_slice(&version.to_le_bytes());
        n
    }

    fn paging_aad(eid: EnclaveId, vpn: Vpn, version: u64, entry: EpcmEntry) -> Vec<u8> {
        let mut aad = Vec::with_capacity(32);
        aad.extend_from_slice(&eid.0.to_le_bytes());
        aad.extend_from_slice(&vpn.0.to_le_bytes());
        aad.extend_from_slice(&version.to_le_bytes());
        aad.push(match entry.page_type {
            PageType::Secs => 0,
            PageType::Tcs => 1,
            PageType::Reg => 2,
        });
        aad.push(
            (entry.perms.r as u8) | ((entry.perms.w as u8) << 1) | ((entry.perms.x as u8) << 2),
        );
        aad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ppn;
    use crate::config::HwConfig;
    use crate::error::FaultKind;

    fn machine() -> Machine {
        Machine::new(HwConfig::small())
    }

    /// Builds a 4-page initialized enclave with a TCS at page 0 and data
    /// pages at 1..4; returns (machine, eid, base VA).
    fn built_enclave() -> (Machine, EnclaveId, VirtAddr) {
        let mut m = machine();
        let base = VirtAddr(0x10_0000);
        let eid = m
            .ecreate(ProcessId(0), VirtRange::new(base, 4 * PAGE_SIZE as u64))
            .unwrap();
        m.add_tcs(eid, base, base.add(PAGE_SIZE as u64)).unwrap();
        for i in 1..4u64 {
            m.eadd(
                eid,
                base.add(i * PAGE_SIZE as u64),
                PageType::Reg,
                PageSource::Image(vec![i as u8; 16]),
                PagePerms::RW,
            )
            .unwrap();
            m.eextend(eid, base.add(i * PAGE_SIZE as u64)).unwrap();
        }
        let measured = m.enclaves().get(eid).unwrap().measurement.finalize();
        m.einit(eid, &SigStruct::new(b"tester", measured)).unwrap();
        (m, eid, base)
    }

    #[test]
    fn zero_page_digest_is_sha256_of_a_zero_page() {
        let digest = PageSource::Zeros.content_digest();
        assert_eq!(digest, ne_crypto::sha256::digest(&[0; PAGE_SIZE]));
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "ad7facb2586fc6e966c004d7d1d16b024f5805ff7cb47c7a85dabd8b48892ca7"
        );
    }

    #[test]
    fn full_lifecycle_and_owner_access() {
        let (mut m, eid, base) = built_enclave();
        m.eenter(0, eid, base).unwrap();
        assert_eq!(m.current_enclave(0), Some(eid));
        let data_va = base.add(PAGE_SIZE as u64);
        assert_eq!(m.read(0, data_va, 4).unwrap(), vec![1, 1, 1, 1]);
        m.write(0, data_va, b"new!").unwrap();
        assert_eq!(m.read(0, data_va, 4).unwrap(), b"new!");
        m.audit_tlbs().unwrap();
        m.eexit(0).unwrap();
        assert_eq!(m.current_enclave(0), None);
    }

    #[test]
    fn non_owner_cannot_read_epc() {
        let (mut m, _eid, base) = built_enclave();
        // Untrusted access to enclave memory aborts (all-ones).
        let data = m.read(0, base.add(PAGE_SIZE as u64), 4).unwrap();
        assert_eq!(data, vec![0xFF; 4]);
    }

    #[test]
    fn einit_rejects_wrong_measurement() {
        let mut m = machine();
        let base = VirtAddr(0x10_0000);
        let eid = m
            .ecreate(ProcessId(0), VirtRange::new(base, PAGE_SIZE as u64))
            .unwrap();
        m.eadd(eid, base, PageType::Reg, PageSource::Zeros, PagePerms::RW)
            .unwrap();
        let err = m
            .einit(eid, &SigStruct::new(b"tester", [0xAB; 32]))
            .unwrap_err();
        assert!(matches!(err, SgxError::InitVerification(_)));
    }

    #[test]
    fn eadd_after_einit_rejected() {
        let (mut m, eid, base) = built_enclave();
        let err = m
            .eadd(
                eid,
                base.add(3 * PAGE_SIZE as u64),
                PageType::Reg,
                PageSource::Zeros,
                PagePerms::RW,
            )
            .unwrap_err();
        assert!(matches!(err, SgxError::BadEnclaveState(_)));
    }

    #[test]
    fn eenter_requires_init_and_idle_tcs() {
        let mut m = machine();
        let base = VirtAddr(0x10_0000);
        let eid = m
            .ecreate(ProcessId(0), VirtRange::new(base, PAGE_SIZE as u64 * 2))
            .unwrap();
        m.add_tcs(eid, base, base.add(PAGE_SIZE as u64)).unwrap();
        assert!(m.eenter(0, eid, base).is_err(), "not initialized yet");
        let measured = m.enclaves().get(eid).unwrap().measurement.finalize();
        m.einit(eid, &SigStruct::new(b"t", measured)).unwrap();
        m.eenter(0, eid, base).unwrap();
        // Same TCS from another core: busy.
        let err = m.eenter(1, eid, base).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn transitions_flush_tlb() {
        let (mut m, eid, base) = built_enclave();
        let flushes0 = m.tlb_flushes();
        m.eenter(0, eid, base).unwrap();
        m.read(0, base.add(PAGE_SIZE as u64), 1).unwrap();
        assert!(!m.core(0).tlb.is_empty());
        m.eexit(0).unwrap();
        assert!(m.core(0).tlb.is_empty(), "EEXIT must flush");
        assert!(m.tlb_flushes() >= flushes0 + 2);
    }

    #[test]
    fn aex_and_eresume_roundtrip() {
        let (mut m, eid, base) = built_enclave();
        m.eenter(0, eid, base).unwrap();
        m.set_reg(0, 3, 0xDEAD);
        m.aex(0).unwrap();
        assert_eq!(m.current_enclave(0), None);
        assert_eq!(m.reg(0, 3), 0, "AEX must scrub registers");
        assert!(m.tcs(eid, base).unwrap().busy, "TCS stays busy across AEX");
        m.eresume(0, eid, base).unwrap();
        assert_eq!(m.reg(0, 3), 0xDEAD, "ERESUME restores context");
        assert_eq!(m.current_enclave(0), Some(eid));
    }

    #[test]
    fn ewb_eldu_roundtrip_preserves_content() {
        let (mut m, eid, base) = built_enclave();
        let va = base.add(2 * PAGE_SIZE as u64);
        m.eenter(0, eid, base).unwrap();
        m.write(0, va, b"persistent").unwrap();
        m.eexit(0).unwrap();
        let free_before = m.free_epc_pages();
        let blob = m.ewb(eid, va).unwrap();
        assert_eq!(m.free_epc_pages(), free_before + 1);
        // While evicted, enclave access faults as swapped-out.
        m.eenter(0, eid, base).unwrap();
        let err = m.read(0, va, 4).unwrap_err();
        assert!(
            err.is_fault(FaultKind::EnclavePageSwappedOut) || err.is_fault(FaultKind::NotMapped)
        );
        m.eexit(0).unwrap();
        m.eldu(&blob).unwrap();
        m.eenter(0, eid, base).unwrap();
        assert_eq!(m.read(0, va, 10).unwrap(), b"persistent");
    }

    #[test]
    fn eldu_rejects_replay() {
        let (mut m, eid, base) = built_enclave();
        let va = base.add(2 * PAGE_SIZE as u64);
        let blob = m.ewb(eid, va).unwrap();
        m.eldu(&blob).unwrap();
        let err = m.eldu(&blob).unwrap_err();
        assert!(matches!(err, SgxError::Paging(_)), "replay must fail");
    }

    #[test]
    fn eldu_rejects_rollback() {
        let (mut m, eid, base) = built_enclave();
        let va = base.add(2 * PAGE_SIZE as u64);
        let old = m.ewb(eid, va).unwrap();
        m.eldu(&old).unwrap();
        m.eenter(0, eid, base).unwrap();
        m.write(0, va, b"newer data").unwrap();
        m.eexit(0).unwrap();
        let _new = m.ewb(eid, va).unwrap();
        // OS tries to reload the *old* snapshot.
        let err = m.eldu(&old).unwrap_err();
        assert!(matches!(err, SgxError::Paging(_)), "rollback must fail");
    }

    #[test]
    fn eldu_rejects_forgery() {
        let (mut m, eid, base) = built_enclave();
        let va = base.add(2 * PAGE_SIZE as u64);
        let mut blob = m.ewb(eid, va).unwrap();
        blob.sealed[0] ^= 1;
        let err = m.eldu(&blob).unwrap_err();
        assert!(matches!(err, SgxError::Paging(_)));
    }

    #[test]
    fn ewb_interrupts_running_thread() {
        let (mut m, eid, base) = built_enclave();
        let va = base.add(2 * PAGE_SIZE as u64);
        m.eenter(0, eid, base).unwrap();
        m.read(0, va, 1).unwrap();
        let _blob = m.ewb(eid, va).unwrap();
        assert_eq!(m.current_enclave(0), None, "running thread must take AEX");
        assert!(m.stats().aexes >= 1);
        assert!(m.stats().ipis >= 1);
        m.audit_tlbs().unwrap();
    }

    #[test]
    fn eremove_frees_everything() {
        let (mut m, eid, _base) = built_enclave();
        let free_before = m.free_epc_pages();
        m.eremove(eid).unwrap();
        // 1 SECS + 1 TCS + 3 REG pages come back.
        assert_eq!(m.free_epc_pages(), free_before + 5);
        assert!(m.enclaves().get(eid).is_none());
    }

    /// Regression: after an AEX the thread no longer counts as active, but
    /// its TCS is still busy with a saved context awaiting ERESUME.
    /// EREMOVE in that window must refuse cleanly — previously it freed
    /// the pages out from under the interrupted context — and must leave
    /// the enclave fully resumable.
    #[test]
    fn eremove_rejects_interrupted_context() {
        let (mut m, eid, base) = built_enclave();
        m.eenter(0, eid, base).unwrap();
        m.set_reg(0, 4, 0xFEED);
        m.aex(0).unwrap();
        assert_eq!(m.enclaves().get(eid).unwrap().active_threads, 0);
        let free_before = m.free_epc_pages();
        let err = m.eremove(eid).unwrap_err();
        assert!(matches!(err, SgxError::BadEnclaveState(_)), "got {err}");
        // The refusal must not have touched EPCM or enclave state.
        assert_eq!(m.free_epc_pages(), free_before);
        assert!(m.enclaves().get(eid).is_some());
        m.audit_epcm().unwrap();
        // The interrupted context is still intact and can unwind.
        m.eresume(0, eid, base).unwrap();
        assert_eq!(m.reg(0, 4), 0xFEED, "saved context survived");
        m.eexit(0).unwrap();
        m.eremove(eid).unwrap();
        m.audit_epcm().unwrap();
    }

    #[test]
    fn physical_probe_of_epc_is_ciphertext() {
        let (mut m, eid, base) = built_enclave();
        let va = base.add(PAGE_SIZE as u64);
        m.eenter(0, eid, base).unwrap();
        m.write(0, va, b"TOP-SECRET-DATA!").unwrap();
        m.eexit(0).unwrap();
        let pte = m.os_lookup(ProcessId(0), va.vpn()).unwrap();
        let probe = m.physical_probe(pte.ppn);
        assert!(
            !probe.windows(16).any(|w| w == b"TOP-SECRET-DATA!"),
            "plaintext must not appear on the DRAM bus"
        );
    }

    #[test]
    fn physical_tamper_detected_on_next_access() {
        let (mut m, eid, base) = built_enclave();
        let va = base.add(PAGE_SIZE as u64);
        let pte = m.os_lookup(ProcessId(0), va.vpn()).unwrap();
        m.physical_tamper(pte.ppn.base(), &[0x66; 8]);
        m.eenter(0, eid, base).unwrap();
        let err = m.read(0, va, 8).unwrap_err();
        assert!(err.is_fault(FaultKind::IntegrityViolation));
    }

    #[test]
    fn os_remap_attack_defeated() {
        // OS points the victim's VA at another enclave's EPC page.
        let (mut m, eid, base) = built_enclave();
        let other_base = VirtAddr(0x80_0000);
        let other = m
            .ecreate(ProcessId(0), VirtRange::new(other_base, PAGE_SIZE as u64))
            .unwrap();
        m.eadd(
            other,
            other_base,
            PageType::Reg,
            PageSource::Image(b"victim secret".to_vec()),
            PagePerms::RW,
        )
        .unwrap();
        let victim_pte = m.os_lookup(ProcessId(0), other_base.vpn()).unwrap();
        // Attack: remap a page of `eid`'s ELRANGE onto the other enclave's
        // EPC frame.
        let target = base.add(PAGE_SIZE as u64);
        m.os_map(ProcessId(0), target.vpn(), victim_pte.ppn, PagePerms::RW);
        m.flush_all_tlbs();
        m.eenter(0, eid, base).unwrap();
        let err = m.read(0, target, 8).unwrap_err();
        assert!(err.is_fault(FaultKind::EpcmEnclaveMismatch));
        m.audit_tlbs().unwrap();
    }

    #[test]
    fn elrange_overlap_rejected() {
        let mut m = machine();
        let base = VirtAddr(0x10_0000);
        m.ecreate(ProcessId(0), VirtRange::new(base, 4 * PAGE_SIZE as u64))
            .unwrap();
        let err = m
            .ecreate(
                ProcessId(0),
                VirtRange::new(base.add(PAGE_SIZE as u64), PAGE_SIZE as u64),
            )
            .unwrap_err();
        assert!(matches!(err, SgxError::RangeConflict(_)));
    }

    #[test]
    fn opaque_pages_do_not_materialize() {
        let mut m = machine();
        let base = VirtAddr(0x10_0000);
        let eid = m
            .ecreate(ProcessId(0), VirtRange::new(base, 8 * PAGE_SIZE as u64))
            .unwrap();
        let resident_before = m.resident_pages();
        for i in 0..8u64 {
            m.eadd(
                eid,
                base.add(i * PAGE_SIZE as u64),
                PageType::Reg,
                PageSource::Opaque { seed: i },
                PagePerms::RX,
            )
            .unwrap();
            m.eextend(eid, base.add(i * PAGE_SIZE as u64)).unwrap();
        }
        assert_eq!(m.resident_pages(), resident_before);
    }

    #[test]
    fn opaque_seed_changes_measurement() {
        let a = PageSource::Opaque { seed: 1 }.content_digest();
        let b = PageSource::Opaque { seed: 2 }.content_digest();
        assert_ne!(a, b);
    }

    #[test]
    fn eaug_eaccept_lifecycle() {
        // Reserve one unadded page inside ELRANGE for dynamic growth.
        let mut m = machine();
        let base = VirtAddr(0x10_0000);
        let eid = m
            .ecreate(ProcessId(0), VirtRange::new(base, 3 * PAGE_SIZE as u64))
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
        let dynamic = base.add(2 * PAGE_SIZE as u64);
        // EAUG before EINIT is rejected.
        assert!(matches!(
            m.eaug(eid, dynamic),
            Err(SgxError::BadEnclaveState(_))
        ));
        let measured = m.enclaves().get(eid).unwrap().measurement.finalize();
        m.einit(eid, &SigStruct::new(b"t", measured)).unwrap();
        // OS grows the enclave.
        m.eaug(eid, dynamic).unwrap();
        // Pending page is inaccessible even to the owner...
        m.eenter(0, eid, base).unwrap();
        let err = m.read(0, dynamic, 4).unwrap_err();
        assert!(err.is_fault(FaultKind::NotAccepted));
        // ...until the enclave accepts it.
        m.eaccept(0, dynamic).unwrap();
        m.write(0, dynamic, b"grown").unwrap();
        assert_eq!(m.read(0, dynamic, 5).unwrap(), b"grown");
        m.eexit(0).unwrap();
        // The untrusted world still sees abort-page ones.
        assert_eq!(m.read(0, dynamic, 4).unwrap(), vec![0xFF; 4]);
        m.audit_tlbs().unwrap();
        m.audit_epcm().unwrap();
    }

    #[test]
    fn eaccept_rejects_foreign_and_double_accept() {
        let (mut m, eid, base) = built_enclave();
        // Double-accept / non-pending page.
        m.eenter(0, eid, base).unwrap();
        let err = m.eaccept(0, base.add(PAGE_SIZE as u64)).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
        m.eexit(0).unwrap();
        // A different enclave cannot accept the victim's pending page.
        let other_base = VirtAddr(0x80_0000);
        let other = m
            .ecreate(
                ProcessId(0),
                VirtRange::new(other_base, 2 * PAGE_SIZE as u64),
            )
            .unwrap();
        m.add_tcs(other, other_base, other_base.add(PAGE_SIZE as u64))
            .unwrap();
        let measured = m.enclaves().get(other).unwrap().measurement.finalize();
        m.einit(other, &SigStruct::new(b"o", measured)).unwrap();
        let dynamic = other_base.add(PAGE_SIZE as u64);
        m.eaug(other, dynamic).unwrap();
        m.eenter(0, eid, base).unwrap();
        let err = m.eaccept(0, dynamic).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn eaug_outside_elrange_rejected() {
        let (mut m, eid, _base) = built_enclave();
        let err = m.eaug(eid, VirtAddr(0x90_0000)).unwrap_err();
        assert!(matches!(err, SgxError::RangeConflict(_)));
    }

    #[test]
    fn epc_exhaustion_reported() {
        let mut cfg = HwConfig::small();
        cfg.prm_pages = 2;
        cfg.dram_pages = 1024;
        let mut m = Machine::new(cfg);
        let base = VirtAddr(0x10_0000);
        let eid = m
            .ecreate(ProcessId(0), VirtRange::new(base, 4 * PAGE_SIZE as u64))
            .unwrap();
        m.eadd(eid, base, PageType::Reg, PageSource::Zeros, PagePerms::RW)
            .unwrap();
        let err = m
            .eadd(
                eid,
                base.add(PAGE_SIZE as u64),
                PageType::Reg,
                PageSource::Zeros,
                PagePerms::RW,
            )
            .unwrap_err();
        assert_eq!(err, SgxError::EpcFull);
    }

    /// One enclave of the allocator model test: where its next EADD goes,
    /// its resident REG pages and the blobs of its evicted ones.
    struct ModelEnclave {
        eid: EnclaveId,
        next_va: VirtAddr,
        resident: Vec<VirtAddr>,
        evicted: Vec<EvictedPage>,
    }

    /// Checks one allocating instruction against the reference free list:
    /// the instruction must succeed with the PPN the list pops, or fail
    /// with `EpcFull` exactly when the list is empty. Returns whether the
    /// EPC is now exhausted.
    fn expect_alloc(model: &mut Vec<Ppn>, got: Result<Ppn>, step: usize) -> bool {
        match (model.pop(), got) {
            (Some(want), Ok(ppn)) => {
                assert_eq!(ppn, want, "step {step}: PPN");
                false
            }
            (None, Err(SgxError::EpcFull)) => true,
            (want, got) => panic!("step {step}: reference {want:?}, machine {got:?}"),
        }
    }

    /// The on-demand EPC allocator against the pre-filled free list it
    /// replaced (every PRM page in a `Vec`, reversed, popped for each
    /// allocation, freed pages pushed). Random ECREATE/EADD/EWB/ELDU/
    /// EREMOVE sequences run until the EPC is full; every step must hand
    /// out the same PPN and report the same `free_epc_pages()`, and
    /// `EpcFull` must come at the same step.
    #[test]
    fn epc_allocator_matches_prefilled_free_list() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const ELRANGE_PAGES: u64 = 2048;
        let pid = ProcessId(0);
        for seed in 0..4u64 {
            let mut m = machine();
            let mut model: Vec<Ppn> = (m.config().prm_start()..m.config().dram_pages)
                .map(Ppn)
                .collect();
            model.reverse();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut enclaves: Vec<ModelEnclave> = Vec::new();
            let mut next_base = 0x1000_0000u64;
            let mut exhausted = false;
            for step in 0..20_000 {
                let roll = rng.gen_range(0..100u32);
                let pick = rng.gen_range(0..enclaves.len().max(1));
                if enclaves.is_empty() || roll < 2 {
                    let base = VirtAddr(next_base);
                    next_base += ELRANGE_PAGES * PAGE_SIZE as u64;
                    let range = VirtRange::new(base, ELRANGE_PAGES * PAGE_SIZE as u64);
                    let got = m.ecreate(pid, range).map(|eid| {
                        enclaves.push(ModelEnclave {
                            eid,
                            next_va: base,
                            resident: Vec::new(),
                            evicted: Vec::new(),
                        });
                        m.epcm()
                            .iter()
                            .find(|(_, e)| e.eid == eid && e.page_type == PageType::Secs)
                            .expect("SECS page")
                            .0
                    });
                    exhausted = expect_alloc(&mut model, got, step);
                } else if roll < 62 {
                    let e = &mut enclaves[pick];
                    let va = e.next_va;
                    let got = m
                        .eadd(e.eid, va, PageType::Reg, PageSource::Zeros, PagePerms::RW)
                        .map(|()| m.os_lookup(pid, va.vpn()).expect("mapped").ppn);
                    if got.is_ok() {
                        e.next_va = va.add(PAGE_SIZE as u64);
                        e.resident.push(va);
                    }
                    exhausted = expect_alloc(&mut model, got, step);
                } else if roll < 82 {
                    let e = &mut enclaves[pick];
                    if e.resident.is_empty() {
                        continue;
                    }
                    let va = e.resident.swap_remove(rng.gen_range(0..e.resident.len()));
                    let ppn = m.os_lookup(pid, va.vpn()).expect("resident").ppn;
                    e.evicted.push(m.ewb(e.eid, va).unwrap());
                    model.push(ppn);
                } else if roll < 99 {
                    let e = &mut enclaves[pick];
                    if e.evicted.is_empty() {
                        continue;
                    }
                    let blob = e.evicted.swap_remove(rng.gen_range(0..e.evicted.len()));
                    let va = blob.vpn.base();
                    let got = m
                        .eldu(&blob)
                        .map(|()| m.os_lookup(pid, blob.vpn).expect("reloaded").ppn);
                    if got.is_ok() {
                        e.resident.push(va);
                    }
                    exhausted = expect_alloc(&mut model, got, step);
                } else {
                    let e = enclaves.swap_remove(pick);
                    let pages = m.epcm().pages_of(e.eid);
                    m.eremove(e.eid).unwrap();
                    model.extend(pages);
                }
                assert_eq!(m.free_epc_pages(), model.len(), "seed {seed} step {step}");
                if exhausted {
                    break;
                }
            }
            assert!(exhausted, "seed {seed}: the EPC never filled");
            m.audit_epcm().unwrap();
        }
    }
}
