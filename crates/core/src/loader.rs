//! Enclave images and the loader (§ IV-C "Initialization").
//!
//! An [`EnclaveImage`] plays the role of the signed enclave file: it fixes
//! the memory layout, carries the author identity, the EDL interface, and —
//! the nested-enclave addition — the *expected identities* of counterpart
//! enclaves that NASSO validates at association time.
//!
//! Layout of a loaded enclave (page granularity):
//!
//! ```text
//! base ┌──────────────┐
//!      │ TCS          │ 1 page
//!      ├──────────────┤
//!      │ code         │ code_pages (RX, opaque content seeded by identity)
//!      ├──────────────┤
//!      │ data         │ ceil(data.len() / 4096) pages (RW, measured bytes)
//!      ├──────────────┤
//!      │ heap         │ heap_pages (RW, zeros)
//!      └──────────────┘
//! ```

use crate::edl::Edl;
use crate::nasso::ExpectedIdentity;
use ne_crypto::Digest32;
use ne_sgx::addr::{VirtAddr, VirtRange, PAGE_SIZE};
use ne_sgx::enclave::{EnclaveId, Measurement, ProcessId, SigStruct};
use ne_sgx::epcm::{PagePerms, PageType};
use ne_sgx::error::Result;
use ne_sgx::instr::PageSource;
use ne_sgx::machine::Machine;

/// A signed enclave file.
#[derive(Debug, Clone)]
pub struct EnclaveImage {
    /// Human-readable enclave name (part of the code identity).
    pub name: String,
    /// Author identity (becomes MRSIGNER).
    pub signer: Vec<u8>,
    /// Number of code pages (content identified by the image identity but
    /// kept opaque — see [`PageSource::Opaque`]).
    pub code_pages: u64,
    /// Initial data segment (real, measured bytes).
    pub data: Vec<u8>,
    /// Heap pages (zero-initialized).
    pub heap_pages: u64,
    /// ELRANGE pages reserved past the heap for SGX2 dynamic growth
    /// (EAUG/EACCEPT); not EADDed and therefore not measured.
    pub reserve_pages: u64,
    /// Declared interface.
    pub edl: Edl,
    /// NASSO expectation: identity of the outer enclave this image may bind
    /// to (present only in inner-enclave files).
    pub expected_outer: Option<ExpectedIdentity>,
    /// NASSO expectation: identities of inner enclaves allowed to join
    /// (present only in outer-enclave files).
    pub expected_inners: Vec<ExpectedIdentity>,
}

impl EnclaveImage {
    /// Creates an image with one heap page and no data segment.
    pub fn new(name: &str, signer: &[u8]) -> EnclaveImage {
        EnclaveImage {
            name: name.to_string(),
            signer: signer.to_vec(),
            code_pages: 4,
            data: Vec::new(),
            heap_pages: 1,
            reserve_pages: 0,
            edl: Edl::new(),
            expected_outer: None,
            expected_inners: Vec::new(),
        }
    }

    /// Sets the code-segment size in pages.
    pub fn code_pages(mut self, pages: u64) -> EnclaveImage {
        assert!(pages > 0, "an enclave needs at least one code page");
        self.code_pages = pages;
        self
    }

    /// Sets the initial data segment.
    pub fn data(mut self, data: Vec<u8>) -> EnclaveImage {
        self.data = data;
        self
    }

    /// Sets the heap size in pages.
    pub fn heap_pages(mut self, pages: u64) -> EnclaveImage {
        self.heap_pages = pages;
        self
    }

    /// Reserves unmeasured ELRANGE pages for SGX2 dynamic heap growth.
    pub fn reserve_pages(mut self, pages: u64) -> EnclaveImage {
        self.reserve_pages = pages;
        self
    }

    /// Sets the EDL interface.
    pub fn edl(mut self, edl: Edl) -> EnclaveImage {
        self.edl = edl;
        self
    }

    /// Embeds the expected outer identity (inner-enclave files).
    pub fn expect_outer(mut self, id: ExpectedIdentity) -> EnclaveImage {
        self.expected_outer = Some(id);
        self
    }

    /// Embeds an allowed inner identity (outer-enclave files).
    pub fn expect_inner(mut self, id: ExpectedIdentity) -> EnclaveImage {
        self.expected_inners.push(id);
        self
    }

    /// Pages occupied by the data segment.
    pub fn data_pages(&self) -> u64 {
        (self.data.len() as u64).div_ceil(PAGE_SIZE as u64)
    }

    /// Total ELRANGE pages (TCS + code + data + heap + dynamic reserve).
    pub fn total_pages(&self) -> u64 {
        1 + self.code_pages + self.data_pages() + self.heap_pages + self.reserve_pages
    }

    /// Seed identifying the content of code page `idx` — a function of the
    /// enclave name and interface (`edl_digest`, the EDL's digest, hashed
    /// once per pass by the caller), so different libraries measure
    /// differently.
    fn code_seed(&self, edl_digest: &Digest32, idx: u64) -> u64 {
        let mut h = ne_crypto::sha256::Sha256::new();
        h.update(self.name.as_bytes());
        h.update(edl_digest);
        h.update(&idx.to_le_bytes());
        let d = h.finalize();
        u64::from_le_bytes(d[..8].try_into().expect("8 bytes"))
    }

    /// Replays the measurement the loader will produce at `base`, without
    /// touching a machine. This is what lets one enclave's file embed the
    /// *expected* MRENCLAVE of a counterpart that has not been loaded yet.
    pub fn expected_mrenclave(&self, base: VirtAddr) -> Digest32 {
        let mut m = Measurement::new();
        m.ecreate(VirtRange::new(base, self.total_pages() * PAGE_SIZE as u64));
        let mut offset = 0u64;
        // TCS page: EADD only, matching `Machine::add_tcs`.
        m.eadd(offset, 1, perm_bits(PagePerms::RW));
        offset += PAGE_SIZE as u64;
        let edl_digest = self.edl.digest();
        for i in 0..self.code_pages {
            m.eadd(offset, 2, perm_bits(PagePerms::RX));
            m.eextend(
                offset,
                &PageSource::Opaque {
                    seed: self.code_seed(&edl_digest, i),
                }
                .content_digest(),
            );
            offset += PAGE_SIZE as u64;
        }
        for chunk in self.data.chunks(PAGE_SIZE) {
            m.eadd(offset, 2, perm_bits(PagePerms::RW));
            m.eextend(offset, &PageSource::Image(chunk.to_vec()).content_digest());
            offset += PAGE_SIZE as u64;
        }
        for _ in 0..self.heap_pages {
            m.eadd(offset, 2, perm_bits(PagePerms::RW));
            m.eextend(offset, &PageSource::Zeros.content_digest());
            offset += PAGE_SIZE as u64;
        }
        m.finalize()
    }

    /// The SIGSTRUCT shipped in this file for a load at `base`.
    pub fn sigstruct(&self, base: VirtAddr) -> SigStruct {
        SigStruct::new(&self.signer, self.expected_mrenclave(base))
    }

    /// The identity NASSO counterparts should expect of this image loaded
    /// at `base`.
    pub fn identity(&self, base: VirtAddr) -> ExpectedIdentity {
        ExpectedIdentity::enclave(self.expected_mrenclave(base))
    }
}

fn perm_bits(p: PagePerms) -> u8 {
    (p.r as u8) | ((p.w as u8) << 1) | ((p.x as u8) << 2)
}

/// Result of loading an image: ids and layout facts the runtime needs.
#[derive(Debug, Clone)]
pub struct LoadedLayout {
    /// The created enclave.
    pub eid: EnclaveId,
    /// ELRANGE base (also the TCS page).
    pub base: VirtAddr,
    /// Entry point (first code page).
    pub entry: VirtAddr,
    /// First data-segment address.
    pub data_base: VirtAddr,
    /// First heap address.
    pub heap_base: VirtAddr,
    /// Heap size in bytes.
    pub heap_len: u64,
}

/// Loads `image` into process `pid` at `base`: ECREATE, EADD+EEXTEND of
/// every page, EINIT against the image's SIGSTRUCT.
///
/// # Errors
///
/// Any life-cycle error from the underlying instructions (EPC exhaustion,
/// range conflicts, measurement mismatch).
pub fn load_image(
    machine: &mut Machine,
    pid: ProcessId,
    base: VirtAddr,
    image: &EnclaveImage,
) -> Result<LoadedLayout> {
    let total = image.total_pages() * PAGE_SIZE as u64;
    let eid = machine.ecreate(pid, VirtRange::new(base, total))?;
    let mut va = base;
    let entry = base.add(PAGE_SIZE as u64);
    machine.add_tcs(eid, va, entry)?;
    va = va.add(PAGE_SIZE as u64);
    let edl_digest = image.edl.digest();
    for i in 0..image.code_pages {
        machine.eadd(
            eid,
            va,
            PageType::Reg,
            PageSource::Opaque {
                seed: image.code_seed(&edl_digest, i),
            },
            PagePerms::RX,
        )?;
        machine.eextend(eid, va)?;
        va = va.add(PAGE_SIZE as u64);
    }
    let data_base = va;
    for chunk in image.data.chunks(PAGE_SIZE) {
        machine.eadd(
            eid,
            va,
            PageType::Reg,
            PageSource::Image(chunk.to_vec()),
            PagePerms::RW,
        )?;
        machine.eextend(eid, va)?;
        va = va.add(PAGE_SIZE as u64);
    }
    let heap_base = va;
    for _ in 0..image.heap_pages {
        machine.eadd(eid, va, PageType::Reg, PageSource::Zeros, PagePerms::RW)?;
        machine.eextend(eid, va)?;
        va = va.add(PAGE_SIZE as u64);
    }
    machine.einit(eid, &image.sigstruct(base))?;
    Ok(LoadedLayout {
        eid,
        base,
        entry,
        data_base,
        heap_base,
        heap_len: image.heap_pages * PAGE_SIZE as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ne_sgx::config::HwConfig;

    fn image() -> EnclaveImage {
        EnclaveImage::new("app", b"acme")
            .code_pages(2)
            .data(b"initial config".to_vec())
            .heap_pages(2)
            .edl(Edl::new().ecall("run"))
    }

    #[test]
    fn expected_measurement_matches_load() {
        let mut m = Machine::new(HwConfig::small());
        let img = image();
        let base = VirtAddr(0x10_0000);
        let predicted = img.expected_mrenclave(base);
        let layout = load_image(&mut m, ProcessId(0), base, &img).unwrap();
        let actual = m.enclaves().get(layout.eid).unwrap().mrenclave;
        assert_eq!(predicted, actual, "replay must match the real load");
    }

    #[test]
    fn measurement_is_base_independent() {
        // SGX measures SECS.SIZE and base-relative page offsets, never
        // the load address: the same image at a different base is the
        // same identity. Live migration leans on this — the rebuilt
        // enclave on the target lands wherever that machine's allocator
        // puts it yet must derive the same seal key.
        let img = image();
        assert_eq!(
            img.expected_mrenclave(VirtAddr(0x10_0000)),
            img.expected_mrenclave(VirtAddr(0x20_0000)),
            "identity must be load-position-independent"
        );
    }

    #[test]
    fn measurement_depends_on_name_and_edl() {
        let a = image();
        let mut b = image();
        b.name = "app2".into();
        assert_ne!(
            a.expected_mrenclave(VirtAddr(0x10_0000)),
            b.expected_mrenclave(VirtAddr(0x10_0000))
        );
        let c = image().edl(Edl::new().ecall("run").ecall("extra"));
        assert_ne!(
            a.expected_mrenclave(VirtAddr(0x10_0000)),
            c.expected_mrenclave(VirtAddr(0x10_0000))
        );
    }

    #[test]
    fn measurement_depends_on_data() {
        let a = image();
        let b = image().data(b"different config".to_vec());
        assert_ne!(
            a.expected_mrenclave(VirtAddr(0x10_0000)),
            b.expected_mrenclave(VirtAddr(0x10_0000))
        );
    }

    #[test]
    fn layout_is_contiguous() {
        let mut m = Machine::new(HwConfig::small());
        let img = image();
        let base = VirtAddr(0x10_0000);
        let l = load_image(&mut m, ProcessId(0), base, &img).unwrap();
        assert_eq!(l.entry, base.add(PAGE_SIZE as u64));
        assert_eq!(l.data_base, base.add(3 * PAGE_SIZE as u64));
        assert_eq!(l.heap_base, base.add(4 * PAGE_SIZE as u64));
        assert_eq!(l.heap_len, 2 * PAGE_SIZE as u64);
        assert_eq!(img.total_pages(), 6);
    }

    #[test]
    fn loaded_data_readable_from_inside() {
        let mut m = Machine::new(HwConfig::small());
        let img = image();
        let base = VirtAddr(0x10_0000);
        let l = load_image(&mut m, ProcessId(0), base, &img).unwrap();
        m.eenter(0, l.eid, l.base).unwrap();
        assert_eq!(m.read(0, l.data_base, 14).unwrap(), b"initial config");
        m.eexit(0).unwrap();
    }

    #[test]
    fn code_pages_are_executable_data_pages_not() {
        let mut m = Machine::new(HwConfig::small());
        let l = load_image(&mut m, ProcessId(0), VirtAddr(0x10_0000), &image()).unwrap();
        m.eenter(0, l.eid, l.base).unwrap();
        m.fetch(0, l.entry).unwrap();
        assert!(m.fetch(0, l.heap_base).is_err());
    }
}
