//! The nested-enclave SDK runtime: enclave registry and call dispatch.
//!
//! Enclave "code" in this reproduction is a set of registered host
//! closures; the runtime drives the real architectural instructions around
//! each call (EENTER/EEXIT for ecalls and ocalls, NEENTER/NEEXIT for
//! n_ecalls and n_ocalls), enforces the EDL interface, and charges the
//! Table II call costs so workload timings come out of the same simulated
//! clock as the hardware events.

use crate::edl::Edl;
use crate::loader::{load_image, EnclaveImage, LoadedLayout};
use crate::nasso::{nasso, AssocPolicy, ExpectedIdentity};
use crate::transitions::{neenter, neexit};
use crate::validate::NestedValidator;
use ne_sgx::addr::{VirtAddr, PAGE_SIZE};
use ne_sgx::config::HwConfig;
use ne_sgx::cost::CostProfile;
use ne_sgx::enclave::{EnclaveId, ProcessId};
use ne_sgx::error::{Result, SgxError};
use ne_sgx::machine::Machine;
use ne_sgx::metrics::CycleCategory;
use ne_sgx::trace::SpanKind;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// A trusted function body running inside an enclave.
pub type TrustedFn = Arc<dyn Fn(&mut EnclaveCtx<'_>, &[u8]) -> Result<Vec<u8>> + Send + Sync>;

/// An untrusted function body (ocall target).
pub type UntrustedFn = Arc<dyn Fn(&mut UntrustedCtx<'_>, &[u8]) -> Result<Vec<u8>> + Send + Sync>;

/// Runtime record of a loaded enclave.
struct EnclaveRt {
    layout: LoadedLayout,
    edl: Edl,
    funcs: HashMap<String, TrustedFn>,
    heap_cursor: Cell<u64>,
    /// Current heap size — grows past `layout.heap_len` into the image's
    /// reserved region via SGX2 EAUG/EACCEPT.
    heap_limit: Cell<u64>,
    image: EnclaveImage,
}

impl EnclaveRt {
    /// Bump-allocates `len` bytes in this enclave's heap.
    fn alloc(&self, len: usize) -> Result<VirtAddr> {
        let aligned = (len as u64 + 63) & !63; // line-align allocations
        let cursor = self.heap_cursor.get();
        if cursor + aligned > self.heap_limit.get() {
            return Err(SgxError::GeneralProtection(format!(
                "heap of '{}' exhausted ({} of {} bytes used)",
                self.image.name,
                cursor,
                self.heap_limit.get()
            )));
        }
        self.heap_cursor.set(cursor + aligned);
        Ok(self.layout.heap_base.add(cursor))
    }
}

/// Immutable (after setup) function/enclave registry.
#[derive(Default)]
struct Registry {
    enclaves: HashMap<String, EnclaveRt>,
    names_by_eid: HashMap<u64, String>,
    untrusted: HashMap<String, UntrustedFn>,
}

impl Registry {
    fn enclave(&self, name: &str) -> Result<&EnclaveRt> {
        self.enclaves
            .get(name)
            .ok_or_else(|| SgxError::GeneralProtection(format!("unknown enclave '{name}'")))
    }

    fn by_eid(&self, eid: EnclaveId) -> Result<&EnclaveRt> {
        let name = self
            .names_by_eid
            .get(&eid.0)
            .ok_or_else(|| SgxError::GeneralProtection(format!("{eid} not registered")))?;
        self.enclave(name)
    }
}

/// An application composed of enclaves on a simulated machine.
///
/// # Example
///
/// ```
/// use ne_core::runtime::NestedApp;
/// use ne_core::loader::EnclaveImage;
/// use ne_core::edl::Edl;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), ne_sgx::error::SgxError> {
/// let mut app = NestedApp::new(ne_sgx::config::HwConfig::small());
/// let img = EnclaveImage::new("greeter", b"acme")
///     .edl(Edl::new().ecall("greet"));
/// app.load(img, [("greet".to_string(),
///     Arc::new(|_cx: &mut ne_core::runtime::EnclaveCtx<'_>, args: &[u8]| {
///         let mut out = b"hello, ".to_vec();
///         out.extend_from_slice(args);
///         Ok(out)
///     }) as ne_core::runtime::TrustedFn)])?;
/// let reply = app.ecall(0, "greeter", "greet", b"world")?;
/// assert_eq!(reply, b"hello, world");
/// # Ok(())
/// # }
/// ```
pub struct NestedApp {
    /// The machine (public: tests and experiments poke at it directly).
    pub machine: Machine,
    registry: Registry,
    next_base: u64,
    pid: ProcessId,
}

impl std::fmt::Debug for NestedApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NestedApp")
            .field("machine", &self.machine)
            .field("enclaves", &self.registry.enclaves.len())
            .finish_non_exhaustive()
    }
}

/// Where freshly loaded enclaves are placed (grows upward).
const ENCLAVE_VA_BASE: u64 = 0x1000_0000;

impl NestedApp {
    /// Boots a machine with the nested-enclave validator installed.
    pub fn new(cfg: HwConfig) -> NestedApp {
        NestedApp::with_machine(Machine::with_validator(
            cfg,
            Box::new(NestedValidator::new()),
        ))
    }

    /// Boots from an existing machine (e.g. baseline validator for the
    /// monolithic comparisons, or a deeper [`NestedValidator`]).
    pub fn with_machine(machine: Machine) -> NestedApp {
        NestedApp {
            machine,
            registry: Registry::default(),
            next_base: ENCLAVE_VA_BASE,
            pid: ProcessId(0),
        }
    }

    /// Registers an untrusted (ocall-able) function.
    pub fn register_untrusted(&mut self, name: &str, f: UntrustedFn) {
        self.registry.untrusted.insert(name.to_string(), f);
    }

    /// Loads an enclave image and registers its trusted functions.
    ///
    /// # Errors
    ///
    /// Loader errors propagate; registering two enclaves with one name is
    /// rejected.
    pub fn load(
        &mut self,
        image: EnclaveImage,
        funcs: impl IntoIterator<Item = (String, TrustedFn)>,
    ) -> Result<EnclaveId> {
        if self.registry.enclaves.contains_key(&image.name) {
            return Err(SgxError::GeneralProtection(format!(
                "enclave '{}' already loaded",
                image.name
            )));
        }
        // Enclaves are packed back to back — ELRANGEs are adjacent in the
        // shared address space, exactly the layout the HeartBleed case
        // study's over-read walks across.
        let base = VirtAddr(self.next_base);
        self.next_base += image.total_pages() * PAGE_SIZE as u64;
        let layout = load_image(&mut self.machine, self.pid, base, &image)?;
        let eid = layout.eid;
        let rt = EnclaveRt {
            heap_limit: Cell::new(layout.heap_len),
            layout,
            edl: image.edl.clone(),
            funcs: funcs.into_iter().collect(),
            heap_cursor: Cell::new(0),
            image,
        };
        self.registry
            .names_by_eid
            .insert(eid.0, rt.image.name.clone());
        self.registry.enclaves.insert(rt.image.name.clone(), rt);
        Ok(eid)
    }

    /// The eid of a loaded enclave.
    ///
    /// # Errors
    ///
    /// Fails for unknown names.
    pub fn eid(&self, name: &str) -> Result<EnclaveId> {
        Ok(self.registry.enclave(name)?.layout.eid)
    }

    /// Layout facts of a loaded enclave.
    ///
    /// # Errors
    ///
    /// Fails for unknown names.
    pub fn layout(&self, name: &str) -> Result<LoadedLayout> {
        Ok(self.registry.enclave(name)?.layout.clone())
    }

    /// Tears the named enclave down (EREMOVE) and forgets it, so a fresh
    /// [`load`](NestedApp::load) may reuse the name — the respawn path of
    /// a self-healing host. The EPC pages are freed; the virtual range is
    /// not reused (a respawn gets a fresh ELRANGE further up).
    ///
    /// # Errors
    ///
    /// Unknown name, or EREMOVE refusing because threads are still active
    /// or a TCS carries an in-flight context.
    pub fn unload(&mut self, name: &str) -> Result<EnclaveId> {
        let eid = self.registry.enclave(name)?.layout.eid;
        self.machine.eremove(eid)?;
        self.registry.enclaves.remove(name);
        self.registry.names_by_eid.remove(&eid.0);
        Ok(eid)
    }

    /// Runs NASSO between two loaded enclaves, using the expected
    /// identities embedded in their images (falling back to the live
    /// identity when the image did not pin one — convenient for tests).
    ///
    /// # Errors
    ///
    /// All NASSO failure modes (§ IV-B), e.g. identity mismatch.
    pub fn associate(&mut self, inner: &str, outer: &str) -> Result<()> {
        self.associate_with_policy(inner, outer, AssocPolicy::SingleOuter)
    }

    /// [`NestedApp::associate`] with an explicit policy (§ VIII lattice).
    ///
    /// # Errors
    ///
    /// See [`NestedApp::associate`].
    pub fn associate_with_policy(
        &mut self,
        inner: &str,
        outer: &str,
        policy: AssocPolicy,
    ) -> Result<()> {
        let (inner, outer) = (self.registry.enclave(inner)?, self.registry.enclave(outer)?);
        let (inner_eid, outer_eid) = (inner.layout.eid, outer.layout.eid);
        let live = |eid: EnclaveId| self.machine.enclaves().get(eid).expect("loaded").mrenclave;
        let inner_expects = match &inner.image.expected_outer {
            Some(expect) => expect.clone(),
            None => ExpectedIdentity::enclave(live(outer_eid)),
        };
        // The outer's file may list several allowed inners; use the first
        // that matches, or fail with the first expectation (clear error).
        let (allowed, inner_live) = (&outer.image.expected_inners, Some(live(inner_eid)));
        let outer_expects = allowed
            .iter()
            .find(|e| e.mrenclave == inner_live)
            .or(allowed.first())
            .cloned()
            .unwrap_or_else(|| ExpectedIdentity::enclave(live(inner_eid)));
        nasso(
            &mut self.machine,
            inner_eid,
            outer_eid,
            &inner_expects,
            &outer_expects,
            policy,
        )
    }

    /// Dispatches an ecall: EENTER, run the trusted function, EEXIT.
    ///
    /// # Errors
    ///
    /// Interface violations, transition faults, and whatever the function
    /// itself returns.
    pub fn ecall(
        &mut self,
        core: usize,
        enclave: &str,
        func: &str,
        args: &[u8],
    ) -> Result<Vec<u8>> {
        let rt = self.registry.enclave(enclave)?;
        if !rt.edl.ecalls.contains(func) {
            return Err(SgxError::GeneralProtection(format!(
                "'{func}' is not a declared ecall of '{enclave}'"
            )));
        }
        let f = rt.funcs.get(func).ok_or_else(|| {
            SgxError::GeneralProtection(format!("'{enclave}' has no body for '{func}'"))
        })?;
        let span =
            self.machine
                .span_begin(core, SpanKind::Ecall, format_args!("{enclave}::{func}"));
        if let Err(e) = self.machine.eenter(core, rt.layout.eid, rt.layout.base) {
            self.machine.span_end(core, span);
            return Err(e);
        }
        if let Err(e) = self.machine.fetch(core, rt.layout.entry) {
            // Unwind the completed entry so the core and TCS stay usable:
            // without the EEXIT a failed fetch (evicted or tampered code
            // page) would leave the core stuck in enclave mode.
            self.machine.eexit(core)?;
            self.machine.span_end(core, span);
            return Err(e);
        }
        let mut cx = EnclaveCtx::new(&mut self.machine, &self.registry, core, rt);
        let result = f(&mut cx, args);
        self.machine.eexit(core)?;
        close_round_trip(&mut self.machine, core, span, |c| c.ecall);
        result
    }

    /// Builds an [`EnclaveCtx`] for a named enclave *without* performing a
    /// transition. The caller is responsible for having entered that
    /// enclave on `core` first (via [`Machine::eenter`]); experiment
    /// harnesses and tests use this to drive channels directly.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a loaded enclave.
    pub fn enclave_ctx(&mut self, core: usize, name: &str) -> EnclaveCtx<'_> {
        let rt = self
            .registry
            .enclave(name)
            .expect("enclave_ctx: unknown enclave");
        EnclaveCtx::new(&mut self.machine, &self.registry, core, rt)
    }

    /// Runs an untrusted closure with machine access (host-side driver
    /// code: clients, attackers, the "OS").
    pub fn untrusted<R>(&mut self, core: usize, f: impl FnOnce(&mut UntrustedCtx<'_>) -> R) -> R {
        let mut cx = UntrustedCtx {
            machine: &mut self.machine,
            core,
        };
        f(&mut cx)
    }
}

/// Execution context handed to trusted functions.
pub struct EnclaveCtx<'a> {
    /// The machine, for memory access and key instructions.
    pub machine: &'a mut Machine,
    registry: &'a Registry,
    core: usize,
    /// The executing enclave.
    pub eid: EnclaveId,
    /// The executing enclave's runtime record.
    rt: &'a EnclaveRt,
}

impl<'a> EnclaveCtx<'a> {
    /// A context for code of `rt`'s enclave running on `core`.
    fn new(
        machine: &'a mut Machine,
        registry: &'a Registry,
        core: usize,
        rt: &'a EnclaveRt,
    ) -> EnclaveCtx<'a> {
        EnclaveCtx {
            machine,
            registry,
            core,
            eid: rt.layout.eid,
            rt,
        }
    }

    /// The executing core.
    pub fn core(&self) -> usize {
        self.core
    }

    /// The executing enclave's name.
    pub fn name(&self) -> &str {
        &self.rt.image.name
    }

    /// Reads enclave (or, for inners, outer-enclave) memory.
    ///
    /// # Errors
    ///
    /// Access-validation faults.
    pub fn read(&mut self, va: VirtAddr, len: usize) -> Result<Vec<u8>> {
        self.machine.read(self.core, va, len)
    }

    /// Writes memory through the validated path.
    ///
    /// # Errors
    ///
    /// Access-validation faults.
    pub fn write(&mut self, va: VirtAddr, data: &[u8]) -> Result<()> {
        self.machine.write(self.core, va, data)
    }

    /// Charges explicit software work (e.g. crypto cycles).
    pub fn charge(&mut self, cycles: u64) {
        self.machine.charge(self.core, cycles);
    }

    /// Bump-allocates `len` bytes in this enclave's heap.
    ///
    /// # Errors
    ///
    /// Fails when the heap is exhausted.
    pub fn alloc(&mut self, len: usize) -> Result<VirtAddr> {
        self.rt.alloc(len)
    }

    /// Bump-allocates in another enclave's heap. Only meaningful where the
    /// hardware lets the caller actually touch that heap (an inner
    /// allocating shared buffers in its outer).
    ///
    /// # Errors
    ///
    /// Fails for unknown enclaves or exhausted heaps.
    pub fn alloc_in(&mut self, enclave: &str, len: usize) -> Result<VirtAddr> {
        self.registry.enclave(enclave)?.alloc(len)
    }

    /// Heap base of another enclave (for sharing layouts).
    ///
    /// # Errors
    ///
    /// Fails for unknown enclaves.
    pub fn heap_base_of(&self, enclave: &str) -> Result<VirtAddr> {
        Ok(self.registry.enclave(enclave)?.layout.heap_base)
    }

    /// Grows this enclave's heap by `pages` 4 KiB pages using SGX2 dynamic
    /// memory: the runtime issues the OS-side `EAUG` for each page of the
    /// image's reserved region, and the enclave `EACCEPT`s it before use.
    ///
    /// # Errors
    ///
    /// Fails when the image reserved no (or not enough) growth room, or on
    /// EPC exhaustion.
    pub fn expand_heap(&mut self, pages: u64) -> Result<()> {
        let rt = self.rt;
        let limit = rt.heap_limit.get();
        let max = rt.layout.heap_len + rt.image.reserve_pages * PAGE_SIZE as u64;
        let grow = pages * PAGE_SIZE as u64;
        if limit + grow > max {
            return Err(SgxError::GeneralProtection(format!(
                "'{}' reserved only {} dynamic pages",
                rt.image.name, rt.image.reserve_pages
            )));
        }
        let grow_base = rt.layout.heap_base.add(limit);
        for i in 0..pages {
            let va = grow_base.add(i * PAGE_SIZE as u64);
            self.machine.eaug(rt.layout.eid, va)?;
            self.machine.eaccept(self.core, va)?;
        }
        rt.heap_limit.set(limit + grow);
        Ok(())
    }

    /// Seals `data` with this enclave's EGETKEY sealing key so it can rest
    /// in untrusted storage. The blob can only be opened by an enclave
    /// with the same identity on this machine (policy
    /// [`ne_sgx::attest::KeyPolicy::SealToEnclave`]).
    ///
    /// # Errors
    ///
    /// Key-derivation faults (never inside a correctly entered enclave).
    pub fn seal_data(&mut self, data: &[u8]) -> Result<Vec<u8>> {
        use ne_sgx::attest::KeyPolicy;
        let key = self.machine.egetkey(self.core, KeyPolicy::SealToEnclave)?;
        // Fresh nonce per blob, carried in the header.
        let mut nonce = [0u8; 12];
        let stamp = ne_crypto::sha256::digest(data);
        nonce.copy_from_slice(&stamp[..12]);
        let cipher = ne_crypto::gcm::AesGcm::new(&key);
        let mut out = nonce.to_vec();
        out.extend(cipher.seal(&nonce, data, b"ne-seal"));
        Ok(out)
    }

    /// Opens a blob produced by [`EnclaveCtx::seal_data`] by an enclave
    /// with the same identity.
    ///
    /// # Errors
    ///
    /// [`SgxError::GeneralProtection`] when the blob is malformed, forged,
    /// or sealed by a different identity.
    pub fn unseal_data(&mut self, blob: &[u8]) -> Result<Vec<u8>> {
        use ne_sgx::attest::KeyPolicy;
        if blob.len() < 12 {
            return Err(SgxError::GeneralProtection("sealed blob too short".into()));
        }
        let key = self.machine.egetkey(self.core, KeyPolicy::SealToEnclave)?;
        let nonce: [u8; 12] = blob[..12].try_into().expect("12 bytes");
        ne_crypto::gcm::AesGcm::new(&key)
            .open(&nonce, &blob[12..], b"ne-seal")
            .map_err(|_| SgxError::GeneralProtection("sealed blob failed authentication".into()))
    }

    /// Performs an ocall: EEXIT to untrusted mode, run the registered
    /// untrusted function, EENTER back.
    ///
    /// # Errors
    ///
    /// Interface violations and transition faults propagate, as does the
    /// untrusted function's own error.
    pub fn ocall(&mut self, func: &str, args: &[u8]) -> Result<Vec<u8>> {
        let f = self.untrusted_body(func)?;
        let span = self
            .machine
            .span_begin(self.core, SpanKind::Ocall, format_args!("{func}"));
        self.machine.eexit(self.core)?;
        let mut ucx = UntrustedCtx {
            machine: self.machine,
            core: self.core,
        };
        let result = f(&mut ucx, args);
        self.machine
            .eenter(self.core, self.rt.layout.eid, self.rt.layout.base)?;
        close_round_trip(self.machine, self.core, span, |c| c.ocall);
        result
    }

    /// The untrusted body of `func`, which must be a declared ocall of
    /// this enclave.
    fn untrusted_body(&self, func: &str) -> Result<&'a UntrustedFn> {
        if !self.rt.edl.ocalls.contains(func) {
            return Err(SgxError::GeneralProtection(format!(
                "'{func}' is not a declared ocall of '{}'",
                self.name()
            )));
        }
        self.registry
            .untrusted
            .get(func)
            .ok_or_else(|| SgxError::GeneralProtection(format!("no untrusted body for '{func}'")))
    }

    /// Runs a registered untrusted function on another (untrusted-mode)
    /// core without any enclave transition — the service half of a
    /// switchless call ([`crate::switchless`]). The function must still be
    /// a declared ocall of this enclave.
    ///
    /// # Errors
    ///
    /// Interface violations; the worker must be a valid core in untrusted
    /// mode.
    pub fn run_untrusted_on(&mut self, core: usize, func: &str, args: &[u8]) -> Result<Vec<u8>> {
        let f = self.untrusted_body(func)?;
        if self.machine.current_enclave(core).is_some() {
            return Err(SgxError::GeneralProtection(
                "switchless worker core is in enclave mode".into(),
            ));
        }
        let mut ucx = UntrustedCtx {
            machine: self.machine,
            core,
        };
        f(&mut ucx, args)
    }

    /// Performs an n_ecall into one of this enclave's inner enclaves:
    /// NEENTER, run, NEEXIT.
    ///
    /// # Errors
    ///
    /// Hardware rejects calls into enclaves that are not inners of the
    /// caller; the EDL must declare the function.
    pub fn n_ecall(&mut self, inner: &str, func: &str, args: &[u8]) -> Result<Vec<u8>> {
        let rt = self.registry.enclave(inner)?;
        if !rt.edl.n_ecalls.contains(func) {
            return Err(SgxError::GeneralProtection(format!(
                "'{func}' is not a declared n_ecall of '{inner}'"
            )));
        }
        let f = rt.funcs.get(func).ok_or_else(|| {
            SgxError::GeneralProtection(format!("'{inner}' has no body for '{func}'"))
        })?;
        let span =
            self.machine
                .span_begin(self.core, SpanKind::NEcall, format_args!("{inner}::{func}"));
        if let Err(e) = neenter(self.machine, self.core, rt.layout.eid, rt.layout.base) {
            // Close the span so a refused entry (busy TCS, poisoned inner)
            // cannot leak an open frame into the latency accounting.
            self.machine.span_end(self.core, span);
            return Err(e);
        }
        let mut cx = EnclaveCtx::new(self.machine, self.registry, self.core, rt);
        let result = f(&mut cx, args);
        neexit(self.machine, self.core)?;
        close_round_trip(self.machine, self.core, span, |c| c.n_ecall);
        result
    }

    /// Performs an n_ocall into this (inner) enclave's outer enclave:
    /// NEEXIT, run the outer's function, NEENTER back. "With the n_ocall,
    /// an application in an inner enclave can call library functions
    /// isolated in the outer enclave with the same procedure call syntax."
    ///
    /// # Errors
    ///
    /// Fails when the caller has no outer, the EDL does not declare the
    /// function, or the outer provides no body for it.
    pub fn n_ocall(&mut self, func: &str, args: &[u8]) -> Result<Vec<u8>> {
        self.n_ocall_impl(func, args, None)
    }

    /// [`EnclaveCtx::n_ocall`] with an explicit outer enclave, for § VIII
    /// lattice inners associated with several outers.
    ///
    /// # Errors
    ///
    /// As [`EnclaveCtx::n_ocall`]; additionally faults when `outer` is not
    /// an outer enclave of the caller.
    pub fn n_ocall_to(&mut self, outer: &str, func: &str, args: &[u8]) -> Result<Vec<u8>> {
        let outer_eid = self.registry.enclave(outer)?.layout.eid;
        self.n_ocall_impl(func, args, Some(outer_eid))
    }

    fn n_ocall_impl(
        &mut self,
        func: &str,
        args: &[u8],
        target: Option<EnclaveId>,
    ) -> Result<Vec<u8>> {
        let inner = self.rt;
        if !inner.edl.n_ocalls.contains(func) {
            return Err(SgxError::GeneralProtection(format!(
                "'{func}' is not a declared n_ocall of '{}'",
                inner.image.name
            )));
        }
        let span = self
            .machine
            .span_begin(self.core, SpanKind::NOcall, format_args!("{func}"));
        match target {
            Some(outer) => crate::transitions::neexit_to(self.machine, self.core, outer)?,
            None => neexit(self.machine, self.core)?,
        }
        // Now in the outer enclave: resolve its identity and function.
        let outer_eid = self
            .machine
            .current_enclave(self.core)
            .expect("NEEXIT lands in the outer enclave");
        let outer = self.registry.by_eid(outer_eid)?;
        let f = outer.funcs.get(func).ok_or_else(|| {
            SgxError::GeneralProtection(format!(
                "outer '{}' has no body for '{func}'",
                outer.image.name
            ))
        })?;
        let mut cx = EnclaveCtx::new(self.machine, self.registry, self.core, outer);
        let result = f(&mut cx, args);
        neenter(self.machine, self.core, inner.layout.eid, inner.layout.base)?;
        close_round_trip(self.machine, self.core, span, |c| c.n_ocall);
        result
    }
}

/// Execution context for untrusted code (clients, the OS, attackers).
pub struct UntrustedCtx<'a> {
    /// The machine.
    pub machine: &'a mut Machine,
    core: usize,
}

impl<'a> UntrustedCtx<'a> {
    /// The executing core.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Reads memory as untrusted code (EPC reads observe abort-page ones).
    ///
    /// # Errors
    ///
    /// Page faults on unmapped addresses.
    pub fn read(&mut self, va: VirtAddr, len: usize) -> Result<Vec<u8>> {
        self.machine.read(self.core, va, len)
    }

    /// Writes memory as untrusted code (EPC writes are dropped).
    ///
    /// # Errors
    ///
    /// Page faults on unmapped addresses.
    pub fn write(&mut self, va: VirtAddr, data: &[u8]) -> Result<()> {
        self.machine.write(self.core, va, data)
    }

    /// Allocates fresh untrusted pages.
    pub fn alloc_untrusted(&mut self, pages: usize) -> VirtAddr {
        let pid = self.machine.core(self.core).pid;
        self.machine.os_alloc_untrusted(pid, pages)
    }

    /// Charges software work to the core.
    pub fn charge(&mut self, cycles: u64) {
        self.machine.charge(self.core, cycles);
    }
}

/// Completes a Table II round trip: charges its measured cost less the two
/// TLB flushes its transitions already charged, then closes its span.
fn close_round_trip(
    machine: &mut Machine,
    core: usize,
    span: u64,
    table2: fn(&CostProfile) -> u64,
) {
    let cost = &machine.config().cost;
    let extra = table2(cost).saturating_sub(2 * cost.tlb_flush);
    machine.charge_cat(core, CycleCategory::Transition, extra);
    machine.span_end(core, span);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tf(
        f: impl Fn(&mut EnclaveCtx<'_>, &[u8]) -> Result<Vec<u8>> + Send + Sync + 'static,
    ) -> TrustedFn {
        Arc::new(f)
    }

    fn demo_app() -> NestedApp {
        let mut app = NestedApp::new(HwConfig::small());
        // Outer: a "library" exposing `lib_twice` to inners and `serve` to
        // the untrusted world.
        let lib = EnclaveImage::new("lib", b"provider")
            .heap_pages(4)
            .edl(Edl::new().ecall("serve").n_ecall("unused"));
        app.load(
            lib,
            [
                (
                    "serve".to_string(),
                    tf(|cx, args| {
                        // Outer serves by delegating to the inner.
                        cx.n_ecall("app", "process", args)
                    }),
                ),
                (
                    "lib_twice".to_string(),
                    tf(|_cx, args| {
                        let mut out = args.to_vec();
                        out.extend_from_slice(args);
                        Ok(out)
                    }),
                ),
            ],
        )
        .unwrap();
        // Inner: application logic that uses the outer library via n_ocall.
        let appimg = EnclaveImage::new("app", b"tenant").heap_pages(2).edl(
            Edl::new()
                .ecall("process")
                .n_ecall("process")
                .n_ocall("lib_twice"),
        );
        app.load(
            appimg,
            [(
                "process".to_string(),
                tf(|cx, args| {
                    let doubled = cx.n_ocall("lib_twice", args)?;
                    let mut out = b"inner:".to_vec();
                    out.extend_from_slice(&doubled);
                    Ok(out)
                }),
            )],
        )
        .unwrap();
        app.associate("app", "lib").unwrap();
        app
    }

    #[test]
    fn ecall_roundtrip() {
        let mut app = demo_app();
        let out = app.ecall(0, "app", "process", b"xy").unwrap();
        assert_eq!(out, b"inner:xyxy");
        assert_eq!(app.machine.current_enclave(0), None);
    }

    #[test]
    fn n_ecall_through_outer() {
        let mut app = demo_app();
        let out = app.ecall(0, "lib", "serve", b"ab").unwrap();
        assert_eq!(out, b"inner:abab");
        let stats = app.machine.stats();
        assert!(stats.n_ecalls >= 1, "outer→inner used NEENTER");
        assert!(stats.n_ocalls >= 1, "inner→outer used NEEXIT");
    }

    #[test]
    fn undeclared_ecall_rejected() {
        let mut app = demo_app();
        let err = app.ecall(0, "lib", "lib_twice", b"x").unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn undeclared_n_ocall_rejected() {
        let mut app = NestedApp::new(HwConfig::small());
        let lib = EnclaveImage::new("lib", b"p").edl(Edl::new());
        app.load(lib, [("secret_fn".to_string(), tf(|_cx, _| Ok(vec![])))])
            .unwrap();
        let inner = EnclaveImage::new("app", b"t").edl(Edl::new().ecall("go"));
        app.load(
            inner,
            [("go".to_string(), tf(|cx, _| cx.n_ocall("secret_fn", b"")))],
        )
        .unwrap();
        app.associate("app", "lib").unwrap();
        let err = app.ecall(0, "app", "go", b"").unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn ocall_runs_untrusted_function() {
        let mut app = NestedApp::new(HwConfig::small());
        app.register_untrusted(
            "get_time",
            Arc::new(|_cx, _| Ok(42u64.to_le_bytes().to_vec())),
        );
        let img = EnclaveImage::new("e", b"a").edl(Edl::new().ecall("run").ocall("get_time"));
        app.load(
            img,
            [("run".to_string(), tf(|cx, _| cx.ocall("get_time", b"")))],
        )
        .unwrap();
        let out = app.ecall(0, "e", "run", b"").unwrap();
        assert_eq!(out, 42u64.to_le_bytes());
        let s = app.machine.stats();
        // ecall EENTER + ocall (EEXIT+EENTER) + final EEXIT.
        assert_eq!(s.ecalls, 2);
        assert_eq!(s.ocalls, 2);
    }

    #[test]
    fn heap_alloc_within_enclave() {
        let mut app = demo_app();
        let out = app.ecall(0, "app", "process", b"z").unwrap();
        assert!(!out.is_empty());
        // Direct allocation checks.
        app.machine
            .eenter(0, app.eid("app").unwrap(), app.layout("app").unwrap().base)
            .unwrap();
        let mut cx = app.enclave_ctx(0, "app");
        let a = cx.alloc(100).unwrap();
        let b = cx.alloc(100).unwrap();
        assert!(b.0 >= a.0 + 100);
        cx.write(a, b"heap data").unwrap();
        assert_eq!(cx.read(a, 9).unwrap(), b"heap data");
    }

    #[test]
    fn heap_exhaustion_reported() {
        let mut app = demo_app();
        let mut cx = app.enclave_ctx(0, "app");
        let err = cx.alloc(3 * PAGE_SIZE).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn duplicate_enclave_name_rejected() {
        let mut app = NestedApp::new(HwConfig::small());
        app.load(EnclaveImage::new("x", b"a"), []).unwrap();
        let err = app.load(EnclaveImage::new("x", b"a"), []).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn table2_call_costs_reflected_in_cycles() {
        let mut app = demo_app();
        let cost = app.machine.config().cost.clone();
        app.machine.reset_metrics();
        let n = 100;
        for _ in 0..n {
            app.ecall(0, "app", "process", b"q").unwrap();
        }
        let cycles = app.machine.cycles(0);
        // Each iteration: 1 ecall + 1 n_ocall round trip, plus memory system
        // noise; the call costs must dominate and be of the right order.
        let expected_min = n * (cost.ecall + cost.n_ocall);
        assert!(
            cycles >= expected_min,
            "cycles {cycles} < expected minimum {expected_min}"
        );
        assert!(
            cycles < expected_min * 3,
            "cycles {cycles} unreasonably high"
        );
    }

    #[test]
    fn table2_round_trips_charge_exactly_their_cost() {
        // One ecall whose body makes one n_ecall (which makes one n_ocall)
        // and one ocall. Each round trip's two TLB flushes are part of its
        // Table II cost, so Transition gains exactly the four costs.
        for cost in [CostProfile::emulated(), CostProfile::hw_sgx()] {
            let mut app = NestedApp::new(HwConfig {
                cost: cost.clone(),
                ..HwConfig::small()
            });
            app.register_untrusted("net", Arc::new(|_cx, args| Ok(args.to_vec())));
            let gate = EnclaveImage::new("gate", b"provider")
                .heap_pages(1)
                .edl(Edl::new().ecall("serve").ocall("net"));
            let serve = tf(|cx, args| {
                let out = cx.n_ecall("app", "process", args)?;
                cx.ocall("net", &out)
            });
            let lib = tf(|_cx, args| Ok(args.to_vec()));
            app.load(
                gate,
                [("serve".to_string(), serve), ("lib".to_string(), lib)],
            )
            .unwrap();
            let inner = EnclaveImage::new("app", b"tenant")
                .heap_pages(1)
                .edl(Edl::new().n_ecall("process").n_ocall("lib"));
            let process = tf(|cx, args| cx.n_ocall("lib", args));
            app.load(inner, [("process".to_string(), process)]).unwrap();
            app.associate("app", "gate").unwrap();
            app.machine.reset_metrics();
            assert_eq!(app.ecall(0, "gate", "serve", b"q").unwrap(), b"q");
            let metrics = app.machine.metrics();
            assert_eq!(
                metrics.cores[0].breakdown.get(CycleCategory::Transition),
                cost.ecall + cost.ocall + cost.n_ecall + cost.n_ocall,
                "{}",
                cost.name
            );
        }
    }

    #[test]
    fn lattice_inner_routes_n_ocalls_by_outer() {
        use crate::nasso::AssocPolicy;
        let mut app = NestedApp::new(HwConfig::small());
        for (name, reply) in [("north", b"N" as &[u8]), ("south", b"S")] {
            let img = EnclaveImage::new(name, b"provider").edl(Edl::new());
            let reply = reply.to_vec();
            app.load(
                img,
                [("whoami".to_string(), tf(move |_cx, _| Ok(reply.clone())))],
            )
            .unwrap();
        }
        let inner = EnclaveImage::new("bridge", b"tenant")
            .edl(Edl::new().ecall("ask_both").n_ocall("whoami"));
        app.load(
            inner,
            [(
                "ask_both".to_string(),
                tf(|cx, _| {
                    let mut out = cx.n_ocall_to("north", "whoami", b"")?;
                    out.extend(cx.n_ocall_to("south", "whoami", b"")?);
                    Ok(out)
                }),
            )],
        )
        .unwrap();
        app.associate_with_policy("bridge", "north", AssocPolicy::Lattice)
            .unwrap();
        app.associate_with_policy("bridge", "south", AssocPolicy::Lattice)
            .unwrap();
        let out = app.ecall(0, "bridge", "ask_both", b"").unwrap();
        assert_eq!(out, b"NS");
        // Plain n_ocall is ambiguous for a lattice inner.
        let img2 =
            EnclaveImage::new("bridge2", b"tenant").edl(Edl::new().ecall("ask").n_ocall("whoami"));
        app.load(
            img2,
            [("ask".to_string(), tf(|cx, _| cx.n_ocall("whoami", b"")))],
        )
        .unwrap();
        app.associate_with_policy("bridge2", "north", AssocPolicy::Lattice)
            .unwrap();
        app.associate_with_policy("bridge2", "south", AssocPolicy::Lattice)
            .unwrap();
        let err = app.ecall(0, "bridge2", "ask", b"").unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn every_body_sees_its_own_enclave() {
        use crate::nasso::AssocPolicy;
        // Checks from inside a body that its context names the enclave the
        // core is executing and allocates in that enclave's heap.
        fn own(cx: &mut EnclaveCtx<'_>, expect: &str) -> Result<Vec<u8>> {
            assert_eq!(cx.name(), expect);
            assert_eq!(
                Some(cx.eid),
                cx.machine.current_enclave(cx.core()),
                "{expect}"
            );
            let offset = cx.alloc(64)?.0.wrapping_sub(cx.heap_base_of(expect)?.0);
            assert!(
                offset < PAGE_SIZE as u64,
                "{expect}: alloc outside its heap"
            );
            Ok(expect.into())
        }
        let image = |name: &str, edl| EnclaveImage::new(name, b"o").heap_pages(1).edl(edl);
        let mut app = NestedApp::new(HwConfig::small());
        app.register_untrusted("net", Arc::new(|_cx, _| Ok(vec![])));
        let serve = tf(|cx, _| {
            own(cx, "gate")?;
            cx.n_ecall("app", "process", b"")?;
            cx.ocall("net", b"")?;
            own(cx, "gate")
        });
        let lib = tf(|cx, _| own(cx, "gate"));
        let gate = image("gate", Edl::new().ecall("serve").ocall("net"));
        app.load(gate, [("serve".into(), serve), ("lib".into(), lib)])
            .unwrap();
        let process = tf(|cx, _| {
            own(cx, "app")?;
            cx.n_ocall("lib", b"")?;
            own(cx, "app")
        });
        let inner = image("app", Edl::new().n_ecall("process").n_ocall("lib"));
        app.load(inner, [("process".into(), process)]).unwrap();
        app.associate("app", "gate").unwrap();
        let ask = tf(|cx, _| {
            own(cx, "bridge")?;
            let mut out = cx.n_ocall_to("north", "whoami", b"")?;
            out.extend(cx.n_ocall_to("south", "whoami", b"")?);
            own(cx, "bridge")?;
            Ok(out)
        });
        let bridge = image("bridge", Edl::new().ecall("ask").n_ocall("whoami"));
        app.load(bridge, [("ask".into(), ask)]).unwrap();
        for outer in ["north", "south"] {
            let whoami = tf(move |cx, _| own(cx, outer));
            app.load(image(outer, Edl::new()), [("whoami".into(), whoami)])
                .unwrap();
            app.associate_with_policy("bridge", outer, AssocPolicy::Lattice)
                .unwrap();
        }
        assert_eq!(app.ecall(0, "gate", "serve", b"").unwrap(), b"gate");
        assert_eq!(app.ecall(0, "bridge", "ask", b"").unwrap(), b"northsouth");
    }

    #[test]
    fn dynamic_heap_growth_via_eaug_eaccept() {
        let mut app = NestedApp::new(HwConfig::small());
        let img = EnclaveImage::new("grower", b"owner")
            .heap_pages(1)
            .reserve_pages(2)
            .edl(Edl::new().ecall("fill"));
        let fill: TrustedFn = Arc::new(|cx, _| {
            // Exhaust the static heap, grow, and keep allocating.
            let a = cx.alloc(3000)?;
            cx.write(a, b"static part")?;
            assert!(cx.alloc(3000).is_err(), "static heap exhausted");
            cx.expand_heap(2)?;
            let b = cx.alloc(6000)?;
            cx.write(b, b"dynamic part")?;
            let mut out = cx.read(a, 11)?;
            out.extend(cx.read(b, 12)?);
            Ok(out)
        });
        app.load(img, [("fill".to_string(), fill)]).unwrap();
        let out = app.ecall(0, "grower", "fill", b"").unwrap();
        assert_eq!(out, b"static partdynamic part");
        // Growth is capped by the reservation.
        let img2 = EnclaveImage::new("capped", b"owner")
            .heap_pages(1)
            .reserve_pages(1)
            .edl(Edl::new().ecall("grow"));
        let grow: TrustedFn = Arc::new(|cx, _| {
            cx.expand_heap(2)?;
            Ok(vec![])
        });
        app.load(img2, [("grow".to_string(), grow)]).unwrap();
        let err = app.ecall(0, "capped", "grow", b"").unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
        app.machine.audit_epcm().unwrap();
    }

    #[test]
    fn dynamic_pages_are_not_measured() {
        // Two images differing only in reserve size have different
        // ELRANGEs (measured), but the dynamic *contents* never affect
        // MRENCLAVE: growing at runtime leaves the identity unchanged.
        let mut app = NestedApp::new(HwConfig::small());
        let img = EnclaveImage::new("g", b"o")
            .heap_pages(1)
            .reserve_pages(1)
            .edl(Edl::new().ecall("grow"));
        let grow: TrustedFn = Arc::new(|cx, _| {
            cx.expand_heap(1)?;
            Ok(vec![])
        });
        let eid = app.load(img, [("grow".to_string(), grow)]).unwrap();
        let before = app.machine.enclaves().get(eid).unwrap().mrenclave;
        app.ecall(0, "g", "grow", b"").unwrap();
        let after = app.machine.enclaves().get(eid).unwrap().mrenclave;
        assert_eq!(before, after);
    }

    #[test]
    fn seal_unseal_roundtrip_and_cross_enclave_rejection() {
        let mut app = NestedApp::new(HwConfig::small());
        for name in ["one", "two"] {
            let img =
                EnclaveImage::new(name, b"owner").edl(Edl::new().ecall("seal").ecall("unseal"));
            app.load(
                img,
                [
                    ("seal".to_string(), tf(|cx, args| cx.seal_data(args))),
                    ("unseal".to_string(), tf(|cx, args| cx.unseal_data(args))),
                ],
            )
            .unwrap();
        }
        let blob = app.ecall(0, "one", "seal", b"durable secret").unwrap();
        assert!(!blob.windows(14).any(|w| w == b"durable secret"));
        assert_eq!(
            app.ecall(0, "one", "unseal", &blob).unwrap(),
            b"durable secret"
        );
        // A different enclave cannot open it.
        let err = app.ecall(0, "two", "unseal", &blob).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
        // Nor does a tampered blob open.
        let mut bad = blob.clone();
        let n = bad.len();
        bad[n - 1] ^= 1;
        let err = app.ecall(0, "one", "unseal", &bad).unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn eremove_unlinks_nested_associations() {
        let mut app = demo_app();
        let lib = app.eid("lib").unwrap();
        let inner = app.eid("app").unwrap();
        assert!(!app
            .machine
            .enclaves()
            .get(inner)
            .unwrap()
            .outer_eids
            .is_empty());
        app.machine.eremove(lib).unwrap();
        assert!(
            app.machine
                .enclaves()
                .get(inner)
                .unwrap()
                .outer_eids
                .is_empty(),
            "EREMOVE of the outer must sever the inner's link"
        );
        app.machine.audit_epcm().unwrap();
    }

    #[test]
    fn n_ocall_to_unrelated_outer_rejected() {
        let mut app = demo_app();
        let stranger = EnclaveImage::new("stranger", b"x").edl(Edl::new());
        app.load(
            stranger,
            [("lib_twice".to_string(), tf(|_cx, a| Ok(a.to_vec())))],
        )
        .unwrap();
        let img = EnclaveImage::new("probe", b"t").edl(Edl::new().ecall("go").n_ocall("lib_twice"));
        app.load(
            img,
            [(
                "go".to_string(),
                tf(|cx, a| cx.n_ocall_to("stranger", "lib_twice", a)),
            )],
        )
        .unwrap();
        app.associate("probe", "lib").unwrap();
        let err = app.ecall(0, "probe", "go", b"x").unwrap_err();
        assert!(matches!(err, SgxError::GeneralProtection(_)));
    }

    #[test]
    fn untrusted_ctx_sees_abort_page() {
        let mut app = demo_app();
        let heap = app.layout("app").unwrap().heap_base;
        app.ecall(0, "app", "process", b"seed").unwrap();
        let leaked = app.untrusted(0, |cx| cx.read(heap, 8).unwrap());
        assert_eq!(leaked, vec![0xFF; 8]);
    }
}
