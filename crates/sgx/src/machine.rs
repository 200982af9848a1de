//! The simulated machine: cores, memory, and the translation path.
//!
//! Every architectural memory access funnels through [`Machine::translate`]:
//! TLB lookup → (on miss) page walk → [`crate::validate::TlbValidator`] →
//! TLB fill. This is the exact path SGX hardware uses for access control,
//! so the security properties of both baseline SGX and the nested-enclave
//! extension are enforced where the paper says they are.

use crate::addr::{PhysAddr, Ppn, VirtAddr, Vpn, LINE_SIZE, PAGE_SIZE};
use crate::cache::{CacheAccess, Llc};
use crate::config::HwConfig;
use crate::enclave::{EnclaveId, EnclaveTable, ProcessId, SavedContext, Tcs};
use crate::epcm::{Epcm, PagePerms};
use crate::error::{FaultKind, Result, SgxError};
use crate::fault::{ChaosInjection, ChaosStats, FaultPlan};
use crate::instr::EvictedPage;
use crate::mee::Mee;
use crate::mem::Dram;
use crate::metrics::{CycleBreakdown, CycleCategory, MachineMetrics};
use crate::page_table::PageTable;
use crate::profile::{HierLevel, Profile, ProfileEvent};
use crate::tlb::Tlb;
use crate::trace::{Event, SpanKind, Stats, Trace};
use crate::validate::{CoreView, Outcome, SgxValidator, TlbValidator, ValidationCtx};
use ne_crypto::Digest32;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Execution mode of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreMode {
    /// Ordinary (untrusted) execution.
    NonEnclave,
    /// Executing inside an enclave through a TCS.
    Enclave {
        /// The enclave being executed.
        eid: EnclaveId,
        /// The TCS the thread entered through.
        tcs: VirtAddr,
    },
}

/// Per-core state.
#[derive(Debug)]
pub struct Core {
    /// Current mode.
    pub mode: CoreMode,
    /// Address space the core is executing in.
    pub pid: ProcessId,
    /// This core's TLB.
    pub tlb: Tlb,
    /// Simulated cycle counter.
    pub cycles: u64,
    /// Where this core's cycles went, by category; sums to `cycles`.
    pub breakdown: CycleBreakdown,
    /// Architectural registers (modelled subset). Transition instructions
    /// scrub these so enclave state cannot leak (§ V "zeroing registers").
    pub regs: SavedContext,
}

impl Core {
    /// The enclave this core is executing, if any.
    fn enclave(&self) -> Option<EnclaveId> {
        match self.mode {
            CoreMode::Enclave { eid, .. } => Some(eid),
            CoreMode::NonEnclave => None,
        }
    }
}

/// Kind of memory access, for permission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Fetch,
}

/// Result of a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translated {
    /// Valid mapping.
    Phys(PhysAddr, PagePerms),
    /// Abort-page semantics (reads all-ones, writes dropped).
    Abort,
}

/// A runtime call span still open on a core. Everything needed to record
/// the span's latency at close time is captured at open time, so closing
/// is independent of the (possibly wrapped) event trace.
#[derive(Debug, Clone, Copy)]
struct OpenSpan {
    id: u64,
    kind: SpanKind,
    level: HierLevel,
    begin_cycles: u64,
}

/// One simulated process.
#[derive(Debug)]
pub struct Process {
    /// OS-managed (untrusted) page table.
    pub page_table: PageTable,
    next_untrusted_va: u64,
}

/// The simulated machine.
pub struct Machine {
    cfg: HwConfig,
    dram: Dram,
    epcm: Epcm,
    llc: Llc,
    mee: Mee,
    processes: Vec<Process>,
    enclaves: EnclaveTable,
    pub(crate) tcs_table: HashMap<(u64, u64), Tcs>,
    cores: Vec<Core>,
    validator: Box<dyn TlbValidator>,
    stats: Stats,
    trace: Trace,
    /// Cycles attributed per enclave (`None` = untrusted execution).
    enclave_cycles: HashMap<Option<EnclaveId>, CycleBreakdown>,
    /// Always-on latency histograms (span durations, TLB-miss walks, MEE
    /// crypto, paging).
    profile: Profile,
    /// Monotonic id source for runtime call spans.
    next_span_id: u64,
    /// Per-core stack of open spans (parents for nested spans).
    span_stacks: Vec<Vec<OpenSpan>>,
    /// EPC pages given back by EWB/EREMOVE, handed out again last-in
    /// first-out before any fresh page.
    recycled_epc: Vec<Ppn>,
    /// Lowest PRM page never handed out; every page from here to
    /// `dram_pages` is free.
    next_fresh_epc: u64,
    next_ram_ppn: u64,
    pub(crate) platform_secret: [u8; 32],
    /// EADD-time page content digests awaiting EEXTEND, keyed by (eid, vpn).
    pub(crate) pending_digests: HashMap<(u64, u64), Digest32>,
    /// Anti-replay version store for EWB/ELDU, keyed by (eid, vpn).
    pub(crate) evicted_versions: HashMap<(u64, u64), u64>,
    pub(crate) next_evict_version: u64,
    /// Reusable dirty-victim buffer for the range-charging fast path, so
    /// the hot loop never allocates.
    dirty_scratch: Vec<u64>,
    /// Installed fault-injection plan (None = chaos off, the default).
    pub(crate) chaos: Option<FaultPlan>,
    /// Raw ids of crashed (poisoned) enclaves; EENTER/NEENTER fault until
    /// the enclave is EREMOVEd.
    pub(crate) poisoned: HashSet<u64>,
    /// Sealed blobs of pages the chaos layer force-evicted, in eviction
    /// order, waiting for the host to reload them.
    pub(crate) chaos_evicted: Vec<EvictedPage>,
    /// Cycle-stamped log of every injection the plan applied, in
    /// application order (the observability layer's join key against
    /// host-side recovery events). Cleared by `reset_metrics`.
    pub(crate) chaos_events: Vec<ChaosInjection>,
    /// Raw ids of enclaves a `migrate` chaos injection asked the host to
    /// live-migrate, deduplicated, in request order. Drained by
    /// [`Machine::take_migration_requests`] at the host's next safe point.
    pub(crate) migration_requests: Vec<u64>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cores.len())
            .field("enclaves", &self.enclaves.len())
            .field("epc_used", &self.epcm.len())
            .field("validator", &self.validator.name())
            .finish_non_exhaustive()
    }
}

/// Base of the untrusted heap region handed out by [`Machine::os_alloc_untrusted`].
const UNTRUSTED_VA_BASE: u64 = 0x7000_0000_0000;

/// Ring-buffer capacity of the event trace: when full, the oldest events
/// are dropped (and counted) so memory use stays bounded. Large enough to
/// hold the full transition history of the quick-mode experiments, small
/// enough (~tens of MiB worst case) to be safe always-on.
pub const TRACE_CAPACITY: usize = 1 << 16;

impl Machine {
    /// Boots a machine with the baseline SGX validator.
    pub fn new(cfg: HwConfig) -> Machine {
        Self::with_validator(cfg, Box::new(SgxValidator::new()))
    }

    /// Boots a machine with a custom TLB-miss validator (how the
    /// nested-enclave "microcode" is installed).
    pub fn with_validator(cfg: HwConfig, validator: Box<dyn TlbValidator>) -> Machine {
        let cores = (0..cfg.num_cores)
            .map(|_| Core {
                mode: CoreMode::NonEnclave,
                pid: ProcessId(0),
                tlb: Tlb::new(cfg.tlb_entries),
                cycles: 0,
                breakdown: CycleBreakdown::default(),
                regs: SavedContext::default(),
            })
            .collect();
        // The package-unique secret every key derivation hangs off.
        let platform_secret = ne_crypto::sha256::digest(b"ne-sgx platform fuse bank");
        Machine {
            dram: Dram::new(cfg.dram_pages),
            epcm: Epcm::new(),
            llc: Llc::new(cfg.llc_bytes, cfg.llc_ways),
            mee: Mee::new(ne_crypto::sha256::digest(b"ne-sgx mee boot key")),
            processes: vec![Process {
                page_table: PageTable::new(),
                next_untrusted_va: UNTRUSTED_VA_BASE,
            }],
            enclaves: EnclaveTable::new(),
            tcs_table: HashMap::new(),
            cores,
            validator,
            stats: Stats::default(),
            trace: Trace::new(cfg.trace_events, TRACE_CAPACITY),
            enclave_cycles: HashMap::new(),
            profile: Profile::new(),
            next_span_id: 0,
            span_stacks: vec![Vec::new(); cfg.num_cores],
            recycled_epc: Vec::new(),
            next_fresh_epc: cfg.prm_start(),
            next_ram_ppn: 1,
            platform_secret,
            pending_digests: HashMap::new(),
            evicted_versions: HashMap::new(),
            next_evict_version: 1,
            dirty_scratch: Vec::new(),
            chaos: None,
            poisoned: HashSet::new(),
            chaos_evicted: Vec::new(),
            chaos_events: Vec::new(),
            migration_requests: Vec::new(),
            cfg,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &HwConfig {
        &self.cfg
    }

    /// Name of the installed validator.
    pub fn validator_name(&self) -> &'static str {
        self.validator.name()
    }

    // ----- processes and cores --------------------------------------------

    /// Creates a new (empty) process address space.
    pub fn spawn_process(&mut self) -> ProcessId {
        self.processes.push(Process {
            page_table: PageTable::new(),
            next_untrusted_va: UNTRUSTED_VA_BASE,
        });
        ProcessId(self.processes.len() - 1)
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Schedules `core` onto process `pid` (context switch; flushes the
    /// TLB like a CR3 write would).
    pub fn set_core_process(&mut self, core: usize, pid: ProcessId) {
        assert!(pid.0 < self.processes.len(), "no such process");
        assert_eq!(
            self.cores[core].mode,
            CoreMode::NonEnclave,
            "cannot context-switch a core in enclave mode"
        );
        self.cores[core].pid = pid;
        self.flush_tlb(core);
    }

    /// Core accessor.
    pub fn core(&self, core: usize) -> &Core {
        &self.cores[core]
    }

    /// The enclave `core` is currently executing, if any.
    pub fn current_enclave(&self, core: usize) -> Option<EnclaveId> {
        self.cores[core].enclave()
    }

    /// Sets the core's execution mode — an architectural surface for
    /// ISA-extension crates (NEENTER/NEEXIT switch modes directly).
    pub fn set_core_mode(&mut self, core: usize, mode: CoreMode) {
        self.cores[core].mode = mode;
    }

    /// Writes a modelled architectural register (tests/transition checks).
    pub fn set_reg(&mut self, core: usize, idx: usize, value: u64) {
        self.cores[core].regs.regs[idx] = value;
    }

    /// Reads a modelled architectural register.
    pub fn reg(&self, core: usize, idx: usize) -> u64 {
        self.cores[core].regs.regs[idx]
    }

    /// Mutable register file — an architectural surface for ISA-extension
    /// crates (NEEXIT scrubs all registers).
    pub fn regs_mut(&mut self, core: usize) -> &mut SavedContext {
        &mut self.cores[core].regs
    }

    // ----- cycles and stats -----------------------------------------------

    /// Charges simulated cycles of application work to a core. Public so
    /// higher layers (the SDK runtime, workloads) can account software
    /// work in the same clock; shorthand for [`Machine::charge_cat`] with
    /// [`CycleCategory::AppCompute`].
    pub fn charge(&mut self, core: usize, cycles: u64) {
        self.charge_cat(core, CycleCategory::AppCompute, cycles);
    }

    /// Charges cycles to a core under an explicit category, attributed to
    /// the enclave the core is currently executing (or the untrusted
    /// bucket). Every architectural cost in the simulator funnels through
    /// here, which is what makes the [`crate::metrics`] identities hold.
    pub fn charge_cat(&mut self, core: usize, category: CycleCategory, cycles: u64) {
        let owner = self.current_enclave(core);
        self.charge_to(core, category, cycles, owner);
    }

    /// Charges cycles to a core but attributes them to an explicit enclave
    /// bucket — used when work executes in one context on behalf of
    /// another (EWB/ELDU run untrusted but page for an owner enclave).
    pub fn charge_to(
        &mut self,
        core: usize,
        category: CycleCategory,
        cycles: u64,
        owner: Option<EnclaveId>,
    ) {
        if cycles == 0 {
            return;
        }
        let c = &mut self.cores[core];
        c.cycles += cycles;
        c.breakdown.add(category, cycles);
        self.enclave_cycles
            .entry(owner)
            .or_default()
            .add(category, cycles);
    }

    /// Cycle counter of one core.
    pub fn cycles(&self, core: usize) -> u64 {
        self.cores[core].cycles
    }

    /// Sum of all core cycle counters.
    pub fn total_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.cycles).sum()
    }

    /// Category breakdown of one core's cycles.
    pub fn core_breakdown(&self, core: usize) -> &CycleBreakdown {
        &self.cores[core].breakdown
    }

    /// Cycle attribution per enclave (`None` = untrusted). Buckets appear
    /// once something is charged to them.
    pub fn enclave_cycle_table(&self) -> &HashMap<Option<EnclaveId>, CycleBreakdown> {
        &self.enclave_cycles
    }

    /// Snapshots every counter into an exportable [`MachineMetrics`].
    pub fn metrics(&self) -> MachineMetrics {
        MachineMetrics::capture(self)
    }

    /// Architectural event counters.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Clears counters, cycle clocks, attribution tables, latency
    /// histograms, and the event trace (between experiment phases).
    pub fn reset_metrics(&mut self) {
        self.stats = Stats::default();
        for c in &mut self.cores {
            c.cycles = 0;
            c.breakdown = CycleBreakdown::default();
        }
        self.enclave_cycles.clear();
        self.mee.reset_counters();
        self.profile.clear();
        self.trace.clear();
        self.chaos_events.clear();
        // Spans still open when the clock resets restart from zero, so
        // their eventual durations cover post-reset work only.
        for stack in &mut self.span_stacks {
            for span in stack.iter_mut() {
                span.begin_cycles = 0;
            }
        }
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Records one architectural event: the only way a [`Stats`] counter,
    /// a latency histogram (span closes aside, see [`Machine::span_end`])
    /// or the trace ring changes. Extension crates report NEENTER/NEEXIT
    /// and switchless ocalls here, serving layers their request latencies.
    ///
    /// Callers outside `ne-sgx` must report only those extension events:
    /// every other kind belongs to an instruction or access this machine
    /// runs itself, and a reported one would bump its counter and charge
    /// its cost without the instruction having run.
    #[inline]
    pub fn note(&mut self, event: Event) {
        use CycleCategory::{Paging, Transition};
        use ProfileEvent as P;
        let (s, c, cores) = (&mut self.stats, &self.cfg.cost, &self.cores);
        let running = |core: usize| cores[core].enclave();
        // One row per event kind: the counter it bumps; the histogram it
        // samples, at the hierarchy level of an enclave (`None` =
        // untrusted); the fixed cost it charges to (core, category,
        // owner); and whether the ring keeps it. Paging runs in the
        // untrusted driver on core 0 for the page's owner; an AEX's core
        // has already left the enclave it belongs to; ERESUME's modelled
        // cost is its entry flush, charged by that flush's own event.
        #[rustfmt::skip]
        let (counter, sample, charge, keep) = match event {
            Event::Eenter { .. } => (Some(&mut s.ecalls), None, None, true),
            Event::Eexit { .. } => (Some(&mut s.ocalls), None, None, true),
            Event::Neenter { .. } => (Some(&mut s.n_ecalls), None, None, true),
            Event::Neexit { .. } => (Some(&mut s.n_ocalls), None, None, true),
            Event::Aex { core, eid } => (Some(&mut s.aexes),
                Some((P::Aex, Some(eid), c.aex)), Some((core, Transition, c.aex, Some(eid))), true),
            Event::Eresume { eid, .. } => (Some(&mut s.eresumes),
                Some((P::Eresume, Some(eid), c.tlb_flush)), None, true),
            Event::TlbFlush { core } => (None,
                None, Some((core, Transition, c.tlb_flush, running(core))), true),
            Event::TlbMiss { core, cycles } => (Some(&mut s.tlb_misses),
                Some((P::TlbMiss, running(core), cycles)), None, false),
            Event::Fault { .. } => (Some(&mut s.faults), None, None, true),
            Event::Ewb { eid, .. } => (Some(&mut s.ewb_pages),
                Some((P::Paging, Some(eid), c.ewb_page)),
                Some((0, Paging, c.ewb_page, Some(eid))), true),
            Event::Eldu { eid, .. } => (Some(&mut s.eldu_pages),
                Some((P::Paging, Some(eid), c.eldu_page)),
                Some((0, Paging, c.eldu_page, Some(eid))), true),
            Event::Ipi { core, eid } => (Some(&mut s.ipis),
                None, Some((core, Paging, c.ipi, Some(eid))), false),
            Event::SwitchlessOcall => (Some(&mut s.switchless_ocalls), None, None, false),
            Event::MeeCrypto { core, cycles } => (None,
                Some((P::MeeCrypto, running(core), cycles)), None, false),
            Event::Request { cycles } => (None, Some((P::Request, None, cycles)), None, false),
            Event::SpanBegin { .. } => (Some(&mut s.span_opens), None, None, true),
            Event::SpanEnd { .. } => (None, None, None, true),
        };
        if let Some(counter) = counter {
            *counter += 1;
        }
        if let Some((core, category, cycles, owner)) = charge {
            self.charge_to(core, category, cycles, owner);
        }
        if let Some((event, eid, cycles)) = sample {
            let level = self.hier_level(eid);
            self.profile.record(event, level, cycles);
        }
        if keep {
            self.trace.record(event);
        }
    }

    /// Opens a runtime call span on `core` and returns its id. The span
    /// nests under any span already open on the core, so ecall→ocall
    /// chains are reconstructable from the trace. The duration histogram
    /// key ([`HierLevel`]) is the caller's hierarchy level at open time.
    /// The label is rendered only when the trace ring is on; an untraced
    /// call formats nothing.
    pub fn span_begin(&mut self, core: usize, kind: SpanKind, label: fmt::Arguments<'_>) -> u64 {
        self.next_span_id += 1;
        let id = self.next_span_id;
        let level = self.hier_level(self.current_enclave(core));
        let cycles = self.cores[core].cycles;
        let parent = self.span_stacks[core].last().map(|s| s.id);
        self.span_stacks[core].push(OpenSpan {
            id,
            kind,
            level,
            begin_cycles: cycles,
        });
        let label = self.trace.is_enabled().then(|| fmt::format(label));
        self.note(Event::SpanBegin {
            core,
            id,
            parent,
            kind,
            level,
            label: label.unwrap_or_default(),
            cycles,
        });
        id
    }

    /// Closes the span `id` opened by [`Machine::span_begin`] (also closes
    /// any spans left open beneath it) and records each closed span's
    /// duration in the latency [`Profile`].
    pub fn span_end(&mut self, core: usize, id: u64) {
        let cycles = self.cores[core].cycles;
        if let Some(pos) = self.span_stacks[core].iter().rposition(|s| s.id == id) {
            while self.span_stacks[core].len() > pos {
                let open = self.span_stacks[core].pop().expect("len > pos");
                let duration = cycles.saturating_sub(open.begin_cycles);
                self.profile
                    .record(ProfileEvent::from_span(open.kind), open.level, duration);
                self.stats.span_closes += 1;
            }
        }
        self.note(Event::SpanEnd { core, id, cycles });
    }

    /// The always-on latency histograms.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The [`HierLevel`] of an execution context: untrusted for `None`,
    /// inner for enclaves associated with at least one outer, outer
    /// otherwise.
    pub fn hier_level(&self, eid: Option<EnclaveId>) -> HierLevel {
        match eid {
            None => HierLevel::Untrusted,
            Some(e) => match self.enclaves.get(e) {
                Some(secs) if !secs.outer_eids.is_empty() => HierLevel::Inner,
                _ => HierLevel::Outer,
            },
        }
    }

    /// The MEE (counters used by Fig. 11).
    pub fn mee(&self) -> &Mee {
        &self.mee
    }

    /// The LLC (hit/miss counters).
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// The enclave table.
    pub fn enclaves(&self) -> &EnclaveTable {
        &self.enclaves
    }

    /// Mutable enclave table — an architectural surface for ISA-extension
    /// crates (NASSO updates SECS fields through this).
    pub fn enclaves_mut(&mut self) -> &mut EnclaveTable {
        &mut self.enclaves
    }

    /// The EPCM (read-only; only instructions mutate it).
    pub fn epcm(&self) -> &Epcm {
        &self.epcm
    }

    pub(crate) fn epcm_mut(&mut self) -> &mut Epcm {
        &mut self.epcm
    }

    /// Free EPC pages remaining: the recycled pages plus the PRM pages
    /// never handed out.
    pub fn free_epc_pages(&self) -> usize {
        let fresh = usize::try_from(self.cfg.dram_pages - self.next_fresh_epc)
            .expect("PRM page count fits in usize");
        self.recycled_epc.len() + fresh
    }

    /// TCS bookkeeping lookup.
    pub fn tcs(&self, eid: EnclaveId, va: VirtAddr) -> Option<&Tcs> {
        self.tcs_table.get(&(eid.0, va.0))
    }

    /// Mutable TCS access — an architectural surface for ISA-extension
    /// crates (NEENTER/NEEXIT update busy bits and the caller link).
    pub fn tcs_mut(&mut self, eid: EnclaveId, va: VirtAddr) -> Option<&mut Tcs> {
        self.tcs_table.get_mut(&(eid.0, va.0))
    }

    /// Finds an idle TCS of `eid`, lowest address first (used by NEEXIT's
    /// call path to acquire an outer-enclave thread slot).
    pub fn find_idle_tcs(&self, eid: EnclaveId) -> Option<VirtAddr> {
        self.tcs_table
            .iter()
            .filter(|((e, _), tcs)| *e == eid.0 && !tcs.busy)
            .map(|((_, va), _)| VirtAddr(*va))
            .min()
    }

    /// Host-pages actually materialized in DRAM (Fig. 10 footprint).
    pub fn resident_pages(&self) -> usize {
        self.dram.resident_pages()
    }

    // ----- TLB management --------------------------------------------------

    /// Flushes one core's TLB, charging the flush cost. Flushes happen at
    /// transition boundaries, so the cost lands in
    /// [`CycleCategory::Transition`].
    pub fn flush_tlb(&mut self, core: usize) {
        self.cores[core].tlb.flush();
        self.note(Event::TlbFlush { core });
    }

    /// Flushes every TLB.
    pub fn flush_all_tlbs(&mut self) {
        for core in 0..self.cores.len() {
            self.flush_tlb(core);
        }
    }

    /// Total TLB flushes across cores.
    pub fn tlb_flushes(&self) -> u64 {
        self.cores.iter().map(|c| c.tlb.flush_count()).sum()
    }

    // ----- OS-level (untrusted) memory management ---------------------------

    /// OS primitive: map `vpn → ppn` in process `pid`. The OS may do this
    /// arbitrarily — including maliciously; protection comes from
    /// validation, not from restricting this call.
    pub fn os_map(&mut self, pid: ProcessId, vpn: Vpn, ppn: Ppn, perms: PagePerms) {
        self.processes[pid.0].page_table.map(vpn, ppn, perms);
    }

    /// OS primitive: unmap a page. Does *not* shoot down TLBs — a correct
    /// OS calls [`Machine::flush_tlb`]; an attacker might not.
    pub fn os_unmap(&mut self, pid: ProcessId, vpn: Vpn) {
        self.processes[pid.0].page_table.unmap(vpn);
    }

    /// OS page-table walk (diagnostics).
    pub fn os_lookup(&self, pid: ProcessId, vpn: Vpn) -> Option<crate::page_table::Pte> {
        self.processes[pid.0].page_table.lookup(vpn)
    }

    /// Allocates `n` fresh non-PRM physical frames.
    ///
    /// # Panics
    ///
    /// Panics if ordinary RAM is exhausted.
    pub fn os_alloc_frames(&mut self, n: usize) -> Vec<Ppn> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            assert!(
                self.next_ram_ppn < self.cfg.prm_start(),
                "untrusted RAM exhausted"
            );
            out.push(Ppn(self.next_ram_ppn));
            self.next_ram_ppn += 1;
        }
        out
    }

    /// Allocates and maps `n` pages of fresh untrusted memory in `pid`,
    /// returning the base virtual address.
    pub fn os_alloc_untrusted(&mut self, pid: ProcessId, n: usize) -> VirtAddr {
        let frames = self.os_alloc_frames(n);
        let base = self.processes[pid.0].next_untrusted_va;
        self.processes[pid.0].next_untrusted_va += (n * PAGE_SIZE) as u64;
        for (i, ppn) in frames.into_iter().enumerate() {
            let va = VirtAddr(base + (i * PAGE_SIZE) as u64);
            self.os_map(pid, va.vpn(), ppn, PagePerms::RWX);
        }
        VirtAddr(base)
    }

    /// Hands out a free EPC page on demand: the most recently recycled
    /// page if there is one, else the lowest PRM page never handed out.
    /// This is the order a pre-filled, ascending free list popped from
    /// its low end would give, without building that list.
    pub(crate) fn alloc_epc(&mut self) -> Result<Ppn> {
        if let Some(ppn) = self.recycled_epc.pop() {
            return Ok(ppn);
        }
        if self.next_fresh_epc == self.cfg.dram_pages {
            return Err(SgxError::EpcFull);
        }
        let ppn = Ppn(self.next_fresh_epc);
        self.next_fresh_epc += 1;
        Ok(ppn)
    }

    /// Returns an EPC page (evicted or removed) to the allocator.
    pub(crate) fn free_epc(&mut self, ppn: Ppn) {
        self.recycled_epc.push(ppn);
    }

    // ----- translation and data access --------------------------------------

    /// Translates `va` on `core` for the given access kind, running the
    /// full TLB-miss validation flow on a miss.
    ///
    /// # Errors
    ///
    /// Returns the fault the validation flow (or permission check) raised.
    pub fn translate(&mut self, core: usize, va: VirtAddr, kind: AccessKind) -> Result<Translated> {
        let vpn = va.vpn();
        self.charge_cat(core, CycleCategory::Memory, self.cfg.cost.tlb_hit);
        let hit = if self.cfg.reference_path {
            self.cores[core].tlb.lookup(vpn)
        } else {
            self.cores[core].tlb.lookup_hot(vpn)
        };
        if let Some(entry) = hit {
            self.check_perms(core, va, entry.perms, kind)?;
            return Ok(Translated::Phys(
                PhysAddr(entry.ppn.base().0 + va.page_offset() as u64),
                entry.perms,
            ));
        }
        // TLB miss: walk the (untrusted) page table.
        let walk_cost = self.cfg.cost.tlb_miss_walk;
        self.charge_cat(core, CycleCategory::TlbWalk, walk_cost);
        let pte = match self.processes[self.cores[core].pid.0]
            .page_table
            .lookup(vpn)
        {
            Some(p) => p,
            None => {
                // The walk found nothing, so no validation ran: the miss
                // cost recorded is the walk alone.
                let cycles = walk_cost;
                self.note(Event::TlbMiss { core, cycles });
                return Err(self.fault(core, va, FaultKind::NotMapped));
            }
        };
        // Run the validation flow (Fig. 2, or Fig. 6 with the nested
        // validator installed).
        let cfg = &self.cfg;
        let in_prm = move |ppn: u64| cfg.in_prm(ppn);
        let cx = ValidationCtx {
            core: CoreView {
                enclave: self.current_enclave(core),
            },
            vpn,
            pte,
            epcm: &self.epcm,
            enclaves: &self.enclaves,
            in_prm: &in_prm,
        };
        let validation = self.validator.validate(&cx);
        let step_cost = validation.steps as u64 * self.cfg.cost.validation_step;
        self.charge_cat(core, CycleCategory::Validation, step_cost);
        let cycles = walk_cost + step_cost;
        self.note(Event::TlbMiss { core, cycles });
        match validation.outcome {
            Outcome::Insert(entry) => {
                self.cores[core].tlb.insert(vpn, entry);
                self.check_perms(core, va, entry.perms, kind)?;
                Ok(Translated::Phys(
                    PhysAddr(entry.ppn.base().0 + va.page_offset() as u64),
                    entry.perms,
                ))
            }
            Outcome::Fault(kind) => Err(self.fault(core, va, kind)),
            Outcome::Abort => Ok(Translated::Abort),
        }
    }

    fn check_perms(
        &mut self,
        core: usize,
        va: VirtAddr,
        perms: PagePerms,
        kind: AccessKind,
    ) -> Result<()> {
        let kind_fault = match kind {
            AccessKind::Read if !perms.r => Some(FaultKind::NotMapped),
            AccessKind::Write if !perms.w => Some(FaultKind::WriteToReadOnly),
            AccessKind::Fetch if !perms.x => Some(FaultKind::ExecFromNonExec),
            _ => None,
        };
        kind_fault.map_or(Ok(()), |kind| Err(self.fault(core, va, kind)))
    }

    /// Charges cache/DRAM/MEE costs for touching `[paddr, paddr+len)` and
    /// notes the access's MEE crypto cycles, if any.
    ///
    /// Dispatches between the optimized range-charging implementation and
    /// the naive per-line reference ([`HwConfig::reference_path`]); the two
    /// are architecturally identical and differentially tested against
    /// each other.
    fn charge_data_access(&mut self, core: usize, paddr: PhysAddr, len: usize, write: bool) {
        if len == 0 {
            return;
        }
        let cycles = if self.cfg.reference_path {
            self.charge_data_access_reference(core, paddr, len, write)
        } else {
            self.charge_data_access_fast(core, paddr, len, write)
        };
        if cycles > 0 {
            self.note(Event::MeeCrypto { core, cycles });
        }
    }

    /// The naive data-access cost path: one LLC probe, one cost branch, and
    /// one MEE counter bump per line, then two separate category charges.
    /// Retained verbatim as the differential-oracle reference for
    /// [`Machine::charge_data_access_fast`]. Returns the MEE crypto cycles.
    fn charge_data_access_reference(
        &mut self,
        core: usize,
        paddr: PhysAddr,
        len: usize,
        write: bool,
    ) -> u64 {
        let first = paddr.0 / LINE_SIZE as u64;
        let last = (paddr.0 + len as u64 - 1) / LINE_SIZE as u64;
        let mut mem_cycles = 0u64;
        let mut mee_cycles = 0u64;
        for line in first..=last {
            match self.llc.access(line, write) {
                CacheAccess::Hit => mem_cycles += self.cfg.cost.llc_hit,
                CacheAccess::Miss { dirty_victim } => {
                    mem_cycles += self.cfg.cost.dram_access;
                    let line_ppn = line * LINE_SIZE as u64 / PAGE_SIZE as u64;
                    if self.cfg.in_prm(line_ppn) {
                        self.mee.note_decrypt();
                        mee_cycles += self.cfg.cost.mee_decrypt_line;
                    }
                    if let Some(victim) = dirty_victim {
                        let victim_ppn = victim * LINE_SIZE as u64 / PAGE_SIZE as u64;
                        if self.cfg.in_prm(victim_ppn) {
                            self.mee.note_encrypt();
                            mee_cycles += self.cfg.cost.mee_encrypt_line;
                        }
                    }
                }
            }
        }
        self.charge_cat(core, CycleCategory::Memory, mem_cycles);
        self.charge_cat(core, CycleCategory::MeeCrypto, mee_cycles);
        mee_cycles
    }

    /// Optimized data-access charging: walks the range page segment by page
    /// segment so the PRM check runs once per page instead of once per
    /// line, folds per-line cost arithmetic into `hits × cost` products,
    /// batches the MEE traffic counters, and books both cycle categories
    /// through a single attribution-table update. Produces exactly the
    /// charges, counters, and eviction decisions of
    /// [`Machine::charge_data_access_reference`] — cost addition commutes,
    /// all lines of a page segment share PRM residency, and the LLC visits
    /// lines in the same order. Returns the MEE crypto cycles.
    fn charge_data_access_fast(
        &mut self,
        core: usize,
        paddr: PhysAddr,
        len: usize,
        write: bool,
    ) -> u64 {
        const LINES_PER_PAGE: u64 = (PAGE_SIZE / LINE_SIZE) as u64;
        let first = paddr.0 / LINE_SIZE as u64;
        let last = (paddr.0 + len as u64 - 1) / LINE_SIZE as u64;
        let mut mem_cycles = 0u64;
        let mut mee_cycles = 0u64;
        let mut decrypts = 0u64;
        let mut encrypts = 0u64;
        let mut victims = std::mem::take(&mut self.dirty_scratch);
        victims.clear();
        let mut seg = first;
        while seg <= last {
            let seg_last = last.min((seg / LINES_PER_PAGE + 1) * LINES_PER_PAGE - 1);
            let (hits, misses) = self.llc.access_range(seg, seg_last, write, &mut victims);
            mem_cycles += hits * self.cfg.cost.llc_hit + misses * self.cfg.cost.dram_access;
            if self.cfg.in_prm(seg / LINES_PER_PAGE) {
                decrypts += misses;
                mee_cycles += misses * self.cfg.cost.mee_decrypt_line;
            }
            seg = seg_last + 1;
        }
        for &victim in &victims {
            if self.cfg.in_prm(victim / LINES_PER_PAGE) {
                encrypts += 1;
                mee_cycles += self.cfg.cost.mee_encrypt_line;
            }
        }
        self.dirty_scratch = victims;
        self.mee.note_decrypts(decrypts);
        self.mee.note_encrypts(encrypts);
        // Single fused charge for both categories: one core update and one
        // attribution-table lookup per access instead of two.
        let owner = self.current_enclave(core);
        if mem_cycles + mee_cycles > 0 {
            let c = &mut self.cores[core];
            c.cycles += mem_cycles + mee_cycles;
            c.breakdown.add(CycleCategory::Memory, mem_cycles);
            c.breakdown.add(CycleCategory::MeeCrypto, mee_cycles);
            let bucket = self.enclave_cycles.entry(owner).or_default();
            bucket.add(CycleCategory::Memory, mem_cycles);
            bucket.add(CycleCategory::MeeCrypto, mee_cycles);
        }
        mee_cycles
    }

    /// Range tamper check, honouring [`HwConfig::reference_path`].
    fn tampered(&self, paddr: u64, len: usize) -> bool {
        if self.cfg.reference_path {
            self.mee.any_tampered_scan(paddr, len)
        } else {
            self.mee.any_tampered(paddr, len)
        }
    }

    /// Reads `buf.len()` bytes at `va` as `core`.
    ///
    /// # Errors
    ///
    /// Faults propagate; aborted accesses (unauthorized PRM reads) fill the
    /// buffer with `0xFF` without error, matching SGX abort-page semantics.
    pub fn read_into(&mut self, core: usize, va: VirtAddr, buf: &mut [u8]) -> Result<()> {
        let mut done = 0usize;
        while done < buf.len() {
            let cur = va.add(done as u64);
            let in_page = (PAGE_SIZE - cur.page_offset()).min(buf.len() - done);
            match self.translate(core, cur, AccessKind::Read)? {
                Translated::Phys(pa, _) => {
                    if self.tampered(pa.0, in_page) {
                        return Err(self.fault(core, cur, FaultKind::IntegrityViolation));
                    }
                    self.charge_data_access(core, pa, in_page, false);
                    self.dram
                        .read(pa.ppn(), pa.page_offset(), &mut buf[done..done + in_page]);
                }
                Translated::Abort => buf[done..done + in_page].fill(0xFF),
            }
            done += in_page;
        }
        Ok(())
    }

    /// Reads `len` bytes at `va` as `core`.
    ///
    /// # Errors
    ///
    /// See [`Machine::read_into`].
    pub fn read(&mut self, core: usize, va: VirtAddr, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.read_into(core, va, &mut buf)?;
        Ok(buf)
    }

    /// Writes `data` at `va` as `core`.
    ///
    /// # Errors
    ///
    /// Faults propagate; aborted accesses are silently dropped (abort-page
    /// semantics).
    pub fn write(&mut self, core: usize, va: VirtAddr, data: &[u8]) -> Result<()> {
        let mut done = 0usize;
        while done < data.len() {
            let cur = va.add(done as u64);
            let in_page = (PAGE_SIZE - cur.page_offset()).min(data.len() - done);
            match self.translate(core, cur, AccessKind::Write)? {
                Translated::Phys(pa, _) => {
                    if self.tampered(pa.0, in_page) {
                        return Err(self.fault(core, cur, FaultKind::IntegrityViolation));
                    }
                    self.charge_data_access(core, pa, in_page, true);
                    self.dram
                        .write(pa.ppn(), pa.page_offset(), &data[done..done + in_page]);
                }
                Translated::Abort => {}
            }
            done += in_page;
        }
        Ok(())
    }

    /// Instruction fetch at `va` (execute-permission check).
    ///
    /// # Errors
    ///
    /// Returns [`FaultKind::ExecFromNonExec`] when `va` is not executable
    /// in the current mode — e.g. untrusted pages fetched from enclave mode.
    pub fn fetch(&mut self, core: usize, va: VirtAddr) -> Result<()> {
        match self.translate(core, va, AccessKind::Fetch)? {
            Translated::Phys(pa, _) => {
                // Instruction fetch pulls exactly the cache line holding
                // `pa` through the MEE like any other read: a tampered
                // line faults here, untouched neighbours do not.
                let line_base = pa.0 & !(LINE_SIZE as u64 - 1);
                if self.tampered(line_base, LINE_SIZE) {
                    return Err(self.fault(core, va, FaultKind::IntegrityViolation));
                }
                self.charge_data_access(core, PhysAddr(line_base), LINE_SIZE, false);
                Ok(())
            }
            Translated::Abort => Err(SgxError::Fault {
                kind: FaultKind::ExecFromNonExec,
                addr: va,
            }),
        }
    }

    /// Notes a fault of `kind` at `addr` and returns it as an error.
    fn fault(&mut self, core: usize, addr: VirtAddr, kind: FaultKind) -> SgxError {
        self.note(Event::Fault { core, addr, kind });
        SgxError::Fault { kind, addr }
    }

    // ----- physical attacker surface ----------------------------------------

    /// What a physical attacker probing the DRAM bus sees for page `ppn`:
    /// ciphertext for PRM pages, plaintext for ordinary memory.
    pub fn physical_probe(&self, ppn: Ppn) -> Vec<u8> {
        let plain = self.dram.read_page(ppn);
        if self.cfg.in_prm(ppn.0) {
            self.mee.encrypt_view(ppn.base().0, &plain)
        } else {
            plain.to_vec()
        }
    }

    /// Physically overwrites `[paddr, paddr+len)` (rowhammer / bus attack).
    /// For PRM lines, the MEE integrity tree will reject the next
    /// architectural access.
    pub fn physical_tamper(&mut self, paddr: PhysAddr, data: &[u8]) {
        self.dram.write(paddr.ppn(), paddr.page_offset(), data);
        if self.cfg.in_prm(paddr.ppn().0) {
            self.mee.mark_tampered(paddr.0, data.len());
        }
    }

    // ----- fault injection (chaos) ------------------------------------------

    /// Installs a fault-injection plan; replaces any previous one.
    /// Chaos is off until this is called.
    pub fn install_chaos(&mut self, plan: FaultPlan) {
        self.chaos = Some(plan);
    }

    /// Uninstalls the fault plan (chaos off), returning it. Enclaves
    /// already poisoned stay poisoned until EREMOVEd.
    pub fn clear_chaos(&mut self) -> Option<FaultPlan> {
        self.chaos.take()
    }

    /// Injection counters of the installed plan, if any.
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(FaultPlan::stats)
    }

    /// Cycle-stamped log of every injection applied since the last
    /// [`Machine::reset_metrics`], in application order. Empty when chaos
    /// never ran. The observability layer joins these against host-side
    /// recovery events to build incident reports.
    pub fn chaos_events(&self) -> &[ChaosInjection] {
        &self.chaos_events
    }

    /// Re-aims a targeted plan after a respawn handed the same logical
    /// enclave a fresh id.
    pub fn chaos_retarget(&mut self, old: EnclaveId, new: EnclaveId) {
        if let Some(p) = self.chaos.as_mut() {
            p.retarget(old.0, new.0);
        }
    }

    /// Marks `eid` crashed: every subsequent EENTER/NEENTER faults with
    /// [`SgxError::EnclavePoisoned`] until the enclave is EREMOVEd.
    pub fn poison_enclave(&mut self, eid: EnclaveId) {
        self.poisoned.insert(eid.0);
    }

    /// True if `eid` is currently poisoned.
    pub fn is_poisoned(&self, eid: EnclaveId) -> bool {
        self.poisoned.contains(&eid.0)
    }

    /// Sealed blobs the chaos layer has force-evicted and not yet
    /// reloaded (inspection; the host calls
    /// [`reload_chaos_evicted`](Machine::reload_chaos_evicted)).
    pub fn chaos_evicted_blobs(&self) -> &[EvictedPage] {
        &self.chaos_evicted
    }

    /// ELDUs every chaos-evicted page belonging to `eid` back into the
    /// EPC, in eviction order. Returns the number of pages reloaded.
    ///
    /// # Errors
    ///
    /// Propagates [`SgxError::Paging`]/[`SgxError::EpcFull`] from ELDU;
    /// blobs not yet processed stay parked.
    pub fn reload_chaos_evicted(&mut self, eid: EnclaveId) -> Result<usize> {
        let mut reloaded = 0;
        while let Some(pos) = self.chaos_evicted.iter().position(|b| b.eid == eid) {
            let blob = self.chaos_evicted.remove(pos);
            if let Err(e) = self.eldu(&blob) {
                self.chaos_evicted.insert(pos, blob);
                return Err(e);
            }
            reloaded += 1;
        }
        Ok(reloaded)
    }

    /// Consumed by the switchless layer on every queue ocall: true if
    /// the reply core is inside an injected stall window (the ocall must
    /// fail with [`SgxError::Stalled`]).
    pub fn chaos_take_stall(&mut self) -> bool {
        self.chaos.as_mut().is_some_and(FaultPlan::take_stall)
    }

    /// Drains the raw enclave ids a `migrate` chaos injection has parked
    /// since the last drain. The host calls this at a safe point (e.g. a
    /// cluster barrier) and drives its live-migration machine for each
    /// victim; ids are deduplicated and in request order.
    pub fn take_migration_requests(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.migration_requests)
    }

    // ----- internal access for instruction implementations -------------------

    pub(crate) fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    pub(crate) fn dram(&self) -> &Dram {
        &self.dram
    }

    pub(crate) fn mee_mut(&mut self) -> &mut Mee {
        &mut self.mee
    }

    pub(crate) fn validator(&self) -> &dyn TlbValidator {
        self.validator.as_ref()
    }

    // ----- invariant audit ----------------------------------------------------

    /// Audits every TLB against the paper's § VII-A security invariants:
    ///
    /// 1. Non-enclave cores hold no PRM translations.
    /// 2. In enclave mode, VPNs outside ELRANGE (and outside any associated
    ///    outer ELRANGE) never map into PRM.
    /// 3. VPNs inside ELRANGE map to EPC pages whose EPCM entry matches the
    ///    enclave id and virtual address.
    /// 4. VPNs inside an outer enclave's ELRANGE map to EPC pages whose
    ///    EPCM entry matches that outer enclave and virtual address.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn audit_tlbs(&self) -> std::result::Result<(), String> {
        for (idx, core) in self.cores.iter().enumerate() {
            match core.mode {
                CoreMode::NonEnclave => {
                    for (vpn, entry) in core.tlb.iter() {
                        if self.cfg.in_prm(entry.ppn.0) {
                            return Err(format!(
                                "invariant 1 violated: core {idx} (non-enclave) caches \
                                 {vpn:?} → PRM page {:?}",
                                entry.ppn
                            ));
                        }
                    }
                }
                CoreMode::Enclave { eid, .. } => {
                    // Collect the inner→outer ELRANGE closure (BFS over all
                    // associated outers, bounded so a malformed cycle still
                    // terminates).
                    let mut chain = Vec::new();
                    let mut queue = vec![eid];
                    while let Some(id) = queue.pop() {
                        if chain.iter().any(|(seen, _)| *seen == id) || chain.len() > 64 {
                            continue;
                        }
                        let secs = match self.enclaves.get(id) {
                            Some(s) => s,
                            None => continue,
                        };
                        chain.push((id, secs.elrange));
                        queue.extend(secs.outer_eids.iter().copied());
                    }
                    for (vpn, entry) in core.tlb.iter() {
                        let owner = chain.iter().find(|(_, r)| r.contains_page(vpn));
                        match owner {
                            None => {
                                if self.cfg.in_prm(entry.ppn.0) {
                                    return Err(format!(
                                        "invariant 2 violated: core {idx} enclave {eid} \
                                         caches out-of-ELRANGE {vpn:?} → PRM {:?}",
                                        entry.ppn
                                    ));
                                }
                            }
                            Some((owner_eid, _)) => {
                                let which = if *owner_eid == eid { 3 } else { 4 };
                                let epcm = self.epcm.get(entry.ppn);
                                let ok = epcm
                                    .map(|e| e.eid == *owner_eid && e.vpn == vpn)
                                    .unwrap_or(false);
                                if !ok {
                                    return Err(format!(
                                        "invariant {which} violated: core {idx} enclave \
                                         {eid} caches {vpn:?} → {:?} with EPCM {:?}",
                                        entry.ppn, epcm
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(HwConfig::small())
    }

    /// A machine pays only for the EPC it uses: booting the 4 GiB-PRM
    /// testbed builds no free list, yet reports every PRM page free.
    #[test]
    fn testbed_boots_with_no_prefilled_epc_list() {
        let m = Machine::new(HwConfig::testbed());
        assert_eq!(m.free_epc_pages() as u64, m.config().prm_pages);
        assert!(m.recycled_epc.is_empty());
        assert_eq!(m.recycled_epc.capacity(), 0);
    }

    #[test]
    fn untrusted_read_write_roundtrip() {
        let mut m = machine();
        let va = m.os_alloc_untrusted(ProcessId(0), 2);
        m.write(0, va, b"hello world").unwrap();
        assert_eq!(m.read(0, va, 11).unwrap(), b"hello world");
    }

    #[test]
    fn cross_page_access_works() {
        let mut m = machine();
        let va = m.os_alloc_untrusted(ProcessId(0), 2);
        let addr = va.add(PAGE_SIZE as u64 - 3);
        m.write(0, addr, b"abcdef").unwrap();
        assert_eq!(m.read(0, addr, 6).unwrap(), b"abcdef");
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = machine();
        let err = m.read(0, VirtAddr(0xdead_0000), 4).unwrap_err();
        assert!(err.is_fault(FaultKind::NotMapped));
        assert_eq!(m.stats().faults, 1);
    }

    #[test]
    fn tlb_caches_translations() {
        let mut m = machine();
        let va = m.os_alloc_untrusted(ProcessId(0), 1);
        m.read(0, va, 1).unwrap();
        let misses = m.stats().tlb_misses;
        m.read(0, va, 1).unwrap();
        assert_eq!(m.stats().tlb_misses, misses, "second access must hit TLB");
    }

    #[test]
    fn non_enclave_prm_access_aborts_with_ones() {
        let mut m = machine();
        let prm_ppn = Ppn(m.config().prm_start());
        m.os_map(ProcessId(0), Vpn(0x100), prm_ppn, PagePerms::RW);
        let data = m.read(0, VirtAddr(0x100 << 12), 4).unwrap();
        assert_eq!(data, vec![0xFF; 4], "abort page reads all-ones");
        // Writes are dropped.
        m.write(0, VirtAddr(0x100 << 12), b"xx").unwrap();
        assert_eq!(
            m.physical_probe(prm_ppn)[..2],
            m.physical_probe(prm_ppn)[..2]
        );
        m.audit_tlbs().unwrap();
    }

    #[test]
    fn context_switch_flushes_tlb() {
        let mut m = machine();
        let va = m.os_alloc_untrusted(ProcessId(0), 1);
        m.read(0, va, 1).unwrap();
        let pid2 = m.spawn_process();
        m.set_core_process(0, pid2);
        assert!(m.core(0).tlb.is_empty());
    }

    #[test]
    fn physical_probe_of_normal_ram_is_plaintext() {
        let mut m = machine();
        let va = m.os_alloc_untrusted(ProcessId(0), 1);
        m.write(0, va, b"SECRET").unwrap();
        let pte = m.os_lookup(ProcessId(0), va.vpn()).unwrap();
        let probe = m.physical_probe(pte.ppn);
        assert_eq!(&probe[..6], b"SECRET", "normal RAM is not encrypted");
    }

    #[test]
    fn charge_and_cycles() {
        let mut m = machine();
        let before = m.cycles(1);
        m.charge(1, 500);
        assert_eq!(m.cycles(1), before + 500);
    }

    #[test]
    fn write_to_readonly_faults() {
        let mut m = machine();
        let frames = m.os_alloc_frames(1);
        m.os_map(ProcessId(0), Vpn(0x200), frames[0], PagePerms::R);
        let err = m.write(0, VirtAddr(0x200 << 12), b"x").unwrap_err();
        assert!(err.is_fault(FaultKind::WriteToReadOnly));
    }

    #[test]
    fn fetch_checks_exec() {
        let mut m = machine();
        let frames = m.os_alloc_frames(2);
        m.os_map(ProcessId(0), Vpn(0x300), frames[0], PagePerms::RWX);
        m.os_map(ProcessId(0), Vpn(0x301), frames[1], PagePerms::RW);
        m.fetch(0, VirtAddr(0x300 << 12)).unwrap();
        let err = m.fetch(0, VirtAddr(0x301 << 12)).unwrap_err();
        assert!(err.is_fault(FaultKind::ExecFromNonExec));
    }

    #[test]
    fn reset_metrics_clears() {
        let mut m = machine();
        let va = m.os_alloc_untrusted(ProcessId(0), 1);
        m.read(0, va, 1).unwrap();
        assert!(m.stats().tlb_misses > 0);
        m.reset_metrics();
        assert_eq!(m.stats().tlb_misses, 0);
        assert_eq!(m.cycles(0), 0);
    }
}
