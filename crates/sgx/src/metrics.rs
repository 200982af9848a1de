//! Cycle attribution and metrics export.
//!
//! Every cycle charged to a core is tagged with a [`CycleCategory`] and
//! accumulated twice: per **core** (where it executed) and per **enclave**
//! (who it was executed for — `None` meaning untrusted code). Because each
//! charge lands in exactly one category of exactly one core and one
//! enclave bucket, two identities hold by construction and are enforced by
//! [`MachineMetrics::check`]:
//!
//! - each core's category breakdown sums to that core's cycle clock, and
//! - the per-enclave breakdowns (untrusted bucket included) sum to
//!   [`crate::machine::Machine::total_cycles`].
//!
//! [`MachineMetrics`] is a plain snapshot: capture it with
//! [`crate::machine::Machine::metrics`], then inspect it, export it
//! ([`MachineMetrics::to_json`]), or validate it. The JSON schema is
//! versioned (`ne-metrics/v2` — v2 added the `profile` latency-histogram
//! section and the span counters) and key order is fixed, so downstream
//! tooling can diff exports byte-for-byte.
//!
//! ```
//! use ne_sgx::config::HwConfig;
//! use ne_sgx::machine::Machine;
//! use ne_sgx::metrics::CycleCategory;
//!
//! let mut m = Machine::new(HwConfig::small());
//! let va = m.os_alloc_untrusted(ne_sgx::enclave::ProcessId(0), 1);
//! m.write(0, va, b"hello").unwrap();
//!
//! let snap = m.metrics();
//! snap.check().expect("counter identities hold");
//! // The write charged TLB-walk and memory cycles to core 0, attributed
//! // to untrusted execution (eid = None).
//! assert!(snap.cores[0].breakdown.get(CycleCategory::TlbWalk) > 0);
//! assert_eq!(snap.total_cycles, m.total_cycles());
//! assert!(snap.to_json().starts_with("{\n  \"schema\": \"ne-metrics/v2\""));
//! ```

use crate::machine::Machine;
use crate::profile::{Profile, ProfileEvent};
use crate::trace::Stats;

/// Version tag emitted at the top of [`MachineMetrics::to_json`]. Bump it
/// whenever a key is added, removed, or reordered; compare tooling hard
/// fails on a mismatch.
pub const METRICS_SCHEMA: &str = "ne-metrics/v2";

/// Where a charged cycle went, at the granularity the paper's evaluation
/// reasons about (transition cost, validation walk, MEE crypto, paging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleCategory {
    /// Transition instructions and SDK dispatch (EENTER/EEXIT/AEX extras,
    /// Table II call costs, transition TLB flushes).
    Transition,
    /// Page-table walks on TLB misses.
    TlbWalk,
    /// TLB-miss validation steps (Fig. 2 baseline walk, Fig. 6 nested).
    Validation,
    /// MEE line encryption/decryption on PRM traffic.
    MeeCrypto,
    /// EWB/ELDU paging, including shootdown IPIs.
    Paging,
    /// Enclave lifecycle instructions (ECREATE/EADD/EEXTEND/EINIT/EAUG/
    /// EACCEPT/EREMOVE).
    Lifecycle,
    /// Cache/DRAM access latency and TLB-hit lookups.
    Memory,
    /// Application work charged by workloads through
    /// [`crate::machine::Machine::charge`].
    AppCompute,
}

impl CycleCategory {
    /// Every category, in export order.
    pub const ALL: [CycleCategory; 8] = [
        CycleCategory::Transition,
        CycleCategory::TlbWalk,
        CycleCategory::Validation,
        CycleCategory::MeeCrypto,
        CycleCategory::Paging,
        CycleCategory::Lifecycle,
        CycleCategory::Memory,
        CycleCategory::AppCompute,
    ];

    /// Stable snake_case name (used as JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            CycleCategory::Transition => "transition",
            CycleCategory::TlbWalk => "tlb_walk",
            CycleCategory::Validation => "validation",
            CycleCategory::MeeCrypto => "mee_crypto",
            CycleCategory::Paging => "paging",
            CycleCategory::Lifecycle => "lifecycle",
            CycleCategory::Memory => "memory",
            CycleCategory::AppCompute => "app_compute",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|c| *c == self).unwrap()
    }
}

/// Cycles accumulated per [`CycleCategory`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    cycles: [u64; CycleCategory::ALL.len()],
}

impl CycleBreakdown {
    /// Adds `cycles` to `category`.
    pub fn add(&mut self, category: CycleCategory, cycles: u64) {
        self.cycles[category.index()] += cycles;
    }

    /// Cycles recorded under `category`.
    pub fn get(&self, category: CycleCategory) -> u64 {
        self.cycles[category.index()]
    }

    /// Sum over all categories.
    pub fn total(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Accumulates another breakdown into this one.
    pub fn merge(&mut self, other: &CycleBreakdown) {
        for (dst, src) in self.cycles.iter_mut().zip(other.cycles.iter()) {
            *dst += src;
        }
    }

    /// `(category, cycles)` pairs in export order.
    pub fn iter(&self) -> impl Iterator<Item = (CycleCategory, u64)> + '_ {
        CycleCategory::ALL.iter().map(|&c| (c, self.get(c)))
    }
}

/// One core's share of the cycle accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreMetrics {
    /// Core index.
    pub core: usize,
    /// The core's cycle clock.
    pub cycles: u64,
    /// Category breakdown; sums to `cycles`.
    pub breakdown: CycleBreakdown,
}

/// One enclave's (or the untrusted bucket's) share of the accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnclaveMetrics {
    /// Enclave id; `None` is the untrusted (non-enclave) bucket.
    pub eid: Option<u64>,
    /// Outer enclaves this enclave is nested inside (empty for top-level
    /// enclaves and the untrusted bucket) — the outer/inner hierarchy.
    pub outer_eids: Vec<u64>,
    /// Category breakdown of cycles attributed to this enclave.
    pub breakdown: CycleBreakdown,
}

/// A point-in-time snapshot of every counter the machine maintains.
///
/// See the [module docs](self) for the identities [`check`]
/// enforces and an end-to-end example.
///
/// [`check`]: MachineMetrics::check
#[derive(Debug, Clone, PartialEq)]
pub struct MachineMetrics {
    /// Installed TLB-miss validator (`"sgx"` or `"nested"`).
    pub validator: String,
    /// Cost-profile name (`"hw-sgx"` / `"emulated"`).
    pub cost_profile: String,
    /// Modelled clock in GHz (converts cycles to wall time).
    pub clock_ghz: f64,
    /// Sum of all core cycle clocks.
    pub total_cycles: u64,
    /// Cores currently executing in enclave mode. The transition-pairing
    /// identities only hold at rest (when this is zero).
    pub cores_in_enclave_mode: usize,
    /// Always-on event counters.
    pub stats: Stats,
    /// The machine's latency histograms.
    pub profile: Profile,
    /// Per-core accounting, core 0 first.
    pub cores: Vec<CoreMetrics>,
    /// Per-enclave accounting: untrusted bucket first, then by ascending
    /// enclave id.
    pub enclaves: Vec<EnclaveMetrics>,
    /// MEE lines decrypted (PRM reads from DRAM).
    pub mee_lines_decrypted: u64,
    /// MEE lines encrypted (PRM writebacks).
    pub mee_lines_encrypted: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// TLB flushes across all cores.
    pub tlb_flushes: u64,
    /// Events offered to the trace while enabled.
    pub trace_recorded: u64,
    /// Events the trace ring dropped (oldest-first) after filling.
    pub trace_dropped: u64,
    /// Events currently retained in the trace ring.
    pub trace_retained: usize,
    /// Free EPC pages.
    pub free_epc_pages: usize,
    /// DRAM pages actually materialized by the backing store.
    pub resident_pages: usize,
}

impl MachineMetrics {
    /// Snapshots `machine`'s counters. Also available as
    /// [`Machine::metrics`].
    pub fn capture(machine: &Machine) -> MachineMetrics {
        let cfg = machine.config();
        let stats = machine.stats();
        let cores = (0..machine.num_cores())
            .map(|i| CoreMetrics {
                core: i,
                cycles: machine.cycles(i),
                breakdown: *machine.core_breakdown(i),
            })
            .collect();
        let mut enclaves: Vec<EnclaveMetrics> = machine
            .enclave_cycle_table()
            .iter()
            .map(|(eid, breakdown)| EnclaveMetrics {
                eid: eid.map(|e| e.0),
                outer_eids: eid
                    .and_then(|e| machine.enclaves().get(e))
                    .map(|secs| secs.outer_eids.iter().map(|o| o.0).collect())
                    .unwrap_or_default(),
                breakdown: *breakdown,
            })
            .collect();
        // Untrusted bucket (None) first, then ascending eid, so exports are
        // stable run to run.
        enclaves.sort_by_key(|e| e.eid.map_or((0, 0), |id| (1, id)));
        if enclaves.first().is_none_or(|e| e.eid.is_some()) {
            enclaves.insert(
                0,
                EnclaveMetrics {
                    eid: None,
                    outer_eids: Vec::new(),
                    breakdown: CycleBreakdown::default(),
                },
            );
        }
        let cores_in_enclave_mode = (0..machine.num_cores())
            .filter(|&i| machine.current_enclave(i).is_some())
            .count();
        MachineMetrics {
            validator: machine.validator_name().to_string(),
            cost_profile: cfg.cost.name.to_string(),
            clock_ghz: cfg.cost.clock_ghz,
            total_cycles: machine.total_cycles(),
            cores_in_enclave_mode,
            stats,
            profile: machine.profile().clone(),
            cores,
            enclaves,
            mee_lines_decrypted: machine.mee().lines_decrypted(),
            mee_lines_encrypted: machine.mee().lines_encrypted(),
            llc_hits: machine.llc().hits(),
            llc_misses: machine.llc().misses(),
            tlb_flushes: machine.tlb_flushes(),
            trace_recorded: machine.trace().recorded(),
            trace_dropped: machine.trace().dropped(),
            trace_retained: machine.trace().len(),
            free_epc_pages: machine.free_epc_pages(),
            resident_pages: machine.resident_pages(),
        }
    }

    /// Cycles attributed to enclave `eid` (`None` = untrusted bucket).
    pub fn enclave(&self, eid: Option<u64>) -> Option<&EnclaveMetrics> {
        self.enclaves.iter().find(|e| e.eid == eid)
    }

    /// Verifies the counter identities the accounting guarantees:
    ///
    /// 1. each core's breakdown sums to its cycle clock;
    /// 2. core clocks sum to `total_cycles`;
    /// 3. per-enclave breakdowns (untrusted included) sum to `total_cycles`;
    /// 4. at rest (no core in enclave mode), enclave entries and exits
    ///    pair up: `ecalls + eresumes == ocalls + aexes` and
    ///    `n_ecalls == n_ocalls`;
    /// 5. pages reloaded never exceed pages evicted;
    /// 6. the trace ring accounts for every event offered:
    ///    `recorded == dropped + retained`;
    /// 7. every latency histogram is internally consistent (bucket counts
    ///    sum to its count) with monotone percentiles
    ///    (`min ≤ p50 ≤ p90 ≤ p99 ≤ max`);
    /// 8. the boundary histograms (ecall/ocall/n_ecall/n_ocall/switchless)
    ///    together hold exactly `span_closes` samples;
    /// 9. the microarchitectural histograms agree with the counters:
    ///    `tlb_miss` count == `tlb_misses`, `aex` == `aexes`,
    ///    `eresume` == `eresumes`, `paging` == `ewb_pages + eldu_pages`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first identity violated. The bench
    /// harness treats that as a fatal error — a broken identity means the
    /// simulator (or a new charge site) mis-attributed cycles.
    pub fn check(&self) -> Result<(), String> {
        for c in &self.cores {
            let sum = c.breakdown.total();
            if sum != c.cycles {
                return Err(format!(
                    "core {}: category breakdown sums to {sum} but the core clock is {} \
                     (a charge bypassed category accounting)",
                    c.core, c.cycles
                ));
            }
        }
        let core_sum: u64 = self.cores.iter().map(|c| c.cycles).sum();
        if core_sum != self.total_cycles {
            return Err(format!(
                "core clocks sum to {core_sum}, total_cycles is {}",
                self.total_cycles
            ));
        }
        let enclave_sum: u64 = self.enclaves.iter().map(|e| e.breakdown.total()).sum();
        if enclave_sum != self.total_cycles {
            return Err(format!(
                "per-enclave cycles sum to {enclave_sum}, total_cycles is {} \
                 (a charge was attributed to no enclave bucket, or to two)",
                self.total_cycles
            ));
        }
        if self.cores_in_enclave_mode == 0 {
            let entries = self.stats.ecalls + self.stats.eresumes;
            let exits = self.stats.ocalls + self.stats.aexes;
            if entries != exits {
                return Err(format!(
                    "at rest, enclave entries ({} ecalls + {} eresumes) != exits \
                     ({} ocalls + {} aexes)",
                    self.stats.ecalls, self.stats.eresumes, self.stats.ocalls, self.stats.aexes
                ));
            }
            if self.stats.n_ecalls != self.stats.n_ocalls {
                return Err(format!(
                    "at rest, n_ecalls ({}) != n_ocalls ({})",
                    self.stats.n_ecalls, self.stats.n_ocalls
                ));
            }
        }
        if self.stats.eldu_pages > self.stats.ewb_pages {
            return Err(format!(
                "more pages reloaded ({}) than evicted ({})",
                self.stats.eldu_pages, self.stats.ewb_pages
            ));
        }
        if self.trace_recorded != self.trace_dropped + self.trace_retained as u64 {
            return Err(format!(
                "trace ring leaked events: recorded {} != dropped {} + retained {}",
                self.trace_recorded, self.trace_dropped, self.trace_retained
            ));
        }
        for (event, level, hist) in self.profile.entries() {
            let key = format!("{}/{}", event.name(), level.name());
            if hist.bucket_total() != hist.count() {
                return Err(format!(
                    "histogram {key}: bucket counts sum to {} but count is {}",
                    hist.bucket_total(),
                    hist.count()
                ));
            }
            let s = hist.summary();
            if !(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max) {
                return Err(format!(
                    "histogram {key}: percentiles not monotone \
                     (min {} p50 {} p90 {} p99 {} max {})",
                    s.min, s.p50, s.p90, s.p99, s.max
                ));
            }
        }
        let boundary = self.profile.boundary_count();
        if boundary != self.stats.span_closes {
            return Err(format!(
                "boundary histograms hold {boundary} samples but {} spans closed \
                 (a span close bypassed latency recording)",
                self.stats.span_closes
            ));
        }
        for (ev, expect, what) in [
            (ProfileEvent::TlbMiss, self.stats.tlb_misses, "tlb_misses"),
            (ProfileEvent::Aex, self.stats.aexes, "aexes"),
            (ProfileEvent::Eresume, self.stats.eresumes, "eresumes"),
            (
                ProfileEvent::Paging,
                self.stats.ewb_pages + self.stats.eldu_pages,
                "ewb_pages + eldu_pages",
            ),
        ] {
            let got = self.profile.merged(ev).count();
            if got != expect {
                return Err(format!(
                    "{} histogram holds {got} samples but {what} is {expect}",
                    ev.name()
                ));
            }
        }
        Ok(())
    }

    /// Namespaces this snapshot's core and enclave ids into shard
    /// `shard`'s id range, so snapshots captured from **independent
    /// machines** can be folded with [`MachineMetrics::absorb`] without
    /// id collisions: core ids gain `shard << SHARD_CORE_BITS`, enclave
    /// ids (including `outer_eids`) gain `shard << SHARD_EID_BITS`. The
    /// untrusted bucket (`eid == None`) is shared by design and stays
    /// `None`. Rebasing into shard 0 is a strict no-op, which is what
    /// makes a single-shard merged report byte-identical to the plain
    /// captured snapshot.
    pub fn rebase_shard(&mut self, shard: usize) {
        let core_base = shard << SHARD_CORE_BITS;
        let eid_base = (shard as u64) << SHARD_EID_BITS;
        for c in &mut self.cores {
            c.core += core_base;
        }
        for e in &mut self.enclaves {
            if let Some(id) = &mut e.eid {
                *id += eid_base;
            }
            for o in &mut e.outer_eids {
                *o += eid_base;
            }
        }
    }

    /// Folds `other` into `self` component-wise: counters and cycle
    /// totals sum, per-core and per-enclave rows with the same id merge
    /// (rows are kept sorted — untrusted bucket first, then ascending
    /// id), and latency histograms merge bucket-wise. The operation is
    /// **commutative and associative** (see the `shard_merge` tests), so
    /// folding per-shard snapshots in any fixed order yields the same
    /// merged report; every identity [`MachineMetrics::check`] verifies
    /// is a sum over these components and therefore survives the fold.
    ///
    /// Snapshots from different shards must be namespaced first with
    /// [`MachineMetrics::rebase_shard`] — otherwise shard-local enclave
    /// ids collide and unrelated enclaves merge into one row.
    ///
    /// # Errors
    ///
    /// The snapshots must describe identically configured machines:
    /// same validator, cost profile, and clock. A same-id enclave row
    /// whose outer chain disagrees is also an error (it means the
    /// caller skipped rebasing).
    pub fn absorb(&mut self, other: &MachineMetrics) -> Result<(), String> {
        if self.validator != other.validator {
            return Err(format!(
                "cannot merge snapshots of different validators: {} vs {}",
                self.validator, other.validator
            ));
        }
        if self.cost_profile != other.cost_profile {
            return Err(format!(
                "cannot merge snapshots of different cost profiles: {} vs {}",
                self.cost_profile, other.cost_profile
            ));
        }
        if self.clock_ghz != other.clock_ghz {
            return Err(format!(
                "cannot merge snapshots of different clocks: {} vs {} GHz",
                self.clock_ghz, other.clock_ghz
            ));
        }
        self.total_cycles += other.total_cycles;
        self.cores_in_enclave_mode += other.cores_in_enclave_mode;
        self.stats.merge(&other.stats);
        self.profile.merge(&other.profile);

        let mut cores: Vec<CoreMetrics> = Vec::with_capacity(self.cores.len() + other.cores.len());
        cores.append(&mut self.cores);
        cores.extend(other.cores.iter().cloned());
        cores.sort_by_key(|c| c.core);
        for c in cores {
            match self.cores.last_mut() {
                Some(prev) if prev.core == c.core => {
                    prev.cycles += c.cycles;
                    prev.breakdown.merge(&c.breakdown);
                }
                _ => self.cores.push(c),
            }
        }

        let mut enclaves: Vec<EnclaveMetrics> =
            Vec::with_capacity(self.enclaves.len() + other.enclaves.len());
        enclaves.append(&mut self.enclaves);
        enclaves.extend(other.enclaves.iter().cloned());
        enclaves.sort_by_key(|e| e.eid.map_or((0, 0), |id| (1, id)));
        for e in enclaves {
            match self.enclaves.last_mut() {
                Some(prev) if prev.eid == e.eid => {
                    if prev.eid.is_some() && prev.outer_eids != e.outer_eids {
                        return Err(format!(
                            "enclave {:?} merged with conflicting outer chains \
                             {:?} vs {:?} (rebase_shard skipped?)",
                            e.eid, prev.outer_eids, e.outer_eids
                        ));
                    }
                    prev.breakdown.merge(&e.breakdown);
                }
                _ => self.enclaves.push(e),
            }
        }

        self.mee_lines_decrypted += other.mee_lines_decrypted;
        self.mee_lines_encrypted += other.mee_lines_encrypted;
        self.llc_hits += other.llc_hits;
        self.llc_misses += other.llc_misses;
        self.tlb_flushes += other.tlb_flushes;
        self.trace_recorded += other.trace_recorded;
        self.trace_dropped += other.trace_dropped;
        self.trace_retained += other.trace_retained;
        self.free_epc_pages += other.free_epc_pages;
        self.resident_pages += other.resident_pages;
        Ok(())
    }

    /// Merges per-shard snapshots into one report: each snapshot is
    /// namespaced into its slice index's id range
    /// ([`MachineMetrics::rebase_shard`]) and folded in shard order with
    /// [`MachineMetrics::absorb`]. For a single shard this returns the
    /// snapshot unchanged (rebasing into shard 0 is a no-op), so a
    /// one-shard cluster exports byte-identical metrics to the unsharded
    /// path.
    ///
    /// # Errors
    ///
    /// An empty slice, or any [`MachineMetrics::absorb`] failure.
    pub fn merge_shards(shards: &[MachineMetrics]) -> Result<MachineMetrics, String> {
        let Some(first) = shards.first() else {
            return Err("merge_shards: no shard snapshots to merge".to_string());
        };
        let mut merged = first.clone();
        for (shard, snap) in shards.iter().enumerate().skip(1) {
            let mut rebased = snap.clone();
            rebased.rebase_shard(shard);
            merged.absorb(&rebased)?;
        }
        Ok(merged)
    }

    /// Renders the snapshot as pretty-printed JSON with a fixed key order
    /// (schema [`METRICS_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{METRICS_SCHEMA}\",\n"));
        out.push_str(&format!(
            "  \"validator\": \"{}\",\n",
            json_escape(&self.validator)
        ));
        out.push_str(&format!(
            "  \"cost_profile\": \"{}\",\n",
            json_escape(&self.cost_profile)
        ));
        out.push_str(&format!("  \"clock_ghz\": {},\n", self.clock_ghz));
        out.push_str(&format!("  \"total_cycles\": {},\n", self.total_cycles));
        out.push_str(&format!(
            "  \"cores_in_enclave_mode\": {},\n",
            self.cores_in_enclave_mode
        ));
        out.push_str("  \"stats\": {");
        out.push_str(
            &self
                .stats
                .fields()
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str("},\n");
        let profile: Vec<_> = self.profile.entries().collect();
        if profile.is_empty() {
            out.push_str("  \"profile\": [],\n");
        } else {
            out.push_str("  \"profile\": [\n");
            for (i, (event, level, hist)) in profile.iter().enumerate() {
                let s = hist.summary();
                out.push_str(&format!(
                    "    {{\"event\": \"{}\", \"level\": \"{}\", \"count\": {}, \
                     \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \
                     \"p99\": {}}}{}\n",
                    event.name(),
                    level.name(),
                    s.count,
                    s.sum,
                    s.min,
                    s.max,
                    s.p50,
                    s.p90,
                    s.p99,
                    if i + 1 < profile.len() { "," } else { "" }
                ));
            }
            out.push_str("  ],\n");
        }
        out.push_str("  \"cores\": [\n");
        for (i, c) in self.cores.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"core\": {}, \"cycles\": {}, \"breakdown\": {}}}{}\n",
                c.core,
                c.cycles,
                breakdown_json(&c.breakdown),
                if i + 1 < self.cores.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"enclaves\": [\n");
        for (i, e) in self.enclaves.iter().enumerate() {
            let eid = e.eid.map_or("null".to_string(), |id| id.to_string());
            let outers = e
                .outer_eids
                .iter()
                .map(|o| o.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"eid\": {eid}, \"outer_eids\": [{outers}], \"breakdown\": {}}}{}\n",
                breakdown_json(&e.breakdown),
                if i + 1 < self.enclaves.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"mee\": {{\"lines_decrypted\": {}, \"lines_encrypted\": {}}},\n",
            self.mee_lines_decrypted, self.mee_lines_encrypted
        ));
        out.push_str(&format!(
            "  \"llc\": {{\"hits\": {}, \"misses\": {}}},\n",
            self.llc_hits, self.llc_misses
        ));
        out.push_str(&format!("  \"tlb_flushes\": {},\n", self.tlb_flushes));
        out.push_str(&format!(
            "  \"trace\": {{\"recorded\": {}, \"dropped\": {}, \"retained\": {}}},\n",
            self.trace_recorded, self.trace_dropped, self.trace_retained
        ));
        out.push_str(&format!(
            "  \"epc\": {{\"free_pages\": {}, \"resident_dram_pages\": {}}}\n",
            self.free_epc_pages, self.resident_pages
        ));
        out.push('}');
        out
    }
}

/// Bit position where [`MachineMetrics::rebase_shard`] places the shard
/// index inside a core id. 16 bits leave room for 65 535 cores per shard —
/// far beyond any modelled machine.
pub const SHARD_CORE_BITS: u32 = 16;

/// Bit position where [`MachineMetrics::rebase_shard`] places the shard
/// index inside an enclave id. Per-machine eids are small sequential
/// integers, so the low 32 bits never collide with the shard tag.
pub const SHARD_EID_BITS: u32 = 32;

fn breakdown_json(b: &CycleBreakdown) -> String {
    let fields = b
        .iter()
        .map(|(cat, v)| format!("\"{}\": {v}", cat.name()))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{{fields}}}")
}

/// `s` escaped for a JSON string body (RFC 8259 § 7): `"` and `\`
/// backslashed, newline as `\n`, other control characters as `\u00XX`.
/// Every JSON export of the workspace escapes with it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwConfig;
    use crate::enclave::ProcessId;

    #[test]
    fn breakdown_totals_and_merge() {
        let mut b = CycleBreakdown::default();
        b.add(CycleCategory::Transition, 10);
        b.add(CycleCategory::MeeCrypto, 5);
        assert_eq!(b.total(), 15);
        assert_eq!(b.get(CycleCategory::Transition), 10);
        let mut c = CycleBreakdown::default();
        c.add(CycleCategory::Transition, 1);
        c.merge(&b);
        assert_eq!(c.get(CycleCategory::Transition), 11);
        assert_eq!(c.total(), 16);
    }

    #[test]
    fn snapshot_of_fresh_machine_checks_clean() {
        let m = Machine::new(HwConfig::small());
        let snap = m.metrics();
        snap.check().unwrap();
        assert_eq!(snap.total_cycles, 0);
        assert_eq!(snap.enclaves.len(), 1, "only the untrusted bucket");
        assert_eq!(snap.enclaves[0].eid, None);
    }

    #[test]
    fn untrusted_work_is_attributed_and_consistent() {
        let mut m = Machine::new(HwConfig::small());
        let va = m.os_alloc_untrusted(ProcessId(0), 2);
        m.write(0, va, b"some data crossing a line").unwrap();
        m.read(0, va, 25).unwrap();
        m.charge(1, 777);

        let snap = m.metrics();
        snap.check().unwrap();
        assert!(snap.total_cycles > 777);
        let untrusted = snap.enclave(None).unwrap();
        assert_eq!(untrusted.breakdown.total(), snap.total_cycles);
        assert_eq!(snap.cores[1].breakdown.get(CycleCategory::AppCompute), 777);
        assert!(snap.cores[0].breakdown.get(CycleCategory::TlbWalk) > 0);
        assert!(snap.cores[0].breakdown.get(CycleCategory::Memory) > 0);
    }

    #[test]
    fn check_catches_mismatched_totals() {
        let m = Machine::new(HwConfig::small());
        let mut snap = m.metrics();
        snap.total_cycles = 1;
        assert!(snap.check().is_err());
    }

    #[test]
    fn check_catches_unpaired_transitions_at_rest() {
        let m = Machine::new(HwConfig::small());
        let mut snap = m.metrics();
        snap.stats.ecalls = 3;
        snap.stats.ocalls = 2;
        let err = snap.check().unwrap_err();
        assert!(err.contains("entries"), "unexpected error: {err}");
        // The same imbalance is fine while a core is still inside.
        snap.cores_in_enclave_mode = 1;
        snap.check().unwrap();
    }

    #[test]
    fn json_is_schema_stable() {
        let m = Machine::new(HwConfig::small());
        let json = m.metrics().to_json();
        assert!(json.starts_with("{\n  \"schema\": \"ne-metrics/v2\","));
        assert!(json.starts_with(&format!("{{\n  \"schema\": \"{METRICS_SCHEMA}\",")));
        for key in [
            "\"validator\"",
            "\"cost_profile\"",
            "\"clock_ghz\"",
            "\"total_cycles\"",
            "\"stats\"",
            "\"profile\"",
            "\"cores\"",
            "\"enclaves\"",
            "\"mee\"",
            "\"llc\"",
            "\"trace\"",
            "\"epc\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Identical machines export identical bytes.
        let again = Machine::new(HwConfig::small()).metrics().to_json();
        assert_eq!(json, again);
    }

    #[test]
    fn profile_appears_in_snapshot_and_checks() {
        let mut m = Machine::new(HwConfig::small());
        let va = m.os_alloc_untrusted(ProcessId(0), 2);
        m.write(0, va, b"touch two pages to take tlb misses")
            .unwrap();
        let snap = m.metrics();
        snap.check().unwrap();
        let misses = snap.profile.merged(ProfileEvent::TlbMiss).count();
        assert_eq!(misses, snap.stats.tlb_misses);
        assert!(misses > 0);
        let json = snap.to_json();
        assert!(json.contains("\"event\": \"tlb_miss\", \"level\": \"untrusted\""));
    }

    #[test]
    fn check_catches_histogram_count_drift() {
        let mut m = Machine::new(HwConfig::small());
        let va = m.os_alloc_untrusted(ProcessId(0), 1);
        m.read(0, va, 1).unwrap();
        let mut snap = m.metrics();
        snap.stats.tlb_misses += 1;
        let err = snap.check().unwrap_err();
        assert!(err.contains("tlb_miss"), "unexpected error: {err}");
    }

    /// A small snapshot with real work on it, for the merge tests.
    fn busy_snapshot(work: u64) -> MachineMetrics {
        let mut m = Machine::new(HwConfig::small());
        let va = m.os_alloc_untrusted(ProcessId(0), 2);
        m.write(0, va, b"cross a cache line boundary here").unwrap();
        m.read(0, va, 17).unwrap();
        m.charge(1, work);
        m.metrics()
    }

    #[test]
    fn rebase_into_shard_zero_is_a_no_op() {
        let snap = busy_snapshot(100);
        let mut rebased = snap.clone();
        rebased.rebase_shard(0);
        assert_eq!(snap, rebased);
        assert_eq!(snap.to_json(), rebased.to_json());
    }

    #[test]
    fn rebase_namespaces_cores_and_eids() {
        let mut snap = busy_snapshot(100);
        snap.enclaves.push(EnclaveMetrics {
            eid: Some(3),
            outer_eids: vec![1],
            breakdown: CycleBreakdown::default(),
        });
        snap.rebase_shard(2);
        assert_eq!(snap.cores[0].core, 2 << SHARD_CORE_BITS);
        assert_eq!(snap.enclaves[0].eid, None, "untrusted bucket is shared");
        let e = snap.enclaves.last().unwrap();
        assert_eq!(e.eid, Some(3 + (2u64 << SHARD_EID_BITS)));
        assert_eq!(e.outer_eids, vec![1 + (2u64 << SHARD_EID_BITS)]);
    }

    #[test]
    fn merge_shards_sums_components_and_checks_clean() {
        let a = busy_snapshot(100);
        let b = busy_snapshot(999);
        let merged = MachineMetrics::merge_shards(&[a.clone(), b.clone()]).unwrap();
        merged.check().unwrap();
        assert_eq!(merged.total_cycles, a.total_cycles + b.total_cycles);
        assert_eq!(
            merged.stats.tlb_misses,
            a.stats.tlb_misses + b.stats.tlb_misses
        );
        assert_eq!(merged.cores.len(), a.cores.len() + b.cores.len());
        // One shared untrusted bucket, not two.
        assert_eq!(merged.enclaves.len(), 1);
        assert_eq!(merged.enclaves[0].eid, None);
        assert_eq!(
            merged.enclaves[0].breakdown.total(),
            a.total_cycles + b.total_cycles
        );
        // Core rows stay sorted after the fold.
        assert!(merged.cores.windows(2).all(|w| w[0].core < w[1].core));
    }

    #[test]
    fn merge_of_one_shard_is_identity() {
        let snap = busy_snapshot(123);
        let merged = MachineMetrics::merge_shards(std::slice::from_ref(&snap)).unwrap();
        assert_eq!(snap, merged);
        assert_eq!(snap.to_json(), merged.to_json());
    }

    #[test]
    fn merge_rejects_mismatched_machines() {
        assert!(MachineMetrics::merge_shards(&[]).is_err());
        let a = busy_snapshot(10);
        let mut b = busy_snapshot(10);
        b.validator = "nested".to_string();
        let err = MachineMetrics::merge_shards(&[a.clone(), b]).unwrap_err();
        assert!(err.contains("validator"), "unexpected error: {err}");
        let mut c = busy_snapshot(10);
        c.clock_ghz += 1.0;
        let err = MachineMetrics::merge_shards(&[a, c]).unwrap_err();
        assert!(err.contains("clock"), "unexpected error: {err}");
    }

    #[test]
    fn check_catches_unclosed_boundary_accounting() {
        let m = Machine::new(HwConfig::small());
        let mut snap = m.metrics();
        snap.stats.span_closes = 3; // no boundary histogram samples exist
        let err = snap.check().unwrap_err();
        assert!(err.contains("boundary"), "unexpected error: {err}");
    }
}
