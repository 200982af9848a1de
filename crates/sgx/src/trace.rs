//! Event counters and the bounded event trace.
//!
//! Two layers, per the observability design in `ARCHITECTURE.md`:
//!
//! - [`Stats`]: cheap always-on counters, maintained unconditionally.
//!   Fig. 7 plots ecall/ocall counts directly from these, and the
//!   [`crate::metrics`] consistency checker asserts identities over them.
//! - [`Trace`]: an opt-in **ring buffer** of architectural [`Event`]s.
//!   When full it drops the *oldest* events (keeping the most recent
//!   window) and counts what it dropped, so a long run can always be
//!   inspected near its end without unbounded memory use.
//!
//! Both are fed by one call, [`crate::machine::Machine::note`], so they
//! cannot disagree about how many events of a kind the ring keeps.
//!
//! Span events ([`Event::SpanBegin`]/[`Event::SpanEnd`]) are emitted by the
//! SDK runtime around ecall/ocall dispatch; `parent` links let a consumer
//! reconstruct the ecall→ocall call tree from the trace alone.

use crate::addr::VirtAddr;
use crate::enclave::EnclaveId;
use crate::error::FaultKind;
use crate::profile::HierLevel;
use std::collections::VecDeque;

/// Cheap always-on counters. Fig. 7 plots ecall/ocall counts directly from
/// these; the higher-level runtime also reads them to report transitions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// EENTER transitions (untrusted → enclave).
    pub ecalls: u64,
    /// EEXIT transitions (enclave → untrusted).
    pub ocalls: u64,
    /// NEENTER transitions (outer → inner).
    pub n_ecalls: u64,
    /// NEEXIT transitions (inner → outer).
    pub n_ocalls: u64,
    /// Asynchronous enclave exits.
    pub aexes: u64,
    /// ERESUME re-entries after an AEX.
    pub eresumes: u64,
    /// Ocalls served without an enclave transition (switchless queue).
    pub switchless_ocalls: u64,
    /// TLB misses taken.
    pub tlb_misses: u64,
    /// Validation faults raised.
    pub faults: u64,
    /// Pages evicted with EWB.
    pub ewb_pages: u64,
    /// Pages reloaded with ELDU.
    pub eldu_pages: u64,
    /// Inter-processor interrupts for eviction shootdowns.
    pub ipis: u64,
    /// Runtime call spans opened ([`crate::machine::Machine::span_begin`]).
    pub span_opens: u64,
    /// Runtime call spans closed — explicitly, or implicitly when an
    /// enclosing span closed over them. The combined count of the
    /// boundary latency histograms equals this by construction.
    pub span_closes: u64,
}

impl Stats {
    /// Total boundary crossings of any kind (ERESUME included; switchless
    /// ocalls excluded — avoiding the crossing is their whole point).
    pub fn total_transitions(&self) -> u64 {
        self.ecalls + self.ocalls + self.n_ecalls + self.n_ocalls + self.aexes + self.eresumes
    }

    /// Every counter with its export name, in export order — the one
    /// list that merges, window deltas and every export iterate, so none
    /// of them can miss a counter.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 14] {
        [
            ("ecalls", &mut self.ecalls),
            ("ocalls", &mut self.ocalls),
            ("n_ecalls", &mut self.n_ecalls),
            ("n_ocalls", &mut self.n_ocalls),
            ("aexes", &mut self.aexes),
            ("eresumes", &mut self.eresumes),
            ("switchless_ocalls", &mut self.switchless_ocalls),
            ("tlb_misses", &mut self.tlb_misses),
            ("faults", &mut self.faults),
            ("ewb_pages", &mut self.ewb_pages),
            ("eldu_pages", &mut self.eldu_pages),
            ("ipis", &mut self.ipis),
            ("span_opens", &mut self.span_opens),
            ("span_closes", &mut self.span_closes),
        ]
    }

    /// [`Stats::fields_mut`] by value.
    pub fn fields(&self) -> [(&'static str, u64); 14] {
        let mut copy = *self;
        copy.fields_mut().map(|(name, v)| (name, *v))
    }

    /// Accumulates another counter set into this one (field-wise sums;
    /// associative and commutative). Used when folding per-shard machine
    /// snapshots into one merged report — every counter is a plain event
    /// count, so addition preserves all the identities
    /// [`crate::metrics::MachineMetrics::check`] verifies.
    pub fn merge(&mut self, other: &Stats) {
        for ((_, a), (_, b)) in self.fields_mut().into_iter().zip(other.fields()) {
            *a += b;
        }
    }
}

/// What kind of call boundary a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Untrusted → enclave call (EENTER/EEXIT pair).
    Ecall,
    /// Enclave → untrusted call (EEXIT/EENTER pair).
    Ocall,
    /// Outer → inner enclave call (NEENTER/NEEXIT pair).
    NEcall,
    /// Inner → outer enclave call (NEEXIT/NEENTER pair).
    NOcall,
    /// Ocall served through the switchless queue (no transition).
    SwitchlessOcall,
}

impl SpanKind {
    /// Stable lowercase name (used in exported JSON).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Ecall => "ecall",
            SpanKind::Ocall => "ocall",
            SpanKind::NEcall => "n_ecall",
            SpanKind::NOcall => "n_ocall",
            SpanKind::SwitchlessOcall => "switchless_ocall",
        }
    }
}

/// Architectural events, each reported once through
/// [`crate::machine::Machine::note`]; the ring (when enabled) keeps all
/// but the TLB-miss, IPI, switchless, MEE and request events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// EENTER into an enclave on a core.
    Eenter {
        /// Executing core.
        core: usize,
        /// Entered enclave.
        eid: EnclaveId,
    },
    /// EEXIT from an enclave on a core.
    Eexit {
        /// Executing core.
        core: usize,
        /// Exited enclave.
        eid: EnclaveId,
    },
    /// NEENTER into an inner enclave.
    Neenter {
        /// Executing core.
        core: usize,
        /// Outer enclave the transition left.
        from: EnclaveId,
        /// Inner enclave entered.
        to: EnclaveId,
    },
    /// NEEXIT back to the outer enclave.
    Neexit {
        /// Executing core.
        core: usize,
        /// Inner enclave the transition left.
        from: EnclaveId,
        /// Outer enclave entered.
        to: EnclaveId,
    },
    /// Asynchronous exit.
    Aex {
        /// Executing core.
        core: usize,
        /// Interrupted enclave.
        eid: EnclaveId,
    },
    /// ERESUME after an AEX.
    Eresume {
        /// Executing core.
        core: usize,
        /// Resumed enclave.
        eid: EnclaveId,
    },
    /// TLB flush on a core.
    TlbFlush {
        /// Flushed core.
        core: usize,
    },
    /// A TLB miss walked the page table (and validated the result).
    TlbMiss {
        /// Executing core.
        core: usize,
        /// Walk plus validation cycles.
        cycles: u64,
    },
    /// A memory access faulted.
    Fault {
        /// Executing core.
        core: usize,
        /// Faulting virtual address.
        addr: VirtAddr,
        /// Fault classification.
        kind: FaultKind,
    },
    /// An EPC page was evicted.
    Ewb {
        /// Owner enclave.
        eid: EnclaveId,
        /// Evicted virtual address.
        addr: VirtAddr,
    },
    /// An EPC page was reloaded.
    Eldu {
        /// Owner enclave.
        eid: EnclaveId,
        /// Reloaded virtual address.
        addr: VirtAddr,
    },
    /// An eviction shootdown interrupted a core.
    Ipi {
        /// Interrupted core.
        core: usize,
        /// Enclave whose page is being evicted.
        eid: EnclaveId,
    },
    /// An ocall was served through the switchless queue.
    SwitchlessOcall,
    /// One data access paid MEE line encryption/decryption.
    MeeCrypto {
        /// Executing core.
        core: usize,
        /// Crypto cycles of the access.
        cycles: u64,
    },
    /// A serving layer completed a request.
    Request {
        /// Arrival-to-completion latency in cycles.
        cycles: u64,
    },
    /// A runtime-level call span opened (ecall/ocall dispatch).
    SpanBegin {
        /// Executing core.
        core: usize,
        /// Machine-unique span id.
        id: u64,
        /// Enclosing span on the same core, if any.
        parent: Option<u64>,
        /// Boundary kind.
        kind: SpanKind,
        /// Hierarchy level of the calling context when the span opened.
        level: HierLevel,
        /// Registered function name (or a fixed label for queue ops).
        label: String,
        /// Core cycle clock when the span opened.
        cycles: u64,
    },
    /// A runtime-level call span closed.
    SpanEnd {
        /// Executing core.
        core: usize,
        /// Id from the matching [`Event::SpanBegin`].
        id: u64,
        /// Core cycle clock when the span closed.
        cycles: u64,
    },
}

/// Bounded ring-buffer event recorder.
///
/// `recorded` counts every event offered while enabled; once `len()`
/// reaches the capacity, each new event evicts the oldest and increments
/// `dropped`. Counters survive [`Trace::clear`]-less overflow intact, so
/// `recorded == dropped + len()` always holds.
#[derive(Debug, Default)]
pub struct Trace {
    events: VecDeque<Event>,
    capacity: usize,
    enabled: bool,
    recorded: u64,
    dropped: u64,
}

impl Trace {
    /// Creates a trace holding at most `capacity` events; recording only
    /// happens once enabled.
    pub fn new(enabled: bool, capacity: usize) -> Trace {
        Trace {
            events: VecDeque::new(),
            capacity,
            enabled,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Records an event if enabled, evicting the oldest event when full.
    pub fn record(&mut self, event: Event) {
        if !self.enabled || self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
        self.recorded += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events recorded while enabled (retained + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drops retained events and resets the overflow counters.
    pub fn clear(&mut self) {
        self.events.clear();
        self.recorded = 0;
        self.dropped = 0;
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false, 16);
        t.record(Event::TlbFlush { core: 0 });
        assert_eq!(t.len(), 0);
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn enabled_trace_records() {
        let mut t = Trace::new(true, 16);
        t.record(Event::TlbFlush { core: 1 });
        assert_eq!(
            t.events().collect::<Vec<_>>(),
            vec![&Event::TlbFlush { core: 1 }]
        );
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.recorded(), 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = Trace::new(true, 3);
        for core in 0..5 {
            t.record(Event::TlbFlush { core });
        }
        // Oldest two (cores 0, 1) evicted; the window holds the newest three.
        let kept: Vec<usize> = t
            .events()
            .map(|e| match e {
                Event::TlbFlush { core } => *core,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.recorded(), t.dropped() + t.len() as u64);
    }

    #[test]
    fn zero_capacity_is_inert() {
        let mut t = Trace::new(true, 0);
        t.record(Event::TlbFlush { core: 0 });
        assert_eq!(t.len(), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn stats_total() {
        let s = Stats {
            ecalls: 1,
            ocalls: 2,
            n_ecalls: 3,
            n_ocalls: 4,
            aexes: 5,
            ..Stats::default()
        };
        assert_eq!(s.total_transitions(), 15);
        let with_resume = Stats { eresumes: 2, ..s };
        assert_eq!(with_resume.total_transitions(), 17);
    }
}
