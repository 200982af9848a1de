//! Per-core TLB model.
//!
//! The TLB is where SGX's access control lives: validation happens once at
//! fill time, so the key invariant (§ II-B) is that *the TLB only ever
//! contains valid translations*. The machine flushes it on every
//! enclave/non-enclave transition and on eviction shootdowns.

use crate::addr::{Ppn, Vpn};
use crate::epcm::PagePerms;
use std::collections::{HashMap, VecDeque};

/// A validated translation resident in the TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Physical page.
    pub ppn: Ppn,
    /// Effective permissions (OS PTE ∩ EPCM ∩ validator restrictions —
    /// e.g. enclave-mode accesses to untrusted pages lose execute).
    pub perms: PagePerms,
}

/// Number of L0 micro-TLB slots in front of the main array.
const L0_WAYS: usize = 4;

/// A fully-associative TLB with FIFO replacement, fronted by a tiny L0
/// micro-TLB.
///
/// The L0 is a pure lookup accelerator for [`Tlb::lookup_hot`]: it holds
/// copies of entries that are *also* resident in the main array (strict
/// subset invariant), so an L0 hit and a main-array hit are
/// indistinguishable architecturally — miss counts, fills, and evictions
/// are identical whether callers use `lookup` or `lookup_hot`.
#[derive(Debug)]
pub struct Tlb {
    entries: HashMap<u64, TlbEntry>,
    order: VecDeque<u64>,
    capacity: usize,
    flushes: u64,
    /// L0 micro-TLB: (vpn, entry) copies, round-robin replacement.
    l0: [Option<(u64, TlbEntry)>; L0_WAYS],
    l0_next: usize,
}

impl Tlb {
    /// Creates a TLB holding up to `capacity` entries.
    pub fn new(capacity: usize) -> Tlb {
        Tlb {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            flushes: 0,
            l0: [None; L0_WAYS],
            l0_next: 0,
        }
    }

    /// Looks up `vpn`.
    pub fn lookup(&self, vpn: Vpn) -> Option<TlbEntry> {
        self.entries.get(&vpn.0).copied()
    }

    /// Looks up `vpn` through the L0 micro-TLB, filling an L0 slot on a
    /// main-array hit. Architecturally equivalent to [`Tlb::lookup`]
    /// (same hit/miss outcome for every sequence of operations); only the
    /// wall-clock cost differs.
    pub fn lookup_hot(&mut self, vpn: Vpn) -> Option<TlbEntry> {
        for (v, e) in self.l0.iter().flatten() {
            if *v == vpn.0 {
                return Some(*e);
            }
        }
        let entry = self.entries.get(&vpn.0).copied()?;
        self.l0[self.l0_next] = Some((vpn.0, entry));
        self.l0_next = (self.l0_next + 1) % L0_WAYS;
        Some(entry)
    }

    /// Inserts a validated entry, evicting the oldest if full.
    pub fn insert(&mut self, vpn: Vpn, entry: TlbEntry) {
        if self.entries.insert(vpn.0, entry).is_none() {
            self.order.push_back(vpn.0);
            if self.order.len() > self.capacity {
                let victim = self.order.pop_front().expect("order non-empty");
                self.entries.remove(&victim);
                self.l0_remove(victim);
            }
        } else {
            // Same-vpn update: refresh the L0 copy so it never serves a
            // stale translation.
            for slot in self.l0.iter_mut().flatten() {
                if slot.0 == vpn.0 {
                    slot.1 = entry;
                }
            }
        }
    }

    /// Drops every entry. Counted, since flush frequency is the overhead
    /// source the paper's Fig. 7 measures.
    pub fn flush(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.l0 = [None; L0_WAYS];
        self.flushes += 1;
    }

    /// Drops a single translation (used by precise shootdowns).
    pub fn invalidate(&mut self, vpn: Vpn) {
        if self.entries.remove(&vpn.0).is_some() {
            self.order.retain(|&v| v != vpn.0);
            self.l0_remove(vpn.0);
        }
    }

    fn l0_remove(&mut self, vpn: u64) {
        for slot in &mut self.l0 {
            if matches!(slot, Some((v, _)) if *v == vpn) {
                *slot = None;
            }
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the TLB holds no translations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// How many times this TLB has been flushed.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Iterates over resident `(vpn, entry)` pairs, for invariant audits.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, &TlbEntry)> {
        self.entries.iter().map(|(&v, e)| (Vpn(v), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(ppn: u64) -> TlbEntry {
        TlbEntry {
            ppn: Ppn(ppn),
            perms: PagePerms::RW,
        }
    }

    #[test]
    fn insert_lookup() {
        let mut t = Tlb::new(4);
        t.insert(Vpn(1), e(10));
        assert_eq!(t.lookup(Vpn(1)).unwrap().ppn, Ppn(10));
        assert!(t.lookup(Vpn(2)).is_none());
    }

    #[test]
    fn capacity_evicts_fifo() {
        let mut t = Tlb::new(2);
        t.insert(Vpn(1), e(10));
        t.insert(Vpn(2), e(20));
        t.insert(Vpn(3), e(30));
        assert!(t.lookup(Vpn(1)).is_none(), "oldest evicted");
        assert!(t.lookup(Vpn(2)).is_some());
        assert!(t.lookup(Vpn(3)).is_some());
    }

    #[test]
    fn flush_clears_and_counts() {
        let mut t = Tlb::new(4);
        t.insert(Vpn(1), e(10));
        t.flush();
        assert!(t.is_empty());
        assert_eq!(t.flush_count(), 1);
    }

    #[test]
    fn invalidate_single() {
        let mut t = Tlb::new(4);
        t.insert(Vpn(1), e(10));
        t.insert(Vpn(2), e(20));
        t.invalidate(Vpn(1));
        assert!(t.lookup(Vpn(1)).is_none());
        assert!(t.lookup(Vpn(2)).is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn reinsert_same_vpn_updates() {
        let mut t = Tlb::new(2);
        t.insert(Vpn(1), e(10));
        t.insert(Vpn(1), e(11));
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(Vpn(1)).unwrap().ppn, Ppn(11));
    }

    #[test]
    fn l0_hit_after_fill() {
        let mut t = Tlb::new(4);
        t.insert(Vpn(1), e(10));
        // First hot lookup fills an L0 slot; the second is served by it.
        assert_eq!(t.lookup_hot(Vpn(1)).unwrap().ppn, Ppn(10));
        assert_eq!(t.lookup_hot(Vpn(1)).unwrap().ppn, Ppn(10));
        assert!(t.lookup_hot(Vpn(2)).is_none());
    }

    #[test]
    fn l0_invalidated_with_main_array() {
        let mut t = Tlb::new(4);
        t.insert(Vpn(1), e(10));
        t.lookup_hot(Vpn(1));
        t.invalidate(Vpn(1));
        assert!(t.lookup_hot(Vpn(1)).is_none(), "stale L0 copy survived");
        t.insert(Vpn(1), e(10));
        t.lookup_hot(Vpn(1));
        t.flush();
        assert!(t.lookup_hot(Vpn(1)).is_none(), "L0 survived a flush");
    }

    #[test]
    fn l0_tracks_fifo_eviction_and_updates() {
        let mut t = Tlb::new(2);
        t.insert(Vpn(1), e(10));
        t.lookup_hot(Vpn(1));
        t.insert(Vpn(2), e(20));
        t.insert(Vpn(3), e(30)); // evicts vpn 1 (FIFO)
        assert!(t.lookup_hot(Vpn(1)).is_none(), "L0 outlived eviction");
        t.insert(Vpn(2), e(21));
        t.lookup_hot(Vpn(2));
        t.insert(Vpn(2), e(22)); // same-vpn update must refresh the copy
        assert_eq!(t.lookup_hot(Vpn(2)).unwrap().ppn, Ppn(22));
    }
}
