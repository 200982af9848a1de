//! Last-level cache model.
//!
//! Fig. 11 of the paper hinges on one micro-architectural fact: data that
//! stays inside the LLC never touches the MEE, because memory encryption
//! happens at the DRAM boundary. "If the size is small, the data transfers
//! can be done via the large on-chip last-level cache. In such cases, the
//! encryption by MEE is not invoked as the data exist in plaintext within
//! the CPU boundary." (§ IV-A). This set-associative model provides exactly
//! that behaviour.

use crate::addr::LINE_SIZE;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// Line was resident.
    Hit,
    /// Line missed; if a dirty victim was evicted, its line address is
    /// carried so the machine can charge MEE write-back cost for PRM lines.
    Miss {
        /// Dirty line pushed out to DRAM, if any.
        dirty_victim: Option<u64>,
    },
}

#[derive(Debug, Clone, Copy)]
struct Way {
    line: u64,
    dirty: bool,
    /// Last-touch generation stamp. Stamps increase monotonically with
    /// every access, so the way holding the set's minimum stamp is exactly
    /// the one a move-to-back recency list would keep at its front: the
    /// O(1)-update stamp scheme picks the same LRU victim the old
    /// `Vec::remove(0)` implementation did, without shifting ways on
    /// every hit.
    stamp: u64,
}

/// Set-associative LLC with LRU replacement, tracking line residency only
/// (contents live in [`crate::mem::Dram`]).
#[derive(Debug)]
pub struct Llc {
    sets: Vec<Vec<Way>>,
    ways: usize,
    hits: u64,
    misses: u64,
    /// Generation counter feeding [`Way::stamp`].
    tick: u64,
}

impl Llc {
    /// Creates a cache of `capacity_bytes` with `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn new(capacity_bytes: usize, ways: usize) -> Llc {
        let lines = capacity_bytes / LINE_SIZE;
        assert!(ways > 0 && lines.is_multiple_of(ways), "bad cache geometry");
        let num_sets = lines / ways;
        Llc {
            sets: vec![Vec::with_capacity(ways); num_sets],
            ways,
            hits: 0,
            misses: 0,
            tick: 0,
        }
    }

    /// Accesses physical cache line `line` (address / 64), marking it dirty
    /// if `write`.
    pub fn access(&mut self, line: u64, write: bool) -> CacheAccess {
        let set_idx = (line as usize) % self.sets.len();
        let stamp = self.tick;
        self.tick += 1;
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter_mut().find(|w| w.line == line) {
            way.dirty |= write;
            way.stamp = stamp;
            self.hits += 1;
            return CacheAccess::Hit;
        }
        self.misses += 1;
        let dirty_victim = if set.len() == self.ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.stamp)
                .map(|(i, _)| i)
                .expect("full set has ways");
            let victim = set.swap_remove(lru);
            victim.dirty.then_some(victim.line)
        } else {
            None
        };
        set.push(Way {
            line,
            dirty: write,
            stamp,
        });
        CacheAccess::Miss { dirty_victim }
    }

    /// Accesses every line in `[first, last]`, returning `(hits, misses)`
    /// and appending dirty victims to `dirty_victims`. Equivalent to
    /// calling [`Llc::access`] per line; exists so the machine's range
    /// charging can fold per-line cost math into two multiplications.
    pub fn access_range(
        &mut self,
        first: u64,
        last: u64,
        write: bool,
        dirty_victims: &mut Vec<u64>,
    ) -> (u64, u64) {
        let mut hits = 0u64;
        let mut misses = 0u64;
        for line in first..=last {
            match self.access(line, write) {
                CacheAccess::Hit => hits += 1,
                CacheAccess::Miss { dirty_victim } => {
                    misses += 1;
                    if let Some(v) = dirty_victim {
                        dirty_victims.push(v);
                    }
                }
            }
        }
        (hits, misses)
    }

    /// Drops every line (e.g. simulating a wbinvd); dirty victims are not
    /// reported — use only where write-back cost is irrelevant.
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets.len() * self.ways * LINE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = Llc::new(1024, 2); // 16 lines, 8 sets
        assert!(matches!(c.access(5, false), CacheAccess::Miss { .. }));
        assert_eq!(c.access(5, false), CacheAccess::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = Llc::new(128, 2); // 2 lines, 1 set, 2 ways
        c.access(0, true); // dirty
        c.access(1, false);
        // Third distinct line evicts line 0 (LRU), which is dirty.
        match c.access(2, false) {
            CacheAccess::Miss { dirty_victim } => assert_eq!(dirty_victim, Some(0)),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn clean_victim_not_reported() {
        let mut c = Llc::new(128, 2);
        c.access(0, false);
        c.access(1, false);
        match c.access(2, false) {
            CacheAccess::Miss { dirty_victim } => assert_eq!(dirty_victim, None),
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn lru_promotion_on_hit() {
        let mut c = Llc::new(128, 2);
        c.access(0, false);
        c.access(1, false);
        c.access(0, false); // promote 0; 1 becomes LRU
        c.access(2, false); // evicts 1
        assert_eq!(c.access(0, false), CacheAccess::Hit);
        assert!(matches!(c.access(1, false), CacheAccess::Miss { .. }));
    }

    #[test]
    fn working_set_within_capacity_all_hits() {
        let mut c = Llc::new(64 * 1024, 16);
        let lines = (64 * 1024 / LINE_SIZE) as u64;
        for l in 0..lines {
            c.access(l, true);
        }
        let misses_before = c.misses();
        for l in 0..lines {
            assert_eq!(c.access(l, false), CacheAccess::Hit, "line {l}");
        }
        assert_eq!(c.misses(), misses_before);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = Llc::new(4 * 1024, 4);
        let lines = 4 * (4 * 1024 / LINE_SIZE) as u64; // 4× capacity
        for l in 0..lines {
            c.access(l, false);
        }
        for l in 0..lines {
            assert!(
                matches!(c.access(l, false), CacheAccess::Miss { .. }),
                "line {l} should have been evicted"
            );
        }
    }
}
