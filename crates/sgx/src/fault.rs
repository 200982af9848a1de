//! Deterministic fault injection ("chaos") for the simulated machine.
//!
//! A [`FaultPlan`] is installed on a [`Machine`](crate::machine::Machine)
//! and consulted at the EENTER boundary — the natural clock of a serving
//! workload, and the point where real SGX failures surface (a crashed
//! enclave faults the *next* entry attempt). Every decision the plan makes
//! comes from a seeded [SplitMix64] generator and a per-kind trigger
//! period, so a run with the same seed and spec replays the exact same
//! fault sequence, byte for byte. No wall clock, no OS entropy.
//!
//! Five fault kinds are modeled (§ taxonomy in ARCHITECTURE.md):
//!
//! * **aex** — an interrupt storm: 1–3 immediate AEX/ERESUME round trips
//!   on the entering core, exercising context save/restore and the
//!   TLB-flush accounting on every trip;
//! * **evict** — forced EPC pressure: the lowest-VA regular pages of the
//!   entered enclave *and of each of its inner enclaves* are EWBed out
//!   (sealed blobs parked on the machine), so the next code fetch faults
//!   with `EnclavePageSwappedOut` and the host must reload;
//! * **mac** — a physical integrity attack: a cache line of the enclave's
//!   entry page is tampered on the DRAM bus, so the MEE rejects the next
//!   fetch with `IntegrityViolation`;
//! * **crash** — the enclave (or one of its inner enclaves, chosen by the
//!   PRNG) aborts: it is poisoned and every subsequent EENTER/NEENTER
//!   fails with [`crate::error::SgxError::EnclavePoisoned`] until EREMOVE;
//! * **stall** — the switchless reply core stops polling for a few
//!   requests: switchless ocalls fail with
//!   [`crate::error::SgxError::Stalled`] and the host degrades to classic
//!   exit-based ocalls.
//!
//! The injected faults are applied with the *real* instruction
//! implementations (`aex`/`eresume`/`ewb`/`physical_tamper`), so every
//! cycle-attribution and profile identity in
//! [`MachineMetrics::check`](crate::metrics::MachineMetrics::check)
//! continues to hold under chaos.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use std::fmt;

/// Salt XORed into a serving run's base seed to seed its chaos plan, so
/// the fault stream is independent of the request streams drawn from
/// the same base seed. Every harness (`ne-load`, `ne-serve`, the
/// cluster drivers) seeds chaos this way, which is what keeps a chaos
/// run byte-identical across them.
pub const CHAOS_SALT: u64 = 0xC4A0_5EED;

/// Default trigger period (in targeted EENTERs) per fault kind. Chosen
/// mutually coprime so combined specs interleave rather than align.
const DEFAULT_PERIODS: [(ChaosKind, u64); 6] = [
    (ChaosKind::Aex, 4),
    (ChaosKind::Evict, 7),
    (ChaosKind::Stall, 5),
    (ChaosKind::Mac, 19),
    (ChaosKind::Crash, 23),
    (ChaosKind::Migrate, 29),
];

/// The injectable fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// AEX storm on the entering core.
    Aex,
    /// Forced EWB of hot pages (outer and inner).
    Evict,
    /// MEE MAC/version-tree integrity failure.
    Mac,
    /// Enclave abort: poison the enclave (or an inner enclave).
    Crash,
    /// Switchless reply-queue stall window.
    Stall,
    /// Migration pressure: ask the host to live-migrate the entered
    /// enclave's tenant. Unlike the other kinds this injects no
    /// architectural fault — it parks a request the driving layer picks
    /// up at its next safe point, so the five-phase migration machine
    /// itself runs *under* whatever other chaos the spec combines it
    /// with.
    Migrate,
}

impl ChaosKind {
    /// Stable lowercase name (spec syntax and export key).
    pub fn name(self) -> &'static str {
        match self {
            ChaosKind::Aex => "aex",
            ChaosKind::Evict => "evict",
            ChaosKind::Mac => "mac",
            ChaosKind::Crash => "crash",
            ChaosKind::Stall => "stall",
            ChaosKind::Migrate => "migrate",
        }
    }

    fn parse(s: &str) -> Option<ChaosKind> {
        match s {
            "aex" => Some(ChaosKind::Aex),
            "evict" => Some(ChaosKind::Evict),
            "mac" => Some(ChaosKind::Mac),
            "crash" => Some(ChaosKind::Crash),
            "stall" => Some(ChaosKind::Stall),
            "migrate" => Some(ChaosKind::Migrate),
            _ => None,
        }
    }

    fn default_period(self) -> u64 {
        DEFAULT_PERIODS
            .iter()
            .find(|(k, _)| *k == self)
            .map(|&(_, p)| p)
            .unwrap_or(7)
    }
}

impl fmt::Display for ChaosKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One parsed `kind[:period]` term of a chaos spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTerm {
    /// What to inject.
    pub kind: ChaosKind,
    /// Fire every `period`-th targeted EENTER.
    pub period: u64,
}

/// A concrete fault the machine must apply at the current EENTER.
///
/// The plan makes every random choice up front (as raw PRNG draws) so the
/// machine-side application is pure bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Run `rounds` AEX + ERESUME round trips on the entering core.
    AexStorm {
        /// Number of interrupt round trips (1–3).
        rounds: u32,
    },
    /// EWB the `pages` lowest-VA REG pages of the entered enclave and of
    /// each of its inner enclaves.
    Evict {
        /// Pages to evict per enclave (1–3).
        pages: u32,
    },
    /// Tamper a cache line of the enclave's entry page.
    Mac,
    /// Poison the entered enclave or one of its inner enclaves;
    /// `pick` indexes (mod the candidate count) into `[self] ++ inners`.
    Crash {
        /// Raw PRNG draw selecting the victim.
        pick: u64,
    },
    /// `window` switchless ocalls will report the reply core stalled.
    Stall {
        /// Number of consecutive switchless ocalls to fail (1–3).
        window: u32,
    },
    /// Park a migration request for the entered enclave (no fault).
    Migrate,
}

/// One applied chaos injection, as recorded by the machine at the moment
/// the fault was put into effect. The log (see
/// [`Machine::chaos_events`](crate::machine::Machine::chaos_events)) is
/// what lets an observability layer join *injections* with the *recovery
/// actions* they later trigger: the cycle stamps come from the simulated
/// clock, so the log is byte-deterministic like everything else here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosInjection {
    /// Cycle count of the entering core when the fault was applied.
    pub cycle: u64,
    /// Raw id of the affected enclave — the crash *victim* for
    /// [`ChaosKind::Crash`] (which may be an inner enclave of the entered
    /// one), the entered enclave otherwise.
    pub eid: u64,
    /// What was injected.
    pub kind: ChaosKind,
}

/// Counters for the faults a plan has injected so far. Deterministic for
/// a given (seed, spec, workload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Targeted EENTERs observed (the trigger clock).
    pub eenters_seen: u64,
    /// AEX storms injected (individual AEXes are in `stats.aexes`).
    pub aex_storms: u64,
    /// Pages force-evicted (matches the chaos share of `ewb_pages`).
    pub forced_evictions: u64,
    /// Integrity (MAC) tamperings injected.
    pub tamperings: u64,
    /// Enclave crashes injected (poisonings).
    pub crashes: u64,
    /// Switchless ocalls failed by a stall window.
    pub stalls: u64,
    /// Migration requests parked for the host.
    pub migrations: u64,
}

/// SplitMix64: tiny, seedable, excellent diffusion; keeps `ne-sgx` free
/// of a RNG dependency.
#[derive(Debug, Clone)]
struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    fn new(seed: u64) -> ChaosRng {
        ChaosRng { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[1, n]` (n ≥ 1).
    fn one_to(&mut self, n: u64) -> u64 {
        1 + self.next() % n
    }
}

/// A seeded, deterministic fault-injection plan.
///
/// Build one with [`FaultPlan::parse`] (the `--chaos` grammar) or
/// [`FaultPlan::new`], optionally confine it with
/// [`target_eids`](FaultPlan::target_eids), and install it with
/// [`Machine::install_chaos`](crate::machine::Machine::install_chaos).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    terms: Vec<FaultTerm>,
    rng: ChaosRng,
    /// Raw enclave ids the plan is confined to; empty = every enclave.
    targets: Vec<u64>,
    /// Remaining switchless ocalls to fail.
    stall_window: u32,
    stats: ChaosStats,
}

impl FaultPlan {
    /// Creates a plan from explicit terms and a seed.
    pub fn new(terms: Vec<FaultTerm>, seed: u64) -> FaultPlan {
        FaultPlan {
            terms,
            rng: ChaosRng::new(seed),
            targets: Vec::new(),
            stall_window: 0,
            stats: ChaosStats::default(),
        }
    }

    /// Parses the `--chaos` spec grammar:
    ///
    /// ```text
    /// spec   := term ('+' term)*
    /// term   := kind [':' period]
    /// kind   := 'aex' | 'evict' | 'mac' | 'crash' | 'stall'
    /// period := positive integer (fire every Nth targeted EENTER)
    /// ```
    ///
    /// Example: `aex+evict` (default periods), `crash:25+stall:9`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed term.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut terms = Vec::new();
        for raw in spec.split('+') {
            let raw = raw.trim();
            if raw.is_empty() {
                return Err(format!("empty term in chaos spec '{spec}'"));
            }
            let (name, period) = match raw.split_once(':') {
                Some((n, p)) => {
                    let period: u64 = p
                        .parse()
                        .map_err(|_| format!("bad period '{p}' in chaos term '{raw}'"))?;
                    if period == 0 {
                        return Err(format!("zero period in chaos term '{raw}'"));
                    }
                    (n, Some(period))
                }
                None => (raw, None),
            };
            let kind = ChaosKind::parse(name).ok_or_else(|| {
                format!("unknown chaos kind '{name}' (want aex|evict|mac|crash|stall|migrate)")
            })?;
            terms.push(FaultTerm {
                kind,
                period: period.unwrap_or_else(|| kind.default_period()),
            });
        }
        Ok(FaultPlan::new(terms, seed))
    }

    /// Confines the plan to the given enclaves (raw ids). EENTERs into
    /// other enclaves still advance the trigger clock but never fire —
    /// this is what the cross-tenant isolation property tests use.
    pub fn target_eids(mut self, eids: Vec<u64>) -> FaultPlan {
        self.targets = eids;
        self
    }

    /// Replaces `old` with `new` in the target set (a respawned enclave
    /// gets a fresh id; the host re-aims the plan at it).
    pub fn retarget(&mut self, old: u64, new: u64) {
        for t in &mut self.targets {
            if *t == old {
                *t = new;
            }
        }
    }

    /// The terms this plan fires.
    pub fn terms(&self) -> &[FaultTerm] {
        &self.terms
    }

    /// Injection counters so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats
    }

    /// Called by the machine on every EENTER (after validation, before
    /// entry); returns the actions to apply for this entry. Advances the
    /// trigger clock and draws from the PRNG deterministically.
    pub(crate) fn on_eenter(&mut self, raw_eid: u64) -> Vec<ChaosAction> {
        self.stats.eenters_seen += 1;
        if !self.targets.is_empty() && !self.targets.contains(&raw_eid) {
            return Vec::new();
        }
        let tick = self.stats.eenters_seen;
        let mut actions = Vec::new();
        for term in &self.terms {
            if !tick.is_multiple_of(term.period) {
                continue;
            }
            match term.kind {
                ChaosKind::Aex => {
                    self.stats.aex_storms += 1;
                    actions.push(ChaosAction::AexStorm {
                        rounds: self.rng.one_to(3) as u32,
                    });
                }
                ChaosKind::Evict => {
                    // forced_evictions is counted per page at apply time.
                    actions.push(ChaosAction::Evict {
                        pages: self.rng.one_to(3) as u32,
                    });
                }
                ChaosKind::Mac => {
                    self.stats.tamperings += 1;
                    actions.push(ChaosAction::Mac);
                }
                ChaosKind::Crash => {
                    self.stats.crashes += 1;
                    actions.push(ChaosAction::Crash {
                        pick: self.rng.next(),
                    });
                }
                ChaosKind::Stall => {
                    actions.push(ChaosAction::Stall {
                        window: self.rng.one_to(3) as u32,
                    });
                }
                ChaosKind::Migrate => {
                    self.stats.migrations += 1;
                    actions.push(ChaosAction::Migrate);
                }
            }
        }
        actions
    }

    /// Opens a stall window of `window` switchless ocalls.
    pub(crate) fn open_stall(&mut self, window: u32) {
        self.stall_window = self.stall_window.max(window);
    }

    /// Consumes one tick of the stall window; true if the switchless
    /// ocall at hand should fail with [`crate::error::SgxError::Stalled`].
    pub(crate) fn take_stall(&mut self) -> bool {
        if self.stall_window > 0 {
            self.stall_window -= 1;
            self.stats.stalls += 1;
            true
        } else {
            false
        }
    }

    /// Bumps the forced-eviction counter (apply-side, one per page).
    pub(crate) fn count_forced_eviction(&mut self) {
        self.stats.forced_evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_defaults_and_explicit_periods() {
        let p = FaultPlan::parse("aex+evict", 1).unwrap();
        assert_eq!(
            p.terms(),
            &[
                FaultTerm {
                    kind: ChaosKind::Aex,
                    period: 4
                },
                FaultTerm {
                    kind: ChaosKind::Evict,
                    period: 7
                },
            ]
        );
        let p = FaultPlan::parse("crash:25+stall:9", 1).unwrap();
        assert_eq!(
            p.terms(),
            &[
                FaultTerm {
                    kind: ChaosKind::Crash,
                    period: 25
                },
                FaultTerm {
                    kind: ChaosKind::Stall,
                    period: 9
                },
            ]
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("", 1).is_err());
        assert!(FaultPlan::parse("aex++evict", 1).is_err());
        assert!(FaultPlan::parse("frob", 1).is_err());
        assert!(FaultPlan::parse("aex:0", 1).is_err());
        assert!(FaultPlan::parse("aex:x", 1).is_err());
    }

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultPlan::parse("aex:2+crash:3", 42).unwrap();
        let mut b = FaultPlan::parse("aex:2+crash:3", 42).unwrap();
        for eid in 0..64u64 {
            assert_eq!(a.on_eenter(eid % 5), b.on_eenter(eid % 5));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().aex_storms > 0);
        assert!(a.stats().crashes > 0);
    }

    #[test]
    fn targeting_confines_fires_but_advances_clock() {
        let mut p = FaultPlan::parse("aex:1", 7).unwrap().target_eids(vec![3]);
        assert!(p.on_eenter(1).is_empty());
        assert!(!p.on_eenter(3).is_empty());
        assert_eq!(p.stats().eenters_seen, 2);
        p.retarget(3, 9);
        assert!(p.on_eenter(3).is_empty());
        assert!(!p.on_eenter(9).is_empty());
    }

    #[test]
    fn stall_window_drains() {
        let mut p = FaultPlan::new(Vec::new(), 0);
        p.open_stall(2);
        assert!(p.take_stall());
        assert!(p.take_stall());
        assert!(!p.take_stall());
        assert_eq!(p.stats().stalls, 2);
    }
}
