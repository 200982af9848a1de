//! Latency profiling: log-bucketed histograms of span and event durations.
//!
//! [`crate::trace::Stats`] answers *how many* transitions happened and
//! [`crate::metrics::CycleBreakdown`] answers *where the cycles went in
//! total*; this module answers *how the latency was distributed*. A
//! [`Profile`] holds one [`Histogram`] per ([`ProfileEvent`],
//! [`HierLevel`]) pair and is maintained **always-on** by the machine —
//! recording a value is two array indexings and a handful of integer adds,
//! cheap enough to leave enabled even when event tracing is off.
//!
//! Only the machine records samples, so the identities checked by
//! [`crate::metrics::MachineMetrics::check`] hold by construction:
//!
//! - boundary spans (ecall/ocall/n_ecall/n_ocall/switchless) record their
//!   close-to-open cycle duration in `Machine::span_end`;
//! - every other event is sampled by the arm of `Machine::note` that
//!   also bumps its counter: TLB misses record walk + validation cycles,
//!   MEE line crypto per-access crypto cycles, AEX/ERESUME and EWB/ELDU
//!   their architectural costs.
//!
//! One event, [`ProfileEvent::Request`], is reported from *outside*
//! `ne-sgx` (by `ne-host`, as a [`crate::trace::Event::Request`]) and
//! deliberately has no counter identity.
//!
//! Histograms use 64 power-of-two buckets (bucket *i* holds values whose
//! `ilog2` is *i*), HDR-style: constant-size, mergeable by bucket-wise
//! addition, with percentile error bounded by the bucket width. Exact
//! `count`/`sum`/`min`/`max` ride along so summaries stay honest at the
//! tails.

use crate::trace::SpanKind;

/// Number of power-of-two buckets; covers the full `u64` range.
pub const BUCKETS: usize = 64;

/// A log2-bucketed latency histogram (cycles).
///
/// Mergeable ([`Histogram::merge`] is associative and commutative) and
/// constant-size. Percentiles are approximate — a reported quantile is the
/// inclusive upper bound of the bucket containing that rank, clamped to
/// the observed `[min, max]` — which guarantees
/// `min ≤ p50 ≤ p90 ≤ p99 ≤ max` for any recorded population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index of a value: `ilog2(value)`, with 0 sharing bucket 0.
fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        value.ilog2() as usize
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all bucket counts — equals [`Histogram::count`] by
    /// construction; the metrics checker asserts it anyway to catch
    /// hand-edited snapshots.
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile (`q` in `[0, 1]`), as the inclusive upper bound of
    /// the bucket holding that rank, clamped to `[min, max]`.
    ///
    /// Edge behavior (exact, not bucket-approximated):
    ///
    /// * an **empty** histogram returns 0 for every `q`;
    /// * `q <= 0.0` returns [`Histogram::min`] exactly (the bucket upper
    ///   bound could overshoot the smallest sample);
    /// * `q >= 1.0` returns [`Histogram::max`] exactly.
    ///
    /// Out-of-range `q` is clamped, so `percentile(-1.0) == min()` and
    /// `percentile(2.0) == max()`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Accumulates `other` into `self` (bucket-wise; associative).
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Fixed-quantile summary for exports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            buckets: BUCKETS,
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
        }
    }
}

/// The fixed quantiles exported for one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of log2 buckets the source histogram used ([`BUCKETS`]).
    /// Carried in the summary so downstream parsers and schema consumers
    /// need not hardcode the histogram geometry.
    pub buckets: usize,
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median (bucket upper bound).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// What a profiled latency sample measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileEvent {
    /// Full ecall round trip (EENTER…EEXIT span).
    Ecall,
    /// Full ocall round trip (EEXIT…EENTER span).
    Ocall,
    /// Full n_ecall round trip (NEENTER…NEEXIT span).
    NEcall,
    /// Full n_ocall round trip (NEEXIT…NEENTER span).
    NOcall,
    /// Switchless ocall served through the queue (no transition).
    SwitchlessOcall,
    /// Asynchronous exit cost.
    Aex,
    /// ERESUME re-entry cost.
    Eresume,
    /// TLB miss: page walk plus validation steps.
    TlbMiss,
    /// MEE line encryption/decryption incurred by one data access.
    MeeCrypto,
    /// One EWB or ELDU page operation.
    Paging,
    /// End-to-end request latency as observed by a serving layer (arrival
    /// to completion). Reported by hosting code outside `ne-sgx` as a
    /// [`crate::trace::Event::Request`]; like [`MeeCrypto`]
    /// (whose samples have no dedicated `Stats` counter either) it carries
    /// no counter identity in the metrics checker.
    ///
    /// [`MeeCrypto`]: ProfileEvent::MeeCrypto
    Request,
}

impl ProfileEvent {
    /// Every event, in export order.
    pub const ALL: [ProfileEvent; 11] = [
        ProfileEvent::Ecall,
        ProfileEvent::Ocall,
        ProfileEvent::NEcall,
        ProfileEvent::NOcall,
        ProfileEvent::SwitchlessOcall,
        ProfileEvent::Aex,
        ProfileEvent::Eresume,
        ProfileEvent::TlbMiss,
        ProfileEvent::MeeCrypto,
        ProfileEvent::Paging,
        ProfileEvent::Request,
    ];

    /// The call-boundary events — those recorded at span close. Their
    /// combined histogram count equals `Stats::span_closes`.
    pub const BOUNDARY: [ProfileEvent; 5] = [
        ProfileEvent::Ecall,
        ProfileEvent::Ocall,
        ProfileEvent::NEcall,
        ProfileEvent::NOcall,
        ProfileEvent::SwitchlessOcall,
    ];

    /// Stable snake_case name (used as JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            ProfileEvent::Ecall => "ecall",
            ProfileEvent::Ocall => "ocall",
            ProfileEvent::NEcall => "n_ecall",
            ProfileEvent::NOcall => "n_ocall",
            ProfileEvent::SwitchlessOcall => "switchless_ocall",
            ProfileEvent::Aex => "aex",
            ProfileEvent::Eresume => "eresume",
            ProfileEvent::TlbMiss => "tlb_miss",
            ProfileEvent::MeeCrypto => "mee_crypto",
            ProfileEvent::Paging => "paging",
            ProfileEvent::Request => "request",
        }
    }

    /// The profile event a closing span of `kind` records into.
    pub fn from_span(kind: SpanKind) -> ProfileEvent {
        match kind {
            SpanKind::Ecall => ProfileEvent::Ecall,
            SpanKind::Ocall => ProfileEvent::Ocall,
            SpanKind::NEcall => ProfileEvent::NEcall,
            SpanKind::NOcall => ProfileEvent::NOcall,
            SpanKind::SwitchlessOcall => ProfileEvent::SwitchlessOcall,
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|e| *e == self).unwrap()
    }
}

/// Position in the enclave hierarchy of the context a sample belongs to.
///
/// For boundary spans this is the **caller's** level when the span opened
/// (an `ocall` from an inner enclave is keyed `Inner`); for
/// microarchitectural events it is the level of the context executing (or,
/// for paging, owning) the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HierLevel {
    /// Ordinary (non-enclave) execution.
    Untrusted,
    /// A top-level enclave (no outer association).
    Outer,
    /// An inner enclave nested inside at least one outer.
    Inner,
}

impl HierLevel {
    /// Every level, in export order.
    pub const ALL: [HierLevel; 3] = [HierLevel::Untrusted, HierLevel::Outer, HierLevel::Inner];

    /// Stable lowercase name (used as JSON keys and Perfetto process
    /// names).
    pub fn name(self) -> &'static str {
        match self {
            HierLevel::Untrusted => "untrusted",
            HierLevel::Outer => "outer",
            HierLevel::Inner => "inner",
        }
    }

    /// Stable small integer (used as the Perfetto `pid`).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|l| *l == self).unwrap()
    }
}

/// Always-on latency histograms keyed by ([`ProfileEvent`], [`HierLevel`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    hists: Vec<Histogram>,
}

impl Default for Profile {
    fn default() -> Profile {
        Profile {
            hists: vec![Histogram::default(); ProfileEvent::ALL.len() * HierLevel::ALL.len()],
        }
    }
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Profile {
        Profile::default()
    }

    fn slot(event: ProfileEvent, level: HierLevel) -> usize {
        event.index() * HierLevel::ALL.len() + level.index()
    }

    /// Records one sample.
    pub fn record(&mut self, event: ProfileEvent, level: HierLevel, cycles: u64) {
        self.hists[Self::slot(event, level)].record(cycles);
    }

    /// The histogram for one (event, level) pair.
    pub fn hist(&self, event: ProfileEvent, level: HierLevel) -> &Histogram {
        &self.hists[Self::slot(event, level)]
    }

    /// The histogram for `event` merged across all hierarchy levels.
    pub fn merged(&self, event: ProfileEvent) -> Histogram {
        let mut out = Histogram::new();
        for level in HierLevel::ALL {
            out.merge(self.hist(event, level));
        }
        out
    }

    /// Non-empty `(event, level, histogram)` entries in export order.
    pub fn entries(&self) -> impl Iterator<Item = (ProfileEvent, HierLevel, &Histogram)> {
        ProfileEvent::ALL.into_iter().flat_map(move |event| {
            HierLevel::ALL.into_iter().filter_map(move |level| {
                let h = self.hist(event, level);
                (!h.is_empty()).then_some((event, level, h))
            })
        })
    }

    /// Accumulates `other` into `self`, histogram by histogram
    /// (associative and commutative, like [`Histogram::merge`]).
    pub fn merge(&mut self, other: &Profile) {
        for (dst, src) in self.hists.iter_mut().zip(&other.hists) {
            dst.merge(src);
        }
    }

    /// Total samples recorded across the boundary events (the span-close
    /// sites) — equals `Stats::span_closes` by construction.
    pub fn boundary_count(&self) -> u64 {
        ProfileEvent::BOUNDARY
            .into_iter()
            .map(|e| self.merged(e).count())
            .sum()
    }

    /// Clears every histogram.
    pub fn clear(&mut self) {
        for h in &mut self.hists {
            *h = Histogram::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn count_and_bucket_total_agree() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 17, 1000, 1_000_000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.bucket_total(), 7);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn percentiles_are_monotone_and_clamped() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v * 10);
        }
        let (p50, p90, p99) = (h.percentile(0.5), h.percentile(0.9), h.percentile(0.99));
        assert!(h.min() <= p50, "{} > {p50}", h.min());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= h.max());
        // Single-value population: every quantile is that value.
        let mut one = Histogram::new();
        one.record(777);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(one.percentile(q), 777);
        }
    }

    #[test]
    fn percentile_edges_are_exact() {
        // Empty: every quantile (including the edges) is 0.
        let empty = Histogram::new();
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(empty.percentile(q), 0);
        }
        // Two values sharing one log2 bucket: the bucket upper bound
        // (1023 for bucket 9) would overshoot both samples, but the edges
        // must return the exact extremes.
        let mut h = Histogram::new();
        h.record(513);
        h.record(700);
        assert_eq!(h.percentile(0.0), 513, "q=0 is the exact minimum");
        assert_eq!(h.percentile(1.0), 700, "q=1 is the exact maximum");
        // Out-of-range q clamps to the edges.
        assert_eq!(h.percentile(-0.5), 513);
        assert_eq!(h.percentile(1.5), 700);
        // Interior quantiles stay inside [min, max].
        let p50 = h.percentile(0.5);
        assert!((513..=700).contains(&p50));
    }

    #[test]
    fn summary_carries_the_bucket_count() {
        assert_eq!(Histogram::new().summary().buckets, BUCKETS);
        let mut h = Histogram::new();
        h.record(42);
        let s = h.summary();
        assert_eq!(s.buckets, BUCKETS);
        assert_eq!((s.p50, s.min, s.max), (42, 42, 42));
    }

    #[test]
    fn merge_is_associative() {
        let mk = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (mk(&[1, 2, 3]), mk(&[100, 200]), mk(&[0, u64::MAX]));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.count(), 7);
    }

    #[test]
    fn profile_merges_across_levels_and_profiles() {
        let mut p = Profile::new();
        p.record(ProfileEvent::Ecall, HierLevel::Untrusted, 100);
        p.record(ProfileEvent::Ecall, HierLevel::Untrusted, 200);
        p.record(ProfileEvent::NOcall, HierLevel::Inner, 50);
        assert_eq!(p.hist(ProfileEvent::Ecall, HierLevel::Untrusted).count(), 2);
        assert_eq!(p.merged(ProfileEvent::Ecall).count(), 2);
        assert_eq!(p.boundary_count(), 3);
        assert_eq!(p.entries().count(), 2);
        let mut twice = p.clone();
        twice.merge(&p);
        assert_eq!(twice.boundary_count(), 6);
        assert_eq!(twice.entries().count(), 2);
        p.clear();
        assert_eq!(p.boundary_count(), 0);
    }

    #[test]
    fn summary_matches_histogram() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 100);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 40);
        assert_eq!(s.p50, h.percentile(0.5));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ProfileEvent::NEcall.name(), "n_ecall");
        assert_eq!(
            ProfileEvent::from_span(SpanKind::SwitchlessOcall).name(),
            "switchless_ocall"
        );
        assert_eq!(HierLevel::Inner.name(), "inner");
        assert_eq!(HierLevel::Untrusted.index(), 0);
    }
}
