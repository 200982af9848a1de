//! The timeline data model: per-window deltas, the bounded window
//! ring, per-tenant rows, and the shard fold algebra.
//!
//! Two distinct merges exist and must not be confused:
//!
//! * [`Window::merge_shard`] combines **the same window index** from
//!   different shards (gauges sum — they are per-shard machines);
//! * [`Window::roll`] folds **an older window into a newer epoch**
//!   when the bounded ring evicts it (gauges keep the newer value).

use ne_host::{RecoveryEventKind, Traffic};
use ne_sgx::fault::ChaosKind;
use ne_sgx::profile::Histogram;
use ne_sgx::trace::Stats;

use crate::slo::SloState;

/// A chaos injection attributed to a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Simulated cycle on the injecting core.
    pub cycle: u64,
    /// Faulted enclave id. For crash injections this is the chosen
    /// victim (possibly an inner enclave), not the entered enclave.
    pub eid: u64,
    /// Global id of the tenant owning the enclave, when known.
    pub tenant: Option<usize>,
    /// What was injected.
    pub kind: ChaosKind,
}

/// A recovery-layer event attributed to a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recovery {
    /// Simulated cycle the event was logged at.
    pub cycle: u64,
    /// Global id of the affected tenant.
    pub tenant: usize,
    /// What happened (see [`ne_host::RecoveryEventKind`]).
    pub kind: RecoveryEventKind,
}

/// Canonical sort key for recovery events: cycles across cores are not
/// mutually ordered, so windows impose this total order at close time.
fn recovery_key(r: &Recovery) -> (u64, usize, &'static str, &'static str, u64) {
    let (detail, wait) = match r.kind {
        RecoveryEventKind::Backoff { wait } => ("", wait),
        RecoveryEventKind::Shed(reason) => (reason.name(), 0),
        _ => ("", 0),
    };
    (r.cycle, r.tenant, r.kind.name(), detail, wait)
}

/// Sorts a window's event lists into their canonical order. Applied at
/// window close and again after a shard fold, so a one-shard fold is
/// the identity.
pub(crate) fn sort_events(injections: &mut [Injection], recoveries: &mut [Recovery]) {
    injections.sort_by_key(|i| (i.cycle, i.eid, i.kind.name()));
    recoveries.sort_by_key(recovery_key);
}

/// One tenant's slice of one window: traffic counter deltas, the
/// window's latency histogram, and the SLO verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantWindow {
    /// Global tenant id.
    pub tenant: usize,
    /// Traffic counter deltas this window.
    pub traffic: Traffic,
    /// Enclave respawns this window.
    pub respawns: u64,
    /// Circuit-breaker state at window close (gauge).
    pub breaker_open: bool,
    /// Completions whose latency exceeded the SLO target this window.
    pub latency_violations: u64,
    /// End-to-end latency of this window's completions.
    pub latency: Histogram,
    /// SLO state for this window (set by the burn-rate monitor).
    pub slo: SloState,
    /// Short (single-window) burn rate, in permille of the error
    /// budget consumption rate (1000 = consuming budget exactly).
    pub burn_short: u64,
    /// Long (trailing multi-window) burn rate, same unit.
    pub burn_long: u64,
}

impl TenantWindow {
    /// An all-zero row for `tenant`.
    pub fn new(tenant: usize) -> TenantWindow {
        TenantWindow {
            tenant,
            traffic: Traffic::default(),
            respawns: 0,
            breaker_open: false,
            latency_violations: 0,
            latency: Histogram::new(),
            slo: SloState::Ok,
            burn_short: 0,
            burn_long: 0,
        }
    }

    /// Terminated requests this window (the reply-or-shed universe).
    pub fn total(&self) -> u64 {
        self.traffic.completed + self.traffic.shed_requests
    }

    /// SLO-bad outcomes this window: sheds plus latency violations.
    pub fn bad(&self) -> u64 {
        self.traffic.shed_requests + self.latency_violations
    }

    /// Accumulates another row for the same tenant (used by both merge
    /// directions; `newer_gauges` selects roll vs merge semantics for
    /// the breaker gauge).
    fn accumulate(&mut self, other: &TenantWindow, newer_gauges: bool) {
        self.traffic += other.traffic;
        self.respawns += other.respawns;
        self.breaker_open = if newer_gauges {
            other.breaker_open
        } else {
            self.breaker_open || other.breaker_open
        };
        self.latency_violations += other.latency_violations;
        self.latency.merge(&other.latency);
        self.slo = self.slo.max(other.slo);
        self.burn_short = self.burn_short.max(other.burn_short);
        self.burn_long = self.burn_long.max(other.burn_long);
    }
}

/// Sorts rows by global tenant id and folds each tenant's later rows
/// into its first (the sort is stable, so input order decides which is
/// first); `newer_gauges` picks the breaker gauge's roll or merge
/// semantics. A live migration can briefly leave one server with two
/// local slots for the same global tenant — the retired source slot and
/// the adopted destination slot — and their rows for the migration
/// window merge exactly like a shard merge.
pub(crate) fn coalesce_rows(rows: &mut Vec<TenantWindow>, newer_gauges: bool) {
    rows.sort_by_key(|r| r.tenant);
    let mut out: Vec<TenantWindow> = Vec::with_capacity(rows.len());
    for row in rows.drain(..) {
        match out.last_mut() {
            Some(last) if last.tenant == row.tenant => last.accumulate(&row, newer_gauges),
            _ => out.push(row),
        }
    }
    *rows = out;
}

/// One closed observation window.
#[derive(Debug, Clone)]
pub struct Window {
    /// Window index: the window covers serving-clock cycles
    /// `[index * window_cycles, (index + 1) * window_cycles)`, modulo
    /// observation lag (a window closes when the clock is first
    /// *observed* past the boundary, so late-arriving deltas land in
    /// the closing window — deterministically).
    pub index: u64,
    /// Raw windows folded into this one (1 for a plain window; the
    /// ring's base window grows this as it absorbs evictions).
    pub folded: u64,
    /// Simulated cycles spent this window (delta of total cycles
    /// across cores).
    pub cycles: u64,
    /// Transition/paging counter deltas for this window.
    pub stats: Stats,
    /// Free EPC pages at window close (gauge).
    pub free_epc: u64,
    /// Resident EPC pages at window close (gauge).
    pub resident: u64,
    /// Degraded replies produced this window.
    pub degraded: u64,
    /// Per-tenant rows, sorted by global tenant id. Every tenant of
    /// the observed server gets a row, even an all-zero one.
    pub tenants: Vec<TenantWindow>,
    /// Chaos injections that landed this window, canonically sorted.
    pub injections: Vec<Injection>,
    /// Recovery events logged this window, canonically sorted.
    pub recoveries: Vec<Recovery>,
}

impl Window {
    /// An empty window for `index`.
    pub fn new(index: u64) -> Window {
        Window {
            index,
            folded: 1,
            cycles: 0,
            stats: Stats::default(),
            free_epc: 0,
            resident: 0,
            degraded: 0,
            tenants: Vec::new(),
            injections: Vec::new(),
            recoveries: Vec::new(),
        }
    }

    /// The window's merged request-latency histogram across tenants.
    pub fn request(&self) -> Histogram {
        let mut h = Histogram::new();
        for t in &self.tenants {
            h.merge(&t.latency);
        }
        h
    }

    /// Completions this window, summed over tenants.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.traffic.completed).sum()
    }

    /// Shared body of the two merges.
    fn accumulate(&mut self, other: &Window, newer_gauges: bool) {
        self.cycles += other.cycles;
        self.stats.merge(&other.stats);
        if newer_gauges {
            self.free_epc = other.free_epc;
            self.resident = other.resident;
        } else {
            self.free_epc += other.free_epc;
            self.resident += other.resident;
        }
        self.degraded += other.degraded;
        // Union of tenant rows by global id. Each side holds unique rows,
        // so a tenant's row from `self` absorbs at most one from `other`.
        self.tenants.extend_from_slice(&other.tenants);
        coalesce_rows(&mut self.tenants, newer_gauges);
        self.injections.extend_from_slice(&other.injections);
        self.recoveries.extend_from_slice(&other.recoveries);
        sort_events(&mut self.injections, &mut self.recoveries);
    }

    /// Merges the same window index from another shard: counters add,
    /// gauges sum (each shard is its own machine), tenant rows union
    /// (global ids are disjoint across shards), events re-sort into
    /// canonical order. Merging with an empty window is the identity.
    pub fn merge_shard(&mut self, other: &Window) {
        debug_assert_eq!(
            self.index, other.index,
            "merge_shard wants matching indices"
        );
        self.folded = self.folded.max(other.folded);
        self.accumulate(other, false);
    }

    /// Rolls a **newer** window into this one when the bounded ring
    /// evicts it: counters add, gauges take the newer value, `folded`
    /// counts the absorbed raw windows.
    pub fn roll(&mut self, newer: &Window) {
        let folded = self.folded + newer.folded;
        self.accumulate(newer, true);
        self.folded = folded;
    }
}

/// A per-tenant end-of-run total with the reply digest — the
/// shard-count-invariant data plane of the export (mirrors the
/// `ne-tenants/v1` oracle: replies and traffic counters are identical
/// at every shard count under clean runs, even though cycle counts
/// drift ~0.1%).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantTotal {
    /// Global tenant id.
    pub tenant: usize,
    /// Traffic counters over the run.
    pub traffic: Traffic,
    /// Enclave respawns over the run.
    pub respawns: u64,
    /// SHA-256 over the tenant's replies in (service, seq) order, in
    /// the same byte layout as the `ne-tenants/v1` digest.
    pub digest: [u8; 32],
}

/// A rolling reply-stream checkpoint for one (tenant, service) pair:
/// the digest over the first `completions` replies in seq order.
/// Checkpoints let two timelines be compared incrementally — the first
/// diverging checkpoint brackets the first diverging reply.
///
/// The tenant's stream packs its replies in (service, seq) order, so
/// service 0's reply stream is a prefix of it: a service-0 checkpoint
/// is the tenant stream's digest after its first `completions` replies.
/// [`crate::Sampler::finish`] takes it by finalizing a clone of the
/// tenant hasher at that point; a later service's checkpoints finalize
/// clones of one hasher fed only that service's replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Global tenant id.
    pub tenant: usize,
    /// Service index within the tenant.
    pub service: usize,
    /// Number of completions covered by this checkpoint.
    pub completions: u64,
    /// SHA-256 over those completions' replies in seq order.
    pub digest: [u8; 32],
}

/// A bounded, windowed timeline for one server — or, after
/// [`Timeline::fold`], for a whole cluster.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Window length in simulated cycles.
    pub window_cycles: u64,
    /// Shard timelines folded into this one (1 for a plain timeline).
    pub shards: usize,
    /// Roll-up of windows evicted from the ring, oldest first.
    pub base: Option<Window>,
    /// The retained windows, in index order.
    pub windows: Vec<Window>,
    /// Per-tenant end-of-run totals, sorted by global tenant id.
    pub totals: Vec<TenantTotal>,
    /// Reply-stream checkpoints, sorted by (tenant, service, count).
    pub checkpoints: Vec<Checkpoint>,
}

impl Timeline {
    /// Ring capacity: at most this many windows are kept; older ones
    /// roll up into [`Timeline::base`].
    pub const CAPACITY: usize = 1_024;

    /// An empty timeline.
    pub fn new(window_cycles: u64) -> Timeline {
        Timeline {
            window_cycles,
            shards: 1,
            base: None,
            windows: Vec::new(),
            totals: Vec::new(),
            checkpoints: Vec::new(),
        }
    }

    /// Appends a closed window, evicting the oldest into the base
    /// roll-up if the ring is full.
    pub fn push(&mut self, w: Window) {
        if self.windows.len() >= Self::CAPACITY {
            let old = self.windows.remove(0);
            match &mut self.base {
                None => self.base = Some(old),
                Some(b) => b.roll(&old),
            }
        }
        self.windows.push(w);
    }

    /// Raw (pre-roll-up) windows observed, including those folded into
    /// the base.
    pub fn raw_windows(&self) -> u64 {
        self.base.as_ref().map_or(0, |b| b.folded) + self.windows.len() as u64
    }

    /// All windows oldest-first, base roll-up included.
    pub fn all_windows(&self) -> impl Iterator<Item = &Window> {
        self.base.iter().chain(self.windows.iter())
    }

    /// The end-of-run totals of the whole timeline: summed cycles,
    /// stats, and the merged request histogram. Because windows are
    /// deltas of cumulative snapshots, these telescope back to the
    /// server's end-of-run counters exactly (by test).
    pub fn total(&self) -> (u64, Stats, Histogram) {
        let mut cycles = 0u64;
        let mut stats = Stats::default();
        let mut hist = Histogram::new();
        for w in self.all_windows() {
            cycles += w.cycles;
            stats.merge(&w.stats);
            hist.merge(&w.request());
        }
        (cycles, stats, hist)
    }

    /// Namespaces enclave ids for shard `shard`, mirroring
    /// [`ne_sgx::metrics::MachineMetrics::rebase_shard`] (shard 0 is
    /// untouched, so a 1-shard timeline stays byte-identical to the
    /// unsharded one).
    pub fn rebase_shard(&mut self, shard: usize) {
        let off = (shard as u64) << ne_sgx::metrics::SHARD_EID_BITS;
        for w in self.base.iter_mut().chain(self.windows.iter_mut()) {
            for inj in &mut w.injections {
                inj.eid += off;
            }
        }
    }

    /// Folds per-shard timelines into one cluster timeline, the
    /// windowed analogue of
    /// [`ne_sgx::metrics::MachineMetrics::merge_shards`]: windows with
    /// the same index merge via [`Window::merge_shard`], tenant totals
    /// and checkpoints union (global tenant ids are disjoint across
    /// shards). Folding a single timeline is the identity.
    pub fn fold(shards: &[Timeline]) -> Result<Timeline, String> {
        let first = shards.first().ok_or("fold of zero timelines")?;
        let mut out = Timeline::new(first.window_cycles);
        out.shards = 0;
        let mut windows: Vec<Window> = Vec::new();
        for t in shards {
            if t.window_cycles != first.window_cycles {
                return Err(format!(
                    "fold: window_cycles mismatch ({} vs {})",
                    t.window_cycles, first.window_cycles
                ));
            }
            out.shards += t.shards;
            if let Some(b) = &t.base {
                match &mut out.base {
                    None => out.base = Some(b.clone()),
                    Some(acc) => {
                        // Shard bases roll up the same window indices:
                        // count those raw windows once, as merge_shard
                        // does for a retained window.
                        acc.folded = acc.folded.max(b.folded);
                        acc.index = acc.index.min(b.index);
                        acc.accumulate(b, false);
                    }
                }
            }
            for w in &t.windows {
                match windows.iter_mut().find(|x| x.index == w.index) {
                    Some(acc) => acc.merge_shard(w),
                    None => windows.push(w.clone()),
                }
            }
            out.totals.extend(t.totals.iter().cloned());
            out.checkpoints.extend(t.checkpoints.iter().cloned());
        }
        windows.sort_by_key(|w| w.index);
        out.windows = windows;
        out.totals.sort_by_key(|t| t.tenant);
        for pair in out.totals.windows(2) {
            if pair[0].tenant == pair[1].tenant {
                return Err(format!("fold: tenant {} on two shards", pair[0].tenant));
            }
        }
        out.checkpoints
            .sort_by_key(|c| (c.tenant, c.service, c.completions));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Window `index` of one shard: 10 cycles, one ecall, a free-EPC
    /// gauge reading `index`, and one completion for `tenant`.
    fn window(index: u64, tenant: usize) -> Window {
        let mut w = Window::new(index);
        w.cycles = 10;
        w.stats.ecalls = 1;
        w.free_epc = index;
        let mut row = TenantWindow::new(tenant);
        row.traffic.completed = 1;
        row.latency.record(index + 1);
        w.tenants.push(row);
        w
    }

    /// A timeline that overflowed its ring by six windows.
    fn overflowed(tenant: usize) -> Timeline {
        let mut t = Timeline::new(1_000);
        for i in 0..Timeline::CAPACITY as u64 + 6 {
            t.push(window(i, tenant));
        }
        t
    }

    fn lines_of_kind(export: &str, kind: &str) -> usize {
        let prefix = format!("{{\"kind\":\"{kind}\"");
        export.lines().filter(|l| l.starts_with(&prefix)).count()
    }

    #[test]
    fn ring_overflow_rolls_up_into_one_base_window() {
        let raw = Timeline::CAPACITY as u64 + 6;
        let t = overflowed(0);
        assert_eq!(t.windows.len(), Timeline::CAPACITY);
        assert_eq!(
            t.windows[0].index, 6,
            "the six oldest windows left the ring"
        );
        assert_eq!(t.raw_windows(), raw);
        let base = t.base.as_ref().expect("overflow rolls into the base");
        assert_eq!((base.index, base.folded), (0, 6));
        assert_eq!(base.completed(), 6, "counters add");
        assert_eq!(base.free_epc, 5, "gauges take the newest rolled value");
        let (cycles, stats, request) = t.total();
        assert_eq!(
            (cycles, stats.ecalls, request.count()),
            (10 * raw, raw, raw)
        );
        let export = crate::export::to_jsonl(&t, "ring");
        assert_eq!(lines_of_kind(&export, "base"), 1);
        assert_eq!(lines_of_kind(&export, "window"), Timeline::CAPACITY);

        // Two overflowed shards fold into one base and one ring, and
        // their totals still telescope.
        let folded = Timeline::fold(&[overflowed(0), overflowed(1)]).unwrap();
        assert_eq!(folded.shards, 2);
        assert_eq!(folded.windows.len(), Timeline::CAPACITY);
        assert_eq!(folded.raw_windows(), raw);
        let base = folded.base.as_ref().expect("folded base");
        assert_eq!((base.index, base.completed()), (0, 12));
        assert_eq!(base.tenants.len(), 2);
        let (cycles, stats, request) = folded.total();
        assert_eq!(
            (cycles, stats.ecalls, request.count()),
            (20 * raw, 2 * raw, 2 * raw)
        );
        let export = crate::export::to_jsonl(&folded, "ring");
        assert_eq!(lines_of_kind(&export, "base"), 1);
        assert_eq!(lines_of_kind(&export, "window"), Timeline::CAPACITY);
    }
}
