//! The [`Sampler`]: rides along a driving loop, snapshots cumulative
//! server counters, and closes a window each time the serving clock is
//! observed past a window boundary.
//!
//! Windows hold **deltas** of cumulative counters, so the sum of all
//! windows telescopes back to the end-of-run totals exactly; the
//! per-window latency histograms are built from the window's own
//! completions, and the server records exactly one `Request` profile
//! sample per completion, so those reconcile exactly too (both are
//! enforced by test).

use ne_crypto::Sha256;
use ne_host::server::HostServer;
use ne_host::{pack_reply, reply_digest, Traffic};

use crate::slo::{self, LATENCY_TARGET};
use crate::window::{Checkpoint, Injection, Recovery, TenantTotal, TenantWindow, Timeline, Window};

/// Emit a reply-stream checkpoint every this many completions per
/// (tenant, service) pair.
pub const CHECKPOINT_EVERY: u64 = 4;

/// Sampler knobs. The default window gives ~10 windows on the committed
/// `ne-load` baseline (runs of ~20M serving cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplerConfig {
    /// Window length in simulated serving-clock cycles.
    pub window_cycles: u64,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            window_cycles: 2_000_000,
        }
    }
}

/// Cumulative per-tenant counter snapshot (for window deltas).
#[derive(Debug, Clone, Copy, Default)]
struct TenantSnap {
    traffic: Traffic,
    respawns: u64,
}

fn snap(server: &HostServer) -> Vec<TenantSnap> {
    server
        .tenants()
        .iter()
        .map(|t| TenantSnap {
            traffic: t.traffic,
            respawns: t.recovery.respawns,
        })
        .collect()
}

/// Opaque cross-sampler carry for one migrating tenant: the source
/// sampler's last-observed counter cursor, handed from
/// [`Sampler::retire_tenant`] to the destination's
/// [`Sampler::adopt_tenant`]. Seeding the destination's delta cursor
/// with it makes the destination's first window pick up exactly the
/// increments that landed between the source's last window close and
/// adoption (for example requests shed during the migration quiesce),
/// so per-tenant window deltas keep telescoping to the end-of-run
/// totals across the move.
#[derive(Debug, Clone, Copy)]
pub struct TenantCarry(TenantSnap);

/// Observes a [`HostServer`] and grows a [`Timeline`]. Create one
/// right after `reset_measurement` (and after chaos is installed),
/// call [`Sampler::poll`] after every server step, and
/// [`Sampler::finish`] once the run drains.
#[derive(Debug, Clone)]
pub struct Sampler {
    /// Window length in simulated serving-clock cycles (at least 1).
    window_cycles: u64,
    /// Local tenant index → global tenant id.
    globals: Vec<usize>,
    /// Local slots whose tenant migrated away (extracted); they emit
    /// no totals and only non-empty window rows.
    retired: Vec<bool>,
    /// Per-local completion-index floor: completion records below this
    /// index are not window-attributed (an adopted slot's carried
    /// copies were already attributed by the source sampler).
    adopted_floor: Vec<usize>,
    timeline: Timeline,
    next_boundary: u64,
    next_index: u64,
    prev_cycles: u64,
    prev_stats: ne_sgx::trace::Stats,
    prev_degraded: u64,
    prev_tenants: Vec<TenantSnap>,
    base_tenants: Vec<TenantSnap>,
    completions_seen: usize,
    base_completions: usize,
    chaos_seen: usize,
    recovery_seen: usize,
}

impl Sampler {
    /// Starts sampling `server`. `globals[local]` maps the server's
    /// local tenant indices to global (cluster-wide) tenant ids; pass
    /// the identity mapping for an unsharded server.
    pub fn new(server: &HostServer, globals: Vec<usize>, cfg: SamplerConfig) -> Sampler {
        assert_eq!(
            globals.len(),
            server.tenants().len(),
            "globals must map every tenant"
        );
        let window = cfg.window_cycles.max(1);
        let start = server.now();
        let tenants = snap(server);
        Sampler {
            window_cycles: window,
            retired: vec![false; globals.len()],
            adopted_floor: vec![0; globals.len()],
            globals,
            timeline: Timeline::new(window),
            next_boundary: (start / window + 1) * window,
            next_index: start / window,
            prev_cycles: server.app.machine.total_cycles(),
            prev_stats: server.app.machine.stats(),
            prev_degraded: server.degraded_replies(),
            prev_tenants: tenants.clone(),
            base_tenants: tenants,
            completions_seen: server.completions().len(),
            base_completions: server.completions().len(),
            chaos_seen: server.app.machine.chaos_events().len(),
            recovery_seen: server.recovery_events().len(),
        }
    }

    /// The timeline grown so far (closed windows only).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Marks global tenant `global`'s live local slot as migrated away.
    /// Call right after `HostServer::extract_tenant`. The retired slot
    /// stops contributing totals and checkpoints (the adopting sampler
    /// owns the tenant's full history from then on) and its zeroed
    /// server counters read as clean zero deltas. Returns the carry to
    /// hand to the destination sampler's [`Sampler::adopt_tenant`].
    ///
    /// # Panics
    ///
    /// If `global` has no live (un-retired) slot on this sampler —
    /// that is a driver bug, not an observable condition.
    pub fn retire_tenant(&mut self, global: usize) -> TenantCarry {
        let l = self
            .globals
            .iter()
            .zip(&self.retired)
            .position(|(g, retired)| *g == global && !retired)
            .unwrap_or_else(|| panic!("retire_tenant: tenant {global} has no live slot here"));
        self.retired[l] = true;
        let carry = TenantCarry(self.prev_tenants[l]);
        // Extract zeroes the dead slot's counters; zero the cursor to
        // match so later windows see zero deltas, not underflow. The
        // increments between the last close and extract travel to the
        // destination inside the carry.
        self.prev_tenants[l] = TenantSnap::default();
        carry
    }

    /// Registers the local slot `HostServer::adopt_tenant` just
    /// appended for global tenant `global`. Call immediately after the
    /// adoption commits, before the next poll. The slot's totals start
    /// from zero (so the end-of-run totals line covers the tenant's
    /// full carried history), its window cursor starts from `carry`
    /// (so the first window holds exactly the migration-gap
    /// increments), and the carried completion copies — already
    /// window-attributed by the source sampler — are excluded from
    /// this sampler's window histograms.
    pub fn adopt_tenant(&mut self, server: &HostServer, global: usize, carry: TenantCarry) {
        assert_eq!(
            self.globals.len() + 1,
            server.tenants().len(),
            "adopt_tenant wants exactly the one new slot"
        );
        self.globals.push(global);
        self.retired.push(false);
        self.prev_tenants.push(carry.0);
        self.base_tenants.push(TenantSnap::default());
        self.adopted_floor.push(server.completions().len());
    }

    /// Observes the server, closing every window the serving clock has
    /// crossed since the last poll. Call after each server step; extra
    /// calls are free.
    pub fn poll(&mut self, server: &HostServer) {
        while server.now() >= self.next_boundary {
            self.close(server);
        }
    }

    /// True if any counter moved or any event landed since the last
    /// window close.
    fn pending(&self, server: &HostServer) -> bool {
        server.app.machine.total_cycles() != self.prev_cycles
            || server.completions().len() != self.completions_seen
            || server.app.machine.chaos_events().len() != self.chaos_seen
            || server.recovery_events().len() != self.recovery_seen
            || snap(server).iter().zip(&self.prev_tenants).any(|(a, b)| {
                a.traffic.accepted != b.traffic.accepted
                    || a.traffic.rejected() != b.traffic.rejected()
            })
    }

    /// Closes the current window with everything observed since the
    /// previous close.
    fn close(&mut self, server: &HostServer) {
        let mut w = Window::new(self.next_index);
        let machine = &server.app.machine;
        let cycles = machine.total_cycles();
        w.cycles = cycles - self.prev_cycles;
        self.prev_cycles = cycles;
        let stats = machine.stats();
        w.stats = stats_delta(&stats, &self.prev_stats);
        self.prev_stats = stats;
        let degraded = server.degraded_replies();
        w.degraded = degraded - self.prev_degraded;
        self.prev_degraded = degraded;
        w.free_epc = machine.free_epc_pages() as u64;
        w.resident = machine.resident_pages() as u64;

        // Per-tenant counter deltas plus gauges, in local order first.
        let cur = snap(server);
        assert_eq!(
            cur.len(),
            self.prev_tenants.len(),
            "server grew a tenant slot the sampler was not told about \
             (call adopt_tenant after every adoption)"
        );
        let mut rows: Vec<TenantWindow> = Vec::with_capacity(cur.len());
        for (l, (c, p)) in cur.iter().zip(&self.prev_tenants).enumerate() {
            let mut row = TenantWindow::new(self.globals[l]);
            row.traffic = c.traffic - p.traffic;
            row.respawns = c.respawns - p.respawns;
            row.breaker_open = server.tenants()[l].recovery.breaker_open;
            rows.push(row);
        }
        self.prev_tenants = cur;

        // This window's completions feed the latency histograms and
        // the exact violation counts. An adopted slot's carried copies
        // (below its floor) were attributed by the source sampler.
        let completions = server.completions();
        for (i, c) in completions.iter().enumerate().skip(self.completions_seen) {
            if i < self.adopted_floor[c.tenant] {
                continue;
            }
            let row = &mut rows[c.tenant];
            row.latency.record(c.latency);
            if c.latency > LATENCY_TARGET {
                row.latency_violations += 1;
            }
        }
        self.completions_seen = server.completions().len();
        // A retired slot's row is empty except in the migration window
        // itself (completions landed before the extract); drop the
        // empty ones, and merge same-tenant rows when a migration left
        // this server holding both the retired and the adopted slot.
        let retired = &self.retired;
        let mut l = 0;
        rows.retain(|r| {
            let keep = !retired[l] || r.latency_violations > 0 || !r.latency.is_empty();
            l += 1;
            keep
        });
        crate::window::coalesce_rows(&mut rows, false);
        w.tenants = rows;

        // Machine-side chaos injections, attributed via the server's
        // persistent eid → tenant map.
        for inj in &machine.chaos_events()[self.chaos_seen..] {
            w.injections.push(Injection {
                cycle: inj.cycle,
                eid: inj.eid,
                tenant: server.eid_owner(inj.eid).map(|l| self.globals[l]),
                kind: inj.kind,
            });
        }
        self.chaos_seen = machine.chaos_events().len();

        // Host-side recovery events.
        for ev in &server.recovery_events()[self.recovery_seen..] {
            w.recoveries.push(Recovery {
                cycle: ev.cycle,
                tenant: self.globals[ev.tenant],
                kind: ev.kind,
            });
        }
        self.recovery_seen = server.recovery_events().len();

        crate::window::sort_events(&mut w.injections, &mut w.recoveries);
        self.timeline.push(w);
        self.next_boundary += self.window_cycles;
        self.next_index += 1;
    }

    /// Finishes the run: closes the trailing partial window (if
    /// anything landed in it), computes per-tenant totals and
    /// reply-stream checkpoints, runs the SLO monitor over every
    /// window, and returns the timeline.
    pub fn finish(self, server: &HostServer) -> Timeline {
        self.finish_with(server, stream_digests)
    }

    /// [`Sampler::finish`] with the digests taken by
    /// [`digests_reference`], which re-packs and re-hashes every
    /// checkpoint's reply prefix from the start. The reference form the
    /// streamed digests are held to, byte for byte, by test.
    pub fn finish_reference(self, server: &HostServer) -> Timeline {
        self.finish_with(server, digests_reference)
    }

    fn finish_with(mut self, server: &HostServer, digests: TenantDigests) -> Timeline {
        self.poll(server);
        if self.pending(server) {
            self.close(server);
        }

        // Each slot's replies, grouped in one pass over the run's
        // completions.
        let cur = snap(server);
        let mut replies: Vec<Vec<&ne_host::Completion>> = vec![Vec::new(); cur.len()];
        for c in &server.completions()[self.base_completions..] {
            replies[c.tenant].push(c);
        }
        for (l, (c, b)) in cur.iter().zip(&self.base_tenants).enumerate() {
            // A retired slot's tenant migrated away; the adopting
            // sampler owns its full history (carried completions
            // included), so exactly one totals line per global tenant
            // survives a cluster fold.
            if self.retired[l] {
                continue;
            }
            // Replies in (service, seq) order, digested as ne-tenants/v1
            // does, so the totals line is part of the
            // shard-count-invariant data plane.
            let replies = &mut replies[l];
            replies.sort_by_key(|r| (r.service, r.seq));
            let digest = digests(self.globals[l], replies, &mut self.timeline.checkpoints);
            self.timeline.totals.push(TenantTotal {
                tenant: self.globals[l],
                traffic: c.traffic - b.traffic,
                respawns: c.respawns - b.respawns,
                digest,
            });
        }
        self.timeline.totals.sort_by_key(|t| t.tenant);
        self.timeline
            .checkpoints
            .sort_by_key(|c| (c.tenant, c.service, c.completions));

        if let Some(base) = &mut self.timeline.base {
            slo::annotate(std::slice::from_mut(base));
        }
        slo::annotate(&mut self.timeline.windows);
        self.timeline
    }
}

/// Digests one tenant's replies, given in (service, seq) order: returns
/// the `ne-tenants/v1` reply digest and appends the tenant's rolling
/// [`Checkpoint`]s to `checkpoints`.
type TenantDigests = fn(usize, &[&ne_host::Completion], &mut Vec<Checkpoint>) -> [u8; 32];

/// The streamed reply digests: each reply is packed once and hashed
/// about once. Service 0 sorts first, so its stream is a prefix of the
/// tenant stream and its checkpoints finalize clones of the tenant
/// hasher; every later service feeds one extra per-service hasher,
/// restarted at the service's first reply, whose clones its checkpoints
/// finalize.
pub fn stream_digests(
    tenant: usize,
    replies: &[&ne_host::Completion],
    checkpoints: &mut Vec<Checkpoint>,
) -> [u8; 32] {
    let mut whole = Sha256::new();
    let mut service = Sha256::new();
    let mut packed = Vec::new();
    let mut n = 0u64;
    for (i, r) in replies.iter().enumerate() {
        if i == 0 || r.service != replies[i - 1].service {
            service = Sha256::new();
            n = 0;
        }
        packed.clear();
        pack_reply(&mut packed, r.service, r.seq, &r.reply);
        whole.update(&packed);
        if r.service > 0 {
            service.update(&packed);
        }
        n += 1;
        if n.is_multiple_of(CHECKPOINT_EVERY) {
            let prefix = if r.service == 0 { &whole } else { &service };
            checkpoints.push(Checkpoint {
                tenant,
                service: r.service,
                completions: n,
                digest: prefix.clone().finalize(),
            });
        }
    }
    whole.finalize()
}

/// Reference form of [`stream_digests`], same contract: the tenant
/// digest by [`reply_digest`], and each service's checkpoints by
/// re-packing and re-hashing its reply prefix from the start.
pub fn digests_reference(
    tenant: usize,
    replies: &[&ne_host::Completion],
    checkpoints: &mut Vec<Checkpoint>,
) -> [u8; 32] {
    let digest = reply_digest(replies.iter().map(|r| (r.service, r.seq, &r.reply[..])));
    // Rolling checkpoints per service: digest over the first
    // k * CHECKPOINT_EVERY replies in seq order.
    let services = replies.last().map_or(0, |r| r.service + 1);
    for s in 0..services {
        let mut bytes = Vec::new();
        let mut n = 0u64;
        for r in replies.iter().filter(|r| r.service == s) {
            pack_reply(&mut bytes, r.service, r.seq, &r.reply);
            n += 1;
            if n.is_multiple_of(CHECKPOINT_EVERY) {
                checkpoints.push(Checkpoint {
                    tenant,
                    service: s,
                    completions: n,
                    digest: ne_crypto::sha256_digest(&bytes),
                });
            }
        }
    }
    digest
}

/// Field-wise `cur - prev` for the cumulative transition counters.
fn stats_delta(cur: &ne_sgx::trace::Stats, prev: &ne_sgx::trace::Stats) -> ne_sgx::trace::Stats {
    let mut delta = *cur;
    for ((_, d), (_, p)) in delta.fields_mut().into_iter().zip(prev.fields()) {
        *d -= p;
    }
    delta
}
