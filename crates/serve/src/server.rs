//! The [`FrontDoor`]: a blocking accept loop that maps connections onto
//! (tenant, service) pairs, then the cluster's one per-shard sequence
//! (see [`ne_cluster`]) with a `WireSource` feeding decoded request
//! frames into the drive loop, which steps the simulated machine between
//! socket polls. Its only wire-specific step sheds, up front, every
//! tenant with a pair that never connected.
//!
//! Determinism over a nondeterministic transport is the crate's clock
//! discipline (see the [crate docs](crate)). Slow clients cannot wedge
//! the loop either: every connection carries a read deadline and a
//! bounded pending-frame buffer, and a pair that stalls gets its tenant
//! shed through [`ne_host::server::HostServer::shed_tenant`] — the same
//! counters and recovery-event stream every other loss path uses.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use ne_cluster::{drive, Cluster, ClusterConfig, ClusterReport};
use ne_host::Completion;
use ne_obs::{SamplerConfig, Timeline};

use crate::conn::{ConnError, FramedConn};
use crate::frame::{Frame, FrameKind};
use crate::{session, Mode, Scenario, WireCompletion};

/// Front-door configuration: the scenario plus wire-level knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of tenants.
    pub tenants: usize,
    /// Services per tenant.
    pub services: usize,
    /// Measured requests per (tenant, service) pair.
    pub requests: usize,
    /// Base seed of every generator stream.
    pub seed: u64,
    /// Arrival process.
    pub mode: Mode,
    /// Whether the shard runs a switchless worker core.
    pub switchless: bool,
    /// Seal every frame in a `ne-tls` record (transport handshake on
    /// connect, rollback offers refused on the wire).
    pub tls: bool,
    /// Chaos spec installed after warmup (see
    /// [`ne_sgx::fault::FaultPlan::parse`]), seeded by the cluster
    /// exactly like `ne-load --chaos`.
    pub chaos: Option<String>,
    /// Collect an `ne-obs/v1` timeline with this window length.
    pub window: Option<u64>,
    /// Per-connection read deadline; a pair that stays silent past it
    /// while the server needs its next request gets its tenant shed.
    pub read_timeout: Duration,
    /// How long the accept loop waits for every pair to say Hello;
    /// tenants with missing pairs are shed before warmup.
    pub accept_timeout: Duration,
}

impl ServeConfig {
    /// A config with the scenario given and every wire knob at its
    /// default (closed loop, switchless on, plaintext, no chaos, no
    /// timeline, 5 s read deadline, 30 s accept window).
    pub fn new(tenants: usize, services: usize, requests: usize, seed: u64) -> ServeConfig {
        ServeConfig {
            tenants,
            services,
            requests,
            seed,
            mode: Mode::Closed,
            switchless: true,
            tls: false,
            chaos: None,
            window: None,
            read_timeout: Duration::from_secs(5),
            accept_timeout: Duration::from_secs(30),
        }
    }

    /// The scenario fields a client's Hello must match.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            seed: self.seed,
            mode: self.mode,
            requests: self.requests as u32,
            tenants: self.tenants as u32,
            services: self.services as u32,
        }
    }
}

/// Everything a finished run produced. The three export strings are the
/// oracle surface: byte-identical between a wire run and
/// [`crate::oracle::run_oracle`].
#[derive(Debug)]
pub struct ServeOutcome {
    /// Accepted measured requests.
    pub accepted: u64,
    /// The end-of-run cluster report.
    pub report: ClusterReport,
    /// The `ne-tenants/v1` export.
    pub tenants_export: String,
    /// The `ne-metrics/v2` export (identity-checked).
    pub metrics_json: String,
    /// The `ne-obs/v1` timeline export, when a window was configured.
    pub timeline_jsonl: Option<String>,
}

/// Builds the one-shard cluster a scenario runs on (the wire path and
/// the oracle share this, so they cannot drift).
pub(crate) fn build_cluster(cfg: &ServeConfig) -> Result<Cluster, String> {
    let mut cc = ClusterConfig::new(drive::standard_specs(cfg.tenants, cfg.services), 1);
    cc.host.seed = cfg.seed;
    cc.host.switchless = cfg.switchless;
    Cluster::build(cc).map_err(|e| format!("cluster build: {e}"))
}

/// The sampler a `window` asks for (a zero window is one cycle long).
pub(crate) fn sampler_config(window: u64) -> SamplerConfig {
    SamplerConfig {
        window_cycles: window.max(1),
        ..SamplerConfig::default()
    }
}

/// Assembles the outcome after [`Cluster::verify_run`] (the same
/// end-of-run invariants `ne-load` holds a run to).
pub(crate) fn finish_outcome(
    cluster: &Cluster,
    accepted: u64,
    timeline: Option<Timeline>,
    mode: Mode,
) -> Result<ServeOutcome, String> {
    let (report, metrics) = cluster.verify_run(accepted)?;
    let label = format!("ne-serve-{}", mode.name());
    Ok(ServeOutcome {
        accepted,
        report,
        tenants_export: cluster.tenants_export(),
        metrics_json: metrics.to_json(),
        timeline_jsonl: timeline.map(|t| ne_obs::to_jsonl(&t, &label)),
    })
}

/// One accept-phase slot per expected (tenant, service) pair.
enum Slot {
    /// No connection claimed the pair yet.
    Waiting,
    /// The pair's connection completed its Hello.
    Ready(Box<FramedConn>),
    /// A connection claimed the pair but was refused (bad handshake or
    /// scenario mismatch); the pair will not be waited for.
    Refused,
}

/// The wire-backed [`drive::RequestSource`]: pulls block on the pair's
/// socket, deliveries and rejections are frames back to the client. A
/// pair whose connection times out, closes, or violates the protocol
/// reports [`drive::Pulled::Stalled`] and the driver sheds its tenant.
struct WireSource {
    conns: Vec<Vec<Option<FramedConn>>>,
    done: Vec<Vec<bool>>,
    last_req: Vec<Vec<u64>>,
}

impl WireSource {
    fn new(conns: Vec<Vec<Option<FramedConn>>>) -> WireSource {
        let done = conns.iter().map(|p| vec![false; p.len()]).collect();
        let last_req = conns.iter().map(|p| vec![0u64; p.len()]).collect();
        WireSource {
            conns,
            done,
            last_req,
        }
    }

    /// Broadcasts Finish to every surviving connection and closes them.
    fn finish(&mut self) {
        for (t, pairs) in self.conns.iter_mut().enumerate() {
            for (s, slot) in pairs.iter_mut().enumerate() {
                if let Some(conn) = slot.as_mut() {
                    let _ = conn.send(&Frame::new(
                        FrameKind::Finish,
                        t as u32,
                        s as u32,
                        0,
                        Vec::new(),
                    ));
                }
                *slot = None;
            }
        }
    }
}

impl drive::RequestSource for WireSource {
    fn pull(&mut self, tenant: usize, service: usize) -> drive::Pulled {
        if self.done[tenant][service] {
            return drive::Pulled::Done;
        }
        let Some(conn) = self.conns[tenant][service].as_mut() else {
            return drive::Pulled::Stalled;
        };
        match conn.recv() {
            Ok(f) if f.kind == FrameKind::Request => {
                if f.tenant as usize != tenant || f.service as usize != service {
                    self.conns[tenant][service] = None;
                    return drive::Pulled::Stalled;
                }
                self.last_req[tenant][service] = f.req_id;
                drive::Pulled::Request(f.payload)
            }
            Ok(f) if f.kind == FrameKind::Done => {
                self.done[tenant][service] = true;
                drive::Pulled::Done
            }
            Ok(_) => {
                // Out-of-protocol frame: the stream can't be trusted.
                self.conns[tenant][service] = None;
                drive::Pulled::Stalled
            }
            Err(ConnError::TimedOut) => {
                // Keep the connection: the client may still be able to
                // read its Finish, it just failed to produce in time.
                drive::Pulled::Stalled
            }
            Err(_) => {
                self.conns[tenant][service] = None;
                drive::Pulled::Stalled
            }
        }
    }

    fn deliver(&mut self, tenant: usize, service: usize, completion: &Completion) {
        if let Some(conn) = self.conns[tenant][service].as_mut() {
            let frame = Frame::new(
                FrameKind::Reply,
                tenant as u32,
                service as u32,
                completion.seq,
                WireCompletion::from_completion(completion).encode(),
            );
            if conn.send(&frame).is_err() {
                self.conns[tenant][service] = None;
            }
        }
    }

    fn rejected(&mut self, tenant: usize, service: usize) {
        if let Some(conn) = self.conns[tenant][service].as_mut() {
            let frame = Frame::new(
                FrameKind::Reject,
                tenant as u32,
                service as u32,
                self.last_req[tenant][service],
                Vec::new(),
            );
            if conn.send(&frame).is_err() {
                self.conns[tenant][service] = None;
            }
        }
    }
}

/// The TCP front door: bind, accept every pair, serve, export.
pub struct FrontDoor {
    cfg: ServeConfig,
    listener: TcpListener,
}

impl FrontDoor {
    /// Binds the listener (pass port 0 for an ephemeral port; read it
    /// back with [`FrontDoor::local_addr`]).
    ///
    /// # Errors
    ///
    /// Socket bind failure.
    pub fn bind(cfg: ServeConfig, addr: &str) -> std::io::Result<FrontDoor> {
        let listener = TcpListener::bind(addr)?;
        Ok(FrontDoor { cfg, listener })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Socket introspection failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the whole serving session: accept every (tenant, service)
    /// pair (shedding tenants whose clients never arrive), warm up over
    /// the wire, serve the measured loop, broadcast Finish, and return
    /// the exports.
    ///
    /// # Errors
    ///
    /// Build/accept failures, malformed chaos specs, or broken
    /// end-of-run invariants. Client misbehavior is **not** an error —
    /// it degrades into sheds, exactly like every other loss path.
    pub fn run(self) -> Result<ServeOutcome, String> {
        let cfg = self.cfg;
        let mut cluster = build_cluster(&cfg)?;
        let conns = accept_pairs(&self.listener, &cfg)?;
        let plan = cluster
            .chaos_plans(cfg.chaos.as_deref())
            .map_err(|e| format!("--chaos: {e}"))?
            .pop()
            .flatten();
        let schedule = match cfg.mode {
            Mode::Closed => None,
            Mode::Open => cluster.open_schedules(cfg.requests).pop(),
        };

        let shard = &mut cluster.shards_mut()[0];
        // A tenant missing any pair cannot play the scenario: shed it up
        // front, exactly like a tenant shed at admission.
        for (t, pairs) in conns.iter().enumerate() {
            if pairs.iter().any(|c| c.is_none()) {
                shard.server.shed_tenant(t);
            }
        }
        let setup = drive::setup_counts(&drive::factories(shard, cfg.seed));
        let mut source = WireSource::new(conns);
        let served = shard
            .prologue(&mut source, &setup, plan, cfg.window.map(sampler_config))
            .and_then(|mut sampler| {
                let accepted = match &schedule {
                    None => drive::closed_loop(shard, &mut source, sampler.as_mut())?,
                    Some(s) => drive::open_loop(shard, &mut source, s, sampler.as_mut())?,
                };
                Ok((accepted, sampler))
            });
        source.finish();
        let (accepted, sampler) = served.map_err(|e| format!("shard 0: {e}"))?;
        let timeline = cluster.finish_samplers(vec![sampler])?;
        finish_outcome(&cluster, accepted, timeline, cfg.mode)
    }
}

/// The accept phase: collects one Hello'd connection per (tenant,
/// service) pair, refusing bad handshakes and scenario mismatches, until
/// every pair is settled or the accept deadline passes.
fn accept_pairs(
    listener: &TcpListener,
    cfg: &ServeConfig,
) -> Result<Vec<Vec<Option<FramedConn>>>, String> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener: {e}"))?;
    let mut slots: Vec<Vec<Slot>> = (0..cfg.tenants)
        .map(|_| (0..cfg.services).map(|_| Slot::Waiting).collect())
        .collect();
    let mut waiting = cfg.tenants * cfg.services;
    let deadline = Instant::now() + cfg.accept_timeout;
    while waiting > 0 && Instant::now() < deadline {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Some((t, s, outcome)) = greet(stream, cfg) {
                    if let Slot::Waiting = slots[t][s] {
                        waiting -= 1;
                        slots[t][s] = outcome;
                    }
                    // A duplicate claim never evicts the pair's settled
                    // connection; the newcomer was already aborted.
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(format!("accept: {e}")),
        }
    }
    Ok(slots
        .into_iter()
        .map(|pairs| {
            pairs
                .into_iter()
                .map(|slot| match slot {
                    Slot::Ready(conn) => Some(*conn),
                    _ => None,
                })
                .collect()
        })
        .collect())
}

/// Greets one fresh connection: optional transport handshake, then the
/// Hello exchange. Returns the claimed pair and its settled slot, or
/// `None` when the connection never identified a pair in range.
fn greet(stream: TcpStream, cfg: &ServeConfig) -> Option<(usize, usize, Slot)> {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(cfg.read_timeout)).is_err() {
        return None;
    }
    let mut conn = FramedConn::new(stream).ok()?;
    let first = conn.recv().ok()?;
    let tenant = first.tenant as usize;
    let service = first.service as usize;
    if tenant >= cfg.tenants || service >= cfg.services {
        let _ = conn.send(&abort(&first, "pair out of range"));
        return None;
    }
    let hello = if cfg.tls {
        if first.kind != FrameKind::ClientHello {
            let _ = conn.send(&abort(&first, "expected ClientHello"));
            return Some((tenant, service, Slot::Refused));
        }
        if session::server_handshake(&mut conn, &first, cfg.seed).is_err() {
            // The handshake already sent the typed Abort (rollback
            // offers land here).
            return Some((tenant, service, Slot::Refused));
        }
        match conn.recv() {
            Ok(f) => f,
            Err(_) => return Some((tenant, service, Slot::Refused)),
        }
    } else {
        first
    };
    if hello.kind != FrameKind::Hello
        || hello.tenant as usize != tenant
        || hello.service as usize != service
    {
        let _ = conn.send(&abort(&hello, "expected Hello for the claimed pair"));
        return Some((tenant, service, Slot::Refused));
    }
    match Scenario::decode(&hello.payload) {
        Ok(sc) if sc == cfg.scenario() => {}
        Ok(_) => {
            let _ = conn.send(&abort(&hello, "scenario mismatch"));
            return Some((tenant, service, Slot::Refused));
        }
        Err(e) => {
            let _ = conn.send(&abort(&hello, &e));
            return Some((tenant, service, Slot::Refused));
        }
    }
    if conn
        .send(&Frame::new(
            FrameKind::HelloAck,
            tenant as u32,
            service as u32,
            hello.req_id,
            Vec::new(),
        ))
        .is_err()
    {
        return Some((tenant, service, Slot::Refused));
    }
    Some((tenant, service, Slot::Ready(Box::new(conn))))
}

fn abort(cause: &Frame, reason: &str) -> Frame {
    Frame::new(
        FrameKind::Abort,
        cause.tenant,
        cause.service,
        cause.req_id,
        reason.as_bytes().to_vec(),
    )
}
