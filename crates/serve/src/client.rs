//! The wire load client behind `ne-load --connect`: one TCP connection
//! per (tenant, service) pair, each replaying the pair's seeded
//! [`RequestFactory`] stream against the front door — warmup frames fire
//! and forget, then the measured loop (closed: next request at the
//! previous reply; open: the whole stream up front, arrivals paced by
//! the server's seeded schedule).
//!
//! The report is **byte-deterministic**: everything in it (latencies,
//! digests, counters) is a simulation fact carried back in Reply frames,
//! never a wall-clock measurement, so two runs against servers with the
//! same seed render identical reports — asserted by the `wire_oracle`
//! tests and by CI's diff against `results/ne-serve-client.txt`.
//! Per-tenant reply digests use the exact
//! `ne-tenants/v1` packing, so they can be grepped straight against the
//! server's export.
//!
//! Reply payloads come from a peer, so this module may not index,
//! unwrap or panic.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

use std::net::TcpStream;
use std::time::Duration;

use ne_host::{push_hex, reply_digest, RequestFactory, ServiceKind};

use crate::conn::{ConnError, FramedConn};
use crate::frame::{Frame, FrameKind};
use crate::{hello_payload, session, Mode, Scenario, WireCompletion};

/// Wire client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// `host:port` of the front door.
    pub addr: String,
    /// Number of tenants (must match the server's scenario).
    pub tenants: usize,
    /// Services per tenant.
    pub services: usize,
    /// Measured requests per (tenant, service) pair.
    pub requests: usize,
    /// Base seed of every generator stream.
    pub seed: u64,
    /// Arrival process.
    pub mode: Mode,
    /// Run the transport handshake and seal every frame.
    pub tls: bool,
    /// Read deadline on every connection; the server side warms up and
    /// steps the simulation between replies, so this bounds patience,
    /// not throughput.
    pub read_timeout: Duration,
}

impl ClientConfig {
    /// A client playing `scenario` against `addr` (30 s read deadline).
    pub fn new(addr: String, scenario: &Scenario, tls: bool) -> ClientConfig {
        ClientConfig {
            addr,
            tenants: scenario.tenants,
            services: scenario.services,
            requests: scenario.requests,
            seed: scenario.seed,
            mode: scenario.mode,
            tls,
            read_timeout: Duration::from_secs(30),
        }
    }

    /// The scenario this client announces in its Hellos. Chaos and the
    /// timeline window are the server's alone, so both are unset.
    pub fn scenario(&self) -> Scenario {
        Scenario {
            mode: self.mode,
            ..Scenario::new(self.tenants, self.services, self.requests, self.seed)
        }
    }
}

/// What one pair's connection experienced.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// Tenant index.
    pub tenant: usize,
    /// Service index.
    pub service: usize,
    /// Measured requests sent (warmup excluded).
    pub sent: u64,
    /// Replies received, as `(service, seq, reply)` — the
    /// `ne-tenants/v1` digest unit.
    pub replies: Vec<(usize, u64, Vec<u8>)>,
    /// Reply latencies in simulated cycles, in arrival order.
    pub latencies: Vec<u64>,
    /// Requests the server rejected at admission.
    pub rejected: u64,
    /// Replies that failed the factory's sanity check.
    pub bad_replies: u64,
    /// A connection-fatal failure, if any.
    pub error: Option<String>,
}

impl PairOutcome {
    fn new(tenant: usize, service: usize) -> PairOutcome {
        PairOutcome {
            tenant,
            service,
            sent: 0,
            replies: Vec::new(),
            latencies: Vec::new(),
            rejected: 0,
            bad_replies: 0,
            error: None,
        }
    }

    fn failed(tenant: usize, service: usize, error: String) -> PairOutcome {
        PairOutcome {
            error: Some(error),
            ..PairOutcome::new(tenant, service)
        }
    }
}

/// The deterministic end-of-run report.
#[derive(Debug)]
pub struct ClientReport {
    cfg: ClientConfig,
    /// Per-pair outcomes in (tenant, service) order.
    pub pairs: Vec<PairOutcome>,
}

/// The wire load client: runs every pair's connection and renders the
/// report.
pub struct LoadClient {
    cfg: ClientConfig,
}

impl LoadClient {
    /// A client for `cfg`.
    pub fn new(cfg: ClientConfig) -> LoadClient {
        LoadClient { cfg }
    }

    /// Runs one connection per (tenant, service) pair, concurrently (the
    /// closed-loop server interleaves pulls across pairs, so serial
    /// clients would deadlock), and collects outcomes in (tenant,
    /// service) order.
    pub fn run(&self) -> ClientReport {
        let cfg = &self.cfg;
        let pairs: Vec<(usize, usize)> = (0..cfg.tenants)
            .flat_map(|t| (0..cfg.services).map(move |s| (t, s)))
            .collect();
        let outcomes = std::thread::scope(|scope| {
            let handles: Vec<_> = pairs
                .iter()
                .map(|&(t, s)| scope.spawn(move || run_pair(cfg, t, s)))
                .collect();
            handles
                .into_iter()
                .zip(&pairs)
                .map(|(h, &(t, s))| {
                    h.join()
                        .unwrap_or_else(|_| PairOutcome::failed(t, s, "panicked".to_string()))
                })
                .collect()
        });
        ClientReport {
            cfg: self.cfg.clone(),
            pairs: outcomes,
        }
    }
}

/// Drives one pair's whole session against the front door. Public so
/// tests can run a single well-behaved pair alongside a misbehaving one.
pub fn run_pair(cfg: &ClientConfig, tenant: usize, service: usize) -> PairOutcome {
    match pair_session(cfg, tenant, service) {
        Ok(outcome) => outcome,
        Err(e) => PairOutcome::failed(tenant, service, e.to_string()),
    }
}

fn pair_factory(cfg: &ClientConfig, tenant: usize, service: usize) -> RequestFactory {
    // The same (kind, global tenant, seed) the server's standard specs
    // produce — this is what makes the wire stream byte-identical to the
    // in-process factories.
    // INVARIANT: a remainder modulo the length is a valid index.
    #[allow(clippy::indexing_slicing)]
    let kind = ServiceKind::ALL[service % ServiceKind::ALL.len()];
    RequestFactory::new(kind, tenant, cfg.seed)
}

fn connect(cfg: &ClientConfig) -> Result<FramedConn, ConnError> {
    let stream = TcpStream::connect(&cfg.addr).map_err(|e| ConnError::Io(e.kind()))?;
    let _ = stream.set_nodelay(true);
    let conn = FramedConn::new(stream).map_err(|e| ConnError::Io(e.kind()))?;
    conn.set_read_timeout(Some(cfg.read_timeout))
        .map_err(|e| ConnError::Io(e.kind()))?;
    Ok(conn)
}

/// Connects, handshakes, Hellos, and returns the ready connection —
/// shared by the measured session and by tests that need a raw greeted
/// connection.
pub fn greet(cfg: &ClientConfig, tenant: usize, service: usize) -> Result<FramedConn, ConnError> {
    let mut conn = connect(cfg)?;
    if cfg.tls {
        session::client_handshake(&mut conn, cfg.seed, tenant, service)?;
    }
    conn.send(&Frame::new(
        FrameKind::Hello,
        tenant as u32,
        service as u32,
        0,
        hello_payload(&cfg.scenario()),
    ))?;
    let ack = conn.recv()?;
    match ack.kind {
        FrameKind::HelloAck => Ok(conn),
        FrameKind::Abort => Err(ConnError::Protocol(format!(
            "server refused Hello: {}",
            String::from_utf8_lossy(&ack.payload)
        ))),
        other => Err(ConnError::Protocol(format!(
            "expected HelloAck, got {other:?}"
        ))),
    }
}

fn pair_session(
    cfg: &ClientConfig,
    tenant: usize,
    service: usize,
) -> Result<PairOutcome, ConnError> {
    let mut conn = greet(cfg, tenant, service)?;
    let mut factory = pair_factory(cfg, tenant, service);
    let mut req_id = 0u64;
    // Warmup fires and forgets: the server serves these before the
    // measured window opens and never replies to them.
    for _ in 0..factory.setup_requests().max(1) {
        req_id += 1;
        conn.send(&request_frame(tenant, service, req_id, &mut factory))?;
    }
    match cfg.mode {
        Mode::Closed => closed_session(cfg, tenant, service, conn, factory, req_id),
        Mode::Open => open_session(cfg, tenant, service, conn, factory, req_id),
    }
}

fn request_frame(
    tenant: usize,
    service: usize,
    req_id: u64,
    factory: &mut RequestFactory,
) -> Frame {
    Frame::new(
        FrameKind::Request,
        tenant as u32,
        service as u32,
        req_id,
        factory.next_request(),
    )
}

fn done_frame(tenant: usize, service: usize) -> Frame {
    Frame::new(
        FrameKind::Done,
        tenant as u32,
        service as u32,
        0,
        Vec::new(),
    )
}

/// Records one Reply frame into the outcome.
fn record_reply(
    outcome: &mut PairOutcome,
    factory: &RequestFactory,
    frame: &Frame,
) -> Result<(), ConnError> {
    let wc = WireCompletion::decode(&frame.payload).map_err(ConnError::Protocol)?;
    if !factory.check_reply(&wc.reply) {
        outcome.bad_replies += 1;
    }
    outcome.latencies.push(wc.latency);
    outcome.replies.push((outcome.service, wc.seq, wc.reply));
    Ok(())
}

fn closed_session(
    cfg: &ClientConfig,
    tenant: usize,
    service: usize,
    mut conn: FramedConn,
    mut factory: RequestFactory,
    mut req_id: u64,
) -> Result<PairOutcome, ConnError> {
    let mut outcome = PairOutcome::new(tenant, service);
    if cfg.requests == 0 {
        conn.send(&done_frame(tenant, service))?;
    } else {
        req_id += 1;
        conn.send(&request_frame(tenant, service, req_id, &mut factory))?;
        outcome.sent += 1;
    }
    let mut finished_sending = cfg.requests == 0;
    loop {
        let frame = conn.recv()?;
        match frame.kind {
            FrameKind::Reply => {
                record_reply(&mut outcome, &factory, &frame)?;
                if (outcome.sent as usize) < cfg.requests {
                    req_id += 1;
                    conn.send(&request_frame(tenant, service, req_id, &mut factory))?;
                    outcome.sent += 1;
                } else if !finished_sending {
                    conn.send(&done_frame(tenant, service))?;
                    finished_sending = true;
                }
            }
            FrameKind::Reject => {
                // Admission closed this pair; nothing more will be
                // pulled. Wait for the broadcast Finish.
                outcome.rejected += 1;
            }
            FrameKind::Finish => return Ok(outcome),
            FrameKind::Abort => {
                return Err(ConnError::Protocol(format!(
                    "server aborted: {}",
                    String::from_utf8_lossy(&frame.payload)
                )))
            }
            other => {
                return Err(ConnError::Protocol(format!(
                    "unexpected frame {other:?} mid-session"
                )))
            }
        }
    }
}

fn open_session(
    cfg: &ClientConfig,
    tenant: usize,
    service: usize,
    conn: FramedConn,
    mut factory: RequestFactory,
    mut req_id: u64,
) -> Result<PairOutcome, ConnError> {
    let mut outcome = PairOutcome::new(tenant, service);
    // The reply check only reads the factory's identity, never its RNG
    // position, so a dedicated checker keyed the same way is equivalent.
    let checker = pair_factory(cfg, tenant, service);
    let (mut tx, mut rx) = conn.into_split();
    std::thread::scope(|scope| -> Result<(), ConnError> {
        // The server paces pulls by its seeded schedule while replies
        // stream back interleaved; writing from a second thread keeps
        // the stream full without blocking reads.
        let writer = scope.spawn(move || -> Result<u64, ConnError> {
            let mut sent = 0u64;
            for _ in 0..cfg.requests {
                req_id += 1;
                tx.send(&request_frame(tenant, service, req_id, &mut factory))?;
                sent += 1;
            }
            tx.send(&done_frame(tenant, service))?;
            Ok(sent)
        });
        loop {
            let frame = match rx.recv() {
                Ok(f) => f,
                Err(ConnError::Closed) => break,
                Err(e) => return Err(e),
            };
            match frame.kind {
                FrameKind::Reply => record_reply(&mut outcome, &checker, &frame)?,
                FrameKind::Reject => outcome.rejected += 1,
                FrameKind::Finish => break,
                FrameKind::Abort => {
                    return Err(ConnError::Protocol(format!(
                        "server aborted: {}",
                        String::from_utf8_lossy(&frame.payload)
                    )))
                }
                other => {
                    return Err(ConnError::Protocol(format!(
                        "unexpected frame {other:?} mid-session"
                    )))
                }
            }
        }
        outcome.sent = writer
            .join()
            .map_err(|_| ConnError::Protocol("writer panicked".to_string()))??;
        Ok(())
    })?;
    Ok(outcome)
}

/// Nearest-rank percentile of an already sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted
        .get(rank.saturating_sub(1))
        .or(sorted.last())
        .copied()
        .unwrap_or(0)
}

impl ClientReport {
    /// Renders the deterministic report: a scenario header, one line per
    /// tenant (counters, simulated-latency percentiles, and the
    /// `ne-tenants/v1` reply digest), error lines for failed pairs, and
    /// a total line.
    pub fn render(&self) -> String {
        let cfg = &self.cfg;
        let mut out = format!(
            "ne-load wire report: {} tenants x {} services, {} requests per pair, \
             seed {}, mode {}, tls {}\n",
            cfg.tenants,
            cfg.services,
            cfg.requests,
            cfg.seed,
            cfg.mode.name(),
            if cfg.tls { "on" } else { "off" },
        );
        let mut total_sent = 0u64;
        let mut total_replies = 0u64;
        let mut total_rejected = 0u64;
        for t in 0..cfg.tenants {
            let pairs: Vec<&PairOutcome> = self.pairs.iter().filter(|p| p.tenant == t).collect();
            let sent: u64 = pairs.iter().map(|p| p.sent).sum();
            let replies: u64 = pairs.iter().map(|p| p.replies.len() as u64).sum();
            let rejected: u64 = pairs.iter().map(|p| p.rejected).sum();
            let bad: u64 = pairs.iter().map(|p| p.bad_replies).sum();
            total_sent += sent;
            total_replies += replies;
            total_rejected += rejected;
            let mut latencies: Vec<u64> = pairs
                .iter()
                .flat_map(|p| p.latencies.iter().copied())
                .collect();
            latencies.sort_unstable();
            // The server's per-tenant digest unit, byte for byte.
            let digest = reply_digest(
                pairs
                    .iter()
                    .flat_map(|p| p.replies.iter())
                    .map(|(s, seq, reply)| (*s, *seq, reply.as_slice())),
            );
            out.push_str(&format!(
                "tenant {t} sent {sent} replies {replies} rejected {rejected} \
                 shed {} bad {bad} latency_p50 {} p99 {} replies sha256:",
                sent.saturating_sub(replies + rejected),
                percentile(&latencies, 50.0),
                percentile(&latencies, 99.0),
            ));
            push_hex(&mut out, &digest);
            out.push('\n');
            for p in pairs.iter().filter(|p| p.error.is_some()) {
                out.push_str(&format!(
                    "pair {}.{}: error {}\n",
                    p.tenant,
                    p.service,
                    p.error.as_deref().unwrap_or(""),
                ));
            }
        }
        out.push_str(&format!(
            "total: sent {total_sent} replies {total_replies} rejected {total_rejected}\n"
        ));
        out
    }
}
