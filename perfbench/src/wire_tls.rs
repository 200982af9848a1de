//! `wire-tls`: an `ne-serve` `FrontDoor` on loopback with TLS records on
//! the wire, loaded by 2 connections (2 tenants × 1 echo service), each a
//! closed loop that sends its next request only after the reply arrives.

use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

use ne_host::{RequestFactory, ServiceKind};
use ne_serve::client::{greet, ClientConfig};
use ne_serve::frame::HEADER_LEN;
use ne_serve::{Frame, FrameKind, FramedConn, FrontDoor, Mode, ServeConfig, WireCompletion};
use ne_tls::record::RECORD_OVERHEAD;

use crate::session::{digest, Session, Setup};
use crate::stats::{current_tid, thread_cpu_ns, Outcome, Tally};
use crate::trace::{absorb, Span, Tracer};

/// Tenants, one echo connection each.
pub const TENANTS: usize = 2;
/// Measured requests per connection and session.
pub const REQUESTS_PER_PAIR: usize = 1000;
/// Patience on every socket read and on the accept phase.
const TIMEOUT: Duration = Duration::from_secs(10);

/// What one client connection measured.
#[derive(Default)]
struct ClientOut {
    greeted: Option<Instant>,
    handshake_ns: u64,
    latencies: Vec<u64>,
    tally: Tally,
    spans: Vec<Span>,
    end: Option<Instant>,
    server_cpu_at_end: Option<u64>,
    wire_bytes: u64,
    replies: Vec<u8>,
    problems: Vec<String>,
}

fn request(tenant: usize, req_id: u64, factory: &mut RequestFactory) -> Frame {
    Frame::new(
        FrameKind::Request,
        tenant as u32,
        0,
        req_id,
        factory.next_request(),
    )
}

/// One connection's whole life: handshake, warmup, the measured closed
/// loop, then Done and the server's Finish.
fn client(
    cfg: &ClientConfig,
    tenant: usize,
    traced: bool,
    epoch: Instant,
    ready: &Barrier,
    server_tid: Option<u64>,
) -> ClientOut {
    let mut out = ClientOut::default();
    let g0 = Instant::now();
    let greeted = greet(cfg, tenant, 0);
    out.greeted = Some(Instant::now());
    out.handshake_ns = g0.elapsed().as_nanos() as u64;
    let mut conn = match greeted {
        Ok(c) => c,
        Err(e) => {
            out.problems.push(format!("tenant {tenant} greet: {e}"));
            ready.wait();
            return out;
        }
    };
    let mut factory = RequestFactory::new(ServiceKind::TlsEcho, tenant, cfg.seed);
    let mut req_id = 0u64;
    // Warmup requests are served before the window and never replied to.
    for _ in 0..factory.setup_requests().max(1) {
        req_id += 1;
        if let Err(e) = conn.send(&request(tenant, req_id, &mut factory)) {
            out.problems
                .push(format!("tenant {tenant} warmup send: {e}"));
        }
    }
    ready.wait();
    if out.problems.is_empty() {
        measured_loop(
            &mut out,
            &mut conn,
            tenant,
            &mut factory,
            req_id,
            traced,
            epoch,
        );
    }
    out.end = Some(Instant::now());
    // The server is blocked reading this connection until Done arrives,
    // so its thread is alive to be read.
    out.server_cpu_at_end = server_tid.and_then(thread_cpu_ns);
    let finished = conn
        .send(&Frame::new(
            FrameKind::Done,
            tenant as u32,
            0,
            0,
            Vec::new(),
        ))
        .and_then(|()| loop {
            if conn.recv()?.kind == FrameKind::Finish {
                return Ok(());
            }
        });
    if let Err(e) = finished {
        out.problems.push(format!("tenant {tenant} finish: {e}"));
    }
    out
}

fn measured_loop(
    out: &mut ClientOut,
    conn: &mut FramedConn,
    tenant: usize,
    factory: &mut RequestFactory,
    mut req_id: u64,
    traced: bool,
    epoch: Instant,
) {
    let mut tr = Tracer::new(epoch, traced);
    let root = tr.open("bench.client", 0);
    for _ in 0..REQUESTS_PER_PAIR {
        req_id += 1;
        let frame = tr.span("bench.gen", req_id, || request(tenant, req_id, factory));
        let sent = Instant::now();
        if let Err(e) = tr.span("serve.send", req_id, || conn.send(&frame)) {
            out.problems.push(format!("tenant {tenant} send: {e}"));
            out.tally.record(Outcome::Failed);
            break;
        }
        let reply = match tr.span("serve.recv", req_id, || conn.recv()) {
            Ok(r) => r,
            Err(e) => {
                out.problems.push(format!("tenant {tenant} recv: {e}"));
                out.tally.record(Outcome::Failed);
                break;
            }
        };
        out.latencies.push(sent.elapsed().as_nanos() as u64);
        let outcome = tr.span("bench.check", req_id, || match reply.kind {
            FrameKind::Reply => match WireCompletion::decode(&reply.payload) {
                Ok(wc) if factory.check_reply(&wc.reply) && wc.reply == frame.payload => {
                    out.replies.extend_from_slice(&wc.seq.to_le_bytes());
                    out.replies.extend_from_slice(&wc.reply);
                    Outcome::Ok
                }
                _ => Outcome::BadReply,
            },
            FrameKind::Reject => Outcome::Rejected,
            _ => Outcome::Failed,
        });
        out.tally.record(outcome);
        out.wire_bytes +=
            (2 * (RECORD_OVERHEAD + HEADER_LEN) + frame.payload.len() + reply.payload.len()) as u64;
        if outcome != Outcome::Ok {
            out.problems
                .push(format!("tenant {tenant} request {req_id}: {outcome:?}"));
            break;
        }
    }
    tr.close(root);
    out.spans = tr.into_spans();
}

/// Runs one session: bind, serve, connect both clients, measure.
///
/// # Errors
///
/// Socket bind failure.
pub fn session(seed: u64, traced: bool, epoch: Instant) -> Result<Session, String> {
    let t0 = Instant::now();
    let mut scfg = ServeConfig::new(TENANTS, 1, REQUESTS_PER_PAIR, seed);
    scfg.tls = true;
    scfg.read_timeout = TIMEOUT;
    scfg.accept_timeout = TIMEOUT;
    let door = FrontDoor::bind(scfg, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = door.local_addr().map_err(|e| format!("local addr: {e}"))?;
    let ccfg = ClientConfig {
        addr: addr.to_string(),
        tenants: TENANTS,
        services: 1,
        requests: REQUESTS_PER_PAIR,
        seed,
        mode: Mode::Closed,
        tls: true,
        read_timeout: TIMEOUT,
    };
    let ready = Barrier::new(TENANTS + 1);
    let (served, clients, w0, cpu0) = std::thread::scope(|scope| {
        let (tid_tx, tid_rx) = mpsc::channel();
        let server = scope.spawn(move || {
            let _ = tid_tx.send(current_tid());
            door.run()
        });
        let server_tid = tid_rx.recv().ok().flatten();
        let clients: Vec<_> = (0..TENANTS)
            .map(|t| {
                let (ccfg, ready) = (&ccfg, &ready);
                scope.spawn(move || client(ccfg, t, traced, epoch, ready, server_tid))
            })
            .collect();
        ready.wait();
        let w0 = Instant::now();
        let cpu0 = server_tid.and_then(thread_cpu_ns);
        let clients: Vec<ClientOut> = clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let served = server.join().expect("server thread panicked");
        (served, clients, w0, cpu0)
    });

    let mut out = Session::default();
    let greeted = clients.iter().filter_map(|c| c.greeted).max().unwrap_or(w0);
    out.setup = Setup {
        build_s: (greeted - t0).as_secs_f64(),
        warmup_s: w0.saturating_duration_since(greeted).as_secs_f64(),
    };
    let last = clients
        .iter()
        .filter_map(|c| c.end.map(|e| (e, c.server_cpu_at_end)))
        .max();
    out.window_ns = last.map_or(0, |(end, _)| (end - w0).as_nanos() as u64);
    let mut wire_bytes = 0;
    let mut handshake_ns = 0;
    let mut pair_digests = Vec::new();
    for c in clients {
        out.problems.extend(c.problems);
        out.tally.add(c.tally);
        out.latencies_ns.extend(c.latencies);
        absorb(&mut out.spans, c.spans);
        wire_bytes += c.wire_bytes;
        handshake_ns += c.handshake_ns;
        pair_digests.push(digest([c.replies.as_slice()]));
    }
    out.completed = out.latencies_ns.len() as u64;
    let server_ns = match (cpu0, last.and_then(|(_, cpu)| cpu)) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => {
            out.problems
                .push("server thread CPU time unreadable".to_string());
            0
        }
    };
    let per_req = |v: u64| v as f64 / out.completed.max(1) as f64;
    out.counts = vec![
        (
            "serve.handshake_ms",
            handshake_ns as f64 / TENANTS as f64 / 1e6,
        ),
        ("serve.server_ns_per_req", per_req(server_ns)),
        ("serve.wire_bytes_per_req", per_req(wire_bytes)),
    ];
    match served {
        Ok(o) => {
            let expected = (TENANTS * REQUESTS_PER_PAIR) as u64;
            if o.accepted != expected || out.completed != expected {
                out.problems.push(format!(
                    "server accepted {} and clients completed {} of {expected} requests",
                    o.accepted, out.completed
                ));
            }
            out.digest = digest(
                [o.tenants_export.as_bytes(), o.metrics_json.as_bytes()]
                    .into_iter()
                    .chain(pair_digests.iter().map(|d| d.as_bytes())),
            );
            out.metrics_json = o.metrics_json;
        }
        Err(e) => out.problems.push(format!("front door: {e}")),
    }
    if out.tally.failed > 0 {
        out.problems.push(format!(
            "{} of {} requests failed",
            out.tally.failed, out.tally.attempted
        ));
    }
    Ok(out)
}
