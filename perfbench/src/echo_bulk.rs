//! `echo-bulk`: the nested SSL echo of Fig. 7 — 4 KiB records through the
//! `ssl` outer and `app` inner enclave on one core, one message at a
//! time, sealed and opened by a client-side record layer.

use std::time::Instant;

use ne_tls::echo::{build_echo_app, EchoConfig, NET_SYSCALL_CYCLES};
use ne_tls::record::{ContentType, RecordLayer};

use crate::session::{digest, Session, Setup};
use crate::stats::{Outcome, Tally};
use crate::trace::Tracer;

/// Payload bytes per message.
pub const CHUNK: usize = 4096;
/// Measured messages per session.
pub const MESSAGES: usize = 1000;
/// Round trips before the window, so TLB and LLC start warm.
pub const WARMUP: usize = 8;
/// The session key `build_echo_app` provisions (the paper's § VI-A
/// pre-shared key assumption).
const SESSION_KEY: [u8; 16] = [0x42; 16];

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded payload of message `i`.
fn payload(seed: u64, i: u64, buf: &mut Vec<u8>) {
    buf.clear();
    let mut x = splitmix64(seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F));
    while buf.len() < CHUNK {
        x = splitmix64(x);
        buf.extend_from_slice(&x.to_le_bytes());
    }
    buf.truncate(CHUNK);
}

/// Runs one session: build the two enclaves, warm up, then the measured
/// message loop.
///
/// # Errors
///
/// Enclave build failure.
pub fn session(seed: u64, traced: bool, epoch: Instant) -> Result<Session, String> {
    let t0 = Instant::now();
    let mut app = build_echo_app(&EchoConfig {
        chunk_size: CHUNK,
        num_messages: MESSAGES,
        nested: true,
        trace: false,
        reference: false,
    })
    .map_err(|e| format!("echo build: {e}"))?;
    let t1 = Instant::now();
    let mut client_tx = RecordLayer::new(SESSION_KEY);
    let mut client_rx = RecordLayer::new(SESSION_KEY);
    let mut out = Session::default();
    let mut buf = Vec::with_capacity(CHUNK);
    for i in 0..WARMUP as u64 {
        payload(seed, u64::MAX - i, &mut buf);
        let wire = client_tx.seal(ContentType::Data, &buf);
        app.untrusted(0, |cx| cx.charge(NET_SYSCALL_CYCLES));
        let reply = app
            .ecall(0, "app", "echo_record", &wire)
            .map_err(|e| format!("warmup ecall: {e}"))?;
        if client_rx.open(&reply).map(|(_, p)| p == buf) != Ok(true) {
            out.problems
                .push("warmup echo was not faithful".to_string());
        }
    }
    app.machine.reset_metrics();
    let t2 = Instant::now();
    out.setup = Setup {
        build_s: (t1 - t0).as_secs_f64(),
        warmup_s: (t2 - t1).as_secs_f64(),
    };

    let mut tr = Tracer::new(epoch, traced);
    let mut tally = Tally::default();
    let mut latencies = Vec::with_capacity(MESSAGES);
    // Each reply's GCM tag authenticates its whole ciphertext, so the
    // tags digest the reply stream without hashing 4 KiB per message.
    let mut tags = Vec::with_capacity(MESSAGES * 16);
    let w0 = Instant::now();
    let root = tr.open("bench.session", 0);
    for i in 0..MESSAGES as u64 {
        let req = i + 1;
        tr.span("bench.gen", req, || payload(seed, i, &mut buf));
        let sent = Instant::now();
        let wire = tr.span("tls.seal", req, || client_tx.seal(ContentType::Data, &buf));
        tr.span("core.untrusted", req, || {
            app.untrusted(0, |cx| cx.charge(NET_SYSCALL_CYCLES))
        });
        let reply = match tr.span("core.ecall", req, || {
            app.ecall(0, "app", "echo_record", &wire)
        }) {
            Ok(r) => r,
            Err(e) => {
                out.problems.push(format!("ecall failed: {e}"));
                tally.record(Outcome::Failed);
                break;
            }
        };
        let opened = tr.span("tls.open", req, || client_rx.open(&reply));
        let ok = tr.span(
            "bench.check",
            req,
            || matches!(&opened, Ok((ContentType::Data, echoed)) if *echoed == buf),
        );
        latencies.push(sent.elapsed().as_nanos() as u64);
        tally.record(if ok { Outcome::Ok } else { Outcome::BadReply });
        tags.extend_from_slice(&reply[reply.len().saturating_sub(16)..]);
    }
    tr.close(root);
    out.window_ns = w0.elapsed().as_nanos() as u64;

    let metrics = app.machine.metrics();
    if let Err(e) = metrics.check() {
        out.problems.push(format!("metrics identities: {e}"));
    }
    if tally.failed > 0 {
        out.problems.push(format!(
            "{} of {} echoes failed",
            tally.failed, tally.attempted
        ));
    }
    out.metrics_json = metrics.to_json();
    out.digest = digest([out.metrics_json.as_bytes(), &tags]);
    out.completed = latencies.len() as u64;
    out.tally = tally;
    out.latencies_ns = latencies;
    out.spans = tr.into_spans();
    Ok(out)
}
