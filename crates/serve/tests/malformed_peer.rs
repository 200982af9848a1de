//! Malformed-peer regressions: no byte sequence a client can send may
//! panic the front door. Garbage is refused with typed errors, the
//! offending tenant is shed through the normal admission counters, and
//! every other tenant's run completes byte-exactly.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use ne_serve::client::run_pair;
use ne_serve::frame::{Decoder, Frame, FrameKind, MAX_PAYLOAD};
use ne_serve::session::{client_random, encode_client_hello};
use ne_serve::{
    hello_payload, ClientConfig, ConnError, FrameError, FramedConn, FrontDoor, Mode, Scenario,
    ServeConfig,
};
use ne_tls::handshake::{CipherSuite, ClientHello, TLS_VERSION};

fn scenario(tls: bool) -> ServeConfig {
    let mut cfg = ServeConfig::new(2, 1, 2, 0xFA11_FEED);
    cfg.tls = tls;
    cfg.read_timeout = Duration::from_millis(250);
    cfg.accept_timeout = Duration::from_secs(10);
    cfg
}

fn client_config(cfg: &ServeConfig, addr: String) -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(10),
        ..ClientConfig::new(addr, &cfg.scenario, cfg.tls)
    }
}

fn export_line(export: &str, tenant: usize) -> &str {
    export
        .lines()
        .find(|l| l.starts_with(&format!("tenant {tenant} ")))
        .expect("tenant line in export")
}

/// Reads frames off a raw socket until one decodes (helper for tests
/// that drive the wire by hand).
fn read_frame(stream: &mut TcpStream, decoder: &mut Decoder) -> Frame {
    loop {
        if let Some(frame) = decoder.next_frame().expect("decode") {
            return frame;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).expect("read");
        assert!(n > 0, "peer closed before a frame arrived");
        decoder.feed(&chunk[..n]).expect("feed");
    }
}

/// A hostile client that pipelines garbage bytes behind its ClientHello
/// in a single TCP write. Enabling records with plaintext still
/// buffered would desynchronize the stream — the server must refuse the
/// connection with a typed error (this used to be an `assert!` in
/// `enable_tls`, i.e. a remotely-triggerable panic) and the honest
/// tenant must be untouched.
#[test]
fn pipelined_handshake_bytes_are_refused_not_panicked() {
    let cfg = scenario(true);
    let door = FrontDoor::bind(cfg.clone(), "127.0.0.1:0").expect("bind");
    let addr = door.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || door.run());
    let ccfg = client_config(&cfg, addr.clone());

    let mut stream = TcpStream::connect(&addr).expect("connect");
    let hello = ClientHello {
        version: TLS_VERSION,
        suites: vec![CipherSuite::Aes128Gcm],
        random: client_random(cfg.scenario.seed, 0, 0),
    };
    let mut bytes =
        Frame::new(FrameKind::ClientHello, 0, 0, 0, encode_client_hello(&hello)).encode();
    bytes.extend_from_slice(b"pipelined plaintext the record layer must never see");
    stream.write_all(&bytes).expect("write offer + garbage");

    // The server must survive: the honest pair completes, the hostile
    // pair's tenant serves nothing.
    let good = run_pair(&ccfg, 1, 0);
    let outcome = server.join().expect("server thread").expect("serve run");
    assert_eq!(good.error, None, "good pair failed: {:?}", good.error);
    assert_eq!(good.replies.len(), cfg.scenario.requests);
    assert!(export_line(&outcome.tenants_export, 0).contains("accepted 0"));
    assert!(export_line(&outcome.tenants_export, 1)
        .contains(&format!("completed {}", cfg.scenario.requests)));
}

/// A fuzzed frame after a clean Hello: the greeted pair starts spewing
/// bytes that are not frames. The decoder latches a typed error, the
/// tenant is shed, and the rest of the run is untouched.
#[test]
fn fuzzed_frame_sheds_the_tenant_only() {
    let cfg = scenario(false);
    let door = FrontDoor::bind(cfg.clone(), "127.0.0.1:0").expect("bind");
    let addr = door.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || door.run());
    let ccfg = client_config(&cfg, addr.clone());

    // Hello by hand on a raw socket so the fuzz bytes can follow.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    stream
        .write_all(&Frame::new(FrameKind::Hello, 0, 0, 0, hello_payload(&ccfg.scenario())).encode())
        .expect("hello");
    let mut decoder = Decoder::new();
    let ack = read_frame(&mut stream, &mut decoder);
    assert_eq!(ack.kind, FrameKind::HelloAck);

    // Deterministic fuzz: a byte soup that breaks the magic on the
    // first header and keeps the stream poisoned from there.
    let junk: Vec<u8> = (0u32..512)
        .map(|i| (i.wrapping_mul(167) >> 3) as u8)
        .collect();
    stream.write_all(&junk).expect("fuzz");

    let good = run_pair(&ccfg, 1, 0);
    let outcome = server.join().expect("server thread").expect("serve run");
    assert_eq!(good.error, None, "good pair failed: {:?}", good.error);
    assert_eq!(good.replies.len(), cfg.scenario.requests);
    assert!(export_line(&outcome.tenants_export, 0).contains("accepted 0"));
    assert!(export_line(&outcome.tenants_export, 1)
        .contains(&format!("completed {}", cfg.scenario.requests)));
}

/// A hostile client that completes the transport handshake and then
/// spews bytes that are not records: the server's record layer must
/// refuse them with a typed error (`RecordLayer::open` used to carry a
/// panic-typed length conversion on this path), the hostile tenant is
/// shed, and the honest tenant's run is untouched.
#[test]
fn garbage_tls_records_are_refused_not_panicked() {
    let cfg = scenario(true);
    let door = FrontDoor::bind(cfg.clone(), "127.0.0.1:0").expect("bind");
    let addr = door.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || door.run());
    let ccfg = client_config(&cfg, addr.clone());

    // Offer a well-formed ClientHello so the server commits to sealed
    // records, then feed it a "record" whose body is garbage.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let hello = ClientHello {
        version: TLS_VERSION,
        suites: vec![CipherSuite::Aes128Gcm],
        random: client_random(cfg.scenario.seed, 0, 0),
    };
    stream
        .write_all(
            &Frame::new(FrameKind::ClientHello, 0, 0, 0, encode_client_hello(&hello)).encode(),
        )
        .expect("offer");
    let mut decoder = Decoder::new();
    let answer = read_frame(&mut stream, &mut decoder);
    assert_eq!(answer.kind, FrameKind::ServerHello);
    // A plausible record header (Data type, 16-byte body) followed by
    // bytes that cannot authenticate: the open must fail typed, never
    // panic.
    let mut junk = vec![23u8, 16, 0, 0, 0];
    junk.extend_from_slice(&[0xA5; 16]);
    stream.write_all(&junk).expect("garbage record");

    let good = run_pair(&ccfg, 1, 0);
    let outcome = server.join().expect("server thread").expect("serve run");
    assert_eq!(good.error, None, "good pair failed: {:?}", good.error);
    assert_eq!(good.replies.len(), cfg.scenario.requests);
    assert!(export_line(&outcome.tenants_export, 0).contains("accepted 0"));
    assert!(export_line(&outcome.tenants_export, 1)
        .contains(&format!("completed {}", cfg.scenario.requests)));
}

/// A hostile *server* answering a Reply frame whose payload is too short
/// to be a completion: the client must fail that pair with a typed
/// protocol error, not a panic or an out-of-bounds read.
#[test]
fn malformed_reply_payload_is_a_typed_client_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let fake_server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut conn = FramedConn::new(stream).expect("conn");
        // Greet the pair, then answer its first request with a Reply
        // whose payload cannot hold a completion header.
        loop {
            let f = conn.recv().expect("client frame");
            match f.kind {
                FrameKind::Hello => {
                    conn.send(&Frame::new(
                        FrameKind::HelloAck,
                        f.tenant,
                        f.service,
                        f.req_id,
                        Vec::new(),
                    ))
                    .expect("ack");
                }
                FrameKind::Request => {
                    conn.send(&Frame::new(
                        FrameKind::Reply,
                        f.tenant,
                        f.service,
                        1,
                        vec![9u8; 10],
                    ))
                    .expect("short reply");
                    return;
                }
                other => panic!("unexpected client frame {other:?}"),
            }
        }
    });
    let ccfg = ClientConfig {
        addr,
        tenants: 1,
        services: 1,
        requests: 2,
        seed: 0xFA11_FEED,
        mode: ne_serve::Mode::Closed,
        tls: false,
        read_timeout: Duration::from_secs(10),
    };
    let outcome = run_pair(&ccfg, 0, 0);
    fake_server.join().expect("fake server");
    let err = outcome.error.expect("pair must fail typed");
    assert!(
        err.contains("Reply"),
        "want a malformed-Reply protocol error, got {err}"
    );
}

/// An oversized payload is refused at the send seam with the typed
/// frame error — not a panic — and the connection stays healthy for
/// well-formed frames afterwards.
#[test]
fn oversized_send_is_a_typed_error_not_a_panic() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let mut conn = FramedConn::new(stream).expect("conn");
        conn.recv().expect("valid frame after the refused one")
    });
    let mut conn = FramedConn::new(TcpStream::connect(addr).expect("connect")).expect("conn");
    let huge = Frame::new(FrameKind::Request, 0, 0, 1, vec![0u8; MAX_PAYLOAD + 1]);
    match conn.send(&huge) {
        Err(ConnError::Frame(FrameError::Oversized(n))) => {
            assert_eq!(n as usize, MAX_PAYLOAD + 1)
        }
        other => panic!("want Oversized, got {other:?}"),
    }
    let ok = Frame::new(FrameKind::Request, 0, 0, 2, vec![7; 16]);
    conn.send(&ok).expect("stream survives the refusal");
    assert_eq!(peer.join().expect("peer"), ok);
}

/// The Hello payload's 21 bytes: seed, mode byte, then requests, tenants
/// and services as `u32`.
#[test]
fn hello_layout_is_pinned() {
    let open = Scenario {
        mode: Mode::Open,
        ..Scenario::new(3, 2, 8, 7)
    };
    let mut want = 7u64.to_le_bytes().to_vec();
    want.push(1);
    for n in [8u32, 3, 2] {
        want.extend_from_slice(&n.to_le_bytes());
    }
    assert_eq!(hello_payload(&open), want);
}

/// A Hello payload of the wrong length or with an unknown mode byte is
/// refused with a typed Abort, and the run still ends cleanly.
#[test]
fn malformed_hellos_get_typed_refusals() {
    let cfg = scenario(false);
    let door = FrontDoor::bind(cfg.clone(), "127.0.0.1:0").expect("bind");
    let addr = door.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || door.run());
    let good = hello_payload(&cfg.scenario);
    let mut bad_mode = good.clone();
    bad_mode[8] = 2;
    for (tenant, payload, reason) in [
        (0, &good[..20], "malformed Hello payload"),
        (1, &bad_mode[..], "unknown mode 2"),
    ] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let hello = Frame::new(FrameKind::Hello, tenant, 0, 0, payload.to_vec());
        stream.write_all(&hello.encode()).expect("hello");
        let answer = read_frame(&mut stream, &mut Decoder::new());
        assert_eq!(answer.kind, FrameKind::Abort);
        assert_eq!(answer.payload, reason.as_bytes());
    }
    let outcome = server.join().expect("server thread").expect("serve run");
    assert_eq!(outcome.accepted, 0, "both tenants were refused");
}

/// Connections still queued when every pair has settled — a claim on a
/// pair outside the scenario and a second claim on a settled pair — read
/// typed refusals, not the reset of a listener closed under them.
#[test]
fn queued_connections_get_typed_refusals() {
    let mut cfg = scenario(false);
    cfg.scenario.tenants = 1;
    let door = FrontDoor::bind(cfg.clone(), "127.0.0.1:0").expect("bind");
    let addr = door.local_addr().expect("addr").to_string();
    let payload = hello_payload(&cfg.scenario);
    // Queue the only pair's Hello, then two more, before the server
    // accepts anything.
    let queued = [
        (0, FrameKind::HelloAck, ""),
        (1, FrameKind::Abort, "pair out of range"),
        (0, FrameKind::Abort, "pair already claimed"),
    ];
    let mut streams: Vec<_> = queued
        .into_iter()
        .map(|(tenant, kind, reason)| {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let hello = Frame::new(FrameKind::Hello, tenant, 0, 0, payload.clone());
            stream.write_all(&hello.encode()).expect("hello");
            (stream, kind, reason)
        })
        .collect();
    let server = std::thread::spawn(move || door.run());
    for (stream, kind, reason) in &mut streams {
        let answer = read_frame(stream, &mut Decoder::new());
        assert_eq!(
            (answer.kind, &answer.payload[..]),
            (*kind, reason.as_bytes())
        );
    }
    // The greeted pair sends no requests; it is shed when its read
    // deadline passes and the run still ends cleanly.
    let outcome = server.join().expect("server thread").expect("serve run");
    assert_eq!(outcome.refused_pairs, 0);
}
