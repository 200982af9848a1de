//! The SSL echo server of Fig. 7.
//!
//! A client exchanges fixed-size chunks with an echo server over the
//! mini-TLS record layer. Two server configurations:
//!
//! * **monolithic** — the SSL library and the application code share one
//!   enclave (the paper's baseline);
//! * **nested** — the library runs in the outer enclave and the
//!   application (which holds the session keys and does all record
//!   encryption, § VI-A) in an inner enclave; every library call becomes
//!   an `n_ocall` crossing the protection boundary.
//!
//! Costs are charged in simulated cycles: AES-GCM per the cost profile,
//! and a fixed per-message network/syscall cost modelling the kernel
//! socket stack of the paper's real client/server testbed.

use crate::record::{ContentType, RecordLayer};
use ne_core::edl::Edl;
use ne_core::loader::EnclaveImage;
use ne_core::runtime::{NestedApp, TrustedFn, UntrustedFn};
use ne_sgx::config::HwConfig;
use ne_sgx::error::SgxError;
use ne_sgx::spantree::TraceBundle;
use std::sync::{Arc, Mutex};

/// Simulated cycles for one network send/receive (syscall + TCP/IP stack +
/// NIC handoff). Calibrated so transition overheads land in the paper's
/// 2–6% band for small chunks.
pub const NET_SYSCALL_CYCLES: u64 = 45_000;

/// Simulated cycles for record framing (header parse/emit) in the SSL
/// library, independent of payload size.
pub const FRAMING_CYCLES: u64 = 900;

/// Echo experiment configuration.
#[derive(Debug, Clone)]
pub struct EchoConfig {
    /// Payload bytes per message (the paper sweeps 128 B – 16 KiB).
    pub chunk_size: usize,
    /// Messages to exchange.
    pub num_messages: usize,
    /// Nested (library confined to the outer enclave) vs. monolithic.
    pub nested: bool,
    /// Record the event trace and return a [`TraceBundle`] with the run
    /// (Chrome Trace JSON + folded flamegraph stacks). Off by default in
    /// the sweeps — tracing is cheap but not free.
    pub trace: bool,
    /// Run the machine on its naive reference memory pipeline instead of
    /// the optimized one (see [`HwConfig::reference_path`]). It selects
    /// only the machine's path: the record crypto runs on `ne-crypto`'s
    /// fast forms either way. Architecturally identical; used by the
    /// differential oracle.
    pub reference: bool,
}

/// Results of one echo run.
#[derive(Debug, Clone)]
pub struct EchoRun {
    /// Application bytes echoed.
    pub bytes: u64,
    /// Simulated cycles spent on the serving core.
    pub cycles: u64,
    /// EENTER-based calls observed.
    pub ecalls: u64,
    /// EEXIT-based calls observed.
    pub ocalls: u64,
    /// NEENTER transitions observed.
    pub n_ecalls: u64,
    /// NEEXIT transitions observed.
    pub n_ocalls: u64,
    /// Clock for cycle→time conversion.
    pub clock_ghz: f64,
    /// Full machine snapshot at the end of the run (per-enclave cycle
    /// breakdowns included).
    pub metrics: ne_sgx::metrics::MachineMetrics,
    /// Span-tree exports, when [`EchoConfig::trace`] was set.
    pub trace: Option<TraceBundle>,
}

impl EchoRun {
    /// Throughput in MB/s of simulated time.
    pub fn throughput_mbps(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let seconds = self.cycles as f64 / (self.clock_ghz * 1e9);
        (self.bytes as f64 / 1e6) / seconds
    }

    /// ecalls+ocalls per message (the line series of Fig. 7; for nested
    /// runs this "includes n_ocall and n_ecall", as the paper states).
    pub fn calls_per_message(&self, num_messages: usize) -> f64 {
        (self.ecalls + self.ocalls + self.n_ecalls + self.n_ocalls) as f64
            / num_messages.max(1) as f64
    }
}

/// The pre-shared record key of client and server (the paper's § VI-A
/// assumption).
pub const SESSION_KEY: [u8; 16] = [0x42; 16];

/// Builds the echo application in the requested configuration.
///
/// # Errors
///
/// Loader/association failures.
pub fn build_echo_app(cfg: &EchoConfig) -> Result<NestedApp, SgxError> {
    let mut hw = HwConfig::testbed();
    hw.trace_events = cfg.trace;
    hw.reference_path = cfg.reference;
    let mut app = NestedApp::new(hw);
    let net_send: UntrustedFn = Arc::new(|cx, args| {
        cx.charge(NET_SYSCALL_CYCLES);
        Ok(args.to_vec())
    });
    app.register_untrusted("net_send", net_send);

    // The server's record state (one per direction pair); lives inside the
    // application enclave conceptually, host-side for the harness.
    let rx = Arc::new(Mutex::new(RecordLayer::new(SESSION_KEY)));
    let tx = Arc::new(Mutex::new(RecordLayer::new(SESSION_KEY)));

    if cfg.nested {
        // [port:begin echo]
        // Nested-enclave port of the echo server: the SSL library becomes
        // the outer enclave; library calls become n_ocalls.
        // Outer enclave: the SSL library — framing, session bookkeeping.
        let ssl = EnclaveImage::new("ssl", b"openssl-project")
            .code_pages(16)
            .heap_pages(4)
            .edl(Edl::new());
        let frame_fn: TrustedFn = Arc::new(|cx, args| {
            cx.charge(FRAMING_CYCLES);
            Ok(args.to_vec())
        });
        app.load(
            ssl,
            [
                ("ssl_open_frame".to_string(), frame_fn.clone()),
                ("ssl_seal_frame".to_string(), frame_fn),
            ],
        )?;
        // Inner enclave: the application — owns the keys, does the crypto.
        let img = EnclaveImage::new("app", b"service-provider")
            .heap_pages(8)
            .edl(
                Edl::new()
                    .ecall("echo_record")
                    .ocall("net_send")
                    .n_ocall("ssl_open_frame")
                    .n_ocall("ssl_seal_frame"),
            );
        let rx = rx.clone();
        let tx = tx.clone();
        let echo: TrustedFn = Arc::new(move |cx, wire| {
            let framed = cx.n_ocall("ssl_open_frame", wire)?;
            cx.charge(cx.machine.config().cost.gcm(framed.len()));
            let (_, payload) = rx
                .lock()
                .expect("poisoned")
                .open(&framed)
                .map_err(|e| SgxError::GeneralProtection(e.to_string()))?;
            let reply = tx
                .lock()
                .expect("poisoned")
                .seal(ContentType::Data, &payload);
            cx.charge(cx.machine.config().cost.gcm(payload.len()));
            let framed_reply = cx.n_ocall("ssl_seal_frame", &reply)?;
            cx.ocall("net_send", &framed_reply)
        });
        app.load(img, [("echo_record".to_string(), echo)])?;
        app.associate("app", "ssl")?;
        // [port:end echo]
    } else {
        // Monolithic: library + application in one enclave.
        let img = EnclaveImage::new("app", b"service-provider")
            .code_pages(20)
            .heap_pages(8)
            .edl(Edl::new().ecall("echo_record").ocall("net_send"));
        let rx = rx.clone();
        let tx = tx.clone();
        let echo: TrustedFn = Arc::new(move |cx, wire| {
            cx.charge(2 * FRAMING_CYCLES);
            cx.charge(cx.machine.config().cost.gcm(wire.len()));
            let (_, payload) = rx
                .lock()
                .expect("poisoned")
                .open(wire)
                .map_err(|e| SgxError::GeneralProtection(e.to_string()))?;
            let reply = tx
                .lock()
                .expect("poisoned")
                .seal(ContentType::Data, &payload);
            cx.charge(cx.machine.config().cost.gcm(payload.len()));
            cx.ocall("net_send", &reply)
        });
        app.load(img, [("echo_record".to_string(), echo)])?;
    }
    Ok(app)
}

/// Runs the Fig. 7 echo experiment.
///
/// # Errors
///
/// Propagates record-layer and enclave errors (none expected for valid
/// configurations).
pub fn run_echo(cfg: &EchoConfig) -> Result<EchoRun, SgxError> {
    let mut app = build_echo_app(cfg)?;
    let mut client_tx = RecordLayer::new(SESSION_KEY);
    let mut client_rx = RecordLayer::new(SESSION_KEY);
    let payload = vec![0xA5u8; cfg.chunk_size];
    app.machine.reset_metrics();
    let mut bytes = 0u64;
    for _ in 0..cfg.num_messages {
        let wire = client_tx.seal(ContentType::Data, &payload);
        // Receive syscall on the server (the client is a remote machine;
        // its cycles are not charged to the serving core).
        app.untrusted(0, |cx| cx.charge(NET_SYSCALL_CYCLES));
        let reply = app.ecall(0, "app", "echo_record", &wire)?;
        let (ty, echoed) = client_rx
            .open(&reply)
            .map_err(|e| SgxError::GeneralProtection(e.to_string()))?;
        assert_eq!(ty, ContentType::Data);
        assert_eq!(echoed, payload, "echo must be faithful");
        bytes += echoed.len() as u64;
    }
    let stats = app.machine.stats();
    Ok(EchoRun {
        bytes,
        cycles: app.machine.cycles(0),
        ecalls: stats.ecalls,
        ocalls: stats.ocalls,
        n_ecalls: stats.n_ecalls,
        n_ocalls: stats.n_ocalls,
        clock_ghz: app.machine.config().cost.clock_ghz,
        metrics: app.machine.metrics(),
        trace: cfg.trace.then(|| TraceBundle::capture(&app.machine)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(chunk: usize, nested: bool) -> EchoRun {
        run_echo(&EchoConfig {
            chunk_size: chunk,
            num_messages: 20,
            nested,
            trace: false,
            reference: false,
        })
        .unwrap()
    }

    #[test]
    fn both_configurations_echo_correctly() {
        for nested in [false, true] {
            let r = run(256, nested);
            assert_eq!(r.bytes, 20 * 256);
            assert!(r.cycles > 0);
        }
    }

    #[test]
    fn nested_uses_n_calls_monolithic_does_not() {
        let mono = run(256, false);
        assert_eq!(mono.n_ecalls + mono.n_ocalls, 0);
        let nested = run(256, true);
        assert_eq!(nested.n_ocalls, 20 * 2, "two library calls per message");
        assert_eq!(nested.n_ecalls, 20 * 2, "and two returns");
    }

    #[test]
    fn fig7_shape_small_overhead_that_shrinks_with_chunk_size() {
        // Paper: nested is 0.94–0.98× of monolithic, worse at small chunks.
        let overhead = |chunk: usize| {
            let mono = run(chunk, false);
            let nested = run(chunk, true);
            nested.cycles as f64 / mono.cycles as f64
        };
        let small = overhead(128);
        let large = overhead(16384);
        assert!(small > 1.0 && small < 1.12, "small-chunk overhead {small}");
        assert!(large > 1.0 && large < small, "large-chunk overhead {large}");
        assert!(large < 1.04, "large-chunk overhead {large} should be tiny");
    }

    #[test]
    fn calls_per_message_higher_when_nested() {
        let mono = run(512, false);
        let nested = run(512, true);
        assert!(nested.calls_per_message(20) > mono.calls_per_message(20));
    }

    #[test]
    fn tracing_captures_a_span_bundle() {
        let r = run_echo(&EchoConfig {
            chunk_size: 256,
            num_messages: 3,
            nested: true,
            trace: true,
            reference: false,
        })
        .unwrap();
        let bundle = r.trace.expect("trace requested");
        assert!(bundle.spans > 0, "spans reconstructed");
        assert!(bundle.chrome_json.contains("\"traceEvents\""));
        assert!(bundle.folded.contains("ecall"));
        // The untraced path stays cheap: no bundle.
        let quiet = run(256, true);
        assert!(quiet.trace.is_none());
    }

    #[test]
    fn throughput_is_positive_and_finite() {
        let r = run(1024, true);
        let t = r.throughput_mbps();
        assert!(t.is_finite() && t > 0.0);
    }
}
