//! The Fig. 7 echo server's leg of the differential oracle: the reference
//! memory pipeline ([`EchoConfig::reference`]) must reproduce the optimized
//! run's metrics export byte for byte, and the nested server's sealed reply
//! to one record byte for byte (the export prices records by length only).

use ne_tls::echo::{build_echo_app, run_echo, EchoConfig, SESSION_KEY};
use ne_tls::record::{ContentType, RecordLayer};

/// One 4 KiB nested echo run on the chosen path: its metrics export and
/// the server's sealed reply to one record.
fn echo(reference: bool) -> (String, Vec<u8>) {
    let cfg = EchoConfig {
        chunk_size: 4096,
        num_messages: 8,
        nested: true,
        trace: false,
        reference,
    };
    let metrics = run_echo(&cfg).unwrap().metrics.to_json();
    let wire = RecordLayer::new(SESSION_KEY).seal(ContentType::Data, &[0xA5; 4096]);
    let reply = build_echo_app(&cfg)
        .unwrap()
        .ecall(0, "app", "echo_record", &wire)
        .unwrap();
    (metrics, reply)
}

#[test]
fn reference_paths_echo_byte_identically() {
    assert_eq!(echo(false), echo(true));
}
