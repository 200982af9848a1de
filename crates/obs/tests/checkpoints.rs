//! The streamed reply digests of [`Sampler::finish`] against their
//! reference form, byte for byte.
//!
//! `finish` hashes each reply about once: service 0's checkpoints
//! finalize clones of the tenant hasher (its stream is a prefix of the
//! tenant stream), and every later service feeds one extra per-service
//! hasher. The reference form ([`digests_reference`],
//! [`Sampler::finish_reference`]) re-packs and re-hashes every
//! checkpoint's prefix from the start. The two must agree on every
//! checkpoint and every tenant total:
//!
//! * over a grid of 0–13 replies per service on three services, which
//!   includes tenants with no service-0 replies and counts that are not
//!   multiples of [`CHECKPOINT_EVERY`], with replies handed over in
//!   completion order, not (service, seq) order;
//! * on a real server whose tenants' replies complete out of order.
//!
//! The retired slot and the adopted tenant's carried completions are
//! covered by `migrated_digests_match_the_reference_form` in
//! `migrate_obs.rs`.

use ne_host::{Completion, HostConfig, HostServer, RequestFactory, ServiceKind, TenantSpec};
use ne_obs::sampler::{digests_reference, stream_digests, CHECKPOINT_EVERY};
use ne_obs::{to_jsonl, Checkpoint, Sampler, SamplerConfig};

/// A completion of `(service, seq)` whose reply length (0–130 bytes)
/// and contents vary with both, so replies straddle SHA-256 blocks.
fn completion(service: usize, seq: u64) -> Completion {
    let len = (seq as usize * 37 + service * 11) % 131;
    Completion {
        tenant: 0,
        service,
        seq,
        core: 0,
        arrival: 0,
        start: 0,
        end: 0,
        latency: 0,
        reply: (0..len)
            .map(|i| (i as u64 ^ seq.wrapping_mul(131) ^ service as u64) as u8)
            .collect(),
    }
}

/// A tenant digest with the tenant's checkpoints.
type Digests = ([u8; 32], Vec<Checkpoint>);

/// Both digest forms over `replies`, sorted into (service, seq) order
/// as `finish` sorts them.
fn both_forms(mut replies: Vec<&Completion>) -> (Digests, Digests) {
    replies.sort_by_key(|r| (r.service, r.seq));
    let mut streamed = Vec::new();
    let mut reference = Vec::new();
    let a = stream_digests(3, &replies, &mut streamed);
    let b = digests_reference(3, &replies, &mut reference);
    ((a, streamed), (b, reference))
}

#[test]
fn streamed_digests_match_the_reference_over_a_grid_of_counts() {
    const COUNTS: [u64; 9] = [0, 1, 3, 4, 5, 7, 8, 12, 13];
    for a in COUNTS {
        for b in COUNTS {
            for c in COUNTS {
                // Completion order: the services interleaved, each
                // service's seqs newest first.
                let mut done: Vec<Completion> = Vec::new();
                for seq in (0..13).rev() {
                    for (service, n) in [a, b, c].into_iter().enumerate() {
                        if seq < n {
                            done.push(completion(service, seq));
                        }
                    }
                }
                let (streamed, reference) = both_forms(done.iter().collect());
                assert_eq!(streamed, reference, "replies per service {a}/{b}/{c}");
                let expected =
                    (a / CHECKPOINT_EVERY + b / CHECKPOINT_EVERY + c / CHECKPOINT_EVERY) as usize;
                assert_eq!(streamed.1.len(), expected, "checkpoints for {a}/{b}/{c}");
            }
        }
    }
}

#[test]
fn no_replies_digest_the_empty_stream() {
    let (streamed, reference) = both_forms(Vec::new());
    assert_eq!(streamed, reference);
    assert_eq!(streamed.0, ne_crypto::sha256_digest(&[]));
    assert!(streamed.1.is_empty());
}

/// Builds a 3-tenant × 3-service server, submits `counts[t][s]` requests
/// per pair all at arrival 0 (so the scheduler's cores finish them out
/// of (service, seq) order), drains it with a sampler riding, and
/// returns both.
fn open_loop(counts: [[usize; 3]; 3]) -> (HostServer, Sampler) {
    let seed = 5;
    let specs: Vec<TenantSpec> = (0..counts.len())
        .map(|i| TenantSpec::new(&format!("tenant{i}"), 1, ServiceKind::ALL.to_vec()))
        .collect();
    let mut cfg = HostConfig::new(specs);
    cfg.seed = seed;
    let mut server = HostServer::build(cfg).expect("host build");
    let mut factories: Vec<Vec<RequestFactory>> = (0..counts.len())
        .map(|t| {
            ServiceKind::ALL
                .iter()
                .map(|&k| RequestFactory::new(k, t, seed))
                .collect()
        })
        .collect();
    for (t, row) in factories.iter_mut().enumerate() {
        for (s, factory) in row.iter_mut().enumerate() {
            for _ in 0..factory.setup_requests().max(1) {
                let payload = factory.next_request();
                assert!(server.submit(t, s, server.now(), payload).is_accepted());
                server.step().expect("warmup step");
            }
        }
    }
    server.drain().expect("warmup drain");
    server.reset_measurement();
    let mut sampler = Sampler::new(
        &server,
        (0..counts.len()).collect(),
        SamplerConfig::default(),
    );
    for (t, row) in factories.iter_mut().enumerate() {
        for (s, factory) in row.iter_mut().enumerate() {
            for _ in 0..counts[t][s] {
                let payload = factory.next_request();
                assert!(server.submit(t, s, 0, payload).is_accepted());
            }
        }
    }
    while server.pending() > 0 {
        server.step().expect("step");
        sampler.poll(&server);
    }
    server.drain().expect("drain");
    (server, sampler)
}

#[test]
fn out_of_order_server_run_exports_identically_to_the_reference() {
    // Tenant 1 sends no service-0 request; the other counts straddle
    // multiples of CHECKPOINT_EVERY.
    let (server, sampler) = open_loop([[5, 8, 13], [0, 4, 9], [12, 1, 0]]);
    let key = |c: &Completion| (c.tenant, c.service, c.seq);
    let done: Vec<_> = server.completions().iter().map(key).collect();
    let mut sorted = done.clone();
    sorted.sort_unstable();
    assert_ne!(done, sorted, "replies must complete out of order");

    let streamed = sampler.clone().finish(&server);
    let reference = sampler.finish_reference(&server);
    assert_eq!(streamed.checkpoints, reference.checkpoints);
    assert_eq!(streamed.totals, reference.totals);
    assert_eq!(
        streamed.checkpoints.len(),
        (1 + 2 + 3) + (1 + 2) + 3,
        "one checkpoint per {CHECKPOINT_EVERY} replies of a pair"
    );
    assert_eq!(to_jsonl(&streamed, "x"), to_jsonl(&reference, "x"));
}
