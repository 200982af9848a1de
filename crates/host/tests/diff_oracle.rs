//! Host-level differential oracle: two multi-tenant servers serve the same
//! closed-loop traffic — with and without a chaos plan — one on the
//! optimized paths, one on the reference forms of both the memory pipeline
//! ([`HwConfig::reference_path`]) and the crypto primitives
//! ([`ne_crypto::set_reference_impl`]). They must finish with byte-identical
//! machine metrics exports, identical completion/shed accounting, the same
//! serving clock, and byte-identical replies (sealed echo records carry the
//! crypto's output bytes). This is the end-to-end leg of the oracle; the
//! structure-level legs live in `ne-sgx`'s `hot_path_props`/`diff_oracle`
//! suites.

use std::sync::{Mutex, PoisonError};

use ne_host::{HostConfig, HostServer, RequestFactory, ServiceKind, TenantSpec};
use ne_sgx::fault::FaultPlan;

const SEED: u64 = 0xD1FF;

/// The crypto toggle is process-global and every test here flips it, so
/// one comparison's runs must not interleave with another's.
static CRYPTO_PATH: Mutex<()> = Mutex::new(());

fn build_server(reference: bool, chaos: Option<&str>) -> HostServer {
    let specs: Vec<TenantSpec> = (0..3)
        .map(|i| {
            TenantSpec::new(
                &format!("tenant{i}"),
                (3 - i) as u8,
                ServiceKind::ALL.to_vec(),
            )
        })
        .collect();
    let mut cfg = HostConfig::new(specs);
    cfg.seed = SEED;
    cfg.hw.reference_path = reference;
    let mut server = HostServer::build(cfg).expect("host build");
    if let Some(spec) = chaos {
        server.install_chaos(FaultPlan::parse(spec, SEED).unwrap());
    }
    server
}

/// Serves `requests` per (tenant, service) pair in a closed loop, on the
/// reference paths when `reference` is set, and returns (metrics JSON,
/// summary line).
fn serve(reference: bool, chaos: Option<&str>, requests: usize) -> (String, String) {
    let _serial = CRYPTO_PATH.lock().unwrap_or_else(PoisonError::into_inner);
    ne_crypto::set_reference_impl(reference);
    let mut server = build_server(reference, chaos);
    let mut factories: Vec<Vec<RequestFactory>> = (0..3)
        .map(|t| {
            ServiceKind::ALL
                .iter()
                .map(|&k| RequestFactory::new(k, t, SEED))
                .collect()
        })
        .collect();
    let mut sheds = 0u64;
    for round in 0..requests {
        for (t, tenant_factories) in factories.iter_mut().enumerate() {
            if server.tenants()[t].shed {
                continue;
            }
            for (s, factory) in tenant_factories.iter_mut().enumerate() {
                let payload = factory.next_request();
                if !server.submit(t, s, server.now(), payload).is_accepted() {
                    sheds += 1;
                    continue;
                }
                // Serve to completion; a `None` completion under chaos is a
                // counted shed, not a protocol error.
                match server.step() {
                    Ok(Some(_)) => {}
                    Ok(None) => sheds += 1,
                    Err(e) => panic!("step failed in round {round}: {e:?}"),
                }
            }
        }
    }
    server.drain().expect("drain");
    ne_crypto::set_reference_impl(false);
    let metrics = server.app.machine.metrics().to_json();
    let mut replies = Vec::new();
    for c in server.completions() {
        replies.extend_from_slice(&(c.reply.len() as u32).to_le_bytes());
        replies.extend_from_slice(&c.reply);
    }
    let hr = server.report();
    let summary = format!(
        "completed {} shed {} local-sheds {} now {} faults {} respawns {} replies {:02x?}",
        hr.completed(),
        hr.shed_requests(),
        sheds,
        server.now(),
        server.app.machine.stats().faults,
        hr.respawns(),
        ne_crypto::sha256_digest(&replies),
    );
    (metrics, summary)
}

#[test]
fn host_metrics_identical_across_paths() {
    let (metrics_o, summary_o) = serve(false, None, 6);
    let (metrics_r, summary_r) = serve(true, None, 6);
    assert_eq!(summary_o, summary_r);
    assert_eq!(metrics_o, metrics_r, "metrics exports diverged");
}

#[test]
fn host_metrics_identical_across_paths_under_chaos() {
    for spec in ["mac:3", "aex+evict", "mac:2+stall:3"] {
        let (metrics_o, summary_o) = serve(false, Some(spec), 6);
        let (metrics_r, summary_r) = serve(true, Some(spec), 6);
        assert_eq!(summary_o, summary_r, "summary diverged under {spec}");
        assert_eq!(metrics_o, metrics_r, "metrics diverged under {spec}");
    }
}
