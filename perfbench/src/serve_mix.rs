//! `serve-mix`: the in-process `HostServer` closed loop, 4 tenants ×
//! {TLS echo, db, svm}, one request in flight per (tenant, service)
//! client, `HostConfig` defaults, an `ne-obs` sampler polled every step.

use std::time::Instant;

use ne_cluster::drive::standard_specs;
use ne_host::{HostConfig, HostServer, RequestFactory, ServiceKind};
use ne_obs::{Sampler, SamplerConfig};

use crate::session::{digest, Session, Setup};
use crate::stats::{Outcome, Tally};
use crate::trace::Tracer;

/// Tenants hosted.
pub const TENANTS: usize = 4;
/// Measured requests per (tenant, service) client and session: the run
/// length of `ne-load` (its `--requests` default), so a session is one
/// `ne-load` closed-loop run, end-of-run exports included.
pub const REQUESTS_PER_CLIENT: usize = 12;

fn step_span(kind: ServiceKind) -> &'static str {
    match kind {
        ServiceKind::TlsEcho => "host.step.echo",
        ServiceKind::Db => "host.step.db",
        ServiceKind::SvmInfer => "host.step.svm",
    }
}

/// A request in flight: when it was submitted, its span request id, and
/// (for echo) the sealed record the reply must reproduce.
struct InFlight {
    submitted: Instant,
    req: u64,
    echo_record: Option<Vec<u8>>,
}

/// Runs one session: build, provision, then the measured closed loop.
///
/// # Errors
///
/// Server build failure.
pub fn session(seed: u64, traced: bool, epoch: Instant) -> Result<Session, String> {
    let t0 = Instant::now();
    let mut cfg = HostConfig::new(standard_specs(TENANTS, ServiceKind::ALL.len()));
    cfg.seed = seed;
    let mut server = HostServer::build(cfg).map_err(|e| format!("host build: {e}"))?;
    let t1 = Instant::now();
    let mut out = Session::default();
    for t in 0..TENANTS {
        if !server.attested(t) {
            out.problems.push(format!("tenant {t} failed attestation"));
        }
    }
    let mut factories: Vec<Vec<RequestFactory>> = (0..TENANTS)
        .map(|t| {
            ServiceKind::ALL
                .iter()
                .map(|&k| RequestFactory::new(k, t, seed))
                .collect()
        })
        .collect();
    // Provisioning (the ne-load warmup): db schema and pre-load inserts,
    // one request for the other services.
    for (t, row) in factories.iter_mut().enumerate() {
        for (s, factory) in row.iter_mut().enumerate() {
            for _ in 0..factory.setup_requests().max(1) {
                let payload = factory.next_request();
                if !server.submit(t, s, server.now(), payload).is_accepted() {
                    out.problems
                        .push(format!("warmup request of ({t}, {s}) refused"));
                }
                server.step().map_err(|e| format!("warmup step: {e}"))?;
            }
        }
    }
    server.drain().map_err(|e| format!("warmup drain: {e}"))?;
    server.reset_measurement();
    let mut sampler = Sampler::new(&server, (0..TENANTS).collect(), SamplerConfig::default());
    let t2 = Instant::now();
    out.setup = Setup {
        build_s: (t1 - t0).as_secs_f64(),
        warmup_s: (t2 - t1).as_secs_f64(),
    };

    let mut tr = Tracer::new(epoch, traced);
    let mut tally = Tally::default();
    let mut latencies = Vec::with_capacity(TENANTS * ServiceKind::ALL.len() * REQUESTS_PER_CLIENT);
    let mut inflight: Vec<Vec<Option<InFlight>>> = (0..TENANTS)
        .map(|_| ServiceKind::ALL.iter().map(|_| None).collect())
        .collect();
    let mut remaining = vec![vec![REQUESTS_PER_CLIENT; ServiceKind::ALL.len()]; TENANTS];
    let mut next_req = 0u64;
    let mut submit = |server: &mut HostServer,
                      tr: &mut Tracer,
                      tally: &mut Tally,
                      factory: &mut RequestFactory,
                      slot: &mut Option<InFlight>,
                      (t, s, arrival): (usize, usize, u64)| {
        next_req += 1;
        let req = next_req;
        let (payload, echo_record) = tr.span("bench.gen", req, || {
            let p = factory.next_request();
            let copy = (ServiceKind::ALL[s] == ServiceKind::TlsEcho).then(|| p.clone());
            (p, copy)
        });
        let submitted = Instant::now();
        let admission = tr.span("host.submit", req, || server.submit(t, s, arrival, payload));
        if admission.is_accepted() {
            *slot = Some(InFlight {
                submitted,
                req,
                echo_record,
            });
        } else {
            // A refused client stops, as in ne-load.
            tally.record(Outcome::Rejected);
        }
    };

    let w0 = Instant::now();
    let root = tr.open("bench.session", 0);
    for (t, row) in factories.iter_mut().enumerate() {
        for (s, factory) in row.iter_mut().enumerate() {
            remaining[t][s] -= 1;
            submit(
                &mut server,
                &mut tr,
                &mut tally,
                factory,
                &mut inflight[t][s],
                (t, s, 0),
            );
        }
    }
    while server.pending() > 0 {
        let id = tr.open("host.step.idle", 0);
        let stepped = server.step();
        let done = Instant::now();
        let c = match stepped {
            Ok(Some(c)) => {
                let req = inflight[c.tenant][c.service].as_ref().map_or(0, |f| f.req);
                tr.close_as(id, step_span(ServiceKind::ALL[c.service]), req);
                c
            }
            Ok(None) => {
                tr.close(id);
                tr.span("obs.poll", 0, || sampler.poll(&server));
                continue;
            }
            Err(e) => {
                tr.close(id);
                out.problems.push(format!("step failed: {e}"));
                tally.record(Outcome::Failed);
                break;
            }
        };
        tr.span("obs.poll", 0, || sampler.poll(&server));
        let (t, s) = (c.tenant, c.service);
        let Some(flight) = inflight[t][s].take() else {
            out.problems
                .push(format!("completion for idle client ({t}, {s})"));
            continue;
        };
        latencies.push((done - flight.submitted).as_nanos() as u64);
        let ok = tr.span("bench.check", flight.req, || {
            factories[t][s].check_reply(&c.reply)
                && flight.echo_record.as_ref().is_none_or(|r| *r == c.reply)
        });
        tally.record(if ok { Outcome::Ok } else { Outcome::BadReply });
        if remaining[t][s] > 0 {
            remaining[t][s] -= 1;
            submit(
                &mut server,
                &mut tr,
                &mut tally,
                &mut factories[t][s],
                &mut inflight[t][s],
                (t, s, c.end),
            );
        }
    }
    let metrics_json = tr.span("host.export", 0, || server.app.machine.metrics().to_json());
    let timeline = tr.span("obs.export", 0, || {
        ne_obs::to_jsonl(&sampler.finish(&server), "perfbench-serve-mix")
    });
    tr.close(root);
    out.window_ns = w0.elapsed().as_nanos() as u64;

    // Correctness gate, outside the window.
    let report = server.report();
    if server.invariant_violations() != 0 {
        out.problems.push(format!(
            "{} scheduler invariant violations",
            server.invariant_violations()
        ));
    }
    if let Err(e) = server.app.machine.metrics().check() {
        out.problems.push(format!("metrics identities: {e}"));
    }
    let shed = report.shed_requests();
    for _ in 0..shed {
        tally.record(Outcome::Shed);
    }
    if report.completed() + shed != report.accepted() {
        out.problems.push(format!(
            "accepted request lost: {} completed + {shed} shed != {} accepted",
            report.completed(),
            report.accepted()
        ));
    }
    if tally.failed > 0 {
        out.problems.push(format!(
            "{} of {} requests failed",
            tally.failed, tally.attempted
        ));
    }
    let mut parts: Vec<Vec<u8>> = vec![metrics_json.clone().into_bytes(), timeline.into_bytes()];
    for c in server.completions() {
        let mut key = Vec::with_capacity(24);
        for v in [c.tenant as u64, c.service as u64, c.seq] {
            key.extend_from_slice(&v.to_le_bytes());
        }
        parts.push(key);
        parts.push(c.reply.clone());
    }
    out.digest = digest(parts.iter().map(Vec::as_slice));
    out.completed = latencies.len() as u64;
    out.tally = tally;
    out.latencies_ns = latencies;
    out.spans = tr.into_spans();
    out.metrics_json = metrics_json;
    out.counts = vec![("host.sched_steals", report.sched.steals as f64)];
    Ok(out)
}
