#![deny(missing_docs)]

//! # ne-host — a multi-tenant nested-enclave hosting server
//!
//! The figure/table benchmarks exercise single-shot calls; this crate
//! serves **sustained concurrent traffic**, the shape the paper's nested
//! enclaves were designed for: one outer *gate* enclave per tenant, one
//! inner enclave per service, so a tenant's services are mutually isolated
//! yet a request crosses only cheap NEENTER/NEEXIT boundaries once it is
//! inside the tenant's trust domain.
//!
//! The moving parts:
//!
//! * [`tenant`] — tenant specs, bounded request queues, traffic counters;
//! * [`service`] — the three inner-enclave service adapters (mini-TLS
//!   echo, SQL/YCSB, SVM inference) and the matching client-side
//!   [`service::RequestFactory`];
//! * [`admission`] — bounded-queue backpressure plus EPC-pressure
//!   shedding, lowest-priority tenants first;
//! * [`scheduler`] — the TCS-aware work-stealing dispatcher across the
//!   simulated cores, with invariant counters that must read zero;
//! * [`recovery`] — fault classification, retry/backoff policy, enclave
//!   respawn bookkeeping, and the per-tenant circuit breaker that turns
//!   injected chaos ([`ne_sgx::fault`]) into reply-or-shed outcomes;
//! * [`error`] — the typed [`error::HostError`] every serving-path
//!   failure flows through (no `unwrap` on the request path);
//! * [`server`] — [`server::HostServer`], which wires it all to a
//!   [`ne_core::runtime::NestedApp`] and records end-to-end request
//!   latency into the machine's always-on histograms
//!   ([`ne_sgx::profile::ProfileEvent::Request`]).
//!
//! The `ne-load` bin in `ne-bench` drives a [`server::HostServer`] with
//! deterministic seeded open- and closed-loop arrival processes and emits
//! the standard metrics / profile / trace exports.

pub mod admission;
pub mod error;
pub mod migrate;
pub mod recovery;
pub mod scheduler;
pub mod server;
pub mod service;
pub mod tenant;

pub use admission::{Admission, AdmissionControl};
pub use error::{HostError, HostResult};
pub use migrate::TenantSnapshot;
pub use recovery::{
    MigratePhase, RecoveryAction, RecoveryEvent, RecoveryEventKind, RecoveryPolicy, RecoveryState,
    ShedReason,
};
pub use scheduler::{Scheduler, SchedulerStats};
pub use server::{HostConfig, HostReport, HostServer, TenantReport};
pub use service::{RequestFactory, ServiceKind};
pub use tenant::{Completion, Request, TenantSpec};
