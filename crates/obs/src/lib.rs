#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # ne-obs — the observability plane
//!
//! An epoch-windowed time-series layer over the simulated machine. All
//! timestamps are **simulated cycles** on the serving clock
//! ([`ne_host::HostServer::now`]) — never wall clock — so every export
//! is byte-deterministic: the same seed produces the same timeline,
//! byte for byte, on any machine.
//!
//! The moving parts:
//!
//! * [`sampler`] — a [`sampler::Sampler`] rides along a driving loop,
//!   observing a [`ne_host::HostServer`] after each step. Whenever the
//!   serving clock crosses a `window_cycles` boundary it closes a
//!   window: per-window **deltas** of the cumulative machine counters
//!   ([`ne_sgx::trace::Stats`], total cycles, degraded replies), gauges
//!   (free EPC pages, resident pages, per-tenant breaker state), fresh
//!   per-tenant latency histograms built from the window's completions,
//!   and the chaos injections and recovery events that landed in the
//!   window. Deltas of cumulative snapshots telescope, so summing the
//!   windows reproduces the end-of-run totals *exactly* (by test).
//! * [`window`] — the data model: [`window::Window`] /
//!   [`window::TenantWindow`] rows, the bounded [`window::Timeline`]
//!   ring (old windows roll up into a base window instead of growing
//!   without bound), and the shard fold algebra
//!   ([`window::Timeline::fold`]) mirroring
//!   [`ne_sgx::metrics::MachineMetrics::merge_shards`]: per-shard
//!   timelines fold into one cluster timeline, and folding a single
//!   shard is the identity.
//! * [`slo`] — integer-permille SLO policy and the multi-window
//!   burn-rate monitor (OK / WARN / PAGE per tenant per window).
//! * [`incident`] — the correlator joining [`ne_sgx::fault`] chaos
//!   injections with the recovery events and SLO impact they caused,
//!   exported as structured incident reports.
//! * [`export`] — the `ne-obs/v1` JSONL timeline export (fixed key
//!   order, integers only, hand-rolled — byte-stable by construction).
//!
//! `ne-load --timeline-out` (in `ne-bench`) and `ne-serve
//! --timeline-out` drive this; `ne-profile timeline` pretty-prints the
//! export.

pub mod export;
pub mod incident;
pub mod sampler;
pub mod slo;
pub mod window;

pub use export::{to_jsonl, OBS_SCHEMA};
pub use incident::{correlate, Incident};
pub use sampler::{Sampler, SamplerConfig, TenantCarry};
pub use slo::SloState;
pub use window::{Checkpoint, Injection, Recovery, TenantTotal, TenantWindow, Timeline, Window};
