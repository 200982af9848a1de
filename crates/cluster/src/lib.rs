#![deny(missing_docs)]

//! **ne-cluster** — sharded parallel simulation of the multi-tenant
//! hosting server.
//!
//! The paper's nested-enclave model isolates tenants from each other by
//! construction: a tenant's gate and service enclaves never share state
//! with a sibling's. That makes tenant groups *embarrassingly parallel* —
//! independent tenants can be simulated on independent
//! [`ne_sgx::machine::Machine`]s with no shared state at all. This crate
//! is that shard layer:
//!
//! 1. [`ShardRing`] consistent-hashes each tenant (by name) onto one of
//!    N shards;
//! 2. [`Cluster::build`] constructs one full [`ne_host::HostServer`] per
//!    shard, with every tenant's seeding identity pinned to its
//!    **global** id ([`ne_host::TenantSpec::seed_index`]) so its models,
//!    datasets, and request streams do not depend on shard layout;
//! 3. [`Cluster::run_parallel`] drives one shard per OS thread
//!    (`std::thread::scope` — the servers are `Send`, enforced at
//!    compile time in `ne-host`);
//! 4. [`Cluster::merged_metrics`] folds the per-shard
//!    [`ne_sgx::metrics::MachineMetrics`] snapshots into one report that
//!    still passes the §5 attribution identity checker, by namespacing
//!    ids per shard and summing component-wise
//!    ([`ne_sgx::metrics::MachineMetrics::merge_shards`]).
//!
//! # Determinism and the shard-count-invariance oracle
//!
//! Everything tenant-visible is seeded by `(base seed, global tenant
//! id)`; only shard-local machinery (chaos plans) draws from a
//! per-shard stream, [`Shard::chaos_seed`]. Arrival schedules for the
//! open loop are generated **globally** and then routed
//! ([`Cluster::open_schedules`]), so a tenant sees the same offered
//! arrival times at any shard count. The result: under the clean
//! closed-loop scenario, per-tenant outputs ([`Cluster::tenants_export`])
//! are **byte-identical at every shard count** — that is the
//! shard-count-invariance oracle checked by this crate's tests and CI's
//! `determinism-smoke` job. A single-shard cluster is bit-compatible
//! with the unsharded [`ne_host::HostServer`] path end to end (same
//! exports, same bytes), which is the regression test that keeps the
//! pre-shard committed outputs valid.
//!
//! Every run, in-process ([`Cluster::run_closed_loop`],
//! [`Cluster::run_open_loop`], [`Cluster::run_segmented_closed_loop`])
//! or over the `ne-serve` wire, follows one per-shard sequence:
//! [`Shard::prologue`], a [`drive`] loop pulling from a
//! [`drive::RequestSource`], then [`Cluster::finish_samplers`].

pub mod cluster;
pub mod drive;
pub mod migrate;
pub mod ring;

pub use cluster::{Cluster, ClusterConfig, ClusterReport, GlobalTenantReport, Shard};
pub use migrate::{
    MigrationOutcome, MigrationPolicy, MigrationRecord, MigrationTrigger, PlannedMove,
};
pub use ring::{shard_seed, splitmix64, ShardRing};
