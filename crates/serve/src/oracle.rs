//! The in-process oracle: the same scenario a [`crate::FrontDoor`]
//! serves, run entirely through [`ne_cluster::Cluster`]'s in-process
//! runs with no socket anywhere. Both paths share the cluster's one
//! per-shard sequence and differ only in their request source, so
//! byte-for-byte, the oracle's three exports are what the wire run must
//! produce — the headline invariant of this crate, asserted by the
//! `wire_oracle` integration test and CI's `serve-smoke` job.

use crate::server::{build_cluster, finish_outcome, sampler_config, ServeConfig, ServeOutcome};
use crate::Mode;

/// Runs the scenario in-process and returns the exports a conforming
/// wire run must match byte for byte. Only the scenario fields of `cfg`
/// matter; the wire knobs (timeouts, TLS) have no in-process analogue —
/// which is the point: TLS on the wire must not change a single exported
/// byte.
///
/// # Errors
///
/// Cluster build failures, malformed chaos specs, typed drive errors,
/// or broken end-of-run invariants.
pub fn run_oracle(cfg: &ServeConfig) -> Result<ServeOutcome, String> {
    let mut cluster = build_cluster(cfg)?;
    let (chaos, obs) = (cfg.chaos.as_deref(), cfg.window.map(sampler_config));
    let (accepted, timeline) = match cfg.mode {
        Mode::Closed => cluster.run_closed_loop(cfg.requests, chaos, obs)?,
        Mode::Open => cluster.run_open_loop(cfg.requests, chaos, obs)?,
    };
    finish_outcome(&cluster, accepted, timeline, cfg.mode)
}
