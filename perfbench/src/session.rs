//! What one session of a workload hands back: set-up times, the measured
//! window, per-request latencies, spans, and what the correctness gate
//! compares. Every session of a run replays the same seeded scenario, so
//! its simulated export and reply digest must come out byte-identical.

use ne_bench::json::{self, Value};
use ne_crypto::sha256::Sha256;
use ne_sgx::metrics::CycleCategory;

use crate::stats::Tally;
use crate::trace::Span;

/// Set-up cost of one session, up to its first measured request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Building the program: enclave loading with its SHA-256
    /// measurement, NEREPORT attestation, and (on the wire) the
    /// connection handshakes.
    pub build_s: f64,
    /// Provisioning traffic served before the measured window.
    pub warmup_s: f64,
}

impl Setup {
    /// Whole set-up time.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.warmup_s
    }
}

/// One session's measurements and checked outputs.
#[derive(Debug, Default)]
pub struct Session {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Set-up times.
    pub setup: Setup,
    /// Host ns of the measured window.
    pub window_ns: u64,
    /// Requests (or messages) completed in the window.
    pub completed: u64,
    /// Attempted and failed requests.
    pub tally: Tally,
    /// Host ns per completed request, unsorted.
    pub latencies_ns: Vec<u64>,
    /// Spans recorded in the window (empty unless traced).
    pub spans: Vec<Span>,
    /// The `ne-metrics/v2` export of the measured window.
    pub metrics_json: String,
    /// Digest of every deterministic output of the session: the metrics
    /// export, the replies, and any other export the workload produces.
    pub digest: String,
    /// Per-layer counts measured outside spans, by metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// Correctness failures; a session with any is not correct.
    pub problems: Vec<String>,
}

/// Hex SHA-256 of a sequence of byte strings, each length-prefixed so
/// that moving a byte between parts changes the digest.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> String {
    let mut h = Sha256::new();
    for p in parts {
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// Simulated counters of a measured window, read back from its
/// `ne-metrics/v2` export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimCounts {
    /// Cycles summed over cores, per category in [`CycleCategory::ALL`]
    /// order.
    pub by_category: Vec<(&'static str, u64)>,
    /// All simulated cycles.
    pub total_cycles: u64,
    /// Boundary crossings (EENTER/EEXIT/NEENTER/NEEXIT/AEX/ERESUME).
    pub transitions: u64,
    /// Switchless ocalls.
    pub switchless: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Lines the MEE decrypted or encrypted.
    pub mee_lines: u64,
    /// Pages evicted by EWB.
    pub ewb_pages: u64,
}

fn field(v: &Value, path: &[&str]) -> Result<u64, String> {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("metrics export lacks {}", path.join(".")))?;
    }
    cur.as_u64()
        .ok_or_else(|| format!("metrics export: {} is not a count", path.join(".")))
}

impl SimCounts {
    /// Parses the counters out of an `ne-metrics/v2` export.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a missing field.
    pub fn from_metrics_json(text: &str) -> Result<SimCounts, String> {
        let v = json::parse(text)?;
        let cores = v
            .get("cores")
            .and_then(Value::as_array)
            .ok_or("metrics export lacks cores")?;
        let mut by_category = Vec::new();
        for cat in CycleCategory::ALL {
            let mut sum = 0;
            for core in cores {
                sum += field(core, &["breakdown", cat.name()])?;
            }
            by_category.push((cat.name(), sum));
        }
        let stat = |k: &str| field(&v, &["stats", k]);
        Ok(SimCounts {
            by_category,
            total_cycles: field(&v, &["total_cycles"])?,
            transitions: [
                "ecalls", "ocalls", "n_ecalls", "n_ocalls", "aexes", "eresumes",
            ]
            .iter()
            .map(|k| stat(k))
            .sum::<Result<u64, String>>()?,
            switchless: stat("switchless_ocalls")?,
            tlb_misses: stat("tlb_misses")?,
            llc_hits: field(&v, &["llc", "hits"])?,
            llc_misses: field(&v, &["llc", "misses"])?,
            mee_lines: field(&v, &["mee", "lines_decrypted"])?
                + field(&v, &["mee", "lines_encrypted"])?,
            ewb_pages: stat("ewb_pages")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_parts() {
        assert_ne!(digest([&b"ab"[..], b"c"]), digest([&b"a"[..], b"bc"]));
        assert_eq!(digest([&b"x"[..]]), digest([&b"x"[..]]));
        assert_eq!(digest([&b"x"[..]]).len(), 64);
    }

    #[test]
    fn sim_counts_read_a_real_export() {
        let mut app = ne_core::runtime::NestedApp::new(ne_sgx::config::HwConfig::testbed());
        app.untrusted(0, |cx| cx.charge(1234));
        let m = app.machine.metrics();
        let c = SimCounts::from_metrics_json(&m.to_json()).expect("parse");
        assert_eq!(c.total_cycles, m.total_cycles);
        assert_eq!(
            c.by_category.iter().map(|(_, v)| v).sum::<u64>(),
            m.total_cycles
        );
        assert_eq!(c.transitions, m.stats.total_transitions());
        assert!(SimCounts::from_metrics_json("{}").is_err());
    }
}
