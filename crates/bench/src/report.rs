//! Table-formatting helpers and the metrics exporter shared by the
//! experiment binaries.
//!
//! Every binary accepts two export flags:
//!
//! - `--metrics-out <path>` — the full [`MetricsReport`]: one
//!   [`MachineMetrics`] snapshot per labeled run, as schema-stable JSON
//!   ([`REPORT_SCHEMA`]). Each snapshot passes [`MachineMetrics::check`]
//!   on the way in, so a run whose cycle accounting does not add up
//!   aborts the binary instead of exporting silently-wrong numbers.
//!   `ne-profile report` renders its latency histograms as tables.
//! - `--trace-out <path>` — Chrome Trace Event JSON of the traced run
//!   (Perfetto-loadable; folded flamegraph stacks land at
//!   `<path>.folded`), handled by [`write_trace`].
//!
//! Each binary names the flags it reads in [`reject_unknown_flags`]; any
//! other `--` argument ends it with exit status 2.

use ne_cluster::{Mode, Scenario};
use ne_host::ServiceKind;
use ne_obs::SamplerConfig;
use ne_sgx::fault::FaultPlan;
use ne_sgx::metrics::{json_escape, CycleCategory, MachineMetrics};
use ne_sgx::profile::ProfileEvent;
use ne_sgx::spantree::TraceBundle;
use std::path::{Path, PathBuf};

/// Schema tag of the `--metrics-out` report. v2 embeds `ne-metrics/v2`
/// snapshots (latency histograms + span counters).
pub const REPORT_SCHEMA: &str = "ne-metrics-report/v2";

/// Prints a header banner for an experiment.
pub fn banner(title: &str) {
    let line = "=".repeat(title.len().max(20));
    println!("{line}\n{title}\n{line}");
}

/// A simple fixed-width table printer.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Prints the rendered table.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Collects labeled per-run [`MachineMetrics`] snapshots for export.
///
/// Construct one per binary, [`push_run`] a snapshot for every
/// configuration measured, and call [`finish`] last: if the user passed
/// `--metrics-out <path>` the report lands there as JSON.
///
/// [`push_run`]: MetricsReport::push_run
/// [`finish`]: MetricsReport::finish
#[derive(Debug, Clone)]
pub struct MetricsReport {
    experiment: String,
    runs: Vec<(String, MachineMetrics)>,
}

impl MetricsReport {
    /// Creates an empty report for the named experiment (e.g. `"fig7"`).
    pub fn new(experiment: &str) -> MetricsReport {
        MetricsReport {
            experiment: experiment.to_string(),
            runs: Vec::new(),
        }
    }

    /// Appends one run's snapshot under `label`.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot fails [`MachineMetrics::check`] — a failed
    /// counter identity means the experiment's accounting is broken, and
    /// exporting it would be worse than crashing.
    pub fn push_run(&mut self, label: &str, metrics: MachineMetrics) {
        if let Err(e) = metrics.check() {
            panic!("metrics check failed for run '{label}': {e}");
        }
        self.runs.push((label.to_string(), metrics));
    }

    /// Number of runs collected so far.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when no runs were collected.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Renders the report as pretty-printed JSON with a fixed key order
    /// (schema [`REPORT_SCHEMA`]); each run embeds its full
    /// [`ne_sgx::metrics::METRICS_SCHEMA`] snapshot.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{REPORT_SCHEMA}\",\n"));
        out.push_str(&format!(
            "  \"experiment\": \"{}\",\n",
            json_escape(&self.experiment)
        ));
        out.push_str("  \"runs\": [\n");
        for (i, (label, m)) in self.runs.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"label\": \"{}\",\n", json_escape(label)));
            out.push_str(&format!(
                "      \"metrics\": {}\n",
                indent_tail(&m.to_json(), 6)
            ));
            out.push_str("    }");
            out.push_str(if i + 1 < self.runs.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}");
        out.push('\n');
        out
    }

    /// Writes the `--metrics-out` export, if requested, and prints where
    /// it went. Call this last.
    ///
    /// A requested file that cannot be written ends the process with a
    /// one-line error on stderr and exit status 2: an export that
    /// silently vanishes is worse than an abort.
    pub fn finish(&self) {
        if let Some(path) = metrics_out_path() {
            write_or_exit("metrics", &path, &self.to_json());
            println!(
                "\nmetrics: wrote {} run(s) to {}",
                self.runs.len(),
                path.display()
            );
        }
    }
}

/// Requests per (simulated) second of a snapshot: the count of the
/// end-to-end [`ProfileEvent::Request`] histogram over the wall-clock of
/// the busiest core. `None` when the run recorded no request latencies —
/// i.e. for every benchmark that is not a serving-layer run.
pub fn throughput_rps(m: &MachineMetrics) -> Option<f64> {
    let requests = m.profile.merged(ProfileEvent::Request).count();
    let wall = m.cores.iter().map(|c| c.cycles).max().unwrap_or(0);
    (requests > 0 && wall > 0).then(|| requests as f64 * m.clock_ghz * 1e9 / wall as f64)
}

/// Writes the traced run to `--trace-out` (Chrome Trace JSON; folded
/// stacks beside it at `<path>.folded`), if the flag was given. Pass the
/// bundle of the run the binary traced, or `None` when the experiment
/// has no traceable machine — the flag is then acknowledged with a note
/// instead of being silently ignored. A requested file that cannot be
/// written ends the process with an error on stderr and exit status 2.
pub fn write_trace(bundle: Option<&TraceBundle>) {
    let Some(path) = trace_out_path() else {
        return;
    };
    match bundle {
        Some(b) => {
            write_bundle(&path, b).unwrap_or_else(|e| cli_error(&e));
            println!(
                "\ntrace: {} span(s) to {} (+ {}.folded); \
                 truncated {}, unfinished {}, ring dropped {}",
                b.spans,
                path.display(),
                path.display(),
                b.truncated,
                b.unfinished,
                b.trace_dropped
            );
        }
        None => println!("\ntrace: this experiment produced no traced machine; nothing written"),
    }
}

/// Writes one trace bundle per shard of a sharded run, if `--trace-out`
/// was given. Shard 0 lands at the flag's path exactly where the
/// unsharded path would write (so a one-shard run is byte-identical);
/// shard `k > 0` lands beside it at `<path>.shard<k>` with its folded
/// stacks at `<path>.shard<k>.folded`. A requested file that cannot be
/// written ends the process with an error on stderr and exit status 2.
pub fn write_shard_traces(bundles: &[TraceBundle]) {
    let Some(path) = trace_out_path() else {
        return;
    };
    write_trace(bundles.first());
    for (k, b) in bundles.iter().enumerate().skip(1) {
        let shard_path = PathBuf::from(format!("{}.shard{k}", path.display()));
        write_bundle(&shard_path, b).unwrap_or_else(|e| cli_error(&e));
        println!(
            "trace: shard {k}: {} span(s) to {} (+ .folded)",
            b.spans,
            shard_path.display()
        );
    }
}

/// Ends the process with `error: unknown flag --x` and exit status 2 if
/// any `--` argument is not one of `known`, the flags the binary reads.
/// Call it first in `main`: a mistyped or retired flag would otherwise
/// be ignored and silently change what the run does.
pub fn reject_unknown_flags(known: &[&str]) {
    if let Some(flag) = unknown_flag(std::env::args().skip(1), known) {
        cli_error(&format!("unknown flag {flag}"));
    }
}

/// The first `--` argument in `args` (its name only, for `--flag=v`)
/// that is not in `known`.
fn unknown_flag(args: impl IntoIterator<Item = String>, known: &[&str]) -> Option<String> {
    args.into_iter()
        .filter(|a| a.starts_with("--"))
        .map(|a| a.split('=').next().unwrap_or_default().to_string())
        .find(|flag| !known.contains(&flag.as_str()))
}

/// Prints `msg` as a one-line error on stderr and exits with status 2:
/// the one failure path for bad CLI input (a valueless or malformed flag,
/// an unwritable output path), so none of them panics.
pub fn cli_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

/// Finds a string-valued flag (`--flag v` or `--flag=v`) in `args`.
///
/// # Errors
///
/// The flag is present without a value: it is the last argument, or
/// its value is empty (`--flag=`). Reading either as "absent" would
/// silently drop an export or run the default seed.
fn scan_flag(args: &[String], flag: &str) -> Result<Option<String>, String> {
    let prefix = format!("{flag}=");
    let mut args = args.iter();
    while let Some(a) = args.next() {
        let value = if a == flag {
            args.next().cloned()
        } else if let Some(v) = a.strip_prefix(&prefix) {
            Some(v.to_string())
        } else {
            continue;
        };
        return match value {
            Some(v) if !v.is_empty() => Ok(Some(v)),
            _ => Err(format!("{flag} expects a value")),
        };
    }
    Ok(None)
}

/// Parses a string-valued flag (`--flag v` or `--flag=v`) from the
/// process arguments. A flag given without a value (the last argument,
/// or `--flag=`) ends the process with an error on stderr and exit
/// status 2.
pub fn flag_str(flag: &str) -> Option<String> {
    scan_flag(&args(), flag).unwrap_or_else(|e| cli_error(&e))
}

/// The process arguments.
fn args() -> Vec<String> {
    std::env::args().collect()
}

fn flag_path(flag: &str) -> Option<PathBuf> {
    flag_str(flag).map(PathBuf::from)
}

/// Finds an integer flag in `args`; a valueless or non-integer one is an
/// error (a silently ignored seed would make a "seeded" run
/// unreproducible).
fn scan_u64(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    scan_flag(args, flag)?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} expects an unsigned integer, got '{v}'"))
        })
        .transpose()
}

/// Parses an integer flag (`--flag 7` or `--flag=7`) from the process
/// arguments. A malformed value ends the process with an error on stderr
/// and exit status 2.
pub fn flag_u64(flag: &str) -> Option<u64> {
    scan_u64(&args(), flag).unwrap_or_else(|e| cli_error(&e))
}

/// What the scenario flags of `ne-load` and `ne-serve` describe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioArgs {
    /// The scenario; its mode is that of the last run in `modes`.
    pub scenario: Scenario,
    /// The runs `--mode` asks for, in order.
    pub modes: Vec<Mode>,
    /// Machine shards (`--shards`).
    pub shards: usize,
}

/// Parses the scenario flags from the process arguments (see
/// [`parse_scenario`]). Bad input ends the process with a one-line error
/// on stderr and exit status 2.
pub fn scenario_args(both: bool) -> ScenarioArgs {
    parse_scenario(&args(), both).unwrap_or_else(|e| cli_error(&e))
}

/// The one parser of the scenario flags, with one defaults table:
/// `--tenants` 4, `--services` 2 (capped at the [`ServiceKind`]s),
/// `--requests` 12, `--seed` `0xC0FFEE`, `--shards` 1, `--mode` `closed`,
/// or `both` (open loop, then closed loop) when `both` allows it.
/// `--timeline-out` turns the timeline on, at `--window` cycles or the
/// [`SamplerConfig`] default.
///
/// # Errors
///
/// A malformed value, a count out of range (over 255 tenants, over
/// `u32::MAX` requests, more shards than tenants), an unknown mode, a
/// malformed `--chaos` spec, or a `--window` without `--timeline-out`.
pub fn parse_scenario(args: &[String], both: bool) -> Result<ScenarioArgs, String> {
    let count = |flag: &str, default: u64, max: u64| -> Result<usize, String> {
        match scan_u64(args, flag)?.unwrap_or(default) {
            v if v > max => Err(format!("{flag} {v} is out of range (at most {max})")),
            v => Ok(v as usize),
        }
    };
    // `standard_specs` gives tenant `i` the `u8` priority `tenants - i`.
    let tenants = count("--tenants", 4, u8::MAX.into())?;
    let services =
        scan_u64(args, "--services")?.map_or(2, |v| v.min(ServiceKind::ALL.len() as u64));
    // The wire Hello carries the per-pair count as a `u32`.
    let requests = count("--requests", 12, u32::MAX.into())?;
    let seed = scan_u64(args, "--seed")?.unwrap_or(0xC0FFEE);
    // Every shard is one OS thread and one simulated machine; a shard
    // past the tenant count would hold no tenant.
    let shards = count("--shards", 1, tenants.max(1) as u64)?.max(1);
    let modes = match (scan_flag(args, "--mode")?.as_deref(), both) {
        (Some("open"), _) => vec![Mode::Open],
        (Some("closed"), _) | (None, false) => vec![Mode::Closed],
        (Some("both") | None, true) => vec![Mode::Open, Mode::Closed],
        (Some(other), true) => {
            return Err(format!("--mode expects open|closed|both, got '{other}'"))
        }
        (Some(other), false) => return Err(format!("--mode expects open|closed, got '{other}'")),
    };
    let chaos = scan_flag(args, "--chaos")?;
    // The per-shard seed does not affect parsing.
    if let Some(spec) = &chaos {
        FaultPlan::parse(spec, seed).map_err(|e| format!("--chaos: {e}"))?;
    }
    let window = match (
        scan_flag(args, "--timeline-out")?,
        scan_u64(args, "--window")?,
    ) {
        (Some(_), window) => Some(window.unwrap_or(SamplerConfig::default().window_cycles)),
        (None, Some(_)) => return Err("--window needs --timeline-out".to_string()),
        (None, None) => None,
    };
    let scenario = Scenario {
        mode: *modes.last().expect("every --mode names a run"),
        chaos,
        window,
        ..Scenario::new(tenants, services as usize, requests, seed)
    };
    Ok(ScenarioArgs {
        scenario,
        modes,
        shards,
    })
}

/// Parses `--metrics-out <path>` from the process arguments.
pub fn metrics_out_path() -> Option<PathBuf> {
    flag_path("--metrics-out")
}

/// Parses `--trace-out <path>` from the process arguments.
pub fn trace_out_path() -> Option<PathBuf> {
    flag_path("--trace-out")
}

/// True when any flag needing an event-traced run was given
/// (`--trace-out`); binaries use this to enable tracing on the
/// representative run they export.
pub fn want_trace() -> bool {
    trace_out_path().is_some()
}

/// Writes one export file, naming `what` and the path on failure.
fn write_export(what: &str, path: &Path, payload: &str) -> Result<(), String> {
    std::fs::write(path, payload)
        .map_err(|e| format!("cannot write {what} to {}: {e}", path.display()))
}

/// Writes one requested export file. A path that cannot be written ends
/// the process with a one-line error on stderr and exit status 2.
pub fn write_or_exit(what: &str, path: &Path, payload: &str) {
    write_export(what, path, payload).unwrap_or_else(|e| cli_error(&e));
}

/// Writes a trace bundle: Chrome Trace JSON at `path`, folded stacks at
/// `<path>.folded`.
fn write_bundle(path: &Path, b: &TraceBundle) -> Result<(), String> {
    write_export("trace", path, &b.chrome_json)?;
    let folded = PathBuf::from(format!("{}.folded", path.display()));
    write_export("stacks", &folded, &b.folded)
}

/// Re-indents every line of a pretty-printed JSON blob after the first by
/// `by` extra spaces, so it nests cleanly inside an outer document.
fn indent_tail(json: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    let mut lines = json.lines();
    let mut out = String::with_capacity(json.len() + 256);
    if let Some(first) = lines.next() {
        out.push_str(first);
    }
    for line in lines {
        out.push('\n');
        out.push_str(&pad);
        out.push_str(line);
    }
    out
}

/// Renders a per-enclave cycle-breakdown table from a snapshot: one row
/// per attribution bucket (untrusted first), one column per
/// [`CycleCategory`], plus a total column. The row totals sum to the
/// machine's `total_cycles` — [`MachineMetrics::check`] enforces it.
pub fn breakdown_table(m: &MachineMetrics) -> Table {
    let mut headers: Vec<&str> = vec!["Context"];
    headers.extend(CycleCategory::ALL.iter().map(|c| c.name()));
    headers.push("total");
    let mut t = Table::new(&headers);
    for e in &m.enclaves {
        let ctx = match e.eid {
            None => "untrusted".to_string(),
            Some(id) if e.outer_eids.is_empty() => format!("enclave {id} (outer)"),
            Some(id) => format!(
                "enclave {id} (inner of {})",
                e.outer_eids
                    .iter()
                    .map(|o| o.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        };
        let mut row = vec![ctx];
        row.extend(
            CycleCategory::ALL
                .iter()
                .map(|&c| e.breakdown.get(c).to_string()),
        );
        row.push(e.breakdown.total().to_string());
        t.row(&row);
    }
    let mut total_row = vec!["machine total".to_string()];
    let mut machine = ne_sgx::metrics::CycleBreakdown::default();
    for e in &m.enclaves {
        machine.merge(&e.breakdown);
    }
    total_row.extend(
        CycleCategory::ALL
            .iter()
            .map(|&c| machine.get(c).to_string()),
    );
    total_row.push(m.total_cycles.to_string());
    t.row(&total_row);
    t
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ne_sgx::metrics::METRICS_SCHEMA;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("| name   | value |"));
        assert!(r.contains("| longer | 2     |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    fn snapshot() -> MachineMetrics {
        let mut m = ne_sgx::machine::Machine::new(ne_sgx::config::HwConfig::small());
        let va = m.os_alloc_untrusted(ne_sgx::enclave::ProcessId(0), 1);
        m.write(0, va, b"payload").unwrap();
        m.metrics()
    }

    #[test]
    fn report_json_is_schema_stable() {
        let mut r = MetricsReport::new("unit");
        r.push_run("a", snapshot());
        r.push_run("b", snapshot());
        let j = r.to_json();
        assert!(j.starts_with(&format!("{{\n  \"schema\": \"{REPORT_SCHEMA}\"")));
        assert!(j.starts_with("{\n  \"schema\": \"ne-metrics-report/v2\""));
        assert!(j.contains("\"experiment\": \"unit\""));
        assert!(j.contains("\"label\": \"a\""));
        assert!(j.contains(&format!("\"schema\": \"{METRICS_SCHEMA}\"")));
        assert_eq!(r.len(), 2);
        // Identical inputs render byte-identically.
        let mut r2 = MetricsReport::new("unit");
        r2.push_run("a", snapshot());
        r2.push_run("b", snapshot());
        assert_eq!(j, r2.to_json());
    }

    #[test]
    fn throughput_only_for_serving_runs() {
        let mut m = ne_sgx::machine::Machine::new(ne_sgx::config::HwConfig::small());
        let va = m.os_alloc_untrusted(ne_sgx::enclave::ProcessId(0), 1);
        m.write(0, va, b"payload").unwrap();
        m.note(ne_sgx::trace::Event::Request { cycles: 1000 });
        assert!(throughput_rps(&m.metrics()).unwrap() > 0.0);
        assert!(throughput_rps(&snapshot()).is_none());
    }

    #[test]
    #[should_panic(expected = "metrics check failed")]
    fn report_rejects_broken_accounting() {
        let mut m = snapshot();
        m.total_cycles += 1;
        MetricsReport::new("unit").push_run("bad", m);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scan_flag_reads_both_value_forms() {
        let flag = "--metrics-out";
        let spaced = args(&["bin", "--metrics-out", "m.json", "--full"]);
        assert_eq!(scan_flag(&spaced, flag), Ok(Some("m.json".to_string())));
        let joined = args(&["bin", "--full", "--metrics-out=m.json"]);
        assert_eq!(scan_flag(&joined, flag), Ok(Some("m.json".to_string())));
        assert_eq!(scan_flag(&args(&["bin", "--full"]), flag), Ok(None));
    }

    #[test]
    fn scan_flag_refuses_a_trailing_flag() {
        let err = scan_flag(&args(&["bin", "--full", "--metrics-out"]), "--metrics-out");
        assert_eq!(err, Err("--metrics-out expects a value".to_string()));
    }

    #[test]
    fn scan_flag_refuses_an_empty_joined_value() {
        let err = scan_flag(&args(&["bin", "--seed=", "--full"]), "--seed");
        assert_eq!(err, Err("--seed expects a value".to_string()));
    }

    #[test]
    fn unknown_flag_names_the_first_unread_flag() {
        let known = ["--full", "--metrics-out"];
        let read = args(&["--full", "--metrics-out=m.json", "--metrics-out", "m.json"]);
        assert_eq!(unknown_flag(read, &known), None);
        let stray = args(&["--full", "--colour", "--verbose=2"]);
        assert_eq!(unknown_flag(stray, &known), Some("--colour".to_string()));
        let joined = args(&["--verbose=2"]);
        assert_eq!(unknown_flag(joined, &known), Some("--verbose".to_string()));
    }

    #[test]
    fn write_export_reports_an_unwritable_path() {
        // A directory cannot be written as a file.
        let dir = std::env::temp_dir();
        let err = write_export("metrics", &dir, "{}").unwrap_err();
        assert!(
            err.starts_with(&format!("cannot write metrics to {}: ", dir.display())),
            "{err}"
        );
    }

    #[test]
    fn breakdown_table_covers_every_bucket() {
        let m = snapshot();
        let rendered = breakdown_table(&m).render();
        assert!(rendered.contains("untrusted"));
        assert!(rendered.contains("machine total"));
        assert!(rendered.contains("tlb_walk"));
    }
}
