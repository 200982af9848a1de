//! Span-tree reconstruction and trace export (Perfetto / flamegraph).
//!
//! The [`crate::trace::Trace`] ring buffer holds a bounded, most-recent
//! window of events; this module rebuilds the runtime call tree from the
//! `SpanBegin`/`SpanEnd` events in that window and renders it two ways:
//!
//! - **Chrome Trace Event JSON** ([`SpanTree::to_chrome_json`]) —
//!   loadable in Perfetto or `chrome://tracing`. Each hierarchy level
//!   ([`HierLevel`]) becomes a process (`pid`), each core a thread
//!   (`tid`), so the UI shows one track per core within one group per
//!   level, and timestamps are simulated microseconds.
//! - **Folded stacks** ([`SpanTree::to_folded`]) — `path;to;frame N`
//!   lines with *self* cycles, the input format of `flamegraph.pl` and
//!   `inferno-flamegraph`.
//!
//! Because the ring drops the **oldest** events, a window can contain a
//! `SpanEnd` whose `SpanBegin` was evicted, or a `SpanBegin` whose parent
//! was. Reconstruction never panics on these: end-without-begin is counted
//! in [`SpanTree::truncated`] and marked in the export as an instant
//! event; begin-without-parent becomes a root and counts in
//! [`SpanTree::orphaned`]. Spans still open at capture (no end in the
//! window) are counted in [`SpanTree::unfinished`] and exported as
//! instants rather than unbalanced `B` events.

use crate::machine::Machine;
use crate::metrics::json_escape;
use crate::profile::HierLevel;
use crate::trace::{Event, SpanKind, Trace};
use std::collections::{BTreeMap, HashMap};

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Machine-unique span id.
    pub id: u64,
    /// Core the span executed on.
    pub core: usize,
    /// Parent span id as recorded (even if the parent's begin was
    /// evicted from the window).
    pub parent: Option<u64>,
    /// Boundary kind.
    pub kind: SpanKind,
    /// Caller hierarchy level at open.
    pub level: HierLevel,
    /// Registered function name.
    pub label: String,
    /// Core cycle clock at open.
    pub begin: u64,
    /// Core cycle clock at close; `None` if still open at capture.
    pub end: Option<u64>,
    /// True when the close was inherited from an enclosing span (the
    /// runtime closed this span implicitly, so it emitted no `SpanEnd`).
    pub implicit_end: bool,
    /// Child spans, in begin order (arena indices into
    /// [`SpanTree::nodes`]).
    pub children: Vec<usize>,
}

impl SpanNode {
    /// Span duration in cycles (0 while unfinished).
    pub fn duration(&self) -> u64 {
        self.end.map_or(0, |e| e.saturating_sub(self.begin))
    }
}

/// The call tree reconstructed from one trace window.
#[derive(Debug, Clone, Default)]
pub struct SpanTree {
    /// All spans whose begin fell inside the window, in begin order.
    pub nodes: Vec<SpanNode>,
    /// Indices of parentless spans, in begin order.
    pub roots: Vec<usize>,
    /// `(core, cycles)` of `SpanEnd` events whose begin was evicted by
    /// ring wraparound — truncated spans, marked in the export.
    pub truncated: Vec<(usize, u64)>,
    /// Spans whose recorded parent was evicted (promoted to roots).
    pub orphaned: u64,
    /// Spans with no close in the window (open at capture).
    pub unfinished: u64,
}

impl SpanTree {
    /// Rebuilds the span tree from the retained trace window.
    pub fn reconstruct(trace: &Trace) -> SpanTree {
        let mut tree = SpanTree::default();
        let mut index: HashMap<u64, usize> = HashMap::new();
        for ev in trace.events() {
            match ev {
                Event::SpanBegin {
                    core,
                    id,
                    parent,
                    kind,
                    level,
                    label,
                    cycles,
                } => {
                    let idx = tree.nodes.len();
                    tree.nodes.push(SpanNode {
                        id: *id,
                        core: *core,
                        parent: *parent,
                        kind: *kind,
                        level: *level,
                        label: label.clone(),
                        begin: *cycles,
                        end: None,
                        implicit_end: false,
                        children: Vec::new(),
                    });
                    match parent.and_then(|p| index.get(&p).copied()) {
                        Some(p) => tree.nodes[p].children.push(idx),
                        None => {
                            if parent.is_some() {
                                tree.orphaned += 1;
                            }
                            tree.roots.push(idx);
                        }
                    }
                    index.insert(*id, idx);
                }
                Event::SpanEnd { core, id, cycles } => match index.get(id) {
                    Some(&idx) => tree.nodes[idx].end = Some(*cycles),
                    None => tree.truncated.push((*core, *cycles)),
                },
                _ => {}
            }
        }
        // Spans the runtime closed implicitly (an enclosing span_end
        // truncated them) emitted no SpanEnd of their own: inherit the
        // close time of the nearest closed ancestor.
        let roots = tree.roots.clone();
        for root in roots {
            tree.close_implicit(root, None);
        }
        tree.unfinished = tree.nodes.iter().filter(|n| n.end.is_none()).count() as u64;
        tree
    }

    fn close_implicit(&mut self, idx: usize, inherited: Option<u64>) {
        if self.nodes[idx].end.is_none() {
            if let Some(e) = inherited {
                self.nodes[idx].end = Some(e);
                self.nodes[idx].implicit_end = true;
            }
        }
        let end = self.nodes[idx].end;
        let children = self.nodes[idx].children.clone();
        for c in children {
            self.close_implicit(c, end);
        }
    }

    /// Finished spans (close known, explicit or implicit).
    pub fn finished(&self) -> usize {
        self.nodes.iter().filter(|n| n.end.is_some()).count()
    }

    /// Renders the tree as Chrome Trace Event JSON (Perfetto-loadable).
    ///
    /// `pid` is the hierarchy level ([`HierLevel::index`]), `tid` the
    /// core; timestamps are simulated microseconds at `clock_ghz`.
    /// Truncated span ends and unfinished spans appear as instant (`"i"`)
    /// events, never as unbalanced `B`/`E` pairs.
    pub fn to_chrome_json(&self, clock_ghz: f64) -> String {
        let us = |cycles: u64| cycles as f64 / (clock_ghz * 1000.0);
        let mut events: Vec<String> = Vec::new();
        // Metadata: name the processes (levels) and threads (cores) in use.
        let mut pairs: Vec<(usize, usize)> = self
            .nodes
            .iter()
            .map(|n| (n.level.index(), n.core))
            .chain(self.truncated.iter().map(|(core, _)| (0usize, *core)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        let mut pids: Vec<usize> = pairs.iter().map(|(p, _)| *p).collect();
        pids.dedup();
        for pid in &pids {
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{}\"}}}}",
                HierLevel::ALL[*pid].name()
            ));
        }
        for (pid, tid) in &pairs {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"core {tid}\"}}}}",
            ));
        }
        for &root in &self.roots {
            self.emit_chrome(root, &us, &mut events);
        }
        for (core, cycles) in &self.truncated {
            events.push(format!(
                "{{\"name\":\"truncated_span_end\",\"cat\":\"truncated\",\"ph\":\"i\",\
                 \"s\":\"t\",\"ts\":{:.3},\"pid\":0,\"tid\":{core},\"args\":{{}}}}",
                us(*cycles)
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}",
            events.join(",\n")
        )
    }

    fn emit_chrome(&self, idx: usize, us: &dyn Fn(u64) -> f64, events: &mut Vec<String>) {
        let n = &self.nodes[idx];
        let name = format!("{}:{}", n.kind.name(), json_escape(&n.label));
        match n.end {
            Some(end) => {
                events.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"B\",\"ts\":{:.3},\
                     \"pid\":{},\"tid\":{},\"args\":{{\"span_id\":{},\"implicit_end\":{}}}}}",
                    n.kind.name(),
                    us(n.begin),
                    n.level.index(),
                    n.core,
                    n.id,
                    n.implicit_end
                ));
                for &c in &n.children {
                    self.emit_chrome(c, us, events);
                }
                events.push(format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"E\",\"ts\":{:.3},\
                     \"pid\":{},\"tid\":{}}}",
                    n.kind.name(),
                    us(end),
                    n.level.index(),
                    n.core
                ));
            }
            None => {
                // Unfinished: an instant marker instead of a dangling B.
                events.push(format!(
                    "{{\"name\":\"unfinished:{name}\",\"cat\":\"unfinished\",\"ph\":\"i\",\
                     \"s\":\"t\",\"ts\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"span_id\":{}}}}}",
                    us(n.begin),
                    n.level.index(),
                    n.core,
                    n.id
                ));
                for &c in &n.children {
                    self.emit_chrome(c, us, events);
                }
            }
        }
    }

    /// Renders folded flamegraph stacks: one `coreN;kind:label;… cycles`
    /// line per distinct call path, with **self** cycles (span duration
    /// minus finished children), zero-self paths omitted.
    pub fn to_folded(&self) -> String {
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for &root in &self.roots {
            let prefix = format!("core{}", self.nodes[root].core);
            self.fold(root, &prefix, &mut agg);
        }
        let mut out = String::new();
        for (path, cycles) in agg {
            out.push_str(&format!("{path} {cycles}\n"));
        }
        out
    }

    fn fold(&self, idx: usize, prefix: &str, agg: &mut BTreeMap<String, u64>) {
        let n = &self.nodes[idx];
        if n.end.is_none() {
            // Unfinished spans have no duration; descend without a frame.
            for &c in &n.children {
                self.fold(c, prefix, agg);
            }
            return;
        }
        let path = format!("{prefix};{}:{}", n.kind.name(), n.label);
        let child_cycles: u64 = n.children.iter().map(|&c| self.nodes[c].duration()).sum();
        let self_cycles = n.duration().saturating_sub(child_cycles);
        if self_cycles > 0 {
            *agg.entry(path.clone()).or_default() += self_cycles;
        }
        for &c in &n.children {
            self.fold(c, &path, agg);
        }
    }
}

/// Both export formats captured from a machine in one go, plus the
/// truncation accounting a consumer should surface next to them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceBundle {
    /// Chrome Trace Event JSON (write to a `.json` for Perfetto).
    pub chrome_json: String,
    /// Folded flamegraph stacks (pipe through `flamegraph.pl`).
    pub folded: String,
    /// Spans reconstructed from the window.
    pub spans: usize,
    /// `SpanEnd`s whose begin was evicted (ring wraparound).
    pub truncated: u64,
    /// Spans still open at capture.
    pub unfinished: u64,
    /// Spans whose parent was evicted.
    pub orphaned: u64,
    /// Events the ring dropped in total (context for the above).
    pub trace_dropped: u64,
}

impl TraceBundle {
    /// Reconstructs and renders the machine's current trace window.
    pub fn capture(machine: &Machine) -> TraceBundle {
        let tree = SpanTree::reconstruct(machine.trace());
        TraceBundle {
            chrome_json: tree.to_chrome_json(machine.config().cost.clock_ghz),
            folded: tree.to_folded(),
            spans: tree.nodes.len(),
            truncated: tree.truncated.len() as u64,
            unfinished: tree.unfinished,
            orphaned: tree.orphaned,
            trace_dropped: machine.trace().dropped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HwConfig;

    fn traced_machine() -> Machine {
        let mut cfg = HwConfig::small();
        cfg.trace_events = true;
        Machine::new(cfg)
    }

    #[test]
    fn reconstructs_nesting_and_durations() {
        let mut m = traced_machine();
        let outer = m.span_begin(0, SpanKind::Ecall, format_args!("outer"));
        m.charge(0, 100);
        let inner = m.span_begin(0, SpanKind::Ocall, format_args!("inner"));
        m.charge(0, 40);
        m.span_end(0, inner);
        m.charge(0, 10);
        m.span_end(0, outer);
        let tree = SpanTree::reconstruct(m.trace());
        assert_eq!(tree.nodes.len(), 2);
        assert_eq!(tree.roots.len(), 1);
        let root = &tree.nodes[tree.roots[0]];
        assert_eq!(root.label, "outer");
        assert_eq!(root.duration(), 150);
        let child = &tree.nodes[root.children[0]];
        assert_eq!(child.label, "inner");
        assert_eq!(child.duration(), 40);
        assert_eq!(tree.truncated.len(), 0);
        assert_eq!(tree.unfinished, 0);
    }

    #[test]
    fn implicitly_closed_children_inherit_parent_end() {
        let mut m = traced_machine();
        let outer = m.span_begin(0, SpanKind::Ecall, format_args!("outer"));
        let _leaked = m.span_begin(0, SpanKind::Ocall, format_args!("leaked"));
        m.charge(0, 70);
        m.span_end(0, outer); // closes "leaked" implicitly: no SpanEnd for it
        let tree = SpanTree::reconstruct(m.trace());
        assert_eq!(tree.finished(), 2);
        let leaked = tree.nodes.iter().find(|n| n.label == "leaked").unwrap();
        assert!(leaked.implicit_end);
        assert_eq!(leaked.end, Some(70));
    }

    #[test]
    fn wraparound_mid_span_yields_truncated_not_panic() {
        // Replayed into a capacity-4 ring: the begins of early spans are
        // evicted while their ends still arrive — the reconstructor must
        // count, not panic.
        let mut m = traced_machine();
        let outer = m.span_begin(0, SpanKind::Ecall, format_args!("outer"));
        for i in 0..6 {
            let s = m.span_begin(0, SpanKind::Ocall, format_args!("o{i}"));
            m.charge(0, 10);
            m.span_end(0, s);
        }
        m.span_end(0, outer);
        let mut ring = Trace::new(true, 4);
        for e in m.trace().events() {
            ring.record(e.clone());
        }
        assert!(ring.dropped() > 0, "ring must have wrapped");
        let tree = SpanTree::reconstruct(&ring);
        assert!(
            !tree.truncated.is_empty(),
            "ends without begins must be counted as truncated"
        );
        // The export renders without panicking and marks the truncation.
        let json = tree.to_chrome_json(3.6);
        assert!(json.contains("truncated_span_end"));
        let _ = tree.to_folded();
    }

    #[test]
    fn unfinished_spans_become_instants_not_dangling_begins() {
        let mut m = traced_machine();
        let _open = m.span_begin(0, SpanKind::Ecall, format_args!("still-open"));
        m.charge(0, 5);
        let tree = SpanTree::reconstruct(m.trace());
        assert_eq!(tree.unfinished, 1);
        let json = tree.to_chrome_json(3.6);
        assert!(json.contains("unfinished:ecall:still-open"));
        assert!(!json.contains("\"ph\":\"B\""), "no unbalanced B events");
    }

    #[test]
    fn folded_output_accounts_self_cycles() {
        let mut m = traced_machine();
        let outer = m.span_begin(0, SpanKind::Ecall, format_args!("handler"));
        m.charge(0, 100);
        let inner = m.span_begin(0, SpanKind::Ocall, format_args!("sink"));
        m.charge(0, 30);
        m.span_end(0, inner);
        m.span_end(0, outer);
        let folded = SpanTree::reconstruct(m.trace()).to_folded();
        assert!(folded.contains("core0;ecall:handler 100\n"), "{folded}");
        assert!(
            folded.contains("core0;ecall:handler;ocall:sink 30\n"),
            "{folded}"
        );
    }

    #[test]
    fn bundle_capture_smoke() {
        let mut m = traced_machine();
        let s = m.span_begin(1, SpanKind::SwitchlessOcall, format_args!("q"));
        m.charge(1, 620);
        m.span_end(1, s);
        let b = TraceBundle::capture(&m);
        assert_eq!(b.spans, 1);
        assert_eq!(b.truncated, 0);
        assert!(b.chrome_json.contains("switchless_ocall:q"));
        assert!(b.folded.contains("core1;switchless_ocall:q 620"));
    }
}
