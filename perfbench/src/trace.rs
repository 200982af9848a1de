//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end on a clock shared by every thread
//! of the run, the span that was open when it started (its parent), and
//! a request id shared by the spans of one request. A layer's self time
//! is its span's duration minus the part of it that child spans cover,
//! so along one thread the self times of a root span's tree sum exactly
//! to the root's duration; the root's own self time is the loop glue no
//! layer span covers, reported as `bench.unattributed_pct`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are ns since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was recorded at.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 when it serves no single request).
    pub req: u64,
}

impl Span {
    /// End minus start.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// A per-thread span recorder. When off, every call is a no-op apart from
/// running the measured closure, so the untraced path pays one branch.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder timing against `epoch`; records only when `on`.
    pub fn new(epoch: Instant, on: bool) -> Tracer {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            req,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        Some(id)
    }

    /// Closes the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            let name = self.spans[i].name;
            let req = self.spans[i].req;
            self.close_as(id, name, req);
        }
    }

    /// Closes the innermost open span, naming it and its request only
    /// now (a scheduler step learns which request it served on return).
    pub fn close_as(&mut self, id: SpanId, name: &'static str, req: u64) {
        let Some(i) = id else { return };
        assert_eq!(
            self.stack.pop(),
            Some(i),
            "spans must close innermost first"
        );
        let end = self.now();
        let span = &mut self.spans[i];
        span.end = end;
        span.name = name;
        span.req = req;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, req);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans; every span must be closed.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "span left open");
        self.spans
    }
}

/// Appends `more` to `all`, re-pointing its parent indices.
pub fn absorb(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end);
                let b = b.clamp(a, s.end);
                covered += b - a;
                reach = b;
            }
            s.duration() - covered
        })
        .collect()
}

/// Writes spans as tab-separated lines: index, name, start, end, parent
/// (`-` for a root), request id, self time.
///
/// # Errors
///
/// File creation or write failures.
pub fn write_tsv(path: &Path, spans: &[Span], selfs: &[u64]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq\tself_ns")?;
    for (i, (s, own)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{own}",
            s.name, s.start, s.end, s.req
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_with_nested_and_abutting_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 50, Some(0)), // abuts a
            span("a.inner", 12, 20, Some(1)),
            span("a.inner2", 20, 30, Some(1)), // abuts a.inner and a's end
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![60, 2, 20, 8, 10]);
        // The tree's self times sum to the root's duration.
        assert_eq!(selfs.iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_the_parent() {
        let spans = [
            span("root", 10, 50, None),
            span("x", 5, 20, Some(0)),  // starts before the parent
            span("y", 15, 30, Some(0)), // overlaps x
            span("z", 45, 70, Some(0)), // ends after the parent
        ];
        assert_eq!(self_times(&spans), vec![15, 15, 15, 25]);
        assert_eq!(self_times(&[span("leaf", 3, 3, None)]), vec![0]);
    }

    #[test]
    fn tracer_links_parents_and_absorb_rebases() {
        let mut t = Tracer::new(Instant::now(), true);
        let root = t.open("root", 0);
        let inner = t.span("child", 7, || 42);
        assert_eq!(inner, 42);
        let step = t.open("step", 0);
        t.close_as(step, "step.echo", 9);
        t.close(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!((spans[1].name, spans[1].req), ("child", 7));
        assert_eq!((spans[2].name, spans[2].req), ("step.echo", 9));
        assert!(spans[0].start <= spans[1].start && spans[2].end <= spans[0].end);
        let mut all = spans.clone();
        absorb(&mut all, spans);
        assert_eq!(all[4].parent, Some(3));
        assert_eq!(all[3].parent, None);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        let id = t.open("root", 0);
        assert_eq!(id, None);
        assert_eq!(t.span("x", 1, || 5), 5);
        t.close(id);
        assert!(t.into_spans().is_empty());
    }
}
