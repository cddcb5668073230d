//! In-memory spans for the traced run.
//!
//! Spans are recorded only by this benchmark, around its own calls into
//! each layer's public functions. A span's name is `<layer>.<call>`; its
//! layer is the part before the first dot. Spans are kept in memory and
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. Times are seconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.sense`.
    pub name: &'static str,
    /// Start, seconds since the recorder origin.
    pub start: f64,
    /// End, seconds since the recorder origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round or query id the span belongs to.
    pub id: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans against one time origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose origin is now.
    pub fn new() -> Self {
        Recorder::with_origin(Instant::now())
    }

    /// An empty recorder with the given origin; recorders sharing an
    /// origin can be merged with [`Recorder::append`].
    pub fn with_origin(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// This recorder's time origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Moves `other`'s spans (recorded against the same origin) to the
    /// end of this recorder, keeping their parent links.
    pub fn append(&mut self, other: Recorder) {
        debug_assert_eq!(self.origin, other.origin, "recorders must share an origin");
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Seconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a finished interval and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Opens a span starting now; [`Recorder::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, id, now, now)
    }

    /// Ends span `idx` now.
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.at(Instant::now());
    }

    /// Runs `f` under a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, id, start, Instant::now());
        out
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`, times in microseconds
    /// since the origin.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": {parent}, \"id\": {}}}",
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                s.id
            )?;
        }
        out.flush()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Total length covered by the union of `intervals`.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut sorted: Vec<(f64, f64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in sorted {
        match current {
            Some((ca, cb)) if a <= cb => current = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

/// A span's self time: its duration minus the part of it that
/// `children` cover (children overlapping each other count once;
/// anything outside the span is clipped).
pub fn self_time(span: &Span, children: &[&Span]) -> f64 {
    let covered: Vec<(f64, f64)> = children
        .iter()
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .collect();
    span.duration() - union_len(&covered)
}

/// Self time per layer over the descendants of the spans in `roots`.
///
/// A layer's entry spans are those whose parent is a root or belongs to
/// another layer. Each entry span contributes its self time after
/// removing the descendants that belong to other layers; nested spans
/// of its own layer are already inside it and add nothing more.
pub fn layer_self_times(spans: &[Span], roots: &[usize]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut stack: Vec<usize> = roots.iter().flat_map(|&r| children[r].clone()).collect();
    while let Some(entry) = stack.pop() {
        let layer = spans[entry].layer();
        // Walk the entry's own-layer subtree; the first foreign span on
        // each path is subtracted and becomes an entry of its layer.
        let mut foreign: Vec<&Span> = Vec::new();
        let mut walk: Vec<usize> = children[entry].clone();
        while let Some(i) = walk.pop() {
            if spans[i].layer() == layer {
                walk.extend(&children[i]);
            } else {
                foreign.push(&spans[i]);
                stack.push(i);
            }
        }
        *out.entry(layer).or_insert(0.0) += self_time(&spans[entry], &foreign);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_skips_empty() {
        assert_eq!(union_len(&[]), 0.0);
        assert_eq!(union_len(&[(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]), 3.0);
        assert_eq!(union_len(&[(3.0, 4.0), (0.0, 1.0), (1.0, 1.5)]), 2.5);
        assert_eq!(union_len(&[(2.0, 1.0)]), 0.0);
    }

    #[test]
    fn self_time_subtracts_covered_part_once() {
        let parent = span("round", 0.0, 10.0, None);
        let a = span("core.sense", 1.0, 4.0, Some(0));
        // Parallel sibling overlapping `a`: counted once.
        let b = span("core.sense", 2.0, 5.0, Some(0));
        // Sticks out past the parent: clipped at 10.
        let c = span("geomap.absorb", 9.0, 12.0, Some(0));
        assert_eq!(self_time(&parent, &[&a, &b, &c]), 10.0 - 4.0 - 1.0);
        assert_eq!(self_time(&a, &[]), 3.0);
    }

    #[test]
    fn layer_self_times_count_entry_spans_and_exclude_foreign_children() {
        let spans = vec![
            span("round", 0.0, 10.0, None),           // 0: root
            span("core.stage", 0.0, 6.0, Some(0)),    // 1: core entry
            span("core.sense", 0.0, 5.0, Some(1)),    // 2: same layer, nested
            span("core.sense", 1.0, 6.0, Some(1)),    // 3: parallel, nested
            span("wire.codec", 5.5, 6.0, Some(1)),    // 4: foreign child of core
            span("crowd.infer", 6.0, 9.0, Some(0)),   // 5: crowd entry
            span("round", 20.0, 21.0, None),          // 6: another root
            span("crowd.infer", 20.0, 20.5, Some(6)), // 7
        ];
        let by_layer = layer_self_times(&spans, &[0]);
        assert_eq!(by_layer["core"], 5.5);
        assert_eq!(by_layer["wire"], 0.5);
        assert_eq!(by_layer["crowd"], 3.0);
        assert_eq!(by_layer.len(), 3);
        let both = layer_self_times(&spans, &[0, 6]);
        assert_eq!(both["crowd"], 3.5);
        // Root self time is what no layer span covers.
        let root_children: Vec<&Span> = vec![&spans[1], &spans[5]];
        assert_eq!(self_time(&spans[0], &root_children), 1.0);
    }
}
