//! Spans kept in memory and written out when the run ends.
//!
//! Spans are recorded only from the benchmark's own files, around calls into public
//! layer functions (the replay drivers); the product crates carry no tracing code.  A
//! replay driver is generic over [`Tracer`]: with [`NoTrace`] every call compiles to
//! nothing, so the spans-off replay — and `inspector_drift`'s wall runs, which use the
//! same driver — have no tracing code on the path.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.  `parent` indexes the same rank's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub rank: u32,
    pub step: u32,
    pub run: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What a replay driver records into.
pub trait Tracer: Sized {
    /// The tracer of one track (a rank, or the main thread) of run `run`.  All tracks
    /// of a process share `epoch`, so they line up in the written trace.
    fn start(epoch: Instant, track: usize, run: u32) -> Self;
    /// The recorded spans, in the order they were opened.
    fn finish(self) -> Vec<Span>;
    /// Open a span under the innermost open one; returns its handle for [`Tracer::exit`].
    fn enter(&mut self, name: &'static str) -> u32;
    /// Close the span `id`, which must be the innermost open one.
    fn exit(&mut self, id: u32);
    /// The time step later spans belong to.
    fn set_step(&mut self, step: u32);

    /// Record `f` as one leaf span.
    #[inline(always)]
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }
}

/// The spans-off tracer: every call is a no-op the compiler removes.
pub struct NoTrace;

impl Tracer for NoTrace {
    fn start(_epoch: Instant, _track: usize, _run: u32) -> Self {
        NoTrace
    }
    fn finish(self) -> Vec<Span> {
        Vec::new()
    }
    #[inline(always)]
    fn enter(&mut self, _name: &'static str) -> u32 {
        0
    }
    #[inline(always)]
    fn exit(&mut self, _id: u32) {}
    #[inline(always)]
    fn set_step(&mut self, _step: u32) {}
}

/// The spans-on tracer of one track.
pub struct Recorder {
    epoch: Instant,
    rank: u32,
    run: u32,
    step: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Tracer for Recorder {
    fn start(epoch: Instant, track: usize, run: u32) -> Self {
        Recorder {
            epoch,
            rank: track as u32,
            run,
            step: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// # Panics
    /// If a span is still open: a parent must close after its children, and the root
    /// before the run ends.
    fn finish(self) -> Vec<Span> {
        if let Some(&open) = self.open.last() {
            panic!("span '{}' was never closed", self.spans[open as usize].name);
        }
        self.spans
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rank: self.rank,
            step: self.step,
            run: self.run,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(
            top,
            Some(id),
            "span '{}' closed while a child was still open",
            self.spans[id as usize].name
        );
        self.spans[id as usize].end_ns = self.now_ns();
    }

    fn set_step(&mut self, step: u32) {
        self.step = step;
    }
}

/// Self time of every span of one rank: its duration minus the part of that interval
/// its direct children cover.  (One rank records from one thread, so siblings never
/// overlap and the covered part is the sum of the children's durations.)
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per span name: self time summed over the run on each rank, then the maximum over
/// ranks (the paper's convention for a phase's time), in milliseconds.
pub fn layer_self_ms(per_rank: &[Vec<Span>]) -> BTreeMap<&'static str, f64> {
    let mut worst: BTreeMap<&'static str, f64> = BTreeMap::new();
    for spans in per_rank {
        let mut mine: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (span, own) in spans.iter().zip(self_times_ns(spans)) {
            *mine.entry(span.name).or_default() += own;
        }
        for (name, ns) in mine {
            let slot = worst.entry(name).or_default();
            *slot = slot.max(ns as f64 / 1e6);
        }
    }
    worst
}

/// A trace file holds at most this many spans (the earliest ones); a 30 000-step run
/// records 300 000, which no viewer needs in full.  The layer metrics always
/// use every span.
pub const MAX_FILE_SPANS: usize = 200_000;

/// Write the spans as Chrome trace-event JSON (open in Perfetto or `chrome://tracing`):
/// one process per run id, one thread track per rank (a track numbered `ranks` or above
/// is the main thread), complete (`"ph":"X"`) events with the step in `args`.
pub fn write_chrome_trace(
    path: &std::path::Path,
    tracks: &[Vec<Span>],
    ranks: usize,
) -> std::io::Result<()> {
    let total: usize = tracks.iter().map(Vec::len).sum();
    let mut all: Vec<&Span> = tracks.iter().flatten().collect();
    all.sort_by_key(|s| s.start_ns);
    all.truncate(MAX_FILE_SPANS);
    let written = all.len();

    let mut events: Vec<String> = Vec::with_capacity(all.len() + tracks.len());
    for first in tracks.iter().filter_map(|spans| spans.first()) {
        let name = if (first.rank as usize) < ranks {
            format!("rank {}", first.rank)
        } else {
            "main".to_string()
        };
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"{name}\"}}}}",
            first.run, first.rank
        ));
    }
    // Span names are the benchmark's own identifiers, so they need no escaping.
    for s in all {
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"step\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.run,
            s.rank,
            s.step
        ));
    }
    let document = format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spans_recorded\":{total},\"spans_written\":{written}}},\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    );
    std::fs::write(path, document)
}
