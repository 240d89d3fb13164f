//! Span recorder for the traced run. Spans are recorded by the benchmark
//! around its calls into each crate's public functions — nothing inside
//! the crates is instrumented — kept in memory, and written out once at
//! exit.
//!
//! A span names the layer (crate) whose code ran inside it. Its *self
//! time* is its duration minus the part of that interval its direct
//! children cover, so the self times of a properly nested tree sum to the
//! root's duration exactly and each nanosecond is attributed to one layer.

use serde_json::{json, Value};
use std::time::Instant;

/// The layers of the ladder: one per workspace crate, `proc` for
/// process-level counters that belong to no crate, and `bench` for the
/// harness's own time (generator waits, checks, bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    Detector,
    Graph,
    Sparse,
    Tensor,
    Nn,
    Ignn,
    Sampling,
    Ddp,
    Core,
    Serve,
    Bench,
}

impl Layer {
    pub const ALL: [Layer; 11] = [
        Layer::Detector,
        Layer::Graph,
        Layer::Sparse,
        Layer::Tensor,
        Layer::Nn,
        Layer::Ignn,
        Layer::Sampling,
        Layer::Ddp,
        Layer::Core,
        Layer::Serve,
        Layer::Bench,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Detector => "detector",
            Layer::Graph => "graph",
            Layer::Sparse => "sparse",
            Layer::Tensor => "tensor",
            Layer::Nn => "nn",
            Layer::Ignn => "ignn",
            Layer::Sampling => "sampling",
            Layer::Ddp => "ddp",
            Layer::Core => "core",
            Layer::Serve => "serve",
            Layer::Bench => "bench",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, within the same tracer.
    pub parent: Option<usize>,
    /// Spans of one operation (train call, sampling epoch, request)
    /// share this identifier.
    pub op_id: u64,
    /// Which thread (or, for served requests, which request lane) the
    /// span ran on; nesting is only meaningful within one track.
    pub track: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// One thread's span log. Not shared: each thread records into its own
/// tracer (all created from the same epoch so timestamps compare), and
/// the logs are merged with [`Tracer::absorb`] after the threads join.
pub struct Tracer {
    epoch: Instant,
    track: u32,
    op_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::with_epoch(Instant::now(), 0)
    }

    fn with_epoch(epoch: Instant, track: u32) -> Self {
        Self {
            epoch,
            track,
            op_id: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's clock origin and
    /// current operation id.
    pub fn fork(&self, track: u32) -> Tracer {
        let mut t = Self::with_epoch(self.epoch, track);
        t.op_id = self.op_id;
        t
    }

    pub fn set_op(&mut self, op_id: u64) {
        self.op_id = op_id;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested under the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: Layer) -> SpanId {
        let now = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id: self.op_id,
            track: self.track,
        });
        self.open.push(idx);
        SpanId(idx)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, layer);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span whose endpoints were measured elsewhere (inside a
    /// callback the library invoked), nested under the innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: Layer,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let (parent, track, op_id) = (self.open.last().copied(), self.track, self.op_id);
        self.push_closed(name, layer, start_ns, end_ns, parent, track, op_id)
    }

    /// Record a closed span as a child of `parent`, on its track and
    /// operation — for stage spans rebuilt from a response's timings.
    pub fn record_under(
        &mut self,
        parent: SpanId,
        name: &'static str,
        layer: Layer,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let (track, op_id) = (self.spans[parent.0].track, self.spans[parent.0].op_id);
        self.push_closed(name, layer, start_ns, end_ns, Some(parent.0), track, op_id)
    }

    /// Record a closed root span on its own track: one served request,
    /// which overlaps other requests in time and so cannot nest on the
    /// generator's track.
    pub fn record_root(
        &mut self,
        track: u32,
        op_id: u64,
        name: &'static str,
        layer: Layer,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.push_closed(name, layer, start_ns, end_ns, None, track, op_id)
    }

    #[allow(clippy::too_many_arguments)]
    fn push_closed(
        &mut self,
        name: &'static str,
        layer: Layer,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        track: u32,
        op_id: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op_id,
            track,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Append another thread's spans, attaching its roots under `under`.
    pub fn absorb(&mut self, other: Tracer, under: Option<SpanId>) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => under.map(|u| u.0),
            };
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "layer": s.layer.name(),
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map(|p| p as u64),
                    "op_id": s.op_id,
                    "track": s.track as u64,
                })
            })
            .collect();
        json!({ "workload": workload, "spans": Value::Seq(spans) })
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals, clipped to the span. Children on another track
/// (a rank thread under the call that spawned it) run concurrently with
/// their parent and are not subtracted.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if parent.track == s.track {
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Track of the driving thread (and of DDP rank 0, which stands for it).
pub const MAIN_TRACK: u32 = 0;
/// First track of the request lanes: request `i` is recorded on track
/// `REQUEST_TRACK_BASE + i`. Tracks between the two are the other DDP
/// ranks, which run beside the main track.
pub const REQUEST_TRACK_BASE: u32 = 1000;

/// Total self time per layer, in nanoseconds, indexed like [`Layer::ALL`],
/// over the tracks that make up operations: the main track and the
/// request lanes. Side tracks (DDP ranks above 0) duplicate rank 0's work
/// in parallel and stay in the trace file only.
pub fn self_time_by_layer_ns(spans: &[Span]) -> [u64; 11] {
    let mut out = [0u64; 11];
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        if s.track != MAIN_TRACK && s.track < REQUEST_TRACK_BASE {
            continue;
        }
        // `Layer::ALL` lists the variants in declaration order.
        out[s.layer as usize] += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>, layer: Layer, track: u32) -> Span {
        Span {
            name: "t",
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
            track,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover() {
        // root [0,100]; children [10,30] and [50,90]; grandchild [55,60].
        let spans = vec![
            span(0, 100, None, Layer::Bench, 0),
            span(10, 30, Some(0), Layer::Sampling, 0),
            span(50, 90, Some(0), Layer::Tensor, 0),
            span(55, 60, Some(2), Layer::Nn, 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 35, 5]);
        // Self times of a nested tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let by_layer = self_time_by_layer_ns(&spans);
        assert_eq!(by_layer.iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        // Two children overlapping on [20,30] cover [10,40] = 30 ns.
        let spans = vec![
            span(0, 50, None, Layer::Bench, 0),
            span(10, 30, Some(0), Layer::Core, 0),
            span(20, 40, Some(0), Layer::Core, 0),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_and_other_tracks_ignored() {
        let spans = vec![
            span(10, 20, None, Layer::Bench, 0),
            // Sticks out on both sides: only [10,20] counts.
            span(5, 25, Some(0), Layer::Core, 0),
            // Concurrent thread: does not reduce the parent's self time.
            span(10, 20, Some(0), Layer::Ddp, 1),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[0], 0);
        assert_eq!(st[2], 10);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let mut t = Tracer::new();
        t.set_op(7);
        let root = t.begin("root", Layer::Bench);
        let child = t.begin("child", Layer::Core);
        t.end(child);
        let mut rank = t.fork(1);
        rank.span("rank", Layer::Ddp, || ());
        t.absorb(rank, Some(root));
        t.end(root);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[2].track, s[2].op_id), (1, 7));
        assert!(s[0].end_ns >= s[1].end_ns);
        let text = t.to_json("w").to_json_string();
        let back = serde_json::parse_value(&text).unwrap();
        assert_eq!(back.get("spans").unwrap().as_seq().unwrap().len(), 3);
    }
}
