//! In-memory span recorder for the traced run: per-layer self time, and a
//! Chrome trace-event export that opens in Perfetto.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran, e.g. `core.session.push_params`.
    pub name: &'static str,
    /// The layer it belongs to, e.g. `core.session`.
    pub layer: &'static str,
    /// Host nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Training step the span ran in.
    pub step: u64,
    /// Time covered by direct children.
    pub child_ns: u64,
}

/// The recorder. When off, [`Tracer::span`] runs its closure and records
/// nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    step: u64,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording recorder.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), step: 0 }
    }

    /// Tag spans opened from now on with training step `step`.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Run `f` inside a span `name` of layer `layer`; spans `f` opens
    /// become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            step: self.step,
            child_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        if let Some(p) = parent {
            self.spans[p].child_ns += end_ns - start_ns;
        }
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans, parents before their children.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: total self time (duration minus direct children) in
    /// ns, and the number of spans.
    pub fn self_time(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_insert((0, 0));
            e.0 += (s.end_ns - s.start_ns) - s.child_ns;
            e.1 += 1;
        }
        out
    }

    /// The first `max_events` spans as Chrome trace-event JSON ("X"
    /// complete events, microseconds). Parents precede children, so a
    /// truncated trace never orphans a span.
    pub fn chrome_json(&self, max_events: usize) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().take(max_events).enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"step\":{}}}}}",
                s.name,
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.step
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
