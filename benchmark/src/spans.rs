//! Spans recorded from the benchmark's side of each call into the
//! simulator. They are held in memory for the whole traced pass and
//! written out once, when it ends.

use crate::clock::thread_cpu_ns;
use crate::json::Json;
use std::time::Instant;

/// One closed span. Times are nanoseconds on the simulating thread's
/// CPU clock, counted from the recorder's creation; `wall_ns` is the
/// span's wall duration, kept beside it as the noise record.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// `<workload>/<seed>`: shared by every span of one operation.
    pub op: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub wall_ns: u64,
    /// Events the world handled and frames that finished on the air
    /// inside the span.
    pub events: u64,
    pub frames: u64,
}

impl Span {
    pub fn cpu_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Recorder {
    epoch_ns: u64,
    op: String,
    /// Spans opened and not yet closed, innermost last: the top is the
    /// parent of the next span opened.
    open: Vec<(usize, Instant)>,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch_ns: thread_cpu_ns(),
            op: String::new(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Name the operation the following spans belong to.
    pub fn set_op(&mut self, op: String) {
        self.op = op;
    }

    /// Open a span inside the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().map(|&(parent, _)| parent),
            op: self.op.clone(),
            start_ns: 0,
            end_ns: 0,
            wall_ns: 0,
            events: 0,
            frames: 0,
        });
        self.open.push((index, Instant::now()));
        // Read last, so the recorder's own bookkeeping stays outside.
        self.spans[index].start_ns = thread_cpu_ns() - self.epoch_ns;
    }

    /// Close the innermost open span, crediting it with the events and
    /// frames handled while it was open.
    pub fn close(&mut self, events: u64, frames: u64) {
        let end_ns = thread_cpu_ns() - self.epoch_ns;
        let (index, wall0) = self.open.pop().expect("close without an open span");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.wall_ns = wall0.elapsed().as_nanos() as u64;
        span.events = events;
        span.frames = frames;
    }

    /// Closed spans called `name`, in recording order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total CPU seconds of the spans called `name`.
    pub fn total_cpu_s(&self, name: &str) -> f64 {
        // Not `sum()`: summing no floats gives -0.0, which prints as "-0".
        self.named(name).fold(0.0, |acc, s| acc + s.cpu_s())
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.to_string())),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op", Json::Str(s.op.clone())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("wall_ns", Json::Num(s.wall_ns as f64)),
                        ("events", Json::Num(s.events as f64)),
                        ("frames", Json::Num(s.frames as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Run `work` inside a span called `name` when a recorder is attached,
/// and bare when none is: the one code path of the untraced and the
/// traced pass.
pub fn spanned<T>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    work: impl FnOnce() -> T,
) -> T {
    if let Some(r) = rec.as_deref_mut() {
        r.open(name);
    }
    let out = work();
    if let Some(r) = rec.as_deref_mut() {
        r.close(0, 0);
    }
    out
}
