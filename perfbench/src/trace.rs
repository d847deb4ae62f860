//! The benchmark's own spans: one per call into a layer's public API,
//! tagged with the job that made it, kept in memory and written out as
//! JSON lines when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Clone)]
pub struct SpanRecord {
    /// Layer call, e.g. `fault.run`.
    pub name: &'static str,
    /// Job the call belongs to, e.g. `pass3/patcher/otp/bitflip`.
    pub job: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct State {
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    job: String,
}

/// Records nested spans on the calling thread. A disabled tracer reads no
/// clock and records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), state: RefCell::default() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span opened from now on with `job`.
    pub fn set_job(&self, job: String) {
        if self.enabled {
            self.state.borrow_mut().job = job;
        }
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard { tracer: self, index: None };
        }
        let start_ns = self.now_ns();
        let mut state = self.state.borrow_mut();
        let index = state.spans.len();
        let record = SpanRecord {
            name,
            job: state.job.clone(),
            parent: state.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        };
        state.spans.push(record);
        state.open.push(index);
        Guard { tracer: self, index: Some(index) }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.state.borrow().spans.clone()
    }

    /// The spans as JSON lines, each with its self time (duration minus
    /// the time its child spans cover).
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans();
        let self_ns = self_times(&spans);
        let mut out = String::new();
        for (i, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"job\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.name, span.job, span.start_ns, span.end_ns, self_ns[i]
            );
        }
        out
    }
}

/// Closes its span on drop.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end_ns = self.tracer.now_ns();
            let mut state = self.tracer.state.borrow_mut();
            state.spans[index].end_ns = end_ns;
            state.open.pop();
        }
    }
}

/// Self time of every span: its duration minus its children's durations
/// (children of one thread's span never overlap each other).
fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(SpanRecord::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}
