//! The benchmark's own span recorder: one preallocated buffer of
//! `{name, start_ns, end_ns, parent, op}` records around calls into the
//! product's public functions. Nothing inside the product is touched.

use std::fmt::Write as _;
use std::time::Instant;

/// No enclosing span.
const ROOT: u32 = u32::MAX;

/// Spans written to a trace file at most; the rest are counted in its
/// header (all of them feed the per-call metrics).
const FILE_SPAN_CAP: usize = 65_536;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Operation index the span belongs to (request number, rep, pass).
    pub op: u64,
}

/// Handle of an open span; `None` when the recorder is off or full.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

#[derive(Debug)]
pub struct Spans {
    on: bool,
    epoch: Instant,
    buf: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

impl Spans {
    /// A recorder that records nothing and costs one branch per call.
    pub fn off() -> Self {
        Self { on: false, epoch: Instant::now(), buf: Vec::new(), stack: Vec::new(), dropped: 0 }
    }

    /// A recorder with room for `capacity` spans, allocated up front.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            on: true,
            epoch: Instant::now(),
            buf: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Switches recording on or off between reps (capacity is kept).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on && self.buf.capacity() > 0;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its name is given at [`Spans::end`] so a call can be
    /// filed by its result.
    pub fn begin(&mut self, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        if self.buf.len() == self.buf.capacity() {
            self.dropped += 1;
            return Open(None);
        }
        let idx = self.buf.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.buf.push(Span { name: "", start_ns, end_ns: start_ns, parent, op });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// [`Spans::begin`] when `sampled`, a closed handle otherwise.
    pub fn begin_if(&mut self, sampled: bool, op: u64) -> Open {
        if sampled {
            self.begin(op)
        } else {
            Open(None)
        }
    }

    pub fn end(&mut self, open: Open, name: &'static str) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        let span = &mut self.buf[idx as usize];
        span.name = name;
        span.end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    /// Times `f` under `name` when `sampled` (and the recorder is on).
    pub fn time<R>(
        &mut self,
        sampled: bool,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !(self.on && sampled) {
            return f();
        }
        let open = self.begin(op);
        let r = f();
        self.end(open, name);
        r
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Durations (ns) of every closed span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.buf.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Total ns and call count of every closed span called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.buf
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + 1))
    }

    /// The trace document: a header and the first [`FILE_SPAN_CAP`] spans
    /// (parents always precede children, so a truncated file stays a
    /// forest).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let written = self.buf.len().min(FILE_SPAN_CAP);
        let mut out = String::with_capacity(64 + written * 96);
        let _ = write!(
            out,
            "{{\"schema\":\"inca-benchmark/trace-v1\",\"workload\":\"{workload}\",\"seed\":{seed},\
             \"spans_recorded\":{},\"spans_written\":{written},\"spans_dropped\":{},\"spans\":[",
            self.buf.len(),
            self.dropped
        );
        for (i, s) in self.buf[..written].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_overflow() {
        let mut s = Spans::with_capacity(2);
        let outer = s.begin(7);
        let v = s.time(true, "inner", 8, || 42);
        assert_eq!(v, 42);
        s.time(true, "lost", 9, || ());
        s.end(outer, "outer");
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.total("inner").1, 1);
        let json = s.to_json("w", 1);
        assert!(json.contains("\"name\":\"outer\",") && json.contains("\"parent\":0,"));
        let mut off = Spans::off();
        assert_eq!(off.time(true, "x", 0, || 1), 1);
        assert!(off.durations("x").is_empty());
    }
}
