//! In-memory span recorder for the traced run.
//!
//! Spans are taken from *outside* the system, around the benchmark's own
//! calls into it: `op` → `submit` | `flush` | `readback`, and `setup` →
//! `context_new` | `register` | `upload` | `first_flush`. They stay in a
//! vector and are written out, if asked, only after measuring has ended.
//! A disabled tracer records nothing and adds no `flush()` call, which is
//! how the end-to-end run executes and what the traced ops are compared
//! with to obtain the tracing overhead.

use std::io::Write as _;
use std::time::Instant;

use diffuse::Context;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (or setup) sequence number shared by every span of one op.
    pub op: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer that starts disabled.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name` (just runs it when disabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// A root span; every span below it carries the same fresh op id.
    pub fn root<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.op += 1;
        // A panicking op unwinds past `span`'s bookkeeping; start clean.
        self.stack.clear();
        self.span(name, f)
    }

    /// The library calls that build an op's work.
    pub fn submit<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.span("submit", |_| f())
    }

    /// The op's sync point. Untraced, this is the read-back alone — which
    /// flushes the window and waits, as in a user program. Traced, an
    /// explicit `flush()` runs first so that window processing and kernel
    /// execution (`flush`) separate from copying the value out (`readback`).
    /// A simulation-only context has nothing to read: its sync point is the
    /// `flush()`, and the value is `T::default()`.
    pub fn sync<T: Default>(
        &mut self,
        ctx: &Context,
        functional: bool,
        read: impl FnOnce() -> Option<T>,
    ) -> Option<T> {
        if self.enabled || !functional {
            self.span("flush", |_| ctx.flush());
        }
        if !functional {
            return Some(T::default());
        }
        self.span("readback", |_| read())
    }

    /// Sum over direct children of each root span named `root`, by child
    /// name: `(per-root total ns, per-root [(child name, ns)])`.
    pub fn breakdown(&self, root: &str) -> Vec<(u64, Vec<(&'static str, u64)>)> {
        let mut out = Vec::new();
        let mut slot = vec![usize::MAX; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            match span.parent {
                None if span.name == root => {
                    slot[i] = out.len();
                    out.push((span.ns(), Vec::<(&'static str, u64)>::new()));
                }
                Some(p) if slot[p] != usize::MAX => {
                    let children = &mut out[slot[p]].1;
                    match children.iter_mut().find(|(name, _)| *name == span.name) {
                        Some((_, ns)) => *ns += span.ns(),
                        None => children.push((span.name, span.ns())),
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// A span's self time: its duration minus what its direct children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::ns)
            .sum();
        self.spans[index].ns().saturating_sub(children)
    }

    /// Writes the spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"op\": {}, \"parent\": {}, \"self_us\": {:.3}}}}}{comma}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.op,
                s.parent.map_or(-1, |p| p as i64),
                self.self_ns(i) as f64 / 1e3,
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        assert_eq!(t.root("op", |t| t.submit(|| 7)), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_break_down_by_child_name() {
        let mut t = Tracer::new();
        t.enabled = true;
        for _ in 0..2 {
            t.root("op", |t| {
                t.submit(|| std::hint::black_box(1));
                t.span("readback", |_| ());
                t.submit(|| ());
            });
        }
        assert_eq!(t.spans().len(), 8);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!((t.spans()[0].op, t.spans()[4].op), (1, 2));
        let ops = t.breakdown("op");
        assert_eq!(ops.len(), 2);
        for (total, children) in &ops {
            let names: Vec<_> = children.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, ["submit", "readback"]);
            assert!(children.iter().map(|(_, ns)| ns).sum::<u64>() <= *total);
        }
        assert_eq!(
            t.self_ns(0) + t.spans()[1..4].iter().map(Span::ns).sum::<u64>(),
            t.spans()[0].ns()
        );
        assert!(t.breakdown("setup").is_empty());
    }
}
