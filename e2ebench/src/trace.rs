//! The benchmark's tracer: spans recorded in the benchmark's own code
//! around calls into each layer's public functions.
//!
//! A span holds its name, start, end, parent and op id.  Spans stay in
//! memory (one `Vec` per client thread) and are written out when the run
//! ends.  The root span of an op is the client-observed wire round trip;
//! its children are the layers that make it up, timed by replaying the
//! same op against an in-process twin right after the wire call (see the
//! README).  Self time is a span's duration minus its children's.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub op: u64,
    /// The op class of the op the span belongs to (`query.magic`, …).
    pub class: &'static str,
    pub name: &'static str,
    /// Index of the parent span in the same tracer, `None` for a root.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span from two instants; returns its index.
    pub fn record(
        &mut self,
        op: u64,
        class: &'static str,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            op,
            class,
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span; returns its result and the span index.
    pub fn time<R>(
        &mut self,
        op: u64,
        class: &'static str,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (out, self.record(op, class, name, parent, start, end))
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (may be negative when replayed children overrun).
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration_ns() as i64;
        }
    }
    out
}

/// Aggregated span statistics for one `(class, span name)` pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: i64,
}

/// One op class's attribution: `(class, ops, [(layer, mean self µs)])`.
pub type Attribution = (&'static str, u64, Vec<(&'static str, f64)>);

/// Span aggregates over every tracer of a run.
#[derive(Clone, Debug, Default)]
pub struct Breakdown {
    /// `(class, name) -> totals`.
    pub by_class: BTreeMap<(&'static str, &'static str), Agg>,
    /// Root spans (ops) per class.
    pub ops: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    pub fn absorb(&mut self, spans: &[Span]) {
        let selfs = self_times(spans);
        for (s, self_ns) in spans.iter().zip(selfs) {
            let agg = self.by_class.entry((s.class, s.name)).or_default();
            agg.count += 1;
            agg.dur_ns += s.duration_ns();
            agg.self_ns += self_ns;
            if s.parent.is_none() {
                *self.ops.entry(s.class).or_default() += 1;
            }
        }
    }

    /// Mean duration in µs of every span named `name`, across classes
    /// (0 when the span never ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        self.mean_us_where(|_, n| n == name)
    }

    /// Mean duration in µs of the spans matching `pred(class, name)`.
    pub fn mean_us_where(&self, pred: impl Fn(&str, &str) -> bool) -> f64 {
        let (count, dur) = self
            .by_class
            .iter()
            .filter(|((c, n), _)| pred(c, n))
            .fold((0u64, 0u64), |(c, d), (_, a)| (c + a.count, d + a.dur_ns));
        if count == 0 {
            0.0
        } else {
            dur as f64 / count as f64 / 1e3
        }
    }

    /// Sum of span durations named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.by_class
            .iter()
            .filter(|((_, n), _)| *n == name)
            .map(|(_, a)| a.dur_ns)
            .sum()
    }

    /// Mean root self time per op in µs: the part of the client-observed
    /// round trip no measured layer accounts for.
    pub fn unattributed_us(&self, root: &str) -> f64 {
        let ops: u64 = self.ops.values().sum();
        let self_ns: i64 = self
            .by_class
            .iter()
            .filter(|((_, n), _)| *n == root)
            .map(|(_, a)| a.self_ns)
            .sum();
        if ops == 0 {
            0.0
        } else {
            self_ns as f64 / ops as f64 / 1e3
        }
    }

    /// The attribution table: per class, each layer's mean self time per
    /// op in µs (the root's self time is the unattributed remainder).
    pub fn attribution(&self) -> Vec<Attribution> {
        self.ops
            .iter()
            .map(|(&class, &ops)| {
                let rows = self
                    .by_class
                    .iter()
                    .filter(|((c, _), _)| *c == class)
                    .map(|((_, n), a)| (*n, a.self_ns as f64 / ops as f64 / 1e3))
                    .collect();
                (class, ops, rows)
            })
            .collect()
    }
}

/// Writes spans as TSV (`op class name parent start_ns end_ns`).
pub fn write_spans(path: &Path, tracers: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\top\tclass\tname\tparent\tstart_ns\tend_ns")?;
    for (t, spans) in tracers.iter().enumerate() {
        for s in spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{t}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.op, s.class, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}
