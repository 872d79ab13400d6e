//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer of the program is wrapped
//! in a span named `<layer>.<call>[.<detail>]`. Spans nest strictly (the
//! traced run is single-threaded on the benchmark side), so a span's
//! *self time* is its duration minus its children's, and the self times
//! of all spans sum exactly to the root span's duration. The root's own
//! self time is the benchmark's unattributed time.
//!
//! With tracing off, [`Tracer::span`] only calls the closure: no clock
//! reads, no allocation.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    /// `<layer>.<call>[.<detail>]`.
    pub name: String,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder (a no-op when constructed disabled).
pub struct Tracer {
    on: bool,
    workload: &'static str,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for `workload`; records only when `on`.
    pub fn new(on: bool, workload: &'static str) -> Tracer {
        Tracer {
            on,
            workload,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Durations (ns) of every closed span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Self time (ns) of every span, after checking that children nest
    /// inside their parents and do not overlap one another.
    ///
    /// # Errors
    ///
    /// A description of the first span that breaks nesting.
    pub fn self_times(&self) -> Result<Vec<u64>, String> {
        let mut child_sum = vec![0u64; self.spans.len()];
        let mut last_child_end: Vec<u64> = self.spans.iter().map(|s| s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let ps = &self.spans[p];
                if s.start_ns < last_child_end[p] || s.end_ns > ps.end_ns {
                    return Err(format!(
                        "span {} escapes or overlaps in {}",
                        s.name, ps.name
                    ));
                }
                last_child_end[p] = s.end_ns;
                child_sum[p] += s.dur();
            }
        }
        Ok(self
            .spans
            .iter()
            .zip(child_sum)
            .map(|(s, c)| s.dur() - c)
            .collect())
    }

    /// Self time (ns) summed per span name.
    ///
    /// # Errors
    ///
    /// As [`Tracer::self_times`].
    pub fn self_by_name(&self) -> Result<BTreeMap<String, u64>, String> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()?) {
            *out.entry(s.name.clone()).or_insert(0) += t;
        }
        Ok(out)
    }

    /// Total duration (ns) of the root spans.
    pub fn wall_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::dur)
            .sum()
    }

    /// The spans as JSON lines (id, parent, workload, name, start, end).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(0, |p| p + 1);
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"workload\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                self.workload,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut tr = Tracer::new(true, "t");
        tr.span("bench.root", |tr| {
            tr.span("a.x", |tr| tr.span("b.y", |_| std::hint::black_box(1)));
            tr.span("a.z", |_| ());
        });
        let selfs = tr.self_times().unwrap();
        assert_eq!(selfs.iter().sum::<u64>(), tr.wall_ns());
        assert_eq!(tr.durations("a.x").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, "t");
        assert_eq!(tr.span("a.x", |_| 7), 7);
        assert_eq!(tr.wall_ns(), 0);
        assert!(tr.to_jsonl().is_empty());
    }
}
