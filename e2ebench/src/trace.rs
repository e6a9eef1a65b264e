//! In-memory spans recorded around the benchmark's own calls into each
//! crate's public functions, written out when the run ends.
//!
//! A span is `(name, start, end, parent, op)`. Spans of one operation
//! share the op id; a layer's self time is its span minus the time its
//! child spans cover. Names starting with `probe.` group replays that
//! run beside an operation (not inside it) to split a layer further.

use crate::stats::{mean, median};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are ns since the trace's origin.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    op: u64,
}

/// A span recorder. Opening and closing a span costs two clock reads.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id for [`close`](Self::close) and
    /// for use as a child's parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Records `f` as a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Per span name, the self time of each operation that has spans of
    /// that name (ns, summed over the op's spans of the name).
    pub fn self_times(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut self_ns: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start) as i64)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] -= (s.end - s.start) as i64;
            }
        }
        let mut per_op: HashMap<(&'static str, u64), f64> = HashMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            *per_op.entry((s.name, s.op)).or_default() += ns as f64;
        }
        let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for ((name, _), ns) in per_op {
            out.entry(name).or_default().push(ns);
        }
        out
    }

    /// Median self time of `name` per operation, in units of `scale` ns
    /// (1e3 for µs, 1e6 for ms); `NaN` when no span has that name.
    pub fn median_self(times: &mut HashMap<&'static str, Vec<f64>>, name: &str, scale: f64) -> f64 {
        times.get_mut(name).map_or(f64::NAN, |v| median(v) / scale)
    }

    /// Sum over the layers inside operations — every name except the
    /// operation itself (`op`, whose self time is the benchmark's glue)
    /// and `probe.*` replays — of the mean self time per op, in ns.
    /// Means, not medians, so the parts add up to the whole.
    pub fn layer_sum_ns(times: &HashMap<&'static str, Vec<f64>>) -> f64 {
        times
            .iter()
            .filter(|(name, _)| **name != "op" && !name.starts_with("probe."))
            .map(|(_, v)| mean(v))
            .sum()
    }

    /// Writes every span as one tab-separated line
    /// (`name start_ns end_ns parent op`) under `e2ebench/traces/`, when
    /// that directory's parent exists in the working directory. Failure
    /// to write is reported and otherwise ignored: the trace file is a
    /// by-product, the metrics are already computed.
    pub fn write(&self, workload: &str) {
        let dir = std::path::Path::new("e2ebench");
        if !dir.is_dir() {
            return;
        }
        let dir = dir.join("traces");
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("name\tstart_ns\tend_ns\tparent\top\n");
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.op
            );
        }
        let path = dir.join(format!("{workload}.tsv"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, out)) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new();
        t.spans.push(Span {
            name: "op",
            start: 0,
            end: 100,
            parent: None,
            op: 7,
        });
        t.spans.push(Span {
            name: "a",
            start: 10,
            end: 40,
            parent: Some(0),
            op: 7,
        });
        t.spans.push(Span {
            name: "a",
            start: 50,
            end: 60,
            parent: Some(0),
            op: 7,
        });
        let mut times = t.self_times();
        assert_eq!(times["op"], vec![60.0]);
        assert_eq!(times["a"], vec![40.0]);
        assert_eq!(Trace::median_self(&mut times, "a", 1.0), 40.0);
        assert!(Trace::median_self(&mut times, "b", 1.0).is_nan());
    }
}
