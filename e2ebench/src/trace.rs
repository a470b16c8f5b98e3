//! In-memory spans around the calls the benchmark makes into each
//! crate.
//!
//! A span records its name (`<layer>.<call>`), start and end relative to
//! the tracer's origin, its parent span, and a group id shared by every
//! span of one block or job. Spans stay in memory until the run ends and
//! are then written out with the run's record. A span's self time is its
//! duration minus the durations of its direct children; children of one
//! span never overlap because every traced call is made from one thread.

use std::time::Instant;

use swim_exp::value::Value;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `nn.train`.
    pub name: &'static str,
    /// Block or job the span belongs to.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Seconds since the tracer's origin.
    pub start_s: f64,
    /// Seconds since the tracer's origin.
    pub end_s: f64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }

    /// The layer (crate) the span times: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder.
pub struct Tracer {
    origin: Instant,
    pub(crate) spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name` of group `group`. Spans
    /// opened inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            group,
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Records a span measured elsewhere (e.g. on a client thread) and
    /// returns its index, for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.push(Span { name, group, parent, start_s: at(start), end_s: at(end) });
        self.spans.len() - 1
    }

    /// Durations of the spans named `name`, in start order.
    pub fn durations_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).collect()
    }

    /// Self time of every span, in start order.
    pub fn self_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                out[p] -= span.duration();
            }
        }
        out
    }

    /// Summed duration of the spans named `name`.
    pub fn total_of(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration).sum::<f64>() + 0.0
    }

    /// Summed self time of the non-`bench` spans below spans named
    /// `root`: the time the program's own crates spent inside them.
    pub fn program_self_time(&self, root: &str) -> f64 {
        let top = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        self.spans
            .iter()
            .zip(self.self_times())
            .enumerate()
            .filter(|(i, (s, _))| s.layer() != "bench" && self.spans[top(*i)].name == root)
            .map(|(_, (_, t))| t)
            .sum()
    }

    /// The spans as a JSON array value, with self times.
    pub fn to_value(&self) -> Value {
        let selfs = self.self_times();
        Value::Array(
            self.spans
                .iter()
                .zip(selfs)
                .map(|(s, self_s)| {
                    let mut v = Value::table();
                    v.set("name", Value::Str(s.name.into()));
                    v.set("group", Value::Int(s.group as i64));
                    v.set("parent", s.parent.map_or(Value::Int(-1), |p| Value::Int(p as i64)));
                    v.set("start_s", Value::Float(s.start_s));
                    v.set("end_s", Value::Float(s.end_s));
                    v.set("self_s", Value::Float(self_s));
                    v
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("bench.root", 0, |t| {
            t.span("nn.a", 0, |_| std::thread::sleep(std::time::Duration::from_millis(20)));
            t.span("core.b", 1, |t| {
                t.span("cim.c", 1, |_| std::thread::sleep(std::time::Duration::from_millis(10)));
            });
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let selfs = t.self_times();
        let total: f64 = selfs.iter().sum();
        assert!((total - spans[0].duration()).abs() < 1e-9, "self times tile the root");
        assert!(selfs[2] < t.total_of("core.b"));
        assert!((t.program_self_time("bench.root") + selfs[0] - spans[0].duration()).abs() < 1e-9);
        assert_eq!(t.program_self_time("bench.other"), 0.0);
    }
}
