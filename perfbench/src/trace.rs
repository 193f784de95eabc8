//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)`, recorded around one call into a
//! layer's public function. Spans stay in memory until the run ends and
//! are then written out as one JSON document. When the recorder is off,
//! opening a span costs one branch and records nothing, so the untraced
//! timed region runs the same code without the bookkeeping.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are seconds since the recorder was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// The layer a span belongs to: the part of its name before the
    /// first `.` (`"plan.execute"` belongs to `"plan"`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.origin.elapsed().as_secs_f64();
            self.tracer.spans.borrow_mut()[id].end = end;
            self.tracer.stack.borrow_mut().pop();
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Opens a span nested under the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let parent = self.stack.borrow().last().copied();
        let start = self.origin.elapsed().as_secs_f64();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        self.stack.borrow_mut().push(id);
        SpanGuard {
            tracer: self,
            id: Some(id),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations of every closed span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }
}

/// Self time per layer under the root spans named `root`: each span's
/// duration minus what its children cover, summed by layer. The
/// `unattributed` entry is the part of the roots that no child covers.
pub fn self_times(spans: &[Span], root: &str) -> BTreeMap<&'static str, f64> {
    let mut child_time = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.duration();
        }
    }
    let under_root = |mut i: usize| loop {
        match spans[i].parent {
            Some(p) if spans[p].name == root => return true,
            Some(p) => i = p,
            None => return false,
        }
    };
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let self_time = s.duration() - child_time[i];
        if s.name == root {
            *out.entry("unattributed").or_insert(0.0) += self_time;
        } else if under_root(i) {
            *out.entry(s.layer()).or_insert(0.0) += self_time;
        }
    }
    out
}

/// The spans as a JSON array of `{name, start_s, end_s, parent}`.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {parent}}}",
            s.name, s.start, s.end
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.time("a.b", || ());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children_and_keeps_remainder() {
        let spans = vec![
            Span {
                name: "run",
                start: 0.0,
                end: 10.0,
                parent: None,
            },
            Span {
                name: "sptensor.load",
                start: 0.0,
                end: 2.0,
                parent: Some(0),
            },
            Span {
                name: "cpd.als",
                start: 2.0,
                end: 9.0,
                parent: Some(0),
            },
            Span {
                name: "plan.execute",
                start: 3.0,
                end: 6.0,
                parent: Some(2),
            },
            Span {
                name: "probe.x",
                start: 11.0,
                end: 12.0,
                parent: None,
            },
        ];
        let st = self_times(&spans, "run");
        assert_eq!(st["sptensor"], 2.0);
        assert_eq!(st["cpd"], 4.0);
        assert_eq!(st["plan"], 3.0);
        assert_eq!(st["unattributed"], 1.0);
        assert!(!st.contains_key("probe"));
    }
}
