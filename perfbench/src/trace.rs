//! In-memory span recorder for the traced run.
//!
//! Each span records its name, start, end (nanoseconds since the
//! recorder was created) and the span that was open when it started.
//! Spans nest strictly, so a span's **self time** is its duration minus
//! the durations of its direct children. Nothing is written until the
//! run ends: [`Recorder::chrome_json`] renders every span as Chrome
//! trace-event JSON (`chrome://tracing`, Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `routes.build`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans around closures.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Index of the root span enclosing span `i`.
    fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// Self time summed by span name, one map per root span (in root
    /// order). The traced run opens one root per pass, so this is the
    /// per-pass layer breakdown.
    pub fn self_ns_by_root(&self) -> Vec<BTreeMap<&'static str, u64>> {
        let own = self.self_ns();
        let mut roots: BTreeMap<usize, BTreeMap<&'static str, u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *roots
                .entry(self.root_of(i))
                .or_default()
                .entry(s.name)
                .or_default() += own[i];
        }
        roots.into_values().collect()
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per
    /// span, timestamps in µs, with the span's id, parent and self time
    /// under `args`.
    pub fn chrome_json(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                own[i] as f64 / 1e3,
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut r = Recorder::new();
        r.span("pass", |r| {
            r.span("outer", |r| {
                r.span("inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let own = r.self_ns();
        let d: Vec<u64> = r.spans().iter().map(Span::duration_ns).collect();
        assert_eq!(own[0], d[0] - d[1]);
        assert_eq!(own[1], d[1] - d[2]);
        assert_eq!(own[2], d[2]);
        assert!(d[2] >= 2_000_000);
        let by_root = r.self_ns_by_root();
        assert_eq!(by_root.len(), 1);
        assert_eq!(by_root[0].values().sum::<u64>(), d[0]);
    }

    #[test]
    fn chrome_json_lists_every_span_with_its_parent() {
        let mut r = Recorder::new();
        r.span("a", |r| r.span("b", |_| ()));
        let j = r.chrome_json();
        assert!(j.contains("\"name\":\"a\"") && j.contains("\"parent\":null"));
        assert!(j.contains("\"name\":\"b\"") && j.contains("\"parent\":0"));
    }
}
