//! Spans recorded by the benchmark around each call into a layer: name,
//! start, end and parent, kept in memory and written out when the traced
//! run ends. A span's self time is its duration minus the time its
//! direct children cover.

use std::path::Path;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. Returns `f`'s result and the span's duration in seconds.
    pub fn time<R>(
        &mut self,
        name: impl Into<String>,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> (R, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (r, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Like [`Spans::time`] for a closure that records no child spans.
    pub fn leaf<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> (R, f64) {
        self.time(name, |_| f())
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self.self_ns();
        let mut out = String::from("{\"spans\": [\n");
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ms\": {:.3}, \
                 \"end_ms\": {:.3}, \"self_ms\": {:.3}}}{}\n",
                s.name.replace(['"', '\\'], "'"),
                s.start_ns as f64 / 1e6,
                s.end_ns as f64 / 1e6,
                own as f64 / 1e6,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}
