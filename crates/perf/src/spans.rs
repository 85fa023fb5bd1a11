//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span is `(name, start, end, parent, chunk)`. They are kept in
//! memory while the staged run executes and only rendered afterwards —
//! as Chrome trace-event JSON, and as per-name *self time*: a span's
//! duration minus the part its direct children cover. The staged run is
//! single-threaded, so "the span that caused it" is simply the innermost
//! span still open.

use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Ledger stage name, e.g. `telescope.observe`.
    pub name: &'static str,
    /// Nanoseconds from the recorder's epoch to the span's start.
    pub start_ns: u64,
    /// Nanoseconds from the recorder's epoch to the span's end.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which chunk of the packet stream the call processed.
    pub chunk: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for one staged run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index for
    /// [`Spans::close`].
    pub fn open(&mut self, name: &'static str, chunk: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            chunk,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and, defensively, anything opened inside it that
    /// was left open).
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            if let Some(s) = self.spans.get_mut(top) {
                s.end_ns = end_ns;
            }
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, chunk: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, chunk);
        let r = f();
        self.close(id);
        r
    }

    /// Self time of every span: duration minus its direct children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| own.get_mut(p)) {
                *slot = slot.saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Total self time, in seconds, of all spans named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        let own = self.self_ns();
        let ns: u64 =
            self.spans.iter().zip(own).filter(|(s, _)| s.name == name).map(|(_, o)| o).sum();
        ns as f64 / 1e9
    }

    /// Wall durations, in microseconds, of all spans named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e3).collect()
    }

    /// Render as Chrome trace-event JSON (complete `"X"` events, µs).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"chunk\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.chunk
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-set times, so self time is exact.
    fn fixed(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Spans {
        let mut s = Spans::default();
        for &(name, start_ns, end_ns, parent) in spans {
            s.spans.push(Span { name, start_ns, end_ns, parent, chunk: 0 });
        }
        s
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // recover [0,100) holds observe [10,40) and observe [50,70);
        // the first observe holds events [20,30).
        let s = fixed(&[
            ("wal.recover", 0, 100, None),
            ("telescope.observe", 10, 40, Some(0)),
            ("telescope.events", 20, 30, Some(1)),
            ("telescope.observe", 50, 70, Some(0)),
        ]);
        assert_eq!(s.busy_s("wal.recover"), 50e-9);
        assert_eq!(s.busy_s("telescope.observe"), 40e-9);
        assert_eq!(s.busy_s("telescope.events"), 10e-9);
        assert_eq!(s.busy_s("absent"), 0.0);
        assert_eq!(s.durations_us("telescope.observe"), vec![0.03, 0.02]);
    }

    #[test]
    fn nesting_follows_the_open_stack() {
        let mut s = Spans::default();
        let outer = s.open("wal.recover", 0);
        s.time("telescope.observe", 3, || ());
        s.close(outer);
        s.time("telescope.flush", 0, || ());
        let all = &s.spans;
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[1].chunk, 3);
        assert_eq!(all[2].parent, None);
        assert!(all[0].end_ns >= all[1].end_ns);
    }

    #[test]
    fn chrome_json_has_one_complete_event_per_span() {
        let s = fixed(&[("simnet.mux", 1_000, 3_500, None), ("wal.commit", 4_000, 4_250, Some(0))]);
        let json = s.to_chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains(
            "\"name\":\"simnet.mux\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.000,\"dur\":2.500"
        ));
        assert!(json.contains("\"parent\":0"));
        assert!(json.starts_with("{\"traceEvents\":["));
    }
}
