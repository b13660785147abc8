//! The traced run's recorder: spans around each public call the benchmark
//! makes into a layer (name, start, end, parent), kept in memory and
//! summarised when the run ends. A disabled recorder reads no clock, so
//! the untraced run pays nothing for it.

use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span (see [`Tracer::begin`]).
#[derive(Debug)]
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (the traced run alternates rounds).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent: self.stack.last().copied(), start_ns, end_ns: 0 });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span (spans close innermost first). Returns its duration in
    /// ns (0 when disabled).
    pub fn end(&mut self, open: Open) -> u64 {
        let Some(idx) = open.0 else {
            return 0;
        };
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// One line per span name: count, total and self time (duration minus
    /// the part covered by child spans), in first-seen order.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        names
            .iter()
            .map(|&name| {
                let (mut count, mut total, mut own) = (0u64, 0u64, 0u64);
                for (i, s) in self.spans.iter().enumerate() {
                    if s.name == name {
                        let d = s.end_ns - s.start_ns;
                        count += 1;
                        total += d;
                        own += d.saturating_sub(child_ns[i]);
                    }
                }
                format!(
                    "# span {name}: count {count}, total {:.3} ms, self {:.3} ms",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("a");
        assert_eq!(t.end(s), 0);
        assert!(t.summary_lines().is_empty());
    }

    #[test]
    fn nesting_and_self_time() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = t.end(inner);
        let outer_ns = t.end(outer);
        assert!(outer_ns >= inner_ns && inner_ns >= 2_000_000);
        let lines = t.summary_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("# span outer: count 1"));
    }
}
