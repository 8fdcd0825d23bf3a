//! In-memory spans around the calls into each layer. Every span names
//! the layer boundary, carries start and end on one process-wide
//! monotonic clock and the id of the operation that caused it; spans are
//! written out as JSON lines only when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The operation (its index in the workload's merged script, or a
    /// per-lane counter in the live drivers) that caused this span.
    pub op: u64,
    /// The logical client or node the span ran on.
    pub lane: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct Spans {
    pub lane: u32,
    pub spans: Vec<Span>,
    /// Spans past this many are still timed but no longer kept, so a
    /// fast driver cannot grow the buffer without bound.
    cap: usize,
}

/// Spans a live driver thread keeps per round (about 16 MB).
pub const DRIVER_SPAN_CAP: usize = 400_000;

impl Spans {
    pub fn new(lane: u32) -> Spans {
        Spans { lane, spans: Vec::new(), cap: usize::MAX }
    }

    pub fn capped(lane: u32, cap: usize) -> Spans {
        Spans { lane, spans: Vec::new(), cap }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let start_ns = now_ns();
        let out = f();
        self.push(name, op, start_ns, now_ns());
        out
    }

    pub fn push(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        if self.spans.len() < self.cap {
            self.spans.push(Span { name, op, lane: self.lane, start_ns, end_ns });
        }
    }

    /// Durations (ns) of every span called `name`, sorted ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self.spans.iter().filter(|s| s.name == name).map(Span::ns).collect();
        d.sort_unstable();
        d
    }
}

/// What the instrument adds to a span's own duration: the median length
/// of an empty span (one clock read lands inside it), so per-call
/// figures can be reported net of it.
pub fn span_overhead_ns() -> f64 {
    let mut probe = Spans::new(0);
    probe.spans.reserve(20_000);
    for i in 0..20_000u64 {
        probe.time("probe", i, || std::hint::black_box(i));
    }
    let d = probe.durations("probe");
    d[d.len() / 2] as f64
}

/// Writes `spans` as JSON lines; self time (a span minus the spans of
/// the same operation and lane it encloses) is computed here, at exit.
pub fn write_jsonl(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        (spans[i].lane, spans[i].op, spans[i].start_ns, u64::MAX - spans[i].end_ns)
    });
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    // Spans of one (lane, op) group nest properly, so an enclosing-span
    // stack yields each span's direct children.
    let mut children_ns = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.lane == s.lane && t.op == s.op && s.start_ns >= t.start_ns && s.end_ns <= t.end_ns
            {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            children_ns[parent] += s.ns();
        }
        stack.push(i);
    }
    for &i in &order {
        let s = &spans[i];
        writeln!(
            out,
            "{{\"name\":\"{}\",\"op\":{},\"lane\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.name,
            s.op,
            s.lane,
            s.start_ns,
            s.end_ns,
            s.ns().saturating_sub(children_ns[i])
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_enclosed_children() {
        let spans = [
            Span { name: "op", op: 1, lane: 0, start_ns: 0, end_ns: 100 },
            Span { name: "a", op: 1, lane: 0, start_ns: 10, end_ns: 30 },
            Span { name: "b", op: 1, lane: 0, start_ns: 40, end_ns: 90 },
            Span { name: "b.inner", op: 1, lane: 0, start_ns: 50, end_ns: 60 },
            Span { name: "op", op: 2, lane: 0, start_ns: 100, end_ns: 130 },
        ];
        let dir = std::env::temp_dir().join(format!("hlock-bench-trace-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        write_jsonl(&path, "{\"header\":true}", &spans).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[1].contains("\"name\":\"op\"") && lines[1].contains("\"self_ns\":30"));
        assert!(lines[3].contains("\"name\":\"b\"") && lines[3].contains("\"self_ns\":40"));
        assert!(lines[5].contains("\"op\":2") && lines[5].contains("\"self_ns\":30"));
    }
}
