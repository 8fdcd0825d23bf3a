//! **Causal cluster timeline**: merges per-node flight-recorder dumps
//! (`flight-node-*.jsonl`) into one HLC-ordered cluster timeline and
//! renders it as a Chrome trace (Trace Event Format), so a run, a crash
//! or an audit violation can be inspected as a single cross-node trace
//! in `chrome://tracing` or <https://ui.perfetto.dev>. This is the
//! repository's only Chrome-trace renderer.
//!
//! Every node gets one track (`pid` 1, `tid` = node id). Each event
//! appears as an instant (`ph:"i"`) on its node's track; request spans
//! additionally appear as async begin/end pairs (`ph:"b"`/`"e"`) keyed
//! by the span id, so a request's whole journey — across nodes — renders
//! as one horizontal span.
//!
//! Each request span additionally gets a **latency waterfall**: the
//! segments between its consecutive events (issue → queue wait →
//! forward hops → token transfer/retransmit → grant) become duration
//! slices on a dedicated waterfall process, and the per-phase totals
//! are summarised on stdout.
//!
//! ```text
//! timeline [<dump-dir>] [<out-trace.json>]
//! ```
//!
//! Defaults: `target/experiments/flight` → `target/experiments/timeline_trace.json`.
//! Exits non-zero if the directory has no parseable dumps, so CI can
//! gate on artifact integrity.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One parsed flight-recorder line, ready to merge.
struct Entry {
    hlc: u64,
    node: u64,
    event: String,
    /// `origin << 32 | ticket` when the event is request-scoped.
    span: Option<u64>,
    /// The original JSONL line, embedded verbatim in trace args.
    raw: String,
}

fn fail(msg: &str) -> ! {
    eprintln!("timeline: FAIL: {msg}");
    std::process::exit(1);
}

/// Extracts the value of `"key":` from one flat JSON object as a raw
/// token (number, `null`, or quoted string *contents*). Flight lines
/// are flat objects produced by `ProtocolEvent::write_json`, so keys
/// never nest and never appear inside other values' strings escaped as
/// `"key":` — a scan is sufficient and avoids a JSON dependency.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(inner) = rest.strip_prefix('"') {
        // String value: scan to the closing unescaped quote.
        let mut escape = false;
        for (i, c) in inner.char_indices() {
            if escape {
                escape = false;
            } else if c == '\\' {
                escape = true;
            } else if c == '"' {
                return Some(&inner[..i]);
            }
        }
        None
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

fn parse_line(line: &str) -> Option<Entry> {
    let hlc = field_u64(line, "hlc")?;
    let node = field_u64(line, "node")?;
    let event = field(line, "event")?.to_string();
    let span = match (field_u64(line, "span_origin"), field_u64(line, "span_ticket")) {
        (Some(o), Some(t)) => Some((o << 32) | (t & 0xffff_ffff)),
        _ => None,
    };
    Some(Entry { hlc, node, event, span, raw: line.to_string() })
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = PathBuf::from(args.next().unwrap_or_else(|| "target/experiments/flight".into()));
    let out_path = PathBuf::from(
        args.next().unwrap_or_else(|| "target/experiments/timeline_trace.json".into()),
    );

    let mut entries = Vec::new();
    let mut files = 0usize;
    let read_dir = match std::fs::read_dir(&dir) {
        Ok(d) => d,
        Err(e) => fail(&format!("cannot read {}: {e}", dir.display())),
    };
    let mut paths: Vec<PathBuf> = read_dir
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".jsonl"))
        })
        .collect();
    paths.sort();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => fail(&format!("cannot read {}: {e}", path.display())),
        };
        files += 1;
        for (i, line) in text.lines().enumerate() {
            match parse_line(line) {
                Some(e) => entries.push(e),
                None => fail(&format!("{}:{}: unparseable line: {line}", path.display(), i + 1)),
            }
        }
    }
    if files == 0 {
        fail(&format!("no flight-*.jsonl dumps under {}", dir.display()));
    }
    if entries.is_empty() {
        fail("dumps contain no events");
    }

    // The merge: HLC stamps are causally consistent across nodes (the
    // transport carries them on every frame), so one stable sort by
    // (hlc, node) yields a cluster order where every delivery follows
    // its send. `node` breaks exact ties deterministically.
    entries.sort_by_key(|e| (e.hlc, e.node));

    let mut trace: Vec<String> = Vec::new();
    let mut nodes: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    // span id → ordered (hlc, event name, node) milestones.
    let mut spans: BTreeMap<u64, Vec<(u64, String, u64)>> = BTreeMap::new();
    for e in &entries {
        nodes.insert(e.node);
        let ts = e.hlc >> 16;
        if let Some(span) = e.span {
            let ph = match e.event.as_str() {
                "request_issued" => Some("b"),
                "granted" | "request_cancelled" | "request_aborted" => Some("e"),
                _ => None,
            };
            if let Some(ph) = ph {
                trace.push(format!(
                    "{{\"ph\":\"{ph}\",\"cat\":\"request\",\"name\":\"request\",\
                     \"id\":\"0x{span:x}\",\"pid\":1,\"tid\":{},\"ts\":{ts}}}",
                    e.node
                ));
            }
            spans.entry(span).or_default().push((e.hlc, e.event.clone(), e.node));
        }
        let mut inst = format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{}\",\"pid\":1,\"tid\":{},\
             \"ts\":{ts},\"args\":{{\"json\":",
            e.event, e.node
        );
        json_str(&mut inst, &e.raw);
        inst.push_str("}}");
        trace.push(inst);
    }

    // Per-span latency waterfall: each segment between consecutive span
    // milestones becomes one complete ("X") slice on the waterfall
    // process (pid 2), tracked per origin node. Phase totals aggregate
    // across spans so the dominant cost (queue wait vs forward hops vs
    // token transfer) is visible at a glance.
    let mut phase_totals: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new(); // (count, sum, max)
    let mut closed = 0usize;
    let mut open = 0usize;
    for (&span, milestones) in &spans {
        let origin = span >> 32;
        // Terminal anywhere, not just last: a remote copy grant can
        // race past the origin's abort in HLC order (the home does not
        // yet know the origin died), and the span is still closed.
        let done = milestones.iter().any(|(_, ev, _)| {
            matches!(ev.as_str(), "granted" | "request_cancelled" | "request_aborted")
        });
        if done {
            closed += 1;
        } else {
            open += 1;
        }
        for pair in milestones.windows(2) {
            let (from_hlc, from_ev, _) = &pair[0];
            let (to_hlc, to_ev, _) = &pair[1];
            let ts = from_hlc >> 16;
            let dur = (to_hlc >> 16).saturating_sub(ts);
            let phase = format!("{from_ev}\u{2192}{to_ev}");
            trace.push(format!(
                "{{\"ph\":\"X\",\"cat\":\"waterfall\",\"name\":\"{phase}\",\
                 \"pid\":2,\"tid\":{origin},\"ts\":{ts},\"dur\":{dur},\
                 \"args\":{{\"span\":\"0x{span:x}\"}}}}"
            ));
            let slot = phase_totals.entry(phase).or_insert((0, 0, 0));
            slot.0 += 1;
            slot.1 += dur;
            slot.2 = slot.2.max(dur);
        }
    }
    // Name the tracks so the viewer shows "cluster"/"waterfall" rather
    // than bare pids.
    for (pid, name) in [(1, "cluster"), (2, "waterfall")] {
        trace.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }

    let doc = format!("{{\"traceEvents\":[\n{}\n]}}\n", trace.join(",\n"));
    if let Err(e) = write_doc(&out_path, &doc) {
        fail(&format!("cannot write {}: {e}", out_path.display()));
    }

    println!(
        "timeline: OK — {} events from {} node dump(s), {} span(s) ({closed} closed, {open} open)",
        entries.len(),
        files,
        spans.len(),
    );
    for (phase, (count, sum, max)) in &phase_totals {
        println!("  {phase}: n={count} mean={}us max={max}us", sum / count.max(&1));
    }
    println!("  {}", out_path.display());
    if open > 0 {
        // Open spans are expected in a crash dump only when the abort
        // event fell outside the retained ring window.
        eprintln!("timeline: note: {open} span(s) have no terminal event in the retained window");
    }
}

fn write_doc(path: &Path, doc: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, doc)
}
