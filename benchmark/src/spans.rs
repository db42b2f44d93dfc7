//! The harness's own span recorder — deliberately not `sw_obs`, so the
//! instrument is independent of the code it measures.
//!
//! A span is `(layer, name, start, end, parent, op id)`, recorded around a
//! call the harness makes into a layer's public function. Spans stay in
//! memory and are written as Chrome-trace JSON when the run ends. A
//! layer's *self time* is its spans' duration minus the part their child
//! spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The operation (conv / request / step) this call belongs to.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::enter`]; hand it back to
/// [`Recorder::exit`]. `None` when recording is off.
#[must_use]
pub struct Open(Option<u32>);

pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, layer: &'static str, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end_ns = self.now_ns();
            self.spans[id as usize].end_ns = end_ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer self time: Σ over the layer's spans of (duration − time
    /// covered by direct children), ns.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            *by_layer.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(*c);
        }
        by_layer
    }

    /// Σ duration and call count of the spans named `layer`/`name`.
    pub fn total(&self, layer: &str, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.dur_ns(), n + 1))
    }

    /// Write the spans as Chrome-trace "complete" events (`ph: X`, µs).
    /// One `tid` per layer so the viewer stacks layers as tracks; `args`
    /// carries the op id and the parent span. At most `cap` events are
    /// written (the first `cap` in start order) — a 250 000-request pass
    /// is summarised by its self times, not by a 40 MB file.
    pub fn write_chrome_trace(&self, path: &std::path::Path, cap: usize) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut tids: BTreeMap<&'static str, usize> = BTreeMap::new();
        for s in &self.spans {
            let next = tids.len();
            tids.entry(s.layer).or_insert(next);
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        let mut first = true;
        for (layer, tid) in &tids {
            if !first {
                out.write_all(b",\n")?;
            }
            first = false;
            write!(
                out,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{layer}\"}}}}"
            )?;
        }
        let written = self.spans.len().min(cap);
        for (id, s) in self.spans.iter().enumerate().take(cap) {
            if !first {
                out.write_all(b",\n")?;
            }
            first = false;
            write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"cat\":\"{}\",\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"op\":{},\"parent\":{}}}}}",
                tids[s.layer],
                s.layer,
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                s.parent.map_or(-1, i64::from),
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()?;
        Ok(written)
    }
}

/// Record `$call` as a span of `$layer`/`$name` for op `$op`.
#[macro_export]
macro_rules! span {
    ($rec:expr, $layer:expr, $name:expr, $op:expr, $call:expr) => {{
        let open = $rec.enter($layer, $name, $op as u64);
        let out = $call;
        $rec.exit(open);
        out
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("harness", "pass", 0);
        let inner = rec.enter("serve", "submit", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.exit(inner);
        rec.exit(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let by_layer = rec.self_time_by_layer();
        assert_eq!(
            by_layer["harness"] + by_layer["serve"],
            spans[0].dur_ns(),
            "self times partition the root span"
        );
        assert!(by_layer["serve"] >= 2_000_000);
        assert_eq!(rec.total("serve", "submit").1, 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let v = span!(rec, "serve", "submit", 0, 41 + 1);
        assert_eq!(v, 42);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_and_capped() {
        let mut rec = Recorder::new(true);
        for op in 0..5u64 {
            span!(rec, "cluster", "submit_at", op, ());
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("selftest-{}.json", std::process::id()));
        let written = rec.write_chrome_trace(&path, 3).unwrap();
        assert_eq!(written, 3);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let v = serde_json::from_str(&text).expect("valid JSON");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        // one thread-name record + three spans
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[1].get("cat").and_then(|c| c.as_str()),
            Some("cluster")
        );
    }
}
