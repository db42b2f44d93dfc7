//! Span-style event recording with Chrome-trace JSON export.
//!
//! The export follows the Trace Event Format's JSON-object flavor
//! (`{"traceEvents": [...]}`), which loads directly in `chrome://tracing`
//! and Perfetto. Two phases cover everything this workspace records:
//! `"X"` (complete: a span with `ts` + `dur`) and `"i"` (instant). The
//! `pid` axis is used for the core group, `tid` for the CPE (or a logical
//! actor like the resilient executor), and timestamps are microseconds of
//! *simulated* time.
//!
//! [`Recorder`] is the zero-cost-when-disabled entry point: every record
//! call starts with a branch on `enabled` and allocates nothing when off,
//! so instrumented hot paths cost one predictable branch in production.

use serde_json::{object, Value};

/// One trace event. `args` carry counter values and labels; they show in
/// the `chrome://tracing` detail pane when the event is selected.
#[derive(Clone, Debug, PartialEq)]
pub struct ChromeEvent {
    pub name: String,
    /// Comma-free category tag; we use the paper level names (`reg`,
    /// `ldm`, `mem`) plus `exec` for executor-level events.
    pub cat: String,
    /// `'X'` (complete) or `'i'` (instant).
    pub ph: char,
    /// Microseconds of simulated time.
    pub ts_us: f64,
    /// Duration in microseconds (complete events only; 0 for instants).
    pub dur_us: f64,
    pub pid: u64,
    pub tid: u64,
    pub args: Vec<(String, Value)>,
}

impl ChromeEvent {
    fn to_json(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = vec![
            ("name".into(), Value::from(self.name.as_str())),
            ("cat".into(), Value::from(self.cat.as_str())),
            ("ph".into(), Value::from(self.ph.to_string())),
            ("ts".into(), Value::from(self.ts_us)),
            ("pid".into(), Value::from(self.pid)),
            ("tid".into(), Value::from(self.tid)),
        ];
        if self.ph == 'X' {
            pairs.insert(4, ("dur".into(), Value::from(self.dur_us)));
        }
        if !self.args.is_empty() {
            pairs.push((
                "args".into(),
                Value::Object(
                    self.args
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            ));
        }
        Value::Object(pairs)
    }

    #[cfg(test)]
    fn from_json(v: &Value) -> Option<ChromeEvent> {
        Some(ChromeEvent {
            name: v.get("name")?.as_str()?.to_string(),
            cat: v.get("cat")?.as_str()?.to_string(),
            ph: v.get("ph")?.as_str()?.chars().next()?,
            ts_us: v.get("ts")?.as_f64()?,
            dur_us: v.get("dur").and_then(Value::as_f64).unwrap_or(0.0),
            pid: v.get("pid")?.as_u64()?,
            tid: v.get("tid")?.as_u64()?,
            args: v
                .get("args")
                .and_then(Value::as_object)
                .map(|pairs| pairs.to_vec())
                .unwrap_or_default(),
        })
    }
}

/// An ordered collection of trace events plus the export/import logic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChromeTrace {
    pub events: Vec<ChromeEvent>,
}

impl ChromeTrace {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, e: ChromeEvent) {
        self.events.push(e);
    }

    /// Merge another trace (e.g. per-CPE traces into a mesh trace).
    pub fn extend(&mut self, other: ChromeTrace) {
        self.events.extend(other.events);
    }

    /// Rewrite every event's `pid` to `pid`, returning `self` for
    /// chaining. Single-chip recorders emit everything under pid 0; the
    /// cluster layer claims one pid per chip before merging so cross-chip
    /// spans land on separate process tracks in `chrome://tracing`.
    fn with_pid(mut self, pid: u64) -> ChromeTrace {
        for e in &mut self.events {
            e.pid = pid;
        }
        self
    }

    /// Merge per-chip traces into one fleet trace, assigning each input
    /// trace's events to its index as `pid` and sorting by timestamp so
    /// the merged export reads as one timeline.
    pub fn merge_per_chip(traces: Vec<ChromeTrace>) -> ChromeTrace {
        let mut merged = ChromeTrace::new();
        for (chip, t) in traces.into_iter().enumerate() {
            merged.extend(t.with_pid(chip as u64));
        }
        merged.events.sort_by(|a, b| {
            a.ts_us
                .partial_cmp(&b.ts_us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        merged
    }

    /// The `{"traceEvents": [...]}` document.
    fn to_json(&self) -> Value {
        object([
            (
                "traceEvents",
                Value::Array(self.events.iter().map(ChromeEvent::to_json).collect()),
            ),
            ("displayTimeUnit", Value::from("ns")),
        ])
    }

    /// Compact JSON string, loadable by `chrome://tracing`.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string(&self.to_json())
    }

    /// Parse a trace document produced by [`Self::to_json_string`]: the
    /// round-trip oracle for the export.
    #[cfg(test)]
    fn from_json_str(s: &str) -> Result<ChromeTrace, serde_json::Error> {
        let doc = serde_json::from_str(s)?;
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_array)
            .ok_or(serde_json::Error {
                msg: "missing traceEvents array".into(),
                offset: 0,
            })?;
        let events = events
            .iter()
            .map(|e| {
                ChromeEvent::from_json(e).ok_or(serde_json::Error {
                    msg: "malformed trace event".into(),
                    offset: 0,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChromeTrace { events })
    }

    /// Total span time per category — a quick where-did-the-time-go view.
    pub fn category_dur_us(&self, cat: &str) -> f64 {
        self.events
            .iter()
            .filter(|e| e.cat == cat && e.ph == 'X')
            .map(|e| e.dur_us)
            .sum()
    }
}

/// Structured event recorder: zero-cost when disabled.
///
/// Timestamps are supplied by the caller in whatever monotonic unit the
/// caller owns (simulated cycles converted to µs for the mesh, attempt
/// ordinals for the resilient executor) — the recorder imposes no clock.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    enabled: bool,
    trace: ChromeTrace,
}

impl Recorder {
    /// A recorder that drops everything (the production default).
    pub fn disabled() -> Self {
        Self::default()
    }

    pub fn enabled() -> Self {
        Self {
            enabled: true,
            trace: ChromeTrace::new(),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record a complete span (`ph: "X"`) under category `cat`: a
    /// hierarchy level (`"reg"`, `"ldm"`, `"mem"`) or a track such as
    /// `"exec"`.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span_cat(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        ts_us: f64,
        dur_us: f64,
        args: Vec<(String, Value)>,
    ) {
        if !self.enabled {
            return;
        }
        self.trace.push(ChromeEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'X',
            ts_us,
            dur_us,
            pid,
            tid,
            args,
        });
    }

    /// Record an instant event (`ph: "i"`).
    #[inline]
    pub fn instant(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        ts_us: f64,
        args: Vec<(String, Value)>,
    ) {
        if !self.enabled {
            return;
        }
        self.trace.push(ChromeEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'i',
            ts_us,
            dur_us: 0.0,
            pid,
            tid,
            args,
        });
    }

    /// Take the recorded trace, leaving the recorder empty but still
    /// enabled/disabled as before.
    pub fn take(&mut self) -> ChromeTrace {
        std::mem::take(&mut self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChromeTrace {
        let mut t = ChromeTrace::new();
        t.push(ChromeEvent {
            name: "compute".into(),
            cat: "reg".into(),
            ph: 'X',
            ts_us: 1.5,
            dur_us: 2.25,
            pid: 0,
            tid: 13,
            args: vec![("cycles".into(), Value::from(3262u64))],
        });
        t.push(ChromeEvent {
            name: "dma_get".into(),
            cat: "mem".into(),
            ph: 'i',
            ts_us: 4.0,
            dur_us: 0.0,
            pid: 0,
            tid: 13,
            args: vec![],
        });
        t
    }

    #[test]
    fn trace_round_trips_through_serde_json() {
        let t = sample();
        let s = t.to_json_string();
        let back = ChromeTrace::from_json_str(&s).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn export_is_chrome_loadable_shape() {
        let s = sample().to_json_string();
        let doc = serde_json::from_str(&s).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        let first = &events[0];
        assert_eq!(first.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(first.get("dur").unwrap().as_f64(), Some(2.25));
        assert_eq!(first.get("tid").unwrap().as_u64(), Some(13));
        // Instant events omit dur.
        assert!(events[1].get("dur").is_none());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        r.span_cat("x", "mem", 0, 0, 0.0, 1.0, vec![]);
        r.instant("y", "exec", 0, 0, 0.0, vec![]);
        assert!(r.take().events.is_empty());
    }

    #[test]
    fn enabled_recorder_accumulates_and_takes() {
        let mut r = Recorder::enabled();
        r.span_cat("x", "reg", 0, 1, 0.0, 5.0, vec![]);
        r.instant("y", "exec", 0, 1, 2.0, vec![]);
        let t = r.take();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.category_dur_us("reg"), 5.0);
        assert!(r.take().events.is_empty(), "take drains");
        assert!(r.is_enabled());
    }

    #[test]
    fn merge_per_chip_assigns_pids_and_sorts() {
        let mut a = ChromeTrace::new();
        a.push(ChromeEvent {
            name: "batch".into(),
            cat: "serve".into(),
            ph: 'X',
            ts_us: 10.0,
            dur_us: 1.0,
            pid: 0,
            tid: 0,
            args: vec![],
        });
        let mut b = ChromeTrace::new();
        b.push(ChromeEvent {
            name: "batch".into(),
            cat: "serve".into(),
            ph: 'X',
            ts_us: 5.0,
            dur_us: 1.0,
            pid: 0,
            tid: 0,
            args: vec![],
        });
        let merged = ChromeTrace::merge_per_chip(vec![a, b]);
        assert_eq!(merged.events.len(), 2);
        assert_eq!(merged.events[0].ts_us, 5.0, "sorted by timestamp");
        assert_eq!(merged.events[0].pid, 1, "second trace is chip 1");
        assert_eq!(merged.events[1].pid, 0);
    }

    #[test]
    fn malformed_documents_are_errors() {
        assert!(ChromeTrace::from_json_str("{}").is_err());
        assert!(ChromeTrace::from_json_str("{\"traceEvents\": [{}]}").is_err());
        assert!(ChromeTrace::from_json_str("not json").is_err());
    }
}
