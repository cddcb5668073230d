//! Point-in-time metric snapshots and their deterministic JSON export.

use crate::event::{Event, EventValue};
use std::collections::BTreeMap;

/// A copy of one histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds (see [`crate::Registry::histogram`]).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries; the
    /// last is the overflow bucket).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations (accumulated in exact micro-units, or
    /// nanoseconds for a timing histogram; seconds for timers).
    pub sum: f64,
    /// Whether this histogram records wall-clock durations.
    pub timing: bool,
}

impl HistogramSnapshot {
    /// Mean observation, or `None` with no observations.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
}

/// Everything a [`crate::Registry`] held at snapshot time.
///
/// The snapshot is plain data: clone it, embed it in reports, diff it.
/// [`Snapshot::to_json`] renders it deterministically — map keys come
/// from sorted `BTreeMap`s, floats print in plain decimal via Rust's
/// shortest-roundtrip formatter, and nothing carries a timestamp — so
/// two snapshots of identical recording histories serialize to
/// identical bytes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Buffered structured events, oldest first.
    pub events: Vec<Event>,
    /// Events discarded because the buffer was full.
    pub events_dropped: u64,
}

impl Snapshot {
    /// The scheduling-independent projection: drops timing histograms
    /// (wall-clock durations differ run to run even under a fixed
    /// seed). What remains — counters, gauges, value histograms,
    /// events — is byte-identical across same-seed runs of a
    /// deterministic system, which is what the platform round test
    /// asserts.
    pub fn deterministic(&self) -> Snapshot {
        let mut out = self.clone();
        out.histograms.retain(|_, h| !h.timing);
        out
    }

    /// Renders the snapshot as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n  \"counters\": {");
        push_map(&mut s, &self.counters, |s, v| {
            s.push_str(&v.to_string());
        });
        s.push_str("},\n  \"gauges\": {");
        push_map(&mut s, &self.gauges, |s, v| {
            s.push_str(&v.to_string());
        });
        s.push_str("},\n  \"histograms\": {");
        push_map(&mut s, &self.histograms, |s, h| {
            s.push_str("{\"timing\": ");
            s.push_str(if h.timing { "true" } else { "false" });
            s.push_str(", \"bounds\": ");
            push_f64_array(s, &h.bounds);
            s.push_str(", \"buckets\": [");
            for (i, b) in h.buckets.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&b.to_string());
            }
            s.push_str("], \"count\": ");
            s.push_str(&h.count.to_string());
            s.push_str(", \"sum\": ");
            push_f64(s, h.sum);
            s.push('}');
        });
        s.push_str("},\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\"seq\": ");
            s.push_str(&e.seq.to_string());
            s.push_str(", \"name\": ");
            push_json_string(&mut s, &e.name);
            s.push_str(", \"fields\": {");
            for (j, (k, v)) in e.fields.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                push_json_string(&mut s, k);
                s.push_str(": ");
                match v {
                    EventValue::Int(i) => s.push_str(&i.to_string()),
                    EventValue::Uint(u) => s.push_str(&u.to_string()),
                    EventValue::Float(f) => push_f64(&mut s, *f),
                    EventValue::Str(t) => push_json_string(&mut s, t),
                    EventValue::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
                }
            }
            s.push_str("}}");
        }
        if !self.events.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n  \"events_dropped\": ");
        s.push_str(&self.events_dropped.to_string());
        s.push_str("\n}\n");
        s
    }
}

/// Writes the entries of a sorted map as `"k": <value>` pairs.
fn push_map<V>(s: &mut String, map: &BTreeMap<String, V>, mut value: impl FnMut(&mut String, &V)) {
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    ");
        push_json_string(s, k);
        s.push_str(": ");
        value(s, v);
    }
    if !map.is_empty() {
        s.push_str("\n  ");
    }
}

fn push_f64_array(s: &mut String, values: &[f64]) {
    s.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        push_f64(s, *v);
    }
    s.push(']');
}

/// Formats a finite float as plain-decimal JSON. Rust's `Display` for
/// `f64` emits the shortest decimal that round-trips and never uses
/// exponent notation, so the output is valid JSON and deterministic.
/// Non-finite values (which the registry never produces) map to `null`.
fn push_f64(s: &mut String, v: f64) {
    if v.is_finite() {
        s.push_str(&v.to_string());
    } else {
        s.push_str("null");
    }
}

/// Writes a JSON string literal with the mandatory escapes.
fn push_json_string(s: &mut String, text: &str) {
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\r' => s.push_str("\\r"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                s.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => s.push(c),
        }
    }
    s.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn empty_snapshot_is_valid_json_shape() {
        let json = Snapshot::default().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"events\": []"));
        assert!(json.contains("\"events_dropped\": 0"));
    }

    #[test]
    #[cfg_attr(not(feature = "record"), ignore = "recording compiled out")]
    fn json_is_deterministic_for_identical_histories() {
        let record = |reg: &Registry| {
            reg.counter("b").add(2);
            reg.counter("a").inc();
            reg.gauge("g").set(-3);
            reg.histogram("h", &[1.0, 2.0]).observe(1.5);
            reg.event(
                "ev",
                &[("id", EventValue::Uint(7)), ("ok", EventValue::Bool(true))],
            );
        };
        let (ra, rb) = (Registry::new(), Registry::new());
        record(&ra);
        record(&rb);
        assert_eq!(ra.snapshot().to_json(), rb.snapshot().to_json());
        // Registration order does not matter: keys are sorted.
        let json = ra.snapshot().to_json();
        let a = json.find("\"a\": 1").expect("counter a");
        let b = json.find("\"b\": 2").expect("counter b");
        assert!(a < b, "keys must serialize sorted");
    }

    #[test]
    #[cfg_attr(not(feature = "record"), ignore = "recording compiled out")]
    fn deterministic_projection_strips_timers_only() {
        let reg = Registry::new();
        reg.histogram("values", &[1.0]).observe(0.5);
        reg.timer("latency").start_span().finish();
        reg.counter("c").inc();
        let full = reg.snapshot();
        assert!(full.histograms.contains_key("latency"));
        let det = full.deterministic();
        assert!(!det.histograms.contains_key("latency"));
        assert!(det.histograms.contains_key("values"));
        assert_eq!(det.counters["c"], 1);
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    #[cfg_attr(not(feature = "record"), ignore = "recording compiled out")]
    fn histogram_mean() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[10.0]);
        assert_eq!(reg.snapshot().histograms["h"].mean(), None);
        h.observe(2.0);
        h.observe(4.0);
        assert_eq!(reg.snapshot().histograms["h"].mean(), Some(3.0));
    }
}
