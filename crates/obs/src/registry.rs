//! The metric registry and its recording handles.

use crate::event::{EventBuffer, EventValue};
use crate::snapshot::{HistogramSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Environment variable that enables the [`global`] registry at first
/// use when set to `1` (any other value leaves it disabled).
pub const OBS_ENV: &str = "CROWDWIFI_OBS";

/// Maximum structured events a registry retains (older events are
/// dropped, counted in [`Snapshot::events_dropped`]).
const EVENT_CAP: usize = 256;

/// Scale factor turning value-histogram observations into the integer
/// micro-units their sums accumulate in. Integer accumulation keeps
/// concurrent sums exactly commutative (float addition is not
/// associative, so a float sum would depend on thread interleaving).
const MICRO: f64 = 1e6;

/// Scale factor of timing histograms, whose sums accumulate integer
/// nanoseconds: a microsecond unit would round every sub-microsecond
/// span to nothing.
const NANO: f64 = 1e9;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Shared state behind a [`Registry`] and all handles minted from it.
#[derive(Debug)]
struct Inner {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    /// Gauges store an `i64` value as its two's-complement bits.
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
    events: Mutex<EventBuffer>,
}

/// Atomic storage of one histogram: per-bucket counts plus the total
/// count and the integer sum (micro-units for values, nanoseconds for
/// timings).
#[derive(Debug)]
struct HistogramCell {
    /// Strictly increasing, finite upper bucket bounds; observations
    /// land in the first bucket whose bound is `>=` the value, or in
    /// the implicit overflow bucket.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets (the last is the overflow bucket).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations in units of `1 / scale()`.
    sum_units: AtomicU64,
    /// Whether this histogram records wall-clock durations (stripped by
    /// [`Snapshot::deterministic`]); timing sums are in nanoseconds.
    timing: bool,
}

impl HistogramCell {
    fn new(bounds: &[f64], timing: bool) -> Self {
        let bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        HistogramCell {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_units: AtomicU64::new(0),
            timing,
        }
    }

    /// Sum units per observed unit.
    fn scale(&self) -> f64 {
        if self.timing {
            NANO
        } else {
            MICRO
        }
    }

    #[cfg_attr(not(feature = "record"), allow(dead_code))]
    fn observe(&self, value: f64) {
        // Negative and NaN observations clamp to zero: metrics here are
        // counts and durations, for which below-zero has no meaning.
        let v = if value.is_finite() && value > 0.0 {
            value
        } else {
            0.0
        };
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate rather than wrap on pathological magnitudes.
        let units = (v * self.scale()).round().min(u64::MAX as f64) as u64;
        self.sum_units.fetch_add(units, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum_units.load(Ordering::Relaxed) as f64 / self.scale(),
            timing: self.timing,
        }
    }
}

/// A process- or scope-wide set of named metrics and events.
///
/// Cloning a `Registry` clones a cheap handle to the same underlying
/// metrics; handles minted from any clone record into the shared state.
#[derive(Debug, Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    fn with_enabled(enabled: bool) -> Self {
        Registry {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(enabled),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                events: Mutex::new(EventBuffer::new(EVENT_CAP)),
            }),
        }
    }

    /// Creates an enabled registry.
    pub fn new() -> Self {
        Registry::with_enabled(true)
    }

    /// Creates a disabled registry: every recording call through its
    /// handles is a single relaxed load (the no-op recorder).
    pub fn disabled() -> Self {
        Registry::with_enabled(false)
    }

    /// Turns recording on or off for every handle of this registry.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether handles of this registry currently record.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Registers (or looks up) a counter. The same name always yields a
    /// handle to the same underlying cell.
    pub fn counter(&self, name: &str) -> Counter {
        let cell = lock(&self.inner.counters)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter {
            inner: self.inner.clone(),
            cell,
        }
    }

    /// Registers (or looks up) a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        let cell = lock(&self.inner.gauges)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Gauge {
            inner: self.inner.clone(),
            cell,
        }
    }

    /// Registers (or looks up) a histogram with fixed bucket `bounds`
    /// (strictly increasing; non-finite entries are dropped). On a name
    /// collision the first registration's bounds win.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        self.histogram_kind(name, bounds, false)
    }

    /// Registers (or looks up) a **timing** histogram (bounds in
    /// seconds, default [`crate::LATENCY_BOUNDS_SECS`]). Timing
    /// histograms are stripped by [`Snapshot::deterministic`].
    pub fn timer(&self, name: &str) -> Histogram {
        self.histogram_kind(name, crate::LATENCY_BOUNDS_SECS, true)
    }

    fn histogram_kind(&self, name: &str, bounds: &[f64], timing: bool) -> Histogram {
        let cell = lock(&self.inner.histograms)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistogramCell::new(bounds, timing)))
            .clone();
        Histogram {
            inner: self.inner.clone(),
            cell,
        }
    }

    /// Records a structured event. Events carry no wall-clock time, so
    /// a fixed-seed run emits a byte-identical event log.
    pub fn event(&self, name: &str, fields: &[(&str, EventValue)]) {
        #[cfg(feature = "record")]
        {
            if self.is_enabled() {
                lock(&self.inner.events).push(name, fields);
            }
        }
        #[cfg(not(feature = "record"))]
        {
            let _ = (name, fields);
        }
    }

    /// Takes a point-in-time snapshot of every metric and buffered
    /// event. Concurrent recording during the snapshot may or may not
    /// be included (each cell is read atomically, the set is not).
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock(&self.inner.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = lock(&self.inner.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed) as i64))
            .collect();
        let histograms = lock(&self.inner.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        let events = lock(&self.inner.events);
        Snapshot {
            counters,
            gauges,
            histograms,
            events: events.events().to_vec(),
            events_dropped: events.dropped(),
        }
    }
}

/// The process-wide default registry. Starts **disabled** unless the
/// `CROWDWIFI_OBS` environment variable is `1` at first use; flip it at
/// runtime with [`Registry::set_enabled`].
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let enabled = std::env::var(OBS_ENV).is_ok_and(|v| v.trim() == "1");
        Registry::with_enabled(enabled)
    })
}

/// A monotonically increasing `u64` metric.
#[derive(Debug, Clone)]
pub struct Counter {
    #[cfg_attr(not(feature = "record"), allow(dead_code))]
    inner: Arc<Inner>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        #[cfg(feature = "record")]
        {
            if self.inner.enabled.load(Ordering::Relaxed) {
                self.cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        #[cfg(not(feature = "record"))]
        {
            let _ = n;
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (fleet size, quorum margin, queue
/// depth).
#[derive(Debug, Clone)]
pub struct Gauge {
    #[cfg_attr(not(feature = "record"), allow(dead_code))]
    inner: Arc<Inner>,
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: i64) {
        #[cfg(feature = "record")]
        {
            if self.inner.enabled.load(Ordering::Relaxed) {
                self.cell.store(value as u64, Ordering::Relaxed);
            }
        }
        #[cfg(not(feature = "record"))]
        {
            let _ = value;
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        #[cfg(feature = "record")]
        {
            if self.inner.enabled.load(Ordering::Relaxed) {
                self.cell.fetch_add(delta as u64, Ordering::Relaxed);
            }
        }
        #[cfg(not(feature = "record"))]
        {
            let _ = delta;
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed) as i64
    }
}

/// A fixed-bucket distribution metric.
#[derive(Debug, Clone)]
pub struct Histogram {
    #[cfg_attr(not(feature = "record"), allow(dead_code))]
    inner: Arc<Inner>,
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        #[cfg(feature = "record")]
        {
            if self.inner.enabled.load(Ordering::Relaxed) {
                self.cell.observe(value);
            }
        }
        #[cfg(not(feature = "record"))]
        {
            let _ = value;
        }
    }

    /// Records a duration in seconds. A timing histogram sums whole
    /// nanoseconds, so sub-microsecond spans still add up.
    #[inline]
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Starts a span-style timer; dropping (or
    /// [`finish`](Span::finish)ing) the returned [`Span`] records the
    /// elapsed seconds here. On a disabled registry the span takes no
    /// clock reading at all.
    pub fn start_span(&self) -> Span {
        #[cfg(feature = "record")]
        {
            let start = if self.inner.enabled.load(Ordering::Relaxed) {
                Some(std::time::Instant::now())
            } else {
                None
            };
            Span {
                hist: self.clone(),
                start,
            }
        }
        #[cfg(not(feature = "record"))]
        {
            Span {}
        }
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }
}

/// A span-style timer tied to a timing [`Histogram`]; see
/// [`Histogram::start_span`].
#[derive(Debug)]
pub struct Span {
    #[cfg(feature = "record")]
    hist: Histogram,
    #[cfg(feature = "record")]
    start: Option<std::time::Instant>,
}

impl Span {
    /// Stops the span, records it, and returns the elapsed duration
    /// (zero when the registry was disabled at span start).
    #[cfg_attr(not(feature = "record"), allow(unused_mut))]
    pub fn finish(mut self) -> std::time::Duration {
        #[cfg(feature = "record")]
        {
            if let Some(start) = self.start.take() {
                let elapsed = start.elapsed();
                self.hist.observe_duration(elapsed);
                return elapsed;
            }
        }
        std::time::Duration::ZERO
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        #[cfg(feature = "record")]
        {
            if let Some(start) = self.start.take() {
                self.hist.observe_duration(start.elapsed());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(not(feature = "record"), ignore = "recording compiled out")]
    fn counters_and_gauges_record() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let g = reg.gauge("g");
        c.inc();
        c.add(4);
        g.set(-7);
        g.add(2);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), -5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.gauges["g"], -5);
    }

    #[test]
    #[cfg_attr(not(feature = "record"), ignore = "recording compiled out")]
    fn same_name_shares_a_cell() {
        let reg = Registry::new();
        reg.counter("shared").inc();
        reg.counter("shared").inc();
        assert_eq!(reg.counter("shared").get(), 2);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::disabled();
        let c = reg.counter("c");
        let h = reg.histogram("h", &[1.0]);
        c.inc();
        h.observe(0.5);
        reg.event("e", &[]);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["c"], 0);
        assert_eq!(snap.histograms["h"].count, 0);
        assert!(snap.events.is_empty());
        // Re-enabling makes the same handles live.
        reg.set_enabled(true);
        c.inc();
        assert_eq!(c.get(), if cfg!(feature = "record") { 1 } else { 0 });
    }

    #[test]
    #[cfg_attr(not(feature = "record"), ignore = "recording compiled out")]
    fn histogram_buckets_and_sum() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[1.0, 10.0]);
        h.observe(0.5); // bucket 0
        h.observe(1.0); // bucket 0 (inclusive upper bound)
        h.observe(5.0); // bucket 1
        h.observe(100.0); // overflow bucket
        h.observe(-3.0); // clamps to 0, bucket 0
        let s = reg.snapshot();
        let hs = &s.histograms["h"];
        assert_eq!(hs.buckets, vec![3, 1, 1]);
        assert_eq!(hs.count, 5);
        assert!((hs.sum - 106.5).abs() < 1e-9, "sum {}", hs.sum);
        assert!(!hs.timing);
    }

    #[test]
    #[cfg_attr(not(feature = "record"), ignore = "recording compiled out")]
    fn span_records_into_timing_histogram() {
        let reg = Registry::new();
        let t = reg.timer("t");
        {
            let _span = t.start_span();
        }
        let d = t.start_span().finish();
        let s = reg.snapshot();
        assert_eq!(s.histograms["t"].count, 2);
        assert!(s.histograms["t"].timing);
        assert!(d >= std::time::Duration::ZERO);
    }

    #[test]
    #[cfg_attr(not(feature = "record"), ignore = "recording compiled out")]
    fn timer_sums_sub_microsecond_durations() {
        let reg = Registry::new();
        let t = reg.timer("t");
        for _ in 0..1000 {
            t.observe_duration(std::time::Duration::from_nanos(400));
        }
        let s = reg.snapshot();
        assert_eq!(s.histograms["t"].count, 1000);
        assert_eq!(s.histograms["t"].sum, 4e-4);
    }

    #[test]
    fn span_on_disabled_registry_reads_no_clock() {
        let reg = Registry::disabled();
        let t = reg.timer("t");
        assert_eq!(t.start_span().finish(), std::time::Duration::ZERO);
        assert_eq!(t.count(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        Registry::new().histogram("bad", &[2.0, 1.0]);
    }

    #[test]
    fn concurrent_recording_totals_are_exact() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[8.0, 64.0]);
        let c = reg.counter("c");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = h.clone();
                let c = c.clone();
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.observe((i % 100) as f64);
                        c.inc();
                    }
                });
            }
        });
        if cfg!(feature = "record") {
            assert_eq!(c.get(), 4000);
            let s = reg.snapshot();
            assert_eq!(s.histograms["h"].count, 4000);
            // Integer micro-unit accumulation: the sum is exact, not
            // merely close, regardless of interleaving.
            let expect = 4.0 * (0..1000).map(|i| (i % 100) as f64).sum::<f64>();
            assert_eq!(s.histograms["h"].sum, expect);
        }
    }
}
