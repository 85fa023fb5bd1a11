//! The [`Recorder`] handle and its instruments.
//!
//! A [`Recorder`] is either *live* (holds a registry of named
//! instruments) or *no-op* (holds nothing). Instruments handed out by a
//! no-op recorder carry `None` internally, so every update is a single
//! branch on an `Option` discriminant — cheap enough to leave the
//! instrumentation compiled into release hot paths unconditionally.

// ORDERING: instruments are monotone counters/gauges read only at
// snapshot time; `Relaxed` is the documented contract (see the crate
// docs) and keeps hot-path updates to a single uncontended RMW.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::export::{HistogramSnapshot, Sample, Snapshot, Value};

/// Registry key: metric name plus sorted label pairs.
type Key = (String, Vec<(String, String)>);

/// A registered instrument's shared storage.
enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicI64>),
    Histogram(Arc<HistogramCore>),
}

/// Shared state behind a live [`Recorder`].
struct Inner {
    metrics: Mutex<BTreeMap<Key, Slot>>,
}

/// Cheap, cloneable telemetry handle.
///
/// Construct with [`Recorder::new`] for a live recorder or
/// [`Recorder::noop`] for a disabled one. Registering the same name and
/// label set twice returns handles backed by the same storage, so
/// components may re-register freely.
#[derive(Clone)]
pub struct Recorder(Option<Arc<Inner>>);

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("enabled", &self.is_enabled()).finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::noop()
    }
}

impl Recorder {
    /// A live recorder with an empty registry.
    pub fn new() -> Self {
        Recorder(Some(Arc::new(Inner { metrics: Mutex::new(BTreeMap::new()) })))
    }

    /// A disabled recorder: every instrument it hands out is inert.
    pub fn noop() -> Self {
        Recorder(None)
    }

    /// True when this recorder actually records.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Register (or look up) an unlabeled monotone counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Register (or look up) a labeled monotone counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        debug_assert!(crate::valid_metric_name(name), "bad metric name: {name}");
        let Some(inner) = &self.0 else { return Counter(None) };
        let mut metrics = match inner.metrics.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let slot = metrics
            .entry(key(name, labels))
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(c) => Counter(Some(Arc::clone(c))),
            _ => Counter(None), // name re-registered with a different type: inert handle
        }
    }

    /// Register (or look up) an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Register (or look up) a labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        debug_assert!(crate::valid_metric_name(name), "bad metric name: {name}");
        let Some(inner) = &self.0 else { return Gauge(None) };
        let mut metrics = match inner.metrics.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let slot = metrics
            .entry(key(name, labels))
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicI64::new(0))));
        match slot {
            Slot::Gauge(g) => Gauge(Some(Arc::clone(g))),
            _ => Gauge(None),
        }
    }

    /// Register (or look up) an unlabeled fixed-bucket histogram.
    ///
    /// `bounds` are inclusive upper bucket bounds in ascending order;
    /// values above the last bound land in the implicit `+Inf` bucket.
    /// See [`crate::LATENCY_US_BUCKETS`].
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.histogram_with(name, &[], bounds)
    }

    /// Register (or look up) a labeled fixed-bucket histogram.
    pub(crate) fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Histogram {
        debug_assert!(crate::valid_metric_name(name), "bad metric name: {name}");
        let Some(inner) = &self.0 else { return Histogram(None) };
        let mut metrics = match inner.metrics.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let slot = metrics
            .entry(key(name, labels))
            .or_insert_with(|| Slot::Histogram(Arc::new(HistogramCore::new(bounds))));
        match slot {
            Slot::Histogram(h) => Histogram(Some(Arc::clone(h))),
            _ => Histogram(None),
        }
    }

    /// A point-in-time snapshot of every registered instrument, sorted
    /// by (name, labels) so identical registry states serialize
    /// identically.
    pub fn snapshot(&self) -> Snapshot {
        let mut samples = Vec::new();
        if let Some(inner) = &self.0 {
            let metrics = match inner.metrics.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            for ((name, labels), slot) in metrics.iter() {
                let value = match slot {
                    Slot::Counter(c) => Value::Counter(c.load(Ordering::Relaxed)),
                    Slot::Gauge(g) => Value::Gauge(g.load(Ordering::Relaxed)),
                    Slot::Histogram(h) => Value::Histogram(h.snapshot()),
                };
                samples.push(Sample { name: name.clone(), labels: labels.clone(), value });
            }
        }
        Snapshot { samples }
    }
}

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut l: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    l.sort();
    (name.to_string(), l)
}

/// Monotone counter. Inert when obtained from a no-op recorder.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for inert handles).
    #[cfg(test)]
    pub(crate) fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Last-value gauge with a set-max mode for high-water marks.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if `v` exceeds the current value.
    #[inline]
    pub fn set_max(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 for inert handles).
    #[cfg(test)]
    pub(crate) fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// Shared storage of a fixed-bucket histogram: per-bucket counts plus
/// total count and sum, all relaxed atomics.
pub(crate) struct HistogramCore {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>, // bounds.len() + 1, last is +Inf
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Fixed-bucket histogram. Inert when obtained from a no-op recorder.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCore>>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram").field("enabled", &self.0.is_some()).finish()
    }
}

impl Histogram {
    /// Record one observation of `v`.
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.observe(v);
        }
    }

    /// Start a span: the returned guard records elapsed wall-clock
    /// microseconds into this histogram when dropped. For an inert
    /// histogram the guard never reads the clock.
    #[inline]
    pub fn time(&self) -> SpanTimer {
        SpanTimer(self.0.as_ref().map(|h| (Arc::clone(h), Instant::now())))
    }

    /// Total observation count (0 for inert handles).
    #[cfg(test)]
    pub(crate) fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count.load(Ordering::Relaxed))
    }
}

/// Drop guard created by [`Histogram::time`]: measures the span from
/// creation to drop and records it as microseconds.
///
/// The measured wall-clock value flows only into telemetry output —
/// never into pipeline results — so timing jitter cannot perturb run
/// determinism.
#[must_use = "the span ends when this guard is dropped"]
pub struct SpanTimer(Option<(Arc<HistogramCore>, Instant)>);

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if let Some((h, start)) = self.0.take() {
            let us = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            h.observe(us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_storage_by_key() {
        let rec = Recorder::new();
        let a = rec.counter("ah_test_stage_packets_total");
        let b = rec.counter("ah_test_stage_packets_total");
        a.add(2);
        b.add(3);
        assert_eq!(a.get(), 5);

        let g = rec.gauge_with("ah_test_stage_depth_current", &[("shard", "0")]);
        g.set(7);
        g.set_max(3); // lower: no effect
        g.set_max(11);
        assert_eq!(rec.gauge_with("ah_test_stage_depth_current", &[("shard", "0")]).get(), 11);
        // different label value = different instrument
        assert_eq!(rec.gauge_with("ah_test_stage_depth_current", &[("shard", "1")]).get(), 0);
    }

    #[test]
    fn histogram_buckets() {
        let rec = Recorder::new();
        let h = rec.histogram("ah_test_stage_lag_us", &[10, 100]);
        h.observe(5); // bucket 0 (<=10)
        h.observe(10); // bucket 0 (inclusive bound)
        h.observe(50); // bucket 1 (<=100)
        h.observe(500); // +Inf
        let snap = rec.snapshot();
        let Value::Histogram(hs) = &snap.samples[0].value else {
            panic!("expected histogram sample")
        };
        assert_eq!(hs.buckets, vec![2, 1, 1]);
        assert_eq!(hs.count, 4);
        assert_eq!(hs.sum, 565);
    }

    #[test]
    fn noop_is_inert_and_snapshot_empty() {
        let rec = Recorder::noop();
        assert!(!rec.is_enabled());
        let c = rec.counter("ah_test_stage_packets_total");
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = rec.histogram("ah_test_stage_lag_us", &[1, 2]);
        drop(h.time());
        assert_eq!(h.count(), 0);
        assert!(rec.snapshot().samples.is_empty());
    }

    #[test]
    fn snapshot_is_sorted() {
        let rec = Recorder::new();
        rec.counter("ah_test_zz_last_total").inc();
        rec.counter("ah_test_aa_first_total").inc();
        let names: Vec<_> = rec.snapshot().samples.iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, vec!["ah_test_aa_first_total", "ah_test_zz_last_total"]);
    }

    #[test]
    fn span_timer_records() {
        let rec = Recorder::new();
        let h = rec.histogram("ah_test_stage_span_us", &[1_000_000]);
        {
            let _t = h.time();
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn type_conflict_yields_inert_handle() {
        let rec = Recorder::new();
        let c = rec.counter("ah_test_stage_mixed_total");
        c.inc();
        let g = rec.gauge("ah_test_stage_mixed_total");
        g.set(99);
        assert_eq!(g.get(), 0);
        assert_eq!(c.get(), 1);
    }
}
