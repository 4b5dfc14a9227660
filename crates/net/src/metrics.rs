//! Deterministic, typed metrics: counters, gauges, and sim-time histograms.
//!
//! The registry is designed so that enabling it can never perturb a run and
//! reading it can never depend on scheduling:
//!
//! - Metrics are keyed by `&'static str` names (plus an optional static
//!   label), stored in [`BTreeMap`]s, so iteration order is the string
//!   order of the keys — identical on every run and at any worker count.
//! - Nothing here reads the wall clock or draws randomness; histograms
//!   observe simulated [`Duration`]s only.
//! - The registry lives in the engine as an `Option` (see
//!   [`crate::Sim::enable_metrics`]); when disabled, instrumentation is a
//!   single branch per call site and allocates nothing.
//!
//! Snapshots ([`MetricsSnapshot`]) are plain data: they can be compared for
//! equality, merged across simulation shards in task order, and exported as
//! deterministic JSON for `results/metrics_*.json` artifacts.

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Identifies one metric series: a static name plus an optional static
/// label (e.g. a drop reason). Unlabelled series use `label: ""`.
///
/// Keys are ordered by `(name, label)` string content, which is what makes
/// snapshot iteration — and therefore JSON export — deterministic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MetricKey {
    /// Metric family name, e.g. `"net.drop.device"`.
    pub name: &'static str,
    /// Optional sub-series label, e.g. a drop reason; `""` when unused.
    pub label: &'static str,
}

impl MetricKey {
    /// Builds an unlabelled key.
    pub const fn plain(name: &'static str) -> Self {
        MetricKey { name, label: "" }
    }

    /// Builds a labelled key.
    pub const fn labeled(name: &'static str, label: &'static str) -> Self {
        MetricKey { name, label }
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.label.is_empty() {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{}/{}", self.name, self.label)
        }
    }
}

/// Number of log-scale latency buckets: upper bounds of 1 ms, 2 ms, 4 ms,
/// ... 65 536 ms, plus a final overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 18;

/// Upper bound in milliseconds of bucket `i` (the last bucket is +inf).
fn bucket_bound_ms(i: usize) -> u64 {
    1u64 << i
}

/// A sim-time histogram with fixed log-scale buckets.
///
/// Buckets double from 1 ms up to 65 536 ms with a final overflow bucket;
/// exact count / sum / min / max are kept alongside, so medians are
/// bucket-resolution but totals are exact.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_nanos: u128,
    min_nanos: u64,
    max_nanos: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_nanos: 0,
            min_nanos: u64::MAX,
            max_nanos: 0,
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, d: Duration) {
        let nanos = d.as_nanos().min(u64::MAX as u128) as u64;
        let ms = d.as_millis().min(u64::MAX as u128) as u64;
        let mut idx = HISTOGRAM_BUCKETS - 1;
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            if ms <= bucket_bound_ms(i) {
                idx = i;
                break;
            }
        }
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_nanos += nanos as u128;
        self.min_nanos = self.min_nanos.min(nanos);
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> Duration {
        let nanos = self.sum_nanos.min(u64::MAX as u128) as u64;
        Duration::from_nanos(nanos)
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_nanos(self.min_nanos))
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<Duration> {
        (self.count > 0).then(|| Duration::from_nanos(self.max_nanos))
    }

    /// Per-bucket counts, paired with each bucket's upper bound in
    /// milliseconds (`None` for the final overflow bucket).
    pub fn buckets(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        self.counts.iter().enumerate().map(|(i, &c)| {
            let bound = (i < HISTOGRAM_BUCKETS - 1).then(|| bucket_bound_ms(i));
            (bound, c)
        })
    }

    /// Adds another histogram's observations into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.min_nanos = self.min_nanos.min(other.min_nanos);
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }
}

/// The live metrics registry, owned by the simulation engine.
///
/// All mutation goes through the engine (`Ctx` / `Sim`); harness code reads
/// it via [`crate::Sim::metrics`] or takes a [`MetricsSnapshot`].
#[derive(Clone, Default, Debug)]
pub struct Metrics {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, i64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the counter `key`.
    pub fn inc_by(&mut self, key: MetricKey, by: u64) {
        *self.counters.entry(key).or_insert(0) += by;
    }

    /// Increments the counter `key` by one.
    pub fn inc(&mut self, key: MetricKey) {
        self.inc_by(key, 1);
    }

    /// Raises the gauge `key` to `value` if it is below it (high-water mark).
    pub fn gauge_max(&mut self, key: MetricKey, value: i64) {
        let g = self.gauges.entry(key).or_insert(i64::MIN);
        if *g < value {
            *g = value;
        }
    }

    /// Records one observation into the histogram `key`.
    pub fn observe(&mut self, key: MetricKey, d: Duration) {
        self.histograms.entry(key).or_default().observe(d);
    }

    /// Takes an immutable snapshot of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

/// A point-in-time copy of a [`Metrics`] registry: plain data that can be
/// compared, merged across shards, and serialized to deterministic JSON.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct MetricsSnapshot {
    /// Monotonic counters, e.g. drops by reason.
    pub counters: BTreeMap<MetricKey, u64>,
    /// Last-write or high-water gauges, e.g. peak event-queue depth.
    pub gauges: BTreeMap<MetricKey, i64>,
    /// Sim-time histograms, e.g. punch latency.
    pub histograms: BTreeMap<MetricKey, Histogram>,
}

impl MetricsSnapshot {
    /// Current value of a counter (0 if absent). `label: ""` for
    /// unlabelled counters.
    // punch-lint: allow(S005) how tests/chaos.rs and rendezvous/tests/server.rs read a counter
    pub fn counter(&self, name: &str, label: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k.name == name && k.label == label)
            .map(|(_, &v)| v)
            .unwrap_or(0)
    }

    /// Sums every labelled sub-series of a counter family.
    pub fn counter_family(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Looks up a histogram by name (unlabelled).
    // punch-lint: allow(S005) how tests/chaos.rs and lab/tests/fleet_identity.rs read a latency histogram
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k.name == name && k.label.is_empty())
            .map(|(_, v)| v)
    }

    /// Returns true if no series were ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another snapshot into this one: counters and histograms add,
    /// gauges take the maximum (they are high-water marks across shards).
    ///
    /// Merging is commutative for counters/histograms and order-insensitive
    /// for gauges, but callers fanning out over a worker pool should still
    /// fold in task order (see `punch_lab::par`) so any future
    /// non-commutative series stays deterministic.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(*k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(*k).or_insert(i64::MIN);
            if *g < *v {
                *g = *v;
            }
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(*k).or_default().merge(h);
        }
    }

    /// The snapshot as a [`Json`] value (for nesting into larger
    /// documents): `counters` / `gauges` / `histograms` objects keyed
    /// `name` or `name/label` in `BTreeMap` order, one inline record per
    /// histogram. Durations are integer nanoseconds.
    pub fn json(&self) -> Json {
        fn scalars<V: fmt::Display>(m: &BTreeMap<MetricKey, V>) -> Json {
            Json::obj(m.iter().map(|(k, v)| (k.to_string(), Json::num(v))))
        }
        let histogram = |h: &Histogram| {
            let buckets = h.buckets().map(|(bound, c)| {
                Json::Arr(vec![
                    bound.map_or(Json::str("inf"), Json::num),
                    Json::num(c),
                ])
            });
            Json::obj([
                ("count", Json::num(h.count)),
                ("sum_ns", Json::num(h.sum_nanos)),
                (
                    "min_ns",
                    Json::num(if h.count > 0 { h.min_nanos } else { 0 }),
                ),
                ("max_ns", Json::num(h.max_nanos)),
                ("buckets_le_ms", Json::Arr(buckets.collect())),
            ])
            .inline()
        };
        Json::obj([
            ("counters", scalars(&self.counters)),
            ("gauges", scalars(&self.gauges)),
            (
                "histograms",
                Json::obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.to_string(), histogram(h))),
                ),
            ),
        ])
    }

    /// Serializes the snapshot as deterministic, human-readable JSON: the
    /// same snapshot always produces byte-identical output.
    pub fn to_json(&self) -> String {
        self.json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_labels_are_independent_series() {
        let mut m = Metrics::new();
        m.inc(MetricKey::plain("a"));
        m.inc_by(MetricKey::labeled("a", "x"), 3);
        let s = m.snapshot();
        assert_eq!(s.counter("a", ""), 1);
        assert_eq!(s.counter("a", "x"), 3);
        assert_eq!(s.counter_family("a"), 4);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        h.observe(Duration::from_millis(1));
        h.observe(Duration::from_millis(3));
        h.observe(Duration::from_secs(200));
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(Duration::from_millis(1)));
        assert_eq!(h.max(), Some(Duration::from_secs(200)));
        let counts: Vec<u64> = h.buckets().map(|(_, c)| c).collect();
        assert_eq!(counts[0], 1); // <= 1ms
        assert_eq!(counts[2], 1); // <= 4ms
        assert_eq!(counts[HISTOGRAM_BUCKETS - 1], 1); // overflow
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = Metrics::new();
        a.inc(MetricKey::plain("c"));
        a.observe(MetricKey::plain("h"), Duration::from_millis(10));
        a.gauge_max(MetricKey::plain("g"), 5);
        let mut b = Metrics::new();
        b.inc_by(MetricKey::plain("c"), 2);
        b.observe(MetricKey::plain("h"), Duration::from_millis(20));
        b.gauge_max(MetricKey::plain("g"), 3);

        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counter("c", ""), 3);
        assert_eq!(s.histogram("h").unwrap().count(), 2);
        assert_eq!(s.gauges.get(&MetricKey::plain("g")), Some(&5));
    }

    #[test]
    fn json_is_deterministic_and_ordered() {
        let mut m = Metrics::new();
        m.inc(MetricKey::plain("z.last"));
        m.inc(MetricKey::plain("a.first"));
        m.observe(MetricKey::plain("lat"), Duration::from_millis(42));
        let s = m.snapshot();
        let j1 = s.to_json();
        let j2 = s.clone().to_json();
        assert_eq!(j1, j2);
        let a = j1.find("a.first").unwrap();
        let z = j1.find("z.last").unwrap();
        assert!(a < z, "keys must be sorted");
        assert!(j1.contains("\"count\": 1"));
    }

    #[test]
    fn empty_snapshot_exports_cleanly() {
        let s = MetricsSnapshot::default();
        assert!(s.is_empty());
        assert_eq!(
            s.to_json(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n"
        );
    }
}
