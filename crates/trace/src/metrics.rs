//! The metrics registry: counters, gauges, and log₂-bucketed
//! histograms with a canonical JSON dump for CI diffing.
//!
//! This absorbs the stack's ad-hoc statistics (pool `grow_count`s,
//! exchange bytes, per-rank atom counts, neighbor occupancy) into one
//! place with one serialization. The dump is *canonical*: keys are
//! sorted (`BTreeMap` iteration), numbers render in shortest
//! round-trip form, and nothing wall-clock-derived is ever stored — so
//! a deterministic workload produces a byte-identical dump on every
//! run, and CI can compare it with `cmp`-strictness.
//!
//! Caveat for byte-stability under concurrency: counter increments from
//! different threads commute only when the values are exactly
//! representable (integral counts, bytes). Keep counter payloads
//! integral-valued; that is what every built-in instrumentation site
//! emits.

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Debug, Clone, Default, PartialEq)]
struct Histogram {
    count: u64,
    sum: f64,
    /// Keyed by bucket exponent: value `v` lands in bucket
    /// `floor(log2(v))` for `v >= 1`, and in the sentinel bucket `-1`
    /// (lower bound 0) for `v < 1`.
    buckets: BTreeMap<i32, u64>,
}

/// Exponent of the log₂ bucket holding `v`, via the IEEE-754 exponent
/// field (exact for every finite positive double, unlike
/// `v.log2().floor()` at power-of-two boundaries).
fn bucket_exp(v: f64) -> i32 {
    if !v.is_finite() || v < 1.0 {
        return -1;
    }
    (((v.to_bits() >> 52) & 0x7ff) as i32) - 1023
}

fn bucket_lo(exp: i32) -> f64 {
    if exp < 0 {
        0.0
    } else {
        (2.0_f64).powi(exp)
    }
}

/// Estimate the `q`-quantile of a log₂-bucketed distribution by linear
/// interpolation inside the bucket holding the rank-`⌈q·count⌉`
/// observation (bucket `exp` spans `[2^exp, 2^(exp+1))`; the sentinel
/// spans `[0, 1)`). Pure integer-and-dyadic arithmetic on the bucket
/// table, so the estimate is bit-identical across runs and platforms.
/// Returns 0.0 for an empty histogram.
fn quantile_est(count: u64, buckets: &BTreeMap<i32, u64>, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (&exp, &n) in buckets {
        if n == 0 {
            continue;
        }
        if seen + n >= rank {
            let lo = bucket_lo(exp);
            let hi = if exp < 0 { 1.0 } else { 2.0 * lo };
            let frac = (rank - seen) as f64 / n as f64;
            return lo + (hi - lo) * frac;
        }
        seen += n;
    }
    // Unreachable when bucket counts sum to `count`; fall back to the
    // top edge of the last occupied bucket.
    buckets
        .iter()
        .rev()
        .find(|(_, &n)| n > 0)
        .map_or(
            0.0,
            |(&exp, _)| if exp < 0 { 1.0 } else { bucket_lo(exp + 1) },
        )
}

/// A read-only copy of one histogram, buckets as
/// `(lower_bound, count)` pairs in ascending order.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// The same log₂-interpolated quantile estimate the canonical dump
    /// renders as `p50`/`p95`/`p99`.
    pub fn quantile(&self, q: f64) -> f64 {
        let rebuilt: BTreeMap<i32, u64> = self
            .buckets
            .iter()
            .map(|&(lo, n)| (bucket_exp(lo), n))
            .collect();
        quantile_est(self.count, &rebuilt, q)
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Counters (monotonic sums), gauges (last value), and log₂-bucketed
/// histograms behind one lock, dumped as canonical JSON.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to counter `name` (created at 0).
    pub fn add_counter(&self, name: &str, delta: f64) {
        let mut inner = self.inner.lock().unwrap();
        *inner.counters.entry(name.to_string()).or_insert(0.0) += delta;
    }

    /// Set gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.insert(name.to_string(), value);
    }

    /// Record one observation into histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        let h = inner.histograms.entry(name.to_string()).or_default();
        h.count += 1;
        h.sum += value;
        *h.buckets.entry(bucket_exp(value)).or_insert(0) += 1;
    }

    pub fn counter(&self, name: &str) -> Option<f64> {
        self.inner.lock().unwrap().counters.get(name).copied()
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.lock().unwrap().gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        let inner = self.inner.lock().unwrap();
        inner.histograms.get(name).map(|h| HistogramSnapshot {
            count: h.count,
            sum: h.sum,
            buckets: h
                .buckets
                .iter()
                .map(|(&exp, &count)| (bucket_lo(exp), count))
                .collect(),
        })
    }

    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock().unwrap();
        inner.counters.is_empty() && inner.gauges.is_empty() && inner.histograms.is_empty()
    }

    /// The canonical dump: sorted keys, every histogram with its
    /// `p50`/`p95`/`p99` estimates and `[lower_bound, count]` buckets.
    /// Byte-identical across runs for deterministic workloads once
    /// rendered — CI compares it verbatim inside the committed baseline.
    pub fn to_value(&self) -> Value {
        let inner = self.inner.lock().unwrap();
        let num_map = |map: &BTreeMap<String, f64>| {
            Value::Obj(
                map.iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect(),
            )
        };
        let mut histograms = Value::obj();
        for (name, h) in &inner.histograms {
            let mut entry = Value::obj();
            entry.set("count", h.count);
            entry.set("sum", h.sum);
            for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                entry.set(label, quantile_est(h.count, &h.buckets, q));
            }
            let buckets = h
                .buckets
                .iter()
                .map(|(&exp, &count)| Value::Arr(vec![bucket_lo(exp).into(), count.into()]));
            entry.set("buckets", Value::Arr(buckets.collect()));
            histograms.set(name.clone(), entry);
        }
        let mut out = Value::obj();
        out.set("schema", 1.0);
        out.set("counters", num_map(&inner.counters));
        out.set("gauges", num_map(&inner.gauges));
        out.set("histograms", histograms);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_exponents_are_exact_at_powers_of_two() {
        assert_eq!(bucket_exp(0.0), -1);
        assert_eq!(bucket_exp(0.5), -1);
        assert_eq!(bucket_exp(-3.0), -1);
        assert_eq!(bucket_exp(1.0), 0);
        assert_eq!(bucket_exp(1.9), 0);
        assert_eq!(bucket_exp(2.0), 1);
        assert_eq!(bucket_exp(1023.0), 9);
        assert_eq!(bucket_exp(1024.0), 10);
        assert_eq!(bucket_exp(1025.0), 10);
        assert_eq!(bucket_exp(2.0_f64.powi(52)), 52);
        assert_eq!(bucket_lo(10), 1024.0);
        assert_eq!(bucket_lo(-1), 0.0);
    }

    #[test]
    fn kinds_accumulate_correctly() {
        let m = MetricsRegistry::new();
        m.add_counter("bytes", 64.0);
        m.add_counter("bytes", 64.0);
        m.set_gauge("owned", 100.0);
        m.set_gauge("owned", 90.0);
        m.observe("msg", 3.0);
        m.observe("msg", 1000.0);
        assert_eq!(m.counter("bytes"), Some(128.0));
        assert_eq!(m.gauge("owned"), Some(90.0));
        let h = m.histogram("msg").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1003.0);
        assert_eq!(h.buckets, vec![(2.0, 1), (512.0, 1)]);
        assert_eq!(m.counter("missing"), None);
    }

    #[test]
    fn dump_is_canonical_and_stable() {
        let fill = || {
            let m = MetricsRegistry::new();
            // Insertion order scrambled on purpose: output must sort.
            m.set_gauge("z/gauge", 5.0);
            m.add_counter("b/bytes", 256.0);
            m.add_counter("a/bytes", 128.0);
            m.observe("hist", 7.0);
            m.observe("hist", 8.0);
            m.to_value().to_pretty()
        };
        let a = fill();
        assert_eq!(a, fill(), "dump not byte-stable");
        let a_pos = a.find("\"a/bytes\"").unwrap();
        let b_pos = a.find("\"b/bytes\"").unwrap();
        assert!(a_pos < b_pos, "keys not sorted:\n{a}");
        let doc = crate::json::parse(&a).unwrap();
        assert_eq!(doc.get("schema"), Some(&Value::Num(1.0)));
        let pair = |lo: f64, n: f64| Value::Arr(vec![lo.into(), n.into()]);
        assert_eq!(
            doc.get("histograms")
                .and_then(|h| h.get("hist"))
                .and_then(|h| h.get("buckets")),
            Some(&Value::Arr(vec![pair(4.0, 1.0), pair(8.0, 1.0)])),
            "{a}"
        );
        // Quantile keys render between sum and buckets, in fixed order.
        let h_start = a.find("\"hist\"").unwrap();
        let tail = &a[h_start..];
        let order: Vec<usize> = ["\"sum\"", "\"p50\"", "\"p95\"", "\"p99\"", "\"buckets\""]
            .iter()
            .map(|k| tail.find(k).unwrap_or_else(|| panic!("{k} missing:\n{a}")))
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "key order:\n{a}");

        let empty = MetricsRegistry::new().to_value().to_pretty();
        assert!(empty.contains("\"counters\": {}"), "{empty}");
    }

    #[test]
    fn quantile_estimates_interpolate_within_buckets() {
        // Empty histogram: all quantiles 0.
        assert_eq!(quantile_est(0, &BTreeMap::new(), 0.5), 0.0);

        // Single observation in [4, 8): every quantile lands inside
        // that bucket, at lo + (hi-lo)·1/1 = 8 (rank 1 of 1).
        let one = BTreeMap::from([(2, 1u64)]);
        assert_eq!(quantile_est(1, &one, 0.5), 8.0);
        assert_eq!(quantile_est(1, &one, 0.99), 8.0);

        // 100 observations: 50 in [1,2), 50 in [2,4). p50 is the top of
        // the first bucket; p95 and p99 interpolate inside the second.
        let two = BTreeMap::from([(0, 50u64), (1, 50u64)]);
        assert_eq!(quantile_est(100, &two, 0.50), 2.0);
        assert_eq!(quantile_est(100, &two, 0.95), 2.0 + 2.0 * (45.0 / 50.0));
        assert_eq!(quantile_est(100, &two, 0.99), 2.0 + 2.0 * (49.0 / 50.0));

        // Sentinel bucket [0, 1) interpolates toward 1.
        let sub = BTreeMap::from([(-1, 4u64)]);
        assert_eq!(quantile_est(4, &sub, 0.5), 0.5);

        // Snapshot method agrees with the dump's estimator.
        let m = MetricsRegistry::new();
        for v in [1.0, 1.5, 2.0, 3.0] {
            m.observe("q", v);
        }
        let snap = m.histogram("q").unwrap();
        let rebuilt = BTreeMap::from([(0, 2u64), (1, 2u64)]);
        assert_eq!(snap.quantile(0.5), quantile_est(4, &rebuilt, 0.5));
        let dump = m.to_value().to_pretty();
        assert!(dump.contains("\"p50\": 2"), "{dump}");
    }
}
