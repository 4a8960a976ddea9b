//! Lock-free metric primitives: counters, histograms, and stage timers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A monotonically increasing event counter.
///
/// Increments are relaxed atomic adds: worker threads never synchronise on a
/// counter, and the pipeline's fork–join structure (scoped threads joined
/// before a snapshot is taken) provides the happens-before edge that makes
/// reads exact.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` events.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous level indicator: a signed value that can go up and down
/// (active flows, resident buffer bytes, queue depth).
///
/// Gauges describe the *current state* of a run rather than its input, so —
/// like volatile counters — they render normally but are excluded from
/// [`MetricsSnapshot::counter_fingerprint`]: two runs that evict state on
/// different schedules can legitimately disagree on every gauge while still
/// producing bit-identical analysis results.
///
/// [`MetricsSnapshot::counter_fingerprint`]:
///     crate::MetricsSnapshot::counter_fingerprint
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the level with an absolute value.
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Raise the level by `n`.
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the level by `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raise the level by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Lower the level by one.
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram over `u64` values (octet lengths, item counts).
///
/// Bucket upper bounds are fixed at construction, so `observe` is a binary
/// search over a small slice plus one relaxed atomic add — no allocation, no
/// locking, and (because values are integers, not floats) bit-identical
/// totals regardless of execution order.
#[derive(Debug)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing. Values above the last
    /// bound land in an implicit overflow bucket.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets; the final entry is the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Build a histogram with the given inclusive upper bounds. Bounds must
    /// be strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (non-cumulative); the last entry is the overflow
    /// bucket for values above the largest bound.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }
}

/// Wall-clock timing and throughput accounting for one pipeline stage.
///
/// A stage accumulates total wall time (via [`Stage::span`] guards on the
/// coordinating thread), an item count, and optional per-shard wall times
/// recorded by worker threads (via [`Stage::shard_span`]) so imbalance
/// across shards is visible. Shard times are kept in a `BTreeMap` keyed by
/// shard index, so aggregation order is stable no matter which worker
/// finishes first.
#[derive(Debug, Default)]
pub struct Stage {
    wall_ns: AtomicU64,
    runs: AtomicU64,
    items: AtomicU64,
    shard_ns: Mutex<BTreeMap<usize, u64>>,
}

impl Stage {
    pub fn new() -> Self {
        Self::default()
    }

    /// Time a region on the coordinating thread; the guard adds its elapsed
    /// wall time (and one run) to the stage when dropped.
    pub fn span(&self) -> Span<'_> {
        Span {
            stage: self,
            start: Instant::now(),
        }
    }

    /// Time one shard's work inside a parallel region. Shard spans feed the
    /// per-shard breakdown only; the enclosing [`Stage::span`] on the
    /// coordinating thread owns the stage's total wall time.
    pub fn shard_span(&self, shard: usize) -> ShardSpan<'_> {
        ShardSpan {
            stage: self,
            shard,
            start: Instant::now(),
        }
    }

    /// Run `f` under a [`Stage::span`] guard.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let _span = self.span();
        f()
    }

    /// Record `n` items processed by this stage.
    pub fn add_items(&self, n: u64) {
        self.items.fetch_add(n, Ordering::Relaxed);
    }

    /// Directly add wall time. Span guards call this; it is public so
    /// renderers can be golden-tested with deterministic timings.
    pub fn record_wall_ns(&self, ns: u64) {
        self.wall_ns.fetch_add(ns, Ordering::Relaxed);
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Directly add per-shard wall time (see [`Stage::record_wall_ns`]).
    pub fn record_shard_ns(&self, shard: usize, ns: u64) {
        let mut shards = self.shard_ns.lock().unwrap();
        *shards.entry(shard).or_insert(0) += ns;
    }

    pub fn wall_ns(&self) -> u64 {
        self.wall_ns.load(Ordering::Relaxed)
    }

    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    pub fn items(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// Per-shard wall times in stable shard-index order.
    pub fn shard_wall_ns(&self) -> Vec<(usize, u64)> {
        self.shard_ns
            .lock()
            .unwrap()
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect()
    }
}

/// Guard returned by [`Stage::span`].
#[must_use = "a span records its timing when dropped; binding it to `_` drops it immediately"]
pub struct Span<'a> {
    stage: &'a Stage,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.stage
            .record_wall_ns(self.start.elapsed().as_nanos() as u64);
    }
}

/// Guard returned by [`Stage::shard_span`].
#[must_use = "a span records its timing when dropped; binding it to `_` drops it immediately"]
pub struct ShardSpan<'a> {
    stage: &'a Stage,
    shard: usize,
    start: Instant,
}

impl Drop for ShardSpan<'_> {
    fn drop(&mut self) {
        self.stage
            .record_shard_ns(self.shard, self.start.elapsed().as_nanos() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.inc();
        g.add(10);
        g.sub(4);
        g.dec();
        assert_eq!(g.get(), 6);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_buckets_values_inclusively() {
        let h = Histogram::new(&[10, 100]);
        for v in [1, 10, 11, 100, 101, 5000] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 2, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 10 + 11 + 100 + 101 + 5000);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[10, 10]);
    }

    #[test]
    fn stage_accumulates_spans_and_items() {
        let s = Stage::new();
        s.time(|| ());
        {
            let _span = s.span();
        }
        s.add_items(7);
        s.record_shard_ns(1, 100);
        s.record_shard_ns(0, 50);
        s.record_shard_ns(1, 100);
        assert_eq!(s.runs(), 2);
        assert_eq!(s.items(), 7);
        assert_eq!(s.shard_wall_ns(), vec![(0, 50), (1, 200)]);
    }

    #[test]
    fn counters_are_exact_across_threads() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
