//! Observability substrate for the uncharted pipeline.
//!
//! This crate is deliberately dependency-free: every primitive is built on
//! `std::sync::atomic` so instrumented hot paths pay one relaxed atomic add
//! per event and never take a lock. The pieces:
//!
//! * [`Counter`] — monotonically increasing `u64` event counter.
//! * [`Gauge`] — signed level indicator (active flows, resident bytes) that
//!   can move both ways; rendered like a counter but excluded from the
//!   determinism fingerprint, since levels depend on eviction schedules.
//! * [`Histogram`] — fixed-bucket `u64`-valued distribution (frame sizes,
//!   payload lengths). Buckets are chosen at registration time so observing
//!   a value is a binary search plus one atomic add.
//! * [`Stage`] — wall-clock span timer for a pipeline stage, with optional
//!   per-shard timing so load imbalance across worker threads is visible.
//! * [`MetricsRegistry`] — names and owns the metrics, and produces an
//!   immutable [`MetricsSnapshot`] that renders to JSON, Prometheus
//!   text-exposition format, or a human-readable summary table.
//! * [`ExecPolicy`] — the unified execution model (`Sequential`,
//!   `Threads(n)`, `Auto`) that replaces the forked `X`/`X_threaded`
//!   driver pairs across the workspace.
//!
//! # Determinism
//!
//! Counter and histogram totals are required to be bit-identical between
//! `ExecPolicy::Sequential` and `ExecPolicy::Threads(n)` runs of the same
//! input: instrumented code only ever *adds* event counts, and the sharded
//! pipeline partitions work deterministically, so the sums commute. Timings
//! (`Stage` wall/shard nanoseconds) are the only nondeterministic fields and
//! are excluded from [`MetricsSnapshot::counter_fingerprint`], which is what
//! the determinism tests compare.
//!
//! # Example
//!
//! ```
//! use uncharted_obs::MetricsRegistry;
//!
//! let reg = MetricsRegistry::new();
//! let parsed = reg.counter_with("apdus_parsed", &[("dialect", "std")]);
//! let sizes = reg.histogram("apdu_octets", &[16, 64, 256]);
//! let stage = reg.stage("parse");
//!
//! {
//!     let _span = stage.span();
//!     parsed.inc();
//!     sizes.observe(42);
//!     stage.add_items(1);
//! }
//!
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter_total("apdus_parsed"), 1);
//! assert!(snap.to_prometheus().contains("apdus_parsed{dialect=\"std\"} 1"));
//! ```

pub mod cache;
mod exec;
pub mod fnv;
mod metrics;
mod registry;
mod render;

pub use cache::{SlotCache, Swapped};
pub use exec::ExecPolicy;
pub use fnv::{
    FnvBuildHasher, FnvHashMap, FnvHashSet, FnvHasher, MixBuildHasher, MixHashMap, MixHasher,
};
pub use metrics::{Counter, Gauge, Histogram, ShardSpan, Span, Stage};
pub use registry::{
    CounterSample, GaugeSample, HistogramSample, MetricsRegistry, MetricsSnapshot, StageSample,
};
