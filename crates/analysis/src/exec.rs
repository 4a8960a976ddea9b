//! The unified execution context for every pipeline driver.
//!
//! An [`ExecContext`] bundles the two things a driver needs beyond its
//! input: an [`ExecPolicy`] saying *how* to run (sequential, fixed worker
//! count, or one worker per core) and a [`PipelineMetrics`] saying *where
//! to record* what happened.

use std::sync::{Arc, OnceLock};

use uncharted_iec104::Iec104Metrics;
use uncharted_nettap::NettapMetrics;
use uncharted_obs::{Counter, MetricsRegistry, MetricsSnapshot, Stage};

pub use uncharted_obs::ExecPolicy;

/// Every metric the pipeline emits, registered against one shared
/// [`MetricsRegistry`]: the capture-layer and protocol-layer metric sets
/// plus the per-stage timers and item counters of the analysis drivers.
///
/// All handles are lock-free to increment and safe to share across
/// threads (a multi-worker ingest records from two). Counter totals are
/// deterministic (identical under any [`ExecPolicy`]); only the stage
/// wall/shard timings vary run to run.
#[derive(Debug)]
pub struct PipelineMetrics {
    registry: Arc<MetricsRegistry>,
    /// Capture-layer metrics (reassembly, overlaps, pcap records).
    pub nettap: NettapMetrics,
    /// Protocol-layer metrics (APDUs per dialect, junk, malformed frames).
    pub iec104: Arc<Iec104Metrics>,
    /// Sessions extracted (paper §6.3).
    pub sessions_built: Arc<Counter>,
    /// Markov chains built, one per device pair (paper §6.4 / Fig. 13).
    pub chains_built: Arc<Counter>,
    /// Physical time series extracted from I-frames (paper §6.4 DPI).
    pub series_extracted: Arc<Counter>,
    /// Protocol analysis: dialect detection + APDU decode into timelines.
    pub protocol_stage: Arc<Stage>,
    /// Session feature extraction.
    pub sessions_stage: Arc<Stage>,
    /// ASDU typeID census.
    pub type_census_stage: Arc<Stage>,
    /// Markov chain construction.
    pub markov_stage: Arc<Stage>,
    /// Time-series extraction.
    pub series_stage: Arc<Stage>,
    /// K-means model selection + clustering.
    pub kmeans_stage: Arc<Stage>,
}

impl PipelineMetrics {
    /// Register the full pipeline metric set on `registry`.
    pub fn register(registry: Arc<MetricsRegistry>) -> Arc<PipelineMetrics> {
        let nettap = NettapMetrics::register(&registry);
        let iec104 = Arc::new(Iec104Metrics::register(&registry));
        Arc::new(PipelineMetrics {
            nettap,
            iec104,
            sessions_built: registry.counter("analysis_sessions_built"),
            chains_built: registry.counter("analysis_chains_built"),
            series_extracted: registry.counter("analysis_series_extracted"),
            protocol_stage: registry.stage("protocol"),
            sessions_stage: registry.stage("sessions"),
            type_census_stage: registry.stage("type_census"),
            markov_stage: registry.stage("markov"),
            series_stage: registry.stage("series"),
            kmeans_stage: registry.stage("kmeans"),
            registry,
        })
    }

    /// A metric set on a fresh private registry.
    pub fn new() -> Arc<PipelineMetrics> {
        Self::register(Arc::new(MetricsRegistry::new()))
    }

    /// The registry all handles are registered on.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Snapshot the registry (see [`MetricsSnapshot`] for the renderers).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// A process-wide discard instance for callers that do not collect
    /// metrics (quick tests, throwaway runs). Counts accumulate but are
    /// never rendered.
    pub fn sink() -> Arc<PipelineMetrics> {
        static SINK: OnceLock<Arc<PipelineMetrics>> = OnceLock::new();
        SINK.get_or_init(PipelineMetrics::new).clone()
    }
}

/// How to run a pipeline driver and where to record what happened.
#[derive(Debug, Clone)]
pub struct ExecContext {
    /// Sequential, fixed worker count, or one worker per core.
    pub policy: ExecPolicy,
    /// Metric handles shared by every stage of the run.
    pub metrics: Arc<PipelineMetrics>,
}

impl ExecContext {
    /// A context with the given policy and a private metrics registry.
    pub fn new(policy: ExecPolicy) -> ExecContext {
        ExecContext {
            policy,
            metrics: PipelineMetrics::new(),
        }
    }

    /// A context with the given policy recording into `metrics`.
    pub fn with_metrics(policy: ExecPolicy, metrics: Arc<PipelineMetrics>) -> ExecContext {
        ExecContext { policy, metrics }
    }

    /// Sequential execution, metrics discarded — the cheap default for
    /// tests.
    pub fn sequential() -> ExecContext {
        ExecContext {
            policy: ExecPolicy::Sequential,
            metrics: PipelineMetrics::sink(),
        }
    }

    /// The resolved worker count (always ≥ 1).
    pub fn workers(&self) -> usize {
        self.policy.workers()
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::new(ExecPolicy::Auto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_resolves_workers_from_policy() {
        assert_eq!(ExecContext::sequential().workers(), 1);
        assert_eq!(ExecContext::new(ExecPolicy::Threads(3)).workers(), 3);
        assert!(ExecContext::default().workers() >= 1);
    }

    #[test]
    fn pipeline_metrics_share_one_registry() {
        let metrics = PipelineMetrics::new();
        metrics.sessions_built.add(4);
        metrics.nettap.segments_reassembled.add(2);
        metrics.iec104.junk_octets_skipped.add(1);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter_total("analysis_sessions_built"), 4);
        assert_eq!(snap.counter_total("nettap_segments_reassembled"), 2);
        assert_eq!(snap.counter_total("iec104_junk_octets_skipped"), 1);
    }
}
