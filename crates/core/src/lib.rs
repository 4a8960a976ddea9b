#![warn(missing_docs)]
//! # uncharted
//!
//! End-to-end reproduction of *Uncharted Networks: A First Measurement
//! Study of the Bulk Power System* (IMC 2020): generate bulk-power SCADA
//! captures with the federated-network simulator, then run the paper's
//! measurement pipeline over them.
//!
//! The crate is a thin facade. The heavy lifting lives in:
//!
//! * [`iec104`] — the dialect-aware IEC 60870-5-104 stack,
//! * [`nettap`] — wire formats, pcap, TCP endpoints, flow reconstruction,
//! * [`powergrid`] — the grid + AGC substrate,
//! * [`scadasim`] — the Fig. 6 network simulator,
//! * [`analysis`] — flows, clustering, Markov profiling, physical DPI.
//!
//! ## Quickstart
//!
//! ```
//! use uncharted::{ExecPolicy, Pipeline, Scenario, Simulation, Year};
//!
//! // Simulate a small Year-1 capture (seeded: fully reproducible)...
//! let captures = Simulation::new(Scenario::small(Year::Y1, 7, 60.0)).run();
//! // ...and run the paper's pipeline over it.
//! let pipeline = Pipeline::builder()
//!     .exec(ExecPolicy::Auto) // or Sequential / Threads(n): same results
//!     .build(&captures);
//! let flows = pipeline.flow_stats();
//! assert!(flows.total() > 0);
//! let census = pipeline.type_census();
//! assert!(census.total() > 0);
//! // Every run records what it did: counters are policy-independent.
//! let snapshot = pipeline.metrics().snapshot();
//! assert!(snapshot.counter_total("iec104_apdus_parsed") > 0);
//! ```

pub mod cli;

pub use uncharted_analysis as analysis;
pub use uncharted_iec104 as iec104;
pub use uncharted_nettap as nettap;
pub use uncharted_obs as obs;
pub use uncharted_powergrid as powergrid;
pub use uncharted_scadasim as scadasim;
pub use uncharted_serve as serve;

pub use uncharted_analysis::dataset::Dataset;
pub use uncharted_analysis::exec::{ExecContext, ExecPolicy, PipelineMetrics};
pub use uncharted_analysis::flowstats::FlowStats;
pub use uncharted_nettap::pcap::Capture;
pub use uncharted_obs::{MetricsRegistry, MetricsSnapshot};
pub use uncharted_scadasim::scenario::{CaptureSet, Scenario, Year};
pub use uncharted_scadasim::sim::Simulation;

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;
use uncharted_analysis::dpi::{self, TypeCensus};
use uncharted_analysis::kmeans::{self, KMeansResult, ModelSelection};
use uncharted_analysis::markov::{self, ChainCensus, OutstationClass};
use uncharted_analysis::matrix::FeatureMatrix;
use uncharted_analysis::pca::Pca;
use uncharted_analysis::session::{self, standardize, Session};
use uncharted_nettap::pcap::ParsedPacket;
use uncharted_nettap::source::PacketSource;

/// The full measurement pipeline over one dataset (one capture, one year's
/// captures, or anything else assembled from packets).
///
/// Build one with [`Pipeline::builder`]; every analysis stage then runs
/// under the builder's [`ExecContext`] — one policy, one metrics registry —
/// instead of the old per-call `threads` arguments.
#[derive(Debug)]
pub struct Pipeline {
    /// The ingested dataset.
    pub dataset: Dataset,
    /// How the stages execute and where they record their metrics. Results
    /// are bit-identical under any [`ExecPolicy`]; only wall-clock time
    /// (and the recorded stage timings) change.
    pub exec: ExecContext,
}

/// Configures and builds a [`Pipeline`].
///
/// ```
/// use uncharted::{ExecPolicy, Pipeline, Scenario, Simulation, Year};
///
/// let captures = Simulation::new(Scenario::small(Year::Y1, 7, 30.0)).run();
/// let pipeline = Pipeline::builder()
///     .exec(ExecPolicy::Threads(2))
///     .build(&captures);
/// assert!(pipeline.flow_stats().total() > 0);
/// ```
#[derive(Debug, Default)]
pub struct PipelineBuilder {
    policy: ExecPolicy,
    metrics: Option<Arc<PipelineMetrics>>,
}

impl PipelineBuilder {
    /// Set the execution policy (default: [`ExecPolicy::Auto`], one worker
    /// per core).
    pub fn exec(mut self, policy: ExecPolicy) -> PipelineBuilder {
        self.policy = policy;
        self
    }

    /// Map a CLI-style `--threads N` flag onto the policy: `0` = one worker
    /// per core ([`ExecPolicy::Auto`]), `1` = sequential, `n` = `n` workers.
    pub fn threads(self, threads: usize) -> PipelineBuilder {
        self.exec(ExecPolicy::from_threads_flag(threads))
    }

    /// Record metrics into `metrics` instead of a fresh private registry —
    /// use this to aggregate several pipelines into one registry.
    pub fn metrics(mut self, metrics: Arc<PipelineMetrics>) -> PipelineBuilder {
        self.metrics = Some(metrics);
        self
    }

    /// The [`ExecContext`] every build method ingests under.
    fn context(&self) -> ExecContext {
        ExecContext::with_metrics(
            self.policy,
            self.metrics.clone().unwrap_or_else(PipelineMetrics::new),
        )
    }

    /// Ingest a whole capture campaign (flows spanning windows stay split,
    /// exactly as the paper's multi-day captures did).
    pub fn build(&self, set: &CaptureSet) -> Pipeline {
        let exec = self.context();
        Pipeline {
            dataset: Dataset::ingest_captures(set.captures.iter(), &exec),
            exec,
        }
    }

    /// Ingest one capture.
    pub fn build_capture(&self, capture: &Capture) -> Pipeline {
        let exec = self.context();
        Pipeline {
            dataset: Dataset::ingest_capture(capture, &exec),
            exec,
        }
    }

    /// Ingest already-parsed packets (must be in time order).
    pub fn build_packets(&self, packets: Vec<ParsedPacket>) -> Pipeline {
        let exec = self.context();
        Pipeline {
            dataset: Dataset::ingest(packets, &exec),
            exec,
        }
    }

    /// Ingest a classic libpcap file through the fastest [`PacketSource`]
    /// the input supports: regular files are memory-mapped and decoded
    /// zero-copy, anything non-seekable streams
    /// ([`nettap::source::open_path`]).
    pub fn build_pcap(&self, path: &std::path::Path) -> std::io::Result<Pipeline> {
        let mut src =
            nettap::source::open_path(path).map_err(|e| std::io::Error::other(e.to_string()))?;
        self.source(src.as_mut())
            .map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// Ingest everything a [`PacketSource`] yields — the single ingest
    /// entry point. A pcap file, an in-memory capture, a socket feed, or a
    /// chain of them all build the identical pipeline here; packets are
    /// merged into time order before ingestion, exactly like
    /// [`build`](PipelineBuilder::build) over a capture campaign.
    pub fn source(&self, src: &mut dyn PacketSource) -> Result<Pipeline, nettap::Error> {
        let exec = self.context();
        Ok(Pipeline {
            dataset: Dataset::ingest_source(src, &exec)?,
            exec,
        })
    }
}

/// Summary of a K-means clustering run over the session features.
#[derive(Debug, Clone, Serialize)]
pub struct ClusterReport {
    /// The model-selection sweep (paper's elbow/silhouette/EV table).
    pub selection: Vec<ModelSelection>,
    /// The K suggested by the elbow heuristic.
    pub elbow_k: Option<usize>,
    /// The clustering at the paper's K = 5.
    pub k5: KMeansResult,
    /// 2-D PCA projection of every session (Fig. 10 coordinates).
    pub projected: Vec<Vec<f64>>,
    /// Variance captured by the two plotted components.
    pub pca_explained: f64,
    /// Mean raw feature vector per cluster (Δt̄, packets, %I, %S, %U).
    pub cluster_means: Vec<Vec<f64>>,
}

impl Pipeline {
    /// Start configuring a pipeline (execution policy, metrics registry).
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// The metric handles this pipeline records into.
    pub fn metrics(&self) -> &Arc<PipelineMetrics> {
        &self.exec.metrics
    }

    /// Table 3 flow statistics.
    pub fn flow_stats(&self) -> FlowStats {
        FlowStats::from_flows(&self.dataset.flows)
    }

    /// The unidirectional sessions.
    pub fn sessions(&self) -> Vec<Session> {
        session::extract(&self.dataset, &self.exec)
    }

    /// The §6.3 clustering study: feature extraction, standardisation,
    /// model-selection sweep, K=5 clustering, PCA projection.
    pub fn cluster_sessions(&self, seed: u64) -> ClusterReport {
        let sessions = self.sessions();
        let _span = self.exec.metrics.kmeans_stage.span();
        let raw: FeatureMatrix = sessions.iter().map(|s| s.features().selected()).collect();
        let z = standardize(&raw);
        let selection = kmeans::select_k(&z, 2..=8, seed);
        let k5 = kmeans::kmeans(&z, 5, seed);
        let pca = Pca::fit(&z);
        let projected = pca.transform(&z, 2);
        let mut cluster_means = vec![vec![0.0; 5]; k5.centroids.len()];
        let sizes = k5.cluster_sizes();
        for (row, &c) in raw.iter().zip(&k5.assignments) {
            for (m, v) in cluster_means[c].iter_mut().zip(row) {
                *m += v / sizes[c].max(1) as f64;
            }
        }
        self.exec
            .metrics
            .kmeans_stage
            .add_items(sessions.len() as u64);
        ClusterReport {
            elbow_k: kmeans::elbow_k(&selection),
            selection,
            k5,
            pca_explained: pca.explained_ratio(2),
            projected,
            cluster_means,
        }
    }

    /// The Markov chain census (Fig. 13).
    pub fn chain_census(&self) -> ChainCensus {
        ChainCensus::build(&self.dataset, &self.exec)
    }

    /// The Table 6 / Fig. 17 outstation taxonomy.
    pub fn classify_outstations(&self) -> BTreeMap<u32, OutstationClass> {
        markov::classify_outstations(&self.chain_census())
    }

    /// Table 7: the ASDU typeID census.
    pub fn type_census(&self) -> TypeCensus {
        TypeCensus::build(&self.dataset, &self.exec)
    }

    /// Table 8: typeID → transmitting stations and inferred physics.
    pub fn table8(&self) -> Vec<dpi::Table8Row> {
        dpi::table8(&self.dataset)
    }

    /// All extracted physical time series.
    pub fn physical_series(&self) -> Vec<dpi::TimeSeries> {
        dpi::series(&self.dataset, &self.exec)
    }

    /// Physical series flagged by the normalised-variance screen.
    pub fn interesting_series(&self, window_s: f64, threshold: f64) -> Vec<dpi::TimeSeries> {
        self.physical_series()
            .into_iter()
            .filter(|s| !dpi::variance_events(s, window_s, threshold).is_empty())
            .collect()
    }
}

/// Run both capture years at the given scale and return their pipelines —
/// the year-over-year comparison setup of the paper.
pub fn run_study(seed: u64, secs_per_paper_hour: f64) -> (Pipeline, Pipeline) {
    let (y1, y2) = uncharted_scadasim::sim::run_both_years(seed, secs_per_paper_hour);
    let builder = Pipeline::builder().exec(ExecPolicy::Sequential);
    (builder.build(&y1), builder.build(&y2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_over_small_capture() {
        let set = Simulation::new(Scenario::small(Year::Y1, 3, 45.0)).run();
        let p = Pipeline::builder().exec(ExecPolicy::Sequential).build(&set);
        assert!(p.flow_stats().total() > 10);
        assert!(p.type_census().total() > 50);
        assert!(!p.sessions().is_empty());
        assert!(!p.chain_census().rows.is_empty());
        assert!(!p.classify_outstations().is_empty());
        // Every stage left a record of itself.
        let snap = p.metrics().snapshot();
        assert!(snap.counter_total("nettap_pcap_records_streamed") > 0);
        assert!(snap.counter_total("analysis_sessions_built") > 0);
        assert!(snap.counter_total("analysis_chains_built") > 0);
        for stage in ["flows", "protocol", "sessions", "markov", "type_census"] {
            assert!(snap.stage(stage).is_some(), "stage {stage} missing");
        }
    }

    #[test]
    fn pcap_round_trip_through_pipeline() {
        let set = Simulation::new(Scenario::small(Year::Y1, 4, 30.0)).run();
        let dir = std::env::temp_dir().join("uncharted_test_pcap");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("y1_small.pcap");
        let mut buf = Vec::new();
        set.captures[0].write_pcap(&mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let builder = Pipeline::builder().exec(ExecPolicy::Sequential);
        let p = builder.build_pcap(&path).unwrap();
        let direct = builder.build_capture(&set.captures[0]);
        assert_eq!(p.dataset.packets.len(), direct.dataset.packets.len());
        assert_eq!(p.type_census().counts, direct.type_census().counts);
        std::fs::remove_file(&path).ok();
    }

    /// Every source shape builds the identical pipeline through the one
    /// `source(..)` entry point.
    #[test]
    fn source_entry_point_matches_build_capture() {
        let set = Simulation::new(Scenario::small(Year::Y1, 4, 30.0)).run();
        let builder = Pipeline::builder().exec(ExecPolicy::Sequential);
        let canonical = builder.build_capture(&set.captures[0]);

        let mut mem = nettap::MemorySource::from_capture(&set.captures[0]);
        let via_memory = builder.source(&mut mem).unwrap();
        assert_eq!(via_memory.dataset.packets, canonical.dataset.packets);
        assert_eq!(via_memory.dataset.timelines, canonical.dataset.timelines);

        // The pcap roundtrip quantises timestamps to microseconds, so the
        // stream source is compared against the re-read capture, not the
        // in-memory one.
        let mut buf = Vec::new();
        set.captures[0].write_pcap(&mut buf).unwrap();
        let reread = Capture::read_pcap(&buf[..]).unwrap();
        let canonical_reread = builder.build_capture(&reread);
        let mut stream = nettap::PcapStreamSource::new(&buf[..]).unwrap();
        let via_stream = builder.source(&mut stream).unwrap();
        assert_eq!(via_stream.dataset.packets, canonical_reread.dataset.packets);
        assert_eq!(
            via_stream.dataset.timelines,
            canonical_reread.dataset.timelines
        );
    }

    /// The whole pipeline — ingestion and every analysis stage — must
    /// produce bit-identical results threaded and sequential.
    #[test]
    fn threaded_pipeline_matches_sequential() {
        let set = Simulation::new(Scenario::small(Year::Y1, 5, 60.0)).run();
        let sequential = Pipeline::builder().exec(ExecPolicy::Sequential).build(&set);
        let threaded = Pipeline::builder().exec(ExecPolicy::Threads(4)).build(&set);
        assert_eq!(threaded.dataset.packets, sequential.dataset.packets);
        assert_eq!(threaded.dataset.dialects, sequential.dataset.dialects);
        assert_eq!(threaded.dataset.compliance, sequential.dataset.compliance);
        assert_eq!(threaded.dataset.timelines, sequential.dataset.timelines);
        assert_eq!(
            threaded.dataset.flows.connections,
            sequential.dataset.flows.connections
        );
        assert_eq!(threaded.flow_stats(), sequential.flow_stats());
        assert_eq!(threaded.sessions(), sequential.sessions());
        assert_eq!(threaded.chain_census().rows, sequential.chain_census().rows);
        assert_eq!(
            threaded.type_census().counts,
            sequential.type_census().counts
        );
        assert_eq!(threaded.physical_series(), sequential.physical_series());
        assert_eq!(
            threaded.classify_outstations(),
            sequential.classify_outstations()
        );
        // The recorded counter totals (timings excluded) match too.
        assert_eq!(
            threaded.metrics().snapshot().counter_fingerprint(),
            sequential.metrics().snapshot().counter_fingerprint()
        );
    }

    #[test]
    fn cluster_report_shapes() {
        let set = Simulation::new(Scenario::small(Year::Y1, 5, 60.0)).run();
        let p = Pipeline::builder().exec(ExecPolicy::Sequential).build(&set);
        let report = p.cluster_sessions(11);
        assert_eq!(report.selection.len(), 7); // k = 2..=8
        assert_eq!(report.k5.centroids.len(), 5);
        assert_eq!(report.projected.len(), p.sessions().len());
        assert!(report.pca_explained > 0.5);
        assert_eq!(report.cluster_means.len(), 5);
    }
}
