#![warn(missing_docs)]
//! # uncharted-analysis
//!
//! The measurement pipeline of *Uncharted Networks* (IMC 2020): everything
//! the paper computes over its SCADA captures, implemented over
//! `uncharted-nettap` captures and the `uncharted-iec104` parsers.
//!
//! * [`dataset`] — capture ingestion: flow reconstruction, per-outstation
//!   dialect detection, the per-device-pair APDU timeline, and the §6.1
//!   compliance census (strict vs tolerant parsing).
//! * [`flowstats`] — TCP flow lifetimes: Table 3, Fig. 8, the Fig. 9
//!   reject-storm census.
//! * [`session`] — unidirectional sessions and their statistical features
//!   (the 10 candidates, the 5 selected).
//! * [`matrix`] — the row-major contiguous [`FeatureMatrix`] the clustering
//!   and projection layers operate on.
//! * [`kmeans`] — K-means++ with elbow/silhouette/explained-variance model
//!   selection (Figs. 10–11).
//! * [`pca`] — principal component analysis for 2-D projection (Fig. 10).
//! * [`markov`] — n-gram/Markov chains over APDU tokens, the chain-size
//!   census (Fig. 13), and the Table 6 / Fig. 17 outstation taxonomy.
//! * [`dpi`] — deep packet inspection of physical values: the typeID census
//!   (Table 7), semantic inference (Table 8), time-series extraction,
//!   normalised-variance event detection (Figs. 18–19) and the
//!   generator-online signature state machine (Figs. 20–21).
//! * [`ids`] — the paper's future-work extension: a cyber + physical
//!   whitelist IDS (learned Markov transitions, command alphabets, value
//!   envelopes, physics consistency) that flags Industroyer-style activity.
//! * [`exec`] — the unified execution API: every driver takes an
//!   [`ExecContext`] (an [`ExecPolicy`] plus a [`PipelineMetrics`] sink)
//!   instead of the old forked `X` / `X_threaded` entry-point pairs.
//! * [`report`] — plain-text table rendering shared by the bench harness.
//! * [`stream`] — the incremental streaming engine: batch-by-batch
//!   ingestion with idle-timeout eviction, online session statistics,
//!   incremental Markov chains, and windowed IDS/clustering verdicts as a
//!   typed event stream; with no idle timeout it reproduces the batch
//!   pipeline bit for bit.

pub mod dataset;
pub mod dpi;
pub mod exec;
pub mod flowstats;
pub mod ids;
pub mod kmeans;
pub mod markov;
pub mod matrix;
pub mod pca;
pub mod report;
pub mod session;
pub mod stream;

pub use dataset::{ApduEvent, Dataset, PairTimeline};
pub use dpi::{PhysicalKind, SignatureMachine, TypeCensus};
pub use exec::{ExecContext, ExecPolicy, PipelineMetrics};
pub use flowstats::FlowStats;
pub use ids::{Alert, AlertKind, Severity, Whitelist};
pub use kmeans::{KMeansResult, ModelSelection};
pub use markov::{ChainCensus, ChainInfo, OutstationClass, TokenChain};
pub use matrix::FeatureMatrix;
pub use pca::Pca;
pub use session::{Session, SessionFeatures};
pub use stream::{StreamConfig, StreamEvent, StreamSession, StreamSummary};
