//! Capture-layer metrics: what the flow reconstructor and pcap reader saw.

use std::sync::{Arc, OnceLock};

use uncharted_obs::{Counter, Gauge, Histogram, MetricsRegistry, Stage};

/// Inclusive bucket bounds for TCP segment payload sizes. IEC 104 APDUs are
/// 6–255 octets, so the low buckets resolve the protocol's working range
/// and the tail catches bulk transfers.
const PAYLOAD_BOUNDS: &[u64] = &[16, 64, 256, 1024, 4096];

/// Handles for every metric the `nettap` crate emits, registered against
/// one [`MetricsRegistry`]. Incrementing a handle is a relaxed atomic add;
/// the struct is cheap to clone (it is all `Arc`s) and safe to share with
/// scoped worker threads.
#[derive(Debug, Clone)]
pub struct NettapMetrics {
    /// In-order payload segments delivered by reassembly.
    pub segments_reassembled: Arc<Counter>,
    /// Segments whose already-delivered prefix was trimmed (full duplicates
    /// and partial overlaps — the paper's retransmission signal).
    pub overlaps_trimmed: Arc<Counter>,
    /// Times a reassembly cursor wrapped past 2^32.
    pub seq_wraparounds: Arc<Counter>,
    /// Out-of-order segments still waiting behind a sequence hole in the
    /// live flow records: after a batch reconstruction, the segments left
    /// stranded (a long-lived flow resumed in a later capture window queues
    /// behind a hole that never fills). A gauge, so it stays out of the
    /// counter fingerprint.
    pub segments_pending: Arc<Gauge>,
    /// Pcap records fed into the pipeline (streamed or in-memory).
    pub pcap_records_streamed: Arc<Counter>,
    /// Distribution of non-empty TCP payload sizes entering reassembly.
    pub segment_payload_octets: Arc<Histogram>,
    /// Wall time and item count for flow reconstruction (items = number of
    /// reconstructed connections; shard entries = per-worker time).
    pub flows_stage: Arc<Stage>,
}

impl NettapMetrics {
    /// Register (or re-acquire) this crate's metrics on `registry`.
    pub fn register(registry: &MetricsRegistry) -> NettapMetrics {
        NettapMetrics {
            segments_reassembled: registry.counter("nettap_segments_reassembled"),
            overlaps_trimmed: registry.counter("nettap_overlaps_trimmed"),
            seq_wraparounds: registry.counter("nettap_seq_wraparounds"),
            segments_pending: registry.gauge("nettap_segments_pending"),
            pcap_records_streamed: registry.counter("nettap_pcap_records_streamed"),
            segment_payload_octets: registry
                .histogram("nettap_segment_payload_octets", PAYLOAD_BOUNDS),
            flows_stage: registry.stage("flows"),
        }
    }

    /// A process-wide discard instance for callers that do not collect
    /// metrics (one-off tests, throwaway runs). Counts accumulate but are
    /// never rendered.
    pub fn sink() -> &'static NettapMetrics {
        static SINK: OnceLock<NettapMetrics> = OnceLock::new();
        SINK.get_or_init(|| NettapMetrics::register(&MetricsRegistry::new()))
    }
}
