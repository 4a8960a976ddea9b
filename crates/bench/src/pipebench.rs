//! The capture→analysis work unit shared by the `pipeline` Criterion bench,
//! the per-layer `layers` bench, the `bench --json` runner, and the CI smoke
//! test: one ingest plus every per-dataset analysis stage, under a single
//! [`ExecContext`], plus one isolated work unit per hot layer.

use uncharted::analysis::dpi::{self, TypeCensus};
use uncharted::analysis::kmeans;
use uncharted::analysis::markov::ChainCensus;
use uncharted::analysis::matrix::FeatureMatrix;
use uncharted::analysis::session;
use uncharted::{Dataset, ExecContext, ExecPolicy, Scenario, Simulation, Year};
use uncharted_iec104::apdu::{Apdu, StreamDecoder, StreamItem};
use uncharted_iec104::asdu::{Asdu, InfoObject, IoValue};
use uncharted_iec104::cot::{Cause, Cot};
use uncharted_iec104::dialect::Dialect;
use uncharted_iec104::elements::Qds;
use uncharted_iec104::types::TypeId;
use uncharted_nettap::flow::FlowTable;
use uncharted_nettap::metrics::NettapMetrics;
use uncharted_nettap::pcap::{Capture, MmapCapture, ParsedPacket};
use uncharted_nettap::source::{self, MemorySource, PcapStreamSource};

/// Time-sorted packets from a seeded small scenario (`scale` seconds per
/// paper hour — keep it tiny for smoke tests, larger for benches).
pub fn scenario_packets(seed: u64, scale: f64) -> Vec<ParsedPacket> {
    let set = Simulation::new(Scenario::small(Year::Y1, seed, scale)).run();
    let mut packets: Vec<ParsedPacket> = set.captures.iter().flat_map(|c| c.parsed()).collect();
    packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    packets
}

/// The same seeded scenario as one merged raw [`Capture`] — the input the
/// ingest-layer bench serializes to a pcap file and reads back through the
/// mmap and streaming sources.
pub fn scenario_capture(seed: u64, scale: f64) -> Capture {
    let set = Simulation::new(Scenario::small(Year::Y1, seed, scale)).run();
    let mut merged = Capture::new();
    for cap in set.captures {
        merged.merge(cap);
    }
    merged
}

/// Ingest layer, raw scan: hop every record of a mapped capture file
/// without decoding, returning `(records, frame bytes)`. This is the
/// zero-copy floor — pure header arithmetic over the mapping.
pub fn ingest_scan_work(path: &std::path::Path) -> (usize, u64) {
    let src = MmapCapture::open(path).expect("bench capture maps");
    let mut records = 0usize;
    let mut bytes = 0u64;
    for (_, frame) in src.records() {
        records += 1;
        bytes += frame.len() as u64;
    }
    (records, bytes)
}

/// Ingest layer, mmap decode: open the capture memory-mapped and drain it
/// to decoded packets; returns the packet count.
pub fn ingest_mmap_work(path: &std::path::Path) -> usize {
    let mut src = MmapCapture::open(path).expect("bench capture maps");
    source::drain(&mut src, 4096).expect("validated capture drains").len()
}

/// Ingest layer, streaming decode: the buffered-`Read` path over the same
/// file; returns the packet count (must equal the mmap drain's).
pub fn ingest_stream_work(path: &std::path::Path) -> usize {
    let mut src = PcapStreamSource::open(path).expect("bench capture opens");
    source::drain(&mut src, 4096).expect("bench capture drains").len()
}

/// Ingest the packets and run every per-dataset analysis stage, returning
/// `(asdus, sessions, chains, series)` counts. Bit-identical under any
/// [`ExecPolicy`].
pub fn ingest_and_analyze(
    packets: Vec<ParsedPacket>,
    policy: ExecPolicy,
) -> (usize, usize, usize, usize) {
    ingest_analyze_fingerprint(packets, policy).0
}

/// [`ingest_and_analyze`], also returning the obs counter fingerprint of the
/// run (timings excluded). The fingerprint is the behavior-preservation
/// witness: it must be byte-identical across policies *and* across
/// representation rewrites of the hot path.
pub fn ingest_analyze_fingerprint(
    packets: Vec<ParsedPacket>,
    policy: ExecPolicy,
) -> ((usize, usize, usize, usize), String) {
    let ctx = ExecContext::new(policy);
    // Through the public `PacketSource` entry, so the bench times (and the
    // smoke test pins) the same ingest path every consumer uses.
    let mut src = MemorySource::new(packets);
    let ds = Dataset::ingest_source(&mut src, &ctx).expect("in-memory source cannot fail");
    let census = TypeCensus::build(&ds, &ctx);
    let sessions = session::extract(&ds, &ctx);
    let chains = ChainCensus::build(&ds, &ctx);
    let series = dpi::series(&ds, &ctx);
    let counts = (
        census.total(),
        sessions.len(),
        chains.rows.len(),
        series.len(),
    );
    (counts, ctx.metrics.snapshot().counter_fingerprint())
}

/// Everything the pipeline work unit builds, kept alive so a timing harness
/// can drop it *outside* the timed region. At full bench scale the teardown
/// is tens of thousands of payload frees — several milliseconds of
/// allocator work that is byte-identical across policies (the parity
/// guarantee) and therefore pure common-mode padding that only compresses
/// sweep ratios toward 1.
pub struct PipelineArtifacts {
    /// The ingested dataset (owns the packets and flow table).
    pub dataset: Dataset,
    /// ASDU typeID census.
    pub census: TypeCensus,
    /// Extracted polling sessions.
    pub sessions: Vec<session::Session>,
    /// Token chain census.
    pub chains: ChainCensus,
    /// Extracted measurement time series.
    pub series: Vec<dpi::TimeSeries>,
}

/// The timed construction half of [`ingest_analyze_fingerprint`]: ingest and
/// run every per-dataset stage, returning the artifacts instead of dropping
/// them. The caller owns the (untimed) teardown.
pub fn ingest_and_analyze_keep(
    packets: Vec<ParsedPacket>,
    policy: ExecPolicy,
) -> PipelineArtifacts {
    let ctx = ExecContext::new(policy);
    let mut src = MemorySource::new(packets);
    let dataset = Dataset::ingest_source(&mut src, &ctx).expect("in-memory source cannot fail");
    let census = TypeCensus::build(&dataset, &ctx);
    let sessions = session::extract(&dataset, &ctx);
    let chains = ChainCensus::build(&dataset, &ctx);
    let series = dpi::series(&dataset, &ctx);
    PipelineArtifacts {
        dataset,
        census,
        sessions,
        chains,
        series,
    }
}

/// A contiguous IEC 104 byte stream of `frames` I-format float measurements
/// under `dialect` — the parse-layer work input.
pub fn parse_stream(dialect: Dialect, frames: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for i in 0..frames {
        let asdu = Asdu::new(TypeId::M_ME_NC_1, Cot::new(Cause::Spontaneous), 7).with_object(
            InfoObject::new(
                4000 + (i as u32 % 24),
                IoValue::FloatMeasurement {
                    value: 130.0 + (i % 512) as f32 * 0.01,
                    qds: Qds::GOOD,
                },
            ),
        );
        out.extend(
            Apdu::i_frame((i % 32768) as u16, 0, asdu)
                .encode(dialect)
                .unwrap(),
        );
    }
    out
}

/// Parse layer: feed `stream` through a [`StreamDecoder`] in `chunk`-byte
/// segments (mimicking TCP segmentation) and return the APDU count.
pub fn parse_work(stream: &[u8], chunk: usize) -> usize {
    let mut decoder = StreamDecoder::new(Dialect::STANDARD);
    let mut apdus = 0usize;
    for seg in stream.chunks(chunk.max(1)) {
        for item in decoder.feed(seg) {
            if matches!(item, StreamItem::Apdu(_)) {
                apdus += 1;
            }
        }
    }
    apdus
}

/// Flow layer: sequential TCP reassembly over `packets`, returning
/// `(connections, segments delivered)`.
pub fn flows_work(packets: &[ParsedPacket]) -> (usize, usize) {
    let table = FlowTable::reconstruct(packets, NettapMetrics::sink());
    let segments = table
        .connections
        .iter()
        .map(|c| c.ab.segments_delivered + c.ba.segments_delivered)
        .sum();
    (table.len(), segments)
}

/// The standardized session feature rows for the clustering layer.
pub fn kmeans_input(packets: Vec<ParsedPacket>) -> FeatureMatrix {
    let ctx = ExecContext::new(ExecPolicy::Sequential);
    let ds = Dataset::ingest(packets, &ctx);
    let sessions = session::extract(&ds, &ctx);
    let raw: FeatureMatrix = sessions.iter().map(|s| s.features().selected()).collect();
    session::standardize(&raw)
}

/// Clustering layer: one K = 5 run over standardized features; returns the
/// Lloyd iteration count.
pub fn kmeans_work(input: &FeatureMatrix, seed: u64) -> usize {
    kmeans::kmeans(input, 5, seed).iterations
}

/// Markov layer: the chain census over an ingested dataset; returns rows.
pub fn markov_work(ds: &Dataset) -> usize {
    ChainCensus::build(ds, &ExecContext::sequential())
        .rows
        .len()
}
