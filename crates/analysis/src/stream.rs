//! Incremental streaming analysis with bounded memory.
//!
//! The batch pipeline ([`Dataset::ingest`](crate::dataset::Dataset::ingest))
//! holds the whole capture — every packet and every flow record — until the
//! stage drivers run.
//! This module consumes packets batch by batch instead, keeping only *live*
//! state: a flow table with idle-timeout eviction, online per-session
//! statistics (running count/first/last/bytes plus a Welford inter-arrival
//! variance instead of a buffered `times: Vec<f64>`), incrementally grown
//! Markov token chains ([`TokenChain::push`]), and windowed IDS/clustering
//! verdicts emitted as a typed [`StreamEvent`] stream.
//!
//! # Batch parity
//!
//! The engine's correctness gate: a streaming replay with **no idle
//! timeout** reproduces the batch pipeline bit for bit — the same dialects,
//! the same compliance census, the same session feature vectors, the same
//! chain census rows, and the same metrics counter fingerprint — at any
//! batch size and under any window setting. The parity suite in
//! `tests/stream_parity.rs` enforces this property over adversarial
//! generated captures, like `tests/executor_parity.rs` does for the
//! sequential and threaded batch schedules.
//!
//! The one structural obstacle is dialect detection, which batch mode runs
//! over a *whole-capture* frame sample before decoding anything. The
//! streaming engine buffers an outstation's port-2404 segments until its
//! dialect is final — either early, once the outstation has supplied the
//! full 64-frame sample cap (from then on the batch sample can no longer
//! change), or at finalize/eviction — and then replays the buffer through
//! the exact batch decode logic before switching to incremental updates.
//! All decode state (frame samples, stream decoders, the retransmission
//! dedup map, compliance counters, pair chains) is affine to a single
//! outstation, which is what makes the per-outstation replay equivalent to
//! the batch interleaving: no outstation's result depends on when another
//! outstation's packets are decoded.
//!
//! Known caveat (shared with batch mode's sample cap): an active flow that
//! sends only junk on port 2404 never reaches the 64-frame sample, so its
//! pending buffer keeps growing until eviction or finalize — no worse than
//! batch mode, which buffers the entire capture.
//!
//! Streaming-specific metrics are gauges and *volatile* counters only, so
//! they never perturb the deterministic counter fingerprint.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use uncharted_iec104::apdu::{StreamDecoder, StreamItemRef};
use uncharted_iec104::asdu::Asdu;
use uncharted_iec104::dialect::Dialect;
use uncharted_iec104::metrics::Iec104Metrics;
use uncharted_iec104::parser::detect_dialect;
use uncharted_iec104::tokens::Token;
use uncharted_nettap::flow::{FlowKey, FlowTable};
use uncharted_nettap::pcap::ParsedPacket;
use uncharted_obs::{Counter, FnvHashMap, Gauge};

use crate::dataset::{is_i_frame, ComplianceEntry, FrameSample, IEC104_PORT};
use crate::exec::PipelineMetrics;
use crate::kmeans;
use crate::markov::{ChainInfo, TokenChain};
use crate::matrix::FeatureMatrix;
use crate::report::ip;
use crate::session::{standardize, SessionFeatures};

/// Alerts recorded per window before the engine stops appending (a storm of
/// novelties should not grow an unbounded alert list inside one window).
const MAX_WINDOW_ALERTS: usize = 32;

/// How a [`StreamSession`] runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamConfig {
    /// Width of the analysis window in seconds, anchored at the first
    /// packet. `None` (or a non-positive width) disables windowing.
    pub window: Option<f64>,
    /// Evict flows and outstations idle for this many seconds, finalizing
    /// their analysis units and freeing their buffers. `None` keeps
    /// everything live — the batch-parity mode.
    pub idle_timeout: Option<f64>,
}

/// One IDS verdict inside a window: activity a pair's own learned chain has
/// never produced before.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamAlert {
    /// The server side of the pair.
    pub server_ip: u32,
    /// The outstation side of the pair.
    pub outstation_ip: u32,
    /// What was novel.
    pub kind: StreamAlertKind,
}

/// The kinds of windowed IDS verdicts.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamAlertKind {
    /// A token this pair has never sent.
    NovelToken {
        /// The unseen token.
        token: Token,
    },
    /// A bigram transition this pair's chain has never taken.
    NovelTransition {
        /// The predecessor token.
        from: Token,
        /// The novel successor.
        to: Token,
    },
}

/// A clustering verdict computed at window close over the live sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowClustering {
    /// Live session rows clustered.
    pub rows: usize,
    /// The silhouette-selected k.
    pub k: usize,
    /// Its silhouette score.
    pub silhouette: f64,
}

/// One finalized unidirectional session: the online-accumulated feature
/// vector, without the buffered per-packet timestamp history batch mode
/// carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionRecord {
    /// Sender IP.
    pub src_ip: u32,
    /// Receiver IP.
    pub dst_ip: u32,
    /// True when the sender is a control server.
    pub from_server: bool,
    /// The ten candidate features, bit-identical to the batch
    /// [`Session::features`](crate::session::Session::features).
    pub features: SessionFeatures,
    /// Sample variance of the packet inter-arrival times (Welford), an
    /// online extra the batch path never computes.
    pub ia_variance: f64,
}

/// A typed event emitted by the streaming engine.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// An outstation's dialect became final (sample cap reached, or
    /// finalize/eviction forced detection).
    DialectDetected {
        /// The outstation.
        outstation_ip: u32,
        /// The detected dialect.
        dialect: Dialect,
    },
    /// An idle flow was evicted from the flow table and its record
    /// finalized.
    FlowEvicted {
        /// Canonical endpoint pair of the evicted connection.
        key: FlowKey,
        /// Packets the connection carried.
        packets: usize,
        /// Seconds between its first and last packet.
        duration: f64,
        /// Reassembly bookkeeping freed by dropping the record: 8 bytes
        /// per segment it still held pending behind a sequence hole.
        freed_bytes: usize,
    },
    /// A session was finalized (outstation eviction or stream finish).
    SessionFinalized {
        /// The finalized session.
        record: SessionRecord,
    },
    /// A pair's Markov chain was finalized (outstation eviction or stream
    /// finish).
    ChainFinalized {
        /// The census row.
        info: ChainInfo,
    },
    /// An analysis window closed.
    WindowClosed {
        /// Zero-based window index since the stream anchor.
        index: u64,
        /// Window start time (inclusive).
        start: f64,
        /// Window end time (exclusive).
        end: f64,
        /// Packets that fell in the window.
        packets: usize,
        /// APDUs decoded in the window.
        apdus: usize,
        /// IDS verdicts raised in the window (after the first window has
        /// established a baseline; capped at 32 per window).
        alerts: Vec<StreamAlert>,
        /// Clustering over the live sessions, when there were enough rows.
        clustering: Option<WindowClustering>,
    },
}

fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl StreamAlert {
    fn to_json(&self) -> String {
        let kind = match &self.kind {
            StreamAlertKind::NovelToken { token } => {
                format!("\"kind\":\"novel_token\",\"token\":\"{token}\"")
            }
            StreamAlertKind::NovelTransition { from, to } => {
                format!("\"kind\":\"novel_transition\",\"from\":\"{from}\",\"to\":\"{to}\"")
            }
        };
        format!(
            "{{\"server\":\"{}\",\"outstation\":\"{}\",{kind}}}",
            ip(self.server_ip),
            ip(self.outstation_ip)
        )
    }
}

impl SessionRecord {
    fn to_json(self) -> String {
        let f = &self.features;
        format!(
            "{{\"src\":\"{}\",\"dst\":\"{}\",\"from_server\":{},\
             \"packets\":{},\"bytes\":{},\"duration\":{},\"mean_interarrival\":{},\
             \"ia_variance\":{},\"frac_i\":{},\"frac_s\":{},\"frac_u\":{},\
             \"mean_frame\":{},\"ioa_count\":{}}}",
            ip(self.src_ip),
            ip(self.dst_ip),
            self.from_server,
            jnum(f.packets),
            jnum(f.bytes),
            jnum(f.duration),
            jnum(f.mean_interarrival),
            jnum(self.ia_variance),
            jnum(f.frac_i),
            jnum(f.frac_s),
            jnum(f.frac_u),
            jnum(f.mean_frame),
            jnum(f.ioa_count),
        )
    }
}

impl StreamEvent {
    /// Render the event as one JSON object (the `--follow` line format).
    /// Hand-rolled: every value is numeric, boolean, or a controlled label,
    /// so no escaping is needed.
    pub fn to_json(&self) -> String {
        match self {
            StreamEvent::DialectDetected {
                outstation_ip,
                dialect,
            } => format!(
                "{{\"event\":\"dialect_detected\",\"outstation\":\"{}\",\"dialect\":\"{}\"}}",
                ip(*outstation_ip),
                dialect.label()
            ),
            StreamEvent::FlowEvicted {
                key,
                packets,
                duration,
                freed_bytes,
            } => format!(
                "{{\"event\":\"flow_evicted\",\"a\":\"{}:{}\",\"b\":\"{}:{}\",\
                 \"packets\":{packets},\"duration\":{},\"freed_bytes\":{freed_bytes}}}",
                ip(key.a.ip),
                key.a.port,
                ip(key.b.ip),
                key.b.port,
                jnum(*duration)
            ),
            StreamEvent::SessionFinalized { record } => format!(
                "{{\"event\":\"session_finalized\",\"session\":{}}}",
                record.to_json()
            ),
            StreamEvent::ChainFinalized { info } => format!(
                "{{\"event\":\"chain_finalized\",\"server\":\"{}\",\"outstation\":\"{}\",\
                 \"nodes\":{},\"edges\":{},\"has_i100\":{},\"switchover\":{}}}",
                ip(info.server_ip),
                ip(info.outstation_ip),
                info.nodes,
                info.edges,
                info.has_i100,
                info.switchover
            ),
            StreamEvent::WindowClosed {
                index,
                start,
                end,
                packets,
                apdus,
                alerts,
                clustering,
            } => {
                let alerts: Vec<String> = alerts.iter().map(StreamAlert::to_json).collect();
                let clustering = match clustering {
                    Some(c) => format!(
                        "{{\"rows\":{},\"k\":{},\"silhouette\":{}}}",
                        c.rows,
                        c.k,
                        jnum(c.silhouette)
                    ),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"event\":\"window_closed\",\"index\":{index},\"start\":{},\"end\":{},\
                     \"packets\":{packets},\"apdus\":{apdus},\"alerts\":[{}],\"clustering\":{clustering}}}",
                    jnum(*start),
                    jnum(*end),
                    alerts.join(",")
                )
            }
        }
    }
}

/// Everything a finished stream knows, mirroring the batch views the
/// parity suite compares against.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Packets consumed.
    pub packets: u64,
    /// Detected dialect per outstation (evicted and live merged).
    pub dialects: BTreeMap<u32, Dialect>,
    /// Compliance census per outstation (evicted and live merged).
    pub compliance: BTreeMap<u32, ComplianceEntry>,
    /// Finalized sessions: eviction-time records first (in eviction order),
    /// then the finish-time records in the batch claim order.
    pub sessions: Vec<SessionRecord>,
    /// Finalized chain census rows, in the same order as `sessions`.
    pub chains: Vec<ChainInfo>,
    /// Flow records still live at finish.
    pub live_flows: usize,
    /// Flow records evicted along the way.
    pub evicted_flows: usize,
    /// Windows closed (including the trailing partial window).
    pub windows_closed: u64,
}

impl StreamSummary {
    /// Render the summary as one JSON object (the `--follow` final line).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"event\":\"summary\",\"packets\":{},\"outstations\":{},\"sessions\":{},\
             \"chains\":{},\"live_flows\":{},\"evicted_flows\":{},\"windows_closed\":{}}}",
            self.packets,
            self.dialects.len(),
            self.sessions.len(),
            self.chains.len(),
            self.live_flows,
            self.evicted_flows,
            self.windows_closed
        )
    }
}

/// Streaming-only metrics: gauges for live state and volatile counters for
/// progress, both excluded from the deterministic counter fingerprint by
/// construction.
#[derive(Debug)]
struct StreamMetrics {
    active_flows: Arc<Gauge>,
    active_outstations: Arc<Gauge>,
    resident_buffer_bytes: Arc<Gauge>,
    flows_evicted: Arc<Counter>,
    outstations_evicted: Arc<Counter>,
    windows_closed: Arc<Counter>,
    events_emitted: Arc<Counter>,
}

impl StreamMetrics {
    fn register(metrics: &PipelineMetrics) -> StreamMetrics {
        let r = metrics.registry();
        StreamMetrics {
            active_flows: r.gauge("stream_active_flows"),
            active_outstations: r.gauge("stream_active_outstations"),
            resident_buffer_bytes: r.gauge("stream_resident_buffer_bytes"),
            flows_evicted: r.volatile_counter("stream_flows_evicted"),
            outstations_evicted: r.volatile_counter("stream_outstations_evicted"),
            windows_closed: r.volatile_counter("stream_windows_closed"),
            events_emitted: r.volatile_counter("stream_events_emitted"),
        }
    }
}

/// Online per-(src, dst) packet statistics: the streaming replacement for
/// the batch `PacketStats` timestamp vectors. `first`/`last` follow arrival
/// order, exactly like the batch `times.first()`/`times.last()`.
#[derive(Debug, Clone, Copy, Default)]
struct OnlineStats {
    count: usize,
    bytes: usize,
    first: f64,
    last: f64,
    /// Welford running mean / M2 over consecutive inter-arrival deltas.
    ia_mean: f64,
    ia_m2: f64,
}

impl OnlineStats {
    fn push(&mut self, t: f64, payload_len: usize) {
        if self.count == 0 {
            self.first = t;
        } else {
            let d = t - self.last;
            let n = self.count as f64; // number of deltas including this one
            let delta = d - self.ia_mean;
            self.ia_mean += delta / n;
            self.ia_m2 += delta * (d - self.ia_mean);
        }
        self.last = t;
        self.count += 1;
        self.bytes += payload_len + 54;
    }

    fn ia_variance(&self) -> f64 {
        if self.count >= 3 {
            self.ia_m2 / (self.count - 2) as f64
        } else {
            0.0
        }
    }
}

/// One direction's incremental token/IOA accounting for a pair.
#[derive(Debug, Default)]
struct DirState {
    n_tok: usize,
    i_tok: usize,
    s_tok: usize,
    ioas: BTreeSet<u32>,
}

/// Incremental per-(server, outstation) analysis state: the streaming
/// replacement for a buffered `PairTimeline`.
#[derive(Debug)]
struct PairState {
    server_ip: u32,
    outstation_ip: u32,
    chain: TokenChain,
    events: usize,
    prev_token: Option<Token>,
    has_i: bool,
    answers_testfr: bool,
    has_u16: bool,
    u16_count: usize,
    // The incremental mirror of `markov::detect_switchover`.
    switchover: bool,
    secondary_phase: bool,
    last_server_u16: bool,
    /// `[server side, outstation side]` direction accounting.
    dirs: [DirState; 2],
}

impl PairState {
    fn new(server_ip: u32, outstation_ip: u32) -> PairState {
        PairState {
            server_ip,
            outstation_ip,
            chain: TokenChain::default(),
            events: 0,
            prev_token: None,
            has_i: false,
            answers_testfr: false,
            has_u16: false,
            u16_count: 0,
            switchover: false,
            secondary_phase: false,
            last_server_u16: false,
            dirs: [DirState::default(), DirState::default()],
        }
    }

    fn chain_info(&self) -> ChainInfo {
        ChainInfo {
            server_ip: self.server_ip,
            outstation_ip: self.outstation_ip,
            nodes: self.chain.node_count(),
            edges: self.chain.edge_count(),
            has_i100: self.chain.has_interrogation(),
            has_i: self.has_i,
            switchover: self.switchover,
            answers_testfr: self.answers_testfr,
            has_u16: self.has_u16,
            u16_count: self.u16_count,
        }
    }

    /// The batch `Session::features` computation over the online state.
    fn features(&self, from_server: bool, stats: &OnlineStats) -> SessionFeatures {
        let dir = &self.dirs[usize::from(!from_server)];
        let n_tok = dir.n_tok.max(1) as f64;
        let duration = if stats.count > 0 {
            stats.last - stats.first
        } else {
            0.0
        };
        let mean_ia = if stats.count >= 2 {
            duration / (stats.count - 1) as f64
        } else {
            duration
        };
        SessionFeatures {
            mean_interarrival: mean_ia,
            packets: stats.count as f64,
            frac_i: dir.i_tok as f64 / n_tok,
            frac_s: dir.s_tok as f64 / n_tok,
            frac_u: (dir.n_tok - dir.i_tok - dir.s_tok) as f64 / n_tok,
            from_server: from_server as u8 as f64,
            bytes: stats.bytes as f64,
            duration,
            mean_frame: stats.bytes as f64 / stats.count.max(1) as f64,
            ioa_count: dir.ioas.len() as f64,
        }
    }
}

/// One buffered pass-2 segment awaiting its outstation's dialect.
#[derive(Debug)]
struct BufferedSeg {
    t: f64,
    server_ip: u32,
    from_server: bool,
    flow_key: (u32, u16, u32, u16),
    seq: u32,
    payload: std::ops::Range<usize>,
}

/// The decode state an outstation gains once its dialect is final.
#[derive(Debug)]
struct Resolved {
    dialect: Dialect,
    compliance: ComplianceEntry,
    /// Tolerant stream decoders keyed `(server_ip, from_server)`.
    decoders: FnvHashMap<(u32, bool), StreamDecoder>,
    /// Strict compliance decoders, same keying (only the outstation
    /// direction ever populates them).
    strict_decoders: FnvHashMap<(u32, bool), StreamDecoder>,
    /// Retransmission dedup: 4-tuple → last TCP sequence number. Affine to
    /// this outstation because the direction rule is deterministic on the
    /// ports, so a 4-tuple always maps to the same outstation.
    last_seq: FnvHashMap<(u32, u16, u32, u16), u32>,
}

/// Per-outstation streaming state.
#[derive(Debug)]
struct OutstationState {
    ip: u32,
    last_seen: f64,
    /// The outstation-sent frame sample (batch pass-1 loop A), capped at 64
    /// frames with the same per-packet check batch mode uses.
    out_sample: FrameSample,
    /// Server-sent payloads buffered for the pass-1 loop-B fallback; stored
    /// per packet because the batch `< 8` check runs per packet. Storage
    /// stops once the stored payloads alone hold ≥ 8 frames — later groups
    /// can never be appended regardless of the outstation-sample size.
    srv_payloads: Vec<Vec<u8>>,
    srv_frames: usize,
    /// Pass-2 segments buffered until the dialect is final.
    pending: Vec<BufferedSeg>,
    pending_arena: Vec<u8>,
    resolved: Option<Resolved>,
}

impl OutstationState {
    fn new(ip: u32, t: f64) -> OutstationState {
        OutstationState {
            ip,
            last_seen: t,
            out_sample: FrameSample::default(),
            srv_payloads: Vec::new(),
            srv_frames: 0,
            pending: Vec::new(),
            pending_arena: Vec::new(),
            resolved: None,
        }
    }

    fn buffered_bytes(&self) -> usize {
        self.out_sample.buffered_bytes()
            + self.srv_payloads.iter().map(Vec::len).sum::<usize>()
            + self.pending_arena.len()
    }
}

/// Count the delimited IEC 104 frames a payload yields (the `delimit_from`
/// walk without storing anything).
fn count_frames(payload: &[u8]) -> usize {
    let mut off = 0;
    let mut n = 0;
    while off + 2 <= payload.len() {
        if payload[off] != 0x68 {
            break;
        }
        let total = 2 + payload[off + 1] as usize;
        if off + total > payload.len() {
            break;
        }
        n += 1;
        off += total;
    }
    n
}

/// The current analysis window.
#[derive(Debug)]
struct WindowState {
    width: f64,
    index: u64,
    start: f64,
    end: f64,
    packets: usize,
    apdus: usize,
    alerts: Vec<StreamAlert>,
    /// True once at least one window has closed: the IDS needs a baseline
    /// window before novelty is meaningful.
    baseline_ready: bool,
}

/// The incremental streaming analysis engine.
///
/// Feed time-ordered packets with [`StreamSession::push_batch`] (collecting
/// the emitted [`StreamEvent`]s), then call [`StreamSession::finish`] for
/// the [`StreamSummary`] and the finalization events. See the module docs
/// for the batch-parity contract.
#[derive(Debug)]
pub struct StreamSession {
    cfg: StreamConfig,
    metrics: Arc<PipelineMetrics>,
    sm: StreamMetrics,
    flows: FlowTable,
    packet_stats: FnvHashMap<(u32, u32), OnlineStats>,
    outs: BTreeMap<u32, OutstationState>,
    pairs: BTreeMap<(u32, u32), PairState>,
    window_state: Option<WindowState>,
    packets: u64,
    last_t: Option<f64>,
    evicted_flows: usize,
    evicted_delivered: usize,
    evicted_overlaps: usize,
    evicted_wraps: usize,
    windows_closed: u64,
    /// Views archived at outstation eviction time, merged into the summary.
    archived_dialects: BTreeMap<u32, Dialect>,
    archived_compliance: BTreeMap<u32, ComplianceEntry>,
    archived_sessions: Vec<SessionRecord>,
    archived_chains: Vec<ChainInfo>,
}

/// Builder for [`StreamSession`], mirroring `PipelineBuilder`: name each
/// knob instead of growing a positional argument list at every call site.
///
/// ```
/// use uncharted_analysis::stream::StreamSession;
/// let session = StreamSession::builder()
///     .window(Some(30.0))
///     .idle_timeout(Some(60.0))
///     .build();
/// ```
#[derive(Debug, Default)]
pub struct SessionBuilder {
    cfg: StreamConfig,
    metrics: Option<Arc<PipelineMetrics>>,
}

impl SessionBuilder {
    /// Tumbling analysis window in seconds; `None` (the default)
    /// disables windowing.
    pub fn window(mut self, window: Option<f64>) -> SessionBuilder {
        self.cfg.window = window;
        self
    }

    /// Evict flows and outstations idle this many seconds; `None` (the
    /// default) keeps everything live — the batch-parity mode.
    pub fn idle_timeout(mut self, idle_timeout: Option<f64>) -> SessionBuilder {
        self.cfg.idle_timeout = idle_timeout;
        self
    }

    /// Does nothing. Flow reassembly holds no payload bytes and no
    /// per-packet history, so there is nothing to trim between batches:
    /// resident memory is bounded by the live flow set and the segments
    /// pending behind sequence holes whatever this says. Kept so existing
    /// callers still build.
    pub fn retain_payload(self, _retain: bool) -> SessionBuilder {
        self
    }

    /// Record into an existing [`PipelineMetrics`] set instead of a fresh
    /// private one.
    pub fn metrics(mut self, metrics: Arc<PipelineMetrics>) -> SessionBuilder {
        self.metrics = Some(metrics);
        self
    }

    /// Open the session.
    pub fn build(self) -> StreamSession {
        let metrics = self.metrics.unwrap_or_else(PipelineMetrics::new);
        StreamSession::new(self.cfg, metrics)
    }
}

impl StreamSession {
    /// A [`SessionBuilder`] with the default configuration (no window, no
    /// idle eviction, private metrics).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Open a streaming session recording into `metrics` (the same
    /// [`PipelineMetrics`] set the batch pipeline uses; streaming-only
    /// gauges and volatile counters are registered on its registry).
    /// [`StreamSession::builder`] is the ergonomic front end.
    pub fn new(cfg: StreamConfig, metrics: Arc<PipelineMetrics>) -> StreamSession {
        let sm = StreamMetrics::register(&metrics);
        StreamSession {
            cfg,
            metrics,
            sm,
            flows: FlowTable::default(),
            packet_stats: FnvHashMap::default(),
            outs: BTreeMap::new(),
            pairs: BTreeMap::new(),
            window_state: None,
            packets: 0,
            last_t: None,
            evicted_flows: 0,
            evicted_delivered: 0,
            evicted_overlaps: 0,
            evicted_wraps: 0,
            windows_closed: 0,
            archived_dialects: BTreeMap::new(),
            archived_compliance: BTreeMap::new(),
            archived_sessions: Vec::new(),
            archived_chains: Vec::new(),
        }
    }

    /// Flow records currently live.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Bytes resident in reassembly bookkeeping (8 per segment pending
    /// behind a sequence hole) and dialect-detection buffers — the
    /// quantity the boundedness tests watch and the
    /// `stream_resident_buffer_bytes` gauge reports.
    pub fn resident_buffer_bytes(&self) -> usize {
        self.flows.buffered_bytes()
            + self
                .outs
                .values()
                .map(OutstationState::buffered_bytes)
                .sum::<usize>()
    }

    /// Consume one batch of time-ordered packets, returning the events it
    /// produced (dialect detections, window closes, and — with an idle
    /// timeout — evictions and their finalized units).
    pub fn push_batch(&mut self, batch: &[ParsedPacket]) -> Vec<StreamEvent> {
        let mut events = Vec::new();
        let m = Arc::clone(&self.metrics);
        let _span = m.protocol_stage.span();
        m.nettap.pcap_records_streamed.add(batch.len() as u64);
        m.protocol_stage.add_items(batch.len() as u64);
        for pkt in batch {
            self.packets += 1;
            let t = pkt.timestamp;
            if t.is_finite() {
                self.last_t = Some(t);
            }
            self.roll_windows(t, &mut events);
            if let Some(w) = &mut self.window_state {
                w.packets += 1;
            }
            if !pkt.payload.is_empty() {
                m.nettap
                    .segment_payload_octets
                    .observe(pkt.payload.len() as u64);
            }
            self.flows.push(pkt);
            let on_104 = pkt.tcp.src_port == IEC104_PORT || pkt.tcp.dst_port == IEC104_PORT;
            if on_104 {
                self.packet_stats
                    .entry((pkt.ip.src, pkt.ip.dst))
                    .or_default()
                    .push(t, pkt.payload.len());
            }
            if pkt.payload.is_empty() || !on_104 {
                continue;
            }
            // Pass-1 sample maintenance, batch loop A (outstation frames)
            // and loop B (server-frame fallback) folded into the arrival
            // order; the loop-B `< 8` check against the *combined* sample
            // is deferred to resolution time, which replays it exactly.
            if pkt.tcp.src_port == IEC104_PORT {
                let st = self
                    .outs
                    .entry(pkt.ip.src)
                    .or_insert_with(|| OutstationState::new(pkt.ip.src, t));
                st.last_seen = t;
                if st.resolved.is_none() && st.out_sample.len() < 64 {
                    st.out_sample.delimit_from(&pkt.payload);
                }
            }
            if pkt.tcp.dst_port == IEC104_PORT {
                let st = self
                    .outs
                    .entry(pkt.ip.dst)
                    .or_insert_with(|| OutstationState::new(pkt.ip.dst, t));
                st.last_seen = t;
                if st.resolved.is_none() && st.srv_frames < 8 {
                    st.srv_frames += count_frames(&pkt.payload);
                    st.srv_payloads.push(pkt.payload.clone());
                }
            }
            // Pass 2: the batch direction rule (`dst == 2404` wins).
            let (server_ip, out_ip, from_server) = if pkt.tcp.dst_port == IEC104_PORT {
                (pkt.ip.src, pkt.ip.dst, true)
            } else {
                (pkt.ip.dst, pkt.ip.src, false)
            };
            let flow_key = (pkt.ip.src, pkt.tcp.src_port, pkt.ip.dst, pkt.tcp.dst_port);
            let st = self.outs.get_mut(&out_ip).expect("created above");
            match &mut st.resolved {
                Some(resolved) => process_seg(
                    resolved,
                    &mut self.pairs,
                    &mut self.window_state,
                    &m.iec104,
                    server_ip,
                    out_ip,
                    from_server,
                    flow_key,
                    pkt.tcp.seq,
                    &pkt.payload,
                ),
                None => {
                    let start = st.pending_arena.len();
                    st.pending_arena.extend_from_slice(&pkt.payload);
                    st.pending.push(BufferedSeg {
                        t,
                        server_ip,
                        from_server,
                        flow_key,
                        seq: pkt.tcp.seq,
                        payload: start..start + pkt.payload.len(),
                    });
                    // Early freeze: with ≥ 64 outstation frames the batch
                    // sample can never change again (the server fallback
                    // needs the combined sample below 8), so the dialect is
                    // final now.
                    if st.out_sample.len() >= 64 {
                        resolve_outstation(
                            st,
                            &mut self.pairs,
                            &mut self.window_state,
                            &m,
                            &mut events,
                        );
                    }
                }
            }
        }
        if self.cfg.idle_timeout.is_some() {
            self.sweep_idle(&mut events);
        }
        self.update_gauges();
        self.sm.events_emitted.add(events.len() as u64);
        events
    }

    /// Close windows the packet time `t` has moved past.
    fn roll_windows(&mut self, t: f64, events: &mut Vec<StreamEvent>) {
        let Some(width) = self.cfg.window.filter(|w| *w > 0.0) else {
            return;
        };
        if !t.is_finite() {
            return;
        }
        if self.window_state.is_none() {
            self.window_state = Some(WindowState {
                width,
                index: 0,
                start: t,
                end: t + width,
                packets: 0,
                apdus: 0,
                alerts: Vec::new(),
                baseline_ready: false,
            });
            return;
        }
        loop {
            let due = {
                let w = self.window_state.as_ref().expect("created above");
                t >= w.end
            };
            if !due {
                return;
            }
            self.close_current_window(events);
            let w = self.window_state.as_mut().expect("created above");
            w.baseline_ready = true;
            w.index += 1;
            w.start = w.end;
            w.end += w.width;
            // Jump over whole empty windows in one step (an idle gap of
            // hours must not spin the loop once per window).
            if t >= w.end {
                let k = ((t - w.start) / w.width).floor();
                if k >= 1.0 {
                    w.index += k as u64;
                    w.start += k * w.width;
                    w.end += k * w.width;
                }
            }
        }
    }

    /// Emit `WindowClosed` for the current window if it saw any traffic.
    fn close_current_window(&mut self, events: &mut Vec<StreamEvent>) {
        let clustering = {
            let Some(w) = &self.window_state else { return };
            if w.packets == 0 && w.apdus == 0 && w.alerts.is_empty() {
                return;
            }
            if w.apdus > 0 {
                window_clustering(&self.pairs, &self.packet_stats)
            } else {
                None
            }
        };
        let w = self.window_state.as_mut().expect("checked above");
        events.push(StreamEvent::WindowClosed {
            index: w.index,
            start: w.start,
            end: w.end,
            packets: w.packets,
            apdus: w.apdus,
            alerts: std::mem::take(&mut w.alerts),
            clustering,
        });
        w.packets = 0;
        w.apdus = 0;
        self.windows_closed += 1;
        self.sm.windows_closed.add(1);
    }

    /// Evict flows and outstations idle past the configured timeout,
    /// finalizing their analysis units and freeing their buffers.
    fn sweep_idle(&mut self, events: &mut Vec<StreamEvent>) {
        let (Some(idle), Some(now)) = (self.cfg.idle_timeout, self.last_t) else {
            return;
        };
        for conn in self.flows.evict_idle(now, idle) {
            for dir in [&conn.ab, &conn.ba] {
                self.evicted_delivered += dir.segments_delivered;
                self.evicted_overlaps += dir.retransmissions;
                self.evicted_wraps += dir.seq_wraps;
            }
            self.evicted_flows += 1;
            self.sm.flows_evicted.add(1);
            events.push(StreamEvent::FlowEvicted {
                key: conn.key,
                packets: conn.total_packets(),
                duration: conn.duration(),
                freed_bytes: conn.buffered_bytes(),
            });
        }
        let cutoff = now - idle;
        if cutoff.is_finite() {
            let idle_outs: Vec<u32> = self
                .outs
                .iter()
                .filter(|(_, st)| st.last_seen < cutoff)
                .map(|(&ip, _)| ip)
                .collect();
            for out_ip in idle_outs {
                self.finalize_outstation(out_ip, events);
                self.sm.outstations_evicted.add(1);
            }
        }
    }

    /// Finalize one outstation: force dialect resolution, replay its
    /// pending buffer, claim its sessions and chain rows, and drop its
    /// state. Used by eviction; `finish` runs the same logic for every
    /// survivor.
    fn finalize_outstation(&mut self, out_ip: u32, events: &mut Vec<StreamEvent>) {
        let Some(mut st) = self.outs.remove(&out_ip) else {
            return;
        };
        let m = Arc::clone(&self.metrics);
        resolve_outstation(&mut st, &mut self.pairs, &mut self.window_state, &m, events);
        let resolved = st.resolved.expect("resolved above");
        self.archived_dialects.insert(out_ip, resolved.dialect);
        self.archived_compliance.insert(out_ip, resolved.compliance);
        let pair_keys: Vec<(u32, u32)> = self
            .pairs
            .range((0, out_ip)..)
            .filter(|((_, o), _)| *o == out_ip)
            .map(|(&k, _)| k)
            .collect();
        // `range` cannot express "second key equals" — rescan plainly.
        let pair_keys: Vec<(u32, u32)> = if pair_keys.len() == self.pairs.len() {
            pair_keys
        } else {
            self.pairs
                .keys()
                .filter(|(_, o)| *o == out_ip)
                .copied()
                .collect()
        };
        let mut n_sessions = 0u64;
        let mut n_chains = 0u64;
        for key in pair_keys {
            let pair = self.pairs.remove(&key).expect("key from scan");
            for from_server in [true, false] {
                let (src, dst) = if from_server {
                    (pair.server_ip, pair.outstation_ip)
                } else {
                    (pair.outstation_ip, pair.server_ip)
                };
                if pair.dirs[usize::from(!from_server)].n_tok == 0 {
                    continue;
                }
                let stats = self.packet_stats.remove(&(src, dst)).unwrap_or_default();
                let record = SessionRecord {
                    src_ip: src,
                    dst_ip: dst,
                    from_server,
                    features: pair.features(from_server, &stats),
                    ia_variance: stats.ia_variance(),
                };
                self.archived_sessions.push(record);
                events.push(StreamEvent::SessionFinalized { record });
                n_sessions += 1;
            }
            if pair.events > 0 {
                let info = pair.chain_info();
                events.push(StreamEvent::ChainFinalized { info: info.clone() });
                self.archived_chains.push(info);
                n_chains += 1;
            }
        }
        m.sessions_built.add(n_sessions);
        m.sessions_stage.add_items(n_sessions);
        m.chains_built.add(n_chains);
        m.markov_stage.add_items(n_chains);
    }

    fn update_gauges(&self) {
        self.metrics
            .nettap
            .segments_pending
            .set(self.flows.pending_segments() as i64);
        self.sm.active_flows.set(self.flows.len() as i64);
        self.sm.active_outstations.set(self.outs.len() as i64);
        self.sm
            .resident_buffer_bytes
            .set(self.resident_buffer_bytes() as i64);
    }

    /// Finish the stream: close the trailing window, resolve every pending
    /// dialect, finalize all remaining sessions and chains in the batch
    /// claim order, and record the deferred reassembly metrics so the
    /// counter fingerprint matches a batch run of the same capture.
    pub fn finish(mut self) -> (StreamSummary, Vec<StreamEvent>) {
        let mut events = Vec::new();
        let m = Arc::clone(&self.metrics);
        self.close_current_window(&mut events);
        // Resolve stragglers in outstation order (deterministic; all decode
        // state is outstation-affine, so the order does not change any
        // result).
        let out_ips: Vec<u32> = self.outs.keys().copied().collect();
        for out_ip in &out_ips {
            let st = self.outs.get_mut(out_ip).expect("keys from scan");
            if st.resolved.is_none() {
                resolve_outstation(st, &mut self.pairs, &mut self.window_state, &m, &mut events);
            }
        }
        // Sessions, in the batch claim order: timeline (server, out) key
        // order × [server side, outstation side], claiming each (src, dst)
        // stat entry at most once.
        let mut sessions = Vec::new();
        for pair in self.pairs.values() {
            for from_server in [true, false] {
                let (src, dst) = if from_server {
                    (pair.server_ip, pair.outstation_ip)
                } else {
                    (pair.outstation_ip, pair.server_ip)
                };
                if pair.dirs[usize::from(!from_server)].n_tok == 0 {
                    continue;
                }
                let stats = self.packet_stats.remove(&(src, dst)).unwrap_or_default();
                let record = SessionRecord {
                    src_ip: src,
                    dst_ip: dst,
                    from_server,
                    features: pair.features(from_server, &stats),
                    ia_variance: stats.ia_variance(),
                };
                events.push(StreamEvent::SessionFinalized { record });
                sessions.push(record);
            }
        }
        m.sessions_built.add(sessions.len() as u64);
        m.sessions_stage.add_items(sessions.len() as u64);
        let mut chains = Vec::new();
        for pair in self.pairs.values() {
            if pair.events > 0 {
                let info = pair.chain_info();
                events.push(StreamEvent::ChainFinalized { info: info.clone() });
                chains.push(info);
            }
        }
        m.chains_built.add(chains.len() as u64);
        m.markov_stage.add_items(chains.len() as u64);
        // The deferred reassembly accounting: evicted records were folded
        // at eviction time, survivors are summed now, matching the batch
        // `record_reassembly_metrics` totals when nothing was evicted.
        let mut delivered = self.evicted_delivered;
        let mut overlaps = self.evicted_overlaps;
        let mut wraps = self.evicted_wraps;
        for conn in &self.flows.connections {
            for dir in [&conn.ab, &conn.ba] {
                delivered += dir.segments_delivered;
                overlaps += dir.retransmissions;
                wraps += dir.seq_wraps;
            }
        }
        m.nettap.segments_reassembled.add(delivered as u64);
        m.nettap.overlaps_trimmed.add(overlaps as u64);
        m.nettap.seq_wraparounds.add(wraps as u64);
        m.nettap
            .flows_stage
            .add_items((self.evicted_flows + self.flows.len()) as u64);
        let mut dialects = self.archived_dialects;
        let mut compliance = self.archived_compliance;
        for (ip, st) in &self.outs {
            let resolved = st.resolved.as_ref().expect("all resolved above");
            dialects.insert(*ip, resolved.dialect);
            compliance.insert(*ip, resolved.compliance.clone());
        }
        let mut all_sessions = self.archived_sessions;
        all_sessions.extend(sessions);
        let mut all_chains = self.archived_chains;
        all_chains.extend(chains);
        m.nettap
            .segments_pending
            .set(self.flows.pending_segments() as i64);
        self.sm.events_emitted.add(events.len() as u64);
        self.sm.active_flows.set(self.flows.len() as i64);
        self.sm.active_outstations.set(0);
        self.sm.resident_buffer_bytes.set(0);
        let summary = StreamSummary {
            packets: self.packets,
            dialects,
            compliance,
            sessions: all_sessions,
            chains: all_chains,
            live_flows: self.flows.len(),
            evicted_flows: self.evicted_flows,
            windows_closed: self.windows_closed,
        };
        (summary, events)
    }
}

/// Force dialect resolution for one outstation and replay its pending
/// buffer through the batch pass-2 logic.
fn resolve_outstation(
    st: &mut OutstationState,
    pairs: &mut BTreeMap<(u32, u32), PairState>,
    window: &mut Option<WindowState>,
    metrics: &PipelineMetrics,
    events: &mut Vec<StreamEvent>,
) {
    if st.resolved.is_some() {
        return;
    }
    // The batch combined sample: every outstation frame first (loop A),
    // then server payload groups appended while the combined sample stays
    // under 8 frames (loop B's per-packet check).
    let mut sample = st.out_sample.clone();
    for payload in &st.srv_payloads {
        if sample.len() >= 8 {
            break;
        }
        sample.delimit_from(payload);
    }
    let scores = detect_dialect(&sample.frames());
    let dialect = scores
        .first()
        .filter(|s| s.parsed > 0)
        .map(|s| s.dialect)
        .unwrap_or(Dialect::STANDARD);
    let mut resolved = Resolved {
        dialect,
        compliance: ComplianceEntry {
            outstation_ip: st.ip,
            i_frames: 0,
            strict_malformed: 0,
            tolerant_malformed: 0,
            dialect,
            scores,
        },
        decoders: FnvHashMap::default(),
        strict_decoders: FnvHashMap::default(),
        last_seq: FnvHashMap::default(),
    };
    events.push(StreamEvent::DialectDetected {
        outstation_ip: st.ip,
        dialect,
    });
    let pending = std::mem::take(&mut st.pending);
    let arena = std::mem::take(&mut st.pending_arena);
    for seg in pending {
        process_seg(
            &mut resolved,
            pairs,
            window,
            &metrics.iec104,
            seg.server_ip,
            st.ip,
            seg.from_server,
            seg.flow_key,
            seg.seq,
            &arena[seg.payload.clone()],
        );
        let _ = seg.t; // timestamps ride along for future per-event times
    }
    st.out_sample = FrameSample::default();
    st.srv_payloads = Vec::new();
    st.resolved = Some(resolved);
}

/// The batch pass-2 decode of one segment, against incremental state: the
/// retransmission dedup, the strict/tolerant compliance accounting, and the
/// pair updates, all byte-for-byte the `analyze_packets` logic.
#[allow(clippy::too_many_arguments)]
fn process_seg(
    resolved: &mut Resolved,
    pairs: &mut BTreeMap<(u32, u32), PairState>,
    window: &mut Option<WindowState>,
    metrics: &Iec104Metrics,
    server_ip: u32,
    out_ip: u32,
    from_server: bool,
    flow_key: (u32, u16, u32, u16),
    seq: u32,
    payload: &[u8],
) {
    let Resolved {
        dialect,
        compliance,
        decoders,
        strict_decoders,
        last_seq,
    } = resolved;
    let dialect = *dialect;
    let key = (server_ip, from_server);
    let dup = last_seq.insert(flow_key, seq) == Some(seq);
    let strict_accounting = !from_server && !dup;
    let strict_folded = strict_accounting && dialect == Dialect::STANDARD;
    if strict_accounting && !strict_folded {
        let strict = strict_decoders
            .entry(key)
            .or_insert_with(|| StreamDecoder::new(Dialect::STANDARD));
        strict.feed_each(payload, Iec104Metrics::sink(), |item| match item {
            StreamItemRef::Apdu(a) if a.apci.is_i() => compliance.i_frames += 1,
            StreamItemRef::Apdu(_) => {}
            StreamItemRef::Malformed(frame, _) => {
                if is_i_frame(frame) {
                    compliance.i_frames += 1;
                    compliance.strict_malformed += 1;
                }
            }
        });
    }
    let mut sink = |item: StreamItemRef<'_>| match item {
        StreamItemRef::Apdu(apdu) => {
            if strict_folded && apdu.apci.is_i() {
                compliance.i_frames += 1;
            }
            let token = Token::of(&apdu);
            pair_update(
                pairs,
                window,
                server_ip,
                out_ip,
                from_server,
                token,
                apdu.asdu.as_ref(),
            );
        }
        StreamItemRef::Malformed(frame, _) => {
            if strict_accounting && is_i_frame(frame) {
                compliance.tolerant_malformed += 1;
                if strict_folded {
                    compliance.i_frames += 1;
                    compliance.strict_malformed += 1;
                }
            }
        }
    };
    if dup {
        // Re-decode the duplicate standalone so the repeated token appears
        // without corrupting the stream decoder — exactly the batch rule.
        StreamDecoder::new(dialect).feed_each(payload, metrics, &mut sink);
    } else {
        decoders
            .entry(key)
            .or_insert_with(|| StreamDecoder::new(dialect))
            .feed_each(payload, metrics, &mut sink);
    }
}

/// Apply one decoded token to its pair: IDS novelty checks against the
/// chain *before* the push, then the incremental census/session updates.
fn pair_update(
    pairs: &mut BTreeMap<(u32, u32), PairState>,
    window: &mut Option<WindowState>,
    server_ip: u32,
    out_ip: u32,
    from_server: bool,
    token: Token,
    asdu: Option<&Asdu>,
) {
    let pair = pairs
        .entry((server_ip, out_ip))
        .or_insert_with(|| PairState::new(server_ip, out_ip));
    if let Some(w) = window {
        w.apdus += 1;
        if w.baseline_ready && w.alerts.len() < MAX_WINDOW_ALERTS && pair.events > 0 {
            if !pair.chain.contains(token) {
                w.alerts.push(StreamAlert {
                    server_ip,
                    outstation_ip: out_ip,
                    kind: StreamAlertKind::NovelToken { token },
                });
            } else if let Some(prev) = pair.prev_token {
                if pair.chain.transition(prev, token) == 0.0 {
                    w.alerts.push(StreamAlert {
                        server_ip,
                        outstation_ip: out_ip,
                        kind: StreamAlertKind::NovelTransition {
                            from: prev,
                            to: token,
                        },
                    });
                }
            }
        }
    }
    // Incremental `detect_switchover`: the same state machine, latched once
    // a qualifying U1 fires (batch returns at that point).
    if !pair.switchover {
        match token {
            Token::U1 if from_server && pair.secondary_phase => pair.switchover = true,
            Token::U16 if from_server => pair.last_server_u16 = true,
            Token::U32 if !from_server && pair.last_server_u16 => {
                pair.secondary_phase = true;
                pair.last_server_u16 = false;
            }
            t if t.is_i() && !pair.secondary_phase => pair.last_server_u16 = false,
            _ => {}
        }
    }
    if token.is_i() {
        pair.has_i = true;
    }
    if token == Token::U16 {
        pair.has_u16 = true;
        pair.u16_count += 1;
    }
    if !from_server && token == Token::U32 {
        pair.answers_testfr = true;
    }
    pair.chain.push(token);
    pair.prev_token = Some(token);
    pair.events += 1;
    let dir = &mut pair.dirs[usize::from(!from_server)];
    dir.n_tok += 1;
    if token.is_i() {
        dir.i_tok += 1;
    }
    if matches!(token, Token::S) {
        dir.s_tok += 1;
    }
    if let Some(a) = asdu {
        for obj in &a.objects {
            dir.ioas.insert(obj.ioa);
        }
    }
}

/// Cluster the live sessions at window close: selected-feature rows,
/// standardized, k picked by silhouette over 2..=min(6, rows − 1). Pure
/// `kmeans` calls only — nothing here touches a metric, so windowing can
/// never perturb the counter fingerprint.
fn window_clustering(
    pairs: &BTreeMap<(u32, u32), PairState>,
    packet_stats: &FnvHashMap<(u32, u32), OnlineStats>,
) -> Option<WindowClustering> {
    let mut rows = FeatureMatrix::new(5);
    let mut n = 0usize;
    for pair in pairs.values() {
        for from_server in [true, false] {
            if pair.dirs[usize::from(!from_server)].n_tok == 0 {
                continue;
            }
            let (src, dst) = if from_server {
                (pair.server_ip, pair.outstation_ip)
            } else {
                (pair.outstation_ip, pair.server_ip)
            };
            // A live view (not a claim): both directions of an IP pair
            // share the stat entry here, unlike the finalize-time claim.
            let stats = packet_stats.get(&(src, dst)).copied().unwrap_or_default();
            let features = pair.features(from_server, &stats);
            rows.push_row_iter(features.selected());
            n += 1;
        }
    }
    if n < 4 {
        return None;
    }
    let z = standardize(&rows);
    let selection = kmeans::select_k(&z, 2..=6.min(n - 1), 7);
    let best = kmeans::best_by_silhouette(&selection)?;
    Some(WindowClustering {
        rows: n,
        k: best.k,
        silhouette: best.silhouette,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncharted_iec104::apci::UFunction;
    use uncharted_iec104::apdu::Apdu;
    use uncharted_iec104::asdu::{InfoObject, IoValue};
    use uncharted_iec104::cot::{Cause, Cot};
    use uncharted_iec104::elements::Qds;
    use uncharted_iec104::types::TypeId;
    use uncharted_nettap::ethernet::MacAddr;
    use uncharted_nettap::ipv4::addr;
    use uncharted_nettap::pcap::CapturedPacket;
    use uncharted_nettap::tcp::{TcpFlags, TcpHeader};

    fn packet(
        t: f64,
        src_ip: u32,
        src_port: u16,
        dst_ip: u32,
        dst_port: u16,
        seq: u32,
        payload: &[u8],
    ) -> ParsedPacket {
        let flags = if payload.is_empty() {
            TcpFlags::ACK
        } else {
            TcpFlags::ACK.with(TcpFlags::PSH)
        };
        CapturedPacket::build(
            t,
            MacAddr::from_device_id(src_ip),
            MacAddr::from_device_id(dst_ip),
            src_ip,
            dst_ip,
            TcpHeader {
                src_port,
                dst_port,
                seq,
                ack: 1,
                flags,
                window: 8192,
            },
            payload,
            0,
        )
        .parse()
        .unwrap()
    }

    fn i_frame(send_seq: u16, ioa: u32, value: f32) -> Vec<u8> {
        let asdu = Asdu::new(TypeId::M_ME_NC_1, Cot::new(Cause::Spontaneous), 7).with_object(
            InfoObject::new(
                ioa,
                IoValue::FloatMeasurement {
                    value,
                    qds: Qds::GOOD,
                },
            ),
        );
        Apdu::i_frame(send_seq, 0, asdu)
            .encode(Dialect::STANDARD)
            .unwrap()
    }

    /// A simple two-direction conversation on one pair, one I/S exchange
    /// every `step` seconds.
    fn conversation_at(
        server: u32,
        out: u32,
        port: u16,
        t0: f64,
        n: usize,
        step: f64,
    ) -> Vec<ParsedPacket> {
        let mut packets = Vec::new();
        let mut out_seq = 1u32;
        let mut srv_seq = 1u32;
        for i in 0..n {
            let payload = i_frame(i as u16, 700 + i as u32 % 4, 50.0 + i as f32);
            packets.push(packet(
                t0 + i as f64 * step,
                out,
                IEC104_PORT,
                server,
                port,
                out_seq,
                &payload,
            ));
            out_seq += payload.len() as u32;
            let ack = Apdu::s_frame(i as u16 + 1)
                .encode(Dialect::STANDARD)
                .unwrap();
            packets.push(packet(
                t0 + i as f64 * step + step / 4.0,
                server,
                port,
                out,
                IEC104_PORT,
                srv_seq,
                &ack,
            ));
            srv_seq += ack.len() as u32;
        }
        packets
    }

    fn conversation(server: u32, out: u32, port: u16, t0: f64, n: usize) -> Vec<ParsedPacket> {
        conversation_at(server, out, port, t0, n, 0.2)
    }

    /// Segments stranded behind a sequence hole show in the
    /// `nettap_segments_pending` gauge while the session runs and at
    /// finish, with the value a batch reconstruction of the same packets
    /// reports, and stay out of the counter fingerprint.
    #[test]
    fn stranded_segments_gauge_matches_batch() {
        let server = addr(10, 0, 0, 1);
        let out = addr(10, 1, 5, 10);
        let mut packets = conversation(server, out, 40001, 0.0, 4);
        // A later capture window resumes the flow past a hole that never
        // fills: both segments wait behind it.
        for (i, seq) in [90_000u32, 90_100].into_iter().enumerate() {
            let t = 50.0 + i as f64;
            packets.push(packet(t, out, IEC104_PORT, server, 40001, seq, &[0x68; 4]));
        }
        let batch = uncharted_obs::MetricsRegistry::new();
        FlowTable::reconstruct(
            &packets,
            &uncharted_nettap::NettapMetrics::register(&batch),
        );
        let batch = batch.snapshot();
        assert_eq!(batch.gauge_value("nettap_segments_pending", &[]), Some(2));

        let metrics = PipelineMetrics::new();
        let mut s = StreamSession::builder()
            .metrics(Arc::clone(&metrics))
            .build();
        s.push_batch(&packets);
        let live = metrics.snapshot();
        assert_eq!(live.gauge_value("nettap_segments_pending", &[]), Some(2));
        let fingerprint = live.counter_fingerprint();
        s.finish();
        let done = metrics.snapshot();
        assert_eq!(done.gauge_value("nettap_segments_pending", &[]), Some(2));
        assert!(!fingerprint.contains("segments_pending"));
    }

    #[test]
    fn streaming_summary_counts_a_simple_conversation() {
        let server = addr(10, 0, 0, 1);
        let out = addr(10, 1, 5, 10);
        let packets = conversation(server, out, 40001, 0.0, 6);
        let metrics = PipelineMetrics::new();
        let mut s = StreamSession::builder().metrics(metrics).build();
        let mut events = Vec::new();
        for chunk in packets.chunks(3) {
            events.extend(s.push_batch(chunk));
        }
        let (summary, fin) = s.finish();
        events.extend(fin);
        assert_eq!(summary.packets, 12);
        assert_eq!(summary.dialects.get(&out), Some(&Dialect::STANDARD));
        assert_eq!(summary.sessions.len(), 2);
        assert_eq!(summary.chains.len(), 1);
        assert_eq!(summary.chains[0].nodes, 2); // I13 and S
        assert!(events
            .iter()
            .any(|e| matches!(e, StreamEvent::DialectDetected { .. })));
        // The outstation-side session carries the I fraction.
        let out_side = summary
            .sessions
            .iter()
            .find(|r| !r.from_server)
            .expect("outstation session");
        assert!((out_side.features.frac_i - 1.0).abs() < 1e-12);
        assert_eq!(out_side.features.packets, 6.0);
    }

    #[test]
    fn idle_timeout_evicts_flows_and_outstations() {
        let server = addr(10, 0, 0, 1);
        let out_a = addr(10, 1, 5, 10);
        let out_b = addr(10, 1, 5, 11);
        let mut packets = conversation(server, out_a, 40001, 0.0, 3);
        packets.extend(conversation(server, out_b, 40002, 100.0, 3));
        packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        let metrics = PipelineMetrics::new();
        let mut s = StreamSession::builder()
            .idle_timeout(Some(30.0))
            .metrics(Arc::clone(&metrics))
            .build();
        let mut events = Vec::new();
        for chunk in packets.chunks(4) {
            events.extend(s.push_batch(chunk));
        }
        assert!(
            events
                .iter()
                .any(|e| matches!(e, StreamEvent::FlowEvicted { .. })),
            "the first conversation's flow must be evicted"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, StreamEvent::SessionFinalized { .. })),
            "eviction finalizes the idle outstation's sessions"
        );
        assert_eq!(s.active_flows(), 1, "only the second flow stays live");
        let (summary, _) = s.finish();
        assert_eq!(summary.evicted_flows, 1);
        assert_eq!(summary.sessions.len(), 4, "both conversations finalized");
        assert_eq!(summary.chains.len(), 2);
        assert!(summary.dialects.contains_key(&out_a));
        assert!(summary.dialects.contains_key(&out_b));
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge_value("stream_active_flows", &[]), Some(1));
    }

    #[test]
    fn windows_close_and_flag_novel_tokens() {
        let server = addr(10, 0, 0, 1);
        let out = addr(10, 1, 5, 10);
        // Window 1: enough plain I/S chatter to hit the 64-frame sample cap
        // (early dialect resolution) and establish the baseline. Window 2:
        // more of the same, plus a TESTFR the pair has never sent → novel
        // token.
        let mut packets = conversation_at(server, out, 40001, 0.0, 70, 0.04);
        packets.extend(conversation(server, out, 40001, 10.0, 2));
        let testfr = Apdu::u_frame(UFunction::TestFrAct)
            .encode(Dialect::STANDARD)
            .unwrap();
        packets.push(packet(10.9, server, 40001, out, IEC104_PORT, 900, &testfr));
        packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        let metrics = PipelineMetrics::new();
        let mut s = StreamSession::builder()
            .window(Some(5.0))
            .metrics(metrics)
            .build();
        let mut events = s.push_batch(&packets);
        let (summary, fin) = s.finish();
        events.extend(fin);
        assert!(summary.windows_closed >= 2);
        let alerts: Vec<&StreamAlert> = events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::WindowClosed { alerts, .. } => Some(alerts.iter()),
                _ => None,
            })
            .flatten()
            .collect();
        assert!(
            alerts
                .iter()
                .any(|a| matches!(a.kind, StreamAlertKind::NovelToken { token: Token::U16 })),
            "the TESTFR must raise a novel-token alert, got {alerts:?}"
        );
    }

    #[test]
    fn event_json_lines_are_object_shaped() {
        let ev = StreamEvent::DialectDetected {
            outstation_ip: addr(10, 1, 5, 10),
            dialect: Dialect::STANDARD,
        };
        let json = ev.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"event\":\"dialect_detected\""));
        assert!(json.contains("10.1.5.10"));
        let ev = StreamEvent::WindowClosed {
            index: 3,
            start: 0.0,
            end: 5.0,
            packets: 7,
            apdus: 4,
            alerts: vec![StreamAlert {
                server_ip: addr(10, 0, 0, 1),
                outstation_ip: addr(10, 1, 5, 10),
                kind: StreamAlertKind::NovelTransition {
                    from: Token::S,
                    to: Token::U16,
                },
            }],
            clustering: Some(WindowClustering {
                rows: 6,
                k: 2,
                silhouette: 0.8,
            }),
        };
        let json = ev.to_json();
        assert!(json.contains("\"alerts\":[{"));
        assert!(json.contains("\"clustering\":{\"rows\":6"));
        // Non-finite numbers render as null, keeping the line valid JSON.
        assert_eq!(jnum(f64::NAN), "null");
    }

    #[test]
    fn nan_timestamps_do_not_panic_the_stream() {
        let server = addr(10, 0, 0, 1);
        let out = addr(10, 1, 5, 10);
        let mut packets = conversation(server, out, 40001, 0.0, 3);
        let payload = i_frame(9, 700, 1.0);
        packets.push(packet(
            f64::NAN,
            out,
            IEC104_PORT,
            server,
            40001,
            5000,
            &payload,
        ));
        let metrics = PipelineMetrics::new();
        let mut s = StreamSession::builder()
            .window(Some(1.0))
            .idle_timeout(Some(5.0))
            .metrics(metrics)
            .build();
        s.push_batch(&packets);
        let (summary, _) = s.finish();
        assert_eq!(summary.packets, 7);
    }
}
