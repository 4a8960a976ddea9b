//! Capture ingestion: parse a capture once and expose every view the rest
//! of the pipeline needs — flows, per-outstation dialects, a per-device-pair
//! APDU timeline, and the compliance census of §6.1.
//!
//! Conventions follow the paper's network (Fig. 5): outstations listen on
//! TCP port 2404; anything dialling *to* 2404 is a control server.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use uncharted_iec104::apdu::{StreamDecoder, StreamItemRef};
use uncharted_iec104::asdu::Asdu;
use uncharted_iec104::dialect::Dialect;
use uncharted_iec104::metrics::Iec104Metrics;
use uncharted_iec104::parser::{detect_dialect, DialectScore};
use uncharted_iec104::tokens::Token;
use uncharted_nettap::flow::FlowTable;
use uncharted_nettap::pcap::{Capture, ParsedPacket};
use uncharted_nettap::source::{self, PacketSource};
use uncharted_obs::MixHashMap;

use crate::exec::ExecContext;
use crate::session::{PacketStats, PacketStatsBuilder};

/// The IEC 104 well-known port (what identifies the outstation side).
pub const IEC104_PORT: u16 = 2404;

/// One APDU observed on the wire between a device pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ApduEvent {
    /// Packet timestamp.
    pub t: f64,
    /// True when the control server sent it (server → outstation).
    pub from_server: bool,
    /// The Table 4 token.
    pub token: Token,
    /// The decoded payload for I-frames.
    pub asdu: Option<Asdu>,
}

/// The merged, time-ordered APDU history of one (server, outstation) pair.
///
/// This is the paper's unit of Markov analysis ("an end-to-end communication
/// between every pair of devices"); TCP retransmissions are deliberately
/// *kept* — the paper traced repeated keep-alive tokens to them.
#[derive(Debug, Clone, PartialEq)]
pub struct PairTimeline {
    /// The server's IP.
    pub server_ip: u32,
    /// The outstation's IP.
    pub outstation_ip: u32,
    /// Events in time order.
    pub events: Vec<ApduEvent>,
}

impl PairTimeline {
    /// Just the token sequence (both directions merged).
    pub fn tokens(&self) -> Vec<Token> {
        self.events.iter().map(|e| e.token).collect()
    }

    /// Tokens of one direction.
    pub fn tokens_from(&self, server_side: bool) -> Vec<Token> {
        self.events
            .iter()
            .filter(|e| e.from_server == server_side)
            .map(|e| e.token)
            .collect()
    }
}

/// §6.1 compliance census entry for one outstation.
#[derive(Debug, Clone, PartialEq)]
pub struct ComplianceEntry {
    /// The outstation's IP.
    pub outstation_ip: u32,
    /// I-frames observed from this outstation.
    pub i_frames: usize,
    /// I-frames a standard-only parser rejects.
    pub strict_malformed: usize,
    /// I-frames the tolerant parser rejects after dialect detection.
    pub tolerant_malformed: usize,
    /// The detected dialect.
    pub dialect: Dialect,
    /// The full candidate scoring (diagnostic).
    pub scores: Vec<DialectScore>,
}

impl ComplianceEntry {
    /// Fraction of this outstation's I-frames flagged by the strict parser.
    pub fn strict_malformed_fraction(&self) -> f64 {
        if self.i_frames == 0 {
            0.0
        } else {
            self.strict_malformed as f64 / self.i_frames as f64
        }
    }
}

/// A parsed capture with all derived views.
#[derive(Debug)]
pub struct Dataset {
    /// Every parseable packet, in time order.
    pub packets: Vec<ParsedPacket>,
    /// Reconstructed TCP connections.
    pub flows: FlowTable,
    /// Detected dialect per outstation IP.
    pub dialects: BTreeMap<u32, Dialect>,
    /// Compliance census per outstation IP.
    pub compliance: BTreeMap<u32, ComplianceEntry>,
    /// Per-pair APDU timelines, sorted by (server, outstation).
    pub timelines: Vec<PairTimeline>,
    /// Session packet stats built by the ingest's reassembly pass, taken by
    /// the first [`crate::session::extract`]; later calls rebuild them.
    packet_stats: Mutex<Option<PacketStats>>,
}

impl Dataset {
    /// Ingest from already-parsed packets (must be in time order), under an
    /// [`ExecContext`] choosing the worker count and the metrics sink.
    ///
    /// Ingest is two independent passes over the capture:
    ///
    /// * the reassembly pass — [`FlowTable::push`] per packet, with the
    ///   payload-size histogram and the session packet stats folded into
    ///   the same loop (timed as the `flows` stage);
    /// * the protocol pass — dialect detection, then streaming APDU decode
    ///   into pair timelines and the compliance census (the `protocol`
    ///   stage).
    ///
    /// Neither pass reads the other's output, and each records only its own
    /// metrics. With one worker they run one after the other on the calling
    /// thread; with more than one, the reassembly pass runs on a scoped
    /// thread beside the protocol pass. Any worker count above one runs the
    /// same two passes. The `Dataset`, and every metric counter, is
    /// bit-identical under any [`ExecPolicy`](crate::ExecPolicy); only the
    /// stage wall times differ.
    pub fn ingest(packets: Vec<ParsedPacket>, ctx: &ExecContext) -> Dataset {
        let m = &ctx.metrics;
        m.nettap.pcap_records_streamed.add(packets.len() as u64);
        let reassembly = || {
            let _span = m.nettap.flows_stage.span();
            let _shard = m.nettap.flows_stage.shard_span(0);
            let mut table = FlowTable::default();
            let mut stats = PacketStatsBuilder::default();
            for pkt in &packets {
                table.push(pkt);
                if !pkt.payload.is_empty() {
                    m.nettap
                        .segment_payload_octets
                        .observe(pkt.payload.len() as u64);
                }
                stats.push(pkt);
            }
            table.record_reassembly_metrics(&m.nettap);
            (table, stats.finish())
        };
        let protocol = || {
            let _span = m.protocol_stage.span();
            let analysis = {
                let _shard = m.protocol_stage.shard_span(0);
                analyze_packets(&packets, &m.iec104)
            };
            m.protocol_stage.add_items(packets.len() as u64);
            analysis
        };
        let ((flows, packet_stats), analysis) = if ctx.workers() > 1 {
            std::thread::scope(|scope| {
                let reassembled = scope.spawn(reassembly);
                let analysis = protocol();
                (
                    reassembled.join().expect("reassembly pass panicked"),
                    analysis,
                )
            })
        } else {
            (reassembly(), protocol())
        };
        Dataset {
            packets,
            flows,
            dialects: analysis.dialects,
            compliance: analysis.compliance,
            timelines: analysis.timelines.into_values().collect(),
            packet_stats: Mutex::new(Some(packet_stats)),
        }
    }

    /// Take the session packet stats the ingest built, if still unclaimed.
    pub(crate) fn take_packet_stats(&self) -> Option<PacketStats> {
        self.packet_stats.lock().unwrap().take()
    }

    /// Ingest one capture under an [`ExecContext`].
    pub fn ingest_capture(capture: &Capture, ctx: &ExecContext) -> Dataset {
        Dataset::ingest(capture.parsed(), ctx)
    }

    /// Ingest several captures as one dataset (e.g. a whole year), merged
    /// into time order, under an [`ExecContext`].
    pub fn ingest_captures<'a, I: IntoIterator<Item = &'a Capture>>(
        captures: I,
        ctx: &ExecContext,
    ) -> Dataset {
        let mut packets: Vec<ParsedPacket> = Vec::new();
        for c in captures {
            packets.extend(c.parsed());
        }
        packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        Dataset::ingest(packets, ctx)
    }

    /// Ingest everything a [`PacketSource`] yields — the one batch-mode
    /// ingest entry point shared by `analyze`, the bench harness, and the
    /// serve layer's offline paths. The source is drained to exhaustion,
    /// merged into time order (multi-file chains may interleave), and
    /// ingested exactly like [`Dataset::ingest`].
    pub fn ingest_source(
        src: &mut dyn PacketSource,
        ctx: &ExecContext,
    ) -> uncharted_nettap::Result<Dataset> {
        let mut packets = source::drain(src, 4096)?;
        // Captures usually arrive already time-ordered (pcap record order);
        // a stable sort of sorted input is the identity, so check first and
        // only pay the sort when a merge actually interleaved timestamps.
        if !packets.is_sorted_by(|a, b| a.timestamp.total_cmp(&b.timestamp).is_le()) {
            packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        }
        Ok(Dataset::ingest(packets, ctx))
    }

    /// All distinct outstation IPs seen.
    pub fn outstation_ips(&self) -> BTreeSet<u32> {
        let mut set = BTreeSet::new();
        for pkt in &self.packets {
            if pkt.tcp.src_port == IEC104_PORT {
                set.insert(pkt.ip.src);
            }
            if pkt.tcp.dst_port == IEC104_PORT {
                set.insert(pkt.ip.dst);
            }
        }
        set
    }

    /// All distinct server IPs seen.
    pub fn server_ips(&self) -> BTreeSet<u32> {
        let mut set = BTreeSet::new();
        for pkt in &self.packets {
            if pkt.tcp.dst_port == IEC104_PORT {
                set.insert(pkt.ip.src);
            }
            if pkt.tcp.src_port == IEC104_PORT {
                set.insert(pkt.ip.dst);
            }
        }
        set
    }

    /// Outstations whose traffic a strict parser rejects entirely (the
    /// paper's O37/O53/O58/O28 finding).
    pub fn fully_malformed_outstations(&self) -> Vec<u32> {
        self.compliance
            .values()
            .filter(|e| e.i_frames > 0 && e.strict_malformed == e.i_frames)
            .map(|e| e.outstation_ip)
            .collect()
    }

    /// The timeline for one pair, if present.
    pub fn timeline(&self, server_ip: u32, outstation_ip: u32) -> Option<&PairTimeline> {
        self.timelines
            .iter()
            .find(|t| t.server_ip == server_ip && t.outstation_ip == outstation_ip)
    }
}

/// What the protocol pass derives from a capture.
struct ProtocolViews {
    dialects: BTreeMap<u32, Dialect>,
    compliance: BTreeMap<u32, ComplianceEntry>,
    timelines: BTreeMap<(u32, u32), PairTimeline>,
}

/// The protocol pass: dialect detection per outstation, then streaming
/// APDU decode into pair timelines and the compliance census.
///
/// Only the tolerant decoders (including the standalone re-decode of TCP
/// duplicates) record on `metrics`; the strict compliance decoders feed the
/// discard sink so an APDU is never counted twice.
fn analyze_packets(packets: &[ParsedPacket], metrics: &Iec104Metrics) -> ProtocolViews {
    // Pass 1: collect, per outstation, the raw I-frames it sent, for
    // dialect detection. Frames go into one flat arena per outstation
    // (bytes + ranges) instead of a Vec per frame.
    let mut frames_by_out: MixHashMap<u32, FrameSample> = MixHashMap::default();
    // Once an outstation's sample is full every later packet from it is a
    // no-op, so keep a direct-mapped "this IP's sample is full" marker in
    // front of the map: in the steady state (every sample full, traffic
    // interleaving hundreds of stations) the loop body is two loads.
    let mut full: uncharted_obs::SlotCache<u32, 512> = uncharted_obs::SlotCache::new();
    for pkt in packets {
        if pkt.tcp.src_port == IEC104_PORT && !pkt.payload.is_empty() {
            if full.get(pkt.ip.src).is_some() {
                continue;
            }
            let sample = frames_by_out.entry(pkt.ip.src).or_default();
            if sample.len() < 64 {
                sample.delimit_from(&pkt.payload);
            }
            if sample.len() >= 64 {
                full.put(pkt.ip.src, 1);
            }
        }
    }
    // Commands from the server are also dialect-bound, so include them
    // when the outstation itself sent nothing (pure backups). The fullness
    // threshold differs, so the marker cache restarts empty.
    full.clear();
    for pkt in packets {
        if pkt.tcp.dst_port == IEC104_PORT && !pkt.payload.is_empty() {
            if full.get(pkt.ip.dst).is_some() {
                continue;
            }
            let sample = frames_by_out.entry(pkt.ip.dst).or_default();
            if sample.len() < 8 {
                sample.delimit_from(&pkt.payload);
            }
            if sample.len() >= 8 {
                full.put(pkt.ip.dst, 1);
            }
        }
    }

    // Hash-map iteration order is arbitrary; sort so dialect scoring runs
    // (and any metrics it records) happen in a stable IP order.
    let mut sampled: Vec<(u32, FrameSample)> = frames_by_out.into_iter().collect();
    sampled.sort_unstable_by_key(|&(ip, _)| ip);
    let mut dialects = BTreeMap::new();
    let mut compliance = BTreeMap::new();
    for &(ip, ref sample) in &sampled {
        let scores = detect_dialect(&sample.frames());
        let dialect = scores
            .first()
            .filter(|s| s.parsed > 0)
            .map(|s| s.dialect)
            .unwrap_or(Dialect::STANDARD);
        dialects.insert(ip, dialect);
        compliance.insert(
            ip,
            ComplianceEntry {
                outstation_ip: ip,
                i_frames: 0,
                strict_malformed: 0,
                tolerant_malformed: 0,
                dialect,
                scores,
            },
        );
    }

    // Pass 2: decode per-packet APDUs into pair timelines, and count
    // compliance under both parsers. Packets are decoded per (pair,
    // direction) with a streaming decoder so APDUs split across
    // segments still parse.
    //
    // Per-pair state lives in one `Vec<PairState>` arena indexed by a
    // packed-key hash map, with a last-pair memo in front of it: traffic
    // arrives in bursts per device pair, so the common case touches no
    // hash map at all. Compliance entries move into a parallel `Vec`
    // (sorted by IP, rebuilt into a `BTreeMap` on return) so the
    // per-APDU accounting in the sink is an index, not a tree walk.
    // Nothing below iterates the hash maps, so probe order never matters.
    let comp_ips: Vec<u32> = compliance.keys().copied().collect();
    let mut comp_vec: Vec<ComplianceEntry> = std::mem::take(&mut compliance).into_values().collect();

    /// Sentinel for "no decoder allocated yet" in the arena indices.
    const NONE: u32 = u32::MAX;
    struct PairState {
        timeline: PairTimeline,
        dialect: Dialect,
        /// Index of this outstation's entry in `comp_vec`.
        comp: u32,
        /// Tolerant decoder arena index per direction (`[to-out, from-server]`).
        dec: [u32; 2],
        /// Strict decoder arena index (outstation direction only).
        strict: u32,
    }
    let mut pairs: Vec<PairState> = Vec::new();
    let mut pair_index: MixHashMap<u64, u32> = MixHashMap::default();
    let mut decoder_arena: Vec<StreamDecoder> = Vec::new();
    let mut strict_arena: Vec<StreamDecoder> = Vec::new();
    let mut memo: (u64, u32) = (0, NONE);
    let mut pair_cache: uncharted_obs::SlotCache<u64, 2048> = uncharted_obs::SlotCache::new();
    // Deduplicate TCP retransmissions *for decoding only* (a duplicated
    // segment would desynchronise the stream decoder); the duplicate
    // still contributes a repeated token, as in the paper. The per-tuple
    // cursor lives in a write-back cache: a resident row is the
    // authoritative value and the map holds evicted tuples, so the map is
    // only touched when two active 4-tuples collide on a row.
    let mut last_seq: MixHashMap<u128, u32> = MixHashMap::default();
    let mut seq_cache: uncharted_obs::SlotCache<u128, 8192> = uncharted_obs::SlotCache::new();

    for pkt in packets {
        if pkt.payload.is_empty() {
            continue;
        }
        let (server_ip, out_ip, from_server) = if pkt.tcp.dst_port == IEC104_PORT {
            (pkt.ip.src, pkt.ip.dst, true)
        } else if pkt.tcp.src_port == IEC104_PORT {
            (pkt.ip.dst, pkt.ip.src, false)
        } else {
            continue;
        };
        let pair_key = ((server_ip as u64) << 32) | out_ip as u64;
        let pi = if memo.1 != NONE && memo.0 == pair_key {
            memo.1 as usize
        } else if let Some(slot) = pair_cache.get(pair_key) {
            memo = (pair_key, slot);
            slot as usize
        } else {
            let pi = *pair_index.entry(pair_key).or_insert_with(|| {
                let comp = comp_ips.binary_search(&out_ip).expect("pass 1 covered") as u32;
                let dialect = dialects.get(&out_ip).copied().unwrap_or(Dialect::STANDARD);
                pairs.push(PairState {
                    timeline: PairTimeline {
                        server_ip,
                        outstation_ip: out_ip,
                        events: Vec::new(),
                    },
                    dialect,
                    comp,
                    dec: [NONE; 2],
                    strict: NONE,
                });
                (pairs.len() - 1) as u32
            });
            memo = (pair_key, pi);
            pair_cache.put(pair_key, pi);
            pi as usize
        };

        let flow_key = ((pkt.ip.src as u128) << 96)
            | ((pkt.ip.dst as u128) << 64)
            | ((pkt.tcp.src_port as u128) << 16)
            | pkt.tcp.dst_port as u128;
        let dup = match seq_cache.swap(flow_key, pkt.tcp.seq) {
            uncharted_obs::cache::Swapped::Hit(prev) => prev == pkt.tcp.seq,
            uncharted_obs::cache::Swapped::Evicted(old_key, old_seq) => {
                // Park the displaced tuple's cursor back in the map before
                // consulting it for ours, so rows stay the map's sole shadow.
                last_seq.insert(old_key, old_seq);
                last_seq.get(&flow_key) == Some(&pkt.tcp.seq)
            }
            uncharted_obs::cache::Swapped::Vacant => {
                last_seq.get(&flow_key) == Some(&pkt.tcp.seq)
            }
        };

        let pair = &mut pairs[pi];
        let dialect = pair.dialect;
        let ci = pair.comp as usize;

        // Strict compliance accounting (I-frames from the outstation).
        // When the detected dialect *is* the standard one, the strict
        // decoder would see byte-for-byte the tolerant decoder's input and
        // produce the identical item stream, so its counts are folded into
        // the tolerant sink below instead of running a second decode.
        let strict_accounting = !from_server && !dup;
        let strict_folded = strict_accounting && dialect == Dialect::STANDARD;
        if strict_accounting && !strict_folded {
            if pair.strict == NONE {
                pair.strict = strict_arena.len() as u32;
                strict_arena.push(StreamDecoder::new(Dialect::STANDARD));
            }
            let entry = &mut comp_vec[ci];
            strict_arena[pair.strict as usize].feed_each(
                &pkt.payload,
                Iec104Metrics::sink(),
                |item| match item {
                    StreamItemRef::Apdu(a) if a.apci.is_i() => entry.i_frames += 1,
                    StreamItemRef::Apdu(_) => {}
                    StreamItemRef::Malformed(frame, _) => {
                        if is_i_frame(frame) {
                            entry.i_frames += 1;
                            entry.strict_malformed += 1;
                        }
                    }
                },
            );
        }

        // Resolve the tolerant decoder index before the sink borrows the
        // pair's event list (disjoint arenas keep both live at once).
        let di = if dup {
            usize::MAX
        } else {
            if pair.dec[from_server as usize] == NONE {
                pair.dec[from_server as usize] = decoder_arena.len() as u32;
                decoder_arena.push(StreamDecoder::new(dialect));
            }
            pair.dec[from_server as usize] as usize
        };

        let events = &mut pair.timeline.events;
        let entry = &mut comp_vec[ci];
        let mut sink = |item: StreamItemRef<'_>| match item {
            StreamItemRef::Apdu(apdu) => {
                if strict_folded && apdu.apci.is_i() {
                    entry.i_frames += 1;
                }
                let token = Token::of(&apdu);
                events.push(ApduEvent {
                    t: pkt.timestamp,
                    from_server,
                    token,
                    asdu: apdu.asdu,
                });
            }
            StreamItemRef::Malformed(frame, _) => {
                if strict_accounting && is_i_frame(frame) {
                    entry.tolerant_malformed += 1;
                    if strict_folded {
                        entry.i_frames += 1;
                        entry.strict_malformed += 1;
                    }
                }
            }
        };
        if dup {
            // Re-decode the duplicate standalone so the repeated token
            // appears without corrupting the stream decoder.
            StreamDecoder::new(dialect).feed_each(&pkt.payload, metrics, &mut sink);
        } else {
            decoder_arena[di].feed_each(&pkt.payload, metrics, &mut sink);
        }
    }

    ProtocolViews {
        dialects,
        compliance: comp_ips.into_iter().zip(comp_vec).collect(),
        timelines: pairs
            .into_iter()
            .map(|p| ((p.timeline.server_ip, p.timeline.outstation_ip), p.timeline))
            .collect(),
    }
}

/// A per-outstation sample of delimited frames for dialect detection: one
/// flat byte arena plus frame ranges, instead of a heap `Vec` per frame.
/// Shared with the streaming engine ([`crate::stream`]), which grows the
/// identical sample incrementally.
#[derive(Debug, Default, Clone)]
pub(crate) struct FrameSample {
    buf: Vec<u8>,
    ranges: Vec<std::ops::Range<usize>>,
}

impl FrameSample {
    /// Frames collected so far.
    pub(crate) fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Bytes resident in the sample arena.
    pub(crate) fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Split `payload` into delimited IEC 104 frames (no decoding) and
    /// append them to the arena.
    pub(crate) fn delimit_from(&mut self, payload: &[u8]) {
        let mut off = 0;
        while off + 2 <= payload.len() {
            if payload[off] != 0x68 {
                break;
            }
            let total = 2 + payload[off + 1] as usize;
            if off + total > payload.len() {
                break;
            }
            let start = self.buf.len();
            self.buf.extend_from_slice(&payload[off..off + total]);
            self.ranges.push(start..start + total);
            off += total;
        }
    }

    /// The collected frames as slices into the arena.
    pub(crate) fn frames(&self) -> Vec<&[u8]> {
        self.ranges.iter().map(|r| &self.buf[r.clone()]).collect()
    }
}

/// Control-field peek: is the delimited frame I-format?
pub(crate) fn is_i_frame(frame: &[u8]) -> bool {
    frame.len() >= 3 && frame[0] == 0x68 && frame[2] & 0x01 == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecPolicy;
    use uncharted_iec104::apdu::Apdu as IecApdu;
    use uncharted_iec104::asdu::{InfoObject, IoValue};
    use uncharted_iec104::cot::{Cause, Cot};
    use uncharted_iec104::elements::Qds;
    use uncharted_iec104::types::TypeId;
    use uncharted_nettap::ethernet::MacAddr;
    use uncharted_nettap::ipv4::addr;
    use uncharted_nettap::pcap::CapturedPacket;
    use uncharted_nettap::tcp::{TcpFlags, TcpHeader};

    fn data_packet(
        t: f64,
        src_ip: u32,
        src_port: u16,
        dst_ip: u32,
        dst_port: u16,
        seq: u32,
        payload: &[u8],
    ) -> ParsedPacket {
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
                flags: TcpFlags::ACK.with(TcpFlags::PSH),
                window: 8192,
            },
            payload,
            0,
        )
        .parse()
        .unwrap()
    }

    fn float_apdu(seq: u16, value: f32, dialect: Dialect) -> Vec<u8> {
        let asdu = Asdu::new(TypeId::M_ME_NC_1, Cot::new(Cause::Spontaneous), 7).with_object(
            InfoObject::new(
                720,
                IoValue::FloatMeasurement {
                    value,
                    qds: Qds::GOOD,
                },
            ),
        );
        IecApdu::i_frame(seq, 0, asdu).encode(dialect).unwrap()
    }

    fn build_dataset(dialect: Dialect) -> Dataset {
        let server = addr(10, 0, 0, 1);
        let rtu = addr(10, 1, 5, 9);
        let mut packets = Vec::new();
        let mut seq = 1u32;
        for i in 0..12u16 {
            let payload = float_apdu(i, 130.0 + i as f32, dialect);
            packets.push(data_packet(
                i as f64,
                rtu,
                IEC104_PORT,
                server,
                40001,
                seq,
                &payload,
            ));
            seq += payload.len() as u32;
        }
        Dataset::ingest(packets, &ExecContext::sequential())
    }

    #[test]
    fn standard_traffic_fully_compliant() {
        let ds = build_dataset(Dialect::STANDARD);
        let rtu = addr(10, 1, 5, 9);
        let entry = &ds.compliance[&rtu];
        assert_eq!(entry.i_frames, 12);
        assert_eq!(entry.strict_malformed, 0);
        assert_eq!(entry.tolerant_malformed, 0);
        assert_eq!(ds.dialects[&rtu], Dialect::STANDARD);
        assert!(ds.fully_malformed_outstations().is_empty());
    }

    #[test]
    fn legacy_traffic_flagged_by_strict_recovered_by_tolerant() {
        for legacy in [Dialect::LEGACY_COT, Dialect::LEGACY_IOA] {
            let ds = build_dataset(legacy);
            let rtu = addr(10, 1, 5, 9);
            let entry = &ds.compliance[&rtu];
            assert_eq!(entry.strict_malformed, entry.i_frames, "{legacy}");
            assert_eq!(entry.strict_malformed_fraction(), 1.0);
            assert_eq!(entry.tolerant_malformed, 0, "{legacy}");
            assert_eq!(ds.dialects[&rtu], legacy);
            assert_eq!(ds.fully_malformed_outstations(), vec![rtu]);
        }
    }

    #[test]
    fn timeline_merges_directions_in_time_order() {
        let server = addr(10, 0, 0, 1);
        let rtu = addr(10, 1, 5, 9);
        let i_frame = float_apdu(0, 1.0, Dialect::STANDARD);
        let s_frame = IecApdu::s_frame(1).encode(Dialect::STANDARD).unwrap();
        let packets = vec![
            data_packet(1.0, rtu, IEC104_PORT, server, 40001, 1, &i_frame),
            data_packet(1.5, server, 40001, rtu, IEC104_PORT, 1, &s_frame),
            data_packet(
                2.0,
                rtu,
                IEC104_PORT,
                server,
                40001,
                1 + i_frame.len() as u32,
                &float_apdu(1, 2.0, Dialect::STANDARD),
            ),
        ];
        let ds = Dataset::ingest(packets, &ExecContext::sequential());
        assert_eq!(ds.timelines.len(), 1);
        let tl = &ds.timelines[0];
        let tokens: Vec<String> = tl.tokens().iter().map(|t| t.name()).collect();
        assert_eq!(tokens, vec!["I13", "S", "I13"]);
        assert!(tl.events[1].from_server);
    }

    #[test]
    fn retransmission_produces_repeated_token() {
        let server = addr(10, 0, 0, 1);
        let rtu = addr(10, 1, 5, 9);
        let u16_frame = IecApdu::u_frame(uncharted_iec104::apci::UFunction::TestFrAct)
            .encode(Dialect::STANDARD)
            .unwrap();
        let packets = vec![
            data_packet(1.0, server, 40001, rtu, IEC104_PORT, 77, &u16_frame),
            // Same seq: a TCP retransmission.
            data_packet(1.2, server, 40001, rtu, IEC104_PORT, 77, &u16_frame),
        ];
        let ds = Dataset::ingest(packets, &ExecContext::sequential());
        let tokens = ds.timelines[0].tokens();
        assert_eq!(tokens, vec![Token::U16, Token::U16]);
    }

    /// Five outstations in mixed dialects behind two servers, with a TCP
    /// retransmission, an S-frame per pair and some non-104 chatter, in
    /// time order.
    fn mixed_dialect_packets() -> Vec<ParsedPacket> {
        let dialects = [
            Dialect::STANDARD,
            Dialect::LEGACY_COT,
            Dialect::LEGACY_IOA,
            Dialect::LEGACY_COT,
            Dialect::STANDARD,
        ];
        let servers = [addr(10, 0, 0, 1), addr(10, 0, 0, 2)];
        let mut packets = Vec::new();
        for (o, &dialect) in dialects.iter().enumerate() {
            let rtu = addr(10, 1, 5, 10 + o as u8);
            let server = servers[o % 2];
            let port = 40000 + o as u16;
            let mut seq = 1u32;
            for i in 0..10u16 {
                let payload = float_apdu(i, 50.0 + i as f32, dialect);
                let t = i as f64 + o as f64 * 0.013;
                packets.push(data_packet(
                    t,
                    rtu,
                    IEC104_PORT,
                    server,
                    port,
                    seq,
                    &payload,
                ));
                if i == 4 {
                    // A TCP retransmission (same seq): repeated token, but
                    // decoded standalone.
                    packets.push(data_packet(
                        t + 0.003,
                        rtu,
                        IEC104_PORT,
                        server,
                        port,
                        seq,
                        &payload,
                    ));
                }
                seq += payload.len() as u32;
            }
            let s_frame = IecApdu::s_frame(3).encode(dialect).unwrap();
            packets.push(data_packet(
                4.5 + o as f64 * 0.013,
                server,
                port,
                rtu,
                IEC104_PORT,
                1,
                &s_frame,
            ));
        }
        // Unrelated non-104 chatter: invisible to analysis, but a flow.
        packets.push(data_packet(
            2.5,
            addr(192, 168, 0, 1),
            5000,
            addr(192, 168, 0, 2),
            5001,
            1,
            b"hello",
        ));
        packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        packets
    }

    /// The overlapped build must be bit-identical to the sequential one at
    /// any thread count — same dialects, compliance counters, timelines,
    /// and flow records in the same order.
    #[test]
    fn threaded_build_matches_sequential() {
        let packets = mixed_dialect_packets();
        let seq_ctx = ExecContext::new(ExecPolicy::Sequential);
        let sequential = Dataset::ingest(packets.clone(), &seq_ctx);
        assert_eq!(sequential.timelines.len(), 5);
        let seq_fp = seq_ctx.metrics.snapshot().counter_fingerprint();
        for threads in [2, 3, 8] {
            let ctx = ExecContext::new(ExecPolicy::Threads(threads));
            let threaded = Dataset::ingest(packets.clone(), &ctx);
            assert_eq!(
                threaded.dialects, sequential.dialects,
                "threads = {threads}"
            );
            assert_eq!(
                threaded.compliance, sequential.compliance,
                "threads = {threads}"
            );
            assert_eq!(
                threaded.timelines, sequential.timelines,
                "threads = {threads}"
            );
            assert_eq!(
                threaded.flows.connections, sequential.flows.connections,
                "threads = {threads}"
            );
            assert_eq!(threaded.packets, sequential.packets, "threads = {threads}");
            // Counter totals (not just the Dataset) are policy-independent.
            assert_eq!(
                ctx.metrics.snapshot().counter_fingerprint(),
                seq_fp,
                "threads = {threads}"
            );
        }
        let snap = seq_ctx.metrics.snapshot();
        assert_eq!(
            snap.counter_total("nettap_pcap_records_streamed"),
            packets.len() as u64
        );
        assert!(snap.counter_total("iec104_apdus_parsed") > 0);
        assert!(
            snap.counter_value("iec104_apdus_parsed", &[("dialect", "cot1")])
                .unwrap()
                > 0
        );
    }

    /// The reassembly pass hands session extraction the same packet-stats
    /// table a standalone scan builds, under either schedule, and hands it
    /// over exactly once.
    #[test]
    fn ingest_hands_off_packet_stats_once() {
        let packets = mixed_dialect_packets();
        let scanned = crate::session::packet_stats_of(&packets);
        for policy in [ExecPolicy::Sequential, ExecPolicy::Threads(2)] {
            let ds = Dataset::ingest(packets.clone(), &ExecContext::new(policy));
            assert_eq!(
                ds.take_packet_stats().as_ref(),
                Some(&scanned),
                "{policy:?}"
            );
            assert!(ds.take_packet_stats().is_none(), "{policy:?}");
        }
    }

    /// Session extraction gives the same sessions whether it claims the
    /// ingest's packet stats or, on a later call, rebuilds them from the
    /// packets — and the same under either schedule.
    #[test]
    fn repeated_extract_matches_first() {
        let packets = mixed_dialect_packets();
        let seq_ctx = ExecContext::sequential();
        let seq_ds = Dataset::ingest(packets.clone(), &seq_ctx);
        let first = crate::session::extract(&seq_ds, &seq_ctx);
        assert_eq!(first.len(), 10, "both directions of five pairs");
        assert!(first.iter().all(|s| !s.times.is_empty()));
        assert_eq!(crate::session::extract(&seq_ds, &seq_ctx), first);

        let ctx = ExecContext::new(ExecPolicy::Threads(2));
        let ds = Dataset::ingest(packets, &ctx);
        assert_eq!(crate::session::extract(&ds, &ctx), first);
        assert_eq!(crate::session::extract(&ds, &ctx), first);
    }

    /// `ingest_source` is the same ingest as `Dataset::ingest`, for any
    /// source shape — including out-of-order chains, which it re-sorts.
    #[test]
    fn ingest_source_matches_direct_ingest() {
        let server = addr(10, 0, 0, 1);
        let rtu = addr(10, 1, 5, 9);
        let mut packets = Vec::new();
        let mut seq = 1u32;
        for i in 0..6u16 {
            let payload = float_apdu(i, 1.0 + i as f32, Dialect::STANDARD);
            packets.push(data_packet(
                i as f64,
                rtu,
                IEC104_PORT,
                server,
                40001,
                seq,
                &payload,
            ));
            seq += payload.len() as u32;
        }
        let canonical = Dataset::ingest(packets.clone(), &ExecContext::sequential());
        // Two interleaved halves: the chain yields them file-by-file, and
        // ingest_source merges back into time order.
        let a: Vec<ParsedPacket> = packets.iter().step_by(2).cloned().collect();
        let b: Vec<ParsedPacket> = packets.iter().skip(1).step_by(2).cloned().collect();
        let mut chain = uncharted_nettap::ChainedSource::new(vec![
            Box::new(uncharted_nettap::MemorySource::new(a)),
            Box::new(uncharted_nettap::MemorySource::new(b)),
        ]);
        let via_source = Dataset::ingest_source(&mut chain, &ExecContext::sequential()).unwrap();
        assert_eq!(via_source.packets, canonical.packets);
        assert_eq!(via_source.timelines, canonical.timelines);
        assert_eq!(via_source.compliance, canonical.compliance);
    }

    #[test]
    fn endpoint_sets() {
        let ds = build_dataset(Dialect::STANDARD);
        assert_eq!(ds.outstation_ips().len(), 1);
        assert_eq!(ds.server_ips().len(), 1);
        assert!(ds.timeline(addr(10, 0, 0, 1), addr(10, 1, 5, 9)).is_some());
        assert!(ds.timeline(addr(10, 0, 0, 2), addr(10, 1, 5, 9)).is_none());
    }
}
