//! TCP flow reconstruction from captures.
//!
//! The paper (§6.2) keys flows by the 4-tuple `<srcIP, srcPort, dstIP,
//! dstPort>` and splits them into **short-lived** flows — those with a
//! matching SYN and FIN/RST inside the capture — and **long-lived** flows —
//! those that started before or ended after the capture window. This module
//! rebuilds connections, their per-direction packet timelines, and the
//! reassembled (duplicate-free, in-order) payload streams the IEC 104
//! parsers consume.

use crate::metrics::NettapMetrics;
use crate::pcap::{Capture, ParsedPacket};
use crate::stack::SocketAddr;

/// Canonically ordered endpoint pair identifying a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowKey {
    /// The smaller endpoint under `(ip, port)` ordering.
    pub a: SocketAddr,
    /// The larger endpoint.
    pub b: SocketAddr,
}

/// Hash as one packed 96-bit word: two mixing folds for the whole key
/// instead of a per-field byte fold, which is what the per-packet live
/// index lookup in [`FlowTable::push`] pays on every miss of its memo.
impl std::hash::Hash for FlowKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u128(self.packed());
    }
}

impl FlowKey {
    /// Canonicalise an endpoint pair.
    pub fn new(x: SocketAddr, y: SocketAddr) -> FlowKey {
        if x <= y {
            FlowKey { a: x, b: y }
        } else {
            FlowKey { a: y, b: x }
        }
    }

    /// The key packed into one integer (12 significant bytes).
    fn packed(&self) -> u128 {
        ((self.a.ip as u128) << 96)
            | ((self.b.ip as u128) << 64)
            | ((self.a.port as u128) << 16)
            | self.b.port as u128
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} <-> {}", self.a, self.b)
    }
}

/// Direction within a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From `key.a` to `key.b`.
    AtoB,
    /// From `key.b` to `key.a`.
    BtoA,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::AtoB => Direction::BtoA,
            Direction::BtoA => Direction::AtoB,
        }
    }
}

/// Per-direction accounting and reassembly state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DirectionStats {
    /// Packet count (all segments, including bare ACKs).
    pub packets: usize,
    /// Total frame bytes.
    pub bytes: usize,
    /// Payload bytes after deduplication.
    pub payload_bytes: usize,
    /// Timestamps of every segment in this direction.
    pub times: Vec<f64>,
    /// The reassembled application byte stream (append-only arena: bytes
    /// are written exactly once, at delivery).
    pub stream: Vec<u8>,
    /// Next expected sequence number (reassembly cursor).
    next_seq: Option<u32>,
    /// Out-of-order segments awaiting the gap to fill: `(sequence number,
    /// byte range in `ooo`)`, kept sorted by sequence number. An inline
    /// sorted vec rather than a tree: a reordering episode holds a handful
    /// of segments, and tree nodes were the last per-flow state still
    /// allocating off-arena — with this, everything a flow buffers lives
    /// in two growable arenas (`ooo` + this vec) that allocate only when a
    /// reordering episode actually buffers bytes.
    pending: Vec<(u32, std::ops::Range<usize>)>,
    /// Side arena holding out-of-order payloads, copied once on arrival.
    /// Ranges abandoned by keep-longer collisions or overlap trims stay in
    /// place; the whole arena is reclaimed when `pending` empties, so it
    /// never outgrows one reordering episode.
    ooo: Vec<u8>,
    /// Count of duplicate (retransmitted) payload segments seen.
    pub retransmissions: usize,
    /// In-order segments delivered to `stream` (reassembly successes).
    pub segments_delivered: usize,
    /// Times the reassembly cursor wrapped past 2^32.
    pub seq_wraps: usize,
}

impl DirectionStats {
    fn absorb(&mut self, pkt: &ParsedPacket) {
        self.packets += 1;
        self.bytes += pkt.payload.len() + 54; // frame = 14 + 20 + 20 + payload
        self.times.push(pkt.timestamp);
        if pkt.tcp.flags.syn() {
            self.next_seq = Some(pkt.tcp.seq.wrapping_add(1));
        }
        if pkt.payload.is_empty() {
            return;
        }
        let seq = pkt.tcp.seq;
        let next = *self.next_seq.get_or_insert(seq);
        if self.pending.is_empty() {
            // Fast path: with nothing buffered the segment's fate depends
            // only on its position (modulo 2^32) relative to the cursor, so
            // in-order payload — and the new tail of a partial overlap —
            // goes straight into `stream` without an intermediate copy.
            let rel = seq.wrapping_sub(next) as i32;
            if rel == 0 {
                self.deliver(next, pkt.payload.len(), |stream, _| {
                    stream.extend_from_slice(&pkt.payload)
                });
                return;
            }
            if rel < 0 {
                // The prefix up to the cursor is a retransmission, but any
                // bytes past it are new data: trim and deliver the tail.
                self.retransmissions += 1;
                let overlap = next.wrapping_sub(seq) as usize;
                if overlap < pkt.payload.len() {
                    self.deliver(next, pkt.payload.len() - overlap, |stream, _| {
                        stream.extend_from_slice(&pkt.payload[overlap..])
                    });
                }
                return;
            }
            // rel > 0: a future segment — fall through and buffer it.
        }
        // Buffer the segment: one copy into the side arena, a range in
        // `pending`. `flush` decides (modulo 2^32, relative to the cursor)
        // whether it is in-order, future, a duplicate, or a partial overlap
        // needing its already-delivered prefix trimmed. On a same-seq
        // collision keep the longer payload.
        let start = self.ooo.len();
        let slot = match self.pending.binary_search_by_key(&seq, |e| e.0) {
            Ok(i) => i,
            Err(i) => {
                self.pending.insert(i, (seq, start..start));
                i
            }
        };
        if pkt.payload.len() > self.pending[slot].1.len() {
            self.ooo.extend_from_slice(&pkt.payload);
            self.pending[slot].1 = start..self.ooo.len();
        }
        self.flush();
    }

    /// Advance the cursor by `len` bytes and append them to `stream` via
    /// `write` (which gets `(stream, ooo)` so arena ranges can deliver too).
    fn deliver(&mut self, next: u32, len: usize, write: impl FnOnce(&mut Vec<u8>, &[u8])) {
        let advanced = next.wrapping_add(len as u32);
        if advanced < next {
            self.seq_wraps += 1;
        }
        self.next_seq = Some(advanced);
        self.payload_bytes += len;
        write(&mut self.stream, &self.ooo);
        self.segments_delivered += 1;
    }

    fn flush(&mut self) {
        while let Some(next) = self.next_seq {
            // Pick the segment closest to the cursor in *wrapping* order,
            // not numeric key order: after a 2^32 sequence wraparound the
            // numerically-smallest key can be far in the future while the
            // in-order segment sits near u32::MAX, and a numeric scan would
            // stall reassembly forever. The vec is small (one reordering
            // episode), so a linear scan beats maintaining wrapping order.
            let Some((pos, seq)) = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, (s, _))| s.wrapping_sub(next) as i32)
                .map(|(i, &(s, _))| (i, s))
            else {
                break;
            };
            let rel = seq.wrapping_sub(next) as i32;
            if rel > 0 {
                // True gap: wait for the missing segment.
                break;
            }
            let range = self.pending.remove(pos).1;
            if rel == 0 {
                self.deliver(next, range.len(), |stream, ooo| {
                    stream.extend_from_slice(&ooo[range])
                });
            } else {
                // Starts before the cursor: the prefix is a retransmission,
                // but any bytes past the cursor are new data — trim the
                // delivered prefix and keep the remainder instead of
                // discarding the whole segment. The trim is a range
                // adjustment, not a copy.
                self.retransmissions += 1;
                let overlap = next.wrapping_sub(seq) as usize;
                if overlap < range.len() {
                    let tail = range.start + overlap..range.end;
                    match self.pending.binary_search_by_key(&next, |e| e.0) {
                        Ok(i) => {
                            if tail.len() > self.pending[i].1.len() {
                                self.pending[i].1 = tail;
                            }
                        }
                        Err(i) => self.pending.insert(i, (next, tail)),
                    }
                }
            }
        }
        // Everything buffered was delivered or superseded: reclaim the
        // arena so it never outgrows one reordering episode.
        if self.pending.is_empty() && !self.ooo.is_empty() {
            self.ooo.clear();
        }
    }

    /// Mean inter-arrival time between consecutive segments, if ≥ 2 packets.
    ///
    /// Invariant: capture timestamps are expected to be non-decreasing
    /// within a direction (pcap readers deliver records in file order, and
    /// merged captures are sorted before reconstruction). When that is
    /// violated — a clock stepping backwards mid-capture, or a corrupt
    /// record carrying a garbage timestamp — the first-to-last span is
    /// meaningless, so this returns `None` rather than a negative or
    /// non-finite mean.
    pub fn mean_interarrival(&self) -> Option<f64> {
        if self.times.len() < 2 {
            return None;
        }
        let span = self.times.last().unwrap() - self.times.first().unwrap();
        if !span.is_finite() || span < 0.0 {
            return None;
        }
        Some(span / (self.times.len() - 1) as f64)
    }

    /// Bytes currently resident in this direction's growable buffers: the
    /// reassembled stream, the out-of-order side arena, and the timestamp
    /// log.
    pub fn buffered_bytes(&self) -> usize {
        self.stream.len() + self.ooo.len() + self.times.len() * std::mem::size_of::<f64>()
    }

    /// Release the reassembled stream and timestamp log, returning the
    /// number of bytes freed.
    ///
    /// All counters (`packets`, `bytes`, `payload_bytes`, retransmission and
    /// delivery counts) and the live reassembly state — the sequence cursor,
    /// pending out-of-order ranges, and their side arena — are preserved, so
    /// reassembly continues seamlessly on the next segment. Only the
    /// *accumulated history* is dropped: `stream` restarts empty and
    /// [`DirectionStats::mean_interarrival`] returns `None` until two more
    /// packets arrive. The streaming engine calls this between batches to
    /// keep long-lived connections from holding their whole payload history.
    pub fn trim_buffers(&mut self) -> usize {
        let freed = self.stream.len() + self.times.len() * std::mem::size_of::<f64>();
        self.stream = Vec::new();
        self.times = Vec::new();
        freed
    }
}

/// A reconstructed TCP connection.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpConnection {
    /// The canonical endpoint pair.
    pub key: FlowKey,
    /// Who sent the SYN, when the handshake is inside the capture.
    pub originator: Option<SocketAddr>,
    /// First packet timestamp.
    pub first_ts: f64,
    /// Last packet timestamp.
    pub last_ts: f64,
    /// Saw a SYN (without ACK) in the capture.
    pub saw_syn: bool,
    /// Saw a SYN-ACK.
    pub saw_synack: bool,
    /// Saw a FIN.
    pub saw_fin: bool,
    /// Saw an RST.
    pub saw_rst: bool,
    /// a→b direction state.
    pub ab: DirectionStats,
    /// b→a direction state.
    pub ba: DirectionStats,
}

impl TcpConnection {
    fn new(key: FlowKey, ts: f64) -> TcpConnection {
        TcpConnection {
            key,
            originator: None,
            first_ts: ts,
            last_ts: ts,
            saw_syn: false,
            saw_synack: false,
            saw_fin: false,
            saw_rst: false,
            ab: DirectionStats::default(),
            ba: DirectionStats::default(),
        }
    }

    /// Duration between first and last captured packet.
    pub fn duration(&self) -> f64 {
        self.last_ts - self.first_ts
    }

    /// The paper's short-lived definition: a matching SYN and FIN/RST pair
    /// inside the capture.
    pub fn is_short_lived(&self) -> bool {
        self.saw_syn && (self.saw_fin || self.saw_rst)
    }

    /// Long-lived: truncated at either capture boundary.
    pub fn is_long_lived(&self) -> bool {
        !self.is_short_lived()
    }

    /// Whether the connection was refused or torn down by RST.
    pub fn was_reset(&self) -> bool {
        self.saw_rst
    }

    /// Total packets both directions.
    pub fn total_packets(&self) -> usize {
        self.ab.packets + self.ba.packets
    }

    /// Direction of a packet from `src`.
    pub fn direction_from(&self, src: SocketAddr) -> Direction {
        if src == self.key.a {
            Direction::AtoB
        } else {
            Direction::BtoA
        }
    }

    /// Stats for one direction.
    pub fn dir(&self, d: Direction) -> &DirectionStats {
        match d {
            Direction::AtoB => &self.ab,
            Direction::BtoA => &self.ba,
        }
    }

    /// The endpoint on the IEC 104 well-known port (2404), i.e. the
    /// outstation side, if either endpoint uses it.
    pub fn endpoint_on_port(&self, port: u16) -> Option<SocketAddr> {
        if self.key.a.port == port {
            Some(self.key.a)
        } else if self.key.b.port == port {
            Some(self.key.b)
        } else {
            None
        }
    }

    fn absorb(&mut self, pkt: &ParsedPacket) {
        self.last_ts = self.last_ts.max(pkt.timestamp);
        self.first_ts = self.first_ts.min(pkt.timestamp);
        let src = SocketAddr::new(pkt.ip.src, pkt.tcp.src_port);
        let flags = pkt.tcp.flags;
        if flags.syn() && !flags.ack() {
            self.saw_syn = true;
            self.originator = Some(src);
        }
        if flags.syn() && flags.ack() {
            self.saw_synack = true;
        }
        if flags.fin() {
            self.saw_fin = true;
        }
        if flags.rst() {
            self.saw_rst = true;
        }
        match self.direction_from(src) {
            Direction::AtoB => self.ab.absorb(pkt),
            Direction::BtoA => self.ba.absorb(pkt),
        }
    }

    /// True once this record saw an orderly or abortive end.
    fn seems_over(&self) -> bool {
        self.saw_rst || self.saw_fin
    }

    /// Bytes resident in this connection's growable buffers, both
    /// directions (see [`DirectionStats::buffered_bytes`]).
    pub fn buffered_bytes(&self) -> usize {
        self.ab.buffered_bytes() + self.ba.buffered_bytes()
    }

    /// Release both directions' accumulated payload/timestamp history,
    /// returning bytes freed; see [`DirectionStats::trim_buffers`].
    pub fn trim_buffers(&mut self) -> usize {
        self.ab.trim_buffers() + self.ba.trim_buffers()
    }
}

/// All connections reconstructed from a capture.
#[derive(Debug, Default)]
pub struct FlowTable {
    /// Finished + in-progress connection records, in first-seen order.
    pub connections: Vec<TcpConnection>,
    /// Index of the live record per key (packed-key mixing hash).
    live: uncharted_obs::MixHashMap<FlowKey, usize>,
    /// The last key routed by [`FlowTable::push`] and where it went.
    /// Captured traffic arrives in per-connection bursts (and both
    /// directions share one canonical key), so most packets resolve here
    /// without touching the index at all. Must be kept coherent with
    /// `live`: updated on every insert, cleared by eviction sweeps.
    memo: Option<(FlowKey, usize)>,
    /// Direct-mapped routing cache in front of `live` for the interleaved
    /// case the single-entry memo misses. Same coherence rule as the memo.
    route: uncharted_obs::SlotCache<u128, 4096>,
}

impl FlowTable {
    /// Reconstruct from an in-memory capture.
    pub fn from_capture(capture: &Capture) -> FlowTable {
        Self::reconstruct(&capture.parsed(), NettapMetrics::sink())
    }

    /// Reconstruct flows from already parsed packets (must be in time
    /// order): one [`FlowTable::push`] per packet on the calling thread.
    ///
    /// Metrics recorded on `metrics`: the `flows` stage span, reassembly
    /// counters summed from the per-direction accounting, and the
    /// payload-size histogram.
    pub fn reconstruct(packets: &[ParsedPacket], metrics: &NettapMetrics) -> FlowTable {
        let _span = metrics.flows_stage.span();
        let _shard = metrics.flows_stage.shard_span(0);
        let mut table = FlowTable::default();
        // The payload-size histogram rides the same pass — a separate
        // observation loop would walk the whole capture a second time.
        for pkt in packets {
            table.push(pkt);
            if !pkt.payload.is_empty() {
                metrics
                    .segment_payload_octets
                    .observe(pkt.payload.len() as u64);
            }
        }
        table.record_reassembly_metrics(metrics);
        table
    }

    /// Sum the per-direction reassembly accounting into the shared counters
    /// and record the flow count as this run's `flows` stage items. Called
    /// once per reconstruction, after all packets are absorbed; batch ingest
    /// calls it after its own fused push loop instead of going through
    /// [`FlowTable::reconstruct`].
    pub fn record_reassembly_metrics(&self, metrics: &NettapMetrics) {
        let mut delivered = 0usize;
        let mut overlaps = 0usize;
        let mut wraps = 0usize;
        for conn in &self.connections {
            for dir in [&conn.ab, &conn.ba] {
                delivered += dir.segments_delivered;
                overlaps += dir.retransmissions;
                wraps += dir.seq_wraps;
            }
        }
        metrics.segments_reassembled.add(delivered as u64);
        metrics.overlaps_trimmed.add(overlaps as u64);
        metrics.seq_wraparounds.add(wraps as u64);
        metrics.flows_stage.add_items(self.len() as u64);
    }

    /// Feed one packet.
    pub fn push(&mut self, pkt: &ParsedPacket) {
        let src = SocketAddr::new(pkt.ip.src, pkt.tcp.src_port);
        let dst = SocketAddr::new(pkt.ip.dst, pkt.tcp.dst_port);
        let key = FlowKey::new(src, dst);
        let flags = pkt.tcp.flags;
        // Route to the live record: last-key memo, then the direct-mapped
        // cache, then the index map. All three answer identically; the
        // cheaper tiers just skip the hashing.
        let packed = key.packed();
        let hit = match self.memo {
            Some((memo_key, idx)) if memo_key == key => Some(idx),
            _ => self.route.get(packed).map(|slot| slot as usize),
        };
        let idx = match hit.or_else(|| self.live.get(&key).copied()) {
            Some(idx) => {
                // A fresh SYN on a finished record opens a new connection
                // (4-tuple reuse across reconnect attempts).
                let fresh_syn = flags.syn() && !flags.ack();
                if fresh_syn && self.connections[idx].seems_over() {
                    let idx = self.connections.len();
                    self.connections
                        .push(TcpConnection::new(key, pkt.timestamp));
                    self.live.insert(key, idx);
                    idx
                } else {
                    idx
                }
            }
            None => {
                let idx = self.connections.len();
                self.connections
                    .push(TcpConnection::new(key, pkt.timestamp));
                self.live.insert(key, idx);
                idx
            }
        };
        self.memo = Some((key, idx));
        self.route.put(packed, idx as u32);
        self.connections[idx].absorb(pkt);
    }

    /// Evict connections whose last captured packet is older than
    /// `now - idle`, returning them in first-seen order.
    ///
    /// This is the streaming engine's reclamation hook: an evicted record is
    /// *final* — its reassembly state is frozen mid-flight if segments were
    /// still pending — and the caller owns it from here (folding its
    /// counters, emitting an event, dropping its buffers). Surviving
    /// connections are untouched: their records keep their first-seen
    /// relative order and the live-record index is rebuilt to point at the
    /// same records it did before, so a flow that straddles an eviction
    /// sweep reassembles exactly as it would have without one.
    ///
    /// `now` is capture time (seconds), matching packet timestamps; a
    /// non-finite `now` or `idle` evicts nothing. If the same 4-tuple later
    /// reappears, [`FlowTable::push`] simply opens a fresh record, exactly
    /// as it does for 4-tuple reuse after FIN/RST.
    pub fn evict_idle(&mut self, now: f64, idle: f64) -> Vec<TcpConnection> {
        let cutoff = now - idle;
        if !cutoff.is_finite() {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        let mut survivors = Vec::with_capacity(self.connections.len());
        for conn in self.connections.drain(..) {
            if conn.last_ts < cutoff {
                evicted.push(conn);
            } else {
                survivors.push(conn);
            }
        }
        self.connections = survivors;
        // Rebuild the live index by re-inserting survivors in order, which
        // leaves it pointing at the latest record per key exactly as
        // incremental `push` would have.
        self.live.clear();
        self.memo = None;
        self.route.clear();
        for (idx, conn) in self.connections.iter().enumerate() {
            self.live.insert(conn.key, idx);
        }
        evicted
    }

    /// Bytes resident in every connection's growable buffers (the streaming
    /// engine's `stream_resident_bytes` gauge source).
    pub fn buffered_bytes(&self) -> usize {
        self.connections.iter().map(|c| c.buffered_bytes()).sum()
    }

    /// Release accumulated payload/timestamp history for every connection,
    /// returning total bytes freed; see [`DirectionStats::trim_buffers`].
    pub fn trim_buffers(&mut self) -> usize {
        self.connections.iter_mut().map(|c| c.trim_buffers()).sum()
    }

    /// Number of reconstructed connections.
    pub fn len(&self) -> usize {
        self.connections.len()
    }

    /// True when no connections were reconstructed.
    pub fn is_empty(&self) -> bool {
        self.connections.is_empty()
    }

    /// Short-lived connections (paper Table 3 numerator).
    pub fn short_lived(&self) -> impl Iterator<Item = &TcpConnection> {
        self.connections.iter().filter(|c| c.is_short_lived())
    }

    /// Long-lived connections.
    pub fn long_lived(&self) -> impl Iterator<Item = &TcpConnection> {
        self.connections.iter().filter(|c| c.is_long_lived())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ethernet::MacAddr;
    use crate::ipv4::addr;
    use crate::pcap::CapturedPacket;
    use crate::tcp::{TcpFlags, TcpHeader};

    fn pkt(
        ts: f64,
        src: SocketAddr,
        dst: SocketAddr,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> ParsedPacket {
        CapturedPacket::build(
            ts,
            MacAddr::from_device_id(1),
            MacAddr::from_device_id(2),
            src.ip,
            dst.ip,
            TcpHeader {
                src_port: src.port,
                dst_port: dst.port,
                seq,
                ack,
                flags,
                window: 8192,
            },
            payload,
            0,
        )
        .parse()
        .unwrap()
    }

    fn server() -> SocketAddr {
        SocketAddr::new(addr(10, 0, 0, 1), 34567)
    }
    fn rtu() -> SocketAddr {
        SocketAddr::new(addr(10, 0, 7, 9), 2404)
    }

    /// Sequential reconstruction against the discard metrics sink.
    fn table_of(packets: &[ParsedPacket]) -> FlowTable {
        FlowTable::reconstruct(packets, NettapMetrics::sink())
    }

    /// SYN → RST: the Fig. 9 refused backup connection.
    #[test]
    fn refused_connection_is_short_lived() {
        let packets = vec![
            pkt(10.0, server(), rtu(), 100, 0, TcpFlags::SYN, b""),
            pkt(
                10.001,
                rtu(),
                server(),
                0,
                101,
                TcpFlags::RST.with(TcpFlags::ACK),
                b"",
            ),
        ];
        let table = table_of(&packets);
        assert_eq!(table.len(), 1);
        let c = &table.connections[0];
        assert!(c.is_short_lived());
        assert!(c.was_reset());
        assert!(c.duration() < 1.0);
        assert_eq!(c.originator, Some(server()));
    }

    #[test]
    fn full_connection_with_data_and_fin() {
        let s = server();
        let r = rtu();
        let packets = vec![
            pkt(0.0, s, r, 100, 0, TcpFlags::SYN, b""),
            pkt(0.01, r, s, 500, 101, TcpFlags::SYN.with(TcpFlags::ACK), b""),
            pkt(0.02, s, r, 101, 501, TcpFlags::ACK, b""),
            pkt(
                1.0,
                s,
                r,
                101,
                501,
                TcpFlags::ACK.with(TcpFlags::PSH),
                b"\x68\x04\x07\x00\x00\x00",
            ),
            pkt(1.01, r, s, 501, 107, TcpFlags::ACK, b""),
            pkt(2.0, s, r, 107, 501, TcpFlags::FIN.with(TcpFlags::ACK), b""),
            pkt(2.01, r, s, 501, 108, TcpFlags::FIN.with(TcpFlags::ACK), b""),
            pkt(2.02, s, r, 108, 502, TcpFlags::ACK, b""),
        ];
        let table = table_of(&packets);
        assert_eq!(table.len(), 1);
        let c = &table.connections[0];
        assert!(c.is_short_lived());
        assert!(!c.was_reset());
        assert!((c.duration() - 2.02).abs() < 1e-9);
        // Payload reassembly: the server→rtu stream holds the APDU.
        let dir = c.direction_from(s);
        assert_eq!(c.dir(dir).stream, b"\x68\x04\x07\x00\x00\x00");
        assert_eq!(c.dir(dir).packets, 5);
        assert_eq!(c.dir(dir.flip()).packets, 3);
    }

    #[test]
    fn flow_without_syn_is_long_lived() {
        // Capture begins mid-connection: only data packets.
        let s = server();
        let r = rtu();
        let packets = vec![
            pkt(
                5.0,
                r,
                s,
                900,
                100,
                TcpFlags::ACK.with(TcpFlags::PSH),
                b"abc",
            ),
            pkt(
                6.0,
                r,
                s,
                903,
                100,
                TcpFlags::ACK.with(TcpFlags::PSH),
                b"def",
            ),
        ];
        let table = table_of(&packets);
        let c = &table.connections[0];
        assert!(c.is_long_lived());
        assert_eq!(c.dir(c.direction_from(r)).stream, b"abcdef");
    }

    #[test]
    fn retransmission_deduplicated() {
        let s = server();
        let r = rtu();
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let packets = vec![
            pkt(1.0, r, s, 900, 100, data, b"abc"),
            pkt(1.2, r, s, 900, 100, data, b"abc"), // retransmission
            pkt(1.4, r, s, 903, 100, data, b"def"),
        ];
        let table = table_of(&packets);
        let c = &table.connections[0];
        let d = c.dir(c.direction_from(r));
        assert_eq!(d.stream, b"abcdef");
        assert_eq!(d.retransmissions, 1);
        assert_eq!(d.packets, 3, "packets still counted");
    }

    #[test]
    fn out_of_order_segments_reassembled() {
        let s = server();
        let r = rtu();
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let packets = vec![
            pkt(1.0, r, s, 900, 100, data, b"abc"),
            pkt(1.1, r, s, 906, 100, data, b"ghi"), // arrives early
            pkt(1.2, r, s, 903, 100, data, b"def"),
        ];
        let table = table_of(&packets);
        let c = &table.connections[0];
        assert_eq!(c.dir(c.direction_from(r)).stream, b"abcdefghi");
    }

    /// Regression: a segment that re-sends delivered bytes but carries new
    /// data past the cursor must have its prefix trimmed, not be dropped
    /// wholesale as a retransmission.
    #[test]
    fn partially_overlapping_segment_delivers_new_tail() {
        let s = server();
        let r = rtu();
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let packets = vec![
            pkt(1.0, r, s, 900, 100, data, b"abcdef"),
            // Re-sends "def" (900+3..900+6) but extends with "ghi".
            pkt(1.2, r, s, 903, 100, data, b"defghi"),
        ];
        let table = table_of(&packets);
        let c = &table.connections[0];
        let d = c.dir(c.direction_from(r));
        assert_eq!(d.stream, b"abcdefghi");
        assert_eq!(d.retransmissions, 1, "overlapping prefix counted");
        assert_eq!(d.payload_bytes, 9);
    }

    /// Regression: reassembly must not stall when sequence numbers wrap
    /// past 2^32. A numeric scan of the pending map sees the post-wrap
    /// segment (small key) first, misreads it as a future gap, and never
    /// delivers the in-order segment sitting near u32::MAX.
    #[test]
    fn reassembly_survives_seq_wraparound() {
        let s = server();
        let r = rtu();
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let start = u32::MAX - 5;
        let mut dir = DirectionStats::default();
        dir.absorb(&pkt(0.9, r, s, start, 100, data, b"abc")); // cursor -> MAX-2
                                                               // Early post-wrap segment: numerically tiny key, buffered as a gap.
        dir.absorb(&pkt(1.0, r, s, 0, 100, data, b"ghi"));
        // In-order pre-wrap segment: a numeric scan of pending would see
        // key 1 first, misread it as the frontier, and stall here.
        dir.absorb(&pkt(1.1, r, s, u32::MAX - 2, 100, data, b"def"));
        assert_eq!(dir.stream, b"abcdefghi");
        assert_eq!(dir.payload_bytes, 9);
        assert_eq!(dir.retransmissions, 0);
    }

    /// Regression companion: an early post-wrap segment buffered while the
    /// cursor still sits below u32::MAX must not be pruned as stale.
    #[test]
    fn early_post_wrap_segment_waits_for_cursor() {
        let r = rtu();
        let s = server();
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let start = u32::MAX - 2;
        let mut dir = DirectionStats::default();
        dir.absorb(&pkt(0.5, r, s, start, 100, data, b"abc")); // cursor wraps to 0
        dir.absorb(&pkt(0.6, r, s, 0, 100, data, b"def"));
        assert_eq!(dir.stream, b"abcdef");
        assert_eq!(dir.retransmissions, 0);
    }

    #[test]
    fn four_tuple_reuse_after_rst_starts_new_record() {
        let s = server();
        let r = rtu();
        let packets = vec![
            pkt(1.0, s, r, 100, 0, TcpFlags::SYN, b""),
            pkt(1.001, r, s, 0, 101, TcpFlags::RST.with(TcpFlags::ACK), b""),
            // Same 4-tuple, new attempt two seconds later.
            pkt(3.0, s, r, 7000, 0, TcpFlags::SYN, b""),
            pkt(3.001, r, s, 0, 7001, TcpFlags::RST.with(TcpFlags::ACK), b""),
        ];
        let table = table_of(&packets);
        assert_eq!(table.len(), 2);
        assert!(table.connections.iter().all(|c| c.is_short_lived()));
    }

    #[test]
    fn mean_interarrival() {
        let s = server();
        let r = rtu();
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let packets = vec![
            pkt(0.0, r, s, 1, 1, data, b"a"),
            pkt(2.0, r, s, 2, 1, data, b"b"),
            pkt(4.0, r, s, 3, 1, data, b"c"),
        ];
        let table = table_of(&packets);
        let c = &table.connections[0];
        let d = c.dir(c.direction_from(r));
        assert_eq!(d.mean_interarrival(), Some(2.0));
        assert_eq!(c.dir(c.direction_from(s)).mean_interarrival(), None);
    }

    /// Batch ingest runs its own fused `push` loop and then
    /// `record_reassembly_metrics` instead of calling `reconstruct`; the two
    /// must agree: same records, same order, same live index and counters.
    #[test]
    fn push_loop_matches_reconstruct() {
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let mut packets = Vec::new();
        // Eight interleaved connections from distinct servers, with
        // handshakes, out-of-order data, retransmissions, and teardown.
        for i in 0..8u32 {
            let s = SocketAddr::new(addr(10, 0, 0, 1 + i as u8), 40000 + i as u16);
            let r = SocketAddr::new(addr(10, 0, 7, 1 + (i % 3) as u8), 2404);
            let t0 = i as f64 * 0.01;
            packets.push(pkt(t0, s, r, 100, 0, TcpFlags::SYN, b""));
            packets.push(pkt(
                t0 + 1.0,
                r,
                s,
                500,
                101,
                TcpFlags::SYN.with(TcpFlags::ACK),
                b"",
            ));
            packets.push(pkt(t0 + 2.0, s, r, 101, 501, data, b"abc"));
            packets.push(pkt(t0 + 3.0, s, r, 107, 501, data, b"ghi")); // early
            packets.push(pkt(t0 + 4.0, s, r, 104, 501, data, b"def")); // fills gap
            packets.push(pkt(t0 + 5.0, s, r, 104, 501, data, b"def")); // retransmit
            if i % 2 == 0 {
                packets.push(pkt(
                    t0 + 6.0,
                    s,
                    r,
                    110,
                    501,
                    TcpFlags::FIN.with(TcpFlags::ACK),
                    b"",
                ));
                // 4-tuple reuse: a fresh attempt after the close.
                packets.push(pkt(t0 + 7.0, s, r, 9000, 0, TcpFlags::SYN, b""));
            }
        }
        packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        let rec_reg = uncharted_obs::MetricsRegistry::new();
        let rec = FlowTable::reconstruct(&packets, &NettapMetrics::register(&rec_reg));
        assert_eq!(rec.len(), 12, "eight connections plus four reuses");

        let push_reg = uncharted_obs::MetricsRegistry::new();
        let push_metrics = NettapMetrics::register(&push_reg);
        let mut pushed = FlowTable::default();
        for p in &packets {
            pushed.push(p);
            if !p.payload.is_empty() {
                push_metrics
                    .segment_payload_octets
                    .observe(p.payload.len() as u64);
            }
        }
        pushed.record_reassembly_metrics(&push_metrics);
        assert_eq!(pushed.connections, rec.connections);
        assert_eq!(pushed.live, rec.live);
        assert_eq!(
            push_reg.snapshot().counter_fingerprint(),
            rec_reg.snapshot().counter_fingerprint()
        );
        let snap = rec_reg.snapshot();
        assert!(snap.counter_total("nettap_segments_reassembled") > 0);
        assert!(snap.counter_total("nettap_overlaps_trimmed") > 0);
    }

    /// Regression (timestamp invariant): when captured timestamps regress,
    /// the span is meaningless and the mean must be `None`, not negative.
    #[test]
    fn mean_interarrival_rejects_regressed_timestamps() {
        let s = server();
        let r = rtu();
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let mut dir = DirectionStats::default();
        dir.absorb(&pkt(10.0, r, s, 1, 1, data, b"a"));
        dir.absorb(&pkt(4.0, r, s, 2, 1, data, b"b")); // clock stepped back
        assert_eq!(dir.mean_interarrival(), None);

        // A corrupt record carrying a NaN timestamp must not poison the
        // mean either.
        let mut dir = DirectionStats::default();
        dir.absorb(&pkt(1.0, r, s, 1, 1, data, b"a"));
        dir.absorb(&pkt(f64::NAN, r, s, 2, 1, data, b"b"));
        assert_eq!(dir.mean_interarrival(), None);
    }

    #[test]
    fn evict_idle_returns_idle_flows_in_first_seen_order() {
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let mut table = FlowTable::default();
        let r = rtu();
        let old1 = SocketAddr::new(addr(10, 0, 0, 1), 40001);
        let old2 = SocketAddr::new(addr(10, 0, 0, 2), 40002);
        let live = SocketAddr::new(addr(10, 0, 0, 3), 40003);
        table.push(&pkt(1.0, old1, r, 100, 0, data, b"abc"));
        table.push(&pkt(2.0, old2, r, 100, 0, data, b"def"));
        table.push(&pkt(90.0, live, r, 100, 0, data, b"ghi"));

        let evicted = table.evict_idle(100.0, 30.0);
        assert_eq!(evicted.len(), 2);
        assert_eq!(evicted[0].key, FlowKey::new(old1, r));
        assert_eq!(evicted[1].key, FlowKey::new(old2, r));
        assert_eq!(table.len(), 1);
        assert_eq!(table.connections[0].key, FlowKey::new(live, r));

        // The survivor's live index still routes packets to its record.
        table.push(&pkt(101.0, live, r, 103, 0, data, b"jkl"));
        assert_eq!(table.len(), 1);
        let c = &table.connections[0];
        assert_eq!(c.dir(c.direction_from(live)).stream, b"ghijkl");

        // An evicted 4-tuple that comes back opens a fresh record.
        table.push(&pkt(102.0, old1, r, 500, 0, data, b"new"));
        assert_eq!(table.len(), 2);
        let c = &table.connections[1];
        assert_eq!(c.dir(c.direction_from(old1)).stream, b"new");
    }

    /// Evicting a flow mid-reassembly — pending bytes buffered, an
    /// out-of-order segment still outstanding — must hand back a cleanly
    /// frozen record and must not perturb the surviving flows' reassembly
    /// or counters.
    #[test]
    fn evict_idle_mid_reassembly_leaves_survivors_untouched() {
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let r = rtu();
        let stuck = SocketAddr::new(addr(10, 0, 0, 1), 40001);
        let healthy = SocketAddr::new(addr(10, 0, 0, 2), 40002);

        // Same interleaved traffic, with and without the stuck flow.
        let stuck_pkts = [
            pkt(1.0, stuck, r, 100, 0, data, b"abc"),
            // Gap at 103: this segment stays pending forever.
            pkt(1.5, stuck, r, 106, 0, data, b"ghi"),
        ];
        let healthy_pkts = [
            pkt(1.2, healthy, r, 200, 0, data, b"one"),
            pkt(40.0, healthy, r, 206, 0, data, b"thr"), // out of order
            pkt(41.0, healthy, r, 203, 0, data, b"two"), // fills the gap
        ];

        let mut table = FlowTable::default();
        for p in [
            &stuck_pkts[0],
            &healthy_pkts[0],
            &stuck_pkts[1],
            &healthy_pkts[1],
        ] {
            table.push(p);
        }
        let evicted = table.evict_idle(41.5, 30.0);
        assert_eq!(evicted.len(), 1, "only the stuck flow is idle");
        let frozen = &evicted[0];
        assert_eq!(frozen.key, FlowKey::new(stuck, r));
        let d = frozen.dir(frozen.direction_from(stuck));
        assert_eq!(d.stream, b"abc", "delivered prefix survives the freeze");
        assert_eq!(d.payload_bytes, 3);
        assert_eq!(d.segments_delivered, 1);
        assert!(
            d.buffered_bytes() > d.stream.len(),
            "pending out-of-order bytes are still accounted"
        );
        table.push(&healthy_pkts[2]);

        // Reference: the healthy flow alone, no eviction sweep.
        let mut solo = FlowTable::default();
        for p in &healthy_pkts {
            solo.push(p);
        }
        let got = &table.connections[0];
        let want = &solo.connections[0];
        assert_eq!(got, want, "survivor must be bit-identical to a solo run");
        let gd = got.dir(got.direction_from(healthy));
        assert_eq!(gd.stream, b"onetwothr");
        assert_eq!(gd.retransmissions, 0);
    }

    #[test]
    fn trim_buffers_frees_history_but_keeps_reassembly_state() {
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let r = rtu();
        let s = server();
        let mut table = FlowTable::default();
        table.push(&pkt(1.0, s, r, 100, 0, data, b"abc"));
        // Out-of-order segment left pending across the trim.
        table.push(&pkt(1.1, s, r, 106, 0, data, b"ghi"));
        let before = table.buffered_bytes();
        assert!(before > 0);

        let freed = table.trim_buffers();
        assert!(freed > 0);
        assert!(table.buffered_bytes() < before);
        let c = &table.connections[0];
        let d = c.dir(c.direction_from(s));
        assert!(d.stream.is_empty());
        assert_eq!(d.payload_bytes, 3, "counters survive the trim");
        assert_eq!(d.packets, 2);

        // The pending segment still completes once the gap fills.
        table.push(&pkt(1.2, s, r, 103, 0, data, b"def"));
        let c = &table.connections[0];
        let d = c.dir(c.direction_from(s));
        assert_eq!(d.stream, b"defghi", "post-trim delivery continues");
        assert_eq!(d.payload_bytes, 9);
        assert_eq!(d.segments_delivered, 3);
    }

    #[test]
    fn endpoint_on_port_finds_outstation_side() {
        let packets = vec![pkt(0.0, server(), rtu(), 1, 0, TcpFlags::SYN, b"")];
        let table = table_of(&packets);
        assert_eq!(table.connections[0].endpoint_on_port(2404), Some(rtu()));
        assert_eq!(table.connections[0].endpoint_on_port(9999), None);
    }
}
