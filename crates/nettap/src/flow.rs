//! TCP flow reconstruction from captures.
//!
//! The paper (§6.2) keys flows by the 4-tuple `<srcIP, srcPort, dstIP,
//! dstPort>` and splits them into **short-lived** flows — those with a
//! matching SYN and FIN/RST inside the capture — and **long-lived** flows —
//! those that started before or ended after the capture window. This module
//! rebuilds connections and their per-direction accounting, and tracks TCP
//! reassembly as sequence intervals: it counts duplicate-free, in-order
//! delivery without copying payload bytes, and reports each delivered range
//! to an optional observer ([`FlowTable::push_with`]).

use std::collections::VecDeque;

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
///
/// Reassembly tracks sequence numbers only: it holds no payload bytes.
/// Each in-order delivery advances the cursor and the counters and is
/// reported to the observer of [`FlowTable::push_with`] as a sequence
/// range, so a caller that wants the byte stream keeps the payloads itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DirectionStats {
    /// Packet count (all segments, including bare ACKs).
    pub packets: usize,
    /// Total frame bytes.
    pub bytes: usize,
    /// Payload bytes after deduplication.
    pub payload_bytes: usize,
    /// Arrival timestamp of the first segment in this direction.
    first_time: f64,
    /// Arrival timestamp of the latest segment in this direction.
    last_time: f64,
    /// Next expected sequence number (reassembly cursor).
    next_seq: Option<u32>,
    /// Out-of-order segments awaiting the gap to fill, as `(sequence
    /// number, length)` intervals sorted numerically by sequence number.
    /// [`cursor_nearest`] finds the next one to consider by binary search,
    /// so a hole that never fills (a long-lived flow resumed in a later
    /// capture window) costs O(log n) per segment queued behind it; a deque
    /// so that draining a filled hole pops from the front.
    pending: VecDeque<(u32, u32)>,
    /// Count of duplicate (retransmitted) payload segments seen.
    pub retransmissions: usize,
    /// In-order segments delivered (reassembly successes).
    pub segments_delivered: usize,
    /// Times the reassembly cursor wrapped past 2^32.
    pub seq_wraps: usize,
}

/// Index of the pending interval nearest the cursor `next` in *wrapping*
/// order: the one whose `seq.wrapping_sub(next) as i32` is smallest.
///
/// Numeric key order is not enough: after a 2^32 sequence wraparound the
/// numerically smallest key can be far in the future while the in-order
/// segment sits near `u32::MAX`. Ordering by that signed distance is
/// ordering by `seq - (next + 2^31)` modulo 2^32, so the nearest interval
/// is the first key at or above the pivot `next + 2^31`, wrapping to the
/// numerically smallest key when none is. `pending` must be sorted by
/// sequence number with unique keys.
fn cursor_nearest(pending: &VecDeque<(u32, u32)>, next: u32) -> Option<usize> {
    if pending.is_empty() {
        return None;
    }
    let pivot = next.wrapping_add(1 << 31);
    let pos = pending.partition_point(|e| e.0 < pivot);
    Some(if pos == pending.len() { 0 } else { pos })
}

impl DirectionStats {
    fn absorb(&mut self, pkt: &ParsedPacket, on_deliver: &mut impl FnMut(u32, u32)) {
        if self.packets == 0 {
            self.first_time = pkt.timestamp;
        }
        self.last_time = pkt.timestamp;
        self.packets += 1;
        self.bytes += pkt.payload.len() + 54; // frame = 14 + 20 + 20 + payload
        if pkt.tcp.flags.syn() {
            self.next_seq = Some(pkt.tcp.seq.wrapping_add(1));
        }
        if pkt.payload.is_empty() {
            return;
        }
        let seq = pkt.tcp.seq;
        let len = pkt.payload.len() as u32;
        let next = *self.next_seq.get_or_insert(seq);
        if self.pending.is_empty() {
            // Fast path: with nothing buffered the segment's fate depends
            // only on its position (modulo 2^32) relative to the cursor.
            let rel = seq.wrapping_sub(next) as i32;
            if rel == 0 {
                self.deliver(next, len, on_deliver);
                return;
            }
            if rel < 0 {
                // The prefix up to the cursor is a retransmission, but any
                // bytes past it are new data: trim and deliver the tail.
                self.retransmissions += 1;
                let overlap = next.wrapping_sub(seq);
                if overlap < len {
                    self.deliver(next, len - overlap, on_deliver);
                }
                return;
            }
            // rel > 0: a future segment — fall through and buffer it.
        }
        // Buffer the interval. `flush` decides (modulo 2^32, relative to
        // the cursor) whether it is in-order, future, a duplicate, or a
        // partial overlap needing its already-delivered prefix trimmed. On
        // a same-seq collision keep the longer segment.
        self.buffer(seq, len);
        self.flush(on_deliver);
    }

    /// Insert the interval `(seq, len)` into `pending`, keeping the longer
    /// one when an interval already starts at `seq`.
    fn buffer(&mut self, seq: u32, len: u32) {
        match self.pending.binary_search_by_key(&seq, |e| e.0) {
            Ok(i) => self.pending[i].1 = self.pending[i].1.max(len),
            Err(i) => self.pending.insert(i, (seq, len)),
        }
    }

    /// Advance the cursor by `len` bytes, count the delivery and report it.
    fn deliver(&mut self, next: u32, len: u32, on_deliver: &mut impl FnMut(u32, u32)) {
        let advanced = next.wrapping_add(len);
        if advanced < next {
            self.seq_wraps += 1;
        }
        self.next_seq = Some(advanced);
        self.payload_bytes += len as usize;
        self.segments_delivered += 1;
        on_deliver(next, len);
    }

    fn flush(&mut self, on_deliver: &mut impl FnMut(u32, u32)) {
        while let Some(next) = self.next_seq {
            let Some(pos) = cursor_nearest(&self.pending, next) else {
                break;
            };
            let (seq, len) = self.pending[pos];
            let rel = seq.wrapping_sub(next) as i32;
            if rel > 0 {
                // True gap: wait for the missing segment.
                break;
            }
            self.pending.remove(pos);
            if rel == 0 {
                self.deliver(next, len, on_deliver);
            } else {
                // Starts before the cursor: the prefix is a retransmission,
                // but any bytes past the cursor are new data — keep the
                // remainder as an interval at the cursor instead of
                // discarding the whole segment.
                self.retransmissions += 1;
                let overlap = next.wrapping_sub(seq);
                if overlap < len {
                    self.buffer(next, len - overlap);
                }
            }
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
        if self.packets < 2 {
            return None;
        }
        let span = self.last_time - self.first_time;
        if !span.is_finite() || span < 0.0 {
            return None;
        }
        Some(span / (self.packets - 1) as f64)
    }

    /// Out-of-order segments still waiting behind a sequence hole.
    pub fn pending_segments(&self) -> usize {
        self.pending.len()
    }

    /// Bytes of reassembly bookkeeping this direction holds: 8 per pending
    /// interval. Payload bytes are never held.
    pub fn buffered_bytes(&self) -> usize {
        self.pending.len() * std::mem::size_of::<(u32, u32)>()
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

    fn absorb(&mut self, pkt: &ParsedPacket, mut on_deliver: impl FnMut(Direction, u32, u32)) {
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
        let dir = self.direction_from(src);
        let stats = match dir {
            Direction::AtoB => &mut self.ab,
            Direction::BtoA => &mut self.ba,
        };
        stats.absorb(pkt, &mut |seq, len| on_deliver(dir, seq, len));
    }

    /// True once this record saw an orderly or abortive end.
    fn seems_over(&self) -> bool {
        self.saw_rst || self.saw_fin
    }

    /// Bytes of reassembly bookkeeping this connection holds, both
    /// directions (see [`DirectionStats::buffered_bytes`]).
    pub fn buffered_bytes(&self) -> usize {
        self.ab.buffered_bytes() + self.ba.buffered_bytes()
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

    /// Sum the per-direction reassembly accounting into the shared counters,
    /// record the flow count as this run's `flows` stage items, and set the
    /// `nettap_segments_pending` gauge to the segments left stranded behind
    /// sequence holes. Called once per reconstruction, after all packets are
    /// absorbed; batch ingest calls it after its own fused push loop instead
    /// of going through [`FlowTable::reconstruct`].
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
        metrics.segments_pending.set(self.pending_segments() as i64);
    }

    /// Feed one packet.
    pub fn push(&mut self, pkt: &ParsedPacket) {
        self.push_with(pkt, |_, _, _, _| {});
    }

    /// Feed one packet, reporting every in-order delivery it causes to
    /// `on_deliver(conn_idx, direction, seq, len)`: the `len` bytes starting
    /// at sequence number `seq` of that direction are now reassembled, in
    /// order and free of duplicates. `conn_idx` indexes
    /// [`FlowTable::connections`] as it stands when the call returns (an
    /// [`FlowTable::evict_idle`] sweep renumbers the survivors).
    ///
    /// One packet can deliver several ranges: its own, then segments that
    /// were waiting behind the hole it filled. Every delivered range lies
    /// inside the payload of a single segment this direction sent, so a
    /// caller that keeps payloads by sequence number can rebuild the byte
    /// stream; the table itself holds no payload bytes.
    pub fn push_with(
        &mut self,
        pkt: &ParsedPacket,
        mut on_deliver: impl FnMut(usize, Direction, u32, u32),
    ) {
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
        self.connections[idx].absorb(pkt, |dir, seq, len| on_deliver(idx, dir, seq, len));
    }

    /// Evict connections whose last captured packet is older than
    /// `now - idle`, returning them in first-seen order.
    ///
    /// This is the streaming engine's reclamation hook: an evicted record is
    /// *final* — its reassembly state is frozen mid-flight if segments were
    /// still pending — and the caller owns it from here (folding its
    /// counters, emitting an event, dropping it). Surviving
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

    /// Bytes of reassembly bookkeeping across every connection, 8 per
    /// pending interval (the streaming engine's
    /// `stream_resident_buffer_bytes` gauge counts it).
    pub fn buffered_bytes(&self) -> usize {
        self.connections.iter().map(|c| c.buffered_bytes()).sum()
    }

    /// Out-of-order segments still waiting behind a sequence hole across
    /// every connection (the `nettap_segments_pending` gauge).
    pub fn pending_segments(&self) -> usize {
        self.connections
            .iter()
            .map(|c| c.ab.pending_segments() + c.ba.pending_segments())
            .sum()
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

    /// Byte streams rebuilt from [`FlowTable::push_with`] deliveries, per
    /// 4-tuple and direction; a packet that opens a fresh record for its
    /// 4-tuple restarts that 4-tuple's streams. Each delivered range is
    /// resolved against the newest payload its sender pushed that covers
    /// it, and must belong to the pushed packet's own direction.
    #[derive(Default)]
    struct Streams {
        sent: Vec<(SocketAddr, u32, Vec<u8>)>,
        bytes: std::collections::HashMap<(FlowKey, Direction), Vec<u8>>,
    }

    impl Streams {
        /// Push every packet into a fresh table.
        fn of(packets: &[ParsedPacket]) -> (FlowTable, Streams) {
            let mut table = FlowTable::default();
            let mut streams = Streams::default();
            for p in packets {
                streams.push(&mut table, p);
            }
            (table, streams)
        }

        fn push(&mut self, table: &mut FlowTable, p: &ParsedPacket) {
            let src = SocketAddr::new(p.ip.src, p.tcp.src_port);
            let key = FlowKey::new(src, SocketAddr::new(p.ip.dst, p.tcp.dst_port));
            let own = if src == key.a {
                Direction::AtoB
            } else {
                Direction::BtoA
            };
            if !p.payload.is_empty() {
                self.sent.push((src, p.tcp.seq, p.payload.clone()));
            }
            let records = table.len();
            let mut delivered = Vec::new();
            table.push_with(p, |idx, dir, seq, len| delivered.push((idx, dir, seq, len)));
            if table.len() > records {
                self.bytes.retain(|(k, _), _| *k != key);
            }
            for (idx, dir, seq, len) in delivered {
                assert_eq!(table.connections[idx].key, key, "delivery names the record");
                assert_eq!(dir, own, "a packet delivers only its own direction");
                let (off, payload) = self
                    .sent
                    .iter()
                    .rev()
                    .filter(|(from, _, _)| *from == src)
                    .map(|(_, start, payload)| (seq.wrapping_sub(*start) as usize, payload))
                    .find(|(off, payload)| off + len as usize <= payload.len())
                    .expect("a delivered range lies inside a sent segment");
                self.bytes
                    .entry((key, dir))
                    .or_default()
                    .extend_from_slice(&payload[off..off + len as usize]);
            }
        }

        /// The stream `from` sent on the latest record of `key`.
        fn sent_by(&self, key: FlowKey, from: SocketAddr) -> &[u8] {
            let dir = if from == key.a {
                Direction::AtoB
            } else {
                Direction::BtoA
            };
            self.bytes.get(&(key, dir)).map_or(&[], Vec::as_slice)
        }
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
        let (table, streams) = Streams::of(&packets);
        assert_eq!(table.len(), 1);
        let c = &table.connections[0];
        assert!(c.is_short_lived());
        assert!(!c.was_reset());
        assert!((c.duration() - 2.02).abs() < 1e-9);
        // Payload reassembly: the server→rtu stream holds the APDU.
        let dir = c.direction_from(s);
        assert_eq!(streams.sent_by(c.key, s), b"\x68\x04\x07\x00\x00\x00");
        assert!(streams.sent_by(c.key, r).is_empty());
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
        let (table, streams) = Streams::of(&packets);
        let c = &table.connections[0];
        assert!(c.is_long_lived());
        assert_eq!(streams.sent_by(c.key, r), b"abcdef");
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
        let (table, streams) = Streams::of(&packets);
        let c = &table.connections[0];
        let d = c.dir(c.direction_from(r));
        assert_eq!(streams.sent_by(c.key, r), b"abcdef");
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
        let (table, streams) = Streams::of(&packets);
        let c = &table.connections[0];
        assert_eq!(streams.sent_by(c.key, r), b"abcdefghi");
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
        let (table, streams) = Streams::of(&packets);
        let c = &table.connections[0];
        let d = c.dir(c.direction_from(r));
        assert_eq!(streams.sent_by(c.key, r), b"abcdefghi");
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
        let (table, streams) = Streams::of(&[
            pkt(0.9, r, s, start, 100, data, b"abc"), // cursor -> MAX-2
            // Early post-wrap segment: numerically tiny key, buffered as a gap.
            pkt(1.0, r, s, 0, 100, data, b"ghi"),
            // In-order pre-wrap segment: a numeric scan of pending would see
            // key 0 first, misread it as the frontier, and stall here.
            pkt(1.1, r, s, u32::MAX - 2, 100, data, b"def"),
        ]);
        let c = &table.connections[0];
        let dir = c.dir(c.direction_from(r));
        assert_eq!(streams.sent_by(c.key, r), b"abcdefghi");
        assert_eq!(dir.payload_bytes, 9);
        assert_eq!(dir.retransmissions, 0);
        assert_eq!(dir.seq_wraps, 1);
    }

    /// Regression companion: an early post-wrap segment buffered while the
    /// cursor still sits below u32::MAX must not be pruned as stale.
    #[test]
    fn early_post_wrap_segment_waits_for_cursor() {
        let r = rtu();
        let s = server();
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let start = u32::MAX - 2;
        let (table, streams) = Streams::of(&[
            pkt(0.5, r, s, start, 100, data, b"abc"), // cursor wraps to 0
            pkt(0.6, r, s, 0, 100, data, b"def"),
        ]);
        let c = &table.connections[0];
        assert_eq!(streams.sent_by(c.key, r), b"abcdef");
        assert_eq!(c.dir(c.direction_from(r)).retransmissions, 0);
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
        dir.absorb(&pkt(10.0, r, s, 1, 1, data, b"a"), &mut |_, _| {});
        dir.absorb(&pkt(4.0, r, s, 2, 1, data, b"b"), &mut |_, _| {}); // clock stepped back
        assert_eq!(dir.mean_interarrival(), None);

        // A corrupt record carrying a NaN timestamp must not poison the
        // mean either.
        let mut dir = DirectionStats::default();
        dir.absorb(&pkt(1.0, r, s, 1, 1, data, b"a"), &mut |_, _| {});
        dir.absorb(&pkt(f64::NAN, r, s, 2, 1, data, b"b"), &mut |_, _| {});
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
        let mut streams = Streams::default();
        streams.push(&mut table, &pkt(1.0, old1, r, 100, 0, data, b"abc"));
        streams.push(&mut table, &pkt(2.0, old2, r, 100, 0, data, b"def"));
        streams.push(&mut table, &pkt(90.0, live, r, 100, 0, data, b"ghi"));

        let evicted = table.evict_idle(100.0, 30.0);
        assert_eq!(evicted.len(), 2);
        assert_eq!(evicted[0].key, FlowKey::new(old1, r));
        assert_eq!(evicted[1].key, FlowKey::new(old2, r));
        assert_eq!(table.len(), 1);
        assert_eq!(table.connections[0].key, FlowKey::new(live, r));

        // The survivor's live index still routes packets to its record.
        streams.push(&mut table, &pkt(101.0, live, r, 103, 0, data, b"jkl"));
        assert_eq!(table.len(), 1);
        let c = &table.connections[0];
        assert_eq!(streams.sent_by(c.key, live), b"ghijkl");
        assert_eq!(c.dir(c.direction_from(live)).segments_delivered, 2);

        // An evicted 4-tuple that comes back opens a fresh record.
        streams.push(&mut table, &pkt(102.0, old1, r, 500, 0, data, b"new"));
        assert_eq!(table.len(), 2);
        let c = &table.connections[1];
        assert_eq!(streams.sent_by(c.key, old1), b"new");
        assert_eq!(c.dir(c.direction_from(old1)).payload_bytes, 3);
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
        let mut streams = Streams::default();
        for p in [
            &stuck_pkts[0],
            &healthy_pkts[0],
            &stuck_pkts[1],
            &healthy_pkts[1],
        ] {
            streams.push(&mut table, p);
        }
        let evicted = table.evict_idle(41.5, 30.0);
        assert_eq!(evicted.len(), 1, "only the stuck flow is idle");
        let frozen = &evicted[0];
        assert_eq!(frozen.key, FlowKey::new(stuck, r));
        let d = frozen.dir(frozen.direction_from(stuck));
        assert_eq!(
            streams.sent_by(frozen.key, stuck),
            b"abc",
            "delivered prefix survives the freeze"
        );
        assert_eq!(d.payload_bytes, 3);
        assert_eq!(d.segments_delivered, 1);
        assert_eq!(d.pending_segments(), 1, "the stranded segment is kept");
        assert_eq!(d.buffered_bytes(), 8, "one pending interval is accounted");
        streams.push(&mut table, &healthy_pkts[2]);

        // Reference: the healthy flow alone, no eviction sweep.
        let (solo, solo_streams) = Streams::of(&healthy_pkts);
        let got = &table.connections[0];
        let want = &solo.connections[0];
        assert_eq!(got, want, "survivor must be bit-identical to a solo run");
        assert_eq!(
            streams.sent_by(got.key, healthy),
            solo_streams.sent_by(want.key, healthy)
        );
        assert_eq!(streams.sent_by(got.key, healthy), b"onetwothr");
        let gd = got.dir(got.direction_from(healthy));
        assert_eq!(gd.retransmissions, 0);
    }

    /// An eviction sweep rebuilds the table around its survivors; a
    /// survivor caught mid-reassembly must keep its cursor and pending
    /// intervals through it, so the hole still fills afterwards.
    #[test]
    fn eviction_sweep_keeps_survivor_cursor_and_intervals() {
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let r = rtu();
        let s = server();
        let idle = SocketAddr::new(addr(10, 0, 0, 9), 40009);
        let mut table = FlowTable::default();
        let mut streams = Streams::default();
        streams.push(&mut table, &pkt(0.5, idle, r, 7, 0, data, b"zz"));
        streams.push(&mut table, &pkt(50.0, s, r, 100, 0, data, b"abc"));
        // Out-of-order segment left pending across the sweep.
        streams.push(&mut table, &pkt(50.1, s, r, 106, 0, data, b"ghi"));
        assert_eq!(table.pending_segments(), 1);
        assert_eq!(table.buffered_bytes(), 8);

        let evicted = table.evict_idle(60.0, 30.0);
        assert_eq!(evicted.len(), 1, "only the idle flow goes");
        assert_eq!(table.len(), 1);
        let d = table.connections[0].dir(Direction::AtoB);
        assert_eq!(d.next_seq, Some(103), "cursor survives the sweep");
        assert_eq!(d.pending, [(106, 3)], "intervals survive the sweep");
        assert_eq!(d.payload_bytes, 3);
        assert_eq!(d.packets, 2);

        // The pending segment still completes once the gap fills.
        streams.push(&mut table, &pkt(50.2, s, r, 103, 0, data, b"def"));
        let c = &table.connections[0];
        let d = c.dir(c.direction_from(s));
        assert_eq!(streams.sent_by(c.key, s), b"abcdefghi");
        assert_eq!(d.payload_bytes, 9);
        assert_eq!(d.segments_delivered, 3);
        assert_eq!(table.pending_segments(), 0);
        assert_eq!(table.buffered_bytes(), 0);
    }

    /// The multi-window cliff: one direction, one sequence hole that never
    /// fills, and 20,000 segments queued behind it. Each queued segment must
    /// cost O(log n), not a scan of everything already queued (which took
    /// ~11 s in a debug build). Filling the hole at the end then drains the
    /// whole queue.
    #[test]
    fn permanent_hole_with_20k_segments_behind_stays_fast() {
        const BEHIND: u32 = 20_000;
        let data = TcpFlags::ACK.with(TcpFlags::PSH);
        let (s, r) = (server(), rtu());
        let mut packets = vec![pkt(0.0, s, r, 1000, 0, data, b"abcd")];
        // The hole is [1004, 1008); everything after it arrives in order.
        for i in 0..BEHIND {
            let seq = 1008 + 4 * i;
            packets.push(pkt(1.0 + f64::from(i) * 1e-3, s, r, seq, 0, data, b"wxyz"));
        }
        let reg = uncharted_obs::MetricsRegistry::new();
        let metrics = NettapMetrics::register(&reg);
        let started = std::time::Instant::now();
        let mut table = FlowTable::reconstruct(&packets, &metrics);
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "queueing behind a permanent hole took {elapsed:?}"
        );
        let d = table.connections[0].dir(Direction::AtoB);
        assert_eq!(d.packets, BEHIND as usize + 1);
        assert_eq!(d.segments_delivered, 1);
        assert_eq!(d.payload_bytes, 4);
        assert_eq!(d.retransmissions, 0);
        assert_eq!(d.pending_segments(), BEHIND as usize);
        assert_eq!(d.buffered_bytes(), 8 * BEHIND as usize);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_total("nettap_segments_reassembled"), 1);
        assert_eq!(snap.counter_total("nettap_overlaps_trimmed"), 0);
        assert_eq!(
            snap.gauge_value("nettap_segments_pending", &[]),
            Some(i64::from(BEHIND))
        );

        let started = std::time::Instant::now();
        let mut delivered = 0u32;
        table.push_with(&pkt(99.0, s, r, 1004, 0, data, b"efgh"), |_, _, _, len| {
            delivered += len;
        });
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "draining the filled hole took {elapsed:?}"
        );
        assert_eq!(delivered, 4 + 4 * BEHIND);
        let d = table.connections[0].dir(Direction::AtoB);
        assert_eq!(d.segments_delivered, BEHIND as usize + 2);
        assert_eq!(d.payload_bytes, 8 + 4 * BEHIND as usize);
        assert_eq!(d.pending_segments(), 0);
    }

    /// The pick `flush` used before [`cursor_nearest`]: a linear scan for
    /// the smallest wrapping distance from the cursor.
    fn linear_nearest(pending: &VecDeque<(u32, u32)>, next: u32) -> Option<usize> {
        pending
            .iter()
            .enumerate()
            .min_by_key(|(_, (s, _))| s.wrapping_sub(next) as i32)
            .map(|(i, _)| i)
    }

    /// Sequence numbers drawn where wrapping order and numeric order
    /// disagree: anywhere, within 64 KiB below and above 2^32, and around
    /// 2^31 (where the pivot of a cursor near 0 lands).
    fn arb_seq() -> impl proptest::strategy::Strategy<Value = u32> {
        use proptest::prelude::*;
        prop_oneof![
            any::<u32>(),
            (0u32..65_536).prop_map(|d| u32::MAX - d),
            0u32..65_536,
            (0u32..65_536).prop_map(|d| (1u32 << 31) - 32_768 + d),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The binary-search pick equals the linear wrapping scan for any
        /// sorted pending set and cursor, including cursors of 0, 2^31 and
        /// u32::MAX, a key equal to the pivot `next + 2^31`, and keys
        /// straddling the 2^32 wrap.
        #[test]
        fn cursor_nearest_matches_linear_scan(
            keys in proptest::collection::vec(arb_seq(), 0..48),
            next in proptest::prop_oneof![
                arb_seq(),
                proptest::strategy::Just(0u32),
                proptest::strategy::Just(1u32 << 31),
                proptest::strategy::Just(u32::MAX),
            ],
            key_at_pivot in proptest::prelude::any::<bool>(),
            key_at_cursor in proptest::prelude::any::<bool>(),
        ) {
            let mut keys = keys;
            if key_at_pivot {
                keys.push(next.wrapping_add(1 << 31));
            }
            if key_at_cursor {
                keys.push(next);
            }
            keys.sort_unstable();
            keys.dedup();
            let pending: VecDeque<(u32, u32)> = keys.iter().map(|&k| (k, 1)).collect();
            proptest::prop_assert_eq!(
                cursor_nearest(&pending, next),
                linear_nearest(&pending, next)
            );
        }
    }

    #[test]
    fn endpoint_on_port_finds_outstation_side() {
        let packets = vec![pkt(0.0, server(), rtu(), 1, 0, TcpFlags::SYN, b"")];
        let table = table_of(&packets);
        assert_eq!(table.connections[0].endpoint_on_port(2404), Some(rtu()));
        assert_eq!(table.connections[0].endpoint_on_port(9999), None);
    }
}
