//! Classic libpcap capture files and the in-memory capture used by the
//! simulator's network tap.
//!
//! The format is the original `0xa1b2c3d4` little-endian libpcap format with
//! LINKTYPE_ETHERNET, so captures written here open in Wireshark/tcpdump —
//! useful for eyeballing the simulated traffic the way the paper's authors
//! eyeballed theirs.

use crate::ethernet::{EthernetHeader, MacAddr, ETHERTYPE_IPV4};
use crate::ipv4::Ipv4Header;
use crate::tcp::{TcpFlags, TcpHeader};
use crate::{Error, Result};
use std::io::{Read, Write};

/// Little-endian libpcap magic.
pub const PCAP_MAGIC: u32 = 0xa1b2_c3d4;

/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// One captured frame: a timestamp (seconds since capture epoch) and the raw
/// Ethernet bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedPacket {
    /// Capture timestamp in seconds (sub-microsecond precision is dropped on
    /// pcap round-trip, as in real pcap).
    pub timestamp: f64,
    /// The full Ethernet frame.
    pub frame: Vec<u8>,
}

/// The layers of a fully parsed frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedPacket {
    /// Capture timestamp.
    pub timestamp: f64,
    /// Link layer.
    pub eth: EthernetHeader,
    /// Network layer.
    pub ip: Ipv4Header,
    /// Transport layer.
    pub tcp: TcpHeader,
    /// TCP payload bytes.
    pub payload: Vec<u8>,
}

impl CapturedPacket {
    /// Build a full Ethernet/IPv4/TCP frame.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        timestamp: f64,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: u32,
        dst_ip: u32,
        tcp: TcpHeader,
        payload: &[u8],
        ip_ident: u16,
    ) -> CapturedPacket {
        let tcp_bytes = tcp.encode(src_ip, dst_ip, payload);
        let ip = Ipv4Header::tcp(src_ip, dst_ip, tcp_bytes.len(), ip_ident);
        let eth = EthernetHeader {
            dst: dst_mac,
            src: src_mac,
            ethertype: ETHERTYPE_IPV4,
        };
        let mut frame = Vec::with_capacity(14 + 20 + tcp_bytes.len());
        frame.extend_from_slice(&eth.encode());
        frame.extend_from_slice(&ip.encode());
        frame.extend_from_slice(&tcp_bytes);
        CapturedPacket { timestamp, frame }
    }

    /// Parse all three layers; errors on anything that is not IPv4/TCP.
    pub fn parse(&self) -> Result<ParsedPacket> {
        parse_frame(self.timestamp, &self.frame)
    }
}

/// Parse a raw Ethernet frame (all three layers) directly from a borrowed
/// byte slice — the zero-copy entry the mmap capture path decodes through:
/// only the TCP payload is copied out; every header is decoded in place.
/// Errors on anything that is not IPv4/TCP.
pub fn parse_frame(timestamp: f64, frame: &[u8]) -> Result<ParsedPacket> {
    let (eth, off) = EthernetHeader::parse(frame)?;
    if eth.ethertype != ETHERTYPE_IPV4 {
        return Err(Error::Unsupported {
            layer: "ethernet",
            what: "ethertype",
        });
    }
    let (ip, ip_len) = Ipv4Header::parse(&frame[off..])?;
    let tcp_start = off + ip_len;
    let ip_payload_end = off + ip.total_len as usize;
    if frame.len() < ip_payload_end {
        return Err(Error::Truncated {
            layer: "ipv4",
            needed: ip_payload_end,
            got: frame.len(),
        });
    }
    let (tcp, tcp_len) = TcpHeader::parse(&frame[tcp_start..ip_payload_end], ip.src, ip.dst)?;
    Ok(ParsedPacket {
        timestamp,
        eth,
        ip,
        tcp,
        payload: frame[tcp_start + tcp_len..ip_payload_end].to_vec(),
    })
}

impl ParsedPacket {
    /// True if the segment carries no payload (pure control segment).
    pub fn is_bare(&self) -> bool {
        self.payload.is_empty()
    }

    /// Convenience accessor: `(src_ip, src_port, dst_ip, dst_port)`.
    pub fn four_tuple(&self) -> (u32, u16, u32, u16) {
        (
            self.ip.src,
            self.tcp.src_port,
            self.ip.dst,
            self.tcp.dst_port,
        )
    }

    /// Flag shorthand.
    pub fn flags(&self) -> TcpFlags {
        self.tcp.flags
    }
}

/// An in-memory capture: what the network tap of Fig. 5 records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Capture {
    /// The packets, in capture order.
    pub packets: Vec<CapturedPacket>,
}

impl Capture {
    /// An empty capture.
    pub fn new() -> Capture {
        Capture::default()
    }

    /// Append a packet (the tap sees packets in timestamp order).
    pub fn record(&mut self, packet: CapturedPacket) {
        self.packets.push(packet);
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when no packets were captured.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Merge another capture, keeping timestamp order.
    pub fn merge(&mut self, other: Capture) {
        self.packets.extend(other.packets);
        self.packets
            .sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    }

    /// Total bytes across all frames.
    pub fn total_bytes(&self) -> usize {
        self.packets.iter().map(|p| p.frame.len()).sum()
    }

    /// Time span `(first, last)` of the capture, if non-empty.
    pub fn time_span(&self) -> Option<(f64, f64)> {
        let first = self.packets.first()?.timestamp;
        let last = self.packets.last()?.timestamp;
        Some((first, last))
    }

    /// Parse every packet, silently skipping undecodable frames (real taps
    /// see noise too); returns parsed packets in order.
    pub fn parsed(&self) -> Vec<ParsedPacket> {
        self.packets.iter().filter_map(|p| p.parse().ok()).collect()
    }

    /// Write as a classic libpcap file.
    pub fn write_pcap<W: Write>(&self, mut w: W) -> Result<()> {
        w.write_all(&PCAP_MAGIC.to_le_bytes())?;
        w.write_all(&2u16.to_le_bytes())?; // major
        w.write_all(&4u16.to_le_bytes())?; // minor
        w.write_all(&0i32.to_le_bytes())?; // thiszone
        w.write_all(&0u32.to_le_bytes())?; // sigfigs
        w.write_all(&65535u32.to_le_bytes())?; // snaplen
        w.write_all(&LINKTYPE_ETHERNET.to_le_bytes())?;
        for p in &self.packets {
            let ts_sec = p.timestamp.floor() as u32;
            let ts_usec = ((p.timestamp - ts_sec as f64) * 1e6).round() as u32;
            w.write_all(&ts_sec.to_le_bytes())?;
            w.write_all(&ts_usec.min(999_999).to_le_bytes())?;
            w.write_all(&(p.frame.len() as u32).to_le_bytes())?;
            w.write_all(&(p.frame.len() as u32).to_le_bytes())?;
            w.write_all(&p.frame)?;
        }
        Ok(())
    }

    /// Read a classic little-endian libpcap file.
    pub fn read_pcap<R: Read>(r: R) -> Result<Capture> {
        let mut packets = Vec::new();
        for pkt in PcapReader::new(r)? {
            packets.push(pkt?);
        }
        Ok(Capture { packets })
    }
}

/// Streaming reader over a classic little-endian libpcap file: yields one
/// [`CapturedPacket`] at a time without materialising the whole capture,
/// so arbitrarily large files can be ingested in bounded memory.
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    reader: R,
    /// Byte offset of the next record header — carried so a framing fault
    /// in a stream is reported with the same file position the mmap path
    /// reports ([`Error::BadPcapRecord`]).
    offset: u64,
}

impl<R: Read> PcapReader<R> {
    /// Validate the global header and position the reader at the first
    /// record.
    pub fn new(mut reader: R) -> Result<PcapReader<R>> {
        let mut header = [0u8; 24];
        reader.read_exact(&mut header)?;
        let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        if magic != PCAP_MAGIC {
            return Err(Error::BadPcapMagic(magic));
        }
        Ok(PcapReader { reader, offset: 24 })
    }

    /// Fill `buf` as far as the stream allows, returning the bytes read
    /// (`read_exact` leaves the shortfall unobservable, and the shortfall
    /// is exactly what a truncation diagnostic needs).
    fn read_full(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.reader.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(filled)
    }

    fn read_record(&mut self) -> Option<Result<CapturedPacket>> {
        let mut rec = [0u8; 16];
        let got = match self.read_full(&mut rec) {
            Ok(n) => n,
            Err(e) => return Some(Err(e.into())),
        };
        match got {
            0 => return None, // clean end of stream on a record boundary
            16 => {}
            _ => {
                return Some(Err(Error::BadPcapRecord {
                    offset: self.offset,
                    needed: 16,
                    got,
                }))
            }
        }
        let ts_sec = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
        let ts_usec = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]);
        let incl = u32::from_le_bytes([rec[8], rec[9], rec[10], rec[11]]) as usize;
        let mut frame = vec![0u8; incl];
        match self.read_full(&mut frame) {
            Ok(n) if n == incl => {}
            Ok(n) => {
                return Some(Err(Error::BadPcapRecord {
                    offset: self.offset,
                    needed: 16 + incl,
                    got: 16 + n,
                }))
            }
            Err(e) => return Some(Err(e.into())),
        }
        self.offset += 16 + incl as u64;
        Some(Ok(CapturedPacket {
            timestamp: ts_sec as f64 + ts_usec as f64 * 1e-6,
            frame,
        }))
    }
}

impl<R: Read> Iterator for PcapReader<R> {
    type Item = Result<CapturedPacket>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_record()
    }
}

/// Little-endian `u32` at `off`, as one unaligned load (the 4-byte
/// `try_into` compiles to a plain `mov`; pcap record fields are not
/// naturally aligned once variable-length frames enter the file).
#[inline]
fn u32_at(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte slice"))
}

/// A capture file as one read-only memory mapping: the raw-speed ingest
/// path.
///
/// Where [`PcapReader`] issues a `read` per record header and a second per
/// frame body (plus a heap allocation to land it in), the mmap path
/// validates the whole record chain once at open — a header-hopping scan
/// that touches 16 bytes per record with unaligned `u32` loads and a single
/// branch per record — and then iteration is pure pointer arithmetic over
/// the mapping. Frame bytes are yielded as slices *borrowed from the
/// mapping* ([`MmapCapture::records`]); nothing is copied until a consumer
/// decodes a packet and keeps its TCP payload ([`parse_frame`]).
///
/// Because validation is up front, a truncated or corrupt file is rejected
/// at [`MmapCapture::open`] with the exact byte offset of the broken record
/// ([`Error::BadPcapRecord`]) instead of surfacing mid-ingest, and the
/// per-record iteration carries no error path at all.
///
/// Non-seekable inputs (sockets, pipes) cannot be mapped; [`open_path`]
/// falls back to the streaming reader for those.
///
/// [`open_path`]: crate::source::open_path
#[derive(Debug)]
pub struct MmapCapture {
    map: memmap2::Mmap,
    /// Offset of the next record header.
    pos: usize,
    /// Records not yet read through [`PacketSource`].
    records_left: usize,
    /// Total records in the file (fixed at open).
    record_count: usize,
    /// Frames that failed Ethernet/IPv4/TCP decode and were skipped.
    skipped: u64,
    label: String,
}

impl MmapCapture {
    /// Map a capture file and validate its whole record chain.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<MmapCapture> {
        let path = path.as_ref();
        let file = std::fs::File::open(path)?;
        MmapCapture::from_file(&file, format!("mmap:{}", path.display()))
    }

    /// As [`open`](MmapCapture::open), over an already-opened file.
    ///
    /// The file must be a regular file that is not concurrently modified
    /// (the mapping's safety contract); capture files are write-once
    /// artifacts, which is exactly that shape.
    pub fn from_file(file: &std::fs::File, label: impl Into<String>) -> Result<MmapCapture> {
        // SAFETY: per the documented contract, callers hand over capture
        // files that nothing mutates while the analysis runs.
        let map = unsafe { memmap2::Mmap::map(file)? };
        let record_count = validate_pcap_bytes(&map)?;
        Ok(MmapCapture {
            map,
            pos: 24,
            records_left: record_count,
            record_count,
            skipped: 0,
            label: label.into(),
        })
    }

    /// Total records in the file.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// Iterate the raw records as `(timestamp, frame)` with the frame bytes
    /// borrowed straight from the mapping — the zero-copy scan the capture
    /// bench drives. Infallible: the chain was validated at open.
    pub fn records(&self) -> MmapRecords<'_> {
        MmapRecords {
            bytes: &self.map,
            pos: 24,
        }
    }

    /// Decode the next record header, advancing the cursor. Returns
    /// `(timestamp, frame_start, frame_end)` as plain offsets so the caller
    /// can slice the mapping without holding a borrow across bookkeeping.
    fn step(&mut self) -> Option<(f64, usize, usize)> {
        if self.records_left == 0 {
            return None;
        }
        let ts_sec = u32_at(&self.map, self.pos);
        let ts_usec = u32_at(&self.map, self.pos + 4);
        let incl = u32_at(&self.map, self.pos + 8) as usize;
        let start = self.pos + 16;
        self.pos = start + incl;
        self.records_left -= 1;
        Some((ts_sec as f64 + ts_usec as f64 * 1e-6, start, start + incl))
    }
}

impl crate::source::PacketSource for MmapCapture {
    fn read_batch(&mut self, max: usize, out: &mut Vec<ParsedPacket>) -> Result<usize> {
        let max = max.max(1);
        let mut appended = 0;
        while appended < max {
            let Some((ts, start, end)) = self.step() else {
                break;
            };
            match parse_frame(ts, &self.map[start..end]) {
                Ok(pkt) => {
                    out.push(pkt);
                    appended += 1;
                }
                Err(_) => self.skipped += 1,
            }
        }
        Ok(appended)
    }

    fn describe(&self) -> String {
        self.label.clone()
    }

    fn remaining_hint(&self) -> Option<usize> {
        // Upper bound doubling as a lower bound in practice: undecodable
        // noise frames are the rare exception, so reserving for every
        // remaining record is the right allocation.
        Some(self.records_left)
    }
}

/// Borrowed-record iterator over a validated mapping
/// (see [`MmapCapture::records`]).
#[derive(Debug, Clone)]
pub struct MmapRecords<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Iterator for MmapRecords<'a> {
    type Item = (f64, &'a [u8]);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.bytes.len() - self.pos < 16 {
            return None;
        }
        let ts_sec = u32_at(self.bytes, self.pos);
        let ts_usec = u32_at(self.bytes, self.pos + 4);
        let incl = u32_at(self.bytes, self.pos + 8) as usize;
        let start = self.pos + 16;
        self.pos = start + incl;
        Some((
            ts_sec as f64 + ts_usec as f64 * 1e-6,
            &self.bytes[start..self.pos],
        ))
    }
}

/// Validate a complete in-memory pcap image: global header, then hop the
/// record chain — one unaligned length load and one bounds branch per
/// record — returning the record count. Any record whose declared extent
/// overruns the file is a [`Error::BadPcapRecord`] carrying the offset of
/// that record's header.
fn validate_pcap_bytes(bytes: &[u8]) -> Result<usize> {
    if bytes.len() < 24 {
        return Err(Error::Truncated {
            layer: "pcap",
            needed: 24,
            got: bytes.len(),
        });
    }
    let magic = u32_at(bytes, 0);
    if magic != PCAP_MAGIC {
        return Err(Error::BadPcapMagic(magic));
    }
    let len = bytes.len();
    let mut pos = 24usize;
    let mut records = 0usize;
    while len - pos >= 16 {
        let incl = u32_at(bytes, pos + 8) as usize;
        let end = pos + 16 + incl;
        if end > len {
            return Err(Error::BadPcapRecord {
                offset: pos as u64,
                needed: 16 + incl,
                got: len - pos,
            });
        }
        pos = end;
        records += 1;
    }
    if pos != len {
        // Trailing bytes too short to even be a record header.
        return Err(Error::BadPcapRecord {
            offset: pos as u64,
            needed: 16,
            got: len - pos,
        });
    }
    Ok(records)
}

/// Read and decode a pcap as a bounded two-stage pipeline, handing each
/// batch of decoded packets to `sink` as soon as it is ready: a scoped
/// reader thread pulls raw records off the source in chunks of
/// `chunk_packets` and hands them over a bounded channel (at most two
/// chunks in flight) while the calling thread decodes Ethernet/IPv4/TCP
/// and invokes `sink`. Undecodable frames are skipped, exactly like
/// [`Capture::parsed`], and batches arrive in capture order. The consumer
/// sees bounded batches without ever holding the raw and decoded captures
/// side by side.
pub fn parse_pcap_batched<R: Read + Send>(
    reader: R,
    chunk_packets: usize,
    mut sink: impl FnMut(Vec<ParsedPacket>),
) -> Result<()> {
    let chunk_packets = chunk_packets.max(1);
    let mut source = PcapReader::new(reader)?;
    std::thread::scope(|scope| {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Result<Vec<CapturedPacket>>>(2);
        scope.spawn(move || {
            let mut chunk = Vec::with_capacity(chunk_packets);
            loop {
                match source.read_record() {
                    Some(Ok(pkt)) => {
                        chunk.push(pkt);
                        if chunk.len() >= chunk_packets
                            && tx.send(Ok(std::mem::take(&mut chunk))).is_err()
                        {
                            return; // consumer bailed on an earlier error
                        }
                    }
                    Some(Err(e)) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                    None => break,
                }
            }
            if !chunk.is_empty() {
                let _ = tx.send(Ok(chunk));
            }
        });
        for chunk in rx {
            let batch: Vec<ParsedPacket> = chunk?
                .into_iter()
                .filter_map(|pkt| pkt.parse().ok())
                .collect();
            if !batch.is_empty() {
                sink(batch);
            }
        }
        Ok(())
    })
}

/// Read and decode a whole pcap through the batched handoff
/// ([`parse_pcap_batched`]), collecting the batches into one time-ordered
/// vector. Peak memory is the decoded packets plus two raw chunks, instead
/// of the raw and decoded captures held side by side.
pub fn parse_pcap_streaming<R: Read + Send>(
    reader: R,
    chunk_packets: usize,
) -> Result<Vec<ParsedPacket>> {
    let mut parsed = Vec::new();
    parse_pcap_batched(reader, chunk_packets, |batch| parsed.extend(batch))?;
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::addr;

    fn sample(ts: f64, payload: &[u8]) -> CapturedPacket {
        CapturedPacket::build(
            ts,
            MacAddr::from_device_id(1),
            MacAddr::from_device_id(2),
            addr(10, 0, 0, 1),
            addr(10, 0, 7, 5),
            TcpHeader {
                src_port: 40000,
                dst_port: 2404,
                seq: 100,
                ack: 200,
                flags: TcpFlags::ACK.with(TcpFlags::PSH),
                window: 4096,
            },
            payload,
            7,
        )
    }

    #[test]
    fn build_and_parse_round_trip() {
        let p = sample(1.5, b"\x68\x04\x43\x00\x00\x00");
        let parsed = p.parse().unwrap();
        assert_eq!(parsed.payload, b"\x68\x04\x43\x00\x00\x00");
        assert_eq!(parsed.tcp.dst_port, 2404);
        assert_eq!(parsed.ip.src, addr(10, 0, 0, 1));
        assert_eq!(
            parsed.four_tuple(),
            (addr(10, 0, 0, 1), 40000, addr(10, 0, 7, 5), 2404)
        );
    }

    #[test]
    fn pcap_file_round_trip() {
        let mut cap = Capture::new();
        for i in 0..10 {
            cap.record(sample(i as f64 * 0.25, format!("payload{i}").as_bytes()));
        }
        let mut buf = Vec::new();
        cap.write_pcap(&mut buf).unwrap();
        let back = Capture::read_pcap(&buf[..]).unwrap();
        assert_eq!(back.len(), 10);
        for (a, b) in cap.packets.iter().zip(&back.packets) {
            assert_eq!(a.frame, b.frame);
            assert!(
                (a.timestamp - b.timestamp).abs() < 1e-5,
                "timestamp precision"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = [0u8; 24];
        assert!(matches!(
            Capture::read_pcap(&buf[..]),
            Err(Error::BadPcapMagic(0))
        ));
        assert!(matches!(
            parse_pcap_streaming(&buf[..], 4),
            Err(Error::BadPcapMagic(0))
        ));
    }

    #[test]
    fn streaming_reader_yields_records_in_order() {
        let mut cap = Capture::new();
        for i in 0..7 {
            cap.record(sample(i as f64, format!("p{i}").as_bytes()));
        }
        let mut buf = Vec::new();
        cap.write_pcap(&mut buf).unwrap();
        let records: Vec<CapturedPacket> = PcapReader::new(&buf[..])
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(records.len(), 7);
        for (a, b) in cap.packets.iter().zip(&records) {
            assert_eq!(a.frame, b.frame);
        }
    }

    /// The bounded-channel chunked path must produce exactly what the
    /// materialise-then-parse path produces, at any chunk size.
    #[test]
    fn streaming_parse_matches_materialised_parse() {
        let mut cap = Capture::new();
        for i in 0..25 {
            cap.record(sample(i as f64 * 0.1, format!("payload{i}").as_bytes()));
        }
        cap.record(CapturedPacket {
            timestamp: 2.05,
            frame: vec![0xFF; 30], // undecodable noise, skipped by both paths
        });
        let mut buf = Vec::new();
        cap.write_pcap(&mut buf).unwrap();
        let expect = Capture::read_pcap(&buf[..]).unwrap().parsed();
        for chunk in [1, 4, 64] {
            let got = parse_pcap_streaming(&buf[..], chunk).unwrap();
            assert_eq!(got, expect, "chunk = {chunk}");
        }
    }

    /// The batched handoff delivers bounded, in-order, non-empty batches
    /// whose concatenation equals the materialise-then-parse output.
    #[test]
    fn batched_handoff_delivers_bounded_ordered_batches() {
        let mut cap = Capture::new();
        for i in 0..25 {
            cap.record(sample(i as f64 * 0.1, format!("payload{i}").as_bytes()));
        }
        let mut buf = Vec::new();
        cap.write_pcap(&mut buf).unwrap();
        let expect = Capture::read_pcap(&buf[..]).unwrap().parsed();
        let mut batches: Vec<Vec<ParsedPacket>> = Vec::new();
        parse_pcap_batched(&buf[..], 4, |batch| batches.push(batch)).unwrap();
        assert!(batches.len() >= 25 / 4, "batches actually chunked");
        assert!(batches.iter().all(|b| !b.is_empty() && b.len() <= 4));
        let flat: Vec<ParsedPacket> = batches.into_iter().flatten().collect();
        assert_eq!(flat, expect);
    }

    fn write_temp_pcap(cap: &Capture, tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "uncharted-pcap-{tag}-{}.pcap",
            std::process::id()
        ));
        let mut buf = Vec::new();
        cap.write_pcap(&mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        path
    }

    #[test]
    fn mmap_capture_matches_streaming_reader() {
        let mut cap = Capture::new();
        for i in 0..40 {
            cap.record(sample(i as f64, format!("payload{i}").as_bytes()));
        }
        cap.record(CapturedPacket {
            timestamp: 40.0,
            frame: vec![0xFF; 30], // undecodable noise: skipped, not fatal
        });
        let path = write_temp_pcap(&cap, "parity");
        let mut src = MmapCapture::open(&path).unwrap();
        assert_eq!(src.record_count(), 41);
        let got = crate::source::drain(&mut src, 7).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(got, cap.parsed());
        assert_eq!(got.len(), 40);
    }

    #[test]
    fn mmap_records_iterator_yields_borrowed_frames() {
        let mut cap = Capture::new();
        for i in 0..9 {
            cap.record(sample(i as f64, format!("p{i}").as_bytes()));
        }
        let path = write_temp_pcap(&cap, "records");
        let src = MmapCapture::open(&path).unwrap();
        let records: Vec<(f64, Vec<u8>)> = src
            .records()
            .map(|(ts, frame)| (ts, frame.to_vec()))
            .collect();
        std::fs::remove_file(&path).ok();
        assert_eq!(records.len(), 9);
        for (got, want) in records.iter().zip(&cap.packets) {
            assert_eq!(got.0, want.timestamp);
            assert_eq!(got.1, want.frame);
        }
    }

    #[test]
    fn mmap_rejects_corrupt_files_with_offsets() {
        // Too short for a global header.
        let short = std::env::temp_dir().join(format!("uncharted-short-{}", std::process::id()));
        std::fs::write(&short, [0u8; 10]).unwrap();
        assert!(matches!(
            MmapCapture::open(&short),
            Err(Error::Truncated { layer: "pcap", .. })
        ));
        std::fs::remove_file(&short).ok();

        // Wrong magic.
        let magic = std::env::temp_dir().join(format!("uncharted-magic-{}", std::process::id()));
        std::fs::write(&magic, [0xAAu8; 24]).unwrap();
        assert!(matches!(
            MmapCapture::open(&magic),
            Err(Error::BadPcapMagic(0xAAAA_AAAA))
        ));
        std::fs::remove_file(&magic).ok();

        // Trailing bytes too short for a record header: offset points at
        // the stub.
        let mut cap = Capture::new();
        cap.record(sample(0.0, b"x"));
        let path = write_temp_pcap(&cap, "stub");
        let mut bytes = std::fs::read(&path).unwrap();
        let full = bytes.len();
        bytes.extend_from_slice(&[0u8; 7]);
        std::fs::write(&path, &bytes).unwrap();
        match MmapCapture::open(&path) {
            Err(Error::BadPcapRecord {
                offset,
                needed: 16,
                got: 7,
            }) => assert_eq!(offset, full as u64),
            other => panic!("expected stub-header error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_keeps_time_order() {
        let mut a = Capture::new();
        a.record(sample(1.0, b"a"));
        a.record(sample(3.0, b"c"));
        let mut b = Capture::new();
        b.record(sample(2.0, b"b"));
        a.merge(b);
        let ts: Vec<f64> = a.packets.iter().map(|p| p.timestamp).collect();
        assert_eq!(ts, vec![1.0, 2.0, 3.0]);
    }

    /// Regression: merging a capture holding a corrupt (NaN-timestamp)
    /// record used to panic the `partial_cmp(..).unwrap()` sort. Under
    /// `total_cmp` NaN sorts after every real timestamp and the merge keeps
    /// working.
    #[test]
    fn merge_survives_corrupt_timestamp() {
        let mut a = Capture::new();
        a.record(sample(1.0, b"a"));
        a.record(sample(3.0, b"c"));
        let mut b = Capture::new();
        b.record(sample(f64::NAN, b"corrupt"));
        b.record(sample(2.0, b"b"));
        a.merge(b);
        let ts: Vec<f64> = a.packets.iter().map(|p| p.timestamp).collect();
        assert_eq!(&ts[..3], &[1.0, 2.0, 3.0]);
        assert!(ts[3].is_nan(), "corrupt record sorts last");
    }

    #[test]
    fn parsed_skips_garbage_frames() {
        let mut cap = Capture::new();
        cap.record(sample(0.0, b"ok"));
        cap.record(CapturedPacket {
            timestamp: 0.5,
            frame: vec![0xFF; 30],
        });
        assert_eq!(cap.parsed().len(), 1);
        assert_eq!(cap.len(), 2);
    }

    #[test]
    fn capture_accounting() {
        let mut cap = Capture::new();
        assert!(cap.is_empty());
        assert_eq!(cap.time_span(), None);
        cap.record(sample(2.0, b"xy"));
        cap.record(sample(9.0, b"z"));
        assert_eq!(cap.time_span(), Some((2.0, 9.0)));
        assert!(cap.total_bytes() > 100);
    }
}
