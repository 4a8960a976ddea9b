//! Property-based tests for the capture substrate: wire-format round trips,
//! checksum detection, pcap persistence and flow reassembly under
//! adversarial segmentation.

use proptest::prelude::*;
use uncharted_nettap::ethernet::{EthernetHeader, MacAddr, ETHERTYPE_IPV4};
use uncharted_nettap::flow::FlowTable;
use uncharted_nettap::ipv4::Ipv4Header;
use uncharted_nettap::pcap::{Capture, CapturedPacket};
use uncharted_nettap::tcp::{TcpFlags, TcpHeader};

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_tcp_header() -> impl Strategy<Value = TcpHeader> {
    (
        any::<u16>(),
        any::<u16>(),
        any::<u32>(),
        any::<u32>(),
        0u8..32,
        any::<u16>(),
    )
        .prop_map(|(src_port, dst_port, seq, ack, flags, window)| TcpHeader {
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags(flags),
            window,
        })
}

/// Initial sequence numbers: a plain one, and ones within 400 bytes below
/// 2^32 so the stream wraps mid-reassembly.
fn arb_isn() -> impl Strategy<Value = u32> {
    prop_oneof![Just(1000u32), (0u32..400).prop_map(|d| u32::MAX - d)]
}

/// Push `packets` (one direction of one connection, stream starting at
/// sequence number `isn`) through [`FlowTable::push_with`] and rebuild the
/// stream from the delivered ranges by indexing the original `data`. The
/// ranges must arrive in order and back to back for the result to equal
/// `data`.
fn rebuild_from_deliveries(
    packets: &[uncharted_nettap::pcap::ParsedPacket],
    isn: u32,
    data: &[u8],
) -> (FlowTable, Vec<u8>) {
    let mut table = FlowTable::default();
    let mut rebuilt = Vec::new();
    for p in packets {
        table.push_with(p, |_, _, seq, len| {
            let off = seq.wrapping_sub(isn) as usize;
            rebuilt.extend_from_slice(&data[off..off + len as usize]);
        });
    }
    (table, rebuilt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn ethernet_round_trip(dst in arb_mac(), src in arb_mac(), ethertype in any::<u16>()) {
        let hdr = EthernetHeader { dst, src, ethertype };
        let (parsed, off) = EthernetHeader::parse(&hdr.encode()).unwrap();
        prop_assert_eq!(parsed, hdr);
        prop_assert_eq!(off, 14);
    }

    #[test]
    fn ipv4_round_trip(src in any::<u32>(), dst in any::<u32>(), len in 0usize..1000, ident in any::<u16>()) {
        let hdr = Ipv4Header::tcp(src, dst, len, ident);
        let (parsed, off) = Ipv4Header::parse(&hdr.encode()).unwrap();
        prop_assert_eq!(parsed, hdr);
        prop_assert_eq!(off, 20);
    }

    #[test]
    fn ipv4_corruption_detected_or_changes_header(
        src in any::<u32>(), dst in any::<u32>(),
        byte in 0usize..20, flip in 1u8..=255,
    ) {
        let hdr = Ipv4Header::tcp(src, dst, 10, 1);
        let mut bytes = hdr.encode();
        bytes[byte] ^= flip;
        // A single-byte corruption must never round-trip to the same header
        // silently: either the checksum rejects it, or parsing fails.
        if let Ok((parsed, _)) = Ipv4Header::parse(&bytes) { prop_assert_ne!(parsed, hdr) }
    }

    #[test]
    fn tcp_round_trip_with_payload(
        hdr in arb_tcp_header(),
        src_ip in any::<u32>(),
        dst_ip in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let seg = hdr.encode(src_ip, dst_ip, &payload);
        let (parsed, off) = TcpHeader::parse(&seg, src_ip, dst_ip).unwrap();
        prop_assert_eq!(parsed, hdr);
        prop_assert_eq!(&seg[off..], &payload[..]);
    }

    #[test]
    fn tcp_payload_corruption_detected(
        hdr in arb_tcp_header(),
        payload in prop::collection::vec(any::<u8>(), 2..100),
        at in 0usize..100,
        flip in 1u8..=255,
    ) {
        let src_ip = 0x0a000001;
        let dst_ip = 0x0a010203;
        let mut seg = hdr.encode(src_ip, dst_ip, &payload);
        let idx = 20 + (at % payload.len());
        seg[idx] ^= flip;
        prop_assert!(TcpHeader::parse(&seg, src_ip, dst_ip).is_err());
    }

    #[test]
    fn pcap_round_trip(packets in prop::collection::vec(
        (0.0f64..100_000.0, prop::collection::vec(any::<u8>(), 0..120)),
        0..30,
    )) {
        let mut sorted = packets;
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut cap = Capture::new();
        for (ts, frame) in &sorted {
            cap.record(CapturedPacket { timestamp: *ts, frame: frame.clone() });
        }
        let mut buf = Vec::new();
        cap.write_pcap(&mut buf).unwrap();
        let back = Capture::read_pcap(&buf[..]).unwrap();
        prop_assert_eq!(back.len(), cap.len());
        for (a, b) in cap.packets.iter().zip(&back.packets) {
            prop_assert_eq!(&a.frame, &b.frame);
            prop_assert!((a.timestamp - b.timestamp).abs() < 1e-5);
        }
    }

    /// Stream reassembly is invariant under resegmentation and duplication:
    /// split a byte stream into arbitrary TCP segments, duplicate some, and
    /// the reassembled stream must equal the original bytes, also when the
    /// sequence numbers wrap past 2^32.
    #[test]
    fn reassembly_invariant_under_segmentation(
        data in prop::collection::vec(any::<u8>(), 1..400),
        cuts in prop::collection::vec(1usize..400, 0..8),
        dup_idx in any::<prop::sample::Index>(),
        isn in arb_isn(),
    ) {
        let src = (0x0a000001u32, 40000u16);
        let dst = (0x0a010203u32, 2404u16);
        let mut offsets: Vec<usize> = cuts.into_iter().map(|c| c % data.len()).collect();
        offsets.push(0);
        offsets.push(data.len());
        offsets.sort_unstable();
        offsets.dedup();
        let mut packets = Vec::new();
        let mut t = 0.0;
        let mut segs = Vec::new();
        for w in offsets.windows(2) {
            let (a, b) = (w[0], w[1]);
            segs.push((isn.wrapping_add(a as u32), data[a..b].to_vec()));
        }
        // Duplicate one segment (a retransmission).
        if !segs.is_empty() {
            let idx = dup_idx.index(segs.len());
            let dup = segs[idx].clone();
            segs.insert(idx + 1, dup);
        }
        for (seq, payload) in segs {
            packets.push(
                CapturedPacket::build(
                    t,
                    MacAddr::from_device_id(1),
                    MacAddr::from_device_id(2),
                    src.0,
                    dst.0,
                    TcpHeader {
                        src_port: src.1,
                        dst_port: dst.1,
                        seq,
                        ack: 0,
                        flags: TcpFlags::ACK.with(TcpFlags::PSH),
                        window: 8192,
                    },
                    &payload,
                    0,
                )
                .parse()
                .unwrap(),
            );
            t += 0.01;
        }
        let (table, rebuilt) = rebuild_from_deliveries(&packets, isn, &data);
        prop_assert_eq!(table.len(), 1);
        let conn = &table.connections[0];
        let dir = conn.direction_from(uncharted_nettap::stack::SocketAddr::new(src.0, src.1));
        prop_assert_eq!(&rebuilt, &data);
        prop_assert_eq!(conn.dir(dir).payload_bytes, data.len());
    }

    /// Reassembly is also invariant under reordering: deliver the tail
    /// segments in an adversarial order (reversed, then randomly swapped)
    /// and the pending intervals must still reproduce the exact stream.
    #[test]
    fn reassembly_invariant_under_reordering(
        data in prop::collection::vec(any::<u8>(), 2..400),
        cuts in prop::collection::vec(1usize..400, 1..8),
        swaps in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            0..6,
        ),
        isn in arb_isn(),
    ) {
        let src = (0x0a000001u32, 40001u16);
        let dst = (0x0a010203u32, 2404u16);
        let mut offsets: Vec<usize> = cuts.into_iter().map(|c| c % data.len()).collect();
        offsets.push(0);
        offsets.push(data.len());
        offsets.sort_unstable();
        offsets.dedup();
        let mut segs: Vec<(u32, Vec<u8>)> = offsets
            .windows(2)
            .map(|w| (isn.wrapping_add(w[0] as u32), data[w[0]..w[1]].to_vec()))
            .collect();
        // Keep the opening segment first (it anchors the stream cursor);
        // scramble everything after it.
        if segs.len() > 2 {
            segs[1..].reverse();
            let tail = segs.len() - 1;
            for (a, b) in swaps {
                let (i, j) = (1 + a.index(tail), 1 + b.index(tail));
                segs.swap(i, j);
            }
        }
        let mut packets = Vec::new();
        let mut t = 0.0;
        for (seq, payload) in segs {
            packets.push(
                CapturedPacket::build(
                    t,
                    MacAddr::from_device_id(1),
                    MacAddr::from_device_id(2),
                    src.0,
                    dst.0,
                    TcpHeader {
                        src_port: src.1,
                        dst_port: dst.1,
                        seq,
                        ack: 0,
                        flags: TcpFlags::ACK.with(TcpFlags::PSH),
                        window: 8192,
                    },
                    &payload,
                    0,
                )
                .parse()
                .unwrap(),
            );
            t += 0.01;
        }
        let (table, rebuilt) = rebuild_from_deliveries(&packets, isn, &data);
        prop_assert_eq!(table.len(), 1);
        let conn = &table.connections[0];
        let dir = conn.direction_from(uncharted_nettap::stack::SocketAddr::new(src.0, src.1));
        prop_assert_eq!(&rebuilt, &data);
        prop_assert_eq!(conn.dir(dir).payload_bytes, data.len());
    }

    #[test]
    fn capture_parse_never_panics_on_junk(frames in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 0..80), 0..10,
    )) {
        let mut cap = Capture::new();
        for (i, frame) in frames.into_iter().enumerate() {
            cap.record(CapturedPacket { timestamp: i as f64, frame });
        }
        let _ = cap.parsed(); // must not panic
        let _ = FlowTable::from_capture(&cap);
    }

    #[test]
    fn frame_build_parse_round_trip(
        hdr in arb_tcp_header(),
        payload in prop::collection::vec(any::<u8>(), 0..200),
        src_ip in any::<u32>(),
        dst_ip in any::<u32>(),
        ts in 0.0f64..1e6,
    ) {
        let pkt = CapturedPacket::build(
            ts,
            MacAddr::from_device_id(src_ip),
            MacAddr::from_device_id(dst_ip),
            src_ip,
            dst_ip,
            hdr,
            &payload,
            7,
        );
        let parsed = pkt.parse().unwrap();
        prop_assert_eq!(parsed.tcp, hdr);
        prop_assert_eq!(parsed.ip.src, src_ip);
        prop_assert_eq!(parsed.ip.dst, dst_ip);
        prop_assert_eq!(parsed.payload, payload);
        prop_assert_eq!(parsed.eth.ethertype, ETHERTYPE_IPV4);
    }
}
