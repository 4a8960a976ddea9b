//! Property-based parity suite for the incremental streaming engine.
//!
//! The engine's contract (see `analysis::stream`): a streaming replay with
//! **no idle timeout** reproduces the batch pipeline bit for bit — the same
//! dialect map, the same compliance census, the same session feature
//! vectors in the same order, the same chain census rows, and the same
//! metrics counter fingerprint — at *any* batch size and under *any*
//! window setting. These tests generate the same adversarial captures the
//! executor parity suite uses (random flow mixes, junk payloads,
//! retransmissions, bare ACKs, mixed dialects) and replay each through the
//! streaming engine at batch sizes {1, 7, whole-capture} with windowing
//! both off and on.
//!
//! A separate long-replay test checks the boundedness half of the design:
//! with a finite idle timeout, resident buffer bytes and the live flow set
//! stay bounded by the *active* conversations while evictions finalize the
//! rest.

use proptest::prelude::*;
use uncharted_analysis::dataset::{Dataset, IEC104_PORT};
use uncharted_analysis::exec::{ExecContext, ExecPolicy, PipelineMetrics};
use uncharted_analysis::markov::{ChainCensus, ChainInfo};
use uncharted_analysis::session;
use uncharted_analysis::stream::StreamSession;
use uncharted_analysis::SessionFeatures;
use uncharted_iec104::apci::UFunction;
use uncharted_iec104::apdu::Apdu;
use uncharted_iec104::asdu::{Asdu, InfoObject, IoValue};
use uncharted_iec104::cot::{Cause, Cot};
use uncharted_iec104::dialect::Dialect;
use uncharted_iec104::elements::Qds;
use uncharted_iec104::types::TypeId;
use uncharted_nettap::ethernet::MacAddr;
use uncharted_nettap::ipv4::addr;
use uncharted_nettap::pcap::{CapturedPacket, ParsedPacket};
use uncharted_nettap::tcp::{TcpFlags, TcpHeader};

/// One scripted wire event on a flow (the executor-parity generator).
#[derive(Debug, Clone, Copy)]
enum Ev {
    IFrame(u8),
    SFrame,
    UFrame,
    Junk,
    Ack,
    Retrans,
}

#[derive(Debug, Clone)]
struct FlowSpec {
    out_id: u8,
    server_id: u8,
    port_off: u16,
    dialect: u8,
    plain: bool,
    events: Vec<Ev>,
}

fn dialect_of(code: u8) -> Dialect {
    match code % 3 {
        0 => Dialect::STANDARD,
        1 => Dialect::LEGACY_COT,
        _ => Dialect::LEGACY_IOA,
    }
}

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

fn float_apdu(seq: u16, ioa: u32, value: f32, dialect: Dialect) -> Vec<u8> {
    let asdu =
        Asdu::new(TypeId::M_ME_NC_1, Cot::new(Cause::Spontaneous), 7).with_object(InfoObject::new(
            ioa,
            IoValue::FloatMeasurement {
                value,
                qds: Qds::GOOD,
            },
        ));
    Apdu::i_frame(seq, 0, asdu).encode(dialect).unwrap()
}

struct FlowState {
    out_seq: u32,
    srv_seq: u32,
    send_seq: u16,
    last_out: Option<(u32, Vec<u8>)>,
}

fn emit(spec: &FlowSpec, st: &mut FlowState, ev: Ev, t: f64) -> Option<ParsedPacket> {
    let out_ip = addr(10, 1, 5, 10 + (spec.out_id % 5));
    let srv_ip = addr(10, 0, 0, 1 + (spec.server_id % 2));
    let (out_port, srv_port) = if spec.plain {
        (9000 + spec.port_off, 40000 + spec.port_off)
    } else {
        (IEC104_PORT, 40000 + spec.port_off)
    };
    let dialect = dialect_of(spec.dialect);
    match ev {
        Ev::IFrame(ioa) => {
            let payload = float_apdu(st.send_seq, 700 + ioa as u32, 50.0 + ioa as f32, dialect);
            st.send_seq = st.send_seq.wrapping_add(1);
            let seq = st.out_seq;
            st.out_seq += payload.len() as u32;
            st.last_out = Some((seq, payload.clone()));
            Some(packet(t, out_ip, out_port, srv_ip, srv_port, seq, &payload))
        }
        Ev::SFrame => {
            let payload = Apdu::s_frame(st.send_seq).encode(dialect).unwrap();
            let seq = st.srv_seq;
            st.srv_seq += payload.len() as u32;
            Some(packet(t, srv_ip, srv_port, out_ip, out_port, seq, &payload))
        }
        Ev::UFrame => {
            let payload = Apdu::u_frame(UFunction::TestFrAct).encode(dialect).unwrap();
            let seq = st.srv_seq;
            st.srv_seq += payload.len() as u32;
            Some(packet(t, srv_ip, srv_port, out_ip, out_port, seq, &payload))
        }
        Ev::Junk => {
            let payload = [0xde, 0xad, 0xbe, 0xef, spec.out_id];
            let seq = st.out_seq;
            st.out_seq += payload.len() as u32;
            st.last_out = Some((seq, payload.to_vec()));
            Some(packet(t, out_ip, out_port, srv_ip, srv_port, seq, &payload))
        }
        Ev::Ack => Some(packet(
            t,
            out_ip,
            out_port,
            srv_ip,
            srv_port,
            st.out_seq,
            &[],
        )),
        Ev::Retrans => {
            let (seq, payload) = st.last_out.clone()?;
            Some(packet(t, out_ip, out_port, srv_ip, srv_port, seq, &payload))
        }
    }
}

fn build_capture(flows: &[FlowSpec], lace: &[u8]) -> Vec<ParsedPacket> {
    let mut states: Vec<FlowState> = flows
        .iter()
        .map(|_| FlowState {
            out_seq: 1,
            srv_seq: 1,
            send_seq: 0,
            last_out: None,
        })
        .collect();
    let mut cursors = vec![0usize; flows.len()];
    let mut packets = Vec::new();
    let mut t = 0.0f64;
    let mut step = |f: usize,
                    states: &mut Vec<FlowState>,
                    cursors: &mut Vec<usize>,
                    packets: &mut Vec<ParsedPacket>| {
        if cursors[f] >= flows[f].events.len() {
            return;
        }
        let ev = flows[f].events[cursors[f]];
        cursors[f] += 1;
        if let Some(pkt) = emit(&flows[f], &mut states[f], ev, t) {
            packets.push(pkt);
            t += 0.01;
        }
    };
    if !flows.is_empty() {
        for &pick in lace {
            step(
                pick as usize % flows.len(),
                &mut states,
                &mut cursors,
                &mut packets,
            );
        }
        for f in 0..flows.len() {
            while cursors[f] < flows[f].events.len() {
                step(f, &mut states, &mut cursors, &mut packets);
            }
        }
    }
    packets
}

/// The batch reference: ingest + sessions + chain census on a private
/// sequential context, plus its counter fingerprint and the segments left
/// pending behind sequence holes (a gauge, outside the fingerprint).
struct BatchRun {
    ds: Dataset,
    sessions: Vec<(u32, u32, bool, SessionFeatures)>,
    chains: Vec<ChainInfo>,
    fingerprint: String,
    segments_pending: Option<i64>,
}

fn run_batch(packets: Vec<ParsedPacket>) -> BatchRun {
    let ctx = ExecContext::new(ExecPolicy::Sequential);
    let ds = Dataset::ingest(packets, &ctx);
    let sessions = session::extract(&ds, &ctx)
        .iter()
        .map(|s| (s.src, s.dst, s.from_server, s.features()))
        .collect();
    let chains = ChainCensus::build(&ds, &ctx).rows;
    let snap = ctx.metrics.snapshot();
    BatchRun {
        ds,
        sessions,
        chains,
        fingerprint: snap.counter_fingerprint(),
        segments_pending: snap.gauge_value("nettap_segments_pending", &[]),
    }
}

/// One streaming replay with no idle timeout.
struct StreamRun {
    summary: uncharted_analysis::StreamSummary,
    fingerprint: String,
    segments_pending: Option<i64>,
}

fn run_stream(packets: &[ParsedPacket], batch_size: usize, window: Option<f64>) -> StreamRun {
    let metrics = PipelineMetrics::new();
    let mut s = StreamSession::builder()
        .window(window)
        .metrics(std::sync::Arc::clone(&metrics))
        .build();
    if packets.is_empty() {
        s.push_batch(&[]);
    } else {
        for chunk in packets.chunks(batch_size) {
            s.push_batch(chunk);
        }
    }
    let (summary, _events) = s.finish();
    let snap = metrics.snapshot();
    StreamRun {
        summary,
        fingerprint: snap.counter_fingerprint(),
        segments_pending: snap.gauge_value("nettap_segments_pending", &[]),
    }
}

/// Assert the streaming replay is bit-identical to the batch reference at
/// several batch sizes, with windowing off and on.
fn assert_stream_parity(packets: &[ParsedPacket]) {
    let batch = run_batch(packets.to_vec());
    for (batch_size, window) in [
        (1usize, None),
        (7, None),
        (usize::MAX, None),
        (7, Some(0.05)),
    ] {
        let run = run_stream(packets, batch_size, window);
        let label = format!("batch_size = {batch_size}, window = {window:?}");
        assert_eq!(run.summary.dialects, batch.ds.dialects, "dialects, {label}");
        assert_eq!(
            run.summary.compliance, batch.ds.compliance,
            "compliance, {label}"
        );
        let stream_sessions: Vec<(u32, u32, bool, SessionFeatures)> = run
            .summary
            .sessions
            .iter()
            .map(|r| (r.src_ip, r.dst_ip, r.from_server, r.features))
            .collect();
        assert_eq!(stream_sessions, batch.sessions, "sessions, {label}");
        assert_eq!(run.summary.chains, batch.chains, "chain census, {label}");
        assert_eq!(
            run.fingerprint, batch.fingerprint,
            "counter fingerprint, {label}"
        );
        assert_eq!(
            run.segments_pending, batch.segments_pending,
            "stranded segments, {label}"
        );
        assert_eq!(run.summary.evicted_flows, 0, "no timeout, no evictions");
    }
}

fn arb_event() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0u8..8).prop_map(Ev::IFrame),
        Just(Ev::SFrame),
        Just(Ev::UFrame),
        Just(Ev::Junk),
        Just(Ev::Ack),
        Just(Ev::Retrans),
    ]
}

fn arb_flow() -> impl Strategy<Value = FlowSpec> {
    (
        0u8..5,
        0u8..2,
        0u16..6,
        0u8..3,
        any::<bool>(),
        prop::collection::vec(arb_event(), 1..24),
    )
        .prop_map(
            |(out_id, server_id, port_off, dialect, plain, events)| FlowSpec {
                out_id,
                server_id,
                port_off,
                dialect,
                plain,
                events,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: any flow mix under any interleaving, replayed
    /// incrementally at any batch size, produces the batch dialect map,
    /// compliance census, sessions, chain census, and counter fingerprint.
    #[test]
    fn streaming_replay_matches_batch(
        flows in prop::collection::vec(arb_flow(), 1..6),
        lace in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let packets = build_capture(&flows, &lace);
        assert_stream_parity(&packets);
    }
}

#[test]
fn empty_capture_matches_batch() {
    assert_stream_parity(&[]);
}

#[test]
fn single_flow_matches_batch() {
    let flows = [FlowSpec {
        out_id: 0,
        server_id: 0,
        port_off: 0,
        dialect: 1,
        plain: false,
        events: vec![
            Ev::IFrame(0),
            Ev::SFrame,
            Ev::IFrame(1),
            Ev::Retrans,
            Ev::Ack,
            Ev::UFrame,
            Ev::IFrame(2),
        ],
    }];
    let packets = build_capture(&flows, &[0, 0, 0, 0, 0, 0, 0]);
    assert!(!packets.is_empty());
    assert_stream_parity(&packets);
}

#[test]
fn all_junk_payloads_match_batch() {
    let flows: Vec<FlowSpec> = (0..4)
        .map(|i| FlowSpec {
            out_id: i,
            server_id: i % 2,
            port_off: i as u16,
            dialect: i,
            plain: false,
            events: vec![Ev::Junk; 6],
        })
        .collect();
    let packets = build_capture(&flows, &[0, 1, 2, 3, 2, 1, 0, 3, 1, 0, 2, 3]);
    assert!(!packets.is_empty());
    assert_stream_parity(&packets);
}

/// A long sample-cap conversation: enough outstation I-frames that the
/// 64-frame sample cap freezes the dialect early, exercising the
/// early-resolution path against the batch whole-capture detection.
#[test]
fn long_conversation_with_early_dialect_freeze_matches_batch() {
    let flows = [FlowSpec {
        out_id: 1,
        server_id: 0,
        port_off: 2,
        dialect: 2,
        plain: false,
        events: (0..90)
            .map(|i| match i % 5 {
                0..=2 => Ev::IFrame((i % 8) as u8),
                3 => Ev::SFrame,
                _ => Ev::UFrame,
            })
            .collect(),
    }];
    let packets = build_capture(&flows, &[]);
    assert!(packets.len() > 64);
    assert_stream_parity(&packets);
}

/// The boundedness half of the contract: with a finite idle timeout, a
/// replay of many sequential conversations keeps the live flow set and the
/// resident buffer bytes bounded by the active conversations while evicted
/// units are finalized along the way.
#[test]
fn long_replay_with_idle_timeout_stays_bounded() {
    // 40 conversations, each fully over before the next starts (100 s
    // apart, 30 s idle timeout).
    let mut packets = Vec::new();
    for conv in 0u32..40 {
        let t0 = conv as f64 * 100.0;
        let out_ip = addr(10, 1, (conv % 8) as u8, 10 + (conv % 50) as u8);
        let srv_ip = addr(10, 0, 0, 1);
        let port = 40000 + conv as u16;
        let mut out_seq = 1u32;
        let mut srv_seq = 1u32;
        for i in 0..12u16 {
            let payload = float_apdu(i, 700 + (i as u32 % 4), 50.0, Dialect::STANDARD);
            packets.push(packet(
                t0 + i as f64 * 0.5,
                out_ip,
                IEC104_PORT,
                srv_ip,
                port,
                out_seq,
                &payload,
            ));
            out_seq += payload.len() as u32;
            let ack = Apdu::s_frame(i + 1).encode(Dialect::STANDARD).unwrap();
            packets.push(packet(
                t0 + i as f64 * 0.5 + 0.1,
                srv_ip,
                port,
                out_ip,
                IEC104_PORT,
                srv_seq,
                &ack,
            ));
            srv_seq += ack.len() as u32;
        }
    }
    packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    let total_payload: usize = packets.iter().map(|p| p.payload.len()).sum();

    let metrics = PipelineMetrics::new();
    let mut s = StreamSession::builder()
        .window(Some(10.0))
        .idle_timeout(Some(30.0))
        .metrics(std::sync::Arc::clone(&metrics))
        .build();
    let mut max_resident = 0usize;
    let mut max_flows = 0usize;
    let mut evictions = 0usize;
    for chunk in packets.chunks(16) {
        let events = s.push_batch(chunk);
        evictions += events
            .iter()
            .filter(|e| matches!(e, uncharted_analysis::StreamEvent::FlowEvicted { .. }))
            .count();
        max_resident = max_resident.max(s.resident_buffer_bytes());
        max_flows = max_flows.max(s.active_flows());
    }
    assert!(
        evictions >= 30,
        "idle conversations evicted, got {evictions}"
    );
    assert!(
        max_flows <= 3,
        "live flow set bounded by active conversations, got {max_flows}"
    );
    assert!(
        max_resident < total_payload / 4,
        "resident buffers ({max_resident} B) must stay far below the full \
         capture payload ({total_payload} B)"
    );
    let (summary, _) = s.finish();
    assert_eq!(summary.evicted_flows, evictions);
    assert!(summary.windows_closed > 30, "windows closed along the way");
    assert_eq!(summary.dialects.len(), 8 * 5, "every outstation resolved");
    assert_eq!(
        summary.sessions.len(),
        2 * 40,
        "every conversation finalized both directions"
    );
    // The final conversation is never idle long enough to evict, so it is
    // the one flow still live at finish.
    assert_eq!(summary.live_flows, 1);
    let snap = metrics.snapshot();
    assert_eq!(
        snap.gauge_value("stream_active_flows", &[]),
        Some(summary.live_flows as i64)
    );
}
