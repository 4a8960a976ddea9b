//! Property-based parity suite for the two ingest schedules.
//!
//! `Dataset::ingest` runs its reassembly and protocol passes one after the
//! other under `Sequential`, and side by side on two threads under
//! `Threads(n)` with n > 1. The contract is total: for *any* capture —
//! random flow mixes, arbitrary interleavings, junk payloads,
//! retransmissions, bare ACKs — the `Dataset` and every downstream stage
//! result must be bit-identical between the two schedules, and so must the
//! metrics counter fingerprint. These tests generate adversarial captures
//! and check the whole pipeline at n ∈ {1, 2, 3, 8}, plus the degenerate
//! captures the generator is unlikely to hit (empty capture, single flow,
//! all junk).

use proptest::prelude::*;
use uncharted_analysis::dataset::{Dataset, IEC104_PORT};
use uncharted_analysis::dpi;
use uncharted_analysis::exec::{ExecContext, ExecPolicy};
use uncharted_analysis::markov::ChainCensus;
use uncharted_analysis::session;
use uncharted_analysis::TypeCensus;
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

/// One scripted wire event on a flow.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// An I-frame float measurement from the outstation (IOA selector).
    IFrame(u8),
    /// An S-frame acknowledgement from the server.
    SFrame,
    /// A TESTFR keep-alive from the server.
    UFrame,
    /// Non-IEC-104 bytes on the 104 port (junk the decoder must skip).
    Junk,
    /// A bare ACK (empty payload) from the outstation.
    Ack,
    /// Retransmit the outstation's previous data packet (same seq).
    Retrans,
}

/// One flow's script: who talks to whom, in which dialect, saying what.
#[derive(Debug, Clone)]
struct FlowSpec {
    out_id: u8,
    server_id: u8,
    port_off: u16,
    dialect: u8,
    /// Plain chatter: both ports off 2404, invisible to protocol analysis.
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

/// Per-flow playback state: seq cursors per direction and the last
/// outstation data packet (for retransmissions).
struct FlowState {
    out_seq: u32,
    srv_seq: u32,
    send_seq: u16,
    last_out: Option<(u32, Vec<u8>)>,
}

/// Render one flow event into zero or one packet at time `t`.
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

/// Interleave the flows' scripts into one time-ordered capture: `lace`
/// picks which flow speaks next; leftovers flush flow by flow.
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

/// Run the full pipeline under `policy` and return every stage result plus
/// the metrics fingerprint.
struct FullRun {
    ds: Dataset,
    sessions: Vec<session::Session>,
    census: TypeCensus,
    chains: ChainCensus,
    series: Vec<dpi::TimeSeries>,
    fingerprint: String,
}

fn run_full(packets: Vec<ParsedPacket>, policy: ExecPolicy) -> FullRun {
    let ctx = ExecContext::new(policy);
    let ds = Dataset::ingest(packets, &ctx);
    let sessions = session::extract(&ds, &ctx);
    let census = TypeCensus::build(&ds, &ctx);
    let chains = ChainCensus::build(&ds, &ctx);
    let series = dpi::series(&ds, &ctx);
    let fingerprint = ctx.metrics.snapshot().counter_fingerprint();
    FullRun {
        ds,
        sessions,
        census,
        chains,
        series,
        fingerprint,
    }
}

/// Assert a threaded run is bit-identical to the sequential reference.
fn assert_parity(packets: &[ParsedPacket]) {
    let reference = run_full(packets.to_vec(), ExecPolicy::Sequential);
    for n in [1usize, 2, 3, 8] {
        let run = run_full(packets.to_vec(), ExecPolicy::Threads(n));
        assert_eq!(run.ds.dialects, reference.ds.dialects, "dialects, n = {n}");
        assert_eq!(
            run.ds.compliance, reference.ds.compliance,
            "compliance, n = {n}"
        );
        assert_eq!(
            run.ds.timelines, reference.ds.timelines,
            "timelines, n = {n}"
        );
        assert_eq!(
            run.ds.flows.connections, reference.ds.flows.connections,
            "flow records, n = {n}"
        );
        assert_eq!(run.sessions, reference.sessions, "sessions, n = {n}");
        assert_eq!(
            run.census.counts, reference.census.counts,
            "type census, n = {n}"
        );
        assert_eq!(
            run.chains.rows, reference.chains.rows,
            "chain census, n = {n}"
        );
        assert_eq!(run.series, reference.series, "time series, n = {n}");
        assert_eq!(
            run.fingerprint, reference.fingerprint,
            "counter fingerprint, n = {n}"
        );
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

    /// The tentpole property: any flow mix under any interleaving produces
    /// identical datasets, stage results, and counter fingerprints at every
    /// thread count.
    #[test]
    fn pipelined_executor_matches_sequential(
        flows in prop::collection::vec(arb_flow(), 1..6),
        lace in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let packets = build_capture(&flows, &lace);
        assert_parity(&packets);
    }
}

#[test]
fn empty_capture_is_identical_under_any_policy() {
    assert_parity(&[]);
}

#[test]
fn single_flow_is_identical_under_any_policy() {
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
    assert_parity(&packets);
}

#[test]
fn all_junk_payloads_are_identical_under_any_policy() {
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
    assert_parity(&packets);
}
