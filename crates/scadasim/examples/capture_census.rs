//! Prints a quick census of a small simulated capture: packet counts,
//! flow lifetimes and the APDU token distribution (a miniature Table 7).
use std::collections::{BTreeMap, HashMap};
use uncharted_iec104::apdu::{StreamDecoder, StreamItem};
use uncharted_iec104::dialect::Dialect;
use uncharted_nettap::flow::{Direction, FlowTable};
use uncharted_nettap::stack::SocketAddr;
use uncharted_scadasim::scenario::{Scenario, Year};
use uncharted_scadasim::sim::Simulation;

/// One direction's payloads as `(sequence number, bytes)`, oldest first.
type Segments<'a> = Vec<(u32, &'a [u8])>;

fn main() {
    let mut sc = Scenario::small(Year::Y1, 42, 180.0);
    sc.warmup_s = 0.0;
    sc.windows[0].start = 0.0;
    let set = Simulation::new(sc).run();
    let cap = &set.captures[0];
    println!("packets: {}", cap.len());

    // Reassemble, rebuilding each direction's byte stream from the ranges
    // `push_with` reports as delivered. The flow table holds no payload, so
    // keep every payload by sender and sequence number: a delivered range
    // always lies inside one segment that direction sent (the newest such
    // segment is searched first, which is the current packet unless the
    // range was waiting behind a hole).
    let packets = cap.parsed();
    let mut table = FlowTable::default();
    let mut sent: HashMap<(SocketAddr, SocketAddr), Segments> = HashMap::new();
    let mut streams: HashMap<(usize, Direction), Vec<u8>> = HashMap::new();
    for pkt in &packets {
        let src = SocketAddr::new(pkt.ip.src, pkt.tcp.src_port);
        let dst = SocketAddr::new(pkt.ip.dst, pkt.tcp.dst_port);
        let segs = sent.entry((src, dst)).or_default();
        if !pkt.payload.is_empty() {
            segs.push((pkt.tcp.seq, &pkt.payload));
        }
        table.push_with(pkt, |conn, dir, seq, len| {
            let (off, payload) = segs
                .iter()
                .rev()
                .map(|&(start, payload)| (seq.wrapping_sub(start) as usize, payload))
                .find(|&(off, payload)| off + len as usize <= payload.len())
                .expect("a delivered range lies inside a sent segment");
            streams
                .entry((conn, dir))
                .or_default()
                .extend_from_slice(&payload[off..off + len as usize]);
        });
    }
    println!("connections: {}", table.len());
    let short: Vec<_> = table.short_lived().collect();
    let sub1 = short.iter().filter(|c| c.duration() < 1.0).count();
    println!(
        "short-lived: {} (<1s: {}), long-lived: {}",
        short.len(),
        sub1,
        table.long_lived().count()
    );

    // Token census per connection direction.
    let mut type_counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut malformed = 0usize;
    for conn in 0..table.len() {
        for dir in [Direction::AtoB, Direction::BtoA] {
            let Some(stream) = streams.get(&(conn, dir)) else {
                continue;
            };
            let mut dec = StreamDecoder::new(Dialect::STANDARD);
            for item in dec.feed(stream) {
                match item {
                    StreamItem::Apdu(a) => {
                        *type_counts.entry(a.token()).or_default() += 1;
                    }
                    StreamItem::Malformed(_, _) => malformed += 1,
                }
            }
        }
    }
    println!("malformed frames (strict): {malformed}");
    let total: usize = type_counts.values().sum();
    for (tok, n) in &type_counts {
        println!(
            "  {tok:>5}: {n:>7}  {:.3}%",
            100.0 * *n as f64 / total as f64
        );
    }
}
