//! Seeded tap impairment: what a lossy, reordering span port does to a
//! clean capture before it reaches `serve`.
//!
//! The only two operations are dropping a record and swapping the frames
//! of two adjacent records. A swap keeps each slot's timestamp, because a
//! tap stamps packets in the order they arrive: the impaired capture stays
//! time-ordered, so `analyze --follow` (which re-sorts by timestamp) sees
//! the same packet order as a live feed of the same bytes.

/// Pcap global header length.
const GLOBAL_HEADER: usize = 24;
/// Pcap record header length.
const RECORD_HEADER: usize = 16;

/// What one impairment pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapStats {
    /// Records in the clean capture.
    pub records_in: usize,
    /// Records written to the tap (`records_in - dropped`).
    pub records_out: usize,
    /// Records dropped.
    pub dropped: usize,
    /// Adjacent pairs whose frames were swapped.
    pub swapped: usize,
}

/// SplitMix64: a small, fixed generator so the impairment of a seed never
/// depends on another crate's stream.
struct SplitMix(u64);

impl SplitMix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Byte ranges of every record (header included) in a little-endian pcap.
pub fn record_ranges(pcap: &[u8]) -> Result<Vec<std::ops::Range<usize>>, String> {
    if pcap.len() < GLOBAL_HEADER {
        return Err(format!(
            "capture is {} bytes, shorter than a pcap header",
            pcap.len()
        ));
    }
    let mut ranges = Vec::new();
    let mut off = GLOBAL_HEADER;
    while off < pcap.len() {
        let header = pcap
            .get(off..off + RECORD_HEADER)
            .ok_or_else(|| format!("truncated record header at byte {off}"))?;
        let incl = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
        let end = off + RECORD_HEADER + incl;
        if end > pcap.len() {
            return Err(format!(
                "record at byte {off} runs past the end of the capture"
            ));
        }
        ranges.push(off..end);
        off = end;
    }
    Ok(ranges)
}

/// Drop each record with probability `loss`, then swap the frames of each
/// surviving adjacent pair with probability `swap` (pairs never overlap).
pub fn impair(pcap: &[u8], seed: u64, loss: f64, swap: f64) -> Result<(Vec<u8>, TapStats), String> {
    let ranges = record_ranges(pcap)?;
    let mut rng = SplitMix(seed);
    let kept: Vec<&std::ops::Range<usize>> =
        ranges.iter().filter(|_| rng.next_f64() >= loss).collect();
    let mut out = Vec::with_capacity(pcap.len());
    out.extend_from_slice(&pcap[..GLOBAL_HEADER]);
    // The slot's timestamp (first 8 header bytes), then the occupant's
    // lengths and frame.
    let mut emit = |slot: &std::ops::Range<usize>, occupant: &std::ops::Range<usize>| {
        out.extend_from_slice(&pcap[slot.start..slot.start + 8]);
        out.extend_from_slice(&pcap[occupant.start + 8..occupant.end]);
    };
    let mut swapped = 0;
    let mut i = 0;
    while i < kept.len() {
        if i + 1 < kept.len() && rng.next_f64() < swap {
            emit(kept[i], kept[i + 1]);
            emit(kept[i + 1], kept[i]);
            swapped += 1;
            i += 2;
        } else {
            emit(kept[i], kept[i]);
            i += 1;
        }
    }
    let stats = TapStats {
        records_in: ranges.len(),
        records_out: kept.len(),
        dropped: ranges.len() - kept.len(),
        swapped,
    };
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncharted::nettap::flow::FlowTable;
    use uncharted::nettap::pcap::Capture;
    use uncharted::{Scenario, Simulation, Year};

    fn clean_capture() -> Vec<u8> {
        let set = Simulation::new(Scenario::small(Year::Y1, 3, 60.0)).run();
        let mut buf = Vec::new();
        set.captures[0].write_pcap(&mut buf).expect("encode pcap");
        buf
    }

    fn frames(pcap: &[u8]) -> Vec<(u64, Vec<u8>)> {
        record_ranges(pcap)
            .expect("valid pcap")
            .into_iter()
            .map(|r| {
                let word = |at: usize| u32::from_le_bytes(pcap[at..at + 4].try_into().unwrap());
                let ts = word(r.start) as u64 * 1_000_000 + word(r.start + 4) as u64;
                (ts, pcap[r.start + 8..r.end].to_vec())
            })
            .collect()
    }

    #[test]
    fn impairment_only_drops_or_swaps_records() {
        let clean = clean_capture();
        let (tap, stats) = impair(&clean, 11, 0.05, 0.1).unwrap();
        assert!(stats.dropped > 0 && stats.swapped > 0);
        assert_eq!(stats.records_out, stats.records_in - stats.dropped);
        let before = frames(&clean);
        let after = frames(&tap);
        assert_eq!(after.len(), stats.records_out);
        // Every emitted frame is a clean frame: nothing is invented or
        // duplicated.
        let mut pool: Vec<&Vec<u8>> = before.iter().map(|(_, f)| f).collect();
        pool.sort();
        for (_, frame) in &after {
            let at = pool
                .binary_search(&frame)
                .expect("frame not in the clean capture");
            pool.remove(at);
        }
        // Timestamps keep the tap's arrival order.
        assert!(after.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn impairment_is_seeded() {
        let clean = clean_capture();
        assert_eq!(
            impair(&clean, 5, 0.005, 0.01),
            impair(&clean, 5, 0.005, 0.01)
        );
        assert_ne!(
            impair(&clean, 5, 0.005, 0.01).unwrap().0,
            impair(&clean, 6, 0.005, 0.01).unwrap().0
        );
    }

    #[test]
    fn reassembly_never_delivers_more_than_is_offered() {
        let clean = clean_capture();
        for (loss, swap) in [(0.0, 0.01), (0.005, 0.01), (0.05, 0.0)] {
            let (tap, _) = impair(&clean, 9, loss, swap).unwrap();
            let capture = Capture::read_pcap(&tap[..]).unwrap();
            let table = FlowTable::from_capture(&capture);
            let offered = capture
                .parsed()
                .iter()
                .filter(|p| !p.payload.is_empty())
                .count();
            let delivered: usize = table
                .connections
                .iter()
                .map(|c| c.ab.segments_delivered + c.ba.segments_delivered)
                .sum();
            assert!(
                delivered <= offered,
                "{delivered} delivered > {offered} offered"
            );
        }
    }

    #[test]
    fn rejects_a_truncated_capture() {
        let clean = clean_capture();
        assert!(impair(&clean[..clean.len() - 3], 1, 0.0, 0.0).is_err());
        assert!(impair(&clean[..10], 1, 0.0, 0.0).is_err());
    }
}
