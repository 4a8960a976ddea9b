//! TCP flow lifetime statistics (paper §6.2): Table 3's short-/long-lived
//! split, Fig. 8's duration histogram, and the Fig. 9 reject census.

use serde::Serialize;
use uncharted_nettap::flow::FlowTable;

/// Table 3 for one dataset/year.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FlowStats {
    /// Short-lived flows lasting under one second.
    pub short_sub_second: usize,
    /// Short-lived flows lasting one second or more.
    pub short_longer: usize,
    /// Long-lived flows (truncated at a capture boundary).
    pub long_lived: usize,
}

impl FlowStats {
    /// Compute from a reconstructed flow table.
    pub fn from_flows(flows: &FlowTable) -> FlowStats {
        let mut stats = FlowStats {
            short_sub_second: 0,
            short_longer: 0,
            long_lived: 0,
        };
        for c in &flows.connections {
            if c.is_short_lived() {
                if c.duration() < 1.0 {
                    stats.short_sub_second += 1;
                } else {
                    stats.short_longer += 1;
                }
            } else {
                stats.long_lived += 1;
            }
        }
        stats
    }

    /// Total short-lived flows.
    pub fn short_lived(&self) -> usize {
        self.short_sub_second + self.short_longer
    }

    /// All flows.
    pub fn total(&self) -> usize {
        self.short_lived() + self.long_lived
    }

    /// Fraction of short-lived flows below one second (paper: 99.8 % in Y1).
    pub fn sub_second_fraction(&self) -> f64 {
        if self.short_lived() == 0 {
            0.0
        } else {
            self.short_sub_second as f64 / self.short_lived() as f64
        }
    }

    /// Fraction of all flows that are short-lived (paper: 74.4 % in Y1).
    pub fn short_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.short_lived() as f64 / self.total() as f64
        }
    }
}

/// Fig. 8: histogram of short-lived flow durations over log10 buckets.
///
/// Returns `(bucket_low_exponent, count)` pairs: bucket `e` counts durations
/// in `[10^e, 10^(e+1))`, with an extra `i32::MIN` bucket for zero-length
/// flows.
pub fn duration_histogram(flows: &FlowTable) -> Vec<(i32, usize)> {
    let mut counts: std::collections::BTreeMap<i32, usize> = std::collections::BTreeMap::new();
    for c in flows.connections.iter().filter(|c| c.is_short_lived()) {
        let d = c.duration();
        let bucket = if d <= 0.0 {
            i32::MIN
        } else {
            d.log10().floor() as i32
        };
        *counts.entry(bucket).or_default() += 1;
    }
    counts.into_iter().collect()
}

/// Fig. 9: per endpoint-pair, how many reconstructed connections ended in a
/// reset. Sorted descending by reset count.
pub fn reject_census(flows: &FlowTable) -> Vec<(uncharted_nettap::flow::FlowKey, usize)> {
    let mut counts: std::collections::BTreeMap<
        (u32, u32),
        (uncharted_nettap::flow::FlowKey, usize),
    > = std::collections::BTreeMap::new();
    for c in &flows.connections {
        if c.was_reset() {
            let ip_pair = (c.key.a.ip.min(c.key.b.ip), c.key.a.ip.max(c.key.b.ip));
            counts
                .entry(ip_pair)
                .and_modify(|e| e.1 += 1)
                .or_insert((c.key, 1));
        }
    }
    let mut v: Vec<_> = counts.into_values().collect();
    v.sort_by_key(|r| std::cmp::Reverse(r.1));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use uncharted_nettap::ethernet::MacAddr;
    use uncharted_nettap::ipv4::addr;
    use uncharted_nettap::pcap::CapturedPacket;
    use uncharted_nettap::tcp::{TcpFlags, TcpHeader};

    fn pkt(
        t: f64,
        src_ip: u32,
        sp: u16,
        dst_ip: u32,
        dp: u16,
        flags: TcpFlags,
        seq: u32,
    ) -> uncharted_nettap::pcap::ParsedPacket {
        CapturedPacket::build(
            t,
            MacAddr::from_device_id(1),
            MacAddr::from_device_id(2),
            src_ip,
            dst_ip,
            TcpHeader {
                src_port: sp,
                dst_port: dp,
                seq,
                ack: 0,
                flags,
                window: 1,
            },
            b"",
            0,
        )
        .parse()
        .unwrap()
    }

    fn reject_pair(t: f64, port: u16) -> Vec<uncharted_nettap::pcap::ParsedPacket> {
        let s = addr(10, 0, 0, 1);
        let r = addr(10, 1, 4, 6);
        vec![
            pkt(t, s, port, r, 2404, TcpFlags::SYN, 100),
            pkt(
                t + 0.05,
                r,
                2404,
                s,
                port,
                TcpFlags::RST.with(TcpFlags::ACK),
                0,
            ),
        ]
    }

    #[test]
    fn table3_style_stats() {
        let mut packets = Vec::new();
        for i in 0..10 {
            packets.extend(reject_pair(i as f64 * 5.0, 40000 + i));
        }
        // One long-lived flow (no SYN).
        packets.push(pkt(
            1.0,
            addr(10, 0, 0, 2),
            41000,
            addr(10, 1, 3, 3),
            2404,
            TcpFlags::ACK,
            5,
        ));
        packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        let flows = FlowTable::reconstruct(&packets, uncharted_nettap::NettapMetrics::sink());
        let stats = FlowStats::from_flows(&flows);
        assert_eq!(stats.short_sub_second, 10);
        assert_eq!(stats.short_longer, 0);
        assert_eq!(stats.long_lived, 1);
        assert!((stats.sub_second_fraction() - 1.0).abs() < 1e-12);
        assert!((stats.short_fraction() - 10.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_log10() {
        let mut packets = Vec::new();
        // 0.05 s flow -> bucket -2; 5 s flow -> bucket 0.
        let s = addr(10, 0, 0, 1);
        let r = addr(10, 1, 4, 6);
        packets.extend(reject_pair(0.0, 40000)); // 0.05s
        packets.push(pkt(10.0, s, 40500, r, 2404, TcpFlags::SYN, 1));
        packets.push(pkt(
            15.0,
            r,
            2404,
            s,
            40500,
            TcpFlags::FIN.with(TcpFlags::ACK),
            1,
        ));
        packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        let flows = FlowTable::reconstruct(&packets, uncharted_nettap::NettapMetrics::sink());
        let hist = duration_histogram(&flows);
        assert!(hist.contains(&(-2, 1)));
        assert!(hist.contains(&(0, 1)));
    }

    /// Regression (corrupt-timestamp fixture): a pcap record carrying a NaN
    /// timestamp used to panic the `partial_cmp(..).unwrap()` sorts on the
    /// stats path. Under `total_cmp` the corrupt record sorts last and the
    /// flow statistics for the intact records are unchanged.
    #[test]
    fn corrupt_timestamp_record_does_not_panic_the_stats_path() {
        let mut packets = Vec::new();
        for i in 0..3 {
            packets.extend(reject_pair(i as f64 * 5.0, 40000 + i));
        }
        // The corrupt record: NaN timestamp on its own 4-tuple.
        packets.push(pkt(
            f64::NAN,
            addr(10, 0, 0, 9),
            45000,
            addr(10, 1, 4, 6),
            2404,
            TcpFlags::SYN,
            7,
        ));
        // This sort is the former panic site.
        packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        assert!(
            packets.last().unwrap().timestamp.is_nan(),
            "total order puts NaN after every real timestamp"
        );
        let flows = FlowTable::reconstruct(&packets, uncharted_nettap::NettapMetrics::sink());
        let stats = FlowStats::from_flows(&flows);
        assert_eq!(stats.short_sub_second, 3, "intact flows still counted");
        let _ = duration_histogram(&flows);
        let _ = reject_census(&flows);
    }

    #[test]
    fn reject_census_counts_per_pair() {
        let mut packets = Vec::new();
        for i in 0..7 {
            packets.extend(reject_pair(i as f64, 42000 + i));
        }
        let flows = FlowTable::reconstruct(&packets, uncharted_nettap::NettapMetrics::sink());
        let census = reject_census(&flows);
        assert_eq!(census.len(), 1);
        assert_eq!(census[0].1, 7);
    }
}
