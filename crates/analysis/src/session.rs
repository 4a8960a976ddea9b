//! Sessions and their statistical features (paper §6.3).
//!
//! A *session* is "all the packets that are sent in one direction between
//! the same end points". The paper started from ten candidate features and,
//! by per-feature silhouette scoring, kept five: mean inter-arrival time,
//! packet count, and the I/S/U token percentages.

use crate::dataset::{Dataset, PairTimeline, IEC104_PORT};
use crate::exec::ExecContext;
use crate::matrix::FeatureMatrix;
use serde::Serialize;
use uncharted_iec104::tokens::Token;
use uncharted_nettap::pcap::ParsedPacket;
use uncharted_obs::MixHashMap;

/// Packet timestamps and frame bytes per `(src, dst)` IP pair, claimed by
/// sessions in `(timeline, direction)` order.
pub(crate) type PacketStats = MixHashMap<(u32, u32), (Vec<f64>, usize)>;

/// One unidirectional session.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Sender IP.
    pub src: u32,
    /// Receiver IP.
    pub dst: u32,
    /// True when the sender is a control server.
    pub from_server: bool,
    /// Timestamps of every packet in this direction (including bare ACKs).
    pub times: Vec<f64>,
    /// Total frame bytes in this direction.
    pub bytes: usize,
    /// Tokens of the APDUs sent in this direction.
    pub tokens: Vec<Token>,
    /// Distinct information object addresses referenced.
    pub ioa_count: usize,
}

/// The paper's ten candidate features (§6.3 lists the shortlist; the rest
/// are the obvious flow statistics).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SessionFeatures {
    /// F1 (selected): mean inter-arrival time between consecutive packets.
    pub mean_interarrival: f64,
    /// F2 (selected): total packets in this direction.
    pub packets: f64,
    /// F3 (selected): fraction of I-format APDUs.
    pub frac_i: f64,
    /// F4 (selected): fraction of S-format APDUs.
    pub frac_s: f64,
    /// F5 (selected): fraction of U-format APDUs.
    pub frac_u: f64,
    /// F6: direction (1 = from the control server).
    pub from_server: f64,
    /// F7: total bytes.
    pub bytes: f64,
    /// F8: session duration.
    pub duration: f64,
    /// F9: mean frame size.
    pub mean_frame: f64,
    /// F10: distinct IOA count.
    pub ioa_count: f64,
}

impl Session {
    /// Compute the feature vector.
    pub fn features(&self) -> SessionFeatures {
        let n_tok = self.tokens.len().max(1) as f64;
        let count = |pred: fn(&Token) -> bool| {
            self.tokens.iter().filter(|t| pred(t)).count() as f64 / n_tok
        };
        let duration = match (self.times.first(), self.times.last()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        let mean_ia = if self.times.len() >= 2 {
            duration / (self.times.len() - 1) as f64
        } else {
            duration
        };
        SessionFeatures {
            mean_interarrival: mean_ia,
            packets: self.times.len() as f64,
            frac_i: count(|t| t.is_i()),
            frac_s: count(|t| matches!(t, Token::S)),
            frac_u: count(|t| !t.is_i() && !matches!(t, Token::S)),
            from_server: self.from_server as u8 as f64,
            bytes: self.bytes as f64,
            duration,
            mean_frame: self.bytes as f64 / self.times.len().max(1) as f64,
            ioa_count: self.ioa_count as f64,
        }
    }
}

impl SessionFeatures {
    /// The five selected features, as a vector for clustering.
    pub fn selected(&self) -> Vec<f64> {
        vec![
            self.mean_interarrival,
            self.packets,
            self.frac_i,
            self.frac_s,
            self.frac_u,
        ]
    }

    /// All ten features.
    pub fn all(&self) -> Vec<f64> {
        vec![
            self.mean_interarrival,
            self.packets,
            self.frac_i,
            self.frac_s,
            self.frac_u,
            self.from_server,
            self.bytes,
            self.duration,
            self.mean_frame,
            self.ioa_count,
        ]
    }

    /// Names for the ten features (reports).
    pub fn names() -> [&'static str; 10] {
        [
            "mean_interarrival",
            "packets",
            "frac_I",
            "frac_S",
            "frac_U",
            "from_server",
            "bytes",
            "duration",
            "mean_frame",
            "ioa_count",
        ]
    }
}

/// Extract every session (with at least one APDU) from a dataset, under an
/// [`ExecContext`] choosing the metrics sink.
///
/// Packet stats are claimed in the canonical `(timeline, direction)` order:
/// an IP pair can appear in more than one timeline (a host can be server to
/// one peer and outstation to another), and the first claimant consumes the
/// stats entry.
pub fn extract(ds: &Dataset, ctx: &ExecContext) -> Vec<Session> {
    let m = &ctx.metrics;
    let _span = m.sessions_stage.span();
    let sessions = {
        let _shard = m.sessions_stage.shard_span(0);
        // The ingest built the stats table in its reassembly pass; only
        // re-scan the capture when that table was already taken.
        let mut packet_stats = ds
            .take_packet_stats()
            .unwrap_or_else(|| packet_stats_of(&ds.packets));
        let mut sessions = Vec::new();
        for tl in &ds.timelines {
            timeline_sessions(tl, &mut packet_stats, &mut sessions);
        }
        sessions
    };
    m.sessions_built.add(sessions.len() as u64);
    m.sessions_stage.add_items(sessions.len() as u64);
    sessions
}

/// Build the packet-stat table: timestamps and frame bytes per `(src, dst)`
/// IP pair, over every packet touching the IEC 104 port (bare ACKs
/// included).
pub(crate) fn packet_stats_of(packets: &[ParsedPacket]) -> PacketStats {
    let mut builder = PacketStatsBuilder::default();
    for pkt in packets {
        builder.push(pkt);
    }
    builder.finish()
}

/// Incremental accumulator behind [`packet_stats_of`], so a caller that is
/// already walking the capture (the ingest's reassembly pass) can fold the
/// stats pass into its own iteration instead of re-scanning all packets at
/// session-extraction time.
///
/// Accumulates into a slot arena fronted by a direct-mapped routing cache —
/// interleaved captures revisit the same few hundred pairs, so the steady
/// state is a cache hit with no hashing — then collects into the map (one
/// insert per distinct pair, not per packet). Push order fixes each pair's
/// timestamp sequence, so building inline during ingest yields the
/// bit-identical table to a dedicated pass.
#[derive(Default)]
pub(crate) struct PacketStatsBuilder {
    keys: Vec<(u32, u32)>,
    vals: Vec<(Vec<f64>, usize)>,
    index: MixHashMap<u64, u32>,
    cache: uncharted_obs::SlotCache<u64, 2048>,
}

impl PacketStatsBuilder {
    #[inline]
    pub(crate) fn push(&mut self, pkt: &ParsedPacket) {
        if pkt.tcp.src_port != IEC104_PORT && pkt.tcp.dst_port != IEC104_PORT {
            return;
        }
        let packed = ((pkt.ip.src as u64) << 32) | pkt.ip.dst as u64;
        let slot = match self.cache.get(packed) {
            Some(i) => i,
            None => {
                let keys = &mut self.keys;
                let vals = &mut self.vals;
                let i = *self.index.entry(packed).or_insert_with(|| {
                    keys.push((pkt.ip.src, pkt.ip.dst));
                    vals.push((Vec::new(), 0));
                    (keys.len() - 1) as u32
                });
                self.cache.put(packed, i);
                i
            }
        };
        let entry = &mut self.vals[slot as usize];
        entry.0.push(pkt.timestamp);
        entry.1 += pkt.payload.len() + 54;
    }

    pub(crate) fn finish(self) -> PacketStats {
        self.keys.into_iter().zip(self.vals).collect()
    }
}

/// Append one timeline's sessions, in the canonical `[server-side,
/// outstation-side]` direction order, claiming (consuming) each direction's
/// packet stats. Directions without APDUs yield nothing.
fn timeline_sessions(tl: &PairTimeline, stats: &mut PacketStats, out: &mut Vec<Session>) {
    for from_server in [true, false] {
        let (src, dst) = if from_server {
            (tl.server_ip, tl.outstation_ip)
        } else {
            (tl.outstation_ip, tl.server_ip)
        };
        let tokens: Vec<Token> = tl.tokens_from(from_server);
        if tokens.is_empty() {
            continue;
        }
        let mut ioas: Vec<u32> = Vec::new();
        for ev in tl.events.iter().filter(|e| e.from_server == from_server) {
            if let Some(asdu) = &ev.asdu {
                for obj in &asdu.objects {
                    ioas.push(obj.ioa);
                }
            }
        }
        ioas.sort_unstable();
        ioas.dedup();
        let (times, bytes) = stats.remove(&(src, dst)).unwrap_or_default();
        out.push(Session {
            src,
            dst,
            from_server,
            times,
            bytes,
            tokens,
            ioa_count: ioas.len(),
        });
    }
}

/// Column-wise z-score standardisation (k-means and PCA both need it; the
/// raw features span wildly different magnitudes).
pub fn standardize(rows: &FeatureMatrix) -> FeatureMatrix {
    if rows.is_empty() {
        return FeatureMatrix::default();
    }
    let dims = rows.cols();
    let n = rows.rows() as f64;
    let mut means = vec![0.0; dims];
    for row in rows.iter() {
        for (m, v) in means.iter_mut().zip(row) {
            *m += v / n;
        }
    }
    let mut stds = vec![0.0; dims];
    for row in rows.iter() {
        for ((s, v), m) in stds.iter_mut().zip(row).zip(&means) {
            *s += (v - m).powi(2) / n;
        }
    }
    for s in &mut stds {
        *s = s.sqrt();
        if *s < 1e-12 {
            *s = 1.0;
        }
    }
    let mut out = FeatureMatrix::with_capacity(rows.rows(), dims);
    for row in rows.iter() {
        out.push_row_iter(
            row.iter()
                .zip(&means)
                .zip(&stds)
                .map(|((v, m), s)| (v - m) / s),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(tokens: Vec<Token>, times: Vec<f64>) -> Session {
        Session {
            src: 1,
            dst: 2,
            from_server: false,
            bytes: times.len() * 60,
            ioa_count: 3,
            tokens,
            times,
        }
    }

    #[test]
    fn feature_fractions_sum_to_one() {
        let s = session(
            vec![Token::I(13), Token::I(36), Token::S, Token::U16],
            vec![0.0, 1.0, 2.0, 3.0],
        );
        let f = s.features();
        assert!((f.frac_i + f.frac_s + f.frac_u - 1.0).abs() < 1e-12);
        assert!((f.frac_i - 0.5).abs() < 1e-12);
        assert!((f.mean_interarrival - 1.0).abs() < 1e-12);
        assert_eq!(f.packets, 4.0);
    }

    #[test]
    fn selected_is_five_dims_all_is_ten() {
        let s = session(vec![Token::S], vec![0.0]);
        assert_eq!(s.features().selected().len(), 5);
        assert_eq!(s.features().all().len(), 10);
        assert_eq!(SessionFeatures::names().len(), 10);
    }

    #[test]
    fn standardize_zero_mean_unit_var() {
        let rows = FeatureMatrix::from_rows([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]);
        let z = standardize(&rows);
        for d in 0..2 {
            let mean: f64 = z.iter().map(|r| r[d]).sum::<f64>() / 3.0;
            let var: f64 = z.iter().map(|r| r[d].powi(2)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn standardize_constant_column_is_safe() {
        let rows = FeatureMatrix::from_rows([[5.0], [5.0]]);
        let z = standardize(&rows);
        assert!(z.iter().all(|r| r[0] == 0.0));
    }

    #[test]
    fn empty_session_features_are_finite() {
        let s = session(vec![], vec![]);
        let f = s.features();
        for v in f.all() {
            assert!(v.is_finite());
        }
    }
}
