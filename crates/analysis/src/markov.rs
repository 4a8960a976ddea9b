//! Markov-chain / n-gram profiling of APDU token sequences (paper §6.3.1).
//!
//! Each device pair's merged token sequence becomes a first-order Markov
//! chain (bigram model, Eq. 1–2). The chain-size census separates the three
//! Fig. 13 clusters — the (1,1) point of dead backup channels, the "square"
//! of ordinary connections, and the "ellipse" of connections carrying the
//! `I100` interrogation command — and the per-outstation aggregation yields
//! the Table 6 / Fig. 17 taxonomy.

use crate::dataset::{Dataset, PairTimeline};
use crate::exec::ExecContext;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use uncharted_iec104::tokens::{Token, TokenId, TokenTable};

/// A first-order Markov chain over tokens.
///
/// Tokens are interned to dense u16 ids ([`TokenTable`]) and the bigram
/// counts live in one flat `n × n` matrix over those ids — no per-node maps,
/// no per-edge allocations. Rendering paths resolve ids back to tokens.
#[derive(Debug, Clone, Default)]
pub struct TokenChain {
    table: TokenTable,
    /// Row-major `n × n` bigram counts over interned ids:
    /// `counts[a * n + b]` = times `b` followed `a`.
    counts: Vec<usize>,
    /// Unigram counts by id (MLE denominators for the sequence prior).
    unigrams: Vec<usize>,
    /// Cached per-row totals of `counts` (MLE denominators).
    row_totals: Vec<usize>,
    total_unigrams: usize,
    /// Id of the most recently appended token — the bigram predecessor the
    /// next [`TokenChain::push`] will count from.
    last: Option<TokenId>,
}

impl TokenChain {
    /// Build from a token sequence.
    pub fn from_tokens(tokens: &[Token]) -> TokenChain {
        let mut table = TokenTable::new();
        for &t in tokens {
            table.intern(t);
        }
        let n = table.len();
        let mut counts = vec![0usize; n * n];
        let mut unigrams = vec![0usize; n];
        let mut prev: Option<usize> = None;
        for &t in tokens {
            let id = table.get(t).expect("interned above").index();
            unigrams[id] += 1;
            if let Some(p) = prev {
                counts[p * n + id] += 1;
            }
            prev = Some(id);
        }
        let row_totals = (0..n)
            .map(|a| counts[a * n..(a + 1) * n].iter().sum())
            .collect();
        let last = tokens
            .last()
            .map(|&t| table.get(t).expect("interned above"));
        TokenChain {
            table,
            counts,
            unigrams,
            row_totals,
            total_unigrams: tokens.len(),
            last,
        }
    }

    /// Append one token, updating the unigram, bigram, and row-total counts
    /// in place — the streaming engine's incremental alternative to
    /// rebuilding via [`TokenChain::from_tokens`] on every update.
    ///
    /// Interning a previously unseen token regrows the flat `n × n` matrix
    /// to `(n + 1) × (n + 1)`; existing counts keep their coordinates, so
    /// after any sequence of `push` calls (or a [`TokenChain::from_tokens`]
    /// prefix followed by pushes) the chain is identical to one built from
    /// the whole sequence at once. The regrow is O(n²) but n is bounded by
    /// the token alphabet, so steady-state pushes are O(1).
    pub fn push(&mut self, t: Token) {
        let before = self.table.len();
        let id = self.table.intern(t);
        let after = self.table.len();
        if after > before {
            self.grow(before, after);
        }
        self.unigrams[id.index()] += 1;
        self.total_unigrams += 1;
        if let Some(p) = self.last {
            self.counts[p.index() * after + id.index()] += 1;
            self.row_totals[p.index()] += 1;
        }
        self.last = Some(id);
    }

    /// Regrow the row-major matrix from `old × old` to `new × new`, keeping
    /// every existing count at its `(row, col)` coordinates.
    fn grow(&mut self, old: usize, new: usize) {
        let mut counts = vec![0usize; new * new];
        for a in 0..old {
            counts[a * new..a * new + old].copy_from_slice(&self.counts[a * old..(a + 1) * old]);
        }
        self.counts = counts;
        self.unigrams.resize(new, 0);
        self.row_totals.resize(new, 0);
    }

    /// True when `t` has been observed (interned) by this chain — the
    /// constant-time novelty check the streaming IDS window uses.
    pub fn contains(&self, t: Token) -> bool {
        self.table.get(t).is_some()
    }

    /// Number of nodes (distinct tokens).
    pub fn node_count(&self) -> usize {
        self.table.len()
    }

    /// Number of directed edges (distinct bigrams).
    pub fn edge_count(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// The distinct tokens observed, in sorted order.
    pub fn node_set(&self) -> BTreeSet<Token> {
        self.table.tokens().iter().copied().collect()
    }

    /// Maximum-likelihood transition probability `P(b | a)` (Eq. 2).
    pub fn transition(&self, a: Token, b: Token) -> f64 {
        let (Some(a), Some(b)) = (self.table.get(a), self.table.get(b)) else {
            return 0.0;
        };
        let total = self.row_totals[a.index()];
        if total == 0 {
            0.0
        } else {
            self.counts[a.index() * self.table.len() + b.index()] as f64 / total as f64
        }
    }

    /// Probability of a whole token sequence under the chain (Eq. 1), with
    /// the first token's unigram MLE as the prior. Returns log-probability
    /// to avoid underflow; `None` when the sequence is impossible.
    pub fn sequence_log_prob(&self, tokens: &[Token]) -> Option<f64> {
        let first = self.table.get(*tokens.first()?)?;
        let p0 = self.unigrams[first.index()] as f64 / self.total_unigrams as f64;
        let mut logp = p0.ln();
        let n = self.table.len();
        let mut prev = first.index();
        for &t in &tokens[1..] {
            let id = self.table.get(t)?.index();
            let total = self.row_totals[prev];
            let c = self.counts[prev * n + id];
            if c == 0 || total == 0 {
                return None;
            }
            logp += (c as f64 / total as f64).ln();
            prev = id;
        }
        Some(logp)
    }

    /// True when the chain contains the interrogation token `I100`.
    pub fn has_interrogation(&self) -> bool {
        self.table.tokens().iter().any(|t| t.is_interrogation())
    }

    /// Rows of each transition with its probability, for rendering
    /// (Figs. 12, 14–16). Deterministically ordered by `(from, to)` token.
    pub fn transitions(&self) -> Vec<(Token, Token, f64)> {
        let n = self.table.len();
        let toks = self.table.tokens();
        let mut out = Vec::new();
        for a in 0..n {
            let total = self.row_totals[a];
            for b in 0..n {
                let c = self.counts[a * n + b];
                if c > 0 {
                    out.push((toks[a], toks[b], c as f64 / total as f64));
                }
            }
        }
        out.sort_by_key(|&(a, b, _)| (a, b));
        out
    }
}

/// Census row: one device pair's chain.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ChainInfo {
    /// The server's IP.
    pub server_ip: u32,
    /// The outstation's IP.
    pub outstation_ip: u32,
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Whether the `I100` interrogation appears.
    pub has_i100: bool,
    /// Whether the pair ever carried I-format data.
    pub has_i: bool,
    /// Whether a switchover signature was observed (keep-alives followed by
    /// `U1`/`U2` and `I100` on the same pair — Fig. 16).
    pub switchover: bool,
    /// Whether the outstation answered keep-alives (`U32` from its side).
    pub answers_testfr: bool,
    /// Whether the server sent keep-alives (`U16`).
    pub has_u16: bool,
    /// Number of `U16` keep-alives on the pair (one-off idle probes do not
    /// make an outstation "type 5").
    pub u16_count: usize,
}

/// Which Fig. 13 cluster a chain belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Fig13Cluster {
    /// The (1,1) point: a single self-looping token (dead backups).
    Point11,
    /// The "square": ordinary chains without interrogation.
    Square,
    /// The "ellipse": chains containing `I100` (richer, more edges).
    Ellipse,
}

/// The full chain census over a dataset.
#[derive(Debug, Clone, Serialize)]
pub struct ChainCensus {
    /// One row per device pair.
    pub rows: Vec<ChainInfo>,
}

impl ChainCensus {
    /// Build the census under an [`ExecContext`] choosing the metrics sink.
    pub fn build(ds: &Dataset, ctx: &ExecContext) -> ChainCensus {
        let m = &ctx.metrics;
        let _span = m.markov_stage.span();
        let rows: Vec<ChainInfo> = {
            let _shard = m.markov_stage.shard_span(0);
            ds.timelines
                .iter()
                .filter(|tl| !tl.events.is_empty())
                .map(Self::row)
                .collect()
        };
        m.chains_built.add(rows.len() as u64);
        m.markov_stage.add_items(rows.len() as u64);
        ChainCensus { rows }
    }

    /// One timeline's census row.
    fn row(tl: &PairTimeline) -> ChainInfo {
        let tokens = tl.tokens();
        let chain = TokenChain::from_tokens(&tokens);
        ChainInfo {
            server_ip: tl.server_ip,
            outstation_ip: tl.outstation_ip,
            nodes: chain.node_count(),
            edges: chain.edge_count(),
            has_i100: chain.has_interrogation(),
            has_i: tokens.iter().any(|t| t.is_i()),
            switchover: detect_switchover(tl),
            answers_testfr: tl
                .events
                .iter()
                .any(|e| !e.from_server && e.token == Token::U32),
            has_u16: tokens.contains(&Token::U16),
            u16_count: tokens.iter().filter(|&&t| t == Token::U16).count(),
        }
    }

    /// Assign each row to its Fig. 13 cluster.
    pub fn cluster(&self, row: &ChainInfo) -> Fig13Cluster {
        if row.has_i100 {
            Fig13Cluster::Ellipse
        } else if row.nodes <= 1 {
            Fig13Cluster::Point11
        } else {
            Fig13Cluster::Square
        }
    }

    /// Rows in a given cluster.
    pub fn in_cluster(&self, cluster: Fig13Cluster) -> Vec<&ChainInfo> {
        self.rows
            .iter()
            .filter(|r| self.cluster(r) == cluster)
            .collect()
    }
}

/// Switchover signature (Fig. 16): the pair starts as a *pure* secondary —
/// the server's keep-alives (`U16`) answered by the outstation (`U32`) with
/// no I-format data yet — and is later promoted with a `U1` (STARTDT act).
/// An idle primary that answers a keep-alive and then reconnects does NOT
/// qualify: it carried data before the keep-alive phase.
pub fn detect_switchover(tl: &PairTimeline) -> bool {
    let mut secondary_phase = false;
    let mut last_server_u16 = false;
    for ev in &tl.events {
        match ev.token {
            Token::U1 if ev.from_server && secondary_phase => return true,
            Token::U16 if ev.from_server => last_server_u16 = true,
            Token::U32 if !ev.from_server && last_server_u16 => {
                secondary_phase = true;
                last_server_u16 = false;
            }
            t if t.is_i() => {
                // Data before any promotion: this phase was primary.
                if !secondary_phase {
                    last_server_u16 = false;
                }
                if secondary_phase {
                    // Data after keep-alives but without a STARTDT in this
                    // capture: ambiguous; keep waiting for a clean U1.
                }
            }
            _ => {}
        }
    }
    false
}

/// Table 6 / Fig. 17 classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum OutstationClass {
    /// Type 1: one primary (I-only), no secondary.
    Type1PrimaryOnly,
    /// Type 2: primary plus healthy `U16`/`U32` secondary.
    Type2Ideal,
    /// Type 3: U-format only (backup RTU).
    Type3BackupRtu,
    /// Type 4: I-format only, to both servers (across captures).
    Type4SwitchedBetween,
    /// Type 5: one server, I and U mixed on the same pair.
    Type5SingleServerMixed,
    /// Type 6: primary plus a secondary showing `U16` only.
    Type6HalfDeafBackup,
    /// Type 7: every connection collapses; chain is the (1,1) point.
    Type7ResettingBackup,
    /// Type 8: a switchover observed in-capture.
    Type8SwitchoverObserved,
}

impl OutstationClass {
    /// The paper's type number.
    pub fn number(self) -> u8 {
        match self {
            OutstationClass::Type1PrimaryOnly => 1,
            OutstationClass::Type2Ideal => 2,
            OutstationClass::Type3BackupRtu => 3,
            OutstationClass::Type4SwitchedBetween => 4,
            OutstationClass::Type5SingleServerMixed => 5,
            OutstationClass::Type6HalfDeafBackup => 6,
            OutstationClass::Type7ResettingBackup => 7,
            OutstationClass::Type8SwitchoverObserved => 8,
        }
    }
}

/// Classify every outstation from the chain census (the paper's Fig. 17
/// procedure: look at the Markov chains of all the outstation's pairs).
pub fn classify_outstations(census: &ChainCensus) -> BTreeMap<u32, OutstationClass> {
    let mut by_out: BTreeMap<u32, Vec<&ChainInfo>> = BTreeMap::new();
    for row in &census.rows {
        by_out.entry(row.outstation_ip).or_default().push(row);
    }
    let mut classes = BTreeMap::new();
    for (out_ip, rows) in by_out {
        classes.insert(out_ip, classify_one(&rows));
    }
    classes
}

fn classify_one(rows: &[&ChainInfo]) -> OutstationClass {
    let i_pairs: Vec<_> = rows.iter().filter(|r| r.has_i).collect();
    let u_only_pairs: Vec<_> = rows.iter().filter(|r| !r.has_i && r.has_u16).collect();
    let answered_u: Vec<_> = u_only_pairs.iter().filter(|r| r.answers_testfr).collect();

    if rows.iter().any(|r| r.switchover) {
        return OutstationClass::Type8SwitchoverObserved;
    }
    if i_pairs.is_empty() {
        // No data anywhere: a backup RTU. Healthy if keep-alives are
        // answered on at least one pair, resetting otherwise.
        return if !answered_u.is_empty() {
            OutstationClass::Type3BackupRtu
        } else {
            OutstationClass::Type7ResettingBackup
        };
    }
    if i_pairs.len() >= 2 {
        return OutstationClass::Type4SwitchedBetween;
    }
    // Exactly one data pair.
    let data_pair = i_pairs[0];
    if u_only_pairs.is_empty() {
        // Single pair: recurrent keep-alives interleaved with data make it
        // type 5 (the sparse-spontaneous profile); a stray idle probe or a
        // pure I stream is type 1.
        return if data_pair.has_u16 && data_pair.u16_count >= 3 {
            OutstationClass::Type5SingleServerMixed
        } else {
            OutstationClass::Type1PrimaryOnly
        };
    }
    if answered_u.is_empty() {
        OutstationClass::Type6HalfDeafBackup
    } else {
        OutstationClass::Type2Ideal
    }
}

/// Fig. 17 bottom line: the class distribution.
pub fn class_distribution(
    classes: &BTreeMap<u32, OutstationClass>,
) -> Vec<(OutstationClass, usize, f64)> {
    let mut counts: BTreeMap<OutstationClass, usize> = BTreeMap::new();
    for &c in classes.values() {
        *counts.entry(c).or_default() += 1;
    }
    let total = classes.len().max(1) as f64;
    counts
        .into_iter()
        .map(|(c, n)| (c, n, n as f64 / total))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(spec: &[(&str, usize)]) -> Vec<Token> {
        let mut out = Vec::new();
        for &(name, n) in spec {
            let t = match name {
                "S" => Token::S,
                "U1" => Token::U1,
                "U2" => Token::U2,
                "U16" => Token::U16,
                "U32" => Token::U32,
                other => Token::I(other[1..].parse().unwrap()),
            };
            out.extend(std::iter::repeat_n(t, n));
        }
        out
    }

    #[test]
    fn chain_counts_nodes_and_edges() {
        // I36 I36 S I36 S : nodes {I36, S}, edges {I36->I36, I36->S, S->I36}.
        let tokens = vec![Token::I(36), Token::I(36), Token::S, Token::I(36), Token::S];
        let chain = TokenChain::from_tokens(&tokens);
        assert_eq!(chain.node_count(), 2);
        assert_eq!(chain.edge_count(), 3);
    }

    #[test]
    fn mle_transition_probabilities() {
        // Fig. 12 left: I36 mostly followed by I36, sometimes by S.
        let tokens = toks(&[("I36", 8), ("S", 1), ("I36", 1)]);
        let chain = TokenChain::from_tokens(&tokens);
        // From I36: 7 transitions to I36, 1 to S.
        assert!((chain.transition(Token::I(36), Token::I(36)) - 7.0 / 8.0).abs() < 1e-12);
        assert!((chain.transition(Token::I(36), Token::S) - 1.0 / 8.0).abs() < 1e-12);
        assert_eq!(chain.transition(Token::S, Token::U16), 0.0);
    }

    #[test]
    fn sequence_log_prob() {
        let chain =
            TokenChain::from_tokens(&toks(&[("U16", 1), ("U32", 1), ("U16", 1), ("U32", 1)]));
        let ok = chain.sequence_log_prob(&[Token::U16, Token::U32]);
        assert!(ok.is_some());
        assert!(ok.unwrap() <= 0.0);
        // Impossible transition.
        assert!(chain.sequence_log_prob(&[Token::U32, Token::U32]).is_none());
    }

    #[test]
    fn point11_is_single_self_loop() {
        let chain = TokenChain::from_tokens(&toks(&[("U16", 5)]));
        assert_eq!((chain.node_count(), chain.edge_count()), (1, 1));
    }

    /// The incremental chain must be indistinguishable from the batch one:
    /// same nodes, edges, transition table, and sequence prior.
    #[test]
    fn incremental_push_matches_from_tokens() {
        let tokens = toks(&[
            ("I36", 3),
            ("S", 1),
            ("U16", 2),
            ("U32", 1),
            ("I36", 2),
            ("I100", 1),
            ("S", 2),
            ("U1", 1),
            ("I36", 1),
        ]);
        let batch = TokenChain::from_tokens(&tokens);
        let mut inc = TokenChain::default();
        for &t in &tokens {
            inc.push(t);
        }
        assert_eq!(inc.node_count(), batch.node_count());
        assert_eq!(inc.edge_count(), batch.edge_count());
        assert_eq!(inc.node_set(), batch.node_set());
        assert_eq!(inc.transitions(), batch.transitions());
        assert_eq!(
            inc.sequence_log_prob(&tokens),
            batch.sequence_log_prob(&tokens)
        );

        // A batch-built prefix continued by pushes also converges: the
        // predecessor token carries across the seam.
        let (head, tail) = tokens.split_at(4);
        let mut mixed = TokenChain::from_tokens(head);
        for &t in tail {
            mixed.push(t);
        }
        assert_eq!(mixed.transitions(), batch.transitions());
        assert_eq!(mixed.edge_count(), batch.edge_count());
    }

    #[test]
    fn push_on_empty_chain_has_no_bigram() {
        let mut chain = TokenChain::default();
        chain.push(Token::S);
        assert_eq!(chain.node_count(), 1);
        assert_eq!(chain.edge_count(), 0, "a single token is not a bigram");
        chain.push(Token::S);
        assert_eq!(chain.edge_count(), 1, "self-loop after the second push");
    }

    fn timeline(events: &[(bool, Token)]) -> PairTimeline {
        PairTimeline {
            server_ip: 1,
            outstation_ip: 2,
            events: events
                .iter()
                .enumerate()
                .map(|(i, &(from_server, token))| crate::dataset::ApduEvent {
                    t: i as f64,
                    from_server,
                    token,
                    asdu: None,
                })
                .collect(),
        }
    }

    #[test]
    fn switchover_detection() {
        // Fig. 16: server keep-alives answered by the outstation, then a
        // promotion (U1 from the server).
        let tl = timeline(&[
            (true, Token::U16),
            (false, Token::U32),
            (true, Token::U16),
            (false, Token::U32),
            (true, Token::U1),
            (false, Token::U2),
            (true, Token::I(100)),
            (false, Token::I(13)),
        ]);
        assert!(detect_switchover(&tl));
        // Ordinary primary startup: no prior keep-alive phase.
        let plain = timeline(&[
            (true, Token::U1),
            (false, Token::U2),
            (true, Token::I(100)),
            (false, Token::I(13)),
        ]);
        assert!(!detect_switchover(&plain));
        // An idle primary that answered a keep-alive and later reconnected:
        // data flowed before the keep-alive phase, but the U16/U32 pair was
        // still a genuine exchange, so only a subsequent U1 makes it a
        // switchover. The outstation-initiated keep-alive (U16 from the
        // outstation) must NOT count.
        let rtu_keepalive = timeline(&[
            (false, Token::I(36)),
            (false, Token::U16),
            (true, Token::U32),
            (true, Token::U1),
        ]);
        assert!(!detect_switchover(&rtu_keepalive));
    }

    fn info(
        out: u32,
        has_i: bool,
        has_u16: bool,
        answers: bool,
        i100: bool,
        switchover: bool,
    ) -> ChainInfo {
        ChainInfo {
            server_ip: 1,
            outstation_ip: out,
            nodes: if has_i { 5 } else { 1 },
            edges: if has_i { 8 } else { 1 },
            has_i100: i100,
            has_i,
            switchover,
            answers_testfr: answers,
            has_u16,
            u16_count: if has_u16 { 5 } else { 0 },
        }
    }

    #[test]
    fn classification_matrix() {
        // Type 1: single I-only pair.
        assert_eq!(
            classify_one(&[&info(1, true, false, false, true, false)]),
            OutstationClass::Type1PrimaryOnly
        );
        // Type 2: I pair + answered U pair.
        assert_eq!(
            classify_one(&[
                &info(2, true, false, false, true, false),
                &info(2, false, true, true, false, false)
            ]),
            OutstationClass::Type2Ideal
        );
        // Type 3: answered U only.
        assert_eq!(
            classify_one(&[&info(3, false, true, true, false, false)]),
            OutstationClass::Type3BackupRtu
        );
        // Type 4: I to two servers.
        assert_eq!(
            classify_one(&[
                &info(4, true, false, false, true, false),
                &info(4, true, false, false, true, false)
            ]),
            OutstationClass::Type4SwitchedBetween
        );
        // Type 5: one pair mixing I and U16.
        assert_eq!(
            classify_one(&[&info(5, true, true, true, true, false)]),
            OutstationClass::Type5SingleServerMixed
        );
        // Type 6: I pair + unanswered U pair.
        assert_eq!(
            classify_one(&[
                &info(6, true, false, false, true, false),
                &info(6, false, true, false, false, false)
            ]),
            OutstationClass::Type6HalfDeafBackup
        );
        // Type 7: unanswered U only.
        assert_eq!(
            classify_one(&[&info(7, false, true, false, false, false)]),
            OutstationClass::Type7ResettingBackup
        );
        // Type 8: switchover wins.
        assert_eq!(
            classify_one(&[&info(8, true, true, true, true, true)]),
            OutstationClass::Type8SwitchoverObserved
        );
    }

    #[test]
    fn distribution_sums_to_one() {
        let mut classes = BTreeMap::new();
        classes.insert(1, OutstationClass::Type3BackupRtu);
        classes.insert(2, OutstationClass::Type3BackupRtu);
        classes.insert(3, OutstationClass::Type2Ideal);
        classes.insert(4, OutstationClass::Type7ResettingBackup);
        let dist = class_distribution(&classes);
        let total: f64 = dist.iter().map(|(_, _, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let t3 = dist
            .iter()
            .find(|(c, _, _)| *c == OutstationClass::Type3BackupRtu)
            .unwrap();
        assert_eq!(t3.1, 2);
    }
}
