//! Helpers the end-to-end benchmark (`perfbench/run.py`) calls.
//!
//! ```sh
//! perfbench gen   --workload W --seed N --dir DIR [--reps R]
//! perfbench trace --workload W --dir DIR
//! ```
//!
//! `gen` runs the repository's simulator for the workload's scenario,
//! writes its captures (and, for the serve workload, the impaired taps)
//! into DIR, and prints one JSON line with the set-up timings and input
//! sizes. `trace` times the calls into each layer's public functions on
//! those files and prints one JSON line of per-layer numbers.

mod impair;

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use uncharted::analysis::stream::StreamSession;
use uncharted::nettap::flow::FlowTable;
use uncharted::nettap::pcap::ParsedPacket;
use uncharted::nettap::source::{self, ChainedSource, PacketSource, PcapFramer};
use uncharted::{Dataset, ExecContext, ExecPolicy, Pipeline, Scenario, Simulation, Year};

/// Seconds of simulated capture per paper-hour for the Y1 campaign.
const CAMPAIGN_SCALE: f64 = 960.0;
/// One continuous window as long as the five campaign windows together
/// (5 × 1.6 paper-hours × 960 s).
const CONTINUOUS_SECS: f64 = 7680.0;
/// Impaired taps fed to `serve` at once, one per core of the reference box.
const TAPS: usize = 2;
/// Per-tap record loss and adjacent-record swap probabilities.
const TAP_LOSS: f64 = 0.005;
const TAP_SWAP: f64 = 0.01;
/// `serve`'s defaults: reader→worker batch and read chunk size.
const SERVE_BATCH: usize = 512;
const SERVE_CHUNK: usize = 16 * 1024;
/// The idle timeout every streaming run of the benchmark uses.
const IDLE_TIMEOUT: f64 = 30.0;
/// Repetitions of the batch chain in a traced run; layer times are medians.
const TRACE_REPS: usize = 3;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Campaign,
    Continuous,
    ServeTaps,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "y1_campaign" => Ok(Workload::Campaign),
            "y1_continuous" => Ok(Workload::Continuous),
            "serve_impaired_taps" => Ok(Workload::ServeTaps),
            _ => Err(format!("unknown workload {name:?}")),
        }
    }

    fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::Campaign => Scenario::y1_scaled(seed, CAMPAIGN_SCALE),
            Workload::Continuous | Workload::ServeTaps => {
                Scenario::small(Year::Y1, seed, CONTINUOUS_SECS)
            }
        }
    }
}

/// A flat JSON object of already-rendered values.
#[derive(Default)]
struct Json(Vec<(String, String)>);

impl Json {
    fn num(&mut self, key: &str, value: f64) -> &mut Json {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".into()
        };
        self.0.push((key.into(), rendered));
        self
    }

    fn raw(&mut self, key: &str, value: String) -> &mut Json {
        self.0.push((key.into(), value));
        self
    }

    fn render(&self) -> String {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}

fn list(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", body.join(","))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => parse_flags(&args[1..]).and_then(|f| gen(&f)),
        Some("trace") => parse_flags(&args[1..]).and_then(|f| trace(&f)),
        _ => Err("usage: perfbench gen|trace --workload W --dir DIR [--seed N] [--reps R]".into()),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a BTreeMap<String, String>, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

fn number<T: std::str::FromStr>(flags: &BTreeMap<String, String>, name: &str) -> Result<T, String> {
    flag(flags, name)?
        .parse()
        .map_err(|_| format!("--{name} is not a number"))
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}

/// Simulate and encode the workload's captures, returning them with the
/// simulation time. With the file writes, this is the set-up work whose
/// time `setup_s` reports.
fn simulate(scenario: Scenario) -> (Vec<Vec<u8>>, f64) {
    let t = Instant::now();
    let set = Simulation::new(scenario).run();
    let simulate_s = t.elapsed().as_secs_f64();
    let pcaps: Vec<Vec<u8>> = set
        .captures
        .iter()
        .map(|capture| {
            let mut buf = Vec::new();
            capture
                .write_pcap(&mut buf)
                .expect("writing to memory cannot fail");
            buf
        })
        .collect();
    (pcaps, simulate_s)
}

fn capture_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("capture_{i}.pcap"))
}

fn tap_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("tap_{i}.pcap"))
}

/// The seed of tap `i`'s impairment, distinct per tap and per run seed.
fn tap_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (i as u64 + 1)
}

fn gen(flags: &BTreeMap<String, String>) -> Result<String, String> {
    let workload = Workload::parse(flag(flags, "workload")?)?;
    let seed: u64 = number(flags, "seed")?;
    let dir = PathBuf::from(flag(flags, "dir")?);
    let reps: usize = flags.get("reps").map_or(Ok(1), |_| number(flags, "reps"))?;
    let (mut simulate_s, mut write_s) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<Vec<u8>>> = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let (pcaps, sim) = simulate(workload.scenario(seed));
        for (i, bytes) in pcaps.iter().enumerate() {
            let path = capture_path(&dir, i);
            std::fs::write(&path, bytes).map_err(io_err(&path))?;
        }
        simulate_s.push(sim);
        write_s.push(t.elapsed().as_secs_f64() - sim);
        match &first {
            None => first = Some(pcaps),
            Some(earlier) if *earlier != pcaps => {
                return Err(format!(
                    "seed {seed} produced different captures on two runs"
                ))
            }
            Some(_) => {}
        }
    }
    let pcaps = first.expect("at least one repetition ran");
    let mut out = Json::default();
    out.raw("simulate_s", list(&simulate_s));
    out.raw("write_s", list(&write_s));
    let records = pcaps
        .iter()
        .map(|p| Ok(impair::record_ranges(p)?.len().to_string()))
        .collect::<Result<Vec<_>, String>>()?;
    out.raw("capture_records", format!("[{}]", records.join(",")));
    if workload == Workload::ServeTaps {
        let mut taps = Vec::new();
        for i in 0..TAPS {
            let (bytes, stats) = impair::impair(&pcaps[0], tap_seed(seed, i), TAP_LOSS, TAP_SWAP)?;
            let path = tap_path(&dir, i);
            std::fs::write(&path, &bytes).map_err(io_err(&path))?;
            taps.push(format!(
                "{{\"records\":{},\"dropped\":{},\"swapped\":{}}}",
                stats.records_out, stats.dropped, stats.swapped
            ));
        }
        out.raw("taps", format!("[{}]", taps.join(",")));
    } else {
        // The reference flow count the output check compares `analyze`'s
        // flow table against: a plain `FlowTable::push` pass over the
        // time-ordered packets of every window.
        let paths: Vec<PathBuf> = (0..pcaps.len()).map(|i| capture_path(&dir, i)).collect();
        let mut packets = read_packets(&paths)?;
        packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        let mut table = FlowTable::default();
        for pkt in &packets {
            table.push(pkt);
        }
        out.num("flows", table.len() as f64);
    }
    Ok(out.render())
}

fn read_packets(paths: &[PathBuf]) -> Result<Vec<ParsedPacket>, String> {
    let mut sources: Vec<Box<dyn PacketSource>> = Vec::new();
    for path in paths {
        sources.push(source::open_path(path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    source::drain(&mut ChainedSource::new(sources), 4096).map_err(|e| e.to_string())
}

/// Accumulates the time spent in one layer's calls.
#[derive(Default)]
struct Span(f64);

impl Span {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.0 += t.elapsed().as_secs_f64();
        out
    }
}

/// The `analyze` path, call by call: open, decode, ingest, then the report
/// calls in the order `analyze` prints them.
struct BatchChain {
    wall: f64,
    open: f64,
    decode: f64,
    ingest: f64,
    flowstats: f64,
    census: f64,
    markov: f64,
    sessions: f64,
}

fn batch_chain(inputs: &[PathBuf]) -> Result<(BatchChain, Pipeline), String> {
    let wall = Instant::now();
    let (mut open, mut decode, mut ingest) = (Span::default(), Span::default(), Span::default());
    let sources = open.time(|| {
        inputs
            .iter()
            .map(|p| source::open_path(p).map_err(|e| format!("{}: {e}", p.display())))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut chain = ChainedSource::new(sources);
    let mut packets = decode
        .time(|| source::drain(&mut chain, 4096))
        .map_err(|e| e.to_string())?;
    if !packets.is_sorted_by(|a, b| a.timestamp.total_cmp(&b.timestamp).is_le()) {
        packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    }
    let exec = ExecContext::new(ExecPolicy::from_threads_flag(1));
    let dataset = ingest.time(|| Dataset::ingest(packets, &exec));
    let pipeline = Pipeline { dataset, exec };
    let (mut flowstats, mut census, mut markov, mut sessions) = (
        Span::default(),
        Span::default(),
        Span::default(),
        Span::default(),
    );
    black_box(flowstats.time(|| pipeline.flow_stats()));
    black_box(census.time(|| pipeline.type_census()));
    black_box(markov.time(|| pipeline.classify_outstations()));
    black_box(sessions.time(|| pipeline.sessions()));
    let chain = BatchChain {
        wall: wall.elapsed().as_secs_f64(),
        open: open.0,
        decode: decode.0,
        ingest: ingest.0,
        flowstats: flowstats.0,
        census: census.0,
        markov: markov.0,
        sessions: sessions.0,
    };
    Ok((chain, pipeline))
}

/// One live feed as `serve` handles it: frame 16 KB reads, hand 512-packet
/// batches to a bounded `StreamSession`, finalize.
struct FeedTrace {
    frame: f64,
    push: f64,
    evicted_flows: usize,
}

fn stream_feed(files: &[PathBuf]) -> Result<FeedTrace, String> {
    let mut session = StreamSession::builder()
        .idle_timeout(Some(IDLE_TIMEOUT))
        .retain_payload(false)
        .build();
    let (mut frame, mut push) = (Span::default(), Span::default());
    let mut pending: Vec<ParsedPacket> = Vec::new();
    for path in files {
        let bytes = std::fs::read(path).map_err(io_err(path))?;
        let mut framer = PcapFramer::new();
        for chunk in bytes.chunks(SERVE_CHUNK) {
            frame
                .time(|| framer.push(chunk, &mut pending))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            while pending.len() >= SERVE_BATCH {
                let rest = pending.split_off(SERVE_BATCH);
                let batch = std::mem::replace(&mut pending, rest);
                black_box(push.time(|| session.push_batch(&batch)));
            }
        }
    }
    black_box(push.time(|| session.push_batch(&pending)));
    let (summary, events) = push.time(|| session.finish());
    black_box(events);
    Ok(FeedTrace {
        frame: frame.0,
        push: push.0,
        evicted_flows: summary.evicted_flows,
    })
}

/// Every feed on its own thread, as `serve` runs one worker per source.
fn stream_chain(feeds: &[Vec<PathBuf>]) -> Result<(f64, Vec<FeedTrace>), String> {
    let wall = Instant::now();
    let traces = std::thread::scope(|scope| {
        let handles: Vec<_> = feeds
            .iter()
            .map(|files| scope.spawn(move || stream_feed(files)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("feed thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((wall.elapsed().as_secs_f64(), traces))
}

fn trace(flags: &BTreeMap<String, String>) -> Result<String, String> {
    let workload = Workload::parse(flag(flags, "workload")?)?;
    let dir = PathBuf::from(flag(flags, "dir")?);
    let captures: Vec<PathBuf> = (0..)
        .map(|i| capture_path(&dir, i))
        .take_while(|p| p.exists())
        .collect();
    // Batch layers run over what `analyze` would read; streaming layers
    // over what `serve` would be fed (every window in order, as one feed,
    // for the batch workloads).
    let (batch_inputs, feeds) = match workload {
        Workload::ServeTaps => {
            let taps: Vec<PathBuf> = (0..TAPS).map(|i| tap_path(&dir, i)).collect();
            (
                vec![taps[0].clone()],
                taps.into_iter().map(|t| vec![t]).collect(),
            )
        }
        _ => (captures.clone(), vec![captures.clone()]),
    };
    if batch_inputs.is_empty() {
        return Err(format!("no captures in {}", dir.display()));
    }

    // Layer times are medians over a few repetitions, so one slow pass
    // on a noisy host does not decide them.
    let mut chains: Vec<BatchChain> = Vec::new();
    let mut pushes: Vec<f64> = Vec::new();
    let mut last: Option<(Pipeline, FlowTable)> = None;
    for _ in 0..TRACE_REPS {
        // One dataset in memory at a time.
        drop(last.take());
        let (chain, pipeline) = batch_chain(&batch_inputs)?;
        let mut push = Span::default();
        let mut table = FlowTable::default();
        push.time(|| {
            pipeline
                .dataset
                .packets
                .iter()
                .for_each(|pkt| table.push(pkt))
        });
        chains.push(chain);
        pushes.push(push.0);
        last = Some((pipeline, table));
    }
    let (pipeline, table) = last.expect("TRACE_REPS > 0");
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let layer = |f: fn(&BatchChain) -> f64| median(chains.iter().map(f).collect());
    let batch = BatchChain {
        wall: layer(|c| c.wall),
        open: layer(|c| c.open),
        decode: layer(|c| c.decode),
        ingest: layer(|c| c.ingest),
        flowstats: layer(|c| c.flowstats),
        census: layer(|c| c.census),
        markov: layer(|c| c.markov),
        sessions: layer(|c| c.sessions),
    };
    // Each repetition's ingest and reassembly pass run back to back, so
    // their difference is taken per repetition, before the median.
    let protocol_self = median(
        chains
            .iter()
            .zip(&pushes)
            .map(|(c, p)| c.ingest - p)
            .collect(),
    );
    let push_s = median(pushes);
    let packets = &pipeline.dataset.packets;

    let offered = packets.iter().filter(|p| !p.payload.is_empty()).count();
    let delivered: usize = table
        .connections
        .iter()
        .map(|c| c.ab.segments_delivered + c.ba.segments_delivered)
        .sum();
    // Scaling probe: the push rate over the first window (the first fifth
    // of a single-window input) against the rate over everything.
    let prefix = if batch_inputs.len() > 1 {
        read_packets(&batch_inputs[..1])?.len()
    } else {
        packets.len() / 5
    };
    let mut push_1w = Span::default();
    let mut first_window = FlowTable::default();
    push_1w.time(|| {
        packets[..prefix]
            .iter()
            .for_each(|pkt| first_window.push(pkt))
    });
    black_box(first_window);
    let (pps_1w, pps_all) = (prefix as f64 / push_1w.0, packets.len() as f64 / push_s);

    let mut threads2 = Span::default();
    let copy = packets.clone();
    black_box(threads2.time(|| Dataset::ingest(copy, &ExecContext::new(ExecPolicy::Threads(2)))));

    let (stream_wall, feed_traces) = stream_chain(&feeds)?;
    let frame: f64 = feed_traces.iter().map(|f| f.frame).sum();
    let stream_push: f64 = feed_traces.iter().map(|f| f.push).sum();
    let report_calls = batch.flowstats + batch.census + batch.markov + batch.sessions;
    // The chain that mirrors the workload's end-to-end path sets the
    // traced wall; coverage is the share of it the timed layers explain
    // (per feed thread, for the concurrent serve feeds).
    let (wall, coverage) = match workload {
        Workload::ServeTaps => (
            stream_wall,
            (frame + stream_push) / (stream_wall * feeds.len() as f64),
        ),
        _ => (
            batch.wall,
            (batch.open + batch.decode + batch.ingest + report_calls) / batch.wall,
        ),
    };

    let mut out = Json::default();
    out.num("nettap.open_s", batch.open)
        .num("nettap.decode_s", batch.decode)
        .num("nettap.decode_pps", packets.len() as f64 / batch.decode)
        .num("flow.push_s", push_s)
        .num("flow.segments_offered", offered as f64)
        .num("flow.segments_delivered", delivered as f64)
        .num("flow.delivered_ratio", delivered as f64 / offered as f64)
        .num("flow.buffered_bytes_end", table.buffered_bytes() as f64)
        .num("flow.pps_1w", pps_1w)
        .num("flow.pps_5w", pps_all)
        .num("flow.scaling_5v1", pps_all / pps_1w)
        .num("analysis.ingest_s", batch.ingest)
        .num("protocol.self_s", protocol_self)
        .num("analysis.flowstats_s", batch.flowstats)
        .num("analysis.census_s", batch.census)
        .num("analysis.markov_s", batch.markov)
        .num("analysis.sessions_s", batch.sessions)
        .num("executor.threads2_s", threads2.0)
        .num("executor.threads2_speedup", batch.ingest / threads2.0)
        .num("stream.push_s", stream_push)
        .num(
            "stream.evicted_flows",
            feed_traces.iter().map(|f| f.evicted_flows).sum::<usize>() as f64,
        )
        .num("serve.frame_s", frame)
        .num("trace.wall_s", wall)
        .num("trace.coverage", coverage)
        .num("check.packets", packets.len() as f64)
        .num("check.flows", table.len() as f64);
    Ok(out.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_captures() {
        let small = |seed| Scenario::small(Year::Y1, seed, 60.0);
        let (first, _) = simulate(small(4));
        let (again, _) = simulate(small(4));
        assert!(!first.is_empty() && !impair::record_ranges(&first[0]).unwrap().is_empty());
        assert_eq!(first, again);
        assert_ne!(first, simulate(small(5)).0);
    }

    #[test]
    fn workloads_use_the_paper_campaign_and_one_equally_long_window() {
        let campaign = Workload::Campaign.scenario(1);
        let continuous = Workload::Continuous.scenario(1);
        assert_eq!(campaign.windows.len(), 5);
        assert_eq!(continuous.windows.len(), 1);
        let covered: f64 = campaign.windows.iter().map(|w| w.duration).sum();
        assert!((covered - continuous.windows[0].duration).abs() < 1e-9);
    }
}
