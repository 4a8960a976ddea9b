//! `uncharted` — command-line front end.
//!
//! ```sh
//! # Simulate a capture campaign and write Wireshark-compatible pcaps:
//! uncharted simulate --year y1 --seed 42 --scale 60 --out ./captures
//!
//! # Run the paper's measurement pipeline over any IEC 104 pcap(s):
//! uncharted analyze captures/y1_window0.pcap captures/y1_window1.pcap
//!
//! # Learn a whitelist from clean traffic and inspect another capture:
//! uncharted ids --train captures/clean.pcap --inspect captures/suspect.pcap
//! ```

use std::path::PathBuf;
use uncharted::analysis::ids::{AlertKind, Severity, Whitelist};
use uncharted::analysis::markov;
use uncharted::analysis::report::{ip, pct, Table};
use uncharted::analysis::stream::StreamSession;
use uncharted::cli;
use uncharted::nettap::source::{self, ChainedSource, PacketSource};
use uncharted::scadasim::ReplayPlan;
use uncharted::serve::{Listeners, ServeConfig, Server, SessionConfig};
use uncharted::{
    Capture, Dataset, ExecContext, Pipeline, PipelineMetrics, Scenario, Simulation, Year,
};

fn usage() -> ! {
    eprintln!(
        "usage:\n  uncharted simulate [--year y1|y2] [--seed N] [--scale S] [--attack] --out DIR\n  \
         uncharted analyze [--threads N] [--metrics PATH] [--metrics-format json|prom]\n                    \
         [--follow] [--window SECS] [--idle-timeout SECS] PCAP [PCAP...]\n  \
         uncharted serve [--listen ADDR] [--listen-iec104 ADDR] [--http ADDR] [--window SECS]\n                  \
         [--idle-timeout SECS] [--source-timeout SECS] [--batch N]\n                  \
         [--t1 SECS] [--t2 SECS] [--t3 SECS] [--shutdown-after SECS] [--quiet]\n  \
         uncharted feed FILE HOST:PORT [--rate PPS]\n  \
         uncharted connect HOST:PORT [--year y1|y2] [--seed N] [--scale S] [--rate PPS]\n  \
         uncharted ids --train PCAP [--inspect PCAP]\n\n\
         analyze options:\n  \
         --threads N             1 = sequential (default); 0 = one worker per core; any\n                          \
         N > 1 runs flow reassembly on a second thread beside the\n                          \
         protocol pass; results are identical at any setting\n  \
         --metrics PATH          write the run's metrics (counters, histograms, per-stage\n                          \
         timings) to PATH and print a summary table to stderr\n  \
         --metrics-format FMT    metrics file format: json (default) or prom\n                          \
         (Prometheus text exposition)\n  \
         --follow                incremental streaming mode: replay the capture batch by\n                          \
         batch, printing analysis events as JSON lines; memory is\n                          \
         bounded by the active flows instead of the whole capture\n  \
         --window SECS           (--follow) close an analysis window every SECS seconds,\n                          \
         emitting windowed IDS verdicts and live-session clustering\n  \
         --idle-timeout SECS     (--follow) evict flows and outstations idle for SECS\n                          \
         seconds, finalizing their sessions and freeing buffers;\n                          \
         omit to keep everything live (reproduces batch mode exactly)\n\n\
         serve options:\n  \
         --listen ADDR           accept pcap-over-TCP feeds on ADDR (e.g. 0.0.0.0:2409);\n                          \
         each connection is one source with its own bounded session\n  \
         --listen-iec104 ADDR    accept native IEC 104 clients on ADDR (e.g. 0.0.0.0:2404):\n                          \
         the server answers STARTDT/TESTFR and S-frame sequencing\n                          \
         itself; at least one of --listen/--listen-iec104 is required\n  \
         --http ADDR             expose /metrics (Prometheus), /healthz and /sources on ADDR\n  \
         --window SECS           per-source tumbling analysis window (as analyze --follow)\n  \
         --idle-timeout SECS     per-source flow idle eviction (as analyze --follow)\n  \
         --source-timeout SECS   evict a source silent for SECS seconds (default 30)\n  \
         --batch N               packets per reader->worker batch (default 512)\n  \
         --t1 SECS               IEC 104 ack timeout: unacknowledged I-frame or U-frame\n                          \
         confirmation quarantines the source (default 15)\n  \
         --t2 SECS               IEC 104 supervisory-ack delay (default 10)\n  \
         --t3 SECS               IEC 104 idle threshold before a TESTFR probe (default 20)\n  \
         --shutdown-after SECS   drain and exit after SECS seconds (demos, smoke tests)\n  \
         --quiet                 suppress per-event JSON lines\n\n\
         feed options:\n  \
         --rate PPS              pace the capture at PPS packets per second instead of\n                          \
         line rate\n\n\
         connect options:\n  \
         simulate a scenario, distill its IEC 104 I-frames, and replay them as a live\n  \
         native-104 client against a serve --listen-iec104 endpoint\n  \
         --year y1|y2            scenario year (default y1)\n  \
         --seed N                scenario seed (default 42)\n  \
         --scale S               seconds of simulated traffic per paper hour (default 40)\n  \
         --rate PPS              pace frames at PPS per second instead of line rate"
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    match args.remove(0).as_str() {
        "simulate" => simulate(args),
        "analyze" => analyze(args),
        "serve" => serve(args),
        "feed" => feed(args),
        "connect" => connect(args),
        "ids" => ids(args),
        _ => usage(),
    }
}

/// Validate a duration/rate flag: present, parseable, positive, finite.
/// Anything else is a clear diagnostic and a nonzero exit — not a silent
/// usage dump that leaves the operator guessing which flag was wrong.
/// The validation contract (and its tests) live in [`uncharted::cli`].
fn parse_positive(flag: &str, value: Option<String>, unit: &str) -> f64 {
    cli::positive_value(flag, value.as_deref(), unit).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Same contract for integer count flags (`--batch`).
fn parse_count(flag: &str, value: Option<String>, unit: &str) -> usize {
    cli::positive_count(flag, value.as_deref(), unit).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn read_pcap(path: &PathBuf) -> Capture {
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {}: {e}", path.display());
        std::process::exit(1);
    });
    Capture::read_pcap(std::io::BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot parse {}: {e}", path.display());
        std::process::exit(1);
    })
}

fn simulate(args: Vec<String>) {
    let mut year = Year::Y1;
    let mut seed = 42u64;
    let mut scale = 60.0f64;
    let mut out: Option<PathBuf> = None;
    let mut attack = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--year" => {
                year = match it.next().as_deref() {
                    Some("y1") | Some("Y1") => Year::Y1,
                    Some("y2") | Some("Y2") => Year::Y2,
                    _ => usage(),
                }
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--attack" => attack = true,
            "--out" => out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    let Some(out) = out else { usage() };
    std::fs::create_dir_all(&out).expect("create output directory");
    let mut scenario = match year {
        Year::Y1 => Scenario::y1_scaled(seed, scale),
        Year::Y2 => Scenario::y2_scaled(seed, scale),
    };
    if attack {
        scenario = scenario.with_attack(0.5, 3);
    }
    eprintln!(
        "simulating {} ({} windows, seed {seed}, scale {scale}{})...",
        year.label(),
        scenario.windows.len(),
        if attack { ", WITH ATTACK" } else { "" }
    );
    let set = Simulation::new(scenario).run();
    for (i, cap) in set.captures.iter().enumerate() {
        let path = out.join(format!("{}_window{i}.pcap", year.label().to_lowercase()));
        let mut buf = Vec::new();
        cap.write_pcap(&mut buf).expect("encode pcap");
        std::fs::write(&path, &buf).expect("write pcap");
        println!("{}  ({} packets)", path.display(), cap.len());
    }
}

fn analyze(args: Vec<String>) {
    let mut threads = 1usize;
    let mut metrics_path: Option<PathBuf> = None;
    let mut metrics_format = "json".to_string();
    let mut follow = false;
    let mut window: Option<f64> = None;
    let mut idle_timeout: Option<f64> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--metrics" => metrics_path = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--metrics-format" => {
                metrics_format = it.next().unwrap_or_else(|| usage());
                if metrics_format != "json" && metrics_format != "prom" {
                    usage();
                }
            }
            "--follow" => follow = true,
            "--window" => window = Some(parse_positive("--window", it.next(), "seconds")),
            "--idle-timeout" => {
                idle_timeout = Some(parse_positive("--idle-timeout", it.next(), "seconds"))
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    if paths.is_empty() || (!follow && (window.is_some() || idle_timeout.is_some())) {
        usage();
    }
    let mut sources = open_sources(&paths);
    if follow {
        return analyze_follow(
            &mut sources,
            window,
            idle_timeout,
            metrics_path,
            &metrics_format,
        );
    }
    let pipeline = Pipeline::builder()
        .threads(threads)
        .source(&mut sources)
        .unwrap_or_else(|e| {
            eprintln!("cannot read capture: {e}");
            std::process::exit(1);
        });
    println!(
        "{} packets, {} outstations, {} servers\n",
        pipeline.dataset.packets.len(),
        pipeline.dataset.outstation_ips().len(),
        pipeline.dataset.server_ips().len()
    );

    let stats = pipeline.flow_stats();
    let mut t = Table::new(["Flows", "Count", "Share"]);
    t.row([
        "short-lived <1s".to_string(),
        stats.short_sub_second.to_string(),
        pct(stats.short_sub_second as f64 / stats.total().max(1) as f64),
    ]);
    t.row([
        "short-lived >=1s".to_string(),
        stats.short_longer.to_string(),
        pct(stats.short_longer as f64 / stats.total().max(1) as f64),
    ]);
    t.row([
        "long-lived".to_string(),
        stats.long_lived.to_string(),
        pct(stats.long_lived as f64 / stats.total().max(1) as f64),
    ]);
    println!("{}", t.render());

    let malformed = pipeline.dataset.fully_malformed_outstations();
    if malformed.is_empty() {
        println!("compliance: all outstations parse under the standard dialect");
    } else {
        println!("compliance: strict parsing rejects these outstations entirely:");
        for addr in malformed {
            let entry = &pipeline.dataset.compliance[&addr];
            println!(
                "  {}  -> dialect {} ({} I-frames recovered)",
                ip(addr),
                entry.dialect.label(),
                entry.i_frames
            );
        }
    }

    let census = pipeline.type_census();
    let mut t = Table::new(["TypeID", "Count", "Share"]);
    for (code, n, share) in census.rows().into_iter().take(10) {
        t.row([format!("I{code}"), n.to_string(), format!("{share:.3}%")]);
    }
    println!("\nASDU typeIDs:\n{}", t.render());

    let classes = pipeline.classify_outstations();
    let mut t = Table::new(["Behaviour type", "Outstations", "Share"]);
    for (class, n, f) in markov::class_distribution(&classes) {
        t.row([format!("{class:?}"), n.to_string(), pct(f)]);
    }
    println!("outstation taxonomy:\n{}", t.render());

    let sessions = pipeline.sessions();
    println!("sessions: {}", sessions.len());

    if let Some(path) = metrics_path {
        let snapshot = pipeline.metrics().snapshot();
        let rendered = match metrics_format.as_str() {
            "prom" => snapshot.to_prometheus(),
            _ => snapshot.to_json(),
        };
        std::fs::write(&path, rendered).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        eprintln!("{}", snapshot.summary_table());
        eprintln!("metrics written to {} ({metrics_format})", path.display());
    }
}

/// How many packets each streaming batch carries in follow mode. Events
/// surface at batch granularity; with no idle timeout the results are
/// bit-identical to batch mode at any batch size.
const FOLLOW_BATCH: usize = 512;

/// Open every capture path as one chained [`PacketSource`] — the single
/// ingest entry shared with `serve`, `feed`, and the library API. Regular
/// files come up memory-mapped; non-seekable inputs stream
/// ([`source::open_path`]).
fn open_sources(paths: &[PathBuf]) -> ChainedSource {
    let mut sources: Vec<Box<dyn PacketSource>> = Vec::with_capacity(paths.len());
    for path in paths {
        match source::open_path(path) {
            Ok(src) => sources.push(src),
            Err(e) => {
                eprintln!("cannot open {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    ChainedSource::new(sources)
}

fn analyze_follow(
    sources: &mut dyn PacketSource,
    window: Option<f64>,
    idle_timeout: Option<f64>,
    metrics_path: Option<PathBuf>,
    metrics_format: &str,
) {
    // Replay needs the global time order a live tap would deliver, so a
    // multi-file analysis drains and merges before streaming (a single
    // already-sorted capture passes through unchanged).
    let mut packets = source::drain(sources, FOLLOW_BATCH).unwrap_or_else(|e| {
        eprintln!("cannot read capture: {e}");
        std::process::exit(1);
    });
    packets.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    let metrics = PipelineMetrics::new();
    let mut session = StreamSession::builder()
        .window(window)
        .idle_timeout(idle_timeout)
        .retain_payload(false)
        .metrics(std::sync::Arc::clone(&metrics))
        .build();
    for chunk in packets.chunks(FOLLOW_BATCH.max(1)) {
        for ev in session.push_batch(chunk) {
            println!("{}", ev.to_json());
        }
    }
    let (summary, events) = session.finish();
    for ev in events {
        println!("{}", ev.to_json());
    }
    println!("{}", summary.to_json());

    if let Some(path) = metrics_path {
        let snapshot = metrics.snapshot();
        let rendered = match metrics_format {
            "prom" => snapshot.to_prometheus(),
            _ => snapshot.to_json(),
        };
        std::fs::write(&path, rendered).unwrap_or_else(|e| {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        });
        eprintln!("{}", snapshot.summary_table());
        eprintln!("metrics written to {} ({metrics_format})", path.display());
    }
}

fn serve(args: Vec<String>) {
    let mut session = SessionConfig::builder();
    let mut cfg = ServeConfig {
        verbose: true,
        ..ServeConfig::default()
    };
    let mut listeners = Listeners::new();
    let mut shutdown_after: Option<f64> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => {
                listeners = listeners.with_pcap(it.next().unwrap_or_else(|| usage()));
            }
            "--listen-iec104" => {
                listeners = listeners.with_iec104(it.next().unwrap_or_else(|| usage()));
            }
            "--http" => {
                listeners = listeners.with_http(it.next().unwrap_or_else(|| usage()));
            }
            "--window" => {
                session = session.window(Some(parse_positive("--window", it.next(), "seconds")))
            }
            "--idle-timeout" => {
                session = session
                    .idle_timeout(Some(parse_positive("--idle-timeout", it.next(), "seconds")))
            }
            "--source-timeout" => {
                session =
                    session.source_timeout(parse_positive("--source-timeout", it.next(), "seconds"))
            }
            "--batch" => session = session.batch(parse_count("--batch", it.next(), "packets")),
            "--t1" => cfg.conn.t1 = parse_positive("--t1", it.next(), "seconds"),
            "--t2" => cfg.conn.t2 = parse_positive("--t2", it.next(), "seconds"),
            "--t3" => cfg.conn.t3 = parse_positive("--t3", it.next(), "seconds"),
            "--shutdown-after" => {
                shutdown_after = Some(parse_positive("--shutdown-after", it.next(), "seconds"))
            }
            "--quiet" => cfg.verbose = false,
            _ => usage(),
        }
    }
    cfg.session = session.build();
    if listeners.pcap.is_none() && listeners.iec104.is_none() {
        eprintln!("error: serve requires --listen ADDR and/or --listen-iec104 ADDR");
        std::process::exit(2);
    }
    let server = Server::bind(&listeners, cfg).unwrap_or_else(|e| {
        eprintln!("cannot bind: {e}");
        std::process::exit(1);
    });
    if let Some(addr) = server.pcap_addr() {
        eprintln!("serving pcap-over-TCP feeds on {addr} (one bounded session per connection)");
    }
    if let Some(addr) = server.iec104_addr() {
        eprintln!("serving native IEC 104 clients on {addr} (one bounded session per connection)");
    }
    if let Some(addr) = server.http_addr() {
        eprintln!("observability on http://{addr}/metrics /healthz /sources");
    }
    match shutdown_after {
        Some(secs) => {
            std::thread::sleep(std::time::Duration::from_secs_f64(secs));
            eprintln!("draining {} source(s)...", server.reports().len());
            for r in server.join() {
                let summary = r
                    .summary_json
                    .map(|s| format!(",\"summary\":{s}"))
                    .unwrap_or_default();
                println!(
                    "{{\"source\":{},\"transport\":\"{}\",\"status\":\"{}\",\"packets\":{}{summary}}}",
                    r.id,
                    r.transport,
                    r.status.label(),
                    r.packets
                );
            }
        }
        // No signal handling by design (std-only): a supervisor stops the
        // process; sources that already drained are finalized live.
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(1));
        },
    }
}

fn feed(args: Vec<String>) {
    let mut rate: Option<f64> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--rate" => rate = Some(parse_positive("--rate", it.next(), "packets per second")),
            _ => positional.push(arg),
        }
    }
    if positional.len() != 2 {
        usage();
    }
    let (file, addr) = (&positional[0], &positional[1]);
    match uncharted::serve::feed_path(file, addr.as_str(), rate) {
        Ok(stats) => eprintln!(
            "fed {} ({} records, {} bytes) to {addr}",
            file, stats.records, stats.bytes
        ),
        Err(e) => {
            eprintln!("cannot feed {file} to {addr}: {e}");
            std::process::exit(1);
        }
    }
}

/// Simulate a scenario and replay it as a live native IEC 104 client —
/// the end-to-end driver for `serve --listen-iec104`.
fn connect(args: Vec<String>) {
    let mut year = Year::Y1;
    let mut seed = 42u64;
    let mut scale = 40.0f64;
    let mut rate: Option<f64> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--year" => {
                year = match it.next().as_deref() {
                    Some("y1") | Some("Y1") => Year::Y1,
                    Some("y2") | Some("Y2") => Year::Y2,
                    _ => usage(),
                }
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--scale" => scale = parse_positive("--scale", it.next(), "seconds per paper hour"),
            "--rate" => rate = Some(parse_positive("--rate", it.next(), "frames per second")),
            _ => positional.push(arg),
        }
    }
    if positional.len() != 1 {
        usage();
    }
    let addr = &positional[0];
    eprintln!(
        "simulating {} (seed {seed}, scale {scale}) and distilling the client session...",
        year.label()
    );
    let set = Simulation::new(Scenario::small(year, seed, scale)).run();
    let plan = ReplayPlan::from_capture(&set.merged());
    eprintln!(
        "replaying {} I-frames as a native IEC 104 client to {addr}...",
        plan.i_frames()
    );
    match plan.connect_and_replay(addr.as_str(), rate) {
        Ok(stats) => eprintln!(
            "replayed {} frames ({} bytes) to {addr}; {} reply bytes (confirmations, S-frames)",
            stats.frames, stats.bytes, stats.reply_bytes
        ),
        Err(e) => {
            eprintln!("cannot replay to {addr}: {e}");
            std::process::exit(1);
        }
    }
}

fn ids(args: Vec<String>) {
    let mut train: Option<PathBuf> = None;
    let mut inspect: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--train" => train = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--inspect" => inspect = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }
    let Some(train) = train else { usage() };
    let train_ds = Dataset::ingest_capture(&read_pcap(&train), &ExecContext::sequential());
    let whitelist = Whitelist::learn(&train_ds);
    println!(
        "learned whitelist from {}: {} device pairs",
        train.display(),
        whitelist.pair_count()
    );
    let Some(inspect) = inspect else { return };
    let test_ds = Dataset::ingest_capture(&read_pcap(&inspect), &ExecContext::sequential());
    let alerts = whitelist.inspect(&test_ds);
    println!("{} alerts on {}:", alerts.len(), inspect.display());
    for a in alerts.iter().take(30) {
        let text = match &a.kind {
            AlertKind::UnknownHost { ip: h } => format!("unknown host {}", ip(*h)),
            AlertKind::UnknownPair {
                server_ip,
                outstation_ip,
            } => {
                format!("unknown pair {} -> {}", ip(*server_ip), ip(*outstation_ip))
            }
            AlertKind::NovelToken {
                server_ip,
                outstation_ip,
                token,
            } => {
                format!(
                    "novel token {token} on {} -> {}",
                    ip(*server_ip),
                    ip(*outstation_ip)
                )
            }
            AlertKind::NovelTransition {
                server_ip,
                outstation_ip,
                from,
                to,
            } => {
                format!(
                    "novel transition {from}->{to} on {} -> {}",
                    ip(*server_ip),
                    ip(*outstation_ip)
                )
            }
            AlertKind::UnexpectedCommand {
                server_ip,
                outstation_ip,
                type_id,
            } => {
                format!(
                    "unexpected I{type_id} command {} -> {}",
                    ip(*server_ip),
                    ip(*outstation_ip)
                )
            }
            AlertKind::ValueOutOfRange {
                station_ip,
                ioa,
                value,
                ..
            } => {
                format!(
                    "{} ioa {ioa}: out-of-envelope value {value:.1}",
                    ip(*station_ip)
                )
            }
            AlertKind::PhysicsViolation { station_ip, detail } => {
                format!("{}: {detail}", ip(*station_ip))
            }
        };
        println!("  [{:?}] {text}", a.severity);
    }
    let high = alerts
        .iter()
        .filter(|a| a.severity == Severity::High)
        .count();
    if high > 0 {
        println!("VERDICT: suspicious ({high} high-severity alerts)");
        std::process::exit(3);
    }
    println!("VERDICT: consistent with the learned profile");
}
