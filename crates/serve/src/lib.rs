//! Long-running ingest service: many concurrent live feeds, one bounded
//! streaming session per source.
//!
//! `uncharted serve` is the deployment story for the streaming engine.
//! Each connection on an ingest socket is one *source*, and every source
//! speaks one of two wire transports:
//!
//! - **pcap-over-TCP** — a tap shipping classic libpcap bytes, exactly
//!   what `uncharted feed` (or `tcpdump -w -` piped through netcat)
//!   produces.
//! - **native IEC 104** — a live outstation or control-center client
//!   speaking IEC 60870-5-104 directly. The server answers the APCI
//!   session layer itself (STARTDT/STOPDT/TESTFR confirmations, S-frame
//!   acknowledgements under the k/w windows, t1/t2/t3 timers) and
//!   synthesizes the pcap-equivalent packet stream for analysis.
//!
//! Both are implementations of one contract — [`FrameTransport`] in
//! `nettap::source`: bytes in, timestamped [`ParsedPacket`]s plus a shared
//! fault vocabulary ([`SourceOutcome`]) out. Everything downstream of the
//! transport is identical: a reader thread feeds the transport and hands
//! bounded batches across a bounded SPSC queue (backpressure, never
//! unbounded buffering) to a worker thread driving a [`StreamSession`] in
//! bounded-memory mode. N concurrent feeds of the same capture each
//! converge to the *bit-identical* counter fingerprint a batch `uncharted
//! analyze` of that capture produces — the parity contract the streaming
//! engine already proves, now held per source under concurrency and, for
//! native 104, across the live-session/offline-replay boundary (see
//! [`iec104::equivalent_capture`]).
//!
//! Fault isolation is per source. A feed that stops mid-record, sends
//! garbage framing, violates the IEC 104 sequence rules, or lets a TESTFR
//! keep-alive expire is *quarantined*: a typed [`ServeEvent`] is logged
//! and that source alone is closed, finalized with whatever legitimate
//! prefix it delivered. A feed that goes silent past the source timeout is
//! *evicted* the same way. Other sources never notice.
//!
//! Observability rides on the shared [`MetricsRegistry`]: service-level
//! counters carry `source` and `transport` labels, and the minimal HTTP
//! endpoint exposes `/metrics` (Prometheus text: the service registry
//! merged with every source's pipeline registry relabelled by source id
//! and transport), `/healthz`, and `/sources` (per-source JSON summaries).
//! Everything is `std::net` + threads — no async runtime, same as the
//! rest of the workspace.
//!
//! Shutdown is a graceful drain: [`Server::shutdown`] stops accepting,
//! each reader delivers what it has framed, every session is finalized
//! (emitting its closing `StreamEvent`s), and [`Server::join`] returns the
//! final per-source reports.

pub mod feed;
mod http;
pub mod iec104;

pub use feed::{feed_bytes, feed_path, FeedStats};
pub use iec104::{equivalent_capture, Iec104Conn};
pub use uncharted_nettap::source::{FrameTransport, SourceOutcome};

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use uncharted_analysis::stream::StreamSession;
use uncharted_analysis::PipelineMetrics;
use uncharted_iec104::conn::ConnConfig;
use uncharted_nettap::pcap::ParsedPacket;
use uncharted_nettap::source::PcapFramer;
use uncharted_obs::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};

/// Per-source session tuning, shared by every transport. `window` and
/// `idle_timeout` carry the exact `analyze --follow` semantics into every
/// per-source session.
///
/// Construct with [`SessionConfig::builder`]; the builder mirrors
/// `StreamSession::builder` and `PipelineBuilder` so session wiring reads
/// the same everywhere:
///
/// ```
/// use uncharted_serve::SessionConfig;
///
/// let session = SessionConfig::builder()
///     .window(Some(30.0))
///     .source_timeout(20.0)
///     .batch(256)
///     .build();
/// assert_eq!(session.batch, 256);
/// ```
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Tumbling window length in seconds for per-source windowed output
    /// (`None` = no windowing), as in `analyze --follow --window`.
    pub window: Option<f64>,
    /// Evict a *flow* idle longer than this many seconds inside a session,
    /// as in `analyze --follow --idle-timeout`.
    pub idle_timeout: Option<f64>,
    /// Evict a *source* that delivers no bytes for this many seconds.
    pub source_timeout: f64,
    /// Packets per batch handed from reader to worker.
    pub batch: usize,
    /// Batches buffered per source before the reader blocks (backpressure).
    pub queue_depth: usize,
}

impl Default for SessionConfig {
    fn default() -> SessionConfig {
        SessionConfig {
            window: None,
            idle_timeout: None,
            source_timeout: 30.0,
            batch: 512,
            queue_depth: 4,
        }
    }
}

impl SessionConfig {
    /// Start a builder from the defaults.
    pub fn builder() -> SessionConfigBuilder {
        SessionConfigBuilder::default()
    }
}

/// Builder for [`SessionConfig`].
#[derive(Debug, Default)]
pub struct SessionConfigBuilder {
    cfg: SessionConfig,
}

impl SessionConfigBuilder {
    /// Tumbling window length in seconds (`None` = no windowing).
    pub fn window(mut self, window: Option<f64>) -> SessionConfigBuilder {
        self.cfg.window = window;
        self
    }

    /// Per-flow idle timeout in seconds (`None` = never evict flows).
    pub fn idle_timeout(mut self, idle_timeout: Option<f64>) -> SessionConfigBuilder {
        self.cfg.idle_timeout = idle_timeout;
        self
    }

    /// Per-source silence timeout in seconds.
    pub fn source_timeout(mut self, source_timeout: f64) -> SessionConfigBuilder {
        self.cfg.source_timeout = source_timeout;
        self
    }

    /// Packets per reader→worker batch.
    pub fn batch(mut self, batch: usize) -> SessionConfigBuilder {
        self.cfg.batch = batch;
        self
    }

    /// Batches buffered per source before backpressure.
    pub fn queue_depth(mut self, queue_depth: usize) -> SessionConfigBuilder {
        self.cfg.queue_depth = queue_depth;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> SessionConfig {
        self.cfg
    }
}

/// Tuning knobs for the ingest service.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Per-source session tuning (shared by both transports).
    pub session: SessionConfig,
    /// IEC 104 state-machine parameters (t1/t2/t3 timers, k/w windows) for
    /// native-104 sources; pcap sources ignore it.
    pub conn: ConnConfig,
    /// Socket poll granularity in milliseconds: read timeout on source
    /// sockets and accept-loop sleep. Bounds shutdown latency, the
    /// staleness of partially filled batches, and IEC 104 timer precision.
    pub poll_ms: u64,
    /// Print typed events (JSON lines) as they happen.
    pub verbose: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            session: SessionConfig::default(),
            conn: ConnConfig::default(),
            poll_ms: 25,
            verbose: false,
        }
    }
}

/// Which sockets [`Server::bind`] opens. At least one ingest listener
/// (`pcap` or `iec104`) is required; `"127.0.0.1:0"` picks a free port.
#[derive(Debug, Clone, Default)]
pub struct Listeners {
    /// pcap-over-TCP feed listener address.
    pub pcap: Option<String>,
    /// Native IEC 104 listener address.
    pub iec104: Option<String>,
    /// HTTP observability endpoint address.
    pub http: Option<String>,
}

impl Listeners {
    /// No listeners; add with the `with_*` methods.
    pub fn new() -> Listeners {
        Listeners::default()
    }

    /// A pcap-over-TCP ingest listener.
    pub fn pcap(addr: impl Into<String>) -> Listeners {
        Listeners::new().with_pcap(addr)
    }

    /// A native IEC 104 ingest listener.
    pub fn iec104(addr: impl Into<String>) -> Listeners {
        Listeners::new().with_iec104(addr)
    }

    /// Add (or replace) the pcap-over-TCP listener address.
    pub fn with_pcap(mut self, addr: impl Into<String>) -> Listeners {
        self.pcap = Some(addr.into());
        self
    }

    /// Add (or replace) the native IEC 104 listener address.
    pub fn with_iec104(mut self, addr: impl Into<String>) -> Listeners {
        self.iec104 = Some(addr.into());
        self
    }

    /// Add (or replace) the HTTP endpoint address.
    pub fn with_http(mut self, addr: impl Into<String>) -> Listeners {
        self.http = Some(addr.into());
        self
    }
}

/// The wire protocol a source speaks, fixed by which listener accepted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransportKind {
    Pcap,
    Iec104,
}

impl TransportKind {
    fn label(self) -> &'static str {
        match self {
            TransportKind::Pcap => "pcap",
            TransportKind::Iec104 => "iec104",
        }
    }
}

/// Lifecycle of one feed: `Active`, or the terminal state mirroring the
/// [`SourceOutcome`] its transport reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceStatus {
    /// Connected and streaming.
    Active,
    /// Fed a clean end of stream (or a graceful server drain) and was
    /// finalized normally.
    Drained,
    /// Closed for cause: truncated or garbage framing, an IEC 104
    /// state-machine violation, or a socket error. The legitimate prefix
    /// was still finalized.
    Quarantined,
    /// Closed after delivering no bytes for the source timeout.
    Evicted,
}

impl SourceStatus {
    /// Lowercase label used in JSON and metrics.
    pub fn label(self) -> &'static str {
        match self {
            SourceStatus::Active => "active",
            SourceStatus::Drained => SourceOutcome::Drained.label(),
            SourceStatus::Quarantined => "quarantined",
            SourceStatus::Evicted => "evicted",
        }
    }

    /// The terminal status for a transport outcome.
    fn of(outcome: &SourceOutcome) -> SourceStatus {
        match outcome {
            SourceOutcome::Drained => SourceStatus::Drained,
            SourceOutcome::Quarantined(_) => SourceStatus::Quarantined,
            SourceOutcome::Evicted(_) => SourceStatus::Evicted,
        }
    }
}

/// Typed service-level events, one JSON line each under `verbose`.
/// (Per-packet analysis events stay `StreamEvent`s inside each session;
/// these cover source lifecycle, the serve layer's own vocabulary.)
#[derive(Debug, Clone)]
pub enum ServeEvent {
    /// A feed connected and its session opened.
    SourceConnected {
        /// Source id (dense, in accept order across all listeners).
        id: usize,
        /// Transport label (`"pcap"` or `"iec104"`).
        transport: &'static str,
        /// Peer address.
        peer: String,
    },
    /// A feed ended cleanly and its session finalized.
    SourceDrained {
        /// Source id.
        id: usize,
        /// Decoded packets delivered over the source's lifetime.
        packets: u64,
    },
    /// A feed was closed for cause (bad framing, an IEC 104 protocol
    /// fault, truncation, socket error); its legitimate prefix was
    /// finalized.
    SourceQuarantined {
        /// Source id.
        id: usize,
        /// Human-readable cause.
        reason: String,
    },
    /// A silent feed was closed after the source timeout.
    SourceEvicted {
        /// Source id.
        id: usize,
        /// Seconds since the source last delivered bytes.
        idle_secs: f64,
    },
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl ServeEvent {
    /// One JSON object per event, `type`-tagged like `StreamEvent::to_json`.
    pub fn to_json(&self) -> String {
        match self {
            ServeEvent::SourceConnected {
                id,
                transport,
                peer,
            } => format!(
                "{{\"type\":\"source_connected\",\"source\":{id},\"transport\":\"{transport}\",\"peer\":\"{}\"}}",
                json_escape(peer)
            ),
            ServeEvent::SourceDrained { id, packets } => {
                format!("{{\"type\":\"source_drained\",\"source\":{id},\"packets\":{packets}}}")
            }
            ServeEvent::SourceQuarantined { id, reason } => format!(
                "{{\"type\":\"source_quarantined\",\"source\":{id},\"reason\":\"{}\"}}",
                json_escape(reason)
            ),
            ServeEvent::SourceEvicted { id, idle_secs } => format!(
                "{{\"type\":\"source_evicted\",\"source\":{id},\"idle_secs\":{idle_secs:.3}}}"
            ),
        }
    }
}

/// Snapshot of one source for `/sources` and [`Server::reports`].
#[derive(Debug, Clone)]
pub struct SourceReport {
    /// Source id (accept order across all listeners).
    pub id: usize,
    /// Transport label (`"pcap"` or `"iec104"`).
    pub transport: &'static str,
    /// Peer address of the feed socket.
    pub peer: String,
    /// Current lifecycle state.
    pub status: SourceStatus,
    /// Cause, when quarantined.
    pub fault: Option<String>,
    /// Decoded packets delivered to the session so far.
    pub packets: u64,
    /// Batches delivered.
    pub batches: u64,
    /// Analysis `StreamEvent`s the session emitted.
    pub events: u64,
    /// Times the reader blocked on a full queue (backpressure).
    pub backpressure_waits: u64,
    /// Counter fingerprint of the source's pipeline registry, once
    /// finalized — the batch-parity object.
    pub fingerprint: Option<String>,
    /// `StreamSummary::to_json()` of the finalized session.
    pub summary_json: Option<String>,
}

struct Finalized {
    fingerprint: String,
    summary_json: String,
}

struct SourceState {
    id: usize,
    transport: &'static str,
    peer: String,
    status: Mutex<SourceStatus>,
    fault: Mutex<Option<String>>,
    packets: AtomicU64,
    batches: AtomicU64,
    events: AtomicU64,
    backpressure_waits: AtomicU64,
    metrics: Arc<PipelineMetrics>,
    done: Mutex<Option<Finalized>>,
}

impl SourceState {
    fn report(&self) -> SourceReport {
        let done = self.done.lock().expect("source finalization lock");
        SourceReport {
            id: self.id,
            transport: self.transport,
            peer: self.peer.clone(),
            status: *self.status.lock().expect("source status lock"),
            fault: self.fault.lock().expect("source fault lock").clone(),
            packets: self.packets.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            events: self.events.load(Ordering::Relaxed),
            backpressure_waits: self.backpressure_waits.load(Ordering::Relaxed),
            fingerprint: done.as_ref().map(|f| f.fingerprint.clone()),
            summary_json: done.as_ref().map(|f| f.summary_json.clone()),
        }
    }
}

pub(crate) struct Shared {
    cfg: ServeConfig,
    pub(crate) stop: AtomicBool,
    next_id: AtomicUsize,
    registry: Arc<MetricsRegistry>,
    sources: Mutex<Vec<Arc<SourceState>>>,
    events: Mutex<Vec<ServeEvent>>,
    sources_active: Arc<Gauge>,
    sources_opened: Arc<Counter>,
    sources_drained: Arc<Counter>,
    sources_quarantined: Arc<Counter>,
    sources_evicted: Arc<Counter>,
}

impl Shared {
    fn new(cfg: ServeConfig) -> Shared {
        let registry = Arc::new(MetricsRegistry::new());
        let closed = |outcome: &SourceOutcome| {
            registry.counter_with("serve_sources_closed", &[("state", outcome.label())])
        };
        Shared {
            sources_active: registry.gauge("serve_sources_active"),
            sources_opened: registry.counter("serve_sources_opened"),
            sources_drained: closed(&SourceOutcome::Drained),
            sources_quarantined: closed(&SourceOutcome::Quarantined(String::new())),
            sources_evicted: closed(&SourceOutcome::Evicted(0.0)),
            cfg,
            stop: AtomicBool::new(false),
            next_id: AtomicUsize::new(0),
            registry,
            sources: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn poll(&self) -> Duration {
        Duration::from_millis(self.cfg.poll_ms.max(1))
    }

    fn push_event(&self, ev: ServeEvent) {
        if self.cfg.verbose {
            eprintln!("{}", ev.to_json());
        }
        self.events.lock().expect("serve event lock").push(ev);
    }

    fn count_closed(&self, outcome: &SourceOutcome) {
        match outcome {
            SourceOutcome::Drained => self.sources_drained.inc(),
            SourceOutcome::Quarantined(_) => self.sources_quarantined.inc(),
            SourceOutcome::Evicted(_) => self.sources_evicted.inc(),
        }
    }

    /// Service registry merged with each source's pipeline registry
    /// relabelled by source id and transport — the `/metrics` view.
    /// Per-source histograms and stage samples are dropped: only their
    /// name-keyed identity would collide across sources, and the counters
    /// carry the parity-relevant signal.
    pub(crate) fn metrics_view(&self) -> MetricsSnapshot {
        let mut view = self.registry.snapshot();
        let sources = self.sources.lock().expect("serve sources lock");
        for src in sources.iter() {
            let mut snap = src.metrics.snapshot();
            snap.histograms.clear();
            snap.stages.clear();
            view.merge(
                snap.with_label("source", &src.id.to_string())
                    .with_label("transport", src.transport),
            );
        }
        view
    }

    pub(crate) fn sources_json(&self) -> String {
        let sources = self.sources.lock().expect("serve sources lock");
        let mut out = String::from("[");
        for (i, src) in sources.iter().enumerate() {
            let r = src.report();
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"transport\":\"{}\",\"peer\":\"{}\",\"status\":\"{}\",\"packets\":{},\"batches\":{},\"events\":{},\"backpressure_waits\":{}",
                r.id,
                r.transport,
                json_escape(&r.peer),
                r.status.label(),
                r.packets,
                r.batches,
                r.events,
                r.backpressure_waits,
            ));
            if let Some(fault) = &r.fault {
                out.push_str(&format!(",\"fault\":\"{}\"", json_escape(fault)));
            }
            match &r.fingerprint {
                Some(fp) => out.push_str(&format!(
                    ",\"finalized\":true,\"fingerprint_fnv64\":\"{:016x}\"",
                    fnv64(fp)
                )),
                None => out.push_str(",\"finalized\":false"),
            }
            out.push('}');
        }
        out.push(']');
        out
    }

    fn reports(&self) -> Vec<SourceReport> {
        let sources = self.sources.lock().expect("serve sources lock");
        sources.iter().map(|s| s.report()).collect()
    }
}

fn fnv64(s: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = uncharted_obs::FnvHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// A running ingest service: up to two ingest listeners (pcap-over-TCP
/// and native IEC 104), an optional HTTP endpoint, one reader + worker
/// thread pair per connected source.
pub struct Server {
    shared: Arc<Shared>,
    pcap_addr: Option<SocketAddr>,
    iec104_addr: Option<SocketAddr>,
    http_addr: Option<SocketAddr>,
    accepts: Vec<JoinHandle<()>>,
    http: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind every listener in `listeners` and start accepting sources.
    /// At least one ingest listener (pcap or iec104) is required.
    /// `"127.0.0.1:0"` picks a free port; [`pcap_addr`](Server::pcap_addr)
    /// / [`iec104_addr`](Server::iec104_addr) report the choice.
    pub fn bind(listeners: &Listeners, cfg: ServeConfig) -> std::io::Result<Server> {
        if listeners.pcap.is_none() && listeners.iec104.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no ingest listener: set a pcap or iec104 listen address",
            ));
        }
        let shared = Arc::new(Shared::new(cfg));
        let mut accepts: Vec<JoinHandle<()>> = Vec::new();
        match Server::bind_inner(listeners, &shared, &mut accepts) {
            Ok((pcap_addr, iec104_addr, http_addr, http)) => Ok(Server {
                shared,
                pcap_addr,
                iec104_addr,
                http_addr,
                accepts,
                http,
            }),
            Err(e) => {
                // A later bind failed after earlier accept threads started:
                // stop them before reporting the error.
                shared.stop.store(true, Ordering::SeqCst);
                for h in accepts {
                    let _ = h.join();
                }
                Err(e)
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn bind_inner(
        listeners: &Listeners,
        shared: &Arc<Shared>,
        accepts: &mut Vec<JoinHandle<()>>,
    ) -> std::io::Result<(
        Option<SocketAddr>,
        Option<SocketAddr>,
        Option<SocketAddr>,
        Option<JoinHandle<()>>,
    )> {
        let mut bind_ingest = |addr: &str, kind: TransportKind| -> std::io::Result<SocketAddr> {
            let listener = TcpListener::bind(addr)?;
            listener.set_nonblocking(true)?;
            let local = listener.local_addr()?;
            let shared = Arc::clone(shared);
            accepts.push(thread::spawn(move || accept_loop(listener, shared, kind)));
            Ok(local)
        };
        let pcap_addr = match &listeners.pcap {
            Some(addr) => Some(bind_ingest(addr, TransportKind::Pcap)?),
            None => None,
        };
        let iec104_addr = match &listeners.iec104 {
            Some(addr) => Some(bind_ingest(addr, TransportKind::Iec104)?),
            None => None,
        };
        let (http, http_addr) = match &listeners.http {
            Some(addr) => {
                let http_listener = TcpListener::bind(addr)?;
                http_listener.set_nonblocking(true)?;
                let http_addr = http_listener.local_addr()?;
                let shared = Arc::clone(shared);
                (
                    Some(thread::spawn(move || {
                        http::serve_http(http_listener, shared)
                    })),
                    Some(http_addr),
                )
            }
            None => (None, None),
        };
        Ok((pcap_addr, iec104_addr, http_addr, http))
    }

    /// Address of the pcap-over-TCP listener, when one was bound.
    pub fn pcap_addr(&self) -> Option<SocketAddr> {
        self.pcap_addr
    }

    /// Address of the native IEC 104 listener, when one was bound.
    pub fn iec104_addr(&self) -> Option<SocketAddr> {
        self.iec104_addr
    }

    /// Address of the HTTP endpoint, when one was bound.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// The `/metrics` body: service registry merged with every source's
    /// relabelled pipeline registry, rendered as Prometheus text.
    pub fn metrics_prometheus(&self) -> String {
        self.shared.metrics_view().to_prometheus()
    }

    /// Current per-source reports (sources still streaming show
    /// `Active` with no fingerprint yet).
    pub fn reports(&self) -> Vec<SourceReport> {
        self.shared.reports()
    }

    /// Every service-level event so far, in order.
    pub fn events(&self) -> Vec<ServeEvent> {
        self.shared.events.lock().expect("serve event lock").clone()
    }

    /// Begin a graceful drain: stop accepting, let every reader flush what
    /// it has framed, finalize every session. Returns immediately; use
    /// [`join`](Server::join) to wait for completion.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Drain and wait until every source is finalized; returns the final
    /// per-source reports.
    pub fn join(mut self) -> Vec<SourceReport> {
        self.shutdown();
        for h in self.accepts.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.http.take() {
            let _ = h.join();
        }
        self.shared.reports()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        for h in self.accepts.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.http.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, kind: TransportKind) {
    let mut sources: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
                let state = Arc::new(SourceState {
                    id,
                    transport: kind.label(),
                    peer: peer.to_string(),
                    status: Mutex::new(SourceStatus::Active),
                    fault: Mutex::new(None),
                    packets: AtomicU64::new(0),
                    batches: AtomicU64::new(0),
                    events: AtomicU64::new(0),
                    backpressure_waits: AtomicU64::new(0),
                    metrics: PipelineMetrics::new(),
                    done: Mutex::new(None),
                });
                shared
                    .sources
                    .lock()
                    .expect("serve sources lock")
                    .push(Arc::clone(&state));
                shared.sources_opened.inc();
                shared.sources_active.inc();
                shared.push_event(ServeEvent::SourceConnected {
                    id,
                    transport: kind.label(),
                    peer: peer.to_string(),
                });
                let shared = Arc::clone(&shared);
                sources.push(thread::spawn(move || {
                    run_source(stream, state, shared, kind)
                }));
            }
            // WouldBlock is the idle case; any transient accept error gets
            // the same backoff rather than a hot spin.
            Err(_) => thread::sleep(shared.poll()),
        }
    }
    // Graceful drain: every reader sees the stop flag within one poll
    // interval, flushes, and finalizes its session before we return.
    for h in sources {
        let _ = h.join();
    }
}

/// Instantiate the transport the accepting listener dictates and run the
/// source to completion.
fn run_source(stream: TcpStream, state: Arc<SourceState>, shared: Arc<Shared>, kind: TransportKind) {
    match kind {
        TransportKind::Pcap => run_source_with(PcapFramer::new(), stream, state, shared),
        TransportKind::Iec104 => {
            let conn = Iec104Conn::new(shared.cfg.conn);
            run_source_with(conn, stream, state, shared)
        }
    }
}

/// One source, end to end: reader loop on this thread, session worker on
/// a sibling, joined before the terminal status is recorded — so a
/// non-`Active` status always implies the fingerprint is available.
fn run_source_with<T: FrameTransport>(
    mut transport: T,
    stream: TcpStream,
    state: Arc<SourceState>,
    shared: Arc<Shared>,
) {
    let _ = stream.set_read_timeout(Some(shared.poll()));
    let (tx, rx) = mpsc::sync_channel::<Vec<ParsedPacket>>(shared.cfg.session.queue_depth.max(1));
    let worker = {
        let state = Arc::clone(&state);
        let shared = Arc::clone(&shared);
        thread::spawn(move || run_worker(rx, state, shared))
    };
    let outcome = read_loop(stream, &mut transport, &tx, &state, &shared);
    drop(tx);
    let _ = worker.join();

    shared.count_closed(&outcome);
    let status = SourceStatus::of(&outcome);
    let event = match outcome {
        SourceOutcome::Drained => ServeEvent::SourceDrained {
            id: state.id,
            packets: state.packets.load(Ordering::Relaxed),
        },
        SourceOutcome::Quarantined(reason) => {
            *state.fault.lock().expect("source fault lock") = Some(reason.clone());
            ServeEvent::SourceQuarantined {
                id: state.id,
                reason,
            }
        }
        SourceOutcome::Evicted(idle_secs) => ServeEvent::SourceEvicted {
            id: state.id,
            idle_secs,
        },
    };
    *state.status.lock().expect("source status lock") = status;
    shared.sources_active.dec();
    shared.push_event(event);
}

/// Write the transport's queued reply bytes (IEC 104 confirmations and
/// S-frames; empty for pcap) back to the peer.
fn write_back<T: FrameTransport>(stream: &mut TcpStream, transport: &mut T) -> std::io::Result<()> {
    let bytes = transport.take_tx();
    if bytes.is_empty() {
        return Ok(());
    }
    stream.write_all(&bytes)
}

fn read_loop<T: FrameTransport>(
    mut stream: TcpStream,
    transport: &mut T,
    tx: &SyncSender<Vec<ParsedPacket>>,
    state: &SourceState,
    shared: &Shared,
) -> SourceOutcome {
    let session = &shared.cfg.session;
    let batch_size = session.batch.max(1);
    let mut pending: Vec<ParsedPacket> = Vec::new();
    let mut tmp = vec![0u8; 16 * 1024];
    let opened = Instant::now();
    let mut last_data = Instant::now();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            // Server-initiated drain: whatever framed completely is
            // delivered; a partial record at this point is our doing, not
            // the feed's.
            flush(&mut pending, tx, state);
            return SourceOutcome::Drained;
        }
        let now = opened.elapsed().as_secs_f64();
        match stream.read(&mut tmp) {
            Ok(0) => {
                let outcome = transport.on_eof(now, &mut pending);
                flush(&mut pending, tx, state);
                return outcome;
            }
            Ok(n) => {
                last_data = Instant::now();
                match transport.on_bytes(&tmp[..n], now, &mut pending) {
                    Ok(_) => {
                        if let Err(e) = write_back(&mut stream, transport) {
                            flush(&mut pending, tx, state);
                            return SourceOutcome::Quarantined(format!("write error: {e}"));
                        }
                        while pending.len() >= batch_size {
                            let rest = pending.split_off(batch_size);
                            let batch = std::mem::replace(&mut pending, rest);
                            if !send_batch(tx, batch, state) {
                                return SourceOutcome::Drained;
                            }
                        }
                    }
                    Err(reason) => {
                        // Frames decoded before the fault are legitimate;
                        // deliver them, then close this source alone. Best
                        // effort on any reply bytes already queued.
                        let _ = write_back(&mut stream, transport);
                        flush(&mut pending, tx, state);
                        return SourceOutcome::Quarantined(reason);
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Poll tick: drive transport timers (IEC 104 t1/t2/t3),
                // bound the staleness of a partial batch, then check the
                // idle clock.
                match transport.on_tick(now, &mut pending) {
                    Ok(()) => {
                        if let Err(e) = write_back(&mut stream, transport) {
                            flush(&mut pending, tx, state);
                            return SourceOutcome::Quarantined(format!("write error: {e}"));
                        }
                    }
                    Err(reason) => {
                        let _ = write_back(&mut stream, transport);
                        flush(&mut pending, tx, state);
                        return SourceOutcome::Quarantined(reason);
                    }
                }
                flush(&mut pending, tx, state);
                let idle = last_data.elapsed().as_secs_f64();
                if idle >= session.source_timeout {
                    return SourceOutcome::Evicted(idle);
                }
            }
            Err(e) => {
                flush(&mut pending, tx, state);
                return SourceOutcome::Quarantined(format!("read error: {e}"));
            }
        }
    }
}

/// Deliver a full batch over the bounded queue, counting backpressure
/// blocks. `false` means the worker is gone (only during teardown).
fn send_batch(
    tx: &SyncSender<Vec<ParsedPacket>>,
    batch: Vec<ParsedPacket>,
    state: &SourceState,
) -> bool {
    match tx.try_send(batch) {
        Ok(()) => true,
        Err(TrySendError::Full(batch)) => {
            state.backpressure_waits.fetch_add(1, Ordering::Relaxed);
            tx.send(batch).is_ok()
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

fn flush(pending: &mut Vec<ParsedPacket>, tx: &SyncSender<Vec<ParsedPacket>>, state: &SourceState) {
    if !pending.is_empty() {
        send_batch(tx, std::mem::take(pending), state);
    }
}

fn run_worker(rx: Receiver<Vec<ParsedPacket>>, state: Arc<SourceState>, shared: Arc<Shared>) {
    let mut session = StreamSession::builder()
        .window(shared.cfg.session.window)
        .idle_timeout(shared.cfg.session.idle_timeout)
        .metrics(Arc::clone(&state.metrics))
        .build();
    let label = state.id.to_string();
    let packets_in = shared.registry.counter_with(
        "serve_source_packets",
        &[("source", &label), ("transport", state.transport)],
    );
    let batches_in = shared.registry.counter_with(
        "serve_source_batches",
        &[("source", &label), ("transport", state.transport)],
    );
    for batch in rx {
        state
            .packets
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        state.batches.fetch_add(1, Ordering::Relaxed);
        packets_in.add(batch.len() as u64);
        batches_in.inc();
        let events = session.push_batch(&batch);
        state
            .events
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        if shared.cfg.verbose {
            for ev in &events {
                println!("{{\"source\":{},\"event\":{}}}", state.id, ev.to_json());
            }
        }
    }
    let (summary, events) = session.finish();
    state
        .events
        .fetch_add(events.len() as u64, Ordering::Relaxed);
    if shared.cfg.verbose {
        for ev in &events {
            println!("{{\"source\":{},\"event\":{}}}", state.id, ev.to_json());
        }
    }
    *state.done.lock().expect("source finalization lock") = Some(Finalized {
        fingerprint: state.metrics.snapshot().counter_fingerprint(),
        summary_json: summary.to_json(),
    });
}
