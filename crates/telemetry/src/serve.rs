//! Live scrape endpoint: a std-only background TCP listener serving
//! the metrics registry in Prometheus text exposition format plus a
//! JSON snapshot of per-session state.
//!
//! This is the observability seam the ROADMAP's multi-session server
//! will mount: a [`StatusBoard`] holds any number of named session
//! telemetry handles, and one [`ScrapeServer`] exposes them all. The
//! listener follows the persist crate's zero-dependency discipline —
//! `std::net::TcpListener`, a hand-written response path, and nothing
//! else — because an HTTP framework would be the workspace's first
//! real network dependency for what is ultimately `printf` over a
//! socket.
//!
//! Routes:
//!
//! - `GET /metrics` — every counter/gauge/histogram of every
//!   registered session, Prometheus text exposition v0.0.4, one
//!   `session="<name>"` label per series.
//! - `GET /sessions` — JSON array of per-session state: run clock,
//!   evaluations started/finished, in-flight count, best FOM,
//!   failures/retries, checkpoints, utilization.
//! - `GET /healthz` — liveness probe.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::telemetry::Telemetry;

/// Registry of named, live telemetry handles — the thing a scrape
/// actually reads. Cloning shares the registry.
#[derive(Debug, Clone, Default)]
pub struct StatusBoard {
    sessions: Arc<Mutex<BTreeMap<String, Telemetry>>>,
}

/// Point-in-time state of one registered session, as served by
/// `/sessions`.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStatus {
    /// Registration name.
    pub name: String,
    /// Run-clock seconds at scrape time.
    pub clock: f64,
    /// Evaluations started.
    pub evals_started: usize,
    /// Evaluations finished.
    pub evals_finished: usize,
    /// Started minus finished: attempts currently in flight.
    pub inflight: usize,
    /// Best objective value so far (`None` before first completion).
    pub best_fom: Option<f64>,
    /// Failed attempts so far.
    pub failures: usize,
    /// Retried attempts so far.
    pub retries: usize,
    /// Durable checkpoints written.
    pub checkpoints: usize,
    /// Final utilization once the run publishes it (the
    /// `run_utilization` gauge), `None` mid-run.
    pub utilization: Option<f64>,
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Prometheus metric names are `[a-zA-Z_:][a-zA-Z0-9_:]*`; our
/// registry names are snake_case already, but sanitize defensively.
fn sanitize_metric(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl StatusBoard {
    /// An empty board.
    pub fn new() -> Self {
        StatusBoard::default()
    }

    /// Registers (or replaces) a session under `name`. Disabled
    /// handles are accepted but serve no metrics.
    pub fn register(&self, name: impl Into<String>, telemetry: Telemetry) {
        self.sessions.lock().unwrap().insert(name.into(), telemetry);
    }

    /// Names of registered sessions.
    pub fn names(&self) -> Vec<String> {
        self.sessions.lock().unwrap().keys().cloned().collect()
    }

    /// Point-in-time status of every registered session.
    pub fn statuses(&self) -> Vec<SessionStatus> {
        let sessions = self.sessions.lock().unwrap();
        sessions
            .iter()
            .map(|(name, t)| {
                let summary = t.summary().unwrap_or_default();
                let utilization = t
                    .metrics_snapshot()
                    .and_then(|m| m.gauge("run_utilization"));
                SessionStatus {
                    name: name.clone(),
                    clock: t.now(),
                    evals_started: summary.evals_started,
                    evals_finished: summary.evals_finished,
                    inflight: summary.evals_started.saturating_sub(summary.evals_finished),
                    best_fom: summary.best_value,
                    failures: summary.evals_failed,
                    retries: summary.evals_retried,
                    checkpoints: summary.checkpoints_written,
                    utilization,
                }
            })
            .collect()
    }

    /// Renders every session's metrics in Prometheus text exposition
    /// format (v0.0.4).
    pub fn prometheus(&self) -> String {
        // metric name -> (type, sample lines); BTreeMap keeps the
        // output deterministic.
        let mut families: BTreeMap<String, (&'static str, Vec<String>)> = BTreeMap::new();
        let sample = |families: &mut BTreeMap<String, (&'static str, Vec<String>)>,
                      family: String,
                      kind: &'static str,
                      suffix: &str,
                      session: &str,
                      value: String| {
            let entry = families.entry(family.clone()).or_insert((kind, Vec::new()));
            entry.1.push(format!(
                "{family}{suffix}{{session=\"{}\"}} {value}",
                escape_label(session)
            ));
        };
        let sessions = self.sessions.lock().unwrap();
        for (name, t) in sessions.iter() {
            let Some(snap) = t.metrics_snapshot() else {
                continue;
            };
            for (metric, v) in &snap.counters {
                let family = format!("easybo_{}", sanitize_metric(metric));
                sample(&mut families, family, "counter", "", name, v.to_string());
            }
            for (metric, v) in &snap.gauges {
                if !v.is_finite() {
                    continue;
                }
                let family = format!("easybo_{}", sanitize_metric(metric));
                sample(&mut families, family, "gauge", "", name, v.to_string());
            }
            for (metric, h) in &snap.histograms {
                let family = format!("easybo_{}", sanitize_metric(metric));
                sample(
                    &mut families,
                    family.clone(),
                    "summary",
                    "_sum",
                    name,
                    h.sum.to_string(),
                );
                sample(
                    &mut families,
                    family,
                    "summary",
                    "_count",
                    name,
                    h.count.to_string(),
                );
            }
            // Session-level series derived from the event aggregate.
            if let Some(s) = t.summary() {
                let pairs: [(&str, f64); 7] = [
                    ("easybo_session_evals_started", s.evals_started as f64),
                    ("easybo_session_evals_finished", s.evals_finished as f64),
                    ("easybo_session_failures", s.evals_failed as f64),
                    ("easybo_session_retries", s.evals_retried as f64),
                    ("easybo_session_checkpoints", s.checkpoints_written as f64),
                    ("easybo_session_spans", s.spans as f64),
                    (
                        "easybo_session_inflight",
                        s.evals_started.saturating_sub(s.evals_finished) as f64,
                    ),
                ];
                for (family, v) in pairs {
                    let kind = if family == "easybo_session_inflight" {
                        "gauge"
                    } else {
                        "counter"
                    };
                    sample(
                        &mut families,
                        family.to_string(),
                        kind,
                        "",
                        name,
                        v.to_string(),
                    );
                }
                if let Some(best) = s.best_value {
                    if best.is_finite() {
                        sample(
                            &mut families,
                            "easybo_session_best_fom".to_string(),
                            "gauge",
                            "",
                            name,
                            best.to_string(),
                        );
                    }
                }
                sample(
                    &mut families,
                    "easybo_session_clock_seconds".to_string(),
                    "gauge",
                    "",
                    name,
                    t.now().to_string(),
                );
            }
        }
        let mut out = String::new();
        for (family, (kind, lines)) in families {
            let _ = writeln!(out, "# TYPE {family} {kind}");
            for line in lines {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// Renders `/sessions` as JSON.
    pub fn sessions_json(&self) -> String {
        let mut out = String::from("{\"sessions\":[");
        for (i, s) in self.statuses().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"clock\":{},\"evals_started\":{},\"evals_finished\":{},\"inflight\":{},\"best_fom\":{},\"failures\":{},\"retries\":{},\"checkpoints\":{},\"utilization\":{}}}",
                escape_json(&s.name),
                if s.clock.is_finite() { s.clock } else { 0.0 },
                s.evals_started,
                s.evals_finished,
                s.inflight,
                s.best_fom
                    .filter(|v| v.is_finite())
                    .map_or("null".to_string(), |v| v.to_string()),
                s.failures,
                s.retries,
                s.checkpoints,
                s.utilization
                    .filter(|v| v.is_finite())
                    .map_or("null".to_string(), |v| v.to_string()),
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Background HTTP listener over a [`StatusBoard`]. The accept loop
/// runs on its own thread until [`ScrapeServer::shutdown`] (or drop).
#[derive(Debug)]
pub struct ScrapeServer {
    board: StatusBoard,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9184"`; port 0 picks a free
    /// port) with a fresh empty board.
    ///
    /// # Errors
    ///
    /// Propagates the bind/spawn failure.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        ScrapeServer::with_board(addr, StatusBoard::new())
    }

    /// Binds `addr` serving an existing board (shared with the caller
    /// and with other servers, if any).
    ///
    /// # Errors
    ///
    /// Propagates the bind/spawn failure.
    pub fn with_board(addr: &str, board: StatusBoard) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_board = board.clone();
        let loop_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("easybo-scrape".to_string())
            .spawn(move || accept_loop(&listener, &loop_board, &loop_stop))?;
        Ok(ScrapeServer {
            board,
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The board this server reads; register sessions here.
    pub fn board(&self) -> &StatusBoard {
        &self.board
    }

    /// Stops the listener and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::SeqCst);
            // Wake the blocking accept with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.stop_now();
    }
}

fn accept_loop(listener: &TcpListener, board: &StatusBoard, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        if let Ok(stream) = stream {
            let _ = handle_conn(stream, board);
        }
    }
}

fn handle_conn(mut stream: TcpStream, board: &StatusBoard) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    // Read until the end of the request head; cap the head size so a
    // hostile peer can't grow the buffer unboundedly.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                board.prometheus(),
            ),
            "/sessions" => ("200 OK", "application/json", board.sessions_json()),
            "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        let req = format!("GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n");
        stream.write_all(req.as_bytes()).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn sample_session() -> Telemetry {
        let t = Telemetry::new();
        t.set_now(12.5);
        t.incr("gp_nll_evals", 40);
        t.gauge_set("run_utilization", 0.875);
        t.observe("gp_fit_s", 0.25);
        t.emit(Event::EvalStarted { task: 0, worker: 0 });
        t.emit(Event::EvalFinished {
            task: 0,
            worker: 0,
            value: 1.5,
        });
        t.emit(Event::EvalStarted { task: 1, worker: 1 });
        t
    }

    #[test]
    fn board_renders_prometheus_and_json() {
        let board = StatusBoard::new();
        board.register("opamp", sample_session());
        let text = board.prometheus();
        assert!(text.contains("# TYPE easybo_gp_nll_evals counter"));
        assert!(text.contains("easybo_gp_nll_evals{session=\"opamp\"} 40"));
        assert!(text.contains("# TYPE easybo_run_utilization gauge"));
        assert!(text.contains("# TYPE easybo_gp_fit_s summary"));
        assert!(text.contains("easybo_gp_fit_s_count{session=\"opamp\"} 1"));
        assert!(text.contains("easybo_session_inflight{session=\"opamp\"} 1"));
        assert!(text.contains("easybo_session_best_fom{session=\"opamp\"} 1.5"));

        let json = board.sessions_json();
        assert!(json.contains("\"name\":\"opamp\""));
        assert!(json.contains("\"inflight\":1"));
        assert!(json.contains("\"best_fom\":1.5"));
        assert!(json.contains("\"utilization\":0.875"));

        let status = &board.statuses()[0];
        assert_eq!(status.clock, 12.5);
        assert_eq!(status.evals_started, 2);
        assert_eq!(board.names(), ["opamp"]);
    }

    #[test]
    fn disabled_sessions_serve_no_metrics() {
        let board = StatusBoard::new();
        board.register("off", Telemetry::disabled());
        assert_eq!(board.prometheus(), "");
        // Still listed, with default state.
        let json = board.sessions_json();
        assert!(json.contains("\"name\":\"off\""));
        assert!(json.contains("\"best_fom\":null"));
    }

    #[test]
    fn server_serves_all_routes_and_shuts_down() {
        let server = ScrapeServer::bind("127.0.0.1:0").unwrap();
        server.board().register("s1", sample_session());
        let addr = server.local_addr();

        let metrics = http_get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("version=0.0.4"));
        assert!(metrics.contains("easybo_gp_nll_evals{session=\"s1\"} 40"));

        let sessions = http_get(addr, "/sessions");
        assert!(sessions.contains("application/json"));
        assert!(sessions.contains("\"name\":\"s1\""));

        assert!(http_get(addr, "/healthz").contains("ok"));
        assert!(http_get(addr, "/nope").starts_with("HTTP/1.1 404"));

        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 405"));

        server.shutdown();
    }

    #[test]
    fn label_escaping_keeps_exposition_parseable() {
        let board = StatusBoard::new();
        let t = Telemetry::new();
        t.incr("x", 1);
        board.register("we\"ird\\name", t);
        let text = board.prometheus();
        assert!(text.contains("session=\"we\\\"ird\\\\name\""));
    }
}
