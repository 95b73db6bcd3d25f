//! Pull-based metrics endpoint: a dependency-free HTTP/1.0 server
//! exposing every telemetry registry in Prometheus-style text
//! exposition.
//!
//! Observability that only exists post-mortem (drained traces, final
//! JSON artifacts) cannot answer "what is this process doing *now*?".
//! [`start`] binds a TCP listener and serves `GET /metrics` from a
//! single background thread: each scrape calls [`render`], which
//! snapshots the [`channel`](crate::channel),
//! [`transport`](crate::transport), [`hist`](crate::hist) (session
//! lifetimes) and [`scheduler`](crate::scheduler) registries — all
//! lock-free or registration-locked reads, so scraping mid-run costs
//! the workload nothing on its hot paths.
//!
//! The server is deliberately tiny: blocking I/O, one connection at a
//! time, HTTP/1.0 with `Connection: close`, no keep-alive, no TLS, no
//! crates.io dependencies — it exists so a CI job or an operator can
//! `curl` a running distributed role, not to be a web server. The
//! generated distributed skeleton starts it when the
//! `RUMPSTEAK_METRICS` environment variable holds a bind address.
//!
//! Exposition format: `# TYPE` headers followed by
//! `family{label="value"} n` samples. Histograms surface as summaries
//! (`family{...,quantile="0.5"}` plus `_count`/`_sum`/`_max`), which
//! Prometheus and every text-format parser accept. [`render`] works in
//! disabled builds too (registries are empty; only `rumpsteak_up`
//! remains), so the endpoint's presence never depends on the feature.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::hist::HistogramSnapshot;

/// A running metrics endpoint; dropping it shuts the listener down and
/// joins the serving thread.
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// The bound address (resolves `:0` to the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // The serving thread is parked in accept(); a throwaway
        // connection unblocks it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:9464`, port 0 for ephemeral) and
/// serves `GET /metrics` until the returned [`MetricsServer`] is
/// dropped.
pub fn start(addr: &str) -> io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = shutdown.clone();
    let thread = std::thread::Builder::new()
        .name("telemetry-metrics".to_owned())
        .spawn(move || {
            for stream in listener.incoming() {
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(stream) = stream {
                    // A misbehaving scraper only loses its own request.
                    let _ = handle(stream);
                }
            }
        })?;
    Ok(MetricsServer {
        addr,
        shutdown,
        thread: Some(thread),
    })
}

/// Serves one connection: parse the request line, answer, close.
fn handle(mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    // Read until the header terminator; cap the head so a hostile
    // client cannot grow the buffer unboundedly.
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 4096 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = match (method, path) {
        ("GET", "/metrics") | ("GET", "/") => ("200 OK", render()),
        ("GET", _) => ("404 Not Found", "not found\n".to_owned()),
        _ => ("405 Method Not Allowed", "GET only\n".to_owned()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())
}

fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"")
}

fn link_labels(from: &str, to: &str) -> String {
    format!(
        "{{from=\"{}\",to=\"{}\"}}",
        escape_label(from),
        escape_label(to)
    )
}

/// Emits one counter/gauge family: a `# TYPE` header plus one sample
/// per row. Families with no rows emit nothing.
fn family(out: &mut String, name: &str, kind: &str, rows: &[(String, u64)]) {
    use std::fmt::Write;
    if rows.is_empty() {
        return;
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (labels, value) in rows {
        let _ = writeln!(out, "{name}{labels} {value}");
    }
}

/// Emits one histogram as a Prometheus summary (`quantile` samples plus
/// `_count`, `_sum` and a non-standard `_max`). Empty histograms emit
/// nothing.
fn summary(out: &mut String, name: &str, labels: &str, hist: &HistogramSnapshot) {
    use std::fmt::Write;
    if hist.is_empty() {
        return;
    }
    let inner = labels.trim_start_matches('{').trim_end_matches('}');
    let with_quantile = |q: &str| {
        if inner.is_empty() {
            format!("{{quantile=\"{q}\"}}")
        } else {
            format!("{{{inner},quantile=\"{q}\"}}")
        }
    };
    for (q, value) in [
        ("0.5", hist.p50()),
        ("0.9", hist.p90()),
        ("0.99", hist.p99()),
        ("0.999", hist.p999()),
    ] {
        let _ = writeln!(out, "{name}{} {value}", with_quantile(q));
    }
    let _ = writeln!(out, "{name}_count{labels} {}", hist.count);
    let _ = writeln!(out, "{name}_sum{labels} {}", hist.sum);
    let _ = writeln!(out, "{name}_max{labels} {}", hist.max);
}

/// Renders the full exposition document: every registry, one scrape.
pub fn render() -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(4096);
    out.push_str("# TYPE rumpsteak_up gauge\nrumpsteak_up 1\n");

    // Channel registry: data-plane counters, bounds, and the per-link
    // send→recv latency histograms.
    let channels = crate::channel::snapshot();
    let rows = |f: &dyn Fn(&crate::channel::LinkSnapshot) -> u64| -> Vec<(String, u64)> {
        channels
            .iter()
            .map(|link| (link_labels(link.from, link.to), f(link)))
            .collect()
    };
    family(
        &mut out,
        "rumpsteak_channel_sends_total",
        "counter",
        &rows(&|l| l.sends),
    );
    family(
        &mut out,
        "rumpsteak_channel_wakes_total",
        "counter",
        &rows(&|l| l.wakes),
    );
    family(
        &mut out,
        "rumpsteak_channel_batches_total",
        "counter",
        &rows(&|l| l.batches),
    );
    family(
        &mut out,
        "rumpsteak_channel_batched_messages_total",
        "counter",
        &rows(&|l| l.batched_messages),
    );
    family(
        &mut out,
        "rumpsteak_channel_grows_total",
        "counter",
        &rows(&|l| l.grows),
    );
    family(
        &mut out,
        "rumpsteak_channel_backpressure_parks_total",
        "counter",
        &rows(&|l| l.backpressure_parks),
    );
    family(
        &mut out,
        "rumpsteak_channel_high_watermark",
        "gauge",
        &rows(&|l| l.high_watermark),
    );
    let bounded: Vec<(String, u64)> = channels
        .iter()
        .filter_map(|l| l.kmc_bound.map(|k| (link_labels(l.from, l.to), k)))
        .collect();
    family(&mut out, "rumpsteak_channel_kmc_bound", "gauge", &bounded);
    if channels.iter().any(|l| !l.latency.is_empty()) {
        out.push_str("# TYPE rumpsteak_link_latency_ns summary\n");
        for link in &channels {
            summary(
                &mut out,
                "rumpsteak_link_latency_ns",
                &link_labels(link.from, link.to),
                &link.latency,
            );
        }
    }

    // Transport registry: wire counters, windows, frame latencies.
    let remote = crate::transport::snapshot();
    let trows = |f: &dyn Fn(&crate::transport::TransportSnapshot) -> u64| -> Vec<(String, u64)> {
        remote
            .iter()
            .map(|link| (link_labels(link.from, link.to), f(link)))
            .collect()
    };
    family(
        &mut out,
        "rumpsteak_transport_frames_sent_total",
        "counter",
        &trows(&|l| l.frames_sent),
    );
    family(
        &mut out,
        "rumpsteak_transport_frames_received_total",
        "counter",
        &trows(&|l| l.frames_received),
    );
    family(
        &mut out,
        "rumpsteak_transport_bytes_sent_total",
        "counter",
        &trows(&|l| l.bytes_sent),
    );
    family(
        &mut out,
        "rumpsteak_transport_bytes_received_total",
        "counter",
        &trows(&|l| l.bytes_received),
    );
    family(
        &mut out,
        "rumpsteak_transport_window_stalls_total",
        "counter",
        &trows(&|l| l.window_stalls),
    );
    family(
        &mut out,
        "rumpsteak_transport_reconnects_total",
        "counter",
        &trows(&|l| l.reconnects),
    );
    let windows: Vec<(String, u64)> = remote
        .iter()
        .filter_map(|l| l.send_window.map(|w| (link_labels(l.from, l.to), w)))
        .collect();
    family(
        &mut out,
        "rumpsteak_transport_send_window",
        "gauge",
        &windows,
    );
    if remote.iter().any(|l| !l.wire_latency.is_empty()) {
        out.push_str("# TYPE rumpsteak_wire_latency_ns summary\n");
        for link in &remote {
            summary(
                &mut out,
                "rumpsteak_wire_latency_ns",
                &link_labels(link.from, link.to),
                &link.wire_latency,
            );
        }
    }

    // Session lifetimes.
    let sessions = crate::hist::sessions_snapshot();
    if !sessions.is_empty() {
        out.push_str("# TYPE rumpsteak_session_lifetime_ns summary\n");
        for (role, lifetime) in &sessions {
            summary(
                &mut out,
                "rumpsteak_session_lifetime_ns",
                &format!("{{role=\"{}\"}}", escape_label(role)),
                lifetime,
            );
        }
    }

    // Scheduler totals over every registered runtime.
    let scheduler = crate::scheduler::sources_snapshot();
    let totals = scheduler.total();
    if totals != Default::default() {
        for (field, value) in totals.fields() {
            let _ = writeln!(out, "# TYPE rumpsteak_scheduler_{field}_total counter");
            let _ = writeln!(out, "rumpsteak_scheduler_{field}_total {value}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_metrics_over_http10() {
        crate::channel::register("ServeA", "ServeB").record_send();
        let server = start("127.0.0.1:0").expect("bind ephemeral metrics port");
        let response = scrape(
            server.local_addr(),
            "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n",
        );
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain"));
        assert!(response.contains("rumpsteak_up 1"));
        if crate::ENABLED {
            assert!(
                response.contains("rumpsteak_channel_sends_total{from=\"ServeA\",to=\"ServeB\"}"),
                "channel family missing:\n{response}"
            );
        }
    }

    #[test]
    fn unknown_path_is_404_and_post_is_405() {
        let server = start("127.0.0.1:0").unwrap();
        let response = scrape(server.local_addr(), "GET /nope HTTP/1.0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 404"));
        let response = scrape(server.local_addr(), "POST /metrics HTTP/1.0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 405"));
    }

    #[test]
    fn shutdown_joins_the_thread() {
        let server = start("127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        drop(server);
        // The listener is gone: connecting may succeed transiently on
        // some platforms' backlog, but a fresh bind to the port must
        // work — the thread released it.
        let rebind = TcpListener::bind(addr);
        assert!(rebind.is_ok(), "port still held after shutdown");
    }

    #[test]
    fn exposition_summaries_render_quantiles() {
        let hist = crate::hist::Histogram::new();
        for i in 1..=1000u64 {
            hist.record(i);
        }
        let mut out = String::new();
        summary(
            &mut out,
            "test_ns",
            "{from=\"A\",to=\"B\"}",
            &hist.snapshot(),
        );
        if crate::ENABLED {
            assert!(out.contains("test_ns{from=\"A\",to=\"B\",quantile=\"0.5\"}"));
            assert!(out.contains("test_ns_count{from=\"A\",to=\"B\"} 1000"));
            assert!(out.contains("test_ns_max{from=\"A\",to=\"B\"} 1000"));
        } else {
            assert!(out.is_empty());
        }
    }
}
