//! The threaded server: an acceptor feeding a fixed worker pool over a
//! crossbeam channel, with graceful shutdown.

use crate::api::{handle, AppState};
use crate::http::{HttpError, Response};
use chatiyp_core::ChatIyp;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Use port 0 to let the OS choose (tests do).
    pub addr: SocketAddr,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Admission-queue bound: connections accepted but not yet picked up
    /// by a worker. When the queue is full the acceptor *sheds* instead
    /// of queueing unboundedly — the connection gets an immediate
    /// `429 Too Many Requests` + `Retry-After` and is closed, and the
    /// shed counter (`/stats` → `resilience.shed`,
    /// `chatiyp_shed_total` in `/metrics`) increments.
    pub queue_capacity: usize,
    /// How long an accepted connection may wait in the admission queue
    /// before its first request is abandoned with `504 Gateway Timeout`.
    /// A request a worker has already started is never cut off. `None`
    /// disables the check.
    pub queue_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8047".parse().expect("valid literal addr"),
            workers: 4,
            read_timeout: Duration::from_secs(10),
            queue_capacity: 128,
            queue_deadline: Some(Duration::from_secs(30)),
        }
    }
}

/// A running server; dropping it (or calling [`Server::shutdown`]) stops
/// the acceptor and drains the workers.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and spawns the acceptor + worker pool with a ready pipeline.
    /// Workers share one [`AppState`]; every request resolves the current
    /// graph snapshot through it.
    pub fn start(chat: ChatIyp, config: ServerConfig) -> std::io::Result<Server> {
        Self::start_with_state(Arc::new(AppState::ready(Arc::new(chat))), config)
    }

    /// Binds and starts serving **before** the pipeline exists: the
    /// socket accepts immediately, every endpoint answers 503 +
    /// `Retry-After`, and `builder` runs on a background thread. Once it
    /// returns, its pipeline is published and `GET /healthz` flips to
    /// 200 — the load-balancer-friendly way to boot a server whose
    /// dataset takes a while to generate or load from disk.
    pub fn start_deferred<F>(config: ServerConfig, builder: F) -> std::io::Result<Server>
    where
        F: FnOnce() -> ChatIyp + Send + 'static,
    {
        let state = Arc::new(AppState::deferred());
        let publisher = Arc::clone(&state);
        std::thread::Builder::new()
            .name("chatiyp-loader".into())
            .spawn(move || {
                publisher.publish(Arc::new(builder()));
            })
            .expect("spawn loader");
        Self::start_with_state(state, config)
    }

    fn start_with_state(state: Arc<AppState>, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));

        type Queued = (TcpStream, Instant);
        let (tx, rx): (Sender<Queued>, Receiver<Queued>) = bounded(config.queue_capacity.max(1));
        let mut workers = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let rx = rx.clone();
            let state = Arc::clone(&state);
            let read_timeout = config.read_timeout;
            let queue_deadline = config.queue_deadline;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("chatiyp-worker-{i}"))
                    .spawn(move || worker_loop(rx, state, read_timeout, queue_deadline))
                    .expect("spawn worker"),
            );
        }

        let stop_accept = Arc::clone(&stop);
        let shed_state = Arc::clone(&state);
        let acceptor = std::thread::Builder::new()
            .name("chatiyp-acceptor".into())
            .spawn(move || {
                while !stop_accept.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            // Bounded admission: a full queue sheds the
                            // connection with an immediate 429 instead of
                            // queueing work the pool cannot reach — in-
                            // flight and already-queued requests keep
                            // their workers.
                            match tx.try_send((stream, Instant::now())) {
                                Ok(()) => {}
                                Err(TrySendError::Full((stream, _))) => {
                                    shed_state.note_shed();
                                    shed(stream);
                                }
                                Err(TrySendError::Disconnected(_)) => break,
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
                // Dropping tx closes the channel; workers drain and exit.
            })
            .expect("spawn acceptor");

        Ok(Server {
            addr,
            stop,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains in-flight requests, joins all threads.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// The load-shed reply: `429` + `Retry-After`, written inline by the
/// acceptor (the body is a handful of bytes; socket buffers absorb it)
/// before the connection is closed.
fn shed(stream: TcpStream) {
    let resp = Response::json(
        429,
        r#"{"error":"server overloaded, request shed"}"#.as_bytes().to_vec(),
    )
    .with_header("retry-after", "1");
    reject(stream, resp);
}

/// Writes a rejection response and closes the connection without
/// triggering a TCP reset. The client has usually already sent request
/// bytes the server never read; closing with unread data pending makes
/// the kernel send RST, which discards the in-flight reply at the
/// client. Shutting down the write half first and briefly draining the
/// read half lets the status line land before the socket dies. The
/// drain is bounded (timeout + byte cap) so a hostile peer cannot pin
/// the caller.
fn reject(mut stream: TcpStream, resp: Response) {
    if resp.write_conn(&mut stream, false).is_err() {
        return;
    }
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match std::io::Read::read(&mut stream, &mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn worker_loop(
    rx: Receiver<(TcpStream, Instant)>,
    state: Arc<AppState>,
    read_timeout: Duration,
    queue_deadline: Option<Duration>,
) {
    // The loop ends when the acceptor drops the sender.
    while let Ok((stream, accepted_at)) = rx.recv() {
        // A connection that waited in the admission queue past the
        // deadline gets an honest 504 instead of a stale answer; the
        // client has likely timed out already. Requests a worker has
        // begun serving are never cut off.
        if queue_deadline.is_some_and(|d| accepted_at.elapsed() > d) {
            let resp = Response::json(
                504,
                r#"{"error":"timed out waiting in the admission queue"}"#
                    .as_bytes()
                    .to_vec(),
            )
            .with_header("retry-after", "1");
            reject(stream, resp);
            continue;
        }
        let _ = stream.set_read_timeout(Some(read_timeout));
        serve_connection(stream, &state);
    }
}

/// Serves one connection: keep-alive loop with a per-connection buffered
/// reader (so pipelined request bytes survive between reads), bounded by
/// [`crate::http::MAX_REQUESTS_PER_CONN`]. A request whose handler panics
/// is answered `500` and ends the connection; the worker lives on.
fn serve_connection(stream: TcpStream, state: &AppState) {
    use crate::http::{read_request_buffered, MAX_REQUESTS_PER_CONN};
    let mut reader = std::io::BufReader::new(stream);
    for served in 0..MAX_REQUESTS_PER_CONN {
        let parsed = read_request_buffered(&mut reader);
        let (response, keep_alive) = match parsed {
            Ok(req) => {
                let keep = req.wants_keep_alive() && served + 1 < MAX_REQUESTS_PER_CONN;
                // A panicking handler (an engine bug, or a panic re-raised
                // from a morsel worker) costs its request, not the worker
                // thread: answer 500 and close the connection.
                match std::panic::catch_unwind(AssertUnwindSafe(|| handle(state, &req))) {
                    Ok(resp) => (resp, keep),
                    Err(_) => {
                        state.note_panic();
                        let body = r#"{"error":"internal error"}"#.as_bytes().to_vec();
                        (Response::json(500, body), false)
                    }
                }
            }
            Err(HttpError::TooLarge) => (
                Response::json(413, r#"{"error":"body too large"}"#.as_bytes().to_vec()),
                false,
            ),
            Err(HttpError::BadRequest(m)) => (
                Response::json(
                    400,
                    serde_json::json!({ "error": m }).to_string().into_bytes(),
                ),
                false,
            ),
            // End of a keep-alive session: close quietly, no 400 into a
            // socket the peer already abandoned.
            Err(HttpError::Closed) => return,
            Err(HttpError::Truncated(m)) => (
                Response::json(
                    400,
                    serde_json::json!({ "error": format!("truncated request: {m}") })
                        .to_string()
                        .into_bytes(),
                ),
                false,
            ),
            Err(HttpError::Io(_)) => return, // peer went away / idle timeout
        };
        if response.write_conn(reader.get_mut(), keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chatiyp_core::ChatIypConfig;
    use iyp_data::{generate, IypConfig};
    use iyp_llm::LmConfig;
    use std::io::{Read, Write};

    fn start_test_server() -> Server {
        let chat = ChatIyp::new(
            generate(&IypConfig::tiny()),
            ChatIypConfig {
                lm: LmConfig {
                    seed: 42,
                    skill: 1.0,
                    variety: 0.0,
                },
                ..Default::default()
            },
        );
        Server::start(
            chat,
            ServerConfig {
                addr: "127.0.0.1:0".parse().unwrap(),
                workers: 2,
                read_timeout: Duration::from_secs(2),
                ..Default::default()
            },
        )
        .expect("server starts")
    }

    fn request(addr: SocketAddr, raw: &str) -> String {
        // `Connection: close` so read_to_string terminates promptly.
        let raw = raw.replacen("\r\n", "\r\nConnection: close\r\n", 1);
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn end_to_end_ask_over_tcp() {
        let server = start_test_server();
        let body = r#"{"question":"What is the name of AS2497?"}"#;
        let raw = format!(
            "POST /ask HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let reply = request(server.addr(), &raw);
        assert!(reply.starts_with("HTTP/1.1 200"), "reply: {reply}");
        assert!(reply.contains("IIJ"), "reply: {reply}");
        server.shutdown();
    }

    #[test]
    fn health_over_tcp_and_concurrent_clients() {
        let server = start_test_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..6)
            .map(|_| {
                std::thread::spawn(move || request(addr, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n"))
            })
            .collect();
        for h in handles {
            let reply = h.join().unwrap();
            assert!(reply.contains("\"status\":\"ok\""), "reply: {reply}");
        }
        server.shutdown();
    }

    /// `i64::MIN / -1` (and `%`) used to panic the worker that ran it:
    /// `workers + 1` such queries left no worker to answer the next one.
    #[test]
    fn integer_overflow_queries_do_not_kill_workers() {
        let server = start_test_server();
        let post = |query: &str| {
            let body = format!(r#"{{"query":"{query}"}}"#);
            let raw = format!(
                "POST /cypher HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            out
        };
        // The test server runs two workers: three requests outlast them.
        for op in ["/", "%", "/"] {
            let reply = post(&format!("RETURN (-9223372036854775807 - 1) {op} -1 AS q"));
            assert!(reply.starts_with("HTTP/1.1 400"), "reply: {reply}");
            assert!(reply.contains("integer overflow"), "reply: {reply}");
        }
        let reply = post("RETURN 1 AS one");
        assert!(reply.starts_with("HTTP/1.1 200"), "reply: {reply}");
        server.shutdown();
    }

    /// Three requests that panic in their handler (the injected `panic`
    /// fault point) outnumber the two workers; each gets a 500, the
    /// panics are counted, and the pool still answers afterwards.
    #[test]
    fn panicking_requests_do_not_kill_workers() {
        use chatiyp_core::{FaultPlan, FaultPoint, FaultRule, ResilienceConfig};
        let plan = FaultPlan::new(7).rule(FaultPoint::Panic, FaultRule::window(0, 3));
        let chat = ChatIyp::new(
            generate(&IypConfig::tiny()),
            ChatIypConfig {
                resilience: ResilienceConfig {
                    faults: Some(plan.into_arc()),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let server = Server::start(
            chat,
            ServerConfig {
                addr: "127.0.0.1:0".parse().unwrap(),
                workers: 2,
                read_timeout: Duration::from_secs(2),
                ..Default::default()
            },
        )
        .expect("server starts");
        let post = |path: &str, body: &str| {
            let raw = format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            out
        };
        let one = r#"{"query":"RETURN 1 AS one"}"#;
        for _ in 0..3 {
            let reply = post("/cypher", one);
            assert!(reply.starts_with("HTTP/1.1 500"), "reply: {reply}");
        }
        let reply = post("/cypher", one);
        assert!(reply.starts_with("HTTP/1.1 200"), "reply: {reply}");
        let raw = "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
        let metrics = request(server.addr(), raw);
        assert!(metrics.contains("\nchatiyp_panics_total 3\n"), "{metrics}");
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400_not_hang() {
        let server = start_test_server();
        let reply = request(server.addr(), "GARBAGE\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 400"), "reply: {reply}");
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        use std::io::{BufRead, BufReader};
        let server = start_test_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(3)))
            .unwrap();
        let mut reader = BufReader::new(stream);

        for i in 0..3 {
            reader
                .get_mut()
                .write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            // Status line.
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("HTTP/1.1 200"), "req {i}: {line}");
            // Headers until blank; find content-length and keep-alive.
            let mut content_length = 0usize;
            let mut connection = String::new();
            loop {
                let mut h = String::new();
                reader.read_line(&mut h).unwrap();
                let h = h.trim_end();
                if h.is_empty() {
                    break;
                }
                if let Some(v) = h.strip_prefix("content-length: ") {
                    content_length = v.parse().unwrap();
                }
                if let Some(v) = h.strip_prefix("connection: ") {
                    connection = v.to_string();
                }
            }
            assert_eq!(connection, "keep-alive", "req {i}");
            let mut body = vec![0u8; content_length];
            std::io::Read::read_exact(&mut reader, &mut body).unwrap();
            assert!(String::from_utf8_lossy(&body).contains("\"status\":\"ok\""));
        }
        server.shutdown();
    }

    #[test]
    fn clean_keep_alive_close_gets_no_spurious_400() {
        use std::io::BufReader;
        use std::net::Shutdown;
        let server = start_test_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(3)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        reader
            .get_mut()
            .write_all(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        // Read the one keep-alive response fully.
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).unwrap();
        assert!(line.starts_with("HTTP/1.1 200"), "{line}");
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            std::io::BufRead::read_line(&mut reader, &mut h).unwrap();
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.strip_prefix("content-length: ") {
                content_length = v.parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        std::io::Read::read_exact(&mut reader, &mut body).unwrap();
        // Now end the session cleanly. Previously the server answered the
        // EOF with a 400; it must close with no further bytes.
        reader.get_mut().shutdown(Shutdown::Write).unwrap();
        let mut rest = Vec::new();
        std::io::Read::read_to_end(&mut reader, &mut rest).unwrap();
        assert!(
            rest.is_empty(),
            "server wrote after clean close: {}",
            String::from_utf8_lossy(&rest)
        );
        server.shutdown();
    }

    #[test]
    fn truncated_request_gets_400() {
        use std::net::Shutdown;
        let server = start_test_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        // EOF mid-headers: previously parsed as a complete request.
        s.write_all(b"POST /ask HTTP/1.1\r\nHost: t\r\n").unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "reply: {out}");
        assert!(out.contains("truncated"), "reply: {out}");
        server.shutdown();
    }

    #[test]
    fn http10_defaults_to_close() {
        let server = start_test_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"GET /health HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap(); // returns promptly: server closes
        assert!(out.contains("connection: close"), "{out}");
        server.shutdown();
    }

    #[test]
    fn worker_survives_client_disconnecting_mid_request() {
        let server = start_test_server();
        // Client declares a body it never sends, then vanishes: the read
        // times out / errors and the worker moves on.
        for _ in 0..3 {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.write_all(b"POST /ask HTTP/1.1\r\nContent-Length: 500\r\n\r\n{half")
                .unwrap();
            drop(s); // disconnect mid-body
        }
        // The pool must still serve real requests afterwards.
        let reply = request(server.addr(), "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(reply.contains("\"status\":\"ok\""), "reply: {reply}");
        server.shutdown();
    }

    /// A deferred server accepts connections immediately, answers 503 +
    /// Retry-After while the pipeline builds, and flips `/healthz` to
    /// 200 once the loader publishes — without dropping a single
    /// connection along the way.
    #[test]
    fn deferred_start_serves_503_then_flips_ready() {
        use std::sync::mpsc;
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let server = Server::start_deferred(
            ServerConfig {
                addr: "127.0.0.1:0".parse().unwrap(),
                workers: 2,
                read_timeout: Duration::from_secs(2),
                ..Default::default()
            },
            move || {
                // Hold the pipeline back until the test has observed 503.
                release_rx.recv().ok();
                ChatIyp::new(
                    generate(&IypConfig::tiny()),
                    ChatIypConfig {
                        lm: LmConfig {
                            seed: 42,
                            skill: 1.0,
                            variety: 0.0,
                        },
                        ..Default::default()
                    },
                )
            },
        )
        .expect("server starts");

        let probe = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
        let reply = request(server.addr(), probe);
        assert!(reply.starts_with("HTTP/1.1 503"), "reply: {reply}");
        assert!(reply.contains("retry-after: 1"), "reply: {reply}");
        // Non-probe endpoints refuse too, rather than hanging.
        let reply = request(server.addr(), "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(reply.starts_with("HTTP/1.1 503"), "reply: {reply}");

        release_tx.send(()).unwrap();
        // Poll until ready (the loader thread needs a moment).
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let reply = request(server.addr(), probe);
            if reply.starts_with("HTTP/1.1 200") {
                assert!(reply.contains("\"status\":\"ready\""), "reply: {reply}");
                assert!(reply.contains("\"graph_version\":1"), "reply: {reply}");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never became ready; last reply: {reply}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        // And the full API works after readiness.
        let reply = request(server.addr(), "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(reply.contains("\"status\":\"ok\""), "reply: {reply}");
        server.shutdown();
    }

    /// Live ingest over HTTP: POST /admin/ingest swaps in a new version
    /// while /cypher readers keep answering; afterwards reads see the
    /// grown graph.
    #[test]
    fn ingest_over_tcp_swaps_versions() {
        let server = start_test_server();
        let count_raw = || {
            let body = r#"{"query":"MATCH (a:AS) RETURN count(a)"}"#;
            format!(
                "POST /cypher HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        };
        let before = request(server.addr(), &count_raw());
        assert!(before.starts_with("HTTP/1.1 200"), "{before}");

        let mut batch = iyp_graphdb::DeltaBatch::new();
        batch.add_node(["AS"], iyp_graphdb::props!("asn" => 64999i64));
        let body = serde_json::to_string(&batch).unwrap();
        let raw = format!(
            "POST /admin/ingest HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let reply = request(server.addr(), &raw);
        assert!(reply.starts_with("HTTP/1.1 200"), "reply: {reply}");
        assert!(reply.contains("\"old_version\":1"), "reply: {reply}");
        assert!(reply.contains("\"new_version\":2"), "reply: {reply}");

        let after = request(server.addr(), &count_raw());
        let count_of = |resp: &str| -> i64 {
            let json = resp.split("\r\n\r\n").nth(1).unwrap();
            let v: serde_json::Value = serde_json::from_str(json).unwrap();
            v["rows"][0][0].as_i64().unwrap()
        };
        assert_eq!(count_of(&after), count_of(&before) + 1);
        server.shutdown();
    }

    /// A tiny server (one worker, one queue slot) for overload tests.
    fn start_tiny_server(queue_deadline: Option<Duration>) -> Server {
        let chat = ChatIyp::new(
            generate(&IypConfig::tiny()),
            ChatIypConfig {
                lm: LmConfig {
                    seed: 42,
                    skill: 1.0,
                    variety: 0.0,
                },
                ..Default::default()
            },
        );
        Server::start(
            chat,
            ServerConfig {
                addr: "127.0.0.1:0".parse().unwrap(),
                workers: 1,
                read_timeout: Duration::from_secs(2),
                queue_capacity: 1,
                queue_deadline,
            },
        )
        .expect("server starts")
    }

    /// Opens a connection and parks the single worker on it: the worker
    /// blocks reading a request that never completes until the stream is
    /// dropped (read error) or the read timeout fires.
    fn hold_worker(addr: SocketAddr) -> TcpStream {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /ask HTTP/1.1\r\nHost: t\r\n").unwrap();
        // Give the worker a moment to dequeue the connection.
        std::thread::sleep(Duration::from_millis(150));
        s
    }

    /// The acceptance overload test: with the single worker held and the
    /// one-slot queue full, flooding yields immediate 429s with
    /// `Retry-After` while queued requests still complete, and the shed
    /// count shows up in `/stats` and `/metrics`.
    #[test]
    fn overload_sheds_429_while_queued_requests_complete() {
        let server = start_tiny_server(Some(Duration::from_secs(30)));
        let addr = server.addr();
        let held = hold_worker(addr);

        // Flood: the first connection takes the queue slot, the rest are
        // shed by the acceptor. Each reader thread collects its reply.
        let floods: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    s.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
                        .unwrap();
                    let mut out = String::new();
                    let _ = s.read_to_string(&mut out);
                    out
                })
            })
            .collect();

        // Let the acceptor process the whole flood, then release the
        // worker so queued connections drain.
        std::thread::sleep(Duration::from_millis(300));
        drop(held);

        let replies: Vec<String> = floods.into_iter().map(|h| h.join().unwrap()).collect();
        let sheds = replies
            .iter()
            .filter(|r| r.starts_with("HTTP/1.1 429"))
            .count();
        let served = replies
            .iter()
            .filter(|r| r.starts_with("HTTP/1.1 200"))
            .count();
        assert!(sheds >= 1, "no connection was shed: {replies:?}");
        assert!(served >= 1, "no queued request completed: {replies:?}");
        for r in replies.iter().filter(|r| r.starts_with("HTTP/1.1 429")) {
            assert!(
                r.contains("retry-after: 1"),
                "shed reply lacks retry-after: {r}"
            );
            assert!(r.contains("request shed"), "shed reply body: {r}");
        }

        // The sheds are visible to operators.
        let stats = request(addr, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
        let json = stats.split("\r\n\r\n").nth(1).unwrap();
        let v: serde_json::Value = serde_json::from_str(json).unwrap();
        assert_eq!(v["resilience"]["shed"].as_u64(), Some(sheds as u64), "{v}");
        let metrics = request(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(
            metrics.contains(&format!("chatiyp_shed_total {sheds}")),
            "{metrics}"
        );
        server.shutdown();
    }

    /// A connection that out-waits the queue deadline gets an honest 504
    /// instead of a late answer.
    #[test]
    fn queue_deadline_expiry_answers_504() {
        let server = start_tiny_server(Some(Duration::from_millis(50)));
        let addr = server.addr();
        let held = hold_worker(addr);

        // This connection sits in the queue while the worker is held...
        let mut queued = TcpStream::connect(addr).unwrap();
        queued
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        queued
            .write_all(b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();

        // ...long past the 50ms deadline.
        std::thread::sleep(Duration::from_millis(400));
        drop(held);

        let mut out = String::new();
        queued.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 504"), "reply: {out}");
        assert!(out.contains("admission queue"), "reply: {out}");
        assert!(out.contains("retry-after: 1"), "reply: {out}");
        // Close our half so the worker's bounded post-504 drain returns
        // immediately instead of holding the pool until its timeout.
        drop(queued);

        // The pool recovers: fresh requests are served normally.
        let reply = request(addr, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(reply.contains("\"status\":\"ok\""), "reply: {reply}");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_quickly() {
        let server = start_test_server();
        let t0 = std::time::Instant::now();
        server.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(2));
    }
}
