//! A std-only newline-delimited request/response TCP server for the
//! `loom serve` read path (DESIGN.md §16 + appendix B).
//!
//! Shape: one accept thread (nonblocking accept + shutdown flag), one
//! *reader/executor* thread plus one *writer* thread per connection.
//! The reader parses a request line, runs the protocol handler inline,
//! and pushes the reply into a **bounded** per-connection queue the
//! writer drains — so a client that stops reading stalls only its own
//! connection (queue fills → reader stops consuming the socket → TCP
//! backpressure), never the ingest thread and never other readers.
//!
//! Backpressure is refused loudly, not silently dropped:
//! - at `max_connections`, a new connection is answered with a single
//!   `ERR busy ...` line and closed;
//! - at `max_inflight` concurrently executing queries (across all
//!   connections), a request is answered `ERR busy ...` without
//!   running the handler.
//!
//! Both count into [`ServeMetrics::refused`].
//!
//! The server knows nothing about graphs: it owns framing, admission
//! and lifecycle, and delegates every request line to an opaque
//! `Fn(&str) -> String` handler (loom-query's protocol interpreter in
//! production, trivial closures in tests).

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::ServeMetrics;

/// Tunables for [`LineServer`]. `Default` matches the `loom serve`
/// CLI defaults.
#[derive(Clone, Debug)]
pub struct LineServerConfig {
    /// Maximum concurrent connections; further connects are refused
    /// with `ERR busy` and closed.
    pub max_connections: usize,
    /// Maximum queries executing concurrently across all connections;
    /// requests over the cap are refused with `ERR busy` unexecuted.
    pub max_inflight: usize,
    /// Bounded per-connection reply-queue depth (backpressure toward
    /// slow clients).
    pub reply_queue: usize,
    /// Socket write timeout; a client that stops reading for this long
    /// has its connection torn down.
    pub write_timeout_ms: u64,
}

impl Default for LineServerConfig {
    fn default() -> Self {
        LineServerConfig {
            max_connections: 64,
            max_inflight: 128,
            reply_queue: 256,
            write_timeout_ms: 2_000,
        }
    }
}

/// The per-request protocol interpreter: request line in (no trailing
/// newline), single reply line out (newline appended by the server).
pub type LineHandler = Arc<dyn Fn(&str) -> String + Send + Sync>;

/// Poll granularity for the nonblocking accept loop and for reader
/// threads noticing shutdown.
const POLL: Duration = Duration::from_millis(25);

struct QueueState {
    items: std::collections::VecDeque<String>,
    closed: bool,
}

/// Bounded MPSC-ish reply queue: reader pushes (blocking when full),
/// writer pops (blocking when empty), either side can close.
struct ReplyQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl ReplyQueue {
    fn new(capacity: usize) -> Self {
        ReplyQueue {
            state: Mutex::new(QueueState {
                items: std::collections::VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks while the queue is full. Returns false if the queue was
    /// closed (reply dropped — the connection is going away anyway).
    fn push(&self, reply: String) -> bool {
        let mut st = self.state.lock().unwrap();
        while st.items.len() >= self.capacity && !st.closed {
            st = self.not_full.wait(st).unwrap();
        }
        if st.closed {
            return false;
        }
        st.items.push_back(reply);
        self.not_empty.notify_one();
        true
    }

    /// Blocks while the queue is empty and open. `None` = closed and
    /// drained.
    fn pop(&self) -> Option<String> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(item) = st.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

struct ServerShared {
    config: LineServerConfig,
    handler: LineHandler,
    metrics: Arc<ServeMetrics>,
    shutdown: AtomicBool,
    active: AtomicUsize,
    inflight: AtomicUsize,
    accepted: AtomicU64,
    refused_connections: AtomicU64,
}

/// A running newline-delimited TCP server. Stops (and joins all
/// threads) on [`LineServer::shutdown`] or drop.
pub struct LineServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl LineServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting. Every request line is answered by `handler`;
    /// latencies and refusals are recorded into `metrics`.
    pub fn start(
        addr: impl ToSocketAddrs,
        config: LineServerConfig,
        handler: LineHandler,
        metrics: Arc<ServeMetrics>,
    ) -> std::io::Result<LineServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            config,
            handler,
            metrics,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            refused_connections: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(LineServer {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the real port when `:0` was requested).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far (including ones since closed).
    pub fn connections_accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Connections refused at the `max_connections` cap.
    pub fn connections_refused(&self) -> u64 {
        self.shared.refused_connections.load(Ordering::Relaxed)
    }

    /// Currently open connections.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Queries executing right now (admission-counted).
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Relaxed)
    }

    /// Stop accepting, wake every connection, and join all server
    /// threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for LineServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for LineServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LineServer")
            .field("addr", &self.addr)
            .field("active", &self.active_connections())
            .finish_non_exhaustive()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.accepted.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nonblocking(false);
                // Replies are small and latency-bound: without this,
                // Nagle's algorithm holds a reply until the client's
                // delayed ACK for the previous one arrives.
                let _ = stream.set_nodelay(true);
                if shared.active.load(Ordering::SeqCst) >= shared.config.max_connections {
                    refuse_connection(stream, &shared);
                    continue;
                }
                shared.active.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(&shared);
                conns.push(std::thread::spawn(move || {
                    connection_loop(stream, &conn_shared);
                    conn_shared.active.fetch_sub(1, Ordering::SeqCst);
                }));
                // Reap finished connections so a long-lived server does
                // not accumulate dead JoinHandles.
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// Over the connection cap: one loud refusal line, then close.
fn refuse_connection(mut stream: TcpStream, shared: &ServerShared) {
    shared.refused_connections.fetch_add(1, Ordering::Relaxed);
    shared.metrics.record_refusal();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(shared.config.write_timeout_ms)));
    let _ = stream.write_all(
        format!(
            "ERR busy: connection limit {} reached\n",
            shared.config.max_connections
        )
        .as_bytes(),
    );
}

fn connection_loop(stream: TcpStream, shared: &ServerShared) {
    let queue = Arc::new(ReplyQueue::new(shared.config.reply_queue));
    let writer_queue = Arc::clone(&queue);
    let Ok(writer_stream) = stream.try_clone() else {
        return;
    };
    let write_timeout = Duration::from_millis(shared.config.write_timeout_ms);
    let writer =
        std::thread::spawn(move || writer_loop(writer_stream, writer_queue, write_timeout));

    let _ = stream.set_read_timeout(Some(POLL));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF: client closed or dropped
            Ok(_) => {
                let request = line.trim();
                if request == "QUIT" {
                    queue.push("OK bye".to_string());
                    break;
                }
                let reply = answer(request, shared);
                line.clear();
                if !queue.push(reply) {
                    break; // writer tore the queue down (dead client)
                }
            }
            // Timeout mid-line: the partial prefix stays buffered in
            // `line` (read_line appends), so resuming is lossless.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                queue.push("ERR request is not valid utf-8".to_string());
                break;
            }
            Err(_) => break,
        }
    }
    queue.close();
    let _ = writer.join();
}

/// Admission-check and execute one request.
fn answer(request: &str, shared: &ServerShared) -> String {
    if request.is_empty() {
        return "ERR empty request".to_string();
    }
    let cap = shared.config.max_inflight;
    if shared.inflight.fetch_add(1, Ordering::SeqCst) >= cap {
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        shared.metrics.record_refusal();
        return format!("ERR busy: {cap} queries in flight");
    }
    let t0 = Instant::now();
    let reply = (shared.handler)(request);
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    shared
        .metrics
        .record(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
    reply
}

fn writer_loop(mut stream: TcpStream, queue: Arc<ReplyQueue>, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout));
    while let Some(mut reply) = queue.pop() {
        // One write per reply line, newline included, so it leaves in
        // one segment.
        reply.push('\n');
        let ok = stream
            .write_all(reply.as_bytes())
            .and_then(|()| stream.flush());
        if ok.is_err() {
            // Client gone or stalled past the timeout: unblock the
            // reader (it may be parked on a full queue) and bail.
            queue.close();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn echo_server(config: LineServerConfig) -> (LineServer, Arc<ServeMetrics>) {
        let metrics = Arc::new(ServeMetrics::new());
        let handler: LineHandler = Arc::new(|req: &str| format!("OK echo {req}"));
        let server = LineServer::start("127.0.0.1:0", config, handler, Arc::clone(&metrics))
            .expect("bind loopback");
        (server, metrics)
    }

    fn client(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    }

    fn roundtrip(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        request: &str,
    ) -> String {
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_string()
    }

    #[test]
    fn echoes_lines_and_quits() {
        let (mut server, metrics) = echo_server(LineServerConfig::default());
        let (mut stream, mut reader) = client(server.local_addr());
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "hello"),
            "OK echo hello"
        );
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "again"),
            "OK echo again"
        );
        assert_eq!(roundtrip(&mut stream, &mut reader, "QUIT"), "OK bye");
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "", "server closes after QUIT");
        assert_eq!(metrics.served(), 2, "QUIT is lifecycle, not a query");
        server.shutdown();
    }

    #[test]
    fn sequential_round_trips_are_not_delayed() {
        // Each reply must leave as soon as it is written: a reply held
        // back for the client's delayed ACK costs tens of ms per
        // round trip.
        let (mut server, _metrics) = echo_server(LineServerConfig::default());
        let (mut stream, mut reader) = client(server.local_addr());
        stream.set_nodelay(true).unwrap();
        let t0 = Instant::now();
        for i in 0..50 {
            stream.write_all(format!("ping {i}\n").as_bytes()).unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            assert_eq!(reply, format!("OK echo ping {i}\n"));
        }
        let took = t0.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "50 sequential round trips took {took:?}"
        );
        server.shutdown();
    }

    #[test]
    fn empty_and_whitespace_requests_get_err_not_a_hang() {
        let (mut server, _metrics) = echo_server(LineServerConfig::default());
        let (mut stream, mut reader) = client(server.local_addr());
        assert_eq!(roundtrip(&mut stream, &mut reader, ""), "ERR empty request");
        assert_eq!(
            roundtrip(&mut stream, &mut reader, "   "),
            "ERR empty request"
        );
        assert_eq!(roundtrip(&mut stream, &mut reader, "x"), "OK echo x");
        server.shutdown();
    }

    #[test]
    fn non_utf8_request_is_refused_and_connection_closed() {
        let (mut server, _metrics) = echo_server(LineServerConfig::default());
        let (mut stream, mut reader) = client(server.local_addr());
        stream.write_all(&[0xff, 0xfe, b'\n']).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "ERR request is not valid utf-8");
        // The server dropped this connection but keeps serving others.
        let (mut s2, mut r2) = client(server.local_addr());
        assert_eq!(roundtrip(&mut s2, &mut r2, "still up"), "OK echo still up");
        server.shutdown();
    }

    #[test]
    fn connection_dropped_mid_line_does_not_wedge_the_server() {
        let (mut server, _metrics) = echo_server(LineServerConfig::default());
        {
            let (mut stream, _reader) = client(server.local_addr());
            // Half a request, no newline — then vanish.
            stream.write_all(b"KHOP 12").unwrap();
        }
        let (mut s2, mut r2) = client(server.local_addr());
        assert_eq!(roundtrip(&mut s2, &mut r2, "alive"), "OK echo alive");
        server.shutdown();
        assert_eq!(server.active_connections(), 0);
    }

    #[test]
    fn connection_cap_refuses_loudly() {
        let (mut server, metrics) = echo_server(LineServerConfig {
            max_connections: 1,
            ..LineServerConfig::default()
        });
        let (mut s1, mut r1) = client(server.local_addr());
        assert_eq!(roundtrip(&mut s1, &mut r1, "first"), "OK echo first");
        let (_s2, mut r2) = client(server.local_addr());
        let mut reply = String::new();
        r2.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "ERR busy: connection limit 1 reached");
        assert_eq!(server.connections_refused(), 1);
        assert_eq!(metrics.refused(), 1);
        // First connection is unaffected.
        assert_eq!(roundtrip(&mut s1, &mut r1, "still"), "OK echo still");
        server.shutdown();
    }

    #[test]
    fn inflight_cap_refuses_without_running_the_handler() {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let handler_gate = Arc::clone(&gate);
        let ran = Arc::new(AtomicUsize::new(0));
        let handler_ran = Arc::clone(&ran);
        let metrics = Arc::new(ServeMetrics::new());
        let handler: LineHandler = Arc::new(move |req: &str| {
            handler_ran.fetch_add(1, Ordering::SeqCst);
            let (lock, cv) = &*handler_gate;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            format!("OK {req}")
        });
        let mut server = LineServer::start(
            "127.0.0.1:0",
            LineServerConfig {
                max_inflight: 1,
                ..LineServerConfig::default()
            },
            handler,
            Arc::clone(&metrics),
        )
        .unwrap();

        let (mut s1, mut r1) = client(server.local_addr());
        s1.write_all(b"slow\n").unwrap();
        // Wait until the first query is actually executing.
        while server.inflight() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (mut s2, mut r2) = client(server.local_addr());
        let reply = roundtrip(&mut s2, &mut r2, "over-cap");
        assert_eq!(reply, "ERR busy: 1 queries in flight");
        assert_eq!(ran.load(Ordering::SeqCst), 1, "refused query never ran");
        assert_eq!(metrics.refused(), 1);
        // Release the gate; the first query completes normally.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        let mut reply = String::new();
        r1.read_line(&mut reply).unwrap();
        assert_eq!(reply.trim_end(), "OK slow");
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_idle_connections() {
        let (mut server, _metrics) = echo_server(LineServerConfig::default());
        let (_stream, _reader) = client(server.local_addr());
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        server.shutdown(); // joins accept + connection threads
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "shutdown must not hang on an idle connection"
        );
    }

    #[test]
    fn reply_queue_backpressure_blocks_then_closes() {
        let q = ReplyQueue::new(2);
        assert!(q.push("a".into()));
        assert!(q.push("b".into()));
        let q2 = Arc::new(q);
        let pusher = {
            let q = Arc::clone(&q2);
            std::thread::spawn(move || q.push("c".into()))
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!pusher.is_finished(), "third push blocks on a full queue");
        assert_eq!(q2.pop().as_deref(), Some("a"));
        assert!(pusher.join().unwrap(), "push completes once drained");
        q2.close();
        assert_eq!(q2.pop().as_deref(), Some("b"));
        assert_eq!(q2.pop().as_deref(), Some("c"));
        assert_eq!(q2.pop(), None, "closed and drained");
        assert!(!q2.push("d".into()), "push after close is refused");
    }
}
