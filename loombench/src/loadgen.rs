//! Open-loop reader load for the serving workload.
//!
//! Each connection sends on a fixed schedule that never waits for
//! replies: a sender thread writes request `i` at its due time (or at
//! once, if it is already late) while a receiver thread reads replies
//! in order. Latency is timed from the due time, so a server stall
//! also charges the requests queued behind it; how late the sender
//! itself ran is recorded separately as a validity check.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The request kinds of the mix, in report order.
pub const KINDS: [&str; 5] = ["STATS", "EPOCH", "PART", "KHOP", "MATCH"];

/// Due times of one connection: `rate` requests per second spread
/// evenly over `conns` connections, connection `conn` shifted by its
/// share of one period so the connections interleave.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    period_ns: u64,
    offset_ns: u64,
}

impl Schedule {
    pub fn new(rate_per_s: f64, conns: usize, conn: usize) -> Schedule {
        assert!(rate_per_s > 0.0 && conn < conns);
        let period_ns = (conns as f64 * 1e9 / rate_per_s).round() as u64;
        Schedule {
            period_ns,
            offset_ns: period_ns * conn as u64 / conns as u64,
        }
    }

    /// When request `i` is due, counted from the start of the load.
    pub fn due(&self, i: u64) -> Duration {
        Duration::from_nanos(self.offset_ns + i * self.period_ns)
    }
}

/// The kind of a request line: its index in [`KINDS`].
pub fn kind_of(line: &str) -> Option<usize> {
    let cmd = line.split_whitespace().next()?;
    KINDS.iter().position(|k| *k == cmd)
}

/// SplitMix64: the benchmark's own deterministic generator.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The order the repository's serving drill rotates the kinds in
/// (`REQUEST_MIX` in `crates/loom-bench/src/serve_bench.rs`), as
/// indices into [`KINDS`]: STATS, EPOCH, KHOP, MATCH, PART.
const ROTATION: [usize; 5] = [0, 1, 3, 4, 2];

/// The request mix of the repository's serving drill: an even rotation
/// of STATS, EPOCH, `KHOP v 2 5000`, `MATCH a-b 500` and `PART v`, each
/// connection one step further along. The drill names fixed vertices
/// and labels; here they are drawn from the seed, so that the requests
/// spread over the graph.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub seed: u64,
    /// Labels are drawn from `0..labels`.
    pub labels: u64,
    /// The engine's publication cadence, in edges.
    pub publish_every: u64,
}

impl Mix {
    /// Request `i` of connection `conn`, sent when the engine has
    /// ingested `ingested` edges. The published view holds at least
    /// `ingested` rounded down to the publication cadence. The vertex
    /// is drawn over that view as the synthetic source draws its
    /// endpoints: a squared uniform variate scaled to the source's
    /// universe (16, plus one every 4 edges), so hubs are asked about
    /// as often as they occur.
    pub fn request(&self, conn: usize, i: u64, ingested: u64) -> String {
        let r = |salt: u64| mix64(self.seed ^ mix64((conn as u64) << 48 ^ i << 4 ^ salt));
        let view_edges = ingested / self.publish_every.max(1) * self.publish_every;
        let universe = 16 + view_edges / 4;
        let u = (r(1) >> 11) as f64 / (1u64 << 53) as f64;
        let v = (u * u * universe as f64) as u64;
        let l = |salt: u64| r(salt) % self.labels.max(1);
        match ROTATION[(conn + i as usize) % ROTATION.len()] {
            0 => "STATS".to_string(),
            1 => "EPOCH".to_string(),
            2 => format!("PART {v}"),
            3 => format!("KHOP {v} 2 5000"),
            _ => format!("MATCH {}-{} 500", l(2), l(3)),
        }
    }
}

/// Starts and stops the load: the ingest side calls [`Gate::open`]
/// once the first view is published and [`Gate::close`] when ingest
/// ends.
#[derive(Default)]
pub struct Gate {
    opened: Mutex<Option<Instant>>,
    cv: Condvar,
    closed: AtomicBool,
}

impl Gate {
    pub fn open(&self) {
        let mut at = self.opened.lock().expect("gate lock");
        if at.is_none() {
            *at = Some(Instant::now());
            self.cv.notify_all();
        }
    }

    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _guard = self.opened.lock().expect("gate lock");
        self.cv.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Block until opened (`Some(start)`) or closed first (`None`).
    fn wait(&self) -> Option<Instant> {
        let mut at = self.opened.lock().expect("gate lock");
        loop {
            if self.is_closed() {
                return None;
            }
            if let Some(t) = *at {
                return Some(t);
            }
            at = self.cv.wait(at).expect("gate lock");
        }
    }
}

/// One request as the client saw it. Times are ns from the load start.
#[derive(Clone, Debug)]
pub struct Record {
    pub line: String,
    pub due_ns: u64,
    pub sent_ns: u64,
    /// Reply time and text; `None` when no reply came.
    pub reply: Option<(u64, String)>,
    /// Edges the engine had ingested when the reply arrived.
    pub ingested_at_reply: u64,
}

impl Record {
    pub fn ok(&self) -> bool {
        self.reply
            .as_ref()
            .is_some_and(|(_, r)| r.starts_with("OK "))
    }

    /// Latency from the due time, in µs (replied requests only).
    pub fn latency_us(&self) -> Option<f64> {
        self.reply
            .as_ref()
            .map(|(t, _)| t.saturating_sub(self.due_ns) as f64 / 1e3)
    }
}

/// How long the receiver waits for outstanding replies after the last
/// request was sent.
const DRAIN: Duration = Duration::from_secs(3);

/// Drive one connection until the gate closes; returns every request
/// sent, in order, with its reply.
pub fn run_connection(
    addr: SocketAddr,
    conn: usize,
    mix: Mix,
    schedule: Schedule,
    gate: &Gate,
    ingested: &AtomicU64,
) -> std::io::Result<Vec<Record>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(20)))?;
    let sent_count = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let start = gate.wait();

    std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut replies: Vec<(u64, String, u64)> = Vec::new();
            let (Some(start), mut r) = (start, BufReader::new(reader)) else {
                return replies;
            };
            let mut line = String::new();
            let mut drain_deadline: Option<Instant> = None;
            loop {
                if sender_done.load(Ordering::SeqCst) {
                    if replies.len() >= sent_count.load(Ordering::SeqCst) {
                        break;
                    }
                    let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                    if Instant::now() > deadline {
                        break;
                    }
                }
                match r.read_line(&mut line) {
                    Ok(0) => break,
                    Ok(_) => {
                        let at = start.elapsed().as_nanos() as u64;
                        let edges = ingested.load(Ordering::SeqCst);
                        replies.push((at, line.trim_end().to_string(), edges));
                        line.clear();
                    }
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                    Err(_) => break,
                }
            }
            replies
        });

        let mut records = Vec::new();
        if let Some(start) = start {
            let mut w = &stream;
            for i in 0u64.. {
                let due = schedule.due(i);
                let now = start.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if gate.is_closed() {
                    break;
                }
                let line = mix.request(conn, i, ingested.load(Ordering::SeqCst));
                let sent_ns = start.elapsed().as_nanos() as u64;
                let ok = w
                    .write_all(line.as_bytes())
                    .and_then(|()| w.write_all(b"\n"));
                records.push(Record {
                    line,
                    due_ns: due.as_nanos() as u64,
                    sent_ns,
                    reply: None,
                    ingested_at_reply: 0,
                });
                sent_count.store(records.len(), Ordering::SeqCst);
                if ok.is_err() {
                    break;
                }
            }
        }
        sender_done.store(true, Ordering::SeqCst);
        let replies = receiver.join().expect("receiver thread panicked");
        for (rec, (at, reply, edges)) in records.iter_mut().zip(replies) {
            rec.reply = Some((at, reply));
            rec.ingested_at_reply = edges;
        }
        Ok(records)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_rate_and_interleaved() {
        let a = Schedule::new(400.0, 2, 0);
        let b = Schedule::new(400.0, 2, 1);
        // 200/s per connection: one request every 5 ms.
        assert_eq!(a.due(0), Duration::ZERO);
        assert_eq!(a.due(1), Duration::from_millis(5));
        assert_eq!(a.due(200), Duration::from_secs(1));
        // The second connection sits half a period later.
        assert_eq!(b.due(0), Duration::from_micros(2_500));
        assert_eq!(b.due(3) - a.due(3), Duration::from_micros(2_500));
        // Merged, the two connections send every 2.5 ms.
        let mut all: Vec<Duration> = (0..100).flat_map(|i| [a.due(i), b.due(i)]).collect();
        all.sort();
        assert!(all
            .windows(2)
            .all(|w| w[1] - w[0] == Duration::from_micros(2_500)));
    }

    #[test]
    fn mix_rotates_evenly_over_the_published_view() {
        let mix = Mix {
            seed: 9,
            labels: 8,
            publish_every: 1024,
        };
        // Each connection walks the drill's rotation, one step apart.
        let kinds = |conn| -> Vec<&str> {
            (0..6)
                .map(|i| KINDS[kind_of(&mix.request(conn, i, 4096)).unwrap()])
                .collect()
        };
        assert_eq!(
            kinds(0),
            ["STATS", "EPOCH", "KHOP", "MATCH", "PART", "STATS"]
        );
        assert_eq!(
            kinds(1),
            ["EPOCH", "KHOP", "MATCH", "PART", "STATS", "EPOCH"]
        );
        assert_eq!(mix.request(0, 2, 4096), mix.request(0, 2, 4096));
        assert_ne!(mix.request(0, 2, 4096), mix.request(0, 7, 4096));
        // Vertices stay inside the source's universe at the edge count
        // of the published view: 2047 edges ingested, 1024 published,
        // 16 + 1024 / 4 = 272 vertices.
        let vertex = |line: String| -> u64 { line.split(' ').nth(1).unwrap().parse().unwrap() };
        let vs: Vec<u64> = (0..5_000)
            .map(|i| 5 * i + 2)
            .map(|i| vertex(mix.request(0, i, 2047)))
            .collect();
        assert!(vs.iter().all(|&v| v < 272));
        assert!(vs.iter().any(|&v| v > 200));
        // Squared uniform: a quarter of the draws land in the lowest
        // 1/16 of the universe.
        let low = vs.iter().filter(|&&v| v < 17).count() as f64 / vs.len() as f64;
        assert!((low - 0.25).abs() < 0.03, "{low}");
        let line = mix.request(0, 3, 4096);
        assert!(
            line.starts_with("MATCH ") && line.ends_with(" 500"),
            "{line}"
        );
    }

    #[test]
    fn sender_keeps_the_schedule_when_replies_stall() {
        // A server that reads requests but never answers: an open loop
        // keeps sending on time, and every request ends up missing.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let gate = Gate::default();
        let ingested = AtomicU64::new(0);
        let mix = Mix {
            seed: 1,
            labels: 4,
            publish_every: 1024,
        };
        let records = std::thread::scope(|s| {
            let server = s.spawn(|| {
                let (mut conn, _) = listener.accept().unwrap();
                let mut sink = Vec::new();
                let _ = std::io::Read::read_to_end(&mut conn, &mut sink);
            });
            let client = s.spawn(|| {
                run_connection(addr, 0, mix, Schedule::new(500.0, 1, 0), &gate, &ingested)
            });
            gate.open();
            std::thread::sleep(Duration::from_millis(200));
            gate.close();
            let records = client.join().unwrap().unwrap();
            server.join().unwrap();
            records
        });
        // ~100 requests due in 200 ms at 500/s, none answered.
        assert!((80..=110).contains(&records.len()), "{}", records.len());
        assert!(records.iter().all(|r| r.reply.is_none()));
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.due_ns, 2_000_000 * i as u64);
            assert!(r.sent_ns >= r.due_ns);
        }
    }
}
