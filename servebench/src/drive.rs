//! Closed-loop clients: each connection sends its next request only after
//! the previous reply has fully arrived.

use crate::http::{request_bytes, Conn, Reply};
use crate::spans::now;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// One request and its outcome.
pub struct Exchange {
    /// Index into the bodies the pass sent.
    pub entry: usize,
    pub conn: usize,
    /// Just before the request's first byte was written.
    pub sent: Instant,
    pub reply: Result<Reply, String>,
}

impl Exchange {
    /// The id of this request among all of a pass's requests.
    pub fn request_id(&self, connections: usize) -> u64 {
        (self.entry * connections + self.conn) as u64
    }

    /// The reply, when it is a complete 200.
    pub fn ok(&self) -> Option<&Reply> {
        self.reply.as_ref().ok().filter(|r| r.status == 200)
    }
}

pub struct Pass {
    pub exchanges: Vec<Exchange>,
    pub start: Instant,
    pub end: Instant,
    /// Entries left unsent because the pass hit its deadline.
    pub unsent: usize,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// The trace id a traced pass sends for `entry` on `conn`.
pub fn trace_id(prefix: &str, entry: usize, conn: usize) -> String {
    format!("{prefix}-{entry}-{conn}")
}

/// Sends `bodies[entries]` in order on each of `connections` fresh
/// keep-alive connections. With more than one connection, all of them start
/// each entry together. No new entry starts after `deadline`.
pub fn run(
    addr: SocketAddr,
    path: &str,
    bodies: &[String],
    entries: Range<usize>,
    connections: usize,
    trace_prefix: Option<&str>,
    deadline: Instant,
) -> Pass {
    let barrier = Barrier::new(connections);
    let go = AtomicBool::new(true);
    let exchanges = Mutex::new(Vec::with_capacity(entries.len() * connections));
    let unsent = Mutex::new(0);
    let start = now();
    std::thread::scope(|scope| {
        for conn in 0..connections {
            let (barrier, go, exchanges, unsent) = (&barrier, &go, &exchanges, &unsent);
            let entries = entries.clone();
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(entries.len());
                let mut link: Option<Conn> = None;
                let last = entries.end;
                for entry in entries {
                    let body = &bodies[entry];
                    // The leader decides whether this entry starts; the second
                    // wait publishes the decision to every connection.
                    if barrier.wait().is_leader() {
                        go.store(now() < deadline, Ordering::SeqCst);
                    }
                    barrier.wait();
                    if !go.load(Ordering::SeqCst) {
                        *unsent.lock().expect("no client panics") += last - entry;
                        break;
                    }
                    let id = trace_prefix.map(|p| trace_id(p, entry, conn));
                    let request = request_bytes("POST", path, body, id.as_deref());
                    let sent = now();
                    let reply = match link.as_mut() {
                        Some(c) => c.exchange(&request),
                        None => Conn::open(addr).and_then(|mut c| {
                            let r = c.exchange(&request);
                            link = Some(c);
                            r
                        }),
                    };
                    if reply.is_err() {
                        link = None; // framing is lost; reconnect for the next entry
                    }
                    mine.push(Exchange {
                        entry,
                        conn,
                        sent,
                        reply: reply.map_err(|e| e.to_string()),
                    });
                }
                exchanges.lock().expect("no client panics").extend(mine);
            });
        }
    });
    let mut exchanges = exchanges.into_inner().expect("no client panics");
    exchanges.sort_by_key(|x| (x.entry, x.conn));
    let end = exchanges
        .iter()
        .map(|x| x.reply.as_ref().map_or(x.sent, |r| r.done))
        .max()
        .unwrap_or(start);
    Pass {
        exchanges,
        start,
        end,
        unsent: unsent.into_inner().expect("no client panics"),
    }
}
