//! The closed-loop load generator: two client threads, one connection
//! each, each sending its next request only after the previous response
//! has fully arrived. Closed loop because the callers are a web tier
//! whose workers each wait for their page.

use crate::stats;
use crate::workloads::{is_write, Req};
use cachegenie_repro::server::{Response, ServeClient};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::Instant;

/// Requests of client 0 between two `every_block` calls of [`drive`].
pub const BLOCK: usize = 16;

/// One answered request, timed on the client from just before the send
/// to the full response, in nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Send time.
    pub start_ns: u64,
    /// Response-complete time.
    pub end_ns: u64,
    /// The request was a write page.
    pub write: bool,
    /// The response was `OK`.
    pub ok: bool,
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// One entry per request that got a response, in send order.
    pub samples: Vec<Sample>,
    /// Responses with a non-retryable error code (anything but 409 / 429 /
    /// 503; those only count as failed requests).
    pub fatal: u64,
    /// Requests that ended in a socket error (or were never sent because
    /// the connection could not be re-established).
    pub io_errors: u64,
    /// Σ `queries=` over OK payloads.
    pub queries: u64,
    /// Σ `cache_hits=` over OK payloads.
    pub cache_hits: u64,
    /// Σ `writes=` over OK payloads.
    pub writes: u64,
    /// First non-OK response or socket error, for the report.
    pub first_error: Option<String>,
}

/// The timed section of one run.
#[derive(Debug)]
pub struct Drive {
    /// Per-client logs, in client order.
    pub clients: Vec<ClientLog>,
    /// Requests the streams held.
    pub attempted: u64,
    /// Wall seconds from the start barrier until the last client ended.
    pub wall_s: f64,
    /// Process CPU seconds (user + system) over the same interval.
    pub cpu_s: f64,
}

impl Drive {
    /// Sum of a per-client counter.
    pub fn sum(&self, f: impl Fn(&ClientLog) -> u64) -> u64 {
        self.clients.iter().map(f).sum()
    }

    /// OK pages.
    pub fn ok(&self) -> u64 {
        self.sum(|c| c.samples.iter().filter(|s| s.ok).count() as u64)
    }

    /// OK write pages.
    pub fn ok_writes(&self) -> u64 {
        self.sum(|c| c.samples.iter().filter(|s| s.ok && s.write).count() as u64)
    }

    /// Everything that was not an OK page: error responses (retryable
    /// ones included) and socket errors.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok()
    }

    /// Ascending latencies (ns) of OK pages, optionally write pages only.
    pub fn latencies(&self, writes_only: bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .clients
            .iter()
            .flat_map(|c| &c.samples)
            .filter(|s| s.ok && (s.write || !writes_only))
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Pulls `key=<int>` out of an OK page payload.
fn payload_field(payload: &str, key: &str) -> u64 {
    payload
        .split_ascii_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        .unwrap_or(0)
}

fn run_client(
    addr: SocketAddr,
    client: usize,
    stream: &[Req],
    origin: Instant,
    barrier: &Barrier,
    every_block: &(dyn Fn() + Sync),
) -> ClientLog {
    let lines: Vec<String> = stream.iter().map(Req::line).collect();
    let mut log = ClientLog {
        samples: Vec::with_capacity(stream.len()),
        ..ClientLog::default()
    };
    let connect = || -> std::io::Result<ServeClient> {
        let mut c = ServeClient::connect(addr)?;
        c.hello(&format!("bench-{client}"))?;
        Ok(c)
    };
    let mut conn = connect();
    barrier.wait();
    for (i, (req, line)) in stream.iter().zip(&lines).enumerate() {
        if client == 0 && i % BLOCK == 0 {
            every_block();
        }
        // A connection lost to an earlier error is re-established once
        // per request; a server that stays unreachable fails the rest of
        // the stream without hanging.
        if conn.is_err() {
            conn = connect();
        }
        let start_ns = origin.elapsed().as_nanos() as u64;
        let answer = match &mut conn {
            Ok(c) => c.request_line(line),
            Err(e) => Err(std::io::Error::new(e.kind(), e.to_string())),
        };
        let end_ns = origin.elapsed().as_nanos() as u64;
        match answer {
            Ok(resp) => {
                let ok = matches!(resp, Response::Ok(_));
                log.samples.push(Sample {
                    start_ns,
                    end_ns,
                    write: is_write(req.kind),
                    ok,
                });
                match resp {
                    Response::Ok(payload) => {
                        log.queries += payload_field(&payload, "queries");
                        log.cache_hits += payload_field(&payload, "cache_hits");
                        log.writes += payload_field(&payload, "writes");
                    }
                    Response::Err { code, reason } => {
                        if !cachegenie_repro::server::retryable(code) {
                            log.fatal += 1;
                        }
                        log.first_error
                            .get_or_insert_with(|| format!("{line}: ERR {code} {reason}"));
                    }
                }
            }
            Err(e) => {
                log.io_errors += 1;
                log.first_error
                    .get_or_insert_with(|| format!("{line}: socket error: {e}"));
                conn = Err(e);
            }
        }
    }
    if let Ok(c) = &mut conn {
        let _ = c.quit();
    }
    log
}

/// Runs every client's stream against `addr` and times the whole.
/// Client 0 calls `every_block` before each [`BLOCK`] of its requests (the
/// traced run switches span recording with it).
pub fn drive(
    addr: SocketAddr,
    streams: &[Vec<Req>],
    origin: Instant,
    every_block: &(dyn Fn() + Sync),
) -> Drive {
    let barrier = Barrier::new(streams.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let barrier = &barrier;
                scope.spawn(move || run_client(addr, i, s, origin, barrier, every_block))
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        let cpu0 = stats::process_cpu_seconds().unwrap_or(0.0);
        let clients: Vec<ClientLog> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = stats::process_cpu_seconds().unwrap_or(0.0) - cpu0;
        Drive {
            clients,
            attempted: streams.iter().map(|s| s.len() as u64).sum(),
            wall_s,
            cpu_s,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_fields_parse() {
        let p = "page=lookup_bm user=5 queries=19 cache_hits=10 writes=0\n";
        assert_eq!(payload_field(p, "queries"), 19);
        assert_eq!(payload_field(p, "cache_hits"), 10);
        assert_eq!(payload_field(p, "writes"), 0);
        assert_eq!(payload_field(p, "missing"), 0);
    }
}
