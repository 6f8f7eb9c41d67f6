//! The traced run's spans.
//!
//! All spans are recorded from the benchmark's own files, around calls
//! into a layer: a root `request` span per page on the client
//! ([`crate::drive::Sample`]) and one `core.try_serve` child span per
//! intercepted query, from a [`QueryInterceptor`] that wraps CacheGenie's.
//! Spans go to per-thread in-memory buffers and are read once the run
//! has ended.
//!
//! Recording is switched on and off every few dozen requests while the
//! traced run goes on, so the same run, on the same deployment, minutes
//! apart from nothing, yields the cost of tracing: the median page latency
//! of the unrecorded windows against that of the recorded ones. (Comparing the traced
//! run with the untraced one, two seconds of wall time each, measured the
//! host: the ratio came out anywhere between 0.68 and 1.24.)

use crate::drive::Sample;
use crate::stats::{percentile, ratio};
use cachegenie_repro::genie::CacheGenie;
use cachegenie_repro::orm::{InterceptOutcome, QueryInterceptor};
use cachegenie_repro::social::AppEnv;
use cachegenie_repro::storage::{QueryResult, Select, Value};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What CacheGenie did with one intercepted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Answered from the cache.
    Hit,
    /// Cacheable but absent: CacheGenie read the database and filled the
    /// cache inside `try_serve` (its `fill` hook is a no-op), so the span
    /// contains the fill's database read.
    Miss,
    /// Not a cached-object query; the session runs it against the
    /// database after `try_serve` returns.
    Pass,
}

/// One `core.try_serve` span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Outcome tag.
    pub served: Served,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// Buffers a thread may claim. The server runs 2 workers; the rest is
/// slack for whichever other threads call through the session.
const SLOTS: usize = 16;

thread_local! {
    static SLOT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Span sink shared by the wrapping interceptor and the report.
pub struct Tracer {
    /// Time zero of every span and every client sample of the run.
    pub origin: Instant,
    /// Spans are recorded while this is set. A statistic switch: it
    /// publishes no other data, so relaxed accesses suffice.
    recording: AtomicBool,
    /// When [`Tracer::flip`] was called, ns since `origin`; recording is
    /// on between an even-indexed flip and the next.
    flips: Mutex<Vec<u64>>,
    next_slot: AtomicUsize,
    /// One buffer per recording thread; a thread only ever locks its own,
    /// so the lock is uncontended until the report drains them.
    slots: Vec<Mutex<Vec<Span>>>,
}

struct TracingInterceptor {
    inner: CacheGenie,
    tracer: Arc<Tracer>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            origin: Instant::now(),
            recording: AtomicBool::new(false),
            flips: Mutex::new(Vec::new()),
            next_slot: AtomicUsize::new(0),
            slots: (0..SLOTS).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    /// Replaces the deployment's interceptor (CacheGenie) with one that
    /// times every `try_serve` and delegates to it. Sessions cloned from
    /// `env.app` — the server's pool — share the replacement.
    pub fn install(self: &Arc<Tracer>, env: &AppEnv) {
        env.app
            .session()
            .set_interceptor(Arc::new(TracingInterceptor {
                inner: env.genie.clone(),
                tracer: Arc::clone(self),
            }));
    }

    /// Switches recording (off at first) and notes when.
    pub fn flip(&self) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.recording.fetch_xor(true, Ordering::Relaxed);
        self.flips
            .lock()
            .expect("flip list mutex poisoned")
            .push(now);
    }

    /// The windows between consecutive flips: `(start, end, recorded)`.
    pub fn windows(&self) -> Vec<(u64, u64, bool)> {
        let flips = self.flips.lock().expect("flip list mutex poisoned");
        flips
            .windows(2)
            .enumerate()
            .map(|(i, w)| (w[0], w[1], i % 2 == 0))
            .collect()
    }

    fn record(&self, span: Span) {
        let slot = SLOT.with(|s| {
            s.get().unwrap_or_else(|| {
                let i = self.next_slot.fetch_add(1, Ordering::Relaxed) % SLOTS;
                s.set(Some(i));
                i
            })
        });
        self.slots[slot]
            .lock()
            .expect("span buffer mutex poisoned by a panicking recorder")
            .push(span);
    }

    /// Takes every thread's spans, each buffer in recording order.
    pub fn drain(&self) -> Vec<Vec<Span>> {
        self.slots
            .iter()
            .map(|s| std::mem::take(&mut *s.lock().expect("span buffer mutex poisoned")))
            .filter(|v| !v.is_empty())
            .collect()
    }
}

impl QueryInterceptor for TracingInterceptor {
    fn try_serve(&self, select: &Select, params: &[Value]) -> InterceptOutcome {
        if !self.tracer.recording.load(Ordering::Relaxed) {
            return self.inner.try_serve(select, params);
        }
        let start_ns = self.tracer.origin.elapsed().as_nanos() as u64;
        let outcome = self.inner.try_serve(select, params);
        let end_ns = self.tracer.origin.elapsed().as_nanos() as u64;
        let served = match &outcome {
            InterceptOutcome::Served {
                from_cache: true, ..
            } => Served::Hit,
            InterceptOutcome::Served { .. } | InterceptOutcome::Miss { .. } => Served::Miss,
            InterceptOutcome::Pass => Served::Pass,
        };
        self.tracer.record(Span {
            served,
            start_ns,
            end_ns,
        });
        outcome
    }

    fn fill(&self, fill_key: &str, result: &QueryResult) -> u64 {
        self.inner.fill(fill_key, result)
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children are clipped to the parent and may
/// overlap each other; overlapping coverage counts once.
pub fn self_time_ns(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(p0), e.min(p1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = p0;
    for (s, e) in clipped {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    p1.saturating_sub(p0) - covered
}

/// Splits one client's samples by the window that holds them whole:
/// `(recorded, unrecorded)`. A request that straddles a flip is in neither.
pub fn split(samples: &[Sample], windows: &[(u64, u64, bool)]) -> (Vec<Sample>, Vec<Sample>) {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for s in samples {
        let i = windows.partition_point(|w| w.1 <= s.start_ns);
        if let Some(&(start, end, recorded)) = windows.get(i) {
            if start <= s.start_ns && s.end_ns <= end {
                if recorded { &mut on } else { &mut off }.push(*s);
            }
        }
    }
    (on, off)
}

/// What recording costs: the median latency of the OK pages wholly inside
/// unrecorded windows ÷ that of the pages inside recorded ones (1.0 = free,
/// 0.9 = pages take a ninth longer). Medians, because a few
/// many-millisecond pages falling on one side move a mean — or a pages per
/// second figure — by tens of percent on the smaller workloads.
pub fn overhead_ratio(clients: &[&[Sample]], windows: &[(u64, u64, bool)]) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for samples in clients {
        let (recorded, unrecorded) = split(samples, windows);
        on.extend(
            recorded
                .iter()
                .filter(|s| s.ok)
                .map(|s| s.end_ns - s.start_ns),
        );
        off.extend(
            unrecorded
                .iter()
                .filter(|s| s.ok)
                .map(|s| s.end_ns - s.start_ns),
        );
    }
    on.sort_unstable();
    off.sort_unstable();
    let median = |v: &[u64]| percentile(v, 50.0).unwrap_or(0) as f64;
    ratio(median(&off), median(&on))
}

/// Per-page means over the traced run's requests.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Attribution {
    /// Requests that had spans attributed.
    pub requests: u64,
    /// Spans outside every attributed request (those of requests that
    /// straddle a switch of the recording).
    pub orphan_spans: u64,
    /// Mean Σ hit-span time per page, µs.
    pub hit_us: f64,
    /// Mean Σ miss-span time per page, µs.
    pub miss_us: f64,
    /// Mean pass-through queries per page.
    pub pass_count: f64,
    /// Mean request self time per page, µs: the request window minus
    /// every `try_serve` span inside it.
    pub self_us: f64,
}

/// True when a request boundary of `samples` (ascending, disjoint) falls
/// strictly inside `span`.
fn cuts(samples: &[Sample], span: &Span) -> bool {
    let i = samples.partition_point(|s| s.end_ns <= span.start_ns);
    samples.get(i).is_some_and(|s| {
        s.end_ns < span.end_ns || (span.start_ns < s.start_ns && s.start_ns < span.end_ns)
    })
}

/// The client a worker thread served. A server worker serves one
/// connection at a time and each client keeps one connection, so all of a
/// worker's spans belong to one client — the one none of whose request
/// boundaries cut through a span: the worker handles a request strictly
/// between that client's send and receive. Another client's requests run
/// unsynchronized, so their boundaries cut through some of the spans.
fn owner_of(spans: &[Span], clients: &[&[Sample]]) -> Option<usize> {
    (0..clients.len()).min_by_key(|&c| spans.iter().filter(|sp| cuts(clients[c], sp)).count())
}

/// Attributes each worker thread's spans to the request of its client
/// whose window contains them, over the requests that lie wholly inside a
/// recorded window.
pub fn attribute(
    threads: &[Vec<Span>],
    clients: &[&[Sample]],
    windows: &[(u64, u64, bool)],
) -> Attribution {
    let mut out = Attribution::default();
    let (mut hit_ns, mut miss_ns, mut passes, mut self_ns) = (0u64, 0u64, 0u64, 0u64);
    for spans in threads {
        let Some(owner) = owner_of(spans, clients) else {
            continue;
        };
        let samples = split(clients[owner], windows).0;
        let mut next = 0;
        for sample in &samples {
            while next < spans.len() && spans[next].start_ns < sample.start_ns {
                out.orphan_spans += 1;
                next += 1;
            }
            let first = next;
            while next < spans.len() && spans[next].end_ns <= sample.end_ns {
                next += 1;
            }
            let children: Vec<(u64, u64)> = spans[first..next]
                .iter()
                .map(|sp| (sp.start_ns, sp.end_ns))
                .collect();
            for sp in &spans[first..next] {
                match sp.served {
                    Served::Hit => hit_ns += sp.end_ns - sp.start_ns,
                    Served::Miss => miss_ns += sp.end_ns - sp.start_ns,
                    Served::Pass => passes += 1,
                }
            }
            self_ns += self_time_ns((sample.start_ns, sample.end_ns), &children);
            out.requests += 1;
        }
        out.orphan_spans += (spans.len() - next) as u64;
    }
    let n = out.requests.max(1) as f64;
    out.hit_us = hit_ns as f64 / n / 1e3;
    out.miss_us = miss_ns as f64 / n / 1e3;
    out.pass_count = passes as f64 / n;
    out.self_us = self_ns as f64 / n / 1e3;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        // No children: the whole span.
        assert_eq!(self_time_ns((100, 200), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time_ns((100, 200), &[(110, 120), (150, 180)]), 60);
        // Overlapping children cover their union.
        assert_eq!(self_time_ns((100, 200), &[(110, 150), (140, 160)]), 50);
        // Nested child adds nothing.
        assert_eq!(self_time_ns((100, 200), &[(110, 190), (120, 130)]), 20);
        // Children are clipped to the parent; outside ones are ignored.
        assert_eq!(self_time_ns((100, 200), &[(50, 120), (190, 400)]), 70);
        assert_eq!(self_time_ns((100, 200), &[(0, 50), (300, 400)]), 100);
        // Fully covered.
        assert_eq!(self_time_ns((100, 200), &[(0, 400)]), 0);
        // Order does not matter.
        assert_eq!(self_time_ns((100, 200), &[(150, 180), (110, 120)]), 60);
    }

    fn sample(start_ns: u64, end_ns: u64) -> Sample {
        Sample {
            start_ns,
            end_ns,
            write: false,
            ok: true,
        }
    }

    fn span(served: Served, start_ns: u64, end_ns: u64) -> Span {
        Span {
            served,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn requests_are_split_by_the_window_that_holds_them_whole() {
        // on [0,100), off [100,200), on [200,300); the run goes on to 400.
        let windows = [(0, 100, true), (100, 200, false), (200, 300, true)];
        let samples = [
            sample(10, 40),   // on
            sample(50, 90),   // on
            sample(95, 120),  // straddles a flip
            sample(130, 190), // off
            sample(195, 205), // straddles
            sample(210, 290), // on
            sample(310, 350), // after the last flip
        ];
        let (on, off) = split(&samples, &windows);
        assert_eq!(on.len(), 3);
        assert_eq!(off.len(), 1);
        // Median latency 60 unrecorded against 40 recorded.
        let ratio = overhead_ratio(&[&samples], &windows);
        assert!((ratio - 1.5).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn spans_land_on_the_request_whose_window_holds_them() {
        let a = [sample(1_000, 11_000), sample(12_000, 22_000)];
        let b = [sample(1_500, 5_500), sample(10_500, 11_900)];
        // Both workers' spans sit inside windows of either client most of
        // the time; one span of each is cut by a boundary of the client it
        // does not serve (`b`'s first response at 5_500, `a`'s at 11_000).
        let worker_a = vec![
            span(Served::Pass, 100, 200), // before any request: orphan
            span(Served::Hit, 2_000, 4_000),
            span(Served::Pass, 5_400, 5_600),
            span(Served::Miss, 13_000, 19_000),
        ];
        let worker_b = vec![
            span(Served::Hit, 2_000, 3_000),
            span(Served::Pass, 10_900, 11_100),
        ];
        let got = attribute(&[worker_b, worker_a], &[&a, &b], &[(0, 30_000, true)]);
        assert_eq!(got.requests, 4);
        assert_eq!(got.orphan_spans, 1);
        assert!((got.hit_us - 3.0 / 4.0).abs() < 1e-9);
        assert!((got.miss_us - 6.0 / 4.0).abs() < 1e-9);
        assert!((got.pass_count - 2.0 / 4.0).abs() < 1e-9);
        // Self: a = (10_000 - 2_000 - 200) + (10_000 - 6_000),
        //       b = (4_000 - 1_000) + (1_400 - 200).
        assert!((got.self_us - 16.0 / 4.0).abs() < 1e-9);

        // Only requests wholly inside a recorded window are attributed:
        // `a[1]` lies in the unrecorded window and `b[1]` straddles the
        // switch at 11_500, so its span is left over.
        let windows = [(0, 11_500, true), (11_500, 30_000, false)];
        let worker_a = vec![
            span(Served::Hit, 2_000, 4_000),
            span(Served::Pass, 5_400, 5_600),
        ];
        let worker_b = vec![
            span(Served::Hit, 2_000, 3_000),
            span(Served::Pass, 10_900, 11_100),
        ];
        let got = attribute(&[worker_b, worker_a], &[&a, &b], &windows);
        assert_eq!(got.orphan_spans, 1);
        assert_eq!(got.requests, 2); // a[0] and b[0]
    }
}
