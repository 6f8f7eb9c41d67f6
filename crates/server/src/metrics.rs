//! Per-request metrics: lock-free latency histograms per page kind and
//! status-code counters, with a text exposition for the `METRICS`
//! endpoint.
//!
//! The histogram is log-bucketed (8 buckets per octave, 1 µs to ~2
//! minutes), so recording is one atomic increment on the request path
//! and percentile reads are a bucket walk — no sample retention, no
//! locks, any thread can record while another renders.

use crate::proto::Page;
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per latency octave (power of two).
const SUB: usize = 8;
/// Total histogram buckets: 27 octaves above 1 µs reaches ~134 s.
const BUCKETS: usize = 27 * SUB;

/// Status codes tracked by the per-status counters, in render order.
pub const STATUS_CODES: [u16; 9] = [200, 400, 404, 408, 409, 413, 429, 500, 503];

fn status_index(code: u16) -> usize {
    STATUS_CODES
        .iter()
        .position(|&c| c == code)
        .unwrap_or(STATUS_CODES.len() - 1)
}

/// A fixed log-bucketed latency histogram. Records are nanoseconds;
/// percentile reads return seconds (bucket upper bound, so quantiles
/// are conservative: reported ≥ true value, error bounded by the ~9%
/// bucket width).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

fn bucket_of(nanos: u64) -> usize {
    let micros = (nanos / 1_000).max(1);
    let idx = (SUB as f64 * (micros as f64).log2()).floor() as isize;
    idx.clamp(0, BUCKETS as isize - 1) as usize
}

fn bucket_upper_secs(idx: usize) -> f64 {
    // Upper bound of bucket `idx` in seconds: 1 µs * 2^((idx+1)/SUB).
    1e-6 * ((idx + 1) as f64 / SUB as f64).exp2()
}

impl LatencyHistogram {
    /// Records one latency observation.
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in seconds (0.0 when empty).
    pub fn mean_s(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_nanos.load(Ordering::Relaxed) as f64 / n as f64 / 1e9
        }
    }

    /// Largest recorded latency in seconds.
    pub fn max_s(&self) -> f64 {
        self.max_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// The `p`-th percentile (0–100) in seconds, 0.0 when empty.
    /// Nearest-rank over the bucket counts; returns the matched
    /// bucket's upper bound.
    pub fn percentile_s(&self, p: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * total as f64)
            .ceil()
            .max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper_secs(i);
            }
        }
        bucket_upper_secs(BUCKETS - 1)
    }
}

/// One page kind's rendered summary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PageSummary {
    /// Requests measured.
    pub count: u64,
    /// Mean latency, seconds.
    pub mean_s: f64,
    /// Median, seconds.
    pub p50_s: f64,
    /// 99th percentile, seconds.
    pub p99_s: f64,
    /// 99.9th percentile, seconds.
    pub p999_s: f64,
    /// Maximum, seconds.
    pub max_s: f64,
}

/// All server-side counters, shared across workers.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    per_page: [LatencyHistogram; 11],
    status: [AtomicU64; 9],
    /// Connections the acceptor handed to workers.
    pub connections_accepted: AtomicU64,
    /// Connections refused because the admission queue was full.
    pub connections_shed: AtomicU64,
    /// Connections refused because the server was draining.
    pub connections_drained: AtomicU64,
    /// Requests parsed (any outcome).
    pub requests_total: AtomicU64,
    /// Page requests refused by in-flight admission control.
    pub requests_shed: AtomicU64,
    /// Page requests refused by the rate limiter.
    pub rate_limited: AtomicU64,
    /// Request lines that timed out mid-frame (slow loris).
    pub read_timeouts: AtomicU64,
    /// In-flight requests completed after draining began.
    pub drained_in_flight: AtomicU64,
    /// `snapshot` pages whose repeat-read disagreed (must stay 0).
    pub snapshot_violations: AtomicU64,
    /// Page requests whose execution panicked (answered `ERR 500`).
    pub requests_panicked: AtomicU64,
}

impl ServerMetrics {
    /// Records one completed page request.
    pub fn record_page(&self, page: Page, nanos: u64) {
        self.per_page[page.index()].record(nanos);
    }

    /// Counts one response by status code.
    pub fn record_status(&self, code: u16) {
        self.status[status_index(code)].fetch_add(1, Ordering::Relaxed);
    }

    /// Responses recorded with `code`.
    pub fn status_count(&self, code: u16) -> u64 {
        self.status[status_index(code)].load(Ordering::Relaxed)
    }

    /// The latency histogram for one page kind.
    pub fn page_hist(&self, page: Page) -> &LatencyHistogram {
        &self.per_page[page.index()]
    }

    /// Summarizes one page kind.
    pub fn page_summary(&self, page: Page) -> PageSummary {
        let h = self.page_hist(page);
        PageSummary {
            count: h.count(),
            mean_s: h.mean_s(),
            p50_s: h.percentile_s(50.0),
            p99_s: h.percentile_s(99.0),
            p999_s: h.percentile_s(99.9),
            max_s: h.max_s(),
        }
    }

    /// Renders the text exposition served by `METRICS` (Prometheus-like
    /// line format: `name{label="v"} value`).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for code in STATUS_CODES {
            let n = self.status_count(code);
            if n > 0 || code == 200 {
                let _ = writeln!(out, "serve_responses_total{{code=\"{code}\"}} {n}");
            }
        }
        let counters = [
            (
                "serve_connections_accepted",
                self.connections_accepted.load(Ordering::Relaxed),
            ),
            (
                "serve_connections_shed",
                self.connections_shed.load(Ordering::Relaxed),
            ),
            (
                "serve_connections_drained",
                self.connections_drained.load(Ordering::Relaxed),
            ),
            (
                "serve_requests_total",
                self.requests_total.load(Ordering::Relaxed),
            ),
            (
                "serve_requests_shed",
                self.requests_shed.load(Ordering::Relaxed),
            ),
            (
                "serve_rate_limited",
                self.rate_limited.load(Ordering::Relaxed),
            ),
            (
                "serve_read_timeouts",
                self.read_timeouts.load(Ordering::Relaxed),
            ),
            (
                "serve_drained_in_flight",
                self.drained_in_flight.load(Ordering::Relaxed),
            ),
            (
                "serve_snapshot_violations",
                self.snapshot_violations.load(Ordering::Relaxed),
            ),
            (
                "serve_requests_panicked",
                self.requests_panicked.load(Ordering::Relaxed),
            ),
        ];
        for (name, v) in counters {
            let _ = writeln!(out, "{name} {v}");
        }
        for page in Page::all() {
            let s = self.page_summary(page);
            if s.count == 0 {
                continue;
            }
            let name = page.name();
            let _ = writeln!(out, "serve_page_requests{{page=\"{name}\"}} {}", s.count);
            for (q, v) in [("0.5", s.p50_s), ("0.99", s.p99_s), ("0.999", s.p999_s)] {
                let _ = writeln!(
                    out,
                    "serve_page_latency_seconds{{page=\"{name}\",quantile=\"{q}\"}} {v:.6}"
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile_s(99.0), 0.0);
        assert_eq!(h.mean_s(), 0.0);
    }

    #[test]
    fn percentiles_are_conservative_and_ordered() {
        let h = LatencyHistogram::default();
        // 10000 samples at 1 ms, 10 at 100 ms, 1 at 1 s: p99 stays in
        // the 1 ms bucket (rank 9911 of 10011), p999 crosses into the
        // 100 ms bucket (rank 10001), p100 reaches the 1 s outlier.
        for _ in 0..10_000 {
            h.record(1_000_000);
        }
        for _ in 0..10 {
            h.record(100_000_000);
        }
        h.record(1_000_000_000);
        let p50 = h.percentile_s(50.0);
        let p99 = h.percentile_s(99.0);
        let p999 = h.percentile_s(99.9);
        let p100 = h.percentile_s(100.0);
        assert!((0.001..0.0012).contains(&p50), "p50={p50}");
        assert!((0.001..=0.0012).contains(&p99), "p99={p99}");
        assert!((0.1..0.12).contains(&p999), "p999={p999}");
        assert!((1.0..1.2).contains(&p100), "p100={p100}");
        assert!(p50 <= p99 && p99 <= p999 && p999 <= p100);
        assert!((h.max_s() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_mapping_is_monotone() {
        let mut last = 0;
        for ns in [
            1u64,
            999,
            1_000,
            1_100,
            10_000,
            1_000_000,
            1 << 40,
            u64::MAX,
        ] {
            let b = bucket_of(ns);
            assert!(b >= last, "bucket({ns}) regressed");
            assert!(b < BUCKETS);
            last = b;
        }
    }

    #[test]
    fn metrics_render_includes_pages_and_statuses() {
        let m = ServerMetrics::default();
        m.record_page(Page::LookupBM, 2_000_000);
        m.record_status(200);
        m.record_status(429);
        m.requests_total.fetch_add(2, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("serve_responses_total{code=\"200\"} 1"));
        assert!(text.contains("serve_responses_total{code=\"429\"} 1"));
        assert!(text.contains("serve_page_requests{page=\"lookup_bm\"} 1"));
        assert!(text.contains("quantile=\"0.999\""));
        assert!(text.contains("serve_requests_total 2"));
        let s = m.page_summary(Page::LookupBM);
        assert_eq!(s.count, 1);
        assert!(s.p99_s > 0.0);
    }

    #[test]
    fn unknown_status_folds_into_last_bucket() {
        let m = ServerMetrics::default();
        m.record_status(599);
        assert_eq!(m.status_count(503), 1);
    }
}
