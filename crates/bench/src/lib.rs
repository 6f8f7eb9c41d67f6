//! # genie-bench
//!
//! Shared plumbing for the experiment binaries that regenerate every
//! table and figure of the CacheGenie paper (see `src/bin/`), plus
//! Criterion micro-benchmarks of the substrate crates (`benches/`).
//!
//! Run everything with `cargo run --release -p genie-bench --bin run_all`.

use genie_social::SeedConfig;
use genie_workload::{CacheMode, RunResult, WorkloadConfig};
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// The reproduction's standard scale: the paper's 1 M-user / 10 GB / 2 GB
/// testbed shrunk ~2500× with the buffer-pool : dataset ratio preserved,
/// so the DB still cannot hold the working set in memory.
pub fn paper_scale() -> WorkloadConfig {
    WorkloadConfig {
        mode: CacheMode::Update,
        clients: 15,
        sessions_per_client: 12,
        warmup_sessions_per_client: 8,
        pages_per_session: 10,
        mix: Default::default(),
        zipf_a: 2.0,
        seed: SeedConfig {
            users: 400,
            unique_bookmarks: 150,
            // The paper's per-user ranges: 1-20 bookmark instances,
            // 1-50 friends, 1-100 pending invitations (scaled ~2x down).
            max_instances_per_user: 15,
            max_friends: 32,
            max_pending_invitations: 20,
            groups: 25,
            max_groups_per_user: 3,
            max_wall_posts_per_user: 10,
            rng_seed: 42,
        },
        db_buffer_pool_bytes: 2 * 1024 * 1024,
        cache_bytes: 8 * 1024 * 1024,
        cache_servers: 1,
        colocated_cache: false,
        triggers_enabled: true,
        bump_lru_on_trigger: true,
        reuse_trigger_connections: false,
        batch_posts_per_txn: 4,
        batch_abort_pct: 25,
        cost: Default::default(),
        rng_seed: 1,
    }
}

/// A quick scale for CI / smoke runs (`--quick` on every binary).
pub fn quick_scale() -> WorkloadConfig {
    WorkloadConfig {
        sessions_per_client: 6,
        warmup_sessions_per_client: 2,
        seed: SeedConfig {
            users: 120,
            unique_bookmarks: 60,
            ..paper_scale().seed
        },
        db_buffer_pool_bytes: 256 * 1024,
        ..paper_scale()
    }
}

/// Picks the scale from argv (`--quick` anywhere selects the small one).
pub fn scale_from_args() -> WorkloadConfig {
    if std::env::args().any(|a| a == "--quick") {
        quick_scale()
    } else {
        paper_scale()
    }
}

/// All three systems compared throughout §5.4.
pub const MODES: [CacheMode; 3] = [CacheMode::NoCache, CacheMode::Invalidate, CacheMode::Update];

/// Where experiment outputs are written.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes `content` under `results/<name>` and echoes the path.
pub fn write_result(name: &str, content: &str) {
    let path = results_dir().join(name);
    if let Err(e) = fs::write(&path, content) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("  wrote {}", path.display());
    }
}

/// The epilogue of a gated binary: with no `failures`, prints
/// `{label}: {ok}`; otherwise prints `{label}: N {noun}(s):` and one line
/// per failure to stderr, then exits with status 1 when `fatal` (the
/// `--check` runs).
pub fn finish_checks(label: &str, ok: &str, noun: &str, failures: &[String], fatal: bool) {
    if failures.is_empty() {
        println!("\n{label}: {ok}");
        return;
    }
    eprintln!("\n{label}: {} {noun}(s):", failures.len());
    for f in failures {
        eprintln!("  {f}");
    }
    if fatal {
        std::process::exit(1);
    }
}

/// Machine-readable benchmark summary: a flat, ordered JSON object
/// written as `results/BENCH_<name>.json` next to the human-readable
/// output. Built field by field so every experiment binary emits the
/// same shape without a serialization dependency:
///
/// ```no_run
/// genie_bench::BenchJson::new("exp_demo")
///     .int("threads", 8)
///     .num("throughput_txns_per_sec", 1234.5)
///     .nums("speedups", &[1.0, 1.9, 3.7])
///     .write();
/// ```
#[derive(Debug)]
pub struct BenchJson {
    name: String,
    fields: Vec<(String, String)>,
}

impl BenchJson {
    /// Starts a summary for the experiment called `name`.
    pub fn new(name: &str) -> Self {
        BenchJson {
            name: name.to_owned(),
            fields: vec![("experiment".to_owned(), json_str(name))],
        }
    }

    fn push(mut self, key: &str, value: String) -> Self {
        self.fields.push((key.to_owned(), value));
        self
    }

    /// Adds an integer field.
    #[must_use]
    pub fn int(self, key: &str, v: u64) -> Self {
        self.push(key, v.to_string())
    }

    /// Adds a float field (non-finite values become `null`).
    #[must_use]
    pub fn num(self, key: &str, v: f64) -> Self {
        self.push(key, json_num(v))
    }

    /// Adds a string field.
    #[must_use]
    pub fn str_field(self, key: &str, v: &str) -> Self {
        self.push(key, json_str(v))
    }

    /// Adds an integer-array field (e.g. the swept thread counts).
    #[must_use]
    pub fn ints(self, key: &str, vs: &[u64]) -> Self {
        let items: Vec<String> = vs.iter().map(u64::to_string).collect();
        self.push(key, format!("[{}]", items.join(",")))
    }

    /// Adds a float-array field (e.g. per-thread-count throughputs).
    #[must_use]
    pub fn nums(self, key: &str, vs: &[f64]) -> Self {
        let items: Vec<String> = vs.iter().map(|v| json_num(*v)).collect();
        self.push(key, format!("[{}]", items.join(",")))
    }

    /// Renders the JSON object (insertion order, two-space indent).
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            let comma = if i + 1 == self.fields.len() { "" } else { "," };
            let _ = writeln!(out, "  {}: {v}{comma}", json_str(k));
        }
        out.push_str("}\n");
        out
    }

    /// Writes `results/BENCH_<name>.json`.
    pub fn write(self) {
        write_result(&format!("BENCH_{}.json", self.name), &self.render());
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A plain-text table builder for experiment output.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(
                    out,
                    "{:>width$}  ",
                    c,
                    width = widths.get(i).copied().unwrap_or(8)
                );
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * ncols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// One row of the standard mode-comparison summaries.
pub fn summarize(r: &RunResult) -> String {
    format!(
        "{:<10}  {:>7.1} pages/s  mean {:>6.3}s  hit {:>5.1}%  bottleneck {} ({:.0}%)",
        r.mode.label(),
        r.throughput_pages_per_sec,
        r.mean_latency_s(),
        r.cache_stats.hit_ratio() * 100.0,
        r.bottleneck().0,
        r.bottleneck().1 * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["clients", "Update", "NoCache"]);
        t.row(vec!["5".into(), "70.1".into(), "30.0".into()]);
        let s = t.render();
        assert!(s.contains("clients"));
        assert!(s.lines().count() >= 3);
        let csv = t.to_csv();
        assert!(csv.starts_with("clients,Update,NoCache\n"));
        assert!(csv.contains("5,70.1,30.0"));
    }

    #[test]
    fn bench_json_renders_flat_object() {
        let j = BenchJson::new("exp_demo")
            .int("threads", 8)
            .num("throughput", 123.5)
            .num("bad", f64::NAN)
            .str_field("mode", "row \"latch\"")
            .ints("sweep", &[1, 2, 4])
            .nums("speedups", &[1.0, 1.9]);
        let s = j.render();
        assert!(s.starts_with("{\n"));
        assert!(s.ends_with("}\n"));
        assert!(s.contains("\"experiment\": \"exp_demo\""));
        assert!(s.contains("\"threads\": 8,"));
        assert!(s.contains("\"throughput\": 123.5,"));
        assert!(s.contains("\"bad\": null,"));
        assert!(s.contains("\"mode\": \"row \\\"latch\\\"\","));
        assert!(s.contains("\"sweep\": [1,2,4],"));
        assert!(s.contains("\"speedups\": [1,1.9]\n"));
    }

    #[test]
    fn scales_are_consistent() {
        let p = paper_scale();
        assert_eq!(p.clients, 15);
        assert!(p.seed.users >= 100);
        let q = quick_scale();
        assert!(q.sessions_per_client < p.sessions_per_client);
    }
}
