//! Parallel scan experiment: the vectorized scan under a worker-count
//! sweep (morsel-driven parallelism).
//!
//! Builds one wide table (large enough to clear the engine's parallel
//! morsel threshold), then times the same scan-heavy query pair — a
//! predicated `COUNT(*)` (the count-pushdown path) and a filtered
//! `ORDER BY ... LIMIT` top-k (the per-worker partial-merge path) —
//! with 1, 2 and 4 scan workers.
//!
//! `--check` turns the report into a CI gate: 4 workers must not be
//! slower than 1. The gate is skipped when the host lacks 4 hardware
//! threads, since a morsel scheduler cannot beat the clock on cores it
//! does not have. (That the worker counts return identical rows is
//! tier-1's job: `crates/storage/tests/parallel_scan.rs`.)
//!
//! ```text
//! cargo run --release -p genie-bench --bin exp_parallel_scan
//! cargo run --release -p genie-bench --bin exp_parallel_scan -- --check --quick
//! ```

use genie_bench::{write_result, BenchJson, TextTable};
use genie_storage::{Database, DbConfig, Value};
use std::time::Instant;

fn arg_after(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Seeds `rows` rows of `scan_t` in bulk transactions. Column values
/// come from a tiny deterministic LCG so selectivities are stable
/// across runs without an RNG dependency.
fn build_db(rows: i64) -> Database {
    let db = Database::new(DbConfig {
        buffer_pool_bytes: 8 * 1024 * 1024,
    });
    db.execute_sql(
        "CREATE TABLE scan_t (id INT PRIMARY KEY, grp INT NOT NULL, val INT NOT NULL)",
        &[],
    )
    .expect("create scan_t");
    let mut state: i64 = 88172645463325252;
    let mut next = || {
        // xorshift: cheap, deterministic, well-spread.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.rem_euclid(1_000_000)
    };
    let mut id = 1;
    while id <= rows {
        db.execute_sql("BEGIN", &[]).expect("begin");
        let end = (id + 1999).min(rows);
        while id <= end {
            db.execute_sql(
                "INSERT INTO scan_t (id, grp, val) VALUES ($1, $2, $3)",
                &[Value::Int(id), Value::Int(next() % 100), Value::Int(next())],
            )
            .expect("insert");
            id += 1;
        }
        db.execute_sql("COMMIT", &[]).expect("commit");
    }
    db
}

/// Runs the scan pair `reps` times and returns scanned rows per second.
/// The `COUNT(*)` answer is cross-checked against the first measurement
/// so a broken scan path cannot masquerade as a fast one.
fn measure(db: &Database, rows: i64, reps: usize, expect_count: &mut Option<i64>) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        let count = db
            .execute_sql(
                "SELECT COUNT(*) FROM scan_t WHERE val < $1",
                &[Value::Int(500_000)],
            )
            .expect("count scan");
        let got = match count.result.rows[0].get(0) {
            Value::Int(n) => *n,
            v => panic!("COUNT(*) returned {v:?}"),
        };
        match expect_count {
            Some(e) => assert_eq!(*e, got, "worker counts disagree on COUNT(*)"),
            None => *expect_count = Some(got),
        }
        let topk = db
            .execute_sql(
                "SELECT id, val FROM scan_t WHERE grp < $1 ORDER BY val DESC LIMIT 10",
                &[Value::Int(50)],
            )
            .expect("topk scan");
        assert_eq!(topk.result.rows.len(), 10, "top-k short of LIMIT");
    }
    // Both queries walk the full table once per rep.
    (rows as f64 * 2.0 * reps as f64) / start.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let quick = args.iter().any(|a| a == "--quick");
    let rows: i64 = arg_after(&args, "--rows")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20_000 } else { 60_000 });
    let reps: usize = arg_after(&args, "--reps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 15 } else { 40 });
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    println!("Parallel scan experiment: vectorized morsels, 1/2/4 workers");
    println!("({rows} rows x {reps} reps, {hw} hardware threads)\n");
    let db = build_db(rows);
    let mut expect = None;

    // Warm the buffer pool so the first leg is not charged for cold misses.
    db.set_scan_workers(1);
    measure(&db, rows, 2, &mut expect);

    let workers = [1usize, 2, 4];
    let mut tps = Vec::new();
    let mut table = TextTable::new(&["workers", "rows/s", "vs_x1"]);
    for &w in &workers {
        db.set_scan_workers(w);
        let tp = measure(&db, rows, reps, &mut expect);
        tps.push(tp);
        table.row(vec![
            format!("x{w}"),
            format!("{tp:.0}"),
            format!("{:.2}x", tp / tps[0]),
        ]);
    }
    println!("{}", table.render());

    let x4_speedup = tps[2] / tps[0];
    let parallel_gate = hw >= 4;
    if parallel_gate {
        println!("x4 vs x1: {x4_speedup:.2}x (must not be below 1.00x)");
    } else {
        println!(
            "x4 vs x1: {x4_speedup:.2}x (informational: {hw} hardware \
             thread(s), parallel gate needs 4)"
        );
    }

    write_result("exp_parallel_scan.csv", &table.to_csv());
    BenchJson::new("exp_parallel_scan")
        .int("rows", rows as u64)
        .int("reps", reps as u64)
        .int("hardware_threads", hw as u64)
        .ints("workers", &workers.map(|w| w as u64))
        .nums("rows_per_sec", &tps)
        .num("speedup_x4_over_x1", x4_speedup)
        .write();

    if check {
        if parallel_gate && x4_speedup < 1.0 {
            eprintln!("\nexp_parallel_scan: 4 workers slower than 1: {x4_speedup:.2}x");
            std::process::exit(1);
        }
        println!("\nexp_parallel_scan: all checks passed");
    }
}
