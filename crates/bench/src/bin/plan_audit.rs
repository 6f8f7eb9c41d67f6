//! Prints the whole-query plan and measured cost for each social-app
//! page query — the EXPLAIN audit for the storage planner — and, in
//! `--check` mode, fails when a plan regresses against the committed
//! baseline.
//!
//! For every query-set a page load issues, shows the plan the cost-based
//! planner picks (access path, join order and probe methods, order/limit
//! handling) next to the measured `CostReport` of actually running it
//! (rows scanned, index probes, sorts). Run with:
//!
//! ```text
//! cargo run --release -p genie-bench --bin plan_audit              # report
//! cargo run --release -p genie-bench --bin plan_audit -- --check   # CI gate
//! cargo run --release -p genie-bench --bin plan_audit -- --write-baseline
//! ```
//!
//! The baseline (`crates/bench/plan_audit.baseline`) records each
//! query's plan *shape* (structure only, no cost estimates) and its
//! measured counters. `--check` fails when a shape changes or a counter
//! worsens — the definition of a plan regression for the social-app
//! page queries.

use genie_bench::finish_checks;
use genie_social::{build_app, AppConfig, SeedConfig};
use genie_storage::{QueryResult, Select, Value};

// Committed next to the bench crate (results/ is gitignored, and the
// baseline must travel with the source so `--check` works on a fresh
// clone).
const BASELINE_PATH: &str = "crates/bench/plan_audit.baseline";

struct Audit {
    name: &'static str,
    shape: String,
    rows_scanned: u64,
    index_probes: u64,
    sorts: u64,
    rows: usize,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let write = args.iter().any(|a| a == "--write-baseline");

    let env = build_app(&AppConfig {
        seed: SeedConfig {
            users: 200,
            rng_seed: 7,
            ..Default::default()
        },
        // NoCache: audit raw database access paths without interception.
        strategy: None,
        ..Default::default()
    })
    .expect("build social app");

    println!(
        "plan audit over {} users / {} rows total",
        env.seeded.users,
        env.db
            .table_names()
            .iter()
            .map(|t| env.db.row_count(t).unwrap_or(0))
            .sum::<usize>()
    );
    println!();
    println!(
        "{:<28} {:<72} {:>6} {:>7} {:>6} {:>5}",
        "page query", "chosen plan", "rows", "scanned", "probes", "sorts"
    );

    let app = &env.app;
    let user = 3i64;
    let mut audits: Vec<Audit> = Vec::new();
    let queries: Vec<(&'static str, (Select, Vec<Value>))> = vec![
        ("login: user by pk", app.user_qs(user).unwrap().compile()),
        ("login: profile", app.profile_qs(user).unwrap().compile()),
        (
            "lookup_bm: friends",
            app.friends_qs(user).unwrap().compile(),
        ),
        (
            "accept_fr: pending invites",
            app.pending_invitations_qs(user).unwrap().compile(),
        ),
        (
            "lookup_bm: own bookmarks",
            app.user_bookmarks_qs(user).unwrap().compile(),
        ),
        (
            "view_fbm: friend bookmarks",
            app.friend_bookmarks_qs(user).unwrap().compile(),
        ),
        (
            "view_wall: top-20 posts",
            app.wall_qs(user).unwrap().compile(),
        ),
        (
            "view_groups: memberships",
            app.user_groups_qs(user).unwrap().compile(),
        ),
        // COUNT(*) pushdown coverage: page-chrome badge counts answered
        // from posting-list sizes (plan shape carries the count-only
        // marker; rows_scanned must be zero).
        (
            "badge: friend count",
            app.friends_qs(user).unwrap().compile_count(),
        ),
        (
            "badge: pending-invite count",
            app.pending_invitations_qs(user).unwrap().compile_count(),
        ),
    ];

    for (name, (select, params)) in queries {
        let plan = env.db.explain(&select, &params).expect("explain");
        let out = env.db.select(&select, &params).expect("execute");
        audits.push(report(name, &plan, &out.result, &out.cost));
    }

    println!();
    println!("range / IN shapes the ORM emits for feeds and digests:");
    let ranged: [(&'static str, &str, Vec<Value>); 9] = [
        (
            "wall since timestamp",
            "SELECT * FROM wall_posts WHERE user_id = $1 AND date_posted > TS(500) \
             ORDER BY date_posted DESC",
            vec![Value::Int(user)],
        ),
        (
            "invites by status IN",
            "SELECT * FROM friendship_invitations WHERE to_user_id = $1 AND status IN (0, 2)",
            vec![Value::Int(user)],
        ),
        (
            "bookmark id batch",
            "SELECT * FROM bookmarks WHERE id IN (1, 2, 3, 5, 8, 13)",
            vec![],
        ),
        (
            "recent saves BETWEEN",
            "SELECT * FROM bookmark_instances WHERE saved BETWEEN TS(100) AND TS(400)",
            vec![],
        ),
        (
            "wall top-5 early stop",
            "SELECT * FROM wall_posts WHERE user_id = $1 ORDER BY date_posted DESC LIMIT 5",
            vec![Value::Int(user)],
        ),
        // COUNT(*) pushdown breadth: range and IN-list predicates whose
        // every conjunct the path absorbs are answered by summing posting
        // blocks — count-only plan shape, zero rows scanned.
        (
            "count: wall since timestamp",
            "SELECT COUNT(*) FROM wall_posts WHERE user_id = $1 AND date_posted > TS(500)",
            vec![Value::Int(user)],
        ),
        (
            "count: invites by status IN",
            "SELECT COUNT(*) FROM friendship_invitations WHERE to_user_id = $1 AND status IN (0, 2)",
            vec![Value::Int(user)],
        ),
        (
            "count: bookmark pk batch",
            "SELECT COUNT(*) FROM bookmarks WHERE id IN (1, 2, 3, 5, 8, 13)",
            vec![],
        ),
        (
            "count: pk range",
            "SELECT COUNT(*) FROM users WHERE id BETWEEN 10 AND 40",
            vec![],
        ),
    ];
    for (name, sql, params) in ranged {
        let plan = env.db.explain_sql(sql, &params).expect("explain");
        let out = env.db.execute_sql(sql, &params).expect("execute");
        audits.push(report(name, &plan, &out.result, &out.cost));
    }

    if write {
        let body = render_baseline(&audits);
        std::fs::write(BASELINE_PATH, body).expect("write baseline");
        println!("\nwrote {BASELINE_PATH}");
        return;
    }
    if check {
        match std::fs::read_to_string(BASELINE_PATH) {
            Ok(baseline) => {
                let failures = check_against(&audits, &baseline);
                finish_checks(
                    "plan_audit --check",
                    "all plans match the baseline",
                    "regression",
                    &failures,
                    true,
                );
            }
            Err(e) => {
                eprintln!("plan_audit --check: cannot read {BASELINE_PATH}: {e}");
                std::process::exit(1);
            }
        }
    }
}

fn report(
    name: &'static str,
    plan: &genie_storage::QueryPlan,
    result: &QueryResult,
    cost: &genie_storage::CostReport,
) -> Audit {
    println!(
        "{:<28} {:<72} {:>6} {:>7} {:>6} {:>5}",
        name,
        plan.to_string(),
        result.rows.len(),
        cost.rows_scanned,
        cost.index_probes,
        cost.sorts,
    );
    Audit {
        name,
        shape: plan.shape(),
        rows_scanned: cost.rows_scanned,
        index_probes: cost.index_probes,
        sorts: cost.sorts,
        rows: result.rows.len(),
    }
}

fn render_baseline(audits: &[Audit]) -> String {
    let mut out = String::from(
        "# plan_audit baseline: name|plan shape|rows_scanned|index_probes|sorts|rows_returned\n\
         # Regenerate with: cargo run --release -p genie-bench --bin plan_audit -- --write-baseline\n",
    );
    for a in audits {
        out.push_str(&format!(
            "{}|{}|{}|{}|{}|{}\n",
            a.name, a.shape, a.rows_scanned, a.index_probes, a.sorts, a.rows
        ));
    }
    out
}

/// A regression is a changed plan shape, or any measured cost counter
/// (rows scanned / index probes / sorts) getting *worse* for the same
/// query against the same seeded data.
fn check_against(audits: &[Audit], baseline: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let mut seen = 0usize;
    for line in baseline.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split('|').collect();
        if parts.len() != 6 {
            failures.push(format!("malformed baseline line: {line}"));
            continue;
        }
        let (name, shape) = (parts[0], parts[1]);
        // A corrupt counter must fail the gate, not silently disable it.
        let (scanned, probes, sorts, rows) = match (
            parts[2].parse::<u64>(),
            parts[3].parse::<u64>(),
            parts[4].parse::<u64>(),
            parts[5].parse::<usize>(),
        ) {
            (Ok(a), Ok(b), Ok(c), Ok(d)) => (a, b, c, d),
            _ => {
                failures.push(format!("{name}: non-numeric baseline counters: {line}"));
                continue;
            }
        };
        let Some(a) = audits.iter().find(|a| a.name == name) else {
            failures.push(format!("{name}: query disappeared from the audit"));
            continue;
        };
        seen += 1;
        if a.shape != shape {
            failures.push(format!(
                "{name}: plan shape changed\n    baseline: {shape}\n    current:  {}",
                a.shape
            ));
        }
        if a.rows != rows {
            failures.push(format!(
                "{name}: result size changed ({rows} -> {})",
                a.rows
            ));
        }
        if a.rows_scanned > scanned {
            failures.push(format!(
                "{name}: rows_scanned regressed ({scanned} -> {})",
                a.rows_scanned
            ));
        }
        if a.index_probes > probes {
            failures.push(format!(
                "{name}: index_probes regressed ({probes} -> {})",
                a.index_probes
            ));
        }
        if a.sorts > sorts {
            failures.push(format!("{name}: sorts regressed ({sorts} -> {})", a.sorts));
        }
    }
    if seen < audits.len() {
        failures.push(format!(
            "baseline covers {seen} of {} audited queries — regenerate with --write-baseline",
            audits.len()
        ));
    }
    failures
}
