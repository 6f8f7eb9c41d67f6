//! Serving-path experiment: the loopback-TCP front-end under the
//! closed-loop Zipf client fleet, measured end-to-end (frame encode,
//! kernel round trip, middleware, page execution, response decode).
//!
//! Two legs, each a CI gate under `--check`:
//!
//! 1. **Paced capacity leg**: the client fleet is paced to an aggregate
//!    target QPS with admission control wide open. The server must keep
//!    up (achieved >= [`QPS_FLOOR_FRACTION`] of target), shed *nothing*
//!    (below the admission threshold every request must be served), and
//!    hold every page kind's end-to-end p99 under [`P99_CEILING_S`].
//!    The drain at the end must drop no in-flight request and leak no
//!    pooled session, and the post-drain cache/database sweep must find
//!    zero coherence violations and zero snapshot violations.
//! 2. **Overload leg**: the same fleet unpaced against `max_inflight =
//!    1`. Load shedding must *engage* (`requests_shed > 0`), every
//!    refusal must be retryable (`requests_failed == 0`), and the
//!    correctness gates above must still all hold — overload degrades
//!    throughput, never consistency.
//!
//! ```text
//! cargo run --release -p genie-bench --bin exp_serve
//! cargo run --release -p genie-bench --bin exp_serve -- --check --quick
//! ```

use genie_bench::{finish_checks, write_result, BenchJson, TextTable};
use genie_server::ServerConfig;
use genie_social::SeedConfig;
use genie_workload::{run_serve, ServeConfig, ServeResult};

/// End-to-end p99 ceiling per page kind on the paced leg, seconds.
/// Generous for noisy CI hosts: steady-state loopback pages sit around
/// a millisecond; a p99 past this means queueing, not noise.
const P99_CEILING_S: f64 = 0.25;

/// The paced leg must achieve at least this fraction of its target QPS
/// (the pacing budget per request dwarfs a page's service time, so
/// falling further behind means the serving path is stalling).
const QPS_FLOOR_FRACTION: f64 = 0.5;

/// Correctness gates shared by both legs: nothing fatal, nothing torn,
/// nothing leaked — overload may slow the server down, never corrupt it.
fn gate_correctness(leg: &str, r: &ServeResult, failures: &mut Vec<String>) {
    if r.requests_ok == 0 {
        failures.push(format!("{leg}: no request succeeded"));
    }
    if r.requests_failed != 0 {
        failures.push(format!(
            "{leg}: {} non-retryable request failures",
            r.requests_failed
        ));
    }
    if r.snapshot_violations != 0 {
        failures.push(format!(
            "{leg}: {} snapshot probes saw a torn repeat read",
            r.snapshot_violations
        ));
    }
    if r.coherence_violations != 0 {
        failures.push(format!(
            "{leg}: {} of {} swept objects incoherent after the drain",
            r.coherence_violations, r.checked_objects
        ));
    }
    match &r.shutdown {
        Some(rep) => {
            if rep.dropped_in_flight != 0 {
                failures.push(format!(
                    "{leg}: drain dropped {} in-flight requests",
                    rep.dropped_in_flight
                ));
            }
            if rep.leaked_sessions != 0 {
                failures.push(format!(
                    "{leg}: {} pooled sessions leaked through the drain",
                    rep.leaked_sessions
                ));
            }
        }
        None => failures.push(format!("{leg}: run produced no shutdown report")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let quick = args.iter().any(|a| a == "--quick");
    // Targets are sized for a single busy CI core. The full scale runs
    // a longer, heavier mix (more users, 4x the requests, growing
    // tables), so it paces *lower* than quick: the gate is bounded p99
    // at a sustained-for-longer rate, not peak throughput.
    let (clients, per_client, target_qps, users) = if quick {
        (6usize, 120usize, 300.0f64, 20usize)
    } else {
        (8, 250, 150.0, 40)
    };
    let mut failures: Vec<String> = Vec::new();

    // Leg 1: paced capacity run, admission wide open. One worker per
    // client: thread-per-connection serving must never park a client
    // behind another's connection.
    println!("Serving path: paced closed-loop fleet over loopback TCP");
    println!("({clients} clients x {per_client} requests, target {target_qps:.0} req/s)\n");
    let paced_cfg = ServeConfig {
        clients,
        requests_per_client: per_client,
        target_qps,
        seed: SeedConfig {
            users,
            ..SeedConfig::tiny()
        },
        server: ServerConfig {
            workers: clients,
            backlog: clients.max(16),
            ..ServerConfig::default()
        },
        ..ServeConfig::default()
    };
    let paced = run_serve(&paced_cfg).expect("paced serve run failed");
    let mut table = TextTable::new(&[
        "page", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms", "p999 ms", "max ms",
    ]);
    for p in &paced.per_page {
        table.row(vec![
            p.page.to_owned(),
            p.count.to_string(),
            format!("{:.3}", p.mean_s * 1e3),
            format!("{:.3}", p.p50_s * 1e3),
            format!("{:.3}", p.p95_s * 1e3),
            format!("{:.3}", p.p99_s * 1e3),
            format!("{:.3}", p.p999_s * 1e3),
            format!("{:.3}", p.max_s * 1e3),
        ]);
    }
    println!("{}", table.render());
    println!(
        "achieved {:.0} req/s of {:.0} target | ok {} retryable {} shed {} \
         snapshot_violations {} coherence {}/{}\n",
        paced.achieved_qps,
        paced.target_qps,
        paced.requests_ok,
        paced.requests_retryable,
        paced.requests_shed,
        paced.snapshot_violations,
        paced.coherence_violations,
        paced.checked_objects,
    );
    gate_correctness("paced leg", &paced, &mut failures);
    if paced.requests_shed != 0 {
        failures.push(format!(
            "paced leg: {} requests shed below the admission threshold",
            paced.requests_shed
        ));
    }
    if paced.achieved_qps < QPS_FLOOR_FRACTION * target_qps {
        failures.push(format!(
            "paced leg: achieved {:.0} req/s, under {:.0}% of the {target_qps:.0} target",
            paced.achieved_qps,
            QPS_FLOOR_FRACTION * 100.0
        ));
    }
    for p in &paced.per_page {
        if p.p99_s > P99_CEILING_S {
            failures.push(format!(
                "paced leg: {} p99 {:.1} ms over the {:.0} ms ceiling",
                p.page,
                p.p99_s * 1e3,
                P99_CEILING_S * 1e3
            ));
        }
    }

    // Leg 2: overload. One admission slot for eight unpaced clients —
    // shedding must engage, and must stay retryable and coherent.
    let overload_cfg = ServeConfig {
        clients: 8,
        requests_per_client: if quick { 60 } else { 150 },
        target_qps: 0.0,
        snapshot_every: 5,
        seed: SeedConfig::tiny(),
        server: ServerConfig {
            workers: 8,
            max_inflight: 1,
            ..ServerConfig::default()
        },
        ..ServeConfig::default()
    };
    let overload = run_serve(&overload_cfg).expect("overload serve run failed");
    println!(
        "overload (8 clients, 1 admission slot): ok {} shed {} retryable {} failed {} \
         coherence {}/{}\n",
        overload.requests_ok,
        overload.requests_shed,
        overload.requests_retryable,
        overload.requests_failed,
        overload.coherence_violations,
        overload.checked_objects,
    );
    gate_correctness("overload leg", &overload, &mut failures);
    if overload.requests_shed == 0 {
        failures
            .push("overload leg: admission control never shed with 8 clients on 1 slot".to_owned());
    }

    write_result("exp_serve.csv", &table.to_csv());
    let pages: Vec<&str> = paced.per_page.iter().map(|p| p.page).collect();
    BenchJson::new("exp_serve")
        .int("clients", clients as u64)
        .int("requests_per_client", per_client as u64)
        .num("target_qps", paced.target_qps)
        .num("achieved_qps", paced.achieved_qps)
        .int("requests_ok", paced.requests_ok)
        .int("requests_retryable", paced.requests_retryable)
        .int("requests_shed", paced.requests_shed)
        .int("snapshot_violations", paced.snapshot_violations)
        .int("checked_objects", paced.checked_objects)
        .int("coherence_violations", paced.coherence_violations)
        .str_field("pages", &pages.join(","))
        .ints(
            "page_counts",
            &paced.per_page.iter().map(|p| p.count).collect::<Vec<_>>(),
        )
        .nums(
            "page_p50_s",
            &paced.per_page.iter().map(|p| p.p50_s).collect::<Vec<_>>(),
        )
        .nums(
            "page_p95_s",
            &paced.per_page.iter().map(|p| p.p95_s).collect::<Vec<_>>(),
        )
        .nums(
            "page_p99_s",
            &paced.per_page.iter().map(|p| p.p99_s).collect::<Vec<_>>(),
        )
        .nums(
            "page_p999_s",
            &paced.per_page.iter().map(|p| p.p999_s).collect::<Vec<_>>(),
        )
        .int("overload_requests_ok", overload.requests_ok)
        .int("overload_requests_shed", overload.requests_shed)
        .int("overload_requests_retryable", overload.requests_retryable)
        .int(
            "overload_coherence_violations",
            overload.coherence_violations,
        )
        .write();

    if check {
        finish_checks("exp_serve", "all checks passed", "failure", &failures, true);
    }
}
