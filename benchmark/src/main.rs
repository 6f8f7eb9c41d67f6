//! The serving benchmark of the CacheGenie stack.
//!
//! One process runs one workload: it builds the deployment, drives a
//! fixed, seeded request stream through the loopback server with two
//! closed-loop clients, checks the outcome, and prints every metric by
//! name, closing with one JSON line. Without `--workload` it runs all
//! four, each in a process of its own so that peak memory is its own.
//! `README.md` beside this crate has the workload and metric tables.

mod deploy;
mod drive;
mod gate;
mod ledger;
mod probes;
mod stats;
mod trace;
mod workloads;

use ledger::{metric, Metric};
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workloads::{Workload, CLIENTS, WORKLOADS};

/// Errors are reported, not handled: any of them ends the run.
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// `run_seconds` of `BENCHMARK.json`: the default for `--seconds`.
const DEFAULT_SECONDS: f64 = 8.0;
/// The stream-length divisor of `--smoke`.
const SMOKE_DIVISOR: f64 = 50.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

const USAGE: &str = "usage: genie-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--scale F] [--trace 0|1] [--smoke]
  --workload  read_hot | read_cold | mix_80_20 | write_heavy (default: all four, traced)
  --seed      seeds the population and the request streams (default 12)
  --seconds   sizes the request stream: about this long on the reference host (default 8)
  --scale     multiplies the request count (default 1)
  --trace     0: end-to-end metrics; 1: also the per-layer ledger (probes + traced run)
  --smoke     1/50 of the request count and a single set-up";

#[derive(Debug, Clone)]
struct Opts {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: None,
        seed: 12,
        seconds: DEFAULT_SECONDS,
        scale: 1.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value for {flag}: {value}\n{USAGE}");
        match flag.as_str() {
            "--workload" => opts.workload = Some(workloads::by_name(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--scale" => opts.scale = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if !positive(opts.seconds) || !positive(opts.scale) {
        return Err(format!("--seconds and --scale must be positive\n{USAGE}"));
    }
    Ok(opts)
}

/// What one workload run produced.
struct Report {
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    findings: Vec<String>,
}

/// Runs one workload in this process.
fn run(w: &Workload, opts: &Opts) -> Res<Report> {
    let scale = if opts.smoke {
        opts.scale / SMOKE_DIVISOR
    } else {
        opts.scale
    };
    let n = w.requests_per_client(opts.seconds, scale);
    let streams: Vec<_> = (0..CLIENTS).map(|c| w.stream(opts.seed, c, n)).collect();
    println!(
        "# workload={} seed={} seconds={} scale={scale} trace={} requests={CLIENTS}x{n} nproc={}",
        w.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, |p| p.get()),
    );

    // The measured deployment is the first thing this process builds, so
    // the allocator and `peak_rss_mb` see one deployment, not leftovers.
    let mut setups = Vec::new();
    let (live, server) = deploy::bring_up(w, None)?;
    setups.push(live.setup_s);

    let before = ledger::Counters::read(&live.env);
    let drive = drive::drive(server.addr(), &streams, Instant::now(), &|| {});
    let after = ledger::Counters::read(&live.env);
    let peak_rss = stats::peak_rss_mib().unwrap_or(0.0);

    let mut findings = Vec::new();
    gate::check_serving(&drive, &server, &mut findings);
    let mut per_layer = ledger::counter_metrics(&before, &after, &live.env, &server, &drive);
    if opts.trace {
        per_layer.push(probes::server_roundtrip(&server)?);
    }
    gate::check_shutdown(&server.shutdown(), w.durable, &mut findings);
    if opts.trace {
        per_layer.extend(probes::in_process(&live, &streams[0])?);
    }
    let read_only = !w.mix.iter().any(|(k, _)| workloads::is_write(*k));
    let verdict = gate::check_state(&live, opts.seed, read_only, &before, &after)?;
    findings.extend(verdict.findings);

    let pages = drive.ok();
    let all = drive.latencies(false);
    let writes = drive.latencies(true);
    let ms = |ns: Option<u64>| ns.map_or(0.0, |v| v as f64 / 1e6);
    per_layer.push(metric(
        "social.page_p99_ms",
        ms(stats::percentile(&all, 99.0)),
        "ms",
        pages,
    ));
    per_layer.push(metric(
        "social.write_p50_ms",
        ms(stats::percentile(&writes, 50.0)),
        "ms",
        writes.len() as u64,
    ));
    per_layer.push(metric(
        "social.write_p99_ms",
        ms(stats::percentile(&writes, 99.0)),
        "ms",
        writes.len() as u64,
    ));

    if opts.trace {
        per_layer.push(metric(
            "storage.recovery_s",
            verdict.recovery_s,
            "s",
            u64::from(w.durable),
        ));
        per_layer.push(probes::checkpoint(&live)?);
        live.discard();
        let (traced_setup_s, traced) = traced_run(w, &streams, &per_layer, &mut findings)?;
        setups.push(traced_setup_s);
        per_layer.extend(traced);
    } else {
        live.discard();
        // `setup_s` is a median: set up again, only to time it. (A traced
        // run sets up a second time anyway, for the traced deployment.)
        let extra = if opts.smoke { 0 } else { SETUPS - 1 };
        for _ in 0..extra {
            let (live, server) = deploy::bring_up(w, None)?;
            setups.push(live.setup_s);
            server.shutdown();
            live.discard();
        }
    }

    let end_to_end = vec![
        metric("setup_s", stats::median(&setups), "s", setups.len() as u64),
        metric(
            "pages_per_s",
            stats::ratio(pages as f64, drive.wall_s),
            "1/s",
            pages,
        ),
        metric(
            "cpu_us_per_page",
            stats::ratio(drive.cpu_s * 1e6, pages as f64),
            "us",
            pages,
        ),
        metric(
            "page_p50_ms",
            ms(stats::percentile(&all, 50.0)),
            "ms",
            pages,
        ),
        metric("peak_rss_mb", peak_rss, "MiB", 1),
    ];
    if pages == 0 {
        findings.push("no page succeeded".to_owned());
    }
    Ok(Report {
        attempted: drive.attempted,
        failed: drive.failed(),
        end_to_end,
        per_layer,
        findings,
    })
}

/// The traced run: the first quarter of the same streams on a fresh
/// deployment, with the span-recording interceptor installed. Returns
/// its set-up time and the `trace.*` metrics.
fn traced_run(
    w: &Workload,
    streams: &[Vec<workloads::Req>],
    per_layer: &[Metric],
    findings: &mut Vec<String>,
) -> Res<(f64, Vec<Metric>)> {
    let tracer = trace::Tracer::new();
    let (live, server) = deploy::bring_up(w, Some(&tracer))?;
    let quarter: Vec<_> = streams
        .iter()
        .map(|s| s[..s.len().div_ceil(4)].to_vec())
        .collect();
    let drive = drive::drive(server.addr(), &quarter, tracer.origin, &|| tracer.flip());
    gate::check_serving(&drive, &server, findings);
    let (page_us, _) = ledger::server_page_us(&server);
    gate::check_shutdown(&server.shutdown(), w.durable, findings);
    let setup_s = live.setup_s;
    live.discard();

    let windows = tracer.windows();
    let samples: Vec<&[drive::Sample]> = drive.clients.iter().map(|c| &c.samples[..]).collect();
    let a = trace::attribute(&tracer.drain(), &samples, &windows);
    let pages = drive.ok();
    let wire_us = ledger::client_mean_us(&drive) - page_us;
    // What is left of the server's page time once every `try_serve` span
    // is taken out: `social` + `orm` + the uncached `storage` selects and
    // the writes. The request's self time still holds the wire.
    let rest_us = a.self_us - wire_us;
    // How much of that the probes explain: every query is compiled, the
    // pass-through ones are then selected, and each write commits.
    let get = |name: &str| {
        per_layer
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let (queries, writes) = (
        get("social.queries_per_page"),
        get("social.writes_per_page"),
    );
    let explained = (queries - writes) * get("orm.compile_us")
        + a.pass_count * get("storage.select_us")
        + writes * get("storage.insert_commit_us");
    Ok((
        setup_s,
        vec![
            metric("trace.wire_us", wire_us, "us", pages),
            metric("trace.core_hit_us", a.hit_us, "us", a.requests),
            metric("trace.core_miss_us", a.miss_us, "us", a.requests),
            metric("trace.pass_count", a.pass_count, "1/page", a.requests),
            metric("trace.rest_us", rest_us, "us", a.requests),
            metric(
                "trace.unattributed_ratio",
                stats::ratio(rest_us - explained, rest_us),
                "ratio",
                a.requests,
            ),
            metric(
                "trace.overhead_ratio",
                trace::overhead_ratio(&samples, &windows),
                "ratio",
                pages,
            ),
        ],
    ))
}

fn print_metrics(section: &str, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{section:<10} {:<40} {:>16.4} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// The closing JSON line: `metrics` holds the end-to-end metrics of an
/// untraced run or the per-layer metrics of a traced one.
fn json_line(report: &Report, trace: bool) -> String {
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.findings.is_empty(),
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    )
}

/// Runs `f` under a watchdog that ends the process, scratch directory
/// removed, if `f` has not returned in `limit`.
fn with_watchdog<T>(limit: Duration, what: &str, f: impl FnOnce() -> T) -> T {
    let (done, wait) = mpsc::channel::<()>();
    let what = what.to_owned();
    let dog = std::thread::spawn(move || {
        if wait.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!(
                "genie-benchmark: {what} still running after {}s (10x its timed section plus 60 s); aborting",
                limit.as_secs()
            );
            deploy::remove_scratch();
            std::process::exit(3);
        }
    });
    let out = f();
    drop(done);
    let _ = dog.join();
    out
}

fn run_one(w: &'static Workload, opts: &Opts) -> ExitCode {
    // Ten times the timed section's expected length, plus a fixed
    // allowance for set-ups, probes and the gate.
    let limit = Duration::from_secs_f64(60.0 + 10.0 * opts.seconds * opts.scale);
    let outcome = with_watchdog(limit, w.name, || run(w, opts));
    deploy::remove_scratch();
    match outcome {
        Ok(report) => {
            print_metrics("end_to_end", &report.end_to_end);
            print_metrics("per_layer", &report.per_layer);
            for finding in &report.findings {
                println!("gate       FAILED {}: {finding}", w.name);
            }
            if report.findings.is_empty() {
                println!("gate       ok {}", w.name);
            } else {
                println!("gate       metrics of {} are INVALID", w.name);
            }
            println!("{}", json_line(&report, opts.trace));
            if report.findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("genie-benchmark: {} failed: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in a child process (so `peak_rss_mb` is the
/// workload's own) and one after the other, traced — or, for a smoke run,
/// untraced and all at once.
fn run_all(opts: &Opts) -> Res<ExitCode> {
    let exe = std::env::current_exe()?;
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned());
    println!(
        "# host nproc={} rustc=\"{rustc}\" (storage.device_sync_us is reported per workload)",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    let spawn = |w: &Workload| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--scale", &opts.scale.to_string()])
            .stdout(std::process::Stdio::piped());
        if opts.smoke {
            cmd.arg("--smoke");
        } else {
            cmd.args(["--trace", "1"]);
        }
        cmd.spawn()
    };
    let mut failed = Vec::new();
    let mut reap = |w: &Workload, child: std::process::Child| -> Res<()> {
        let out = child.wait_with_output()?;
        print!("{}", String::from_utf8_lossy(&out.stdout));
        if !out.status.success() {
            failed.push(w.name);
        }
        Ok(())
    };
    if opts.smoke {
        // A smoke run checks that everything works, not how fast: the
        // four children share the machine.
        let children: Vec<_> = WORKLOADS.iter().map(spawn).collect();
        for (w, child) in WORKLOADS.iter().zip(children) {
            reap(w, child?)?;
        }
    } else {
        for w in &WORKLOADS {
            reap(w, spawn(w)?)?;
        }
    }
    if failed.is_empty() {
        println!("# all {} workloads passed the gate", WORKLOADS.len());
        Ok(ExitCode::SUCCESS)
    } else {
        println!("# FAILED: {}", failed.join(", "));
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match opts.workload {
        Some(w) => run_one(w, &opts),
        None => run_all(&opts).unwrap_or_else(|e| {
            eprintln!("genie-benchmark: {e}");
            ExitCode::FAILURE
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let o = parse_args(&args(
            "--workload mix_80_20 --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.unwrap().name, "mix_80_20");
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.smoke),
            (7, 10.0, true, false)
        );
        let o = parse_args(&args("--smoke --scale 0.5")).unwrap();
        assert!(o.workload.is_none() && o.smoke && o.scale == 0.5);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--scale -1",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let report = Report {
            attempted: 10,
            failed: 1,
            end_to_end: vec![metric("setup_s", 0.5, "s", 3)],
            per_layer: vec![metric("core.hit_ratio", f64::NAN, "ratio", 0)],
            findings: vec![],
        };
        assert_eq!(
            json_line(&report, false),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(json_line(&report, true).contains("\"core.hit_ratio\": {\"value\": 0, "));
    }
}
