//! Criterion micro-bench: in-process CPU per read-mix page, the serving
//! benchmark's `read_hot` page stream without the wire — 5 000 users,
//! a 512 MiB cache warmed by one pass of every read page for every user,
//! and the read mix (LookupBM 45, LookupFBM 25, Wall 20, Groups 10) over
//! uniformly drawn users. Three setups:
//!
//! * `one_thread`: one thread renders pages;
//! * `two_threads_one_deployment`: two threads render pages on one
//!   deployment (clones of one app), sharing its session, CacheGenie,
//!   cache and database;
//! * `two_threads_two_deployments`: each thread renders pages on its own
//!   deployment, sharing nothing but the process.
//!
//! Each reports the CPU time its threads spent per page (from
//! `/proc/thread-self/schedstat`, so time a thread waits off-CPU is not
//! counted). The gap between the last two is what sharing one deployment
//! costs per page. Run with
//! `cargo bench -p genie-bench --bench micro_page` (~15 s, most of it
//! building the two deployments).

use criterion::{criterion_group, criterion_main, Criterion};
use genie_social::{build_app, AppConfig, AppEnv, SeedConfig, SocialApp};
use std::hint::black_box;
use std::time::Duration;

const USERS: u64 = 5_000;

/// schedstat advances in scheduler ticks (milliseconds), so each timed
/// stretch renders at least this many pages (tens of milliseconds) and
/// its time is scaled back to the pages asked for.
const MIN_PAGES: u64 = 1_000;

/// The read mix as a 20-page cycle.
const CYCLE: [u8; 20] = [0, 1, 0, 2, 0, 1, 3, 0, 2, 0, 1, 0, 2, 0, 1, 3, 0, 2, 0, 1];

fn deployment() -> AppEnv {
    let env = build_app(&AppConfig {
        cluster: genie_cache::ClusterConfig {
            capacity_bytes: 512 * 1024 * 1024,
            ..Default::default()
        },
        seed: SeedConfig {
            users: USERS as usize,
            ..SeedConfig::default()
        },
        ..AppConfig::default()
    })
    .unwrap();
    for user in 1..=USERS as i64 {
        for page in 0..4 {
            render(&env.app, page, user);
        }
    }
    env
}

fn render(app: &SocialApp, page: u8, user: i64) {
    let stats = match page {
        0 => app.lookup_bm(user),
        1 => app.lookup_fbm(user),
        2 => app.view_wall(user),
        _ => app.view_groups(user),
    };
    black_box(stats.unwrap());
}

/// CPU time the calling thread has run.
fn thread_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("micro_page reads per-thread CPU time from Linux schedstat");
    let ns = stat.split_whitespace().next().and_then(|n| n.parse().ok());
    Duration::from_nanos(ns.expect("schedstat starts with on-CPU nanoseconds"))
}

/// Renders read-mix pages from a stream seeded by `seed`, and returns
/// the CPU time `pages` of them took on this thread.
fn run(app: &SocialApp, seed: &mut u64, pages: u64) -> Duration {
    let rendered = pages.max(MIN_PAGES);
    let start = thread_cpu();
    for _ in 0..rendered {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        let user = (*seed % USERS) as i64 + 1;
        render(app, CYCLE[(*seed >> 32) as usize % CYCLE.len()], user);
    }
    (thread_cpu() - start).mul_f64(pages as f64 / rendered as f64)
}

/// Two threads, one per app, `pages` pages each: their CPU time per
/// page, scaled to `pages` pages.
fn run_pair(apps: [&SocialApp; 2], seeds: &mut [u64; 2], pages: u64) -> Duration {
    let [a, b] = seeds;
    let cpu = std::thread::scope(|s| {
        let other = s.spawn(|| run(apps[1], b, pages));
        run(apps[0], a, pages) + other.join().unwrap()
    });
    cpu / 2
}

fn bench_pages(c: &mut Criterion) {
    let (first, second) = (deployment(), deployment());
    let mut group = c.benchmark_group("micro_page");
    let mut seeds = [0x9e37_79b9_7f4a_7c15u64, 0xd1b5_4a32_d192_ed03];
    group.bench_function("one_thread", |b| {
        b.iter_custom(|pages| run(&first.app, &mut seeds[0], pages))
    });
    group.bench_function("two_threads_one_deployment", |b| {
        b.iter_custom(|pages| run_pair([&first.app, &first.app], &mut seeds, pages))
    });
    group.bench_function("two_threads_two_deployments", |b| {
        b.iter_custom(|pages| run_pair([&first.app, &second.app], &mut seeds, pages))
    });
    group.finish();
}

criterion_group!(benches, bench_pages);
criterion_main!(benches);
