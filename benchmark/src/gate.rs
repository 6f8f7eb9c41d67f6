//! The correctness gate. Every check runs in the same command as the
//! measurement; any finding makes the run report `correct: false` and
//! exit non-zero.

use crate::deploy::{fresh_dir, Live};
use crate::drive::Drive;
use crate::ledger::Counters;
use crate::Res;
use cachegenie_repro::server::{Server, ShutdownReport};
use cachegenie_repro::storage::{Database, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The per-user cached objects the page mixes can touch.
const PER_USER_OBJECTS: [&str; 7] = [
    "latest_wall_posts",
    "wall_post_count",
    "user_by_id",
    "profile_by_user",
    "friends_of_user",
    "friend_count",
    "user_bookmark_count",
];

/// Users whose cached objects the coherence sweep checks.
const COHERENCE_SAMPLE: usize = 500;

/// What the gate found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// One line per failed check; empty means the run is correct.
    pub findings: Vec<String>,
    /// Seconds `open_with_recovery` took on the copied WAL directory
    /// (0 for an in-memory deployment).
    pub recovery_s: f64,
}

/// Checks on the client logs and the server's own accounting, taken
/// while the server is still up (its metrics die with it).
pub fn check_serving(drive: &Drive, server: &Server, findings: &mut Vec<String>) {
    let fatal = drive.sum(|c| c.fatal);
    let io = drive.sum(|c| c.io_errors);
    if fatal + io > 0 {
        let first = drive
            .clients
            .iter()
            .find_map(|c| c.first_error.clone())
            .unwrap_or_default();
        findings.push(format!(
            "{fatal} non-retryable responses and {io} socket errors (first: {first})"
        ));
    }
    let violations = server.metrics().snapshot_violations.load(Ordering::Relaxed);
    if violations > 0 {
        findings.push(format!("snapshot_violations = {violations}"));
    }
}

/// The drained shutdown must have dropped nothing and leaked nothing.
pub fn check_shutdown(report: &ShutdownReport, durable: bool, findings: &mut Vec<String>) {
    if report.dropped_in_flight > 0 {
        findings.push(format!(
            "shutdown dropped {} in-flight requests",
            report.dropped_in_flight
        ));
    }
    if report.leaked_sessions > 0 {
        findings.push(format!(
            "shutdown leaked {} sessions",
            report.leaked_sessions
        ));
    }
    if durable && !report.wal_flushed {
        findings.push("shutdown did not flush the WAL".to_owned());
    }
}

/// Post-drain checks on the quiescent deployment: cache coherence over a
/// seeded sample of users, WAL silence on read-only workloads, and — for
/// a durable deployment — that recovery from the log alone reproduces
/// the live database.
pub fn check_state(
    live: &Live,
    seed: u64,
    read_only: bool,
    before: &Counters,
    after: &Counters,
) -> Res<Verdict> {
    let mut verdict = Verdict::default();
    let env = &live.env;
    let users = env.seeded.users as i64;
    // The hottest ranks — where concurrent writers meet — plus a seeded
    // uniform draw over everyone else.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de);
    let hot = (COHERENCE_SAMPLE as i64 / 5).min(users);
    let sample = (1..=hot).chain((hot..COHERENCE_SAMPLE as i64).map(|_| rng.gen_range(1..=users)));
    let mut violations = 0;
    for user in sample {
        for name in PER_USER_OBJECTS {
            if !env.genie.verify_coherence(name, &[Value::Int(user)])? {
                violations += 1;
            }
        }
    }
    if violations > 0 {
        verdict
            .findings
            .push(format!("{violations} cache coherence violations"));
    }
    let wal_records = after.wal_records() - before.wal_records();
    if read_only && wal_records > 0 {
        verdict.findings.push(format!(
            "read-only workload appended {wal_records} WAL records"
        ));
    }
    if !read_only && live.wal_dir.is_some() && wal_records == 0 {
        verdict
            .findings
            .push("durable write workload appended no WAL records".to_owned());
    }
    if let Some(dir) = &live.wal_dir {
        // Recover a copy: the live database keeps appending to the
        // original. The server's drain flushed the group-commit queue and
        // nothing is running, so the copy holds every acknowledged commit.
        let copy = fresh_dir("recovery")?;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            std::fs::copy(entry.path(), copy.join(entry.file_name()))?;
        }
        let t = Instant::now();
        let recovered = Database::open_with_recovery(&copy)?;
        verdict.recovery_s = t.elapsed().as_secs_f64();
        if recovered.content_digest() != env.db.content_digest() {
            verdict
                .findings
                .push("recovered database digest differs from the live one".to_owned());
        }
        drop(recovered);
        std::fs::remove_dir_all(&copy)?;
    }
    Ok(verdict)
}
