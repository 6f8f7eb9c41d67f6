//! The four workloads and their seeded request streams.
//!
//! A workload is a deployment (database kind, population, cache size)
//! plus a page mix. Every stream is a **fixed request count** generated
//! from the seed before timing starts — never "as many as fit in N
//! seconds": write pages grow state, so only a fixed stream gives two
//! commits identical work. `--seconds` sizes the stream through
//! [`Workload::pages_per_client_s`], the rate the reference host (2
//! cores) sustains, so a run takes about that long there.

use cachegenie_repro::server::Page;
use cachegenie_repro::sim::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Client threads (one connection each) and server workers. Fixed — not
/// `nproc` — so numbers compare across hosts.
pub const CLIENTS: usize = 2;

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Durable database (WAL with real `fdatasync`) or in-memory.
    pub durable: bool,
    /// Seeded user population.
    pub users: usize,
    /// Zipf exponent of user popularity.
    pub zipf_a: f64,
    /// Cache cluster capacity in bytes.
    pub cache_bytes: usize,
    /// Page kinds with integer weights.
    pub mix: &'static [(Page, u32)],
    /// Requests per client per `--seconds` second: what one closed-loop
    /// client completes per second on the 2-core reference host.
    pub pages_per_client_s: f64,
}

const READ_MIX: &[(Page, u32)] = &[
    (Page::LookupBM, 45),
    (Page::LookupFBM, 25),
    (Page::Wall, 20),
    (Page::Groups, 10),
];

/// All workloads, in reporting order. Rationale for each is in
/// `BENCHMARK.json` and `benchmark/README.md`.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_hot",
        durable: false,
        users: 5000,
        zipf_a: 0.8,
        cache_bytes: 512 * 1024 * 1024,
        mix: READ_MIX,
        pages_per_client_s: 7200.0,
    },
    Workload {
        name: "read_cold",
        durable: false,
        users: 5000,
        zipf_a: 0.8,
        cache_bytes: 64 * 1024,
        mix: READ_MIX,
        pages_per_client_s: 4250.0,
    },
    Workload {
        name: "mix_80_20",
        durable: true,
        users: 1000,
        zipf_a: 0.8,
        cache_bytes: 512 * 1024 * 1024,
        // The paper's Table 2 mix.
        mix: &[
            (Page::LookupBM, 50),
            (Page::LookupFBM, 30),
            (Page::CreateBM, 10),
            (Page::AcceptFR, 10),
        ],
        pages_per_client_s: 1650.0,
    },
    Workload {
        name: "write_heavy",
        durable: true,
        users: 1000,
        zipf_a: 0.8,
        cache_bytes: 512 * 1024 * 1024,
        mix: &[
            (Page::CreateBM, 20),
            (Page::AcceptFR, 15),
            (Page::PostWall, 20),
            (Page::BatchPost, 15),
            (Page::Wall, 15),
            (Page::LookupBM, 15),
        ],
        pages_per_client_s: 900.0,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// True for page kinds that modify the database.
pub fn is_write(kind: Page) -> bool {
    matches!(
        kind,
        Page::CreateBM | Page::AcceptFR | Page::PostWall | Page::BatchPost
    )
}

/// The page kind a roll in `0..Σweights` selects.
fn pick(mix: &[(Page, u32)], mut roll: u32) -> Page {
    for (kind, weight) in mix {
        if roll < *weight {
            return *kind;
        }
        roll -= weight;
    }
    mix[mix.len() - 1].0
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    /// Page kind.
    pub kind: Page,
    /// Acting user.
    pub user: i64,
    /// Page-specific argument.
    pub arg: Option<i64>,
}

impl Req {
    /// The wire frame (without the newline).
    pub fn line(&self) -> String {
        match self.arg {
            Some(a) => format!("PAGE {} {} {a}", self.kind.name(), self.user),
            None => format!("PAGE {} {}", self.kind.name(), self.user),
        }
    }
}

impl Workload {
    /// Requests each client issues for a run sized to `seconds × scale`.
    pub fn requests_per_client(&self, seconds: f64, scale: f64) -> usize {
        ((self.pages_per_client_s * seconds * scale).round() as usize).max(1)
    }

    /// The request stream of one client: `n` requests from the RNG
    /// seeded with `seed + 7919·client`.
    pub fn stream(&self, seed: u64, client: usize, n: usize) -> Vec<Req> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(7919 * client as u64));
        let zipf = Zipf::new(self.users, self.zipf_a);
        let total: u32 = self.mix.iter().map(|(_, w)| w).sum();
        (0..n)
            .map(|i| {
                let user = zipf.sample(&mut rng) as i64;
                let kind = pick(self.mix, rng.gen_range(0..total));
                let arg = match kind {
                    // A URL no seeded bookmark and no other request has.
                    Page::CreateBM => Some(((client as i64 + 1) * 10_000_000) + i as i64),
                    // The peer is drawn uniformly: with `user + 1`, hot
                    // ranks befriend each other without bound and one
                    // page's friend list grows into the thousands — a
                    // driver artefact, not the system.
                    Page::AcceptFR => Some(rng.gen_range(1..=self.users as i64)),
                    // Own wall.
                    Page::PostWall | Page::BatchPost => Some(user),
                    _ => None,
                };
                Req { kind, user, arg }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_streams() {
        for w in &WORKLOADS {
            for client in 0..CLIENTS {
                assert_eq!(w.stream(12, client, 2000), w.stream(12, client, 2000));
            }
            assert_ne!(w.stream(12, 0, 2000), w.stream(12, 1, 2000));
            assert_ne!(w.stream(12, 0, 2000), w.stream(13, 0, 2000));
            // A longer stream extends a shorter one: the traced run's
            // quarter is a prefix of the untraced run's stream.
            assert_eq!(w.stream(12, 0, 500)[..], w.stream(12, 0, 2000)[..500]);
        }
    }

    #[test]
    fn mix_proportions_are_within_one_percent() {
        for w in &WORKLOADS {
            let n = 100_000;
            let stream = w.stream(12, 0, n);
            let total: u32 = w.mix.iter().map(|(_, x)| x).sum();
            for (kind, weight) in w.mix {
                let got = stream.iter().filter(|r| r.kind == *kind).count() as f64 / n as f64;
                let want = f64::from(*weight) / f64::from(total);
                assert!(
                    (got - want).abs() < 0.01,
                    "{} {}: got {got:.4} want {want:.4}",
                    w.name,
                    kind.name()
                );
            }
            assert!(stream
                .iter()
                .all(|r| (1..=w.users as i64).contains(&r.user)));
        }
    }

    #[test]
    fn write_arguments_avoid_the_driver_artefacts() {
        let w = by_name("write_heavy").unwrap();
        let stream = w.stream(12, 1, 20_000);
        let mut urls: Vec<i64> = stream
            .iter()
            .filter(|r| r.kind == Page::CreateBM)
            .map(|r| r.arg.unwrap())
            .collect();
        let n = urls.len();
        urls.sort_unstable();
        urls.dedup();
        assert_eq!(urls.len(), n, "create_bm URLs are unique");
        assert!(stream
            .iter()
            .filter(|r| matches!(r.kind, Page::PostWall | Page::BatchPost))
            .all(|r| r.arg == Some(r.user)));
        assert!(stream
            .iter()
            .filter(|r| r.kind == Page::AcceptFR)
            .all(|r| (1..=w.users as i64).contains(&r.arg.unwrap())));
    }

    #[test]
    fn every_frame_parses_back() {
        use cachegenie_repro::server::{parse_request, Request};
        for w in &WORKLOADS {
            for r in w.stream(5, 0, 500) {
                assert_eq!(
                    parse_request(&r.line()),
                    Ok(Request::Page {
                        kind: r.kind,
                        user: r.user,
                        arg: r.arg
                    })
                );
            }
        }
    }
}
