//! # cachegenie
//!
//! The paper's primary contribution: **declarative caching abstractions
//! for ORM-based web applications with automatic, trigger-based cache
//! consistency** ("A Trigger-Based Middleware Cache for ORMs",
//! Gupta, Zeldovich, Madden — MIDDLEWARE 2011).
//!
//! The developer declares *cached objects* — instances of four cache
//! classes matching the query patterns ORMs emit:
//!
//! | Class | Caches | Example |
//! |---|---|---|
//! | [`CacheableDef::feature`] | rows matching key fields | a user's profile |
//! | [`CacheableDef::link`] | a join traversal | a user's groups |
//! | [`CacheableDef::count`] | `COUNT(*)` | number of friends |
//! | [`CacheableDef::top_k`] | first K by sort, with reserve | latest 20 wall posts |
//!
//! From one declaration CacheGenie derives (1) the SQL query template,
//! (2) the cache keys, (3) transparent interception of matching ORM
//! queries with read-through fill, and (4) **database triggers** on every
//! underlying table that keep exactly the affected keys consistent on
//! every write — by incremental **update-in-place** (default), precise
//! per-key **invalidation**, or TTL **expiry** ([`ConsistencyStrategy`]).
//!
//! The §3.3 strict-consistency design (two-phase locking over cache keys)
//! is implemented as an opt-in extension in [`strict`].

pub mod def;
pub mod genie;
mod mutation;
pub mod object;
pub mod stats;
pub mod strict;
pub mod triggers;

pub use def::{CacheClassKind, CacheableDef, ConsistencyStrategy, LinkStep, SortOrder};
pub use genie::{CacheGenie, EvalOutcome, GenieConfig};
pub use stats::{GenieStats, GenieStatsSnapshot};
pub use strict::{StrictTxn, StrictTxnManager, TxnOutcome};
