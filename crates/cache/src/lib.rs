//! # genie-cache
//!
//! A memcached-like distributed in-memory cache, the caching layer of the
//! CacheGenie reproduction. Feature-parity targets what the paper uses
//! from memcached 1.4.5:
//!
//! * per-server LRU stores with byte-accurate memory accounting and TTL
//!   expiry ([`CacheStore`]);
//! * `get`/`gets`/`set`/`add`/`cas`/`delete`/`incr` — including the CAS
//!   loop the paper's generated Top-K trigger relies on;
//! * a consistent-hash **cluster** presenting one logical cache across
//!   servers ([`CacheCluster`]), with distinct application/trigger origins
//!   so the "triggers bump LRU" behaviour called out in §4 of the paper
//!   can be toggled;
//! * a typed, checksummed, row-framed payload codec ([`Payload`]) whose
//!   list shapes triggers splice in place ([`EncodedList`]) — the same
//!   `gets` → modify → `cas` round trip as the Python triggers, at the
//!   cost of the rows changed;
//! * the §3.3 strict-consistency **key lock table** ([`KeyLockTable`]) —
//!   designed but not built in the paper; implemented here as an extension.

pub mod cluster;
pub mod codec;
pub mod error;
pub mod hotkey;
pub mod lock;
pub mod replica;
pub mod shard;
pub mod store;

pub use cluster::{
    CacheCluster, CacheHandle, ClusterConfig, ClusterStats, EffectBatchSummary,
    PreparedEffectBatch, ServerStats,
};
pub use codec::{hash_key, Edit, EncodedList, Frame, Payload, RowView};
pub use error::{CacheError, Result};
pub use hotkey::{HotKeyConfig, HotKeyDetector};
pub use lock::{KeyLockTable, LockOutcome, TxnId};
pub use replica::ReplicaTable;
pub use shard::{split_capacity, ShardedStore};
pub use store::{CacheOrigin, CacheStore, StoreConfig, StoreStats, ValueWithCas};
