//! # genie-cache
//!
//! A memcached-like distributed in-memory cache, the caching layer of the
//! CacheGenie reproduction. Feature-parity targets what the paper uses
//! from memcached 1.4.5:
//!
//! * per-server LRU stores with byte-accurate memory accounting and TTL
//!   expiry ([`CacheStore`]);
//! * `get`/`gets`/`set`/`add`/`cas`/`delete`/`incr`;
//! * a consistent-hash **cluster** presenting one logical cache across
//!   servers ([`CacheCluster`]): each key has one copy, on its alive ring
//!   owner, and a killed node's keys rehash to its successors as misses;
//!   distinct application/trigger origins let the "triggers bump LRU"
//!   behaviour called out in §4 of the paper be toggled;
//! * a typed, checksummed, row-framed payload codec ([`Payload`]) whose
//!   list shapes are spliced in place ([`EncodedList`]), at the cost of
//!   the rows changed;
//! * transactional effect batches: triggers record per-key [`Delta`]s
//!   during a commit, and publication applies them where the value
//!   lives — the Python triggers' `gets` → modify → `cas`, without the
//!   client read;
//! * the §3.3 strict-consistency **key lock table** ([`KeyLockTable`]) —
//!   designed but not built in the paper; implemented here as an extension.

pub mod cluster;
pub mod codec;
pub mod delta;
pub mod error;
pub mod lock;
pub mod shard;
pub mod store;

pub use cluster::{
    CacheCluster, CacheHandle, ClusterConfig, ClusterStats, EffectBatchSummary,
    PreparedEffectBatch, ServerStats,
};
pub use codec::{hash_key, Edit, EncodedList, Frame, Payload, RowView};
pub use delta::{Applied, Delta, ListEdit, Mutation};
pub use error::{CacheError, Result};
pub use lock::{KeyLockTable, LockOutcome, TxnId};
pub use shard::{split_capacity, ShardedStore};
pub use store::{CacheOrigin, CacheStore, StoreConfig, StoreStats, ValueWithCas};
