//! The CacheGenie middleware registry: declaration, interception, and
//! read-through fill.

use crate::def::{CacheClassKind, CacheableDef};
use crate::object::ObjectInner;
use crate::stats::{GenieStats, GenieStatsSnapshot};
use crate::strict::StrictTxnManager;
use crate::triggers::build_triggers;
use genie_cache::{CacheCluster, CacheHandle, CacheOrigin, Payload};
use genie_orm::{InterceptOutcome, ModelRegistry, OrmSession, PreparedQuery, QueryInterceptor};
use genie_storage::{
    CommitHook, CostReport, Database, DeferredPublish, QueryResult, Result, Row, Select,
    StorageError, Value,
};
use parking_lot::RwLock;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};

/// CacheGenie tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct GenieConfig {
    /// Model the paper's proposed optimization of reusing memcached
    /// connections across trigger firings (§5.3/§5.5 future work). When
    /// true, triggers charge no connection-open cost.
    pub reuse_trigger_connections: bool,
}

/// Result of a manual [`CacheGenie::evaluate`] call.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Result in executor shape (columns + rows).
    pub result: QueryResult,
    /// True if served without touching the database.
    pub from_cache: bool,
    /// Cache operations performed.
    pub cache_ops: u64,
    /// Database work, if any.
    pub db_cost: CostReport,
}

struct GenieShared {
    db: Database,
    cluster: CacheCluster,
    app_cache: CacheHandle,
    registry: Arc<ModelRegistry>,
    config: GenieConfig,
    stats: Arc<GenieStats>,
    /// The commit-time cache-effect pipeline registered on the database.
    pipeline: Arc<EffectPipeline>,
    /// fingerprint (canonical SQL) -> object.
    by_fingerprint: RwLock<HashMap<String, Arc<ObjectInner>>>,
    /// object name -> object.
    by_name: RwLock<HashMap<String, Arc<ObjectInner>>>,
    /// Tables with at least one cached object (fast reject for Pass).
    tables: RwLock<HashSet<String>>,
    /// Process-unique: whose resolutions a [`PreparedQuery`] holds.
    id: u64,
    /// Bumped by every `cacheable()`: the stamp of those resolutions.
    generation: AtomicU64,
}

/// Per-key flush gate: a committing transaction *reserves* a ticket on
/// each of its touched cache keys while still under the engine latch (a
/// non-blocking enqueue, so reservation order equals commit order), and
/// the deferred publication step — running after the latch drops —
/// waits until its ticket reaches the front of every key's queue. Two
/// committing writers therefore never interleave physical cache
/// operations on one key, per-key publication order matches commit
/// order, and nothing ever blocks while holding the engine latch. A
/// publisher waits only on strictly earlier tickets, so gate waits are
/// acyclic and cannot deadlock.
#[derive(Default)]
struct FlushGate {
    state: StdMutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Key -> FIFO of reserved tickets (front = next to publish).
    queues: HashMap<String, VecDeque<u64>>,
    next_ticket: u64,
}

impl FlushGate {
    /// Enqueues one ticket on every key. Called under the engine latch;
    /// never blocks.
    fn reserve(&self, keys: &BTreeSet<String>) -> u64 {
        let mut st = self.state.lock().unwrap();
        st.next_ticket += 1;
        let ticket = st.next_ticket;
        for key in keys {
            st.queues.entry(key.clone()).or_default().push_back(ticket);
        }
        ticket
    }

    /// Blocks until `ticket` is at the front of every key's queue.
    /// Called by the deferred publish step, outside the latch.
    fn await_turn(&self, keys: &BTreeSet<String>, ticket: u64) {
        let mut st = self.state.lock().unwrap();
        loop {
            let ready = keys
                .iter()
                .all(|k| st.queues.get(k).and_then(|q| q.front()) == Some(&ticket));
            if ready {
                return;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Pops `ticket` off every key's queue and wakes waiting publishers.
    /// Runs from [`GateTurn`]'s `Drop`, so it must not panic: every
    /// update of the queues leaves them valid, and a poisoned lock is
    /// recovered.
    fn release(&self, keys: &BTreeSet<String>, ticket: u64) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        for key in keys {
            if let Some(q) = st.queues.get_mut(key) {
                if let Some(pos) = q.iter().position(|&t| t == ticket) {
                    q.remove(pos);
                }
                if q.is_empty() {
                    st.queues.remove(key);
                }
            }
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// One commit's place in the [`FlushGate`] queues of its keys, plus its
/// strict-mode key locks: released when dropped, so a publication the
/// engine drops unrun (the log rejected the commit, or its sync failed)
/// cannot leave later commits on those keys waiting forever.
struct GateTurn {
    gate: Arc<FlushGate>,
    keys: BTreeSet<String>,
    ticket: u64,
    strict: Option<(StrictTxnManager, genie_cache::TxnId)>,
}

impl Drop for GateTurn {
    fn drop(&mut self) {
        self.gate.release(&self.keys, self.ticket);
        if let Some((mgr, tid)) = self.strict.take() {
            mgr.release(tid);
        }
    }
}

/// The database-side half of the transactional consistency guarantee:
/// registered as the engine's [`CommitHook`], it brackets commit-time
/// trigger firing with a cluster effect batch, so a transaction's cache
/// effects publish on COMMIT and never on abort. Trigger bodies record
/// deltas into the batch; `commit_apply` seals it and reserves the
/// named keys' publication slots in the [`FlushGate`] under the engine
/// latch (non-blocking), and the returned closure waits for its turn
/// and applies the deltas after the latch drops. With a
/// [`StrictTxnManager`] wired in, the flush additionally runs under
/// §3.3 2PL write locks on the touched keys — lock timeout aborts the
/// transaction.
///
/// Deliberately holds no reference back to the [`Database`] (which owns
/// the hook) — only the cluster, stats, gate, and lock table.
struct EffectPipeline {
    cluster: CacheCluster,
    stats: Arc<GenieStats>,
    strict: RwLock<Option<StrictTxnManager>>,
    flush_gate: Arc<FlushGate>,
}

impl EffectPipeline {
    /// Folds the sealed batch into stats and rewrites the commit's
    /// cache-op accounting from the bodies' per-effect counts to the
    /// physical (coalesced) numbers.
    fn settle(&self, summary: genie_cache::EffectBatchSummary, cost: &mut CostReport) {
        let naive = cost.trigger_cache_ops.max(summary.naive_ops());
        let physical = summary.physical_ops();
        if naive == 0 && physical == 0 {
            return; // nothing recorded (e.g. NoCache mode / no triggers)
        }
        self.stats.bump(&self.stats.commit_batches);
        self.stats.add(&self.stats.commit_cache_ops, physical);
        self.stats.add(&self.stats.commit_cache_ops_naive, naive);
        cost.trigger_cache_ops = physical;
        // One pooled connection serves the whole group commit (the
        // per-firing opens the paper measured collapse with the batch).
        cost.trigger_connections = cost.trigger_connections.min(1);
    }
}

impl CommitHook for EffectPipeline {
    fn begin_apply(&self) {
        self.cluster.begin_effect_batch();
    }

    fn commit_apply(&self, cost: &mut CostReport, txn_commit: bool) -> Result<DeferredPublish> {
        // Optional §3.3 strict mode: 2PL write locks on the touched keys,
        // shared with application-side StrictTxns. Bounded attempts model
        // deadlock-by-timeout; exhaustion aborts the transaction.
        let mut strict_pair = None;
        if let Some(mgr) = self.strict.read().clone() {
            let mut keys = self.cluster.effect_batch_keys();
            keys.sort();
            let tid = mgr.alloc_tid();
            for key in &keys {
                if !mgr.acquire_write(tid, key) {
                    mgr.release(tid);
                    self.cluster.discard_effect_batch();
                    self.stats.bump(&self.stats.commit_aborts);
                    return Err(StorageError::LockTimeout { table: key.clone() });
                }
            }
            strict_pair = Some((mgr, tid));
        }
        let Some(prepared) = self.cluster.take_effect_batch() else {
            if let Some((mgr, tid)) = strict_pair {
                mgr.release(tid);
            }
            return Ok(None);
        };
        if txn_commit {
            // Autocommitted statements keep their per-statement
            // accounting (the paper's measured per-firing costs); only a
            // transaction's COMMIT reports the group-coalesced numbers.
            self.settle(prepared.summary(), cost);
        }
        if prepared.is_empty() && strict_pair.is_none() {
            return Ok(None);
        }
        // Reservation (non-blocking, under the latch) pins this commit's
        // per-key publication slot; the wait happens in the deferred
        // step, after the engine releases its latch. Dropping the step
        // unrun drops the batch (lifting its fences) and the turn.
        let keys: BTreeSet<String> = prepared.keys().into_iter().collect();
        let turn = GateTurn {
            ticket: self.flush_gate.reserve(&keys),
            gate: Arc::clone(&self.flush_gate),
            keys,
            strict: strict_pair,
        };
        let stats = Arc::clone(&self.stats);
        Ok(Some(Box::new(move || {
            turn.gate.await_turn(&turn.keys, turn.ticket);
            let applied = prepared.publish().applied;
            drop(turn);
            stats.add_applied(&applied);
            // A COMMIT's cost already carries the coalesced count.
            if txn_commit {
                0
            } else {
                applied.round_trips
            }
        })))
    }

    fn abort_apply(&self) {
        let discarded = self.cluster.discard_effect_batch();
        if discarded.naive_ops() > 0 {
            self.stats.bump(&self.stats.commit_aborts);
        }
    }
}

/// The caching middleware (Figure 1c): declare cached objects with
/// [`CacheGenie::cacheable`], install on a session with
/// [`CacheGenie::install`], and the rest — query generation, trigger
/// generation, transparent interception, read-through fill, incremental
/// consistency — is automatic.
///
/// # Example
///
/// ```
/// use cachegenie::{CacheGenie, CacheableDef, GenieConfig};
/// use genie_cache::{CacheCluster, ClusterConfig};
/// use genie_orm::{FieldDef, ModelDef, ModelRegistry, OrmSession};
/// use genie_storage::{Database, Value, ValueType};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), genie_storage::StorageError> {
/// let mut registry = ModelRegistry::new();
/// registry.register(
///     ModelDef::builder("Profile", "profiles")
///         .field(FieldDef::new("user_id", ValueType::Int).indexed())
///         .field(FieldDef::new("bio", ValueType::Text))
///         .build(),
/// )?;
/// let registry = Arc::new(registry);
/// let db = Database::default();
/// registry.sync(&db)?;
/// let session = OrmSession::new(db.clone(), Arc::clone(&registry));
///
/// let genie = CacheGenie::new(
///     db,
///     CacheCluster::new(ClusterConfig::default()),
///     registry,
///     GenieConfig::default(),
/// );
/// // The paper's profile example: one declaration, no other app changes.
/// genie.cacheable(
///     CacheableDef::feature("cached_user_profile", "Profile").where_fields(&["user_id"]),
/// )?;
/// genie.install(&session);
///
/// session.create("Profile", &[("user_id", Value::Int(42)), ("bio", "hi".into())])?;
/// let qs = session.objects("Profile")?.filter_eq("user_id", 42i64);
/// let miss = session.all(&qs)?; // fills the cache
/// let hit = session.all(&qs)?;  // served from memcached-alike
/// assert!(!miss.from_cache && hit.from_cache);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct CacheGenie {
    shared: Arc<GenieShared>,
}

impl std::fmt::Debug for CacheGenie {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheGenie")
            .field("objects", &self.shared.by_name.read().len())
            .finish()
    }
}

impl CacheGenie {
    /// Creates the middleware over a database, cache cluster, and model
    /// registry.
    pub fn new(
        db: Database,
        cluster: CacheCluster,
        registry: Arc<ModelRegistry>,
        config: GenieConfig,
    ) -> Self {
        let app_cache = cluster.handle(CacheOrigin::Application);
        let stats = Arc::new(GenieStats::new());
        let pipeline = Arc::new(EffectPipeline {
            cluster: cluster.clone(),
            stats: Arc::clone(&stats),
            strict: RwLock::new(None),
            flush_gate: Arc::new(FlushGate::default()),
        });
        db.set_commit_hook(Arc::clone(&pipeline) as Arc<dyn CommitHook>);
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        CacheGenie {
            shared: Arc::new(GenieShared {
                db,
                cluster,
                app_cache,
                registry,
                config,
                stats,
                pipeline,
                by_fingerprint: RwLock::new(HashMap::new()),
                by_name: RwLock::new(HashMap::new()),
                tables: RwLock::new(HashSet::new()),
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                generation: AtomicU64::new(0),
            }),
        }
    }

    /// Wires the §3.3 strict-consistency extension into the commit
    /// pipeline: publishing a transaction's cache effects write-locks the
    /// touched keys through `manager`'s lock table (two-phase locking),
    /// and a lock timeout aborts the whole database transaction. Share
    /// one manager between application-side [`crate::StrictTxn`]s and
    /// this hook so both sides agree on the locks.
    pub fn set_strict_commit(&self, manager: &StrictTxnManager) {
        *self.shared.pipeline.strict.write() = Some(manager.clone());
    }

    /// Declares a cached object: compiles the query template, registers it
    /// for interception, and installs the consistency triggers — the
    /// entire `cacheable(...)` call from §3.1.
    ///
    /// # Errors
    ///
    /// Validation errors, unknown models/fields, or duplicate names.
    pub fn cacheable(&self, def: CacheableDef) -> Result<()> {
        if def.name.contains(':') {
            return Err(StorageError::Parse(
                "cached object names must not contain ':'".into(),
            ));
        }
        if self.shared.by_name.read().contains_key(&def.name) {
            return Err(StorageError::AlreadyExists(def.name));
        }
        let obj = Arc::new(ObjectInner::compile(def, &self.shared.registry)?);
        for trigger in build_triggers(
            &obj,
            &self.shared.cluster,
            &self.shared.stats,
            &self.shared.config,
        ) {
            self.shared.db.create_trigger(trigger)?;
        }
        self.shared
            .by_fingerprint
            .write()
            .insert(obj.fingerprint.clone(), Arc::clone(&obj));
        self.shared.tables.write().insert(obj.table.clone());
        self.shared
            .by_name
            .write()
            .insert(obj.def.name.clone(), obj);
        // After the maps: a resolution stamped with the new generation
        // has seen this object.
        self.shared.generation.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Installs this middleware as the session's query interceptor.
    pub fn install(&self, session: &OrmSession) {
        session.set_interceptor(Arc::new(self.clone()));
    }

    /// Evaluates a cached object by name with concrete key values — the
    /// manual path for objects declared with
    /// [`CacheableDef::manual_only`].
    ///
    /// # Errors
    ///
    /// Unknown object names and database errors.
    pub fn evaluate(&self, name: &str, params: &[Value]) -> Result<EvalOutcome> {
        let obj = self.object(name)?;
        self.shared.serve(&obj, params)
    }

    /// The declared object named `name`.
    fn object(&self, name: &str) -> Result<Arc<ObjectInner>> {
        let objects = self.shared.by_name.read();
        let obj = objects.get(name).cloned();
        obj.ok_or_else(|| StorageError::UnknownIndex(format!("cached object {name}")))
    }

    /// The cache key a cached object uses for concrete key values —
    /// needed by the strict-consistency extension to lock keys, and handy
    /// for diagnostics.
    ///
    /// # Errors
    ///
    /// Unknown object names, a count of values other than the object's
    /// key fields, and [`StorageError::Unsupported`] for values no key
    /// holds (NULL, or not of the key column's type).
    pub fn key_for(&self, name: &str, params: &[Value]) -> Result<String> {
        self.key_of(name, params)?
            .ok_or_else(|| StorageError::Unsupported(format!("no cache key for {params:?}")))
    }

    /// [`CacheGenie::key_for`], with `None` for values no key holds: a
    /// read of them goes to the database, and no trigger maintains them.
    pub(crate) fn key_of(&self, name: &str, params: &[Value]) -> Result<Option<String>> {
        let obj = self.object(name)?;
        if params.len() != obj.key_types.len() {
            let want = obj.key_types.len();
            let msg = format!("cached object {name} takes {want} key values, got {params:?}");
            return Err(StorageError::Unsupported(msg));
        }
        Ok(obj.make_key(params))
    }

    /// Cross-checks one cached object instance against the database: re-
    /// evaluates the object's query fresh and compares it to whatever the
    /// cache currently holds under its key. `Ok(true)` means coherent —
    /// the key is absent, unservable (a short Top-K that a read would
    /// recompute), or byte-equal to the database answer. Run it on a
    /// quiescent system (e.g. after a concurrency experiment joins its
    /// writer threads) — a check racing live commits can report
    /// transient mismatches that are not violations.
    ///
    /// # Errors
    ///
    /// Unknown object names and database errors.
    pub fn verify_coherence(&self, name: &str, params: &[Value]) -> Result<bool> {
        let obj = self.object(name)?;
        let Some(key) = obj.make_key(params) else {
            return Ok(true);
        };
        let cached = match self.shared.app_cache.get_payload(&key) {
            Ok(Some(p)) => p,
            // Absent is always coherent; undecodable bytes are a
            // violation (nothing the engine writes should be corrupt).
            Ok(None) => return Ok(true),
            Err(_) => return Ok(false),
        };
        match &obj.def.kind {
            CacheClassKind::Count => {
                let out = self.shared.db.execute_prepared(&obj.template, params)?;
                let n = out.result.scalar().and_then(|v| v.as_int()).unwrap_or(0);
                Ok(matches!(cached, Payload::Count(c) if c == n))
            }
            CacheClassKind::TopK { .. } => {
                let Payload::TopK { rows, complete } = cached else {
                    return Ok(false);
                };
                let k = obj.k();
                if rows.len() < k && !complete {
                    // A read would treat this as a miss and recompute.
                    return Ok(true);
                }
                let fill = obj.fill_template.as_ref().expect("TopK has fill template");
                let out = self.shared.db.execute_prepared(fill, params)?;
                let want: Vec<Row> = out.result.rows.into_iter().take(k).collect();
                let got: Vec<Row> = rows.into_iter().take(k).collect();
                Ok(got == want)
            }
            _ => {
                let Payload::Rows(rows) = cached else {
                    return Ok(false);
                };
                let out = self.shared.db.execute_prepared(&obj.template, params)?;
                Ok(rows == out.result.rows)
            }
        }
    }

    /// Point-in-time statistics, with the cache tier's store-level
    /// counters merged in from the cluster.
    pub fn stats(&self) -> GenieStatsSnapshot {
        let mut snap = self.shared.stats.snapshot();
        let cs = self.shared.cluster.stats();
        snap.store_app_hits = cs.store.app_hits;
        snap.store_app_misses = cs.store.app_misses;
        snap.store_trigger_hits = cs.store.trigger_hits;
        snap.store_trigger_misses = cs.store.trigger_misses;
        snap
    }

    /// Zeroes statistics (between warm-up and measurement).
    pub fn reset_stats(&self) {
        self.shared.stats.reset();
    }

    /// Number of declared cached objects.
    pub fn object_count(&self) -> usize {
        self.shared.by_name.read().len()
    }

    /// Declared object names, sorted.
    pub fn object_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.by_name.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Total generated trigger-source lines across declared objects (the
    /// paper's §5.2 programmer-effort metric).
    pub fn generated_trigger_lines(&self) -> usize {
        self.shared.db.trigger_source_lines()
    }

    /// Number of installed triggers.
    pub fn trigger_count(&self) -> usize {
        self.shared.db.trigger_count()
    }

    /// The cache cluster (for stats and experiment plumbing).
    pub fn cluster(&self) -> &CacheCluster {
        &self.shared.cluster
    }
}

impl GenieShared {
    /// Propagates a database read made under a fill lease, cancelling
    /// the lease on error so a read that will never complete its fill
    /// does not leave a phantom entry in the lease table.
    fn lease_read<T>(&self, key: &str, lease: u64, read: Result<T>) -> Result<T> {
        if read.is_err() {
            self.cluster.cancel_lease(key, lease);
        }
        read
    }

    /// Books a completed [`genie_cache::CacheHandle::fill`] attempt: a
    /// landed fill counts as a fill, a lease-revoked one as a drop (a
    /// concurrent writer published fresher data first).
    fn record_fill(&self, landed: genie_cache::Result<bool>) {
        match landed {
            Ok(true) | Err(_) => self.stats.bump(&self.stats.fills),
            Ok(false) => self.stats.bump(&self.stats.fills_dropped),
        }
    }

    /// Serves one cached object for concrete key values: cache hit,
    /// read-through fill, or (Top-K) internal over-fetch.
    fn serve(&self, obj: &ObjectInner, params: &[Value]) -> Result<EvalOutcome> {
        // While a transaction is open, bypass the cache entirely: a fill
        // would publish uncommitted rows (dirty on rollback), and a hit
        // could hide the transaction's own writes. The commit pipeline
        // publishes the effects when — and only when — the COMMIT lands.
        if self.db.in_transaction() {
            self.stats.bump(&self.stats.txn_bypasses);
            return self.read_uncached(obj, params);
        }
        let Some(key) = obj.make_key(params) else {
            return self.read_uncached(obj, params);
        };
        match &obj.def.kind {
            CacheClassKind::TopK { .. } => self.serve_top_k(obj, &key, params),
            CacheClassKind::Count => {
                let mut cache_ops = 1;
                match self.app_cache.get_payload(&key) {
                    Ok(Some(Payload::Count(n))) => {
                        self.stats.bump(&self.stats.cache_hits);
                        return Ok(EvalOutcome {
                            result: count_result(obj, n),
                            from_cache: true,
                            cache_ops,
                            db_cost: CostReport::new(),
                        });
                    }
                    Ok(Some(_)) | Err(_) => {
                        // Wrong shape or corrupt: drop and refill.
                        cache_ops += 1;
                        self.app_cache.delete(&key);
                    }
                    Ok(None) => {}
                }
                self.stats.bump(&self.stats.cache_misses);
                // Lease before the database read: a writer committing
                // between this read and the fill revokes the lease, so a
                // stale count can never land (see CacheHandle::fill).
                // Under MVCC the read no longer blocks behind open
                // writer transactions (it resolves a snapshot), so this
                // ordering alone carries the guarantee; the commit epoch
                // is published before the cache publication runs, so a
                // lease taken after a publish always reads fresh state
                // (docs/ISOLATION.md, core/tests/mvcc_fill.rs).
                let lease = self.cluster.lease(&key);
                let out =
                    self.lease_read(&key, lease, self.db.execute_prepared(&obj.template, params))?;
                let n = out.result.scalar().and_then(|v| v.as_int()).unwrap_or(0);
                cache_ops += 1;
                self.record_fill(self.app_cache.fill_payload(
                    &key,
                    &Payload::Count(n),
                    obj.fill_ttl(),
                    lease,
                ));
                Ok(EvalOutcome {
                    result: count_result(obj, n),
                    from_cache: false,
                    cache_ops,
                    db_cost: out.cost,
                })
            }
            _ => {
                let mut cache_ops = 1;
                match self.app_cache.get_payload(&key) {
                    Ok(Some(Payload::Rows(rows))) => {
                        self.stats.bump(&self.stats.cache_hits);
                        return Ok(EvalOutcome {
                            result: rows_result(obj, rows),
                            from_cache: true,
                            cache_ops,
                            db_cost: CostReport::new(),
                        });
                    }
                    Ok(Some(_)) | Err(_) => {
                        cache_ops += 1;
                        self.app_cache.delete(&key);
                    }
                    Ok(None) => {}
                }
                self.stats.bump(&self.stats.cache_misses);
                let lease = self.cluster.lease(&key);
                let out =
                    self.lease_read(&key, lease, self.db.execute_prepared(&obj.template, params))?;
                cache_ops += 1;
                self.record_fill(self.app_cache.fill(
                    &key,
                    Payload::encode_rows(&out.result.rows),
                    obj.fill_ttl(),
                    lease,
                ));
                Ok(EvalOutcome {
                    result: rows_result(obj, out.result.rows),
                    from_cache: false,
                    cache_ops,
                    db_cost: out.cost,
                })
            }
        }
    }

    /// The object's answer straight from the database, cache untouched.
    fn read_uncached(&self, obj: &ObjectInner, params: &[Value]) -> Result<EvalOutcome> {
        let out = self.db.execute_prepared(&obj.template, params)?;
        let result = match &obj.def.kind {
            CacheClassKind::Count => count_result(
                obj,
                out.result.scalar().and_then(|v| v.as_int()).unwrap_or(0),
            ),
            _ => rows_result(obj, out.result.rows),
        };
        Ok(EvalOutcome {
            result,
            from_cache: false,
            cache_ops: 0,
            db_cost: out.cost,
        })
    }

    fn serve_top_k(&self, obj: &ObjectInner, key: &str, params: &[Value]) -> Result<EvalOutcome> {
        let k = obj.k();
        let mut cache_ops = 1;
        match self.app_cache.get_payload(key) {
            Ok(Some(Payload::TopK { rows, complete })) if rows.len() >= k || complete => {
                self.stats.bump(&self.stats.cache_hits);
                let served: Vec<Row> = rows.into_iter().take(k).collect();
                return Ok(EvalOutcome {
                    result: rows_result(obj, served),
                    from_cache: true,
                    cache_ops,
                    db_cost: CostReport::new(),
                });
            }
            Ok(Some(_)) | Err(_) => {
                // Short (reserve gone) or wrong shape: recompute.
                cache_ops += 1;
                self.app_cache.delete(key);
            }
            Ok(None) => {}
        }
        self.stats.bump(&self.stats.cache_misses);
        // Over-fetch K + reserve for incremental delete headroom (§3.2).
        let lease = self.cluster.lease(key);
        let fill = obj.fill_template.as_ref().expect("TopK has fill template");
        let out = self.lease_read(key, lease, self.db.execute_prepared(fill, params))?;
        let rows = out.result.rows;
        let complete = rows.len() < obj.capacity;
        cache_ops += 1;
        self.record_fill(self.app_cache.fill(
            key,
            Payload::encode_top_k(&rows, complete),
            obj.fill_ttl(),
            lease,
        ));
        let served: Vec<Row> = rows.into_iter().take(k).collect();
        Ok(EvalOutcome {
            result: rows_result(obj, served),
            from_cache: false,
            cache_ops,
            db_cost: out.cost,
        })
    }
}

fn rows_result(obj: &ObjectInner, rows: Vec<Row>) -> QueryResult {
    QueryResult {
        columns: Arc::clone(&obj.columns),
        rows,
        rows_affected: 0,
    }
}

fn count_result(obj: &ObjectInner, n: i64) -> QueryResult {
    QueryResult {
        columns: Arc::clone(&obj.columns),
        rows: vec![Row::new(vec![Value::Int(n)])],
        rows_affected: 0,
    }
}

impl GenieShared {
    /// The transparently served object whose template is `fingerprint`
    /// (a query on `table`).
    fn object_for(
        &self,
        table: &str,
        fingerprint: impl FnOnce() -> String,
    ) -> Option<Arc<ObjectInner>> {
        // Fast reject: no cached object involves this base table.
        if !self.tables.read().contains(table) {
            return None;
        }
        let obj = self.by_fingerprint.read().get(&fingerprint()).cloned()?;
        obj.def.use_transparently.then_some(obj)
    }

    fn intercept(&self, obj: Option<&ObjectInner>, params: &[Value]) -> InterceptOutcome {
        match obj.map(|obj| self.serve(obj, params)) {
            Some(Ok(out)) => InterceptOutcome::Served {
                result: out.result,
                cache_ops: out.cache_ops,
                db_cost: out.db_cost,
                from_cache: out.from_cache,
            },
            // Serving errors fall back to the plain database path.
            Some(Err(_)) | None => InterceptOutcome::Pass,
        }
    }
}

impl QueryInterceptor for CacheGenie {
    fn try_serve(&self, select: &Select, params: &[Value]) -> InterceptOutcome {
        let obj = self
            .shared
            .object_for(&select.from.table, || select.to_string());
        self.shared.intercept(obj.as_deref(), params)
    }

    /// Matches the query's SQL text against the declared templates once
    /// per declaration generation, and keeps the answer on the handle.
    fn try_serve_prepared(&self, query: &PreparedQuery, params: &[Value]) -> InterceptOutcome {
        let shared = &*self.shared;
        let generation = shared.generation.load(Ordering::SeqCst);
        let object = query.resolution(shared.id, generation, || {
            shared.object_for(&query.select().from.table, || {
                query.fingerprint().to_owned()
            })
        });
        shared.intercept(object.as_deref(), params)
    }

    fn fill(&self, _fill_key: &str, _result: &QueryResult) -> u64 {
        // Fills happen inside `serve` (the middleware issues its own
        // database query when needed), so the session-level fill path is
        // never used by CacheGenie.
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genie_cache::Delta;

    fn pipeline(cluster: &CacheCluster, strict: Option<StrictTxnManager>) -> EffectPipeline {
        EffectPipeline {
            cluster: cluster.clone(),
            stats: Arc::new(GenieStats::new()),
            strict: RwLock::new(strict),
            flush_gate: Arc::new(FlushGate::default()),
        }
    }

    /// A publication the engine drops unrun — its commit's log append or
    /// sync failed — releases its gate turn, its strict locks and its
    /// fences, so the next commit on the key publishes and fills land.
    #[test]
    fn an_unrun_publication_releases_its_turn_locks_and_fences() {
        let cluster = CacheCluster::new(Default::default());
        let mgr = StrictTxnManager::new();
        let p = pipeline(&cluster, Some(mgr.clone()));
        let app = cluster.handle(CacheOrigin::Application);
        app.set_payload("k", &Payload::Count(1), None).unwrap();

        p.begin_apply();
        cluster.record("k", Delta::Incr(1));
        let dropped = p.commit_apply(&mut CostReport::new(), false).unwrap();
        assert_eq!(mgr.locked_keys(), 1);
        drop(dropped);
        assert!(p.flush_gate.state.lock().unwrap().queues.is_empty());
        assert_eq!(mgr.locked_keys(), 0);

        p.begin_apply();
        cluster.record("k", Delta::Incr(5));
        let publish = p.commit_apply(&mut CostReport::new(), false).unwrap();
        assert_eq!(publish.expect("a publication")(), 1, "one incr round trip");
        assert_eq!(app.get_payload("k").unwrap().unwrap().as_count(), Some(6));
        assert_eq!(p.stats.snapshot().inplace_updates, 1);
        let lease = cluster.lease("k");
        assert!(app
            .fill_payload("k", &Payload::Count(6), None, lease)
            .unwrap());
    }
}
