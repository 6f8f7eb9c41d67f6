//! Row-level AFTER triggers.
//!
//! This is the database primitive CacheGenie builds on: for every cached
//! object it installs INSERT/UPDATE/DELETE triggers on the underlying
//! tables, and the trigger bodies push invalidations or incremental updates
//! into the cache *synchronously, inside the write statement* — which is
//! what gives the paper its "users see their own writes immediately"
//! guarantee (§3.3).
//!
//! Semantics mirror PostgreSQL `AFTER <event> FOR EACH ROW` triggers:
//! bodies observe the post-change table state, receive OLD/NEW row images,
//! may run read-only queries against the database, and an error aborts the
//! whole statement.

use crate::cost::CostReport;
use crate::error::Result;
use crate::prepared::{PreparedSelect, StatementCache};
use crate::query::{QueryResult, Select};
use crate::row::Row;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Which write event a trigger reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerEvent {
    /// Fired once per inserted row; `new` is set.
    Insert,
    /// Fired once per updated row; `old` and `new` are set.
    Update,
    /// Fired once per deleted row; `old` is set.
    Delete,
}

impl fmt::Display for TriggerEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TriggerEvent::Insert => "INSERT",
            TriggerEvent::Update => "UPDATE",
            TriggerEvent::Delete => "DELETE",
        };
        f.write_str(s)
    }
}

/// What a trigger body can see and do. Constructed by the executor after
/// each row change; bodies get the row images plus a read-only query
/// surface and cost-accounting hooks.
pub struct TriggerCtx<'a> {
    /// The event that fired.
    pub event: TriggerEvent,
    /// Table the event occurred on.
    pub table: &'a str,
    /// Pre-image (UPDATE and DELETE).
    pub old: Option<&'a Row>,
    /// Post-image (INSERT and UPDATE).
    pub new: Option<&'a Row>,
    /// Read-only query callback into the engine. Boxed so `trigger.rs`
    /// stays decoupled from the executor internals.
    pub(crate) query_fn: &'a mut dyn FnMut(&PreparedSelect, &[Value]) -> Result<QueryResult>,
    /// The engine's statement cache, for bodies that query by [`Select`].
    pub(crate) statements: &'a StatementCache,
    /// Cost sink for work done inside the trigger.
    pub(crate) cost: &'a mut CostReport,
}

impl fmt::Debug for TriggerCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TriggerCtx")
            .field("event", &self.event)
            .field("table", &self.table)
            .field("old", &self.old)
            .field("new", &self.new)
            .finish_non_exhaustive()
    }
}

impl TriggerCtx<'_> {
    /// Runs a read-only query against the database from inside the trigger
    /// (Postgres triggers do this to compute incremental updates).
    ///
    /// # Errors
    ///
    /// Propagates executor errors; an error aborts the outer statement.
    pub fn query(&mut self, select: &Select, params: &[Value]) -> Result<QueryResult> {
        let prepared = self.statements.get(select);
        self.query_prepared(&prepared, params)
    }

    /// [`TriggerCtx::query`] for a body that keeps its statements
    /// prepared (generated triggers run the same few templates on every
    /// firing).
    ///
    /// # Errors
    ///
    /// Propagates executor errors; an error aborts the outer statement.
    pub fn query_prepared(
        &mut self,
        prepared: &PreparedSelect,
        params: &[Value],
    ) -> Result<QueryResult> {
        (self.query_fn)(prepared, params)
    }

    /// Records `n` cache operations performed by this trigger body. The
    /// cost model prices each at the paper's measured ~0.2 ms.
    pub fn charge_cache_ops(&mut self, n: u64) {
        self.cost.trigger_cache_ops += n;
    }

    /// Records that the trigger opened a (modelled) remote cache
    /// connection — the dominant trigger cost in the paper's §5.3
    /// microbenchmark (INSERT latency 6.5 ms → 11.9 ms).
    pub fn charge_connection_open(&mut self) {
        self.cost.trigger_connections += 1;
    }

    /// The row a key-extraction body should use: NEW for inserts/updates,
    /// OLD for deletes.
    pub fn effective_row(&self) -> Option<&Row> {
        self.new.or(self.old)
    }
}

/// A trigger body. Implemented for closures.
pub trait TriggerBody: Send + Sync {
    /// Runs the body; an error aborts the triggering statement.
    fn fire(&self, ctx: &mut TriggerCtx<'_>) -> Result<()>;
}

impl<F> TriggerBody for F
where
    F: Fn(&mut TriggerCtx<'_>) -> Result<()> + Send + Sync,
{
    fn fire(&self, ctx: &mut TriggerCtx<'_>) -> Result<()> {
        self(ctx)
    }
}

/// A registered trigger.
#[derive(Clone)]
pub struct Trigger {
    /// Unique trigger name.
    pub name: String,
    /// Table it watches.
    pub table: String,
    /// Event it reacts to.
    pub event: TriggerEvent,
    /// Executable body.
    pub body: Arc<dyn TriggerBody>,
    /// Generated source listing, if the trigger was produced by a code
    /// generator (CacheGenie reports lines of generated trigger code).
    pub source: Option<String>,
}

impl Trigger {
    /// Creates a trigger from a closure body.
    pub fn new(
        name: impl Into<String>,
        table: impl Into<String>,
        event: TriggerEvent,
        body: impl TriggerBody + 'static,
    ) -> Self {
        Trigger {
            name: name.into(),
            table: table.into(),
            event,
            body: Arc::new(body),
            source: None,
        }
    }

    /// Attaches a generated source listing.
    pub fn with_source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }
}

impl fmt::Debug for Trigger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trigger")
            .field("name", &self.name)
            .field("table", &self.table)
            .field("event", &self.event)
            .field("has_source", &self.source.is_some())
            .finish()
    }
}

/// The per-database trigger registry.
#[derive(Debug, Default)]
pub struct TriggerManager {
    triggers: Vec<Trigger>,
    /// Global enable switch; Experiment 5 replays the workload with
    /// triggers off to measure the consistency overhead.
    enabled: bool,
}

impl TriggerManager {
    /// Creates an empty, enabled registry.
    pub fn new() -> Self {
        TriggerManager {
            triggers: Vec::new(),
            enabled: true,
        }
    }

    /// Registers a trigger. Names must be unique.
    ///
    /// # Errors
    ///
    /// [`crate::StorageError::AlreadyExists`] on a duplicate name.
    pub fn register(&mut self, trigger: Trigger) -> Result<()> {
        if self.triggers.iter().any(|t| t.name == trigger.name) {
            return Err(crate::StorageError::AlreadyExists(trigger.name));
        }
        self.triggers.push(trigger);
        Ok(())
    }

    /// Removes a trigger by name; returns whether it existed.
    pub fn drop_trigger(&mut self, name: &str) -> bool {
        let before = self.triggers.len();
        self.triggers.retain(|t| t.name != name);
        self.triggers.len() != before
    }

    /// Removes every trigger.
    pub fn clear(&mut self) {
        self.triggers.clear();
    }

    /// Globally enables or disables firing.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether firing is globally enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// All triggers matching `(table, event)`, cloned so the executor can
    /// fire them without holding a borrow of the registry.
    pub fn matching(&self, table: &str, event: TriggerEvent) -> Vec<Trigger> {
        if !self.enabled {
            return Vec::new();
        }
        self.triggers
            .iter()
            .filter(|t| t.table == table && t.event == event)
            .cloned()
            .collect()
    }

    /// Whether any enabled trigger watches `table` (any event). The
    /// engine uses this to decide if a write on `table` must run in
    /// exclusive (trigger-firing) mode.
    pub fn has_for_table(&self, table: &str) -> bool {
        self.enabled && self.triggers.iter().any(|t| t.table == table)
    }

    /// Every registered trigger.
    pub fn all(&self) -> &[Trigger] {
        &self.triggers
    }

    /// Number of registered triggers.
    pub fn len(&self) -> usize {
        self.triggers.len()
    }

    /// True if no triggers are registered.
    pub fn is_empty(&self) -> bool {
        self.triggers.is_empty()
    }

    /// Total lines across all attached source listings — reproduces the
    /// paper's "1720 lines of generated trigger code" metric.
    pub fn generated_source_lines(&self) -> usize {
        self.triggers
            .iter()
            .filter_map(|t| t.source.as_deref())
            .map(|s| s.lines().count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn noop() -> impl TriggerBody {
        |_: &mut TriggerCtx<'_>| Ok(())
    }

    #[test]
    fn register_and_match() {
        let mut m = TriggerManager::new();
        m.register(Trigger::new("t1", "wall", TriggerEvent::Insert, noop()))
            .unwrap();
        m.register(Trigger::new("t2", "wall", TriggerEvent::Delete, noop()))
            .unwrap();
        assert_eq!(m.matching("wall", TriggerEvent::Insert).len(), 1);
        assert_eq!(m.matching("wall", TriggerEvent::Update).len(), 0);
        assert_eq!(m.matching("other", TriggerEvent::Insert).len(), 0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut m = TriggerManager::new();
        m.register(Trigger::new("t", "a", TriggerEvent::Insert, noop()))
            .unwrap();
        assert!(m
            .register(Trigger::new("t", "b", TriggerEvent::Delete, noop()))
            .is_err());
    }

    #[test]
    fn disable_suppresses_matching() {
        let mut m = TriggerManager::new();
        m.register(Trigger::new("t", "a", TriggerEvent::Insert, noop()))
            .unwrap();
        m.set_enabled(false);
        assert!(m.matching("a", TriggerEvent::Insert).is_empty());
        m.set_enabled(true);
        assert_eq!(m.matching("a", TriggerEvent::Insert).len(), 1);
    }

    #[test]
    fn drop_trigger_by_name() {
        let mut m = TriggerManager::new();
        m.register(Trigger::new("t", "a", TriggerEvent::Insert, noop()))
            .unwrap();
        assert!(m.drop_trigger("t"));
        assert!(!m.drop_trigger("t"));
        assert!(m.is_empty());
    }

    #[test]
    fn source_line_accounting() {
        let mut m = TriggerManager::new();
        m.register(
            Trigger::new("t", "a", TriggerEvent::Insert, noop()).with_source("line1\nline2\nline3"),
        )
        .unwrap();
        m.register(Trigger::new("u", "a", TriggerEvent::Delete, noop()))
            .unwrap();
        assert_eq!(m.generated_source_lines(), 3);
    }

    #[test]
    fn closure_bodies_fire() {
        static FIRED: AtomicUsize = AtomicUsize::new(0);
        let body = |_ctx: &mut TriggerCtx<'_>| {
            FIRED.fetch_add(1, Ordering::SeqCst);
            Ok(())
        };
        let t = Trigger::new("t", "a", TriggerEvent::Insert, body);
        let mut cost = CostReport::new();
        let mut qf = |_: &PreparedSelect, _: &[Value]| Ok(QueryResult::default());
        let mut ctx = TriggerCtx {
            event: TriggerEvent::Insert,
            table: "a",
            old: None,
            new: None,
            query_fn: &mut qf,
            statements: &StatementCache::default(),
            cost: &mut cost,
        };
        t.body.fire(&mut ctx).unwrap();
        ctx.charge_cache_ops(2);
        ctx.charge_connection_open();
        assert_eq!(FIRED.load(Ordering::SeqCst), 1);
        assert_eq!(cost.trigger_cache_ops, 2);
        assert_eq!(cost.trigger_connections, 1);
    }

    #[test]
    fn effective_row_prefers_new() {
        let r_new = Row::new(vec![Value::Int(1)]);
        let r_old = Row::new(vec![Value::Int(0)]);
        let mut cost = CostReport::new();
        let mut qf = |_: &PreparedSelect, _: &[Value]| Ok(QueryResult::default());
        let ctx = TriggerCtx {
            event: TriggerEvent::Update,
            table: "a",
            old: Some(&r_old),
            new: Some(&r_new),
            query_fn: &mut qf,
            statements: &StatementCache::default(),
            cost: &mut cost,
        };
        assert_eq!(ctx.effective_row().unwrap().get(0), &Value::Int(1));
    }
}
