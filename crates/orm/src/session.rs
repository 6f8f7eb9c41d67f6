//! The ORM session: executes query sets against the database, routing
//! reads through an optional [`QueryInterceptor`] — the seam where
//! CacheGenie slides underneath the application (Figure 1c of the paper).

use crate::model::{ModelDef, ModelRegistry};
use crate::queryset::{OrmRow, QuerySet};
use genie_storage::{
    CostReport, Database, Delete, Expr, Insert, PreparedSelect, QueryResult, Result, Select,
    Statement, StorageError, Update, Value,
};
use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// What an interceptor decided about a read.
#[derive(Debug)]
pub enum InterceptOutcome {
    /// The interceptor produced the answer — either straight from cache
    /// (`from_cache = true`, `db_cost` empty) or via its own read-through
    /// database fetch (e.g. CacheGenie's Top-K classes fetch K + reserve
    /// rows, more than the application asked for).
    Served {
        /// The result, already in executor shape.
        result: QueryResult,
        /// Cache operations spent (for the cost model).
        cache_ops: u64,
        /// Database work the interceptor performed itself.
        db_cost: CostReport,
        /// True if no database round trip happened.
        from_cache: bool,
    },
    /// Cache miss on a cacheable query whose cached form equals the query
    /// result: run the database query, then hand the result back via
    /// [`QueryInterceptor::fill`] under `fill_key`.
    Miss {
        /// Opaque key identifying what to fill.
        fill_key: String,
        /// Cache operations spent probing.
        cache_ops: u64,
    },
    /// Not a cacheable query; go straight to the database.
    Pass,
}

/// A query set's shape, compiled: the parameterized [`Select`], its
/// canonical SQL text, and the engine's prepared statement for it. A
/// caller that runs one shape many times holds the handle and binds only
/// values ([`OrmSession::run_prepared`]); interceptors keep what they
/// resolve the shape to on the handle itself.
#[derive(Debug)]
pub struct PreparedQuery {
    fingerprint: String,
    statement: PreparedSelect,
    resolved: OnceLock<Box<Resolved>>,
}

/// What one interceptor resolved a [`PreparedQuery`] to under one of its
/// declaration generations. The entries form a chain that only grows, so
/// a reader follows `OnceLock`s and writes nothing; a new generation (or
/// a second interceptor) appends one entry, and declarations happen at
/// set-up, so a chain stays a link or two long.
#[derive(Debug)]
struct Resolved {
    owner: u64,
    generation: u64,
    value: Box<dyn Any + Send + Sync>,
    next: OnceLock<Box<Resolved>>,
}

impl PreparedQuery {
    /// The compiled, parameterized statement.
    pub fn select(&self) -> &Select {
        self.statement.select()
    }

    /// `select().to_string()`: the canonical SQL template.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The engine's prepared form of the statement.
    pub fn statement(&self) -> &PreparedSelect {
        &self.statement
    }

    /// What interceptor `owner` resolves this query to under its
    /// declaration `generation`: `resolve()`'s value, computed on the
    /// first call for that pair and kept with the query.
    pub fn resolution<T: Any + Send + Sync>(
        &self,
        owner: u64,
        generation: u64,
        resolve: impl FnOnce() -> T,
    ) -> &T {
        let mut resolve = Some(resolve);
        let mut slot = &self.resolved;
        loop {
            let entry = slot.get_or_init(|| {
                // Runs at most once per call: the entry it makes matches.
                let value = resolve.take().expect("resolved once")();
                Box::new(Resolved {
                    owner,
                    generation,
                    value: Box::new(value),
                    next: OnceLock::new(),
                })
            });
            if (entry.owner, entry.generation) == (owner, generation) {
                if let Some(value) = entry.value.downcast_ref() {
                    return value;
                }
            }
            slot = &entry.next;
        }
    }
}

/// Cache middleware hook. Implemented by CacheGenie's registry.
pub trait QueryInterceptor: Send + Sync {
    /// Inspects a compiled query before execution.
    fn try_serve(&self, select: &Select, params: &[Value]) -> InterceptOutcome;

    /// [`QueryInterceptor::try_serve`] for a prepared query — the path
    /// every query set takes. An interceptor that resolves a shape once
    /// overrides it and keeps the resolution on the handle
    /// ([`PreparedQuery::resolution`]); the default hands the statement
    /// to `try_serve`.
    fn try_serve_prepared(&self, query: &PreparedQuery, params: &[Value]) -> InterceptOutcome {
        self.try_serve(query.select(), params)
    }

    /// Receives the database result for a miss, for read-through fill.
    /// Returns the number of cache operations performed.
    fn fill(&self, fill_key: &str, result: &QueryResult) -> u64;
}

/// Outcome of an ORM read.
#[derive(Debug, Clone, Default)]
pub struct ReadOutcome {
    /// Result rows.
    pub rows: Vec<OrmRow>,
    /// Physical database cost (zero when served from cache).
    pub db_cost: CostReport,
    /// Cache operations performed (probe + fill).
    pub cache_ops: u64,
    /// True if the cache answered.
    pub from_cache: bool,
}

/// Outcome of an ORM write.
#[derive(Debug, Clone, Default)]
pub struct WriteOutcome {
    /// Rows affected.
    pub affected: u64,
    /// Physical database cost, including trigger work.
    pub db_cost: CostReport,
    /// New row id for creates.
    pub new_id: Option<i64>,
}

/// A connection-like object binding a [`ModelRegistry`] to a [`Database`].
///
/// Clones share the database, registry, interceptor, and id allocator.
#[derive(Clone)]
pub struct OrmSession {
    db: Database,
    registry: Arc<ModelRegistry>,
    interceptor: Arc<RwLock<Option<Arc<dyn QueryInterceptor>>>>,
    next_ids: Arc<Mutex<HashMap<String, i64>>>,
}

impl std::fmt::Debug for OrmSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrmSession")
            .field("models", &self.registry.models().count())
            .finish()
    }
}

impl OrmSession {
    /// Creates a session over an already-synced database.
    pub fn new(db: Database, registry: Arc<ModelRegistry>) -> Self {
        OrmSession {
            db,
            registry,
            interceptor: Arc::new(RwLock::new(None)),
            next_ids: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The underlying database handle.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The model registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// Installs (or replaces) the cache interceptor.
    pub fn set_interceptor(&self, interceptor: Arc<dyn QueryInterceptor>) {
        *self.interceptor.write() = Some(interceptor);
    }

    /// Removes the interceptor (reads go straight to the database).
    pub fn clear_interceptor(&self) {
        *self.interceptor.write() = None;
    }

    /// Starts a query set over `model`.
    ///
    /// # Errors
    ///
    /// [`StorageError::UnknownTable`] for unregistered models.
    pub fn objects(&self, model: &str) -> Result<QuerySet> {
        Ok(QuerySet::new(Arc::clone(
            self.registry.shared_model(model)?,
        )))
    }

    /// Compiles `qs` (as a `COUNT(*)` when `count`) into a handle that
    /// runs with any values for its parameters. The engine keeps one
    /// prepared statement per shape, so handles of one shape share its
    /// binding and plans.
    pub fn prepare(&self, qs: &QuerySet, count: bool) -> PreparedQuery {
        let (select, _) = if count {
            qs.compile_count()
        } else {
            qs.compile()
        };
        PreparedQuery {
            fingerprint: select.to_string(),
            statement: self.db.prepare(&select),
            resolved: OnceLock::new(),
        }
    }

    /// Executes a prepared query through the interception path: the
    /// interceptor (if any) serves it, or the database does and a missing
    /// interceptor fills from its answer.
    ///
    /// # Errors
    ///
    /// Database execution errors.
    pub fn run_prepared(&self, query: &PreparedQuery, params: &[Value]) -> Result<ReadOutcome> {
        let interceptor = self.interceptor.read();
        let mut fill = None;
        if let Some(ic) = interceptor.as_deref() {
            match ic.try_serve_prepared(query, params) {
                InterceptOutcome::Served {
                    result,
                    cache_ops,
                    db_cost,
                    from_cache,
                } => {
                    return Ok(ReadOutcome {
                        rows: OrmRow::from_result(result),
                        db_cost,
                        cache_ops,
                        from_cache,
                    });
                }
                InterceptOutcome::Miss {
                    fill_key,
                    cache_ops,
                } => fill = Some((ic, fill_key, cache_ops)),
                InterceptOutcome::Pass => {}
            }
        }
        let out = self.db.execute_prepared(query.statement(), params)?;
        let cache_ops = match fill {
            Some((ic, fill_key, probe_ops)) => probe_ops + ic.fill(&fill_key, &out.result),
            None => 0,
        };
        Ok(ReadOutcome {
            rows: OrmRow::from_result(out.result),
            db_cost: out.cost,
            cache_ops,
            from_cache: false,
        })
    }

    /// Runs a query set, returning all rows. It is compiled for this
    /// call; a shape run many times is better held [prepared](Self::prepare).
    ///
    /// # Errors
    ///
    /// Database execution errors.
    pub fn all(&self, qs: &QuerySet) -> Result<ReadOutcome> {
        self.run_prepared(&self.prepare(qs, false), qs.params())
    }

    /// Runs a query set, returning the first row if any.
    ///
    /// # Errors
    ///
    /// Database execution errors.
    pub fn get(&self, qs: &QuerySet) -> Result<(Option<OrmRow>, ReadOutcome)> {
        let mut out = self.all(qs)?;
        let first = if out.rows.is_empty() {
            None
        } else {
            Some(out.rows.remove(0))
        };
        Ok((first, out))
    }

    /// Runs `SELECT COUNT(*)` for a query set.
    ///
    /// # Errors
    ///
    /// Database execution errors.
    pub fn count(&self, qs: &QuerySet) -> Result<(i64, ReadOutcome)> {
        let out = self.run_prepared(&self.prepare(qs, true), qs.params())?;
        let n = out
            .rows
            .first()
            .and_then(|r| r.get_at(0).as_int())
            .unwrap_or(0);
        Ok((n, out))
    }

    /// Inserts a model instance; `values` maps column names to values, the
    /// `id` column is allocated automatically (auto-increment emulation).
    ///
    /// # Errors
    ///
    /// Constraint violations and unknown models/columns.
    pub fn create(&self, model: &str, values: &[(&str, Value)]) -> Result<WriteOutcome> {
        let def = self.registry.model(model)?;
        let id = self.allocate_id(def)?;
        let mut columns = vec!["id".to_owned()];
        let mut exprs = vec![vec![Expr::Literal(Value::Int(id))]];
        for (c, v) in values {
            columns.push((*c).to_owned());
            exprs[0].push(Expr::Literal(v.clone()));
        }
        let stmt = Statement::Insert(Insert {
            table: def.table().to_owned(),
            columns,
            rows: exprs,
        });
        let out = self.db.execute(&stmt, &[])?;
        Ok(WriteOutcome {
            affected: out.result.rows_affected,
            db_cost: out.cost,
            new_id: Some(id),
        })
    }

    /// Updates the row with primary key `id`.
    ///
    /// # Errors
    ///
    /// Constraint violations and unknown models/columns.
    pub fn update_by_id(
        &self,
        model: &str,
        id: i64,
        sets: &[(&str, Value)],
    ) -> Result<WriteOutcome> {
        let def = self.registry.model(model)?;
        let stmt = Statement::Update(Update {
            table: def.table().to_owned(),
            sets: sets
                .iter()
                .map(|(c, v)| ((*c).to_owned(), Expr::Literal(v.clone())))
                .collect(),
            predicate: Some(Expr::col("id").eq(Expr::lit(id))),
        });
        let out = self.db.execute(&stmt, &[])?;
        Ok(WriteOutcome {
            affected: out.result.rows_affected,
            db_cost: out.cost,
            new_id: None,
        })
    }

    /// Deletes the row with primary key `id`.
    ///
    /// # Errors
    ///
    /// Unknown model errors.
    pub fn delete_by_id(&self, model: &str, id: i64) -> Result<WriteOutcome> {
        let def = self.registry.model(model)?;
        let stmt = Statement::Delete(Delete {
            table: def.table().to_owned(),
            predicate: Some(Expr::col("id").eq(Expr::lit(id))),
        });
        let out = self.db.execute(&stmt, &[])?;
        Ok(WriteOutcome {
            affected: out.result.rows_affected,
            db_cost: out.cost,
            new_id: None,
        })
    }

    /// Deletes everything matching a query set (single-table only).
    ///
    /// # Errors
    ///
    /// [`StorageError::Unsupported`] if the query set has joins.
    pub fn delete_matching(&self, qs: &QuerySet) -> Result<WriteOutcome> {
        let (sel, params) = qs.compile();
        if !sel.joins.is_empty() {
            return Err(StorageError::Unsupported(
                "DELETE across joined relations".into(),
            ));
        }
        let pred = sel.predicate.map(|p| p.substitute_params(&params));
        let stmt = Statement::Delete(Delete {
            table: sel.from.table,
            predicate: pred,
        });
        let out = self.db.execute(&stmt, &[])?;
        Ok(WriteOutcome {
            affected: out.result.rows_affected,
            db_cost: out.cost,
            new_id: None,
        })
    }

    /// Fetches a model instance by primary key.
    ///
    /// # Errors
    ///
    /// Database execution errors.
    pub fn get_by_id(&self, model: &str, id: i64) -> Result<(Option<OrmRow>, ReadOutcome)> {
        let qs = self.objects(model)?.filter_eq("id", id);
        self.get(&qs)
    }

    fn allocate_id(&self, def: &ModelDef) -> Result<i64> {
        let mut ids = self.next_ids.lock();
        let next = match ids.get_mut(def.name()) {
            Some(n) => {
                *n += 1;
                *n
            }
            None => {
                // Initialize from MAX(id) in the table.
                let out = self
                    .db
                    .execute_sql(&format!("SELECT MAX(id) FROM {}", def.table()), &[])?;
                let max = out.result.scalar().and_then(|v| v.as_int()).unwrap_or(0);
                ids.insert(def.name().to_owned(), max + 1);
                max + 1
            }
        };
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FieldDef, ModelRegistry};
    use crate::ModelDef;
    use genie_storage::ValueType;

    fn session() -> OrmSession {
        let mut reg = ModelRegistry::new();
        reg.register(
            ModelDef::builder("User", "users")
                .field(FieldDef::new("name", ValueType::Text).not_null())
                .field(FieldDef::new("age", ValueType::Int).indexed())
                .build(),
        )
        .unwrap();
        reg.register(
            ModelDef::builder("Bookmark", "bookmarks")
                .foreign_key("user_id", "User")
                .field(FieldDef::new("url", ValueType::Text).not_null())
                .build(),
        )
        .unwrap();
        let db = Database::default();
        reg.sync(&db).unwrap();
        OrmSession::new(db, Arc::new(reg))
    }

    #[test]
    fn create_allocates_sequential_ids() {
        let s = session();
        let a = s
            .create("User", &[("name", "a".into()), ("age", 1i64.into())])
            .unwrap();
        let b = s
            .create("User", &[("name", "b".into()), ("age", 2i64.into())])
            .unwrap();
        assert_eq!(a.new_id, Some(1));
        assert_eq!(b.new_id, Some(2));
        assert_eq!(a.affected, 1);
    }

    #[test]
    fn id_allocation_resumes_after_external_rows() {
        let s = session();
        s.database()
            .execute_sql("INSERT INTO users VALUES (100, 'seed', 5)", &[])
            .unwrap();
        let out = s
            .create("User", &[("name", "next".into()), ("age", 1i64.into())])
            .unwrap();
        assert_eq!(out.new_id, Some(101));
    }

    #[test]
    fn query_set_roundtrip() {
        let s = session();
        for (n, a) in [("alice", 30i64), ("bob", 30), ("carol", 40)] {
            s.create("User", &[("name", n.into()), ("age", a.into())])
                .unwrap();
        }
        let qs = s
            .objects("User")
            .unwrap()
            .filter_eq("age", 30i64)
            .order_by("name");
        let out = s.all(&qs).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0].get("name"), &Value::Text("alice".into()));
        assert!(!out.from_cache);
        assert!(out.db_cost.rows_scanned >= 2);
    }

    #[test]
    fn get_returns_first_or_none() {
        let s = session();
        s.create("User", &[("name", "x".into()), ("age", 1i64.into())])
            .unwrap();
        let (row, _) = s.get_by_id("User", 1).unwrap();
        assert_eq!(row.unwrap().get("name"), &Value::Text("x".into()));
        let (row, _) = s.get_by_id("User", 999).unwrap();
        assert!(row.is_none());
    }

    #[test]
    fn count_matches() {
        let s = session();
        for i in 0..5i64 {
            s.create(
                "User",
                &[("name", format!("u{i}").into()), ("age", (i % 2).into())],
            )
            .unwrap();
        }
        let qs = s.objects("User").unwrap().filter_eq("age", 0i64);
        let (n, _) = s.count(&qs).unwrap();
        assert_eq!(n, 3);
    }

    #[test]
    fn update_and_delete_by_id() {
        let s = session();
        s.create("User", &[("name", "old".into()), ("age", 1i64.into())])
            .unwrap();
        let w = s
            .update_by_id("User", 1, &[("name", "new".into())])
            .unwrap();
        assert_eq!(w.affected, 1);
        let (row, _) = s.get_by_id("User", 1).unwrap();
        assert_eq!(row.unwrap().get("name"), &Value::Text("new".into()));
        s.delete_by_id("User", 1).unwrap();
        let (row, _) = s.get_by_id("User", 1).unwrap();
        assert!(row.is_none());
    }

    #[test]
    fn delete_matching_applies_filters() {
        let s = session();
        for i in 0..6i64 {
            s.create(
                "User",
                &[("name", format!("u{i}").into()), ("age", (i % 3).into())],
            )
            .unwrap();
        }
        let qs = s.objects("User").unwrap().filter_eq("age", 0i64);
        let w = s.delete_matching(&qs).unwrap();
        assert_eq!(w.affected, 2);
        assert_eq!(s.database().row_count("users").unwrap(), 4);
    }

    #[test]
    fn delete_matching_rejects_joins() {
        let s = session();
        let bm = s.registry().model("Bookmark").unwrap().clone();
        let qs = s.objects("User").unwrap().join_reverse(&bm, "user_id");
        assert!(matches!(
            s.delete_matching(&qs),
            Err(StorageError::Unsupported(_))
        ));
    }

    #[test]
    fn fk_relation_join_through_orm() {
        let s = session();
        s.create("User", &[("name", "alice".into()), ("age", 1i64.into())])
            .unwrap();
        s.create(
            "Bookmark",
            &[("user_id", 1i64.into()), ("url", "http://a".into())],
        )
        .unwrap();
        let user = s.registry().model("User").unwrap().clone();
        let qs = s
            .objects("Bookmark")
            .unwrap()
            .filter_eq("user_id", 1i64)
            .join_forward("user_id", &user)
            .values(&[("bookmarks", "url"), ("users", "name")]);
        let out = s.all(&qs).unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get("url"), &Value::Text("http://a".into()));
        assert_eq!(out.rows[0].get("name"), &Value::Text("alice".into()));
    }

    #[test]
    fn interceptor_hit_skips_database() {
        struct AlwaysHit;
        impl QueryInterceptor for AlwaysHit {
            fn try_serve(&self, _s: &Select, _p: &[Value]) -> InterceptOutcome {
                InterceptOutcome::Served {
                    result: QueryResult {
                        columns: ["id".to_owned()].into(),
                        rows: vec![genie_storage::row![777i64]],
                        rows_affected: 0,
                    },
                    cache_ops: 1,
                    db_cost: CostReport::new(),
                    from_cache: true,
                }
            }
            fn fill(&self, _k: &str, _r: &QueryResult) -> u64 {
                0
            }
        }
        let s = session();
        s.set_interceptor(Arc::new(AlwaysHit));
        let qs = s.objects("User").unwrap().filter_eq("id", 1i64);
        let out = s.all(&qs).unwrap();
        assert!(out.from_cache);
        assert_eq!(out.rows[0].id(), 777);
        assert_eq!(out.cache_ops, 1);
        assert!(out.db_cost.is_empty());
        // Database untouched: no select registered.
        assert_eq!(s.database().stats().selects, 0);
    }

    #[test]
    fn interceptor_miss_fills_with_db_result() {
        use std::sync::atomic::{AtomicU64, Ordering};
        struct MissThenFill {
            filled_rows: AtomicU64,
        }
        impl QueryInterceptor for MissThenFill {
            fn try_serve(&self, _s: &Select, _p: &[Value]) -> InterceptOutcome {
                InterceptOutcome::Miss {
                    fill_key: "k".into(),
                    cache_ops: 1,
                }
            }
            fn fill(&self, key: &str, r: &QueryResult) -> u64 {
                assert_eq!(key, "k");
                self.filled_rows
                    .store(r.rows.len() as u64, Ordering::SeqCst);
                1
            }
        }
        let s = session();
        s.create("User", &[("name", "a".into()), ("age", 1i64.into())])
            .unwrap();
        let ic = Arc::new(MissThenFill {
            filled_rows: AtomicU64::new(99),
        });
        s.set_interceptor(ic.clone() as Arc<dyn QueryInterceptor>);
        let qs = s.objects("User").unwrap().filter_eq("id", 1i64);
        let out = s.all(&qs).unwrap();
        assert!(!out.from_cache);
        assert_eq!(out.cache_ops, 2, "probe + fill");
        assert_eq!(ic.filled_rows.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_shape_is_prepared_once_whatever_its_filter_values() {
        use crate::queryset::FilterOp;
        let s = session();
        let users = || s.objects("User").unwrap();
        let statements = || s.database().statement_cache_len();
        let before = statements();
        let by_age = s.prepare(&users().filter_eq("age", 1i64), false);
        assert_eq!(
            by_age.fingerprint(),
            "SELECT * FROM users WHERE (users.age = $1)"
        );
        assert_eq!(by_age.select().to_string(), by_age.fingerprint());
        // Another value, through a clone of the session: the same
        // statement, which the engine prepared once.
        let again = s.clone().prepare(&users().filter_eq("age", 99i64), false);
        assert_eq!(again.fingerprint(), by_age.fingerprint());
        assert_eq!(statements(), before + 1);
        // Everything but the values is shape.
        let in_list =
            |n: i64| users().filter_where("age", FilterOp::In((0..n).map(Value::Int).collect()));
        let different = [
            s.prepare(&users().filter_eq("age", 1i64), true),
            s.prepare(&users().filter_eq("name", 1i64), false),
            s.prepare(&users().filter("age", FilterOp::Gt, 1i64), false),
            s.prepare(&users().filter_eq("age", 1i64).limit(5), false),
            s.prepare(&users().filter_eq("age", 1i64).order_by("-age"), false),
            s.prepare(&in_list(2), false),
            s.prepare(&in_list(3), false),
            s.prepare(
                &s.objects("Bookmark").unwrap().filter_eq("user_id", 1i64),
                false,
            ),
        ];
        for (i, q) in different.iter().enumerate() {
            assert_ne!(q.fingerprint(), by_age.fingerprint(), "shape {i}");
            for other in &different[..i] {
                assert_ne!(q.fingerprint(), other.fingerprint(), "shape {i}");
            }
        }
        assert_eq!(statements(), before + 1 + different.len());
        let in_two = s.prepare(&in_list(2), false);
        assert_eq!(in_two.fingerprint(), different[5].fingerprint());
        assert_eq!(statements(), before + 1 + different.len());
    }

    #[test]
    fn a_handle_keeps_one_resolution_per_owner_and_generation() {
        let s = session();
        let q = s.prepare(&s.objects("User").unwrap().filter_eq("id", 1i64), false);
        let calls = std::cell::Cell::new(0);
        let resolve = |owner: u64, generation: u64| {
            q.resolution(owner, generation, || {
                calls.set(calls.get() + 1);
                format!("{owner}@{generation}")
            })
            .clone()
        };
        assert_eq!(resolve(1, 0), "1@0");
        assert_eq!(resolve(1, 0), "1@0");
        assert_eq!(calls.get(), 1, "resolved once");
        // A later generation of the same owner, and a second owner,
        // each resolve afresh; going back finds the kept entry.
        assert_eq!(resolve(1, 1), "1@1");
        assert_eq!(resolve(2, 0), "2@0");
        assert_eq!(resolve(1, 1), "1@1");
        assert_eq!(resolve(2, 0), "2@0");
        assert_eq!(calls.get(), 3);
        // A fresh handle of the same shape starts with nothing kept.
        let fresh = s.prepare(&s.objects("User").unwrap().filter_eq("id", 2i64), false);
        assert_eq!(fresh.resolution(1, 1, || "new".to_owned()), "new");
    }

    #[test]
    fn default_prepared_interception_falls_back_to_the_statement() {
        struct OnlySelect;
        impl QueryInterceptor for OnlySelect {
            fn try_serve(&self, select: &Select, params: &[Value]) -> InterceptOutcome {
                assert_eq!(
                    select.to_string(),
                    "SELECT * FROM users WHERE (users.id = $1)"
                );
                assert_eq!(params, [Value::Int(5)]);
                InterceptOutcome::Served {
                    result: QueryResult::default(),
                    cache_ops: 3,
                    db_cost: CostReport::new(),
                    from_cache: true,
                }
            }
            fn fill(&self, _k: &str, _r: &QueryResult) -> u64 {
                0
            }
        }
        let s = session();
        s.set_interceptor(Arc::new(OnlySelect));
        let out = s.get_by_id("User", 5).unwrap().1;
        assert_eq!((out.from_cache, out.cache_ops), (true, 3));
    }

    #[test]
    fn clear_interceptor_restores_pass_through() {
        struct Bomb;
        impl QueryInterceptor for Bomb {
            fn try_serve(&self, _s: &Select, _p: &[Value]) -> InterceptOutcome {
                panic!("should not be consulted");
            }
            fn fill(&self, _k: &str, _r: &QueryResult) -> u64 {
                0
            }
        }
        let s = session();
        s.set_interceptor(Arc::new(Bomb));
        s.clear_interceptor();
        let qs = s.objects("User").unwrap();
        assert!(s.all(&qs).is_ok());
    }
}
