//! Prepared SELECT statements: everything that depends only on a
//! statement's *shape* is computed once and kept with the statement;
//! each execution binds a parameter vector to it.
//!
//! A [`PreparedSelect`] is the one form in which the engine runs a
//! SELECT. It owns the statement, its latch set (the sorted FROM/JOIN
//! tables), and two derived pieces, each valid while a stamp holds:
//!
//! * the **binding** (`exec::BoundSelect`: layouts, bound WHERE /
//!   ORDER BY / projection, output names), stamped with the **catalog
//!   version** — only DDL changes what a column reference resolves to;
//! * the **plan** (`exec::ExecPlan`: the planner's `QueryPlan`
//!   with its join steps bound), stamped additionally with the **write
//!   version of every table it reads** — row counts, index key sets and
//!   statistics are all the planner looks at, and each changes only with
//!   a write to that table.
//!
//! A stamped plan is reused for a new parameter vector only when the
//! statement is *value-independent* (`plan::value_independent`)
//! and the vector passes the statement's key guards; the plan's key
//! values are then rewritten from the new parameters. Any other call
//! plans afresh and shares nothing but the binding. Either way the result
//! is the plan the planner would choose for exactly this call.
//!
//! Statements that arrive as a bare [`Select`] (`Database::select`,
//! parsed SQL, trigger-body queries) reach their prepared form through
//! the engine's statement cache (`StatementCache`).

use crate::error::Result;
use crate::exec::{BoundSelect, ExecPlan};
use crate::expr::Expr;
use crate::latch::TableSet;
use crate::plan::QueryPlan;
use crate::query::{Select, SelectItem};
use crate::value::Value;
use parking_lot::RwLock;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

/// A SELECT prepared for repeated execution; see the module docs.
/// Cloning shares the prepared state.
#[derive(Clone)]
pub struct PreparedSelect {
    inner: Arc<Inner>,
}

struct Inner {
    select: Select,
    /// FROM/JOIN table names, sorted and deduplicated: the statement's
    /// latch set in canonical acquisition order.
    tables: Vec<String>,
    /// Whether one plan serves every (guard-passing) parameter vector.
    value_independent: bool,
    state: RwLock<State>,
}

#[derive(Default)]
struct State {
    bound: Option<Arc<BoundSelect>>,
    plan: Option<Arc<ExecPlan>>,
}

impl std::fmt::Debug for PreparedSelect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("PreparedSelect")
            .field(&self.inner.select.to_string())
            .finish()
    }
}

impl PreparedSelect {
    /// Prepares `select`. Nothing is resolved against a catalog yet —
    /// that happens (and is re-done after DDL) under the latches of the
    /// first execution — so preparing cannot fail.
    pub fn new(select: Select) -> Self {
        let mut tables: Vec<String> = std::iter::once(&select.from)
            .chain(select.joins.iter().map(|j| &j.table))
            .map(|t| t.table.clone())
            .collect();
        tables.sort_unstable();
        tables.dedup();
        PreparedSelect {
            inner: Arc::new(Inner {
                value_independent: crate::plan::value_independent(select.predicate.as_ref()),
                select,
                tables,
                state: RwLock::new(State::default()),
            }),
        }
    }

    /// The statement.
    pub fn select(&self) -> &Select {
        &self.inner.select
    }

    /// The tables the statement reads, sorted by name.
    pub(crate) fn tables(&self) -> &[String] {
        &self.inner.tables
    }

    /// The binding and the plan to execute this call with, reusing the
    /// kept ones while their stamps hold against the latched `tables`.
    pub(crate) fn resolve(
        &self,
        tables: &TableSet<'_>,
        params: &[Value],
    ) -> Result<(Arc<BoundSelect>, Arc<ExecPlan>)> {
        let inner = &*self.inner;
        let (bound, plan) = {
            let state = inner.state.read();
            (state.bound.clone(), state.plan.clone())
        };
        let bound = match bound {
            Some(b) if b.catalog_version == tables.catalog_version() => b,
            _ => {
                let b = Arc::new(BoundSelect::bind(tables, &inner.select)?);
                let mut state = inner.state.write();
                state.bound = Some(Arc::clone(&b));
                state.plan = None;
                b
            }
        };
        let shared = inner.value_independent && bound.guards.iter().all(|g| g.holds(params));
        if shared {
            if let Some(plan) = plan {
                let current = plan.catalog_version == bound.catalog_version
                    && inner
                        .tables
                        .iter()
                        .zip(&plan.table_versions)
                        .all(|(t, v)| tables.table(t).is_ok_and(|t| t.version() == *v));
                if current {
                    return Ok((bound, plan));
                }
            }
        }
        let plan = Arc::new(ExecPlan::plan(
            tables,
            &inner.select,
            &bound,
            &inner.tables,
            params,
            shared,
        )?);
        if shared {
            inner.state.write().plan = Some(Arc::clone(&plan));
        }
        Ok((bound, plan))
    }

    /// The plan this call would execute, as the planner reports it.
    pub(crate) fn explain(&self, tables: &TableSet<'_>, params: &[Value]) -> Result<QueryPlan> {
        match self.resolve(tables, params) {
            Ok((_, plan)) => Ok(plan.query_plan(params)),
            // EXPLAIN only plans: a statement the executor could not bind
            // (an unknown output column, say) still has an access plan.
            Err(_) => crate::plan::plan_query(tables, &self.inner.select, params),
        }
    }
}

/// True when `a` and `b` are the same statement *text*. `Select`'s own
/// equality compares literals in storage order, where `1` and `1.0` are
/// equal; as statements they differ (`SELECT 1` returns an integer).
fn same_statement(a: &Select, b: &Select) -> bool {
    fn same_repr(a: &Expr, b: &Expr) -> bool {
        match (a, b) {
            (Expr::Literal(x), Expr::Literal(y)) => x.value_type() == y.value_type(),
            (Expr::Cmp(a1, _, a2), Expr::Cmp(b1, _, b2))
            | (Expr::And(a1, a2), Expr::And(b1, b2))
            | (Expr::Or(a1, a2), Expr::Or(b1, b2))
            | (Expr::Arith(a1, _, a2), Expr::Arith(b1, _, b2)) => {
                same_repr(a1, b1) && same_repr(a2, b2)
            }
            (Expr::Not(a), Expr::Not(b))
            | (Expr::IsNull { expr: a, .. }, Expr::IsNull { expr: b, .. })
            | (Expr::Like { expr: a, .. }, Expr::Like { expr: b, .. }) => same_repr(a, b),
            (Expr::InList { expr: a, list: la }, Expr::InList { expr: b, list: lb }) => {
                same_repr(a, b) && la.iter().zip(lb).all(|(x, y)| same_repr(x, y))
            }
            // `a == b` already matched every other pair structurally.
            _ => true,
        }
    }
    fn exprs(s: &Select) -> impl Iterator<Item = &Expr> {
        s.joins
            .iter()
            .map(|j| &j.on)
            .chain(s.projection.iter().filter_map(|i| match i {
                SelectItem::Expr { expr, .. } => Some(expr),
                SelectItem::Aggregate { arg, .. } => arg.as_ref(),
                SelectItem::Wildcard => None,
            }))
            .chain(&s.predicate)
            .chain(s.order_by.iter().map(|k| &k.expr))
    }
    a == b && exprs(a).zip(exprs(b)).all(|(x, y)| same_repr(x, y))
}

/// How many statements the engine's statement cache holds before it is
/// emptied. An application's prepared queries are a few dozen shapes;
/// what can grow without bound is ad-hoc SQL with inlined literals,
/// every distinct literal a distinct statement — which is why a full
/// cache is cleared instead of growing.
pub const SHAPE_CACHE_CAPACITY: usize = 1024;

/// The engine's statement cache: [`Select`] → its [`PreparedSelect`],
/// keyed by the statement's hash alone. An entry that turns out not to
/// be the caller's statement (a hash collision) is replaced. Lookups
/// take a read lock and build nothing.
#[derive(Default)]
pub(crate) struct StatementCache {
    hasher: RandomState,
    entries: RwLock<HashMap<u64, PreparedSelect>>,
}

impl StatementCache {
    /// The prepared form of `select`, preparing it on first sight.
    pub(crate) fn get(&self, select: &Select) -> PreparedSelect {
        let key = self.hasher.hash_one(select);
        if let Some(hit) = self
            .entries
            .read()
            .get(&key)
            .filter(|hit| same_statement(hit.select(), select))
        {
            return hit.clone();
        }
        let prepared = PreparedSelect::new(select.clone());
        let mut entries = self.entries.write();
        if entries.len() >= SHAPE_CACHE_CAPACITY {
            entries.clear();
        }
        entries.insert(key, prepared.clone());
        prepared
    }

    /// Statements currently held.
    pub(crate) fn len(&self) -> usize {
        self.entries.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    #[test]
    fn statements_differing_in_literal_type_are_distinct() {
        let int = Select::star("t").filter(Expr::col("a").eq(Expr::lit(1i64)));
        let float = Select::star("t").filter(Expr::col("a").eq(Expr::lit(1.0f64)));
        assert_eq!(int, float, "storage equality conflates them");
        assert!(!same_statement(&int, &float));
        assert!(same_statement(&int, &int.clone()));
    }

    #[test]
    fn cache_returns_the_same_handle_per_statement_and_stays_bounded() {
        let cache = StatementCache::default();
        let sel = Select::star("t").filter(Expr::col("a").eq(Expr::Param(0)));
        let a = cache.get(&sel);
        let b = cache.get(&sel);
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        for i in 0..(3 * SHAPE_CACHE_CAPACITY as i64) {
            cache.get(&Select::star("t").filter(Expr::col("a").eq(Expr::lit(i))));
            assert!(cache.len() <= SHAPE_CACHE_CAPACITY);
        }
    }

    #[test]
    fn latch_set_is_sorted_and_deduplicated() {
        let sel = Select::star("zeta")
            .join(
                crate::query::TableRef::new("alpha"),
                Expr::qcol("alpha", "id").eq(Expr::qcol("zeta", "a")),
            )
            .join(
                crate::query::TableRef::aliased("zeta", "z2"),
                Expr::qcol("z2", "id").eq(Expr::qcol("zeta", "id")),
            );
        assert_eq!(PreparedSelect::new(sel).tables(), ["alpha", "zeta"]);
    }
}
