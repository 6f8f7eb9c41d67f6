//! The executor: mechanically walks whatever the planner chose.
//!
//! A SELECT runs in prepared form ([`crate::prepared`]): `BoundSelect`
//! is what the statement resolves to against the catalog (bound WHERE /
//! ORDER BY / projection), `ExecPlan` is the planner's [`QueryPlan`] —
//! the FROM table's access path, one step per join in statement order,
//! ORDER BY / LIMIT handling — with its join steps bound, and
//! `run_prepared` walks the plan for one parameter vector. The WHERE
//! clause is bound once and compiled into a `CompiledPred` of conjunct
//! atoms, which every path evaluates. Join queries pump base rows one at
//! a time through the join pipeline and the residual WHERE;
//! row-at-a-time pumping is what makes plans with `fetch_limit` (ORDER
//! BY satisfied by an index scan, or no ORDER BY at all) stop scanning
//! as soon as `LIMIT + OFFSET` output rows exist, instead of
//! materializing every match.
//!
//! Join-free scans instead run **vectorized**: candidates are processed
//! in `BATCH_ROWS`-sized morsels, the compiled WHERE is evaluated over a
//! `RowBatch`, and only surviving rows are materialized (cloned).
//! `SELECT COUNT(*) ... WHERE` counts survivors without materializing
//! anything.
//!
//! Every physical decision (page touch, index probe, sort) is recorded in
//! the statement's [`CostReport`] so the benchmark harness can price it.
//! Scans charge a page touch for every row id they *examine* — including
//! versions invisible to the snapshot — because a real heap scan reads the
//! page before it can decide visibility. An access path hands each
//! candidate over together with the version it resolved, so a row is
//! looked up once however many stages see it.
//!
//! The executor reaches tables only through a `TableSet` — the latched
//! view assembled by the engine (see `crate::latch`) — never through the
//! catalog directly.

use crate::bufferpool::{BufferPool, PageId};
use crate::cost::CostReport;
use crate::db::TxnId;
use crate::error::{Result, StorageError};
use crate::expr::{CmpOp, ColumnRef, Expr};
use crate::latch::TableSet;
use crate::plan::{eval_const, AccessPath, JoinMethod, KeyGuard, QueryPlan, WHOLE_RANGE};
use crate::prepared::PreparedSelect;
use crate::query::{AggFunc, Delete, Insert, JoinKind, QueryResult, Select, SelectItem, Update};
use crate::row::{Row, RowId};
use crate::table::{IndexKey, RowRef, Snapshot, Table};
use crate::trigger::TriggerEvent;
use crate::value::Value;
use std::sync::Arc;

/// The read/write view a statement executes under: `snap` is the
/// snapshot its reads resolve against (a transaction's pinned snapshot,
/// or the latest committed epoch for autocommit); `latest_epoch` is the
/// newest committed epoch at statement start, which constraint probes
/// (FK existence checks) read so they never validate against a stale
/// snapshot — closing them against other writers' uncommitted state
/// without letting them miss committed rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExecView {
    pub snap: Snapshot,
    pub latest_epoch: u64,
}

impl ExecView {
    /// The writer transaction, on write statements.
    pub(crate) fn tid(&self) -> TxnId {
        self.snap
            .writer
            .expect("write statements execute with a writer snapshot")
    }

    /// Constraint-check snapshot: latest committed state plus the
    /// writer's own uncommitted rows.
    fn fk_snap(&self) -> Snapshot {
        Snapshot {
            epoch: self.latest_epoch,
            writer: self.snap.writer,
        }
    }
}

/// One row-level change produced by a write statement; drives triggers.
#[derive(Debug, Clone, PartialEq)]
pub struct RowChange {
    /// Affected table.
    pub table: String,
    /// Kind of change.
    pub event: TriggerEvent,
    /// Pre-image (UPDATE/DELETE).
    pub old: Option<Row>,
    /// Post-image (INSERT/UPDATE).
    pub new: Option<Row>,
}

/// Undo-log entry for transaction rollback. `pushed` records whether
/// the write superseded a *committed* version (which went to the
/// table's version history and must be popped back) or mutated the
/// transaction's own uncommitted image in place.
#[derive(Debug, Clone)]
pub enum UndoOp {
    /// Reverse an insert by removing the uncommitted row.
    Insert { table: String, rid: RowId },
    /// Reverse a delete by restoring the row image.
    Delete {
        table: String,
        rid: RowId,
        row: Row,
        pushed: bool,
    },
    /// Reverse an update by restoring the pre-image.
    Update {
        table: String,
        rid: RowId,
        before: Row,
        pushed: bool,
    },
}

/// Everything a write statement did, before triggers fire.
#[derive(Debug, Default)]
pub struct WriteEffect {
    /// Row-level changes in application order.
    pub changes: Vec<RowChange>,
    /// Undo operations in application order (rolled back in reverse).
    pub undo: Vec<UndoOp>,
    /// Rows affected.
    pub affected: u64,
}

// ---------------------------------------------------------------------
// Column layout: maps (binding, column) -> position in the combined row.
// ---------------------------------------------------------------------

/// The column namespace of a FROM/JOIN chain.
#[derive(Debug, Clone, Default)]
pub(crate) struct Layout {
    /// (binding name, column names, offset of first column).
    entries: Vec<(String, Vec<String>, usize)>,
    width: usize,
}

impl Layout {
    fn push_table(&mut self, binding: &str, table: &Table) {
        let cols: Vec<String> = table
            .schema()
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        let n = cols.len();
        self.entries.push((binding.to_owned(), cols, self.width));
        self.width += n;
    }

    /// Resolves a column reference to a combined-row position.
    fn resolve(&self, c: &ColumnRef) -> Result<usize> {
        match &c.table {
            Some(t) => {
                for (binding, cols, off) in &self.entries {
                    if binding == t {
                        if let Some(p) = cols.iter().position(|n| n == &c.column) {
                            return Ok(off + p);
                        }
                        return Err(StorageError::UnknownColumn {
                            table: t.clone(),
                            column: c.column.clone(),
                        });
                    }
                }
                Err(StorageError::UnknownTable(t.clone()))
            }
            None => {
                let mut found = None;
                for (_, cols, off) in &self.entries {
                    if let Some(p) = cols.iter().position(|n| n == &c.column) {
                        // First match wins; ORMs qualify ambiguous columns.
                        found = Some(off + p);
                        break;
                    }
                }
                found.ok_or_else(|| StorageError::UnknownColumn {
                    table: "<any>".to_owned(),
                    column: c.column.clone(),
                })
            }
        }
    }

    /// Output names for a `*` projection: bare column names in layout order.
    fn all_column_names(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.width);
        for (_, cols, _) in &self.entries {
            out.extend(cols.iter().cloned());
        }
        out
    }

    fn binder(&self) -> impl Fn(&ColumnRef) -> Result<usize> + '_ {
        move |c| self.resolve(c)
    }
}

// ---------------------------------------------------------------------
// Access-path planning — see crate::plan. The executor asks the planner
// for a Plan and mechanically walks whatever path it chose.
// ---------------------------------------------------------------------

/// Plans and runs the base-table access for a write statement's
/// predicate against the statement's snapshot. Charges probes to
/// `cost`; `None` means full heap scan.
fn plan_write_rids(
    table: &Table,
    binding: &str,
    pred: Option<&Expr>,
    params: &[Value],
    cost: &mut CostReport,
    snap: &Snapshot,
) -> Result<Option<Vec<RowId>>> {
    let plan = crate::plan::plan_access(table, binding, pred, &[], params)?;
    let eq = plan.path.eq_values();
    let rows = crate::plan::execute_path(table, &plan.path, eq, plan.reverse, cost, snap);
    Ok(rows.map(|rows| {
        // Writes process rows in heap order whatever path found them, so
        // trigger firing order matches the pre-planner engine.
        let mut rids: Vec<RowId> = rows.into_iter().map(|(rid, _)| rid).collect();
        rids.sort_unstable();
        rids
    }))
}

fn coerce_for(table: &Table, column: &str, v: &Value) -> Value {
    table
        .schema()
        .column(column)
        .and_then(|c| v.coerce_to(c.ty))
        .unwrap_or_else(|| v.clone())
}

fn touch_read(pool: &BufferPool, table: &Table, rid: RowId, cost: &mut CostReport) {
    let t = pool.touch(PageId {
        table: table.id(),
        page: table.page_of(rid),
    });
    if t.hit {
        cost.page_hits += 1;
    } else {
        cost.page_misses += 1;
    }
    cost.page_writebacks += t.writebacks;
}

// ---------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------

/// One output column of a non-aggregate projection.
enum Out {
    /// `*`: every column of the combined row.
    All,
    Expr(Expr),
}

/// One output column of an aggregate projection.
enum AggItem {
    Agg {
        func: AggFunc,
        arg: Option<Expr>,
    },
    /// A grouped column, evaluated on the group's first row.
    Expr(Expr),
}

/// The projection, bound: output column names plus how to produce them.
enum Output {
    /// Bare `SELECT *`: rows pass through.
    Star,
    Exprs(Vec<Out>),
    Aggregate {
        group_pos: Vec<usize>,
        items: Vec<AggItem>,
    },
}

/// Everything a SELECT resolves to against the catalog alone — column
/// positions, output names, the compiled WHERE clause. Valid for as long
/// as the catalog version it was bound under (DDL is the only thing that
/// changes a schema), whatever the data and the parameters.
pub(crate) struct BoundSelect {
    pub catalog_version: u64,
    /// WHERE, as conjunct atoms; every scan and join path evaluates it.
    compiled: CompiledPred,
    order_keys: Vec<(Expr, bool)>,
    columns: Arc<[String]>,
    output: Output,
    /// See [`crate::plan::KeyGuard`]: a plan is shared between parameter
    /// vectors only while all of these hold.
    pub guards: Vec<KeyGuard>,
}

fn output_name(expr: &Expr, alias: &Option<String>) -> String {
    alias.clone().unwrap_or_else(|| match expr {
        Expr::Column(c) => c.column.clone(),
        other => other.to_string(),
    })
}

impl BoundSelect {
    /// Binds `sel` against the latched tables.
    ///
    /// # Errors
    ///
    /// Unknown tables and columns, and the projection shapes the executor
    /// does not support.
    pub fn bind(tables: &TableSet<'_>, sel: &Select) -> Result<BoundSelect> {
        let mut layout = Layout::default();
        let mut slots = Vec::with_capacity(1 + sel.joins.len());
        for tref in std::iter::once(&sel.from).chain(sel.joins.iter().map(|j| &j.table)) {
            let table = tables.table(&tref.table)?;
            layout.push_table(tref.binding_name(), table);
            slots.push((tref.binding_name(), table));
        }
        let bind = |e: &Expr| e.bind(&layout.binder());
        let pred = sel.predicate.as_ref().map(bind).transpose()?;
        let order_keys = sel
            .order_by
            .iter()
            .map(|k| Ok((bind(&k.expr)?, k.desc)))
            .collect::<Result<Vec<_>>>()?;

        let mut columns = Vec::new();
        let output = if sel.is_aggregate() || !sel.group_by.is_empty() {
            if !sel.order_by.is_empty() {
                return Err(StorageError::Unsupported(
                    "ORDER BY combined with aggregates".into(),
                ));
            }
            let group_pos = sel
                .group_by
                .iter()
                .map(|c| layout.resolve(c))
                .collect::<Result<_>>()?;
            let mut items = Vec::with_capacity(sel.projection.len());
            for item in &sel.projection {
                match item {
                    SelectItem::Aggregate { func, arg, alias } => {
                        columns.push(
                            alias
                                .clone()
                                .unwrap_or_else(|| func.to_string().to_lowercase()),
                        );
                        items.push(AggItem::Agg {
                            func: *func,
                            arg: arg.as_ref().map(bind).transpose()?,
                        });
                    }
                    SelectItem::Expr { expr, alias } => {
                        columns.push(output_name(expr, alias));
                        items.push(AggItem::Expr(bind(expr)?));
                    }
                    SelectItem::Wildcard => {
                        return Err(StorageError::Unsupported(
                            "wildcard in aggregate projection".into(),
                        ))
                    }
                }
            }
            Output::Aggregate { group_pos, items }
        } else if matches!(sel.projection[..], [SelectItem::Wildcard]) {
            columns = layout.all_column_names();
            Output::Star
        } else {
            let mut outs = Vec::with_capacity(sel.projection.len());
            for item in &sel.projection {
                match item {
                    SelectItem::Wildcard => {
                        columns.extend(layout.all_column_names());
                        outs.push(Out::All);
                    }
                    SelectItem::Expr { expr, alias } => {
                        columns.push(output_name(expr, alias));
                        outs.push(Out::Expr(bind(expr)?));
                    }
                    SelectItem::Aggregate { .. } => {
                        unreachable!("is_aggregate() routes aggregates above")
                    }
                }
            }
            Output::Exprs(outs)
        };
        Ok(BoundSelect {
            catalog_version: tables.catalog_version(),
            compiled: CompiledPred::compile(pred.as_ref()),
            guards: crate::plan::key_guards(sel.predicate.as_ref(), &slots),
            order_keys,
            columns: columns.into(),
            output,
        })
    }
}

/// One join step of a plan, bound against the statement's layout as far
/// as the step: the probe expressions read the tables joined before it,
/// the ON residue reads the row once this step's table is appended.
struct BoundJoin {
    table: String,
    kind: JoinKind,
    on: Expr,
    method: BoundMethod,
}

enum BoundMethod {
    Pk(Expr),
    /// Position in [`Table::indexes`] (stable while the catalog version
    /// holds) and one key expression per index column.
    Index(usize, Vec<Expr>),
    Scan,
}

/// A [`QueryPlan`] made executable: join steps bound and — when the plan
/// is to be shared between parameter vectors — where its key values come
/// from. Stamped with what it was derived from, so a holder can tell when
/// it stops being the plan the planner would choose.
pub(crate) struct ExecPlan {
    qplan: QueryPlan,
    /// Parameter sources of `qplan.base.path`'s key values; empty when
    /// the plan is only ever run with the parameters it was planned for.
    key_sources: Vec<Option<KeyGuard>>,
    joins: Vec<BoundJoin>,
    /// [`BoundSelect::catalog_version`] the steps were bound under.
    pub catalog_version: u64,
    /// [`Table::band_stamp`] of each FROM/JOIN table (in the statement's
    /// sorted table order) the planner read.
    pub table_bands: Vec<u64>,
}

impl ExecPlan {
    /// Plans `sel` for `params` and binds the result. `sorted_tables` is
    /// the statement's latch set; `shared` says whether the plan will be
    /// reused for other parameter vectors.
    pub fn plan(
        tables: &TableSet<'_>,
        sel: &Select,
        bound: &BoundSelect,
        sorted_tables: &[String],
        params: &[Value],
        shared: bool,
    ) -> Result<ExecPlan> {
        let qplan = crate::plan::plan_query(tables, sel, params)?;
        let base = tables.table(&qplan.base.table)?;
        let key_sources = if shared {
            crate::plan::key_sources(
                base,
                &qplan.base_binding,
                sel.predicate.as_ref(),
                &qplan.base.path,
                params,
            )?
        } else {
            Vec::new()
        };

        // The statement's layout, one table at a time: probe expressions
        // bind against the tables joined before their step; ON residues
        // bind once the step's table is pushed.
        let mut layout = Layout::default();
        layout.push_table(&qplan.base_binding, base);
        let mut joins = Vec::with_capacity(qplan.joins.len());
        for jp in &qplan.joins {
            let jt = tables.table(&jp.table)?;
            let bind = |e: &Expr| e.bind(&layout.binder());
            let method = match &jp.method {
                JoinMethod::PkProbe { outer } => BoundMethod::Pk(bind(outer)?),
                JoinMethod::IndexProbe { index, outers } => {
                    let pos = jt
                        .indexes()
                        .iter()
                        .position(|i| &i.def().name == index)
                        .expect("planned index exists");
                    BoundMethod::Index(pos, outers.iter().map(bind).collect::<Result<_>>()?)
                }
                JoinMethod::NestedScan => BoundMethod::Scan,
            };
            layout.push_table(&jp.binding, jt);
            joins.push(BoundJoin {
                table: jp.table.clone(),
                kind: jp.kind,
                on: jp.on.bind(&layout.binder())?,
                method,
            });
        }
        let table_bands = sorted_tables
            .iter()
            .map(|t| Ok(tables.table(t)?.band_stamp()))
            .collect::<Result<_>>()?;
        Ok(ExecPlan {
            qplan,
            key_sources,
            joins,
            catalog_version: bound.catalog_version,
            table_bands,
        })
    }

    /// The driving table's equality key values rebound from `params`, or
    /// `None` when the kept path's own are this call's. Inline for keys
    /// of one or two values, so a rebind allocates no more than the
    /// coerced values themselves.
    fn rebound_eq(&self, params: &[Value]) -> Option<IndexKey> {
        if self.key_sources.iter().all(Option::is_none) {
            return None;
        }
        let mut eq = IndexKey::from_slice(self.qplan.base.path.eq_values());
        crate::plan::rebind_keys(&mut eq, &self.key_sources, params);
        Some(eq)
    }

    /// The plan as the planner would report it for `params`.
    pub fn query_plan(&self, params: &[Value]) -> QueryPlan {
        let mut qplan = self.qplan.clone();
        if let AccessPath::IndexScan { eq, .. } = &mut qplan.base.path {
            crate::plan::rebind_keys(eq, &self.key_sources, params);
        }
        qplan
    }
}

/// The rows a scan is about to examine: what an access path resolved
/// (each id with its visible version), or bare heap ids that are
/// resolved as the scan reaches them.
enum Candidates<'t> {
    Resolved(Vec<RowRef<'t>>),
    Heap(Vec<RowId>),
}

impl<'t> Candidates<'t> {
    fn heap(table: &Table) -> Self {
        Candidates::Heap(table.scan_rids())
    }

    fn len(&self) -> usize {
        match self {
            Candidates::Resolved(v) => v.len(),
            Candidates::Heap(v) => v.len(),
        }
    }

    /// Candidates `lo..hi`, each with its version when already resolved.
    fn range(&self, lo: usize, hi: usize) -> impl Iterator<Item = (RowId, Option<&'t Row>)> + '_ {
        let (resolved, heap): (&[RowRef<'t>], &[RowId]) = match self {
            Candidates::Resolved(v) => (&v[lo..hi], &[]),
            Candidates::Heap(v) => (&[], &v[lo..hi]),
        };
        resolved
            .iter()
            .map(|&(rid, row)| (rid, Some(row)))
            .chain(heap.iter().map(|&rid| (rid, None)))
    }

    fn iter(&self) -> impl Iterator<Item = (RowId, Option<&'t Row>)> + '_ {
        self.range(0, self.len())
    }
}

/// Examines one candidate: charges its page touch — before the
/// visibility check, because a scan reads the page before it can decide
/// whether the version is visible — and yields the version `snap` sees.
fn examine<'t>(
    table: &'t Table,
    (rid, resolved): (RowId, Option<&'t Row>),
    pool: &BufferPool,
    cost: &mut CostReport,
    snap: &Snapshot,
) -> Option<&'t Row> {
    touch_read(pool, table, rid, cost);
    let row = resolved.or_else(|| table.visible(rid, snap))?;
    cost.rows_scanned += 1;
    Some(row)
}

/// Runs one left row through a join step, appending combined rows. All
/// probes and fetches resolve against `snap`, so every joined table is
/// read at the same point in time as the driving table.
#[allow(clippy::too_many_arguments)]
fn join_step(
    jt: &Table,
    step: &BoundJoin,
    left: &Row,
    params: &[Value],
    pool: &BufferPool,
    cost: &mut CostReport,
    out: &mut Vec<Row>,
    snap: &Snapshot,
) -> Result<()> {
    let candidates = match &step.method {
        BoundMethod::Pk(outer) => {
            cost.index_probes += 1;
            let v = outer.eval(left, params)?;
            Candidates::Resolved(if v.is_null() {
                Vec::new()
            } else {
                let v = coerce_for(jt, jt.schema().primary_key(), &v);
                jt.index_scan(None, std::slice::from_ref(&v), WHOLE_RANGE, false, snap)
            })
        }
        BoundMethod::Index(pos, outers) => {
            cost.index_probes += 1;
            let idx = &jt.indexes()[*pos];
            let mut key = Vec::with_capacity(outers.len());
            for (col, e) in idx.def().columns.iter().zip(outers) {
                let v = e.eval(left, params)?;
                if v.is_null() {
                    // SQL equality never matches NULL.
                    break;
                }
                key.push(coerce_for(jt, col, &v));
            }
            Candidates::Resolved(if key.len() < outers.len() {
                Vec::new()
            } else {
                jt.index_scan(Some(idx), &key, WHOLE_RANGE, false, snap)
            })
        }
        BoundMethod::Scan => Candidates::heap(jt),
    };
    let mut matched = false;
    for cand in candidates.iter() {
        let Some(r) = examine(jt, cand, pool, cost, snap) else {
            continue;
        };
        let combined: Row = left.values().iter().chain(r.values()).cloned().collect();
        if step.on.matches(&combined, params)? {
            matched = true;
            out.push(combined);
        }
    }
    if !matched && step.kind == JoinKind::Left {
        let nulls = std::iter::repeat_n(Value::Null, jt.schema().arity());
        out.push(left.values().iter().cloned().chain(nulls).collect());
    }
    Ok(())
}

/// Executes a prepared SELECT at the given read snapshot. Never waits
/// for a writer: visibility comes entirely from the version metadata, so
/// readers proceed while writer transactions hold uncommitted versions.
pub(crate) fn run_prepared(
    tables: &TableSet<'_>,
    pool: &BufferPool,
    prepared: &PreparedSelect,
    params: &[Value],
    cost: &mut CostReport,
    snap: &Snapshot,
) -> Result<QueryResult> {
    let (bound, plan) = prepared.resolve(tables, params)?;
    let sel = prepared.select();
    let qplan = &plan.qplan;
    let base = tables.table(&qplan.base.table)?;
    let path = &qplan.base.path;
    let rebound = plan.rebound_eq(params);
    let eq = rebound.as_deref().unwrap_or(path.eq_values());

    // COUNT(*) pushdown: the planner proved the path yields exactly the
    // matching rows, so count them instead of building rows.
    if qplan.count_only {
        let n = run_count_only(base, path, eq, cost, snap);
        cost.rows_returned += 1;
        return Ok(count_result(&bound, n));
    }

    let join_tables = plan
        .joins
        .iter()
        .map(|j| tables.table(&j.table))
        .collect::<Result<Vec<_>>>()?;

    // --- base scan + pipeline ---
    let candidates = match crate::plan::execute_path(base, path, eq, qplan.base.reverse, cost, snap)
    {
        Some(mut rows) => {
            if !qplan.order_satisfied {
                // Path order only matters when the executor keeps it
                // (sort skipped). Otherwise restore heap order so the
                // stable sort breaks ties identically with and without
                // indexes — and unordered queries return heap order like
                // a full scan.
                rows.sort_unstable_by_key(|&(rid, _)| rid);
            }
            Candidates::Resolved(rows)
        }
        None => Candidates::heap(base),
    };

    // With `fetch_limit` the pipeline's output order is final, so the
    // scan stops as soon as enough output rows exist — this is what cuts
    // Top-K page-query tail latency from O(matches) to O(k).
    let target = qplan.fetch_limit.map(|k| k as usize);

    let aggregate = matches!(bound.output, Output::Aggregate { .. });

    // Bounded top-k: when the ORDER BY is not index-satisfied but LIMIT k
    // is present, keep only the best `LIMIT + OFFSET` rows during the
    // scan instead of materializing every match and fully sorting it.
    let sorts = !bound.order_keys.is_empty() && !qplan.order_satisfied;
    let mut topk: Option<TopK<'_>> = match sel.limit {
        Some(limit) if sorts && !aggregate => {
            let cap = limit.saturating_add(sel.offset.unwrap_or(0)) as usize;
            Some(TopK::new(&bound.order_keys, cap))
        }
        _ => None,
    };

    let vectorized = plan.joins.is_empty();

    // COUNT(*) with a residual predicate: count batch survivors without
    // materializing a single row. Plain COUNT(*) (no predicate or an
    // index-exact one) never reaches here — `count_only` answered it.
    if vectorized && target.is_none() && crate::plan::is_count_star_shape(sel) {
        let n = count_matching(base, &candidates, &bound.compiled, params, pool, cost, snap)?;
        cost.rows_returned += 1;
        return Ok(count_result(&bound, n));
    }

    let mut current: Vec<Row> = Vec::new();
    if vectorized {
        scan_vectorized(
            base,
            &candidates,
            &bound.compiled,
            params,
            pool,
            cost,
            snap,
            target,
            &mut topk,
            &mut current,
        )?;
    } else {
        'scan: for cand in candidates.iter() {
            let Some(r0) = examine(base, cand, pool, cost, snap) else {
                continue;
            };
            let mut batch: Vec<Row> = vec![r0.clone()];
            for (step, jt) in plan.joins.iter().zip(&join_tables) {
                if batch.is_empty() {
                    break;
                }
                let mut next = Vec::new();
                for left in &batch {
                    join_step(jt, step, left, params, pool, cost, &mut next, snap)?;
                }
                batch = next;
            }
            for row in batch {
                if bound.compiled.matches(&row, params)? {
                    match &mut topk {
                        Some(tk) => tk.offer(row, params)?,
                        None => {
                            current.push(row);
                            if target.is_some_and(|t| current.len() >= t) {
                                break 'scan;
                            }
                        }
                    }
                }
            }
        }
    }

    // Drain the bounded heap: rows come out already in final order, so
    // the full sort below is skipped (its cost too).
    let topk_sorted = topk.is_some();
    if let Some(tk) = topk {
        cost.sorts += 1;
        cost.sort_rows += tk.insertions;
        current = tk.into_rows();
    }

    // --- aggregates ---
    if let Output::Aggregate { group_pos, items } = &bound.output {
        let rows = run_aggregate(group_pos, items, current, params)?;
        cost.rows_returned += rows.len() as u64;
        return Ok(QueryResult {
            columns: bound.columns.clone(),
            rows,
            rows_affected: 0,
        });
    }

    // --- ORDER BY ---
    // When the pipeline already yields the requested order (ordered base
    // scan surviving single-row joins), the sort — and its cost — is
    // skipped entirely.
    if sorts && !topk_sorted {
        let keys = &bound.order_keys;
        cost.sorts += 1;
        cost.sort_rows += current.len() as u64;
        let mut decorated: Vec<(Vec<Value>, Row)> = current
            .into_iter()
            .map(|r| {
                let kv = keys
                    .iter()
                    .map(|(e, _)| e.eval(&r, params))
                    .collect::<Result<Vec<_>>>()?;
                Ok((kv, r))
            })
            .collect::<Result<_>>()?;
        decorated.sort_by(|(ka, _), (kb, _)| cmp_order_keys(keys, ka, kb));
        current = decorated.into_iter().map(|(_, r)| r).collect();
    }

    // --- OFFSET / LIMIT ---
    let offset = sel.offset.unwrap_or(0) as usize;
    if offset > 0 {
        current = current.into_iter().skip(offset).collect();
    }
    if let Some(limit) = sel.limit {
        current.truncate(limit as usize);
    }

    // --- projection ---
    let rows = match &bound.output {
        Output::Exprs(outs) => project(outs, current, params)?,
        Output::Star | Output::Aggregate { .. } => current,
    };
    cost.rows_returned += rows.len() as u64;
    Ok(QueryResult {
        columns: bound.columns.clone(),
        rows,
        rows_affected: 0,
    })
}

/// The one-row result of a `COUNT(*)` answered without materializing.
fn count_result(bound: &BoundSelect, n: i64) -> QueryResult {
    QueryResult {
        columns: bound.columns.clone(),
        rows: vec![Row::new(vec![Value::Int(n)])],
        rows_affected: 0,
    }
}

/// Compares two ORDER BY key tuples under the keys' ASC/DESC directions.
fn cmp_order_keys(keys: &[(Expr, bool)], a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (i, (_, desc)) in keys.iter().enumerate() {
        let ord = a[i].cmp(&b[i]);
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

// ---------------------------------------------------------------------
// Vectorized scans
// ---------------------------------------------------------------------

/// Rows per scan morsel: the unit of vectorized predicate evaluation.
pub(crate) const BATCH_ROWS: usize = 1024;

/// The constant side of a compiled comparison: a literal, or a parameter
/// looked up per call — so one compiled predicate serves every parameter
/// vector.
enum Operand {
    Literal(Value),
    Param(usize),
}

impl Operand {
    /// # Errors
    ///
    /// The error evaluating a missing `$n` reports.
    fn value<'a>(&'a self, params: &'a [Value]) -> Result<&'a Value> {
        match self {
            Operand::Literal(v) => Ok(v),
            Operand::Param(i) => params
                .get(*i)
                .ok_or_else(|| StorageError::Eval(format!("missing parameter ${}", i + 1))),
        }
    }
}

/// One WHERE conjunct, pre-compiled for every scan and join path.
enum Atom {
    /// `column <op> constant` — the shape ORM filters overwhelmingly
    /// take. Evaluated column-at-a-time with zero per-row allocation.
    Cmp { pos: usize, op: CmpOp, val: Operand },
    /// Anything else falls back to the interpreted expression.
    Generic(Expr),
}

/// Tri-state truth of one atom on one row (SQL three-valued logic).
enum Truth {
    True,
    False,
    Null,
}

impl Atom {
    fn truth(&self, row: &Row, params: &[Value]) -> Result<Truth> {
        match self {
            Atom::Cmp { pos, op, val } => Ok(match row.get(*pos).sql_cmp(val.value(params)?) {
                Some(ord) if op.holds(ord) => Truth::True,
                Some(_) => Truth::False,
                None => Truth::Null,
            }),
            Atom::Generic(e) => Ok(match e.eval(row, params)? {
                Value::Bool(true) => Truth::True,
                Value::Bool(false) => Truth::False,
                _ => Truth::Null,
            }),
        }
    }
}

/// A WHERE clause compiled into conjunct atoms. Evaluation mirrors the
/// interpreted `AND` chain exactly: FALSE short-circuits, NULL makes the
/// row non-matching but keeps evaluating (so an error in a later
/// conjunct still surfaces), and a row matches only if every atom is TRUE.
struct CompiledPred {
    atoms: Vec<Atom>,
}

impl CompiledPred {
    fn compile(pred: Option<&Expr>) -> CompiledPred {
        let atoms = match pred {
            Some(p) => p.conjuncts().into_iter().map(compile_atom).collect(),
            None => Vec::new(),
        };
        CompiledPred { atoms }
    }

    fn matches(&self, row: &Row, params: &[Value]) -> Result<bool> {
        let mut all_true = true;
        for atom in &self.atoms {
            match atom.truth(row, params)? {
                Truth::True => {}
                Truth::False => return Ok(false),
                Truth::Null => all_true = false,
            }
        }
        Ok(all_true)
    }
}

fn compile_atom(e: &Expr) -> Atom {
    if let Expr::Cmp(a, op, b) = e {
        let val = match &**b {
            Expr::Literal(v) => Some(Operand::Literal(v.clone())),
            Expr::Param(i) => Some(Operand::Param(*i)),
            _ => None,
        };
        if let (Expr::BoundColumn(pos), Some(val)) = (&**a, val) {
            return Atom::Cmp {
                pos: *pos,
                op: *op,
                val,
            };
        }
    }
    Atom::Generic(e.clone())
}

/// One morsel of visible rows with a survivor bitmap. Rows are borrowed
/// from the table (zero-copy); predicate columns are read column-at-a-
/// time across the batch; only survivors are ever cloned (late
/// materialization). A row-at-a-time compiled loop in its place scanned
/// a 60 000-row heap faster (4.01 → 4.47 M rows/s on a 2-vCPU host) but
/// resolved scattered 20-row index results slower (7.4 → 9.7–10.1 µs in
/// `micro_lookup`'s `entry_resolution`), so the batch stays.
struct RowBatch<'a> {
    rows: Vec<&'a Row>,
    /// Survivor bitmap: row still matches every atom applied so far.
    sel: Vec<bool>,
    /// Row still participates in atom evaluation. Diverges from `sel`
    /// only on NULL atoms, which exclude the row from the result but —
    /// matching interpreted `AND` — keep evaluating later conjuncts.
    live: Vec<bool>,
}

impl<'a> RowBatch<'a> {
    /// Touches every examined candidate's page and collects the visible
    /// rows.
    fn gather(
        table: &'a Table,
        candidates: impl Iterator<Item = (RowId, Option<&'a Row>)>,
        pool: &BufferPool,
        cost: &mut CostReport,
        snap: &Snapshot,
    ) -> RowBatch<'a> {
        let mut rows: Vec<&'a Row> = Vec::with_capacity(candidates.size_hint().0);
        rows.extend(candidates.filter_map(|cand| examine(table, cand, pool, cost, snap)));
        let n = rows.len();
        RowBatch {
            rows,
            sel: vec![true; n],
            live: vec![true; n],
        }
    }

    /// Applies every predicate atom across the batch, column-at-a-time.
    fn filter(&mut self, pred: &CompiledPred, params: &[Value]) -> Result<()> {
        for atom in &pred.atoms {
            for i in 0..self.rows.len() {
                if self.live[i] {
                    match atom.truth(self.rows[i], params)? {
                        Truth::True => {}
                        Truth::False => {
                            self.sel[i] = false;
                            self.live[i] = false;
                        }
                        Truth::Null => self.sel[i] = false,
                    }
                }
            }
        }
        Ok(())
    }

    /// Surviving rows in batch (heap) order.
    fn selected(&self) -> impl Iterator<Item = &'a Row> + '_ {
        self.rows
            .iter()
            .zip(&self.sel)
            .filter(|(_, s)| **s)
            .map(|(r, _)| *r)
    }
}

/// The vectorized join-free scan: one morsel at a time, or row at a
/// time when an early-exit target bounds it.
#[allow(clippy::too_many_arguments)]
fn scan_vectorized<'t>(
    base: &'t Table,
    candidates: &Candidates<'t>,
    compiled: &CompiledPred,
    params: &[Value],
    pool: &BufferPool,
    cost: &mut CostReport,
    snap: &Snapshot,
    target: Option<usize>,
    topk: &mut Option<TopK<'_>>,
    out: &mut Vec<Row>,
) -> Result<()> {
    if let Some(t) = target {
        // Early-exit shape: row-at-a-time so the scan stops at exactly
        // the row that completes the output — and charges exactly the
        // rows it examined. The compiled predicate runs on the borrowed
        // row: no clone unless the row matches.
        debug_assert!(topk.is_none(), "fetch_limit implies no late sort");
        for cand in candidates.iter() {
            let Some(r) = examine(base, cand, pool, cost, snap) else {
                continue;
            };
            if compiled.matches(r, params)? {
                out.push(r.clone());
                if out.len() >= t {
                    break;
                }
            }
        }
        return Ok(());
    }
    for lo in (0..candidates.len()).step_by(BATCH_ROWS) {
        let hi = (lo + BATCH_ROWS).min(candidates.len());
        let mut batch = RowBatch::gather(base, candidates.range(lo, hi), pool, cost, snap);
        batch.filter(compiled, params)?;
        for r in batch.selected() {
            match topk.as_mut() {
                Some(tk) => tk.offer(r.clone(), params)?,
                None => out.push(r.clone()),
            }
        }
    }
    Ok(())
}

/// `COUNT(*) WHERE ...` without materialization: batch survivors are
/// counted, never cloned. Scans every candidate (counts cannot
/// early-exit).
fn count_matching<'t>(
    base: &'t Table,
    candidates: &Candidates<'t>,
    compiled: &CompiledPred,
    params: &[Value],
    pool: &BufferPool,
    cost: &mut CostReport,
    snap: &Snapshot,
) -> Result<i64> {
    let total = candidates.len();
    let mut n = 0i64;
    for lo in (0..total).step_by(BATCH_ROWS) {
        let hi = (lo + BATCH_ROWS).min(total);
        let mut batch = RowBatch::gather(base, candidates.range(lo, hi), pool, cost, snap);
        batch.filter(compiled, params)?;
        n += batch.selected().count() as i64;
    }
    Ok(n)
}

/// Bounded top-k accumulator for `ORDER BY ... LIMIT k` without a usable
/// index order: a sorted vector of at most `cap` rows. Ties keep arrival
/// (heap) order — exactly what the executor's stable sort produces — so
/// results are identical to sort-then-truncate.
struct TopK<'k> {
    keys: &'k [(Expr, bool)],
    cap: usize,
    /// (sort key values, row), kept sorted per the ORDER BY.
    entries: Vec<(Vec<Value>, Row)>,
    /// Rows that actually entered the bounded set (the sort work done).
    insertions: u64,
}

impl<'k> TopK<'k> {
    fn new(keys: &'k [(Expr, bool)], cap: usize) -> Self {
        TopK {
            keys,
            cap,
            entries: Vec::new(),
            insertions: 0,
        }
    }

    fn offer(&mut self, row: Row, params: &[Value]) -> Result<()> {
        if self.cap == 0 {
            return Ok(());
        }
        let kv = self
            .keys
            .iter()
            .map(|(e, _)| e.eval(&row, params))
            .collect::<Result<Vec<_>>>()?;
        // First slot that sorts strictly after the candidate; equal keys
        // land before it (the candidate arrived later — stable order).
        let pos = self.entries.partition_point(|(ek, _)| {
            cmp_order_keys(self.keys, ek, &kv) != std::cmp::Ordering::Greater
        });
        if pos >= self.cap {
            return Ok(()); // worse than every kept row
        }
        self.entries.insert(pos, (kv, row));
        self.entries.truncate(self.cap);
        self.insertions += 1;
        Ok(())
    }

    fn into_rows(self) -> Vec<Row> {
        self.entries.into_iter().map(|(_, r)| r).collect()
    }
}

/// Answers a planner-approved `SELECT COUNT(*)` without building a row:
/// the number of entries the access path yields, or the visible row count
/// for a predicate-free scan. Every entry is still resolved against the
/// snapshot through its heap slot, so counts agree with what a full scan
/// at the same snapshot would return, but no buffer-pool page is touched
/// and no row is copied.
fn run_count_only(
    base: &Table,
    path: &AccessPath,
    eq: &[Value],
    cost: &mut CostReport,
    snap: &Snapshot,
) -> i64 {
    match crate::plan::execute_path(base, path, eq, false, cost, snap) {
        Some(rows) => rows.len() as i64,
        None => base.visible_len(snap) as i64,
    }
}

fn project(outs: &[Out], input: Vec<Row>, params: &[Value]) -> Result<Vec<Row>> {
    let mut rows = Vec::with_capacity(input.len());
    for r in input {
        let width = outs
            .iter()
            .map(|out| match out {
                Out::All => r.arity(),
                Out::Expr(_) => 1,
            })
            .sum();
        rows.push(Row::try_build(width, |slots| {
            let mut at = 0;
            for out in outs {
                match out {
                    Out::All => {
                        slots[at..at + r.arity()].clone_from_slice(r.values());
                        at += r.arity();
                    }
                    Out::Expr(e) => {
                        slots[at] = e.eval(&r, params)?;
                        at += 1;
                    }
                }
            }
            Ok(())
        })?);
    }
    Ok(rows)
}

fn run_aggregate(
    group_pos: &[usize],
    items: &[AggItem],
    input: Vec<Row>,
    params: &[Value],
) -> Result<Vec<Row>> {
    // Group rows.
    let mut groups: Vec<Vec<Row>> = Vec::new();
    if group_pos.is_empty() {
        groups.push(input);
    } else {
        use std::collections::HashMap;
        let mut map: HashMap<Vec<Value>, usize> = HashMap::new();
        for r in input {
            let key: Vec<Value> = group_pos.iter().map(|&p| r.get(p).clone()).collect();
            match map.get(&key) {
                Some(&i) => groups[i].push(r),
                None => {
                    map.insert(key, groups.len());
                    groups.push(vec![r]);
                }
            }
        }
    }

    let mut out_rows = Vec::with_capacity(groups.len());
    for rows in &groups {
        let mut vals = Vec::with_capacity(items.len());
        for item in items {
            match item {
                AggItem::Agg { func, arg } => {
                    vals.push(aggregate(*func, arg.as_ref(), rows, params)?);
                }
                AggItem::Expr(e) => {
                    // Must be a grouped column: evaluate on the first row.
                    let rep = rows.first().cloned().unwrap_or_default();
                    vals.push(e.eval(&rep, params)?);
                }
            }
        }
        out_rows.push(Row::new(vals));
    }
    Ok(out_rows)
}

fn aggregate(func: AggFunc, arg: Option<&Expr>, rows: &[Row], params: &[Value]) -> Result<Value> {
    match func {
        AggFunc::Count => match arg {
            None => Ok(Value::Int(rows.len() as i64)),
            Some(e) => {
                let mut n = 0i64;
                for r in rows {
                    if !e.eval(r, params)?.is_null() {
                        n += 1;
                    }
                }
                Ok(Value::Int(n))
            }
        },
        AggFunc::Sum | AggFunc::Avg => {
            let e = arg
                .ok_or_else(|| StorageError::Unsupported(format!("{func} requires an argument")))?;
            let mut sum = 0.0f64;
            let mut n = 0u64;
            let mut all_int = true;
            let mut isum = 0i64;
            for r in rows {
                let v = e.eval(r, params)?;
                match v {
                    Value::Null => {}
                    Value::Int(i) => {
                        isum = isum.wrapping_add(i);
                        sum += i as f64;
                        n += 1;
                    }
                    Value::Float(f) => {
                        all_int = false;
                        sum += f;
                        n += 1;
                    }
                    other => {
                        return Err(StorageError::Eval(format!(
                            "{func} over non-numeric value {other}"
                        )))
                    }
                }
            }
            if n == 0 {
                return Ok(Value::Null);
            }
            Ok(match func {
                AggFunc::Sum if all_int => Value::Int(isum),
                AggFunc::Sum => Value::Float(sum),
                _ => Value::Float(sum / n as f64),
            })
        }
        AggFunc::Min | AggFunc::Max => {
            let e = arg
                .ok_or_else(|| StorageError::Unsupported(format!("{func} requires an argument")))?;
            let mut best: Option<Value> = None;
            for r in rows {
                let v = e.eval(r, params)?;
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take_new = match func {
                            AggFunc::Min => v < b,
                            _ => v > b,
                        };
                        if take_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

// ---------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------

/// Executes an INSERT under `view` (versioned: the rows stay invisible
/// to other snapshots until the transaction commits).
pub(crate) fn run_insert(
    tables: &mut TableSet<'_>,
    pool: &BufferPool,
    ins: &Insert,
    params: &[Value],
    cost: &mut CostReport,
    view: &ExecView,
) -> Result<WriteEffect> {
    // Evaluate all rows up front (no row context in VALUES).
    let schema = tables.table(&ins.table)?.schema().clone();
    let mut full_rows = Vec::with_capacity(ins.rows.len());
    for exprs in &ins.rows {
        let row = if ins.columns.is_empty() {
            if exprs.len() != schema.arity() {
                return Err(StorageError::TypeMismatch {
                    column: format!("{}(*)", ins.table),
                    expected: format!("{} values", schema.arity()),
                    got: format!("{} values", exprs.len()),
                });
            }
            Row::try_build(exprs.len(), |slots| {
                for (slot, e) in slots.iter_mut().zip(exprs) {
                    *slot = eval_const(e, params)?;
                }
                Ok(())
            })?
        } else {
            if exprs.len() != ins.columns.len() {
                return Err(StorageError::TypeMismatch {
                    column: format!("{}(*)", ins.table),
                    expected: format!("{} values", ins.columns.len()),
                    got: format!("{} values", exprs.len()),
                });
            }
            Row::try_build(schema.arity(), |slots| {
                for (col, e) in ins.columns.iter().zip(exprs) {
                    slots[schema.require_column(col)?] = eval_const(e, params)?;
                }
                Ok(())
            })?
        };
        full_rows.push(row);
    }

    // Foreign-key checks (charge one probe per FK per row).
    for row in &full_rows {
        check_foreign_keys(tables, pool, &schema, row, cost, view)?;
    }

    let tid = view.tid();
    let table = tables.table_mut(&ins.table)?;
    let mut effect = WriteEffect::default();
    for row in full_rows {
        // Statement atomicity: a failure on row N (unique violation,
        // write conflict) must also undo rows 1..N-1 — leaking their
        // versions would leave keys permanently wedged on a writer that
        // never commits.
        let rid = match table.insert_txn(row.clone(), tid, &view.snap) {
            Ok(rid) => rid,
            Err(e) => {
                undo_same_table(table, effect.undo, tid);
                return Err(e);
            }
        };
        let stored = table.get(rid).expect("just inserted").clone();
        // Re-borrow immutably for page math is fine: same table.
        let page = PageId {
            table: table.id(),
            page: table.page_of(rid),
        };
        let t = pool.touch_write(page);
        if t.hit {
            cost.page_hits += 1;
        } else {
            cost.page_misses += 1;
        }
        cost.page_writebacks += t.writebacks;
        cost.rows_written += 1;
        effect.affected += 1;
        effect.undo.push(UndoOp::Insert {
            table: ins.table.clone(),
            rid,
        });
        effect.changes.push(RowChange {
            table: ins.table.clone(),
            event: TriggerEvent::Insert,
            old: None,
            new: Some(stored),
        });
    }
    Ok(effect)
}

/// Rolls back a half-applied statement's writes (all on one table), in
/// reverse order — the statement-atomicity path. Unlike
/// [`apply_undo`], the caller still holds the table borrow.
fn undo_same_table(table: &mut Table, undo: Vec<UndoOp>, tid: TxnId) {
    for op in undo.into_iter().rev() {
        match op {
            UndoOp::Insert { rid, .. } => table.undo_insert(rid),
            UndoOp::Delete {
                rid, row, pushed, ..
            } => table.undo_delete(rid, row, pushed, tid),
            UndoOp::Update {
                rid,
                before,
                pushed,
                ..
            } => table.undo_update(rid, before, pushed, tid),
        }
    }
}

/// Validates a row's foreign keys conservatively in both directions: the
/// parent must be **visible** at the latest committed epoch plus the
/// writer's own rows ([`ExecView::fk_snap`]) — so another transaction's
/// uncommitted parent insert does not satisfy the constraint (it may
/// roll back) — *and* a **live heap row must still carry the key** — so
/// a parent under another transaction's uncommitted delete *or pk move*
/// fails the check too (that write may commit, orphaning the child).
/// Only a parent both committed-visible and not pending removal passes.
///
/// Parent tables are read-latched by the statement's latch plan, which
/// collects FK parents precisely for these probes.
fn check_foreign_keys(
    tables: &TableSet<'_>,
    pool: &BufferPool,
    schema: &crate::schema::TableSchema,
    row: &Row,
    cost: &mut CostReport,
    view: &ExecView,
) -> Result<()> {
    let fk_snap = view.fk_snap();
    for fk in schema.foreign_keys() {
        let pos = schema.require_column(&fk.column)?;
        let v = row.get(pos);
        if v.is_null() {
            continue;
        }
        let ref_table = tables.table(&fk.ref_table)?;
        cost.index_probes += 1;
        let v = coerce_for(ref_table, &fk.ref_column, v);
        match ref_table.fk_probe(&v, &fk_snap) {
            (Some(rid), true) => touch_read(pool, ref_table, rid, cost),
            // Committed-visible but no live heap row carries the key:
            // the only way is another transaction's *pending* delete or
            // pk move (committed changes would show in both views).
            // That race is unresolved — retryable, like every other
            // pending-write collision in this engine.
            (Some(_), false) => {
                return Err(StorageError::WriteConflict {
                    table: fk.ref_table.clone(),
                    key: v.to_string(),
                    row: false,
                })
            }
            (None, _) => {
                return Err(StorageError::ForeignKeyViolation {
                    constraint: fk.name.clone(),
                    detail: format!(
                        "{} = {v} not present in {}.{}",
                        fk.column, fk.ref_table, fk.ref_column
                    ),
                })
            }
        }
    }
    Ok(())
}

/// Executes an UPDATE under `view`: rows match against the statement's
/// snapshot, and each write passes the first-updater-wins gate —
/// touching a row whose newest committed version postdates the snapshot
/// aborts with [`StorageError::WriteConflict`].
pub(crate) fn run_update(
    tables: &mut TableSet<'_>,
    pool: &BufferPool,
    upd: &Update,
    params: &[Value],
    cost: &mut CostReport,
    view: &ExecView,
) -> Result<WriteEffect> {
    let schema = tables.table(&upd.table)?.schema().clone();
    let mut layout = Layout::default();
    layout.push_table(&upd.table, tables.table(&upd.table)?);
    let snap = view.snap;
    let tid = view.tid();

    // Plan matching rows against the snapshot.
    let match_rids = {
        let table = tables.table(&upd.table)?;
        let rids = plan_write_rids(
            table,
            &upd.table,
            upd.predicate.as_ref(),
            params,
            cost,
            &snap,
        )?;
        let bound = match &upd.predicate {
            Some(p) => Some(p.bind(&layout.binder())?),
            None => None,
        };
        let candidates: Vec<RowId> = match rids {
            Some(r) => r,
            None => table.scan_rids(),
        };
        let mut matched = Vec::new();
        for rid in candidates {
            touch_read(pool, table, rid, cost);
            let Some(row) = table.visible(rid, &snap) else {
                continue;
            };
            cost.rows_scanned += 1;
            let keep = match &bound {
                Some(p) => p.matches(row, params)?,
                None => true,
            };
            if keep {
                matched.push(rid);
            }
        }
        matched
    };

    // Bind SET expressions against the single-table layout.
    let sets: Vec<(usize, Expr)> = upd
        .sets
        .iter()
        .map(|(c, e)| Ok((schema.require_column(c)?, e.bind(&layout.binder())?)))
        .collect::<Result<_>>()?;

    let mut effect = WriteEffect::default();
    let applied = apply_update_rows(
        tables,
        pool,
        upd,
        &schema,
        &sets,
        &match_rids,
        params,
        cost,
        view,
        &mut effect,
    );
    if let Err(e) = applied {
        // Statement atomicity: a conflict or constraint failure on row
        // N also undoes rows 1..N-1 (their versions would otherwise
        // leak on a writer that never commits).
        undo_same_table(
            tables.table_mut(&upd.table)?,
            std::mem::take(&mut effect.undo),
            tid,
        );
        return Err(e);
    }
    Ok(effect)
}

/// The row-application loop of [`run_update`], split out so its caller
/// can roll back a half-applied statement on error.
#[allow(clippy::too_many_arguments)]
fn apply_update_rows(
    tables: &mut TableSet<'_>,
    pool: &BufferPool,
    upd: &Update,
    schema: &crate::schema::TableSchema,
    sets: &[(usize, Expr)],
    match_rids: &[RowId],
    params: &[Value],
    cost: &mut CostReport,
    view: &ExecView,
    effect: &mut WriteEffect,
) -> Result<()> {
    let snap = view.snap;
    let tid = view.tid();
    for &rid in match_rids {
        let old = tables
            .table(&upd.table)?
            .visible(rid, &snap)
            .cloned()
            .ok_or_else(|| StorageError::Eval("row vanished during update".into()))?;
        let mut new = old.clone();
        for (pos, e) in sets {
            let v = e.eval(&old, params)?;
            new.values_mut()[*pos] = v;
        }
        // FK checks against the new image.
        check_foreign_keys(tables, pool, schema, &new, cost, view)?;
        let table = tables.table_mut(&upd.table)?;
        // The write gate guarantees `before` equals the version the
        // snapshot matched (or the transaction's own newer image).
        let (before, pushed) = table.update_txn(rid, new.clone(), tid, &snap)?;
        let stored = table.get(rid).expect("just updated").clone();
        touch_write_raw(pool, table.id(), table.page_of(rid), cost);
        cost.rows_written += 1;
        effect.affected += 1;
        effect.undo.push(UndoOp::Update {
            table: upd.table.clone(),
            rid,
            before: before.clone(),
            pushed,
        });
        effect.changes.push(RowChange {
            table: upd.table.clone(),
            event: TriggerEvent::Update,
            old: Some(before),
            new: Some(stored),
        });
    }
    Ok(())
}

fn touch_write_raw(pool: &BufferPool, table: u32, page: u64, cost: &mut CostReport) {
    let t = pool.touch_write(PageId { table, page });
    if t.hit {
        cost.page_hits += 1;
    } else {
        cost.page_misses += 1;
    }
    cost.page_writebacks += t.writebacks;
}

/// Executes a DELETE under `view`: rows match against the statement's
/// snapshot and pass the first-updater-wins gate; the deleted versions
/// stay visible to older snapshots until vacuumed.
pub(crate) fn run_delete(
    tables: &mut TableSet<'_>,
    pool: &BufferPool,
    del: &Delete,
    params: &[Value],
    cost: &mut CostReport,
    view: &ExecView,
) -> Result<WriteEffect> {
    let mut layout = Layout::default();
    layout.push_table(&del.table, tables.table(&del.table)?);
    let snap = view.snap;
    let tid = view.tid();
    let match_rids = {
        let table = tables.table(&del.table)?;
        let rids = plan_write_rids(
            table,
            &del.table,
            del.predicate.as_ref(),
            params,
            cost,
            &snap,
        )?;
        let bound = match &del.predicate {
            Some(p) => Some(p.bind(&layout.binder())?),
            None => None,
        };
        let candidates: Vec<RowId> = match rids {
            Some(r) => r,
            None => table.scan_rids(),
        };
        let mut matched = Vec::new();
        for rid in candidates {
            touch_read(pool, table, rid, cost);
            let Some(row) = table.visible(rid, &snap) else {
                continue;
            };
            cost.rows_scanned += 1;
            let keep = match &bound {
                Some(p) => p.matches(row, params)?,
                None => true,
            };
            if keep {
                matched.push(rid);
            }
        }
        matched
    };

    let table = tables.table_mut(&del.table)?;
    let mut effect = WriteEffect::default();
    for rid in match_rids {
        // Statement atomicity: see run_insert.
        let (old, pushed) = match table.delete_txn(rid, tid, &snap) {
            Ok(r) => r,
            Err(e) => {
                undo_same_table(table, effect.undo, tid);
                return Err(e);
            }
        };
        touch_write_raw(pool, table.id(), table.page_of(rid), cost);
        cost.rows_written += 1;
        effect.affected += 1;
        effect.undo.push(UndoOp::Delete {
            table: del.table.clone(),
            rid,
            row: old.clone(),
            pushed,
        });
        effect.changes.push(RowChange {
            table: del.table.clone(),
            event: TriggerEvent::Delete,
            old: Some(old),
            new: None,
        });
    }
    Ok(effect)
}

/// Applies `tid`'s undo operations in reverse order (transaction
/// rollback): uncommitted versions disappear, pushed history versions
/// pop back into place, and no other snapshot ever observes an
/// intermediate state. The table set must write-cover every table the
/// undo log names (commit/rollback latch exactly that set).
pub(crate) fn apply_undo(tables: &mut TableSet<'_>, undo: Vec<UndoOp>, tid: TxnId) -> Result<()> {
    for op in undo.into_iter().rev() {
        match op {
            UndoOp::Insert { table, rid } => {
                tables.table_mut(&table)?.undo_insert(rid);
            }
            UndoOp::Delete {
                table,
                rid,
                row,
                pushed,
            } => {
                tables.table_mut(&table)?.undo_delete(rid, row, pushed, tid);
            }
            UndoOp::Update {
                table,
                rid,
                before,
                pushed,
            } => {
                tables
                    .table_mut(&table)?
                    .undo_update(rid, before, pushed, tid);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    /// Columns per generated row.
    const ARITY: usize = 3;
    /// Parameters bound per case; `$3` (index 2) is past the end.
    const PARAMS: usize = 2;

    fn value(rng: &mut TestRng) -> Value {
        match rng.gen_range(0..6u32) {
            0 | 1 => Value::Null,
            2 => Value::Text("a".into()),
            _ => Value::Int(rng.gen_range(0..3i64)),
        }
    }

    fn column(rng: &mut TestRng) -> Expr {
        Expr::BoundColumn(rng.gen_range(0..ARITY))
    }

    fn leaf(rng: &mut TestRng) -> Expr {
        let op = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][rng.gen_range(0..6usize)];
        let cmp = |a: Expr, b: Expr| Expr::Cmp(Box::new(a), op, Box::new(b));
        match rng.gen_range(0..5u32) {
            0 => cmp(column(rng), Expr::Literal(value(rng))),
            1 => cmp(column(rng), Expr::Param(rng.gen_range(0..PARAMS + 1))),
            2 => cmp(column(rng), column(rng)),
            3 => Expr::IsNull {
                expr: Box::new(column(rng)),
                negated: rng.gen_bool(0.5),
            },
            _ => Expr::Literal(value(rng)),
        }
    }

    /// A random bound WHERE tree: `AND` nested either way, `OR`, `NOT`
    /// and `IS [NOT] NULL` over column-vs-literal, column-vs-`$n` and
    /// column-vs-column comparisons.
    fn tree(rng: &mut TestRng, depth: u32) -> Expr {
        if depth == 0 {
            return leaf(rng);
        }
        let sub = |rng: &mut TestRng| Box::new(tree(rng, depth - 1));
        match rng.gen_range(0..6u32) {
            0 | 1 => Expr::And(sub(rng), sub(rng)),
            2 => Expr::Or(sub(rng), sub(rng)),
            3 => Expr::Not(sub(rng)),
            4 => Expr::IsNull {
                expr: sub(rng),
                negated: rng.gen_bool(0.5),
            },
            _ => leaf(rng),
        }
    }

    struct Case;

    impl Strategy for Case {
        type Value = (Expr, Vec<Row>, Vec<Value>);
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let depth = rng.gen_range(0..5u32);
            let pred = tree(rng, depth);
            let rows = (0..rng.gen_range(1..9usize))
                .map(|_| Row::new((0..ARITY).map(|_| value(rng)).collect()))
                .collect();
            let params = (0..PARAMS).map(|_| value(rng)).collect();
            (pred, rows, params)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn compiled_pred_agrees_with_interpreted_where(case in Case) {
            let (pred, rows, params) = case;
            let compiled = CompiledPred::compile(Some(&pred));
            let mut want = Vec::with_capacity(rows.len());
            for row in &rows {
                let (interpreted, got) = (pred.matches(row, &params), compiled.matches(row, &params));
                match (&interpreted, &got) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "row {:?}", row),
                    (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                    _ => panic!("row {row:?}: interpreted {interpreted:?}, compiled {got:?}"),
                }
                want.push(interpreted.ok());
            }
            let mut batch = RowBatch {
                rows: rows.iter().collect(),
                sel: vec![true; rows.len()],
                live: vec![true; rows.len()],
            };
            let filtered = batch.filter(&compiled, &params);
            prop_assert_eq!(filtered.is_err(), want.contains(&None));
            if filtered.is_ok() {
                let want: Vec<bool> = want.into_iter().flatten().collect();
                prop_assert_eq!(batch.sel, want);
            }
        }
    }
}
