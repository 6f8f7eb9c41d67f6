//! Cost-based planning: single-table access paths and whole-query plans.
//!
//! Extracted from the executor so that *choosing* how to read data is
//! separate from *doing* it. Planning happens at two levels:
//!
//! 1. [`plan_access`] analyzes a statement's WHERE conjuncts against one
//!    table's primary key and secondary indexes and picks the cheapest
//!    [`AccessPath`] under a cost model whose weights mirror the physical
//!    counters in [`crate::cost::CostReport`] (rows scanned, index probes,
//!    page touches, sort rows). It reads a table's data only as bands —
//!    the row count and each index's exact distinct-key and key-prefix
//!    counts, each rounded to the nearest power of two
//!    ([`Table::row_band`], [`crate::table::Index::prefix_band`]) — so a
//!    kept plan stays valid until a write moves a band. Equality prefixes are costed from the
//!    prefix counts, ranges from the fixed System-R selectivities.
//! 2. `plan_query` builds a [`QueryPlan`] for a whole SELECT, left-deep
//!    in the order the statement gives (a Django-style ORM already puts
//!    the filtered model in FROM): it plans the FROM table through
//!    `plan_access`, picks each join step's probe key ([`JoinPlan`]: the
//!    primary key, or the longest key prefix of one index, that the
//!    join's own ON clause covers; none means a table scan), decides
//!    whether the pipeline satisfies the statement's ORDER BY
//!    (index-ordered base scan surviving single-row joins), and pushes
//!    `LIMIT k` into order-satisfying plans so the executor can stop
//!    scanning after k output rows.
//!
//! The executor re-applies the full WHERE clause (and every join's ON
//! residually) to whatever the chosen paths yield, so every path only has
//! to produce a *superset* of the matching rows in a known order — which
//! is what lets the planner use the storage total order (see
//! [`crate::value`]) for range scans without re-deriving SQL comparison
//! semantics.
//!
//! Access paths: every keyed read is one shape, [`AccessPath::IndexScan`]
//! — equality on the leading key columns of one ordered index (the
//! primary key counts as one), then one probe per range over the next key
//! column — and [`AccessPath::TableScan`] is the fallback. The shapes a
//! Django-style ORM emits map onto it:
//!
//! * point lookups: `eq` is the whole key, one whole range;
//! * `<`, `<=`, `>`, `>=`, `BETWEEN`: one range, under an equality prefix
//!   of a composite index or not;
//! * equality on a proper prefix of a composite index: `eq` is the
//!   prefix, one whole range;
//! * `IN (...)` lists and same-column `OR` equality chains, alone or
//!   under an equality prefix (`a = ? AND b IN (...)`): one `[k, k]`
//!   range per sorted key.
//!
//! EXPLAIN names the shape from the fields ([`Plan::kind`]: `PkEq`,
//! `PkOr`, `PkRange`, `IndexEq`, `IndexOr`, `IndexInList`,
//! `IndexPrefixRange`, `IndexRange`, `TableScan`).
//!
//! Index scans yield rows in index-key order, so the planner also decides
//! whether the chosen path already satisfies `ORDER BY` (possibly by
//! scanning in reverse), letting the executor skip the sort.

use crate::cost::CostReport;
use crate::error::Result;
use crate::expr::{CmpOp, Expr};
use crate::latch::TableSet;
use crate::query::{AggFunc, Join, JoinKind, OrderKey, Select, SelectItem};
use crate::row::Row;
use crate::table::{RowRef, Table};
use crate::value::{Value, ValueType};
use std::collections::BTreeSet;
use std::fmt;

/// One end of a range scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound {
    /// No constraint on this end.
    Unbounded,
    /// Endpoint included (`<=` / `>=` / `BETWEEN`).
    Included(Value),
    /// Endpoint excluded (`<` / `>`).
    Excluded(Value),
}

impl Bound {
    /// True if this end is constrained.
    pub fn is_bounded(&self) -> bool {
        !matches!(self, Bound::Unbounded)
    }

    /// The endpoint value, if bounded.
    pub fn value(&self) -> Option<&Value> {
        match self {
            Bound::Unbounded => None,
            Bound::Included(v) | Bound::Excluded(v) => Some(v),
        }
    }
}

/// The range over all values: a probe that leaves its column free.
pub(crate) const WHOLE_RANGE: &[(Bound, Bound)] = &[(Bound::Unbounded, Bound::Unbounded)];

/// The value a `[v, v]` range holds, if the range is one.
pub(crate) fn point_value(range: &(Bound, Bound)) -> Option<&Value> {
    match range {
        (Bound::Included(a), Bound::Included(b)) if a == b => Some(a),
        _ => None,
    }
}

/// How the executor reads the base table.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Visit every row in heap order.
    TableScan,
    /// Equality on the leading key columns of one ordered index, then one
    /// probe per range over the next key column. Every keyed read has
    /// this shape: a point lookup pins the whole key with `eq` (and one
    /// whole range), an `IN` list or same-column `OR` chain is one
    /// `[k, k]` range per key, a range scan one range, and an equality
    /// prefix scan `eq` plus one whole range.
    IndexScan {
        /// Index name; `None` is the primary key.
        index: Option<String>,
        /// Values for the leading key columns, in index column order.
        eq: Vec<Value>,
        /// Ranges over the next key column, in key order (an `IN` list's
        /// keys sorted, no duplicates). Empty reads nothing.
        ranges: Vec<(Bound, Bound)>,
    },
}

impl AccessPath {
    /// The path's equality key values, one per leading key column.
    pub(crate) fn eq_values(&self) -> &[Value] {
        match self {
            AccessPath::IndexScan { eq, .. } => eq,
            AccessPath::TableScan => &[],
        }
    }

    /// The secondary index the path scans, if any.
    pub fn index_name(&self) -> Option<&str> {
        match self {
            AccessPath::IndexScan { index, .. } => index.as_deref(),
            AccessPath::TableScan => None,
        }
    }
}

/// The key columns `path` scans, in key order: the index's, or the
/// primary key alone; none for a table scan.
fn key_columns<'t>(table: &'t Table, path: &AccessPath) -> &'t [String] {
    let schema = table.schema();
    match path {
        AccessPath::TableScan => &[],
        AccessPath::IndexScan { index: None, .. } => {
            std::slice::from_ref(&schema.columns()[schema.primary_key_pos()].name)
        }
        AccessPath::IndexScan {
            index: Some(name), ..
        } => {
            let idx = table.index_by_name(name).expect("planned index exists");
            &idx.def().columns
        }
    }
}

/// The planner's decision for one base-table access.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Table being read.
    pub table: String,
    /// Chosen access path.
    pub path: AccessPath,
    /// Key columns of the index the path scans (1 for the primary key, 0
    /// for a table scan); with the path, it names the scan's shape.
    pub key_width: usize,
    /// Estimated rows the path yields (before residual filtering).
    pub estimated_rows: f64,
    /// Estimated physical cost in row-visit units.
    pub estimated_cost: f64,
    /// True when the path yields rows in the statement's ORDER BY order,
    /// so the executor skips its sort.
    pub order_satisfied: bool,
    /// True when the path must be scanned in reverse to satisfy a
    /// descending ORDER BY.
    pub reverse: bool,
}

/// What an index scan's fields make it, for EXPLAIN.
enum Shape {
    /// `eq` covers the whole key.
    Eq,
    /// Every range is a point (or there is none), under no equality.
    Keys,
    /// Every range is a point (or there is none), under an equality prefix.
    InList,
    /// An equality prefix and one whole range.
    Prefix,
    /// Anything else: one range, under an equality prefix or not.
    Range,
}

impl Plan {
    fn shape(&self) -> Option<Shape> {
        let AccessPath::IndexScan { eq, ranges, .. } = &self.path else {
            return None;
        };
        Some(if eq.len() == self.key_width {
            Shape::Eq
        } else if ranges.iter().all(|r| point_value(r).is_some()) {
            if eq.is_empty() {
                Shape::Keys
            } else {
                Shape::InList
            }
        } else if !eq.is_empty() && ranges[..] == *WHOLE_RANGE {
            Shape::Prefix
        } else {
            Shape::Range
        })
    }

    /// Short tag for diagnostics (`EXPLAIN` output, bench labels), derived
    /// from the path's fields.
    pub fn kind(&self) -> &'static str {
        let pk = self.path.index_name().is_none();
        match self.shape() {
            None => "TableScan",
            Some(Shape::Eq) if pk => "PkEq",
            Some(Shape::Eq) => "IndexEq",
            Some(Shape::Keys) if pk => "PkOr",
            Some(Shape::Keys) => "IndexOr",
            Some(Shape::InList) => "IndexInList",
            Some(Shape::Prefix) => "IndexPrefixRange",
            Some(Shape::Range) if pk => "PkRange",
            Some(Shape::Range) => "IndexRange",
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}", self.kind(), self.table)?;
        if let (Some(shape), AccessPath::IndexScan { index, eq, ranges }) =
            (self.shape(), &self.path)
        {
            let keys: Vec<&Value> = ranges.iter().filter_map(point_value).collect();
            match index {
                None => f.write_str(" pk")?,
                Some(index) => write!(f, " via {index}")?,
            }
            match shape {
                Shape::Eq if index.is_none() => write!(f, "={}", eq[0])?,
                Shape::Eq => write!(f, " key=[{}]", ValuesFmt(eq))?,
                Shape::Keys if index.is_none() => write!(f, " in [{}]", ValuesFmt(&keys))?,
                Shape::Keys => write!(f, " keys=[{}]", ValuesFmt(&keys))?,
                Shape::InList => {
                    write!(f, " prefix=[{}] in=[{}]", ValuesFmt(eq), ValuesFmt(&keys))?
                }
                Shape::Prefix => write!(f, " prefix=[{}]", ValuesFmt(eq))?,
                Shape::Range if index.is_none() => write!(f, " in {}", RangeFmt(&ranges[0]))?,
                Shape::Range => {
                    if !eq.is_empty() {
                        write!(f, " prefix=[{}]", ValuesFmt(eq))?;
                    }
                    write!(f, " range {}", RangeFmt(&ranges[0]))?;
                }
            }
        }
        write!(
            f,
            " rows~{:.1} cost~{:.1}{}{})",
            self.estimated_rows,
            self.estimated_cost,
            if self.order_satisfied { " ordered" } else { "" },
            if self.reverse { " reverse" } else { "" },
        )
    }
}

struct ValuesFmt<'a, T>(&'a [T]);

impl<T: fmt::Display> fmt::Display for ValuesFmt<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

struct RangeFmt<'a>(&'a (Bound, Bound));

impl fmt::Display for RangeFmt<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 .0 {
            Bound::Unbounded => f.write_str("(")?,
            Bound::Included(v) => write!(f, "[{v}")?,
            Bound::Excluded(v) => write!(f, "({v}")?,
        }
        f.write_str("..")?;
        match &self.0 .1 {
            Bound::Unbounded => f.write_str(")"),
            Bound::Included(v) => write!(f, "{v}]"),
            Bound::Excluded(v) => write!(f, "{v})"),
        }
    }
}

// ---------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------
//
// Unit: one heap-row visit (one `rows_scanned` tick). The other weights
// express how the benchmark cost model prices the matching CostReport
// counters relative to a row visit: a B-tree probe does a few comparisons
// plus pointer chasing; a page touch risks a buffer-pool miss; sorting is
// per-row-comparison work.

const ROW_COST: f64 = 1.0;
const PROBE_COST: f64 = 2.0;
const PAGE_COST: f64 = 0.5;
const SORT_ROW_COST: f64 = 0.4;

/// Selectivity guesses for range predicates (the classic System-R
/// defaults).
const RANGE_BOTH_BOUNDED_SEL: f64 = 0.25;
const RANGE_HALF_BOUNDED_SEL: f64 = 0.33;

fn range_selectivity(from: &Bound, to: &Bound) -> f64 {
    match (from.is_bounded(), to.is_bounded()) {
        (true, true) => RANGE_BOTH_BOUNDED_SEL,
        (false, false) => 1.0,
        _ => RANGE_HALF_BOUNDED_SEL,
    }
}

fn scan_cost(rows: f64, probes: f64, rows_per_page: f64) -> f64 {
    rows * ROW_COST + probes * PROBE_COST + (rows / rows_per_page.max(1.0)) * PAGE_COST
}

fn sort_cost(rows: f64) -> f64 {
    rows * rows.max(2.0).log2() * SORT_ROW_COST
}

// ---------------------------------------------------------------------
// Predicate analysis
// ---------------------------------------------------------------------

/// Everything the WHERE conjuncts say about one base-table column.
#[derive(Debug, Default, Clone)]
struct ColumnConstraint {
    eq: Option<Value>,
    /// The parameter `eq` was read from (`col = $n`); `None` for a
    /// literal. Lets a kept plan rebind its keys ([`key_sources`]).
    eq_param: Option<usize>,
    lower: Option<Bound>,
    upper: Option<Bound>,
    /// Sorted, deduplicated `IN` / OR-equality key set.
    in_keys: Option<Vec<Value>>,
}

impl ColumnConstraint {
    /// The range the column's comparisons bound, when either end is.
    fn range(&self) -> Option<(Bound, Bound)> {
        let from = self.lower.clone().unwrap_or(Bound::Unbounded);
        let to = self.upper.clone().unwrap_or(Bound::Unbounded);
        (from.is_bounded() || to.is_bounded()).then_some((from, to))
    }
}

/// Per-column constraints extracted from a predicate for one binding.
#[derive(Debug, Default)]
struct Constraints {
    cols: Vec<(String, ColumnConstraint)>,
}

impl Constraints {
    fn get(&self, col: &str) -> Option<&ColumnConstraint> {
        self.cols.iter().find(|(c, _)| c == col).map(|(_, c)| c)
    }

    fn entry(&mut self, col: &str) -> &mut ColumnConstraint {
        if let Some(i) = self.cols.iter().position(|(c, _)| c == col) {
            return &mut self.cols[i].1;
        }
        self.cols
            .push((col.to_owned(), ColumnConstraint::default()));
        &mut self.cols.last_mut().expect("just pushed").1
    }

    fn eq_value(&self, col: &str) -> Option<&Value> {
        self.get(col).and_then(|c| c.eq.as_ref())
    }

    fn has_any(&self) -> bool {
        !self.cols.is_empty()
    }
}

/// Evaluates a row-free expression (literal or parameter).
pub(crate) fn eval_const(e: &Expr, params: &[Value]) -> Result<Value> {
    e.eval(&Row::default(), params)
}

/// Coerces a predicate value for use against `column`'s stored
/// representation. Returns `None` when no index-safe form exists (the
/// caller then skips the index candidate; the residual filter keeps
/// semantics).
pub(crate) fn coerce_for_column(table: &Table, column: &str, v: &Value) -> Option<Value> {
    coerce_for_type(table.schema().column(column)?.ty, v)
}

/// [`coerce_for_column`] on the column's type alone.
fn coerce_for_type(ty: ValueType, v: &Value) -> Option<Value> {
    v.coerce_to(ty)
        .or_else(|| raw_numeric(ty, v).then(|| v.clone()))
}

/// True when [`coerce_for_type`] would return a value, decided without
/// building it (`coerce_to` succeeds exactly on compatible values).
fn coercible_for_type(ty: ValueType, v: &Value) -> bool {
    v.compatible_with(ty) || raw_numeric(ty, v)
}

/// Numerics interleave in the storage total order, so an uncoercible
/// float bound (e.g. `int_col > 10.5`) still ranges correctly raw.
fn raw_numeric(ty: ValueType, v: &Value) -> bool {
    matches!(ty, ValueType::Int | ValueType::Float) && matches!(v, Value::Int(_) | Value::Float(_))
}

/// True when `cref` constrains `binding`'s table (qualified with the
/// binding name, or unqualified and resolvable in the table's schema —
/// ORMs qualify ambiguous columns, so first-match attribution is safe).
fn binds_to(cref: &crate::expr::ColumnRef, binding: &str, table: &Table) -> bool {
    let name_ok = match &cref.table {
        Some(t) => t == binding,
        None => true,
    };
    name_ok && table.schema().column_pos(&cref.column).is_some()
}

fn extract_constraints(
    pred: Option<&Expr>,
    binding: &str,
    table: &Table,
    params: &[Value],
) -> Result<Constraints> {
    let mut out = Constraints::default();
    let Some(pred) = pred else {
        return Ok(out);
    };
    for conjunct in pred.conjuncts() {
        if let Some((cref, vexpr)) = conjunct.as_column_eq() {
            if binds_to(cref, binding, table) {
                let v = eval_const(vexpr, params)?;
                if let Some(cv) = coerce_for_column(table, &cref.column, &v) {
                    let c = out.entry(&cref.column);
                    c.eq = Some(cv);
                    c.eq_param = match vexpr {
                        Expr::Param(i) => Some(*i),
                        _ => None,
                    };
                }
            }
            continue;
        }
        if let Some((cref, op, vexpr)) = conjunct.as_column_cmp() {
            if !matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
                || !binds_to(cref, binding, table)
            {
                continue;
            }
            let v = eval_const(vexpr, params)?;
            // A NULL endpoint makes the comparison unknown for every row;
            // leave it to the residual filter rather than building a
            // range that storage-orders NULL below everything.
            if v.is_null() {
                continue;
            }
            let Some(cv) = coerce_for_column(table, &cref.column, &v) else {
                continue;
            };
            let c = out.entry(&cref.column);
            match op {
                CmpOp::Gt => tighten_lower(&mut c.lower, Bound::Excluded(cv)),
                CmpOp::Ge => tighten_lower(&mut c.lower, Bound::Included(cv)),
                CmpOp::Lt => tighten_upper(&mut c.upper, Bound::Excluded(cv)),
                CmpOp::Le => tighten_upper(&mut c.upper, Bound::Included(cv)),
                _ => unreachable!("filtered above"),
            }
            continue;
        }
        let in_pair = conjunct.as_column_in().map(|(c, list)| (c, list.to_vec()));
        let or_pair = || {
            conjunct
                .as_or_column_eqs()
                .map(|(c, list)| (c, list.into_iter().cloned().collect::<Vec<_>>()))
        };
        if let Some((cref, items)) = in_pair.or_else(or_pair) {
            if !binds_to(cref, binding, table) {
                continue;
            }
            let mut keys = BTreeSet::new();
            let mut all_indexable = true;
            for item in &items {
                let v = eval_const(item, params)?;
                if v.is_null() {
                    // `col IN (.., NULL)` / `col = NULL` arms never match.
                    continue;
                }
                match coerce_for_column(table, &cref.column, &v) {
                    Some(cv) => {
                        keys.insert(cv);
                    }
                    None => {
                        all_indexable = false;
                        break;
                    }
                }
            }
            if all_indexable {
                out.entry(&cref.column).in_keys = Some(keys.into_iter().collect());
            }
        }
    }
    Ok(out)
}

fn tighten_lower(slot: &mut Option<Bound>, candidate: Bound) {
    let replace = match (&slot, &candidate) {
        (None, _) => true,
        (Some(Bound::Included(old) | Bound::Excluded(old)), Bound::Included(new)) => new > old,
        (Some(Bound::Included(old)), Bound::Excluded(new)) => new >= old,
        (Some(Bound::Excluded(old)), Bound::Excluded(new)) => new > old,
        (Some(Bound::Unbounded), _) => true,
        (_, Bound::Unbounded) => false,
    };
    if replace {
        *slot = Some(candidate);
    }
}

fn tighten_upper(slot: &mut Option<Bound>, candidate: Bound) {
    let replace = match (&slot, &candidate) {
        (None, _) => true,
        (Some(Bound::Included(old) | Bound::Excluded(old)), Bound::Included(new)) => new < old,
        (Some(Bound::Included(old)), Bound::Excluded(new)) => new <= old,
        (Some(Bound::Excluded(old)), Bound::Excluded(new)) => new < old,
        (Some(Bound::Unbounded), _) => true,
        (_, Bound::Unbounded) => false,
    };
    if replace {
        *slot = Some(candidate);
    }
}

// ---------------------------------------------------------------------
// Plan reuse across parameter vectors
// ---------------------------------------------------------------------
//
// A prepared statement keeps the plan the planner chose for one parameter
// vector and reuses it for the next. That is sound exactly when the
// planner, run afresh on the new vector, would choose the same plan with
// the new key values in it. The planner reads parameter values in two
// places only, all through the sargable conjuncts of the WHERE clause
// (`col = v`, `col < v` and friends, `col IN (..)`, same-column OR
// chains): [`extract_constraints`] coerces each value for its column and
// keeps it as a key or bound, and [`path_absorbs_predicate`] compares
// values with each other. Range costing uses fixed selectivities and
// equality costing banded prefix counts; neither reads the value.

/// True when parameter values cannot change which plan the planner picks
/// for a statement with this WHERE clause, as long as every parameter
/// passes its [`KeyGuard`]: every conjunct that feeds a parameter to the
/// planner is a plain `col = $n`, and no other sargable conjunct
/// constrains that column (a second one would make key choice and
/// count-pushdown compare the two values). Ranges, IN lists and OR
/// chains over parameters are value-dependent: their selectivity, key
/// count and emptiness move with the values. Literals are part of the
/// statement, so conjuncts without parameters never matter here.
pub(crate) fn value_independent(pred: Option<&Expr>) -> bool {
    let Some(pred) = pred else {
        return true;
    };
    let is_param = |e: &Expr| matches!(e, Expr::Param(_));
    // (column, reads a parameter, is a plain equality) per sargable conjunct.
    let mut sargable: Vec<(&crate::expr::ColumnRef, bool, bool)> = Vec::new();
    for conjunct in pred.conjuncts() {
        if let Some((c, v)) = conjunct.as_column_eq() {
            sargable.push((c, is_param(v), true));
        } else if let Some((c, op, v)) = conjunct.as_column_cmp() {
            if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) {
                sargable.push((c, is_param(v), false));
            }
        } else if let Some((c, items)) = conjunct.as_column_in() {
            sargable.push((c, items.iter().any(is_param), false));
        } else if let Some((c, items)) = conjunct.as_or_column_eqs() {
            sargable.push((c, items.into_iter().any(is_param), false));
        }
    }
    // Unqualified names attribute to whichever table carries the column,
    // so they may name the same column as any qualified spelling.
    let may_alias = |a: &crate::expr::ColumnRef, b: &crate::expr::ColumnRef| {
        a.column == b.column && (a.table == b.table || a.table.is_none() || b.table.is_none())
    };
    sargable.iter().enumerate().all(|(i, (col, param, eq))| {
        !param
            || (*eq
                && sargable
                    .iter()
                    .enumerate()
                    .all(|(j, (other, _, _))| i == j || !may_alias(col, other)))
    })
}

/// The condition under which a `col = $n` conjunct contributes a key to
/// the plan: the parameter is present, not NULL (a NULL key switches
/// count-pushdown off) and coercible to the column's type (otherwise the
/// planner drops the constraint). A cached plan is reused only for
/// parameter vectors passing every guard of the statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyGuard {
    param: usize,
    ty: ValueType,
}

impl KeyGuard {
    pub(crate) fn holds(&self, params: &[Value]) -> bool {
        params
            .get(self.param)
            .is_some_and(|v| !v.is_null() && coercible_for_type(self.ty, v))
    }
}

/// The guards of every `col = $n` conjunct of `pred`, one per table
/// (`slots`: binding name and table) the column attributes to.
pub(crate) fn key_guards(pred: Option<&Expr>, slots: &[(&str, &Table)]) -> Vec<KeyGuard> {
    let mut out = Vec::new();
    let Some(pred) = pred else {
        return out;
    };
    for conjunct in pred.conjuncts() {
        let Some((cref, Expr::Param(param))) = conjunct.as_column_eq() else {
            continue;
        };
        for (binding, table) in slots {
            if binds_to(cref, binding, table) {
                let ty = table
                    .schema()
                    .column(&cref.column)
                    .expect("binds_to found the column")
                    .ty;
                let guard = KeyGuard { param: *param, ty };
                if !out.contains(&guard) {
                    out.push(guard);
                }
            }
        }
    }
    out
}

/// For each of `path`'s [`AccessPath::eq_values`], the parameter (and key
/// column type) the planner read it from — `None` for a literal.
pub(crate) fn key_sources(
    table: &Table,
    binding: &str,
    pred: Option<&Expr>,
    path: &AccessPath,
    params: &[Value],
) -> Result<Vec<Option<KeyGuard>>> {
    let n = path.eq_values().len();
    if n == 0 {
        return Ok(Vec::new());
    }
    let cons = extract_constraints(pred, binding, table, params)?;
    Ok(key_columns(table, path)[..n]
        .iter()
        .map(|col| {
            let param = cons.get(col)?.eq_param?;
            let ty = table.schema().column(col)?.ty;
            Some(KeyGuard { param, ty })
        })
        .collect())
}

/// Rewrites a path's equality values from `params` — the cached plan's
/// keys become the keys the planner would have extracted from this
/// parameter vector. Every source must pass its guard.
pub(crate) fn rebind_keys(eq: &mut [Value], sources: &[Option<KeyGuard>], params: &[Value]) {
    for (slot, source) in eq.iter_mut().zip(sources) {
        if let Some(s) = source {
            *slot = coerce_for_type(s.ty, &params[s.param]).expect("key guard held");
        }
    }
}

// ---------------------------------------------------------------------
// ORDER BY analysis
// ---------------------------------------------------------------------

/// The base-table columns a statement orders by, when the whole ORDER BY
/// is plain base-table columns (the only case an index scan can satisfy).
fn order_columns<'a>(
    order_by: &'a [OrderKey],
    binding: &str,
    table: &Table,
) -> Option<Vec<(&'a str, bool)>> {
    let mut out = Vec::with_capacity(order_by.len());
    for key in order_by {
        let Expr::Column(c) = &key.expr else {
            return None;
        };
        if !binds_to(c, binding, table) {
            return None;
        }
        out.push((c.column.as_str(), key.desc));
    }
    Some(out)
}

/// Decides whether `remaining` index key columns satisfy the ORDER BY,
/// after dropping order keys pinned to a constant by an equality
/// constraint. Returns `(satisfied, reverse)`.
fn order_match(
    order: &Option<Vec<(&str, bool)>>,
    cons: &Constraints,
    remaining: &[String],
) -> (bool, bool) {
    let Some(order) = order else {
        return (false, false);
    };
    // Order keys on eq-constrained columns are constant across survivors.
    let effective: Vec<&(&str, bool)> = order
        .iter()
        .filter(|(c, _)| cons.eq_value(c).is_none())
        .collect();
    if effective.is_empty() {
        return (true, false);
    }
    // The order must cover *every* remaining key column, not just a
    // prefix: otherwise rows tying on the ORDER BY keys would come back
    // in trailing-key-column order instead of the heap (rid) tie order
    // the stable sort produces, and results would change with the set of
    // available indexes.
    if effective.len() != remaining.len() {
        return (false, false);
    }
    let desc = effective[0].1;
    for (i, (col, d)) in effective.iter().enumerate() {
        if *d != desc || remaining[i] != *col {
            return (false, false);
        }
    }
    (true, desc)
}

// ---------------------------------------------------------------------
// Single-table access planning
// ---------------------------------------------------------------------

/// Plans one base-table access from a predicate and an ORDER BY.
pub fn plan_access(
    table: &Table,
    binding: &str,
    pred: Option<&Expr>,
    order_by: &[OrderKey],
    params: &[Value],
) -> Result<Plan> {
    plan_access_impl(table, binding, pred, order_by, params, true, false)
}

/// The planner core. `charge_sort` adds the sort penalty for
/// order-missing paths directly to the path cost — right for single-table
/// statements, wrong for join pipelines where the sort runs over the
/// *joined* rows (the query planner charges it at the pipeline level).
/// `count_mode` costs predicate-absorbing paths as probes only (a
/// count-star over such a path never touches the heap), so the planner
/// prefers a wider composite index that absorbs the whole predicate over
/// a thinner one that leaves a residual filter.
fn plan_access_impl(
    table: &Table,
    binding: &str,
    pred: Option<&Expr>,
    order_by: &[OrderKey],
    params: &[Value],
    charge_sort: bool,
    count_mode: bool,
) -> Result<Plan> {
    let cons = extract_constraints(pred, binding, table, params)?;
    let order = order_columns(order_by, binding, table);
    let has_order = !order_by.is_empty();
    let n = table.row_band() as f64;
    let rpp = table.schema().rows_per_page_hint as f64;

    // Near-equal costs are broken by path specificity (a wider matched
    // key bounds the result set more tightly even when today's data
    // makes the row estimates tie — e.g. every invitation still PENDING
    // makes (to_user_id) and (to_user_id, status) look equally
    // selective), then by the fixed candidate-generation order below, so
    // the choice never flip-flops between runs.
    const TIE_EPS: f64 = 1e-6;
    let mut best: Option<(Plan, f64)> = None;
    let mut consider =
        |path: AccessPath, rows: f64, probes: f64, satisfied: bool, rev: bool, tie_rank: f64| {
            let absorbing = count_mode
                && path_absorbs_predicate(table, binding, pred, &path, params).unwrap_or(false);
            let mut cost = if absorbing {
                // Count-only execution builds no row (see `run_count_only`).
                scan_cost(0.0, probes, rpp)
            } else {
                scan_cost(rows, probes, rpp)
            };
            if charge_sort && has_order && !satisfied && !absorbing {
                cost += sort_cost(rows);
            }
            let cand = Plan {
                table: table.schema().name().to_owned(),
                key_width: key_columns(table, &path).len(),
                path,
                estimated_rows: rows,
                estimated_cost: cost,
                order_satisfied: satisfied && has_order,
                reverse: rev && satisfied && has_order,
            };
            let replaces = match &best {
                None => true,
                Some((b, rank)) => {
                    cand.estimated_cost < b.estimated_cost - TIE_EPS
                        || ((cand.estimated_cost - b.estimated_cost).abs() <= TIE_EPS
                            && tie_rank > *rank)
                }
            };
            if replaces {
                best = Some((cand, tie_rank));
            }
        };
    let scan = |index: Option<&crate::table::Index>, eq, ranges| AccessPath::IndexScan {
        index: index.map(|i| i.def().name.clone()),
        eq,
        ranges,
    };
    // One `[k, k]` range per key.
    let points = |keys: &[Value]| -> Vec<(Bound, Bound)> {
        keys.iter()
            .map(|k| (Bound::Included(k.clone()), Bound::Included(k.clone())))
            .collect()
    };

    // 1. The primary key: a point lookup (at most one row, trivially
    // ordered), `pk IN (...)` (sorted keys yield pk order), or a range.
    let pk = table.schema().primary_key();
    if let Some(c) = cons.get(pk) {
        let (sat, rev) = order_match(&order, &cons, &[pk.to_owned()]);
        if let Some(v) = &c.eq {
            let path = scan(None, vec![v.clone()], WHOLE_RANGE.to_vec());
            consider(path, 1.0, 1.0, true, false, 100.0);
        } else if let Some(keys) = &c.in_keys {
            let k = keys.len() as f64;
            consider(scan(None, Vec::new(), points(keys)), k, k, sat, rev, 90.0);
        } else if let Some((from, to)) = c.range() {
            let rows = n * range_selectivity(&from, &to);
            let path = scan(None, Vec::new(), vec![(from, to)]);
            consider(path, rows, 1.0, sat, rev, 15.0);
        }
    }

    // 2. Secondary indexes: equality on the longest constrained key
    // prefix, then an IN list, a range or nothing on the next column.
    for idx in table.indexes() {
        let columns = &idx.def().columns;
        let width = columns.len() as f64;
        // Selectivity of an equality prefix of `p` key columns: one over
        // the band of its distinct values.
        let prefix_sel = |p: usize| {
            if p == 0 {
                1.0
            } else {
                1.0 / idx.prefix_band(p).max(1) as f64
            }
        };

        let eq: Vec<Value> = columns
            .iter()
            .map_while(|col| cons.eq_value(col).cloned())
            .collect();
        let p = eq.len();
        if p == columns.len() {
            let rows = (n * prefix_sel(p)).max(1.0);
            // A unique full-key match yields at most one row, which is
            // trivially ordered.
            let sat = idx.def().unique || order_match(&order, &cons, &[]).0;
            consider(
                scan(Some(idx), eq, WHOLE_RANGE.to_vec()),
                rows,
                1.0,
                sat,
                false,
                width * 10.0,
            );
            continue;
        }

        let remaining = &columns[p..];
        let next = cons.get(&remaining[0]);
        let range = next.and_then(ColumnConstraint::range);
        // Sorted keys scanned in order yield (prefix, next column,
        // trailing...) lexicographic order, so order_match treats an IN
        // column like the leading remaining key column; its full-coverage
        // rule keeps a first-column IN list's claim to single-column
        // indexes (a wider index orders same-key ties by its trailing
        // columns).
        let (sat, rev) = order_match(&order, &cons, remaining);

        // IN (...) / OR-equality chain on the next key column: one probe
        // per key. On the first key column a range wins instead.
        let in_keys = next.and_then(|c| c.in_keys.as_deref());
        if let Some(keys) = in_keys.filter(|_| p > 0 || range.is_none()) {
            if keys.is_empty() {
                // Every IN item was NULL: nothing can match.
                consider(
                    scan(Some(idx), eq, Vec::new()),
                    0.0,
                    0.0,
                    true,
                    false,
                    200.0,
                );
                continue;
            }
            let k = keys.len() as f64;
            // Containment bound: the probes read a subset of the bare
            // equality-prefix block.
            let rows = (k * n * prefix_sel(p + 1))
                .min(n * prefix_sel(p))
                .min(n)
                .max(1.0);
            let rank = if p > 0 { p as f64 * 10.0 + 6.0 } else { 5.0 };
            consider(
                scan(Some(idx), eq.clone(), points(keys)),
                rows,
                k,
                sat,
                rev,
                rank,
            );
            if p == 0 {
                continue;
            }
            // Fall through: a huge IN list costs one probe per key, so
            // the single-probe range/prefix scans of the same index must
            // stay in the running and win on cost.
        }

        // One probe: a range on the next key column, the bare equality
        // prefix, or — with neither — the whole index, when its order
        // beats scan+sort for the ORDER BY.
        let (ranges, rows, rank) = match range {
            Some((from, to)) => {
                let rows = n * prefix_sel(p) * range_selectivity(&from, &to);
                (vec![(from, to)], rows.max(1.0), p as f64 * 10.0 + 5.0)
            }
            None if p > 0 => {
                let rows = (n * prefix_sel(p)).max(1.0);
                (WHOLE_RANGE.to_vec(), rows, p as f64 * 10.0)
            }
            None if sat && has_order => (WHOLE_RANGE.to_vec(), n, 1.0),
            None => continue,
        };
        consider(scan(Some(idx), eq, ranges), rows, 1.0, sat, rev, rank);
    }

    // 3. Fallback: full scan. Charged one probe-equivalent of setup so
    // that an index path with the same row estimate always beats it (an
    // index bounds the result set even if the table grows; and the FK
    // probes the benchmark cost model prices must stay index probes).
    // Only constraint-free trivial orders are satisfied — heap order is
    // insertion order, not pk order, so ORDER BY pk still sorts.
    let (sat, _) = if cons.has_any() {
        order_match(&order, &cons, &[])
    } else {
        (false, false)
    };
    consider(AccessPath::TableScan, n, 1.0, sat, false, 0.0);

    Ok(best
        .map(|(plan, _)| plan)
        .expect("TableScan is always a candidate"))
}

/// Executes an access path against the read `snap`shot with `eq` as its
/// equality values (the path's own, or a kept plan's rebound for this
/// call), returning the candidate rows in path order (`None` means full
/// heap scan — the executor drives it via [`Table::scan_rids`]). Charges
/// one probe per range to `cost`. Every id returned comes with the
/// version visible at the snapshot, which actually carries the probed key
/// — consumers use that row instead of resolving the id again.
pub(crate) fn execute_path<'t>(
    table: &'t Table,
    path: &AccessPath,
    eq: &[Value],
    reverse: bool,
    cost: &mut CostReport,
    snap: &crate::table::Snapshot,
) -> Option<Vec<RowRef<'t>>> {
    let AccessPath::IndexScan { index, ranges, .. } = path else {
        return None;
    };
    cost.index_probes += ranges.len() as u64;
    let idx = index
        .as_deref()
        .map(|name| table.index_by_name(name).expect("planned index exists"));
    Some(table.index_scan(idx, eq, ranges, reverse, snap))
}

// ---------------------------------------------------------------------
// Whole-query planning
// ---------------------------------------------------------------------

/// One step of the join pipeline: the statement's join in the same
/// position. It reads its table by one equality probe per left row on
/// the leading columns of the primary key or of one index — the whole key
/// or a prefix of it, the same [`Table::index_scan`] call a base prefix
/// scan makes — or, with no usable key, by a scan of the whole table.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// Catalog name of the table this step joins.
    pub table: String,
    /// Binding name columns qualify against.
    pub binding: String,
    /// The join's flavour, as written.
    pub kind: JoinKind,
    /// The join's ON clause, applied (residually) once this step's table
    /// is in the row.
    pub on: Expr,
    /// The probed index by name; `None` is the primary key, or no key
    /// when `keys` is empty.
    pub index: Option<String>,
    /// The probe key: unbound expressions over the tables joined so far,
    /// one per leading key column of `index`. Empty means a table scan.
    pub keys: Vec<Expr>,
    /// True when the probe can match at most one row per left row
    /// (primary-key or unique-index whole-key probe) — the condition under
    /// which ORDER BY satisfaction survives the join.
    pub single_row: bool,
    /// Estimated matching rows per left row.
    pub fanout: f64,
}

impl JoinPlan {
    /// Short tag for diagnostics, derived from the fields (as
    /// [`Plan::kind`] is for base paths): `PkProbe`, `IndexProbe` (whole
    /// key or prefix) or `NestedScan`.
    pub fn method(&self) -> &'static str {
        match (&self.index, self.keys.is_empty()) {
            (_, true) => "NestedScan",
            (None, false) => "PkProbe",
            (Some(_), false) => "IndexProbe",
        }
    }
}

impl fmt::Display for JoinPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}", self.method(), self.table)?;
        if let Some(index) = &self.index {
            write!(f, " via {index}")?;
        }
        f.write_str(")")
    }
}

/// The planner's decision for a whole SELECT: the FROM table's access
/// path, one step per join in statement order, order/limit handling.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Access plan for the driving (FROM) table.
    pub base: Plan,
    /// Binding name of the FROM table (differs from `base.table` for an
    /// aliased FROM).
    pub base_binding: String,
    /// Join steps in statement order (empty for single-table statements).
    pub joins: Vec<JoinPlan>,
    /// True when the pipeline yields rows in the statement's ORDER BY
    /// order (ordered base scan surviving single-row joins), so the
    /// executor skips its sort.
    pub order_satisfied: bool,
    /// When set, the executor may stop after producing this many output
    /// rows (`LIMIT + OFFSET`): the row stream is already in final order.
    pub fetch_limit: Option<u64>,
    /// True when the statement is a single-table `SELECT COUNT(*)` whose
    /// WHERE clause is exactly absorbed by the access path's key — the
    /// executor counts the primary-key map / index posting-list entries
    /// visible to the snapshot instead of building rows (aggregate
    /// pushdown).
    pub count_only: bool,
    /// Estimated output rows before the final WHERE residue.
    pub estimated_rows: f64,
    /// Estimated physical cost in row-visit units, including join probes
    /// and any final sort.
    pub estimated_cost: f64,
}

impl QueryPlan {
    /// EXPLAIN text, one line per pipeline stage.
    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![format!("{}", self.base)];
        for j in &self.joins {
            out.push(format!("  -> {j} fanout~{:.2}", j.fanout));
        }
        let mut tail = format!(
            "  rows~{:.1} cost~{:.1}",
            self.estimated_rows, self.estimated_cost
        );
        if self.order_satisfied {
            tail.push_str(" ordered");
        }
        if let Some(k) = self.fetch_limit {
            tail.push_str(&format!(" fetch_limit={k}"));
        }
        if self.count_only {
            tail.push_str(" count_only");
        }
        out.push(tail);
        out
    }

    /// A compact, estimate-free description of the plan's structure —
    /// stable across data-size changes, for regression baselines.
    pub fn shape(&self) -> String {
        let mut s = match self.base.path.index_name() {
            Some(idx) => format!("{}({} via {idx})", self.base.kind(), self.base.table),
            None => format!("{}({})", self.base.kind(), self.base.table),
        };
        if self.base.reverse {
            s.push_str("[rev]");
        }
        for j in &self.joins {
            s.push_str(" -> ");
            s.push_str(&j.to_string());
        }
        if self.order_satisfied {
            s.push_str(" ordered");
        }
        if self.fetch_limit.is_some() {
            s.push_str(" limited");
        }
        if self.count_only {
            s.push_str(" count-only");
        }
        s
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        for j in &self.joins {
            write!(f, " -> {j}")?;
        }
        if self.order_satisfied && !self.joins.is_empty() {
            f.write_str(" ordered")?;
        }
        if let Some(k) = self.fetch_limit {
            write!(f, " fetch_limit={k}")?;
        }
        if self.count_only {
            f.write_str(" count_only")?;
        }
        Ok(())
    }
}

/// LIMIT pushdown: legal when the pipeline's output order is already
/// final — either the statement has no ORDER BY (heap-order rows are the
/// contract) or the plan satisfies it — and no aggregate consumes the
/// full input.
fn fetch_limit_for(sel: &Select, order_satisfied: bool) -> Option<u64> {
    if sel.is_aggregate() || !sel.group_by.is_empty() {
        return None;
    }
    let limit = sel.limit?;
    if sel.order_by.is_empty() || order_satisfied {
        Some(limit.saturating_add(sel.offset.unwrap_or(0)))
    } else {
        None
    }
}

/// True when every column `e` references resolves within `joined`
/// (binding name and table of each table joined so far): qualified to
/// one of them, or unqualified and present in one of their schemas —
/// mirroring the executor's first-match rule.
fn resolvable_in(e: &Expr, joined: &[(&str, &Table)]) -> bool {
    let mut cols = Vec::new();
    e.referenced_columns(&mut cols);
    cols.iter().all(|c| match &c.table {
        Some(t) => joined.iter().any(|(b, _)| b == t),
        None => joined
            .iter()
            .any(|(_, tab)| tab.schema().column_pos(&c.column).is_some()),
    })
}

/// Plans a whole SELECT against the statement's latched table set. The
/// entry point behind [`crate::Database::explain`] and the executor.
pub(crate) fn plan_query(
    tables: &TableSet<'_>,
    sel: &Select,
    params: &[Value],
) -> Result<QueryPlan> {
    let base_table = tables.table(&sel.from.table)?;
    let base_binding = sel.from.binding_name();

    // Single-table fast path: the PR-1 planner plus LIMIT pushdown.
    if sel.joins.is_empty() {
        let order_eligible = !sel.is_aggregate() && sel.group_by.is_empty();
        let order: &[OrderKey] = if order_eligible { &sel.order_by } else { &[] };
        let base = plan_access_impl(
            base_table,
            base_binding,
            sel.predicate.as_ref(),
            order,
            params,
            true,
            is_count_star_shape(sel),
        )?;
        let order_satisfied = base.order_satisfied;
        let fetch_limit = fetch_limit_for(sel, order_satisfied);
        let count_only = count_pushdown_eligible(sel, base_table, base_binding, &base, params)?;
        let (mut estimated_rows, mut estimated_cost) = (base.estimated_rows, base.estimated_cost);
        if count_only {
            // One probe; no row is built (see `run_count_only`).
            estimated_rows = 1.0;
            estimated_cost = PROBE_COST;
        }
        return Ok(QueryPlan {
            base,
            base_binding: base_binding.to_owned(),
            joins: Vec::new(),
            order_satisfied,
            fetch_limit,
            count_only,
            estimated_rows,
            estimated_cost,
        });
    }

    // Left-deep in statement order: the FROM table drives, and join i is
    // step i + 1. The sort is charged once, over the joined rows, below.
    let order_eligible = !sel.is_aggregate() && sel.group_by.is_empty() && !sel.order_by.is_empty();
    let base_order = if order_eligible {
        attribute_order(&sel.order_by, base_binding, base_table)
    } else {
        &[]
    };
    let base = plan_access_impl(
        base_table,
        base_binding,
        sel.predicate.as_ref(),
        base_order,
        params,
        false,
        false,
    )?;

    let mut rows = base.estimated_rows;
    let mut cost = base.estimated_cost;
    let mut all_single = true;
    let mut joins = Vec::with_capacity(sel.joins.len());
    // Binding and table of every table joined so far.
    let mut joined: Vec<(&str, &Table)> = vec![(base_binding, base_table)];
    for j in &sel.joins {
        let table = tables.table(&j.table.table)?;
        let binding = j.table.binding_name();
        let (step, per_left_cost) = plan_join_step(j, table, &joined);
        cost += rows.max(0.0) * per_left_cost;
        let out_rows = if j.kind == JoinKind::Left {
            rows * step.fanout.max(1.0)
        } else {
            rows * step.fanout
        };
        rows = out_rows.max(0.0);
        all_single &= step.single_row;
        joins.push(step);
        joined.push((binding, table));
    }

    let order_satisfied = order_eligible && base.order_satisfied && all_single;
    if order_eligible && !order_satisfied {
        cost += sort_cost(rows);
    }
    let fetch_limit = fetch_limit_for(sel, order_satisfied);
    if let Some(k) = fetch_limit {
        // An early-terminating pipeline reads roughly k/rows of its input.
        let k = k as f64;
        if rows > k && rows > 0.0 {
            cost *= (k / rows).max(1e-3);
        }
    }

    Ok(QueryPlan {
        base,
        base_binding: base_binding.to_owned(),
        joins,
        order_satisfied,
        fetch_limit,
        count_only: false,
        estimated_rows: rows,
        estimated_cost: cost,
    })
}

/// What a path guarantees about one column of every row it yields: a
/// single value, membership in a sorted key set (point ranges), or a
/// range.
enum ColSpec<'a> {
    EqV(&'a Value),
    Set(&'a [(Bound, Bound)]),
    Range(&'a Bound, &'a Bound),
}

impl ColSpec<'_> {
    /// Do all values this spec admits satisfy `x op v`?
    fn implies_cmp(&self, op: CmpOp, v: &Value) -> bool {
        let one = |k: &Value| op.holds(k.cmp(v));
        match self {
            ColSpec::EqV(k) => one(k),
            ColSpec::Set(keys) => keys.iter().filter_map(point_value).all(one),
            ColSpec::Range(from, to) => match op {
                // A lower endpoint proves `> v` when it is itself above v
                // (or at v but excluded); dually for upper endpoints.
                CmpOp::Gt => match from {
                    Bound::Included(a) => a > v,
                    Bound::Excluded(a) => a >= v,
                    Bound::Unbounded => false,
                },
                CmpOp::Ge => match from {
                    Bound::Included(a) | Bound::Excluded(a) => a >= v,
                    Bound::Unbounded => false,
                },
                CmpOp::Lt => match to {
                    Bound::Included(b) => b < v,
                    Bound::Excluded(b) => b <= v,
                    Bound::Unbounded => false,
                },
                CmpOp::Le => match to {
                    Bound::Included(b) | Bound::Excluded(b) => b <= v,
                    Bound::Unbounded => false,
                },
                CmpOp::Eq | CmpOp::Ne => false,
            },
        }
    }

    /// Do all values this spec admits lie inside `values`?
    fn implies_in(&self, values: &BTreeSet<Value>) -> bool {
        match self {
            ColSpec::EqV(k) => values.contains(k),
            ColSpec::Set(keys) => keys
                .iter()
                .filter_map(point_value)
                .all(|k| values.contains(k)),
            ColSpec::Range(..) => false,
        }
    }
}

/// Is this the `SELECT COUNT(*)` shape count pushdown may serve: single
/// table, ungrouped, unordered (the executor rejects ORDER BY for
/// aggregates, and the fast path must not make that malformed shape
/// silently succeed)?
pub(crate) fn is_count_star_shape(sel: &Select) -> bool {
    if !sel.joins.is_empty() || !sel.group_by.is_empty() || !sel.order_by.is_empty() {
        return false;
    }
    matches!(
        &sel.projection[..],
        [SelectItem::Aggregate {
            func: AggFunc::Count,
            arg: None,
            ..
        }]
    )
}

/// Decides `COUNT(*)` pushdown: a count-star shape whose every WHERE
/// conjunct is *implied by* the chosen access path — equalities folded
/// into exact keys, range comparisons subsumed by the path's bounds,
/// IN-lists covering the path's key set. Such a path yields exactly the
/// matching rows, so the executor counts them without building any
/// (`run_count_only`).
fn count_pushdown_eligible(
    sel: &Select,
    table: &Table,
    binding: &str,
    plan: &Plan,
    params: &[Value],
) -> Result<bool> {
    if !is_count_star_shape(sel) {
        return Ok(false);
    }
    path_absorbs_predicate(table, binding, sel.predicate.as_ref(), &plan.path, params)
}

/// Does `path` yield exactly the rows matching the predicate (every
/// conjunct implied by the path's per-column guarantees)? This powers
/// both the count-pushdown decision and count-aware access costing.
fn path_absorbs_predicate(
    table: &Table,
    binding: &str,
    pred: Option<&Expr>,
    path: &AccessPath,
    params: &[Value],
) -> Result<bool> {
    let AccessPath::IndexScan { eq, ranges, .. } = path else {
        return Ok(pred.is_none());
    };
    // Per-column guarantees the path provides: each `eq` value pins its
    // column; the ranges bound the next one — to a key set when every
    // range is a point — unless one whole range leaves it free.
    let cols = key_columns(table, path);
    let mut specs: Vec<(&str, ColSpec<'_>)> = cols
        .iter()
        .map(String::as_str)
        .zip(eq.iter().map(ColSpec::EqV))
        .collect();
    if let Some(next) = cols.get(eq.len()) {
        match &ranges[..] {
            rs if *rs == *WHOLE_RANGE => {}
            rs if rs.iter().all(|r| point_value(r).is_some()) => {
                specs.push((next, ColSpec::Set(rs)))
            }
            [(from, to)] => specs.push((next, ColSpec::Range(from, to))),
            // Several ranges that are not all points: never planned.
            _ => return Ok(false),
        }
    }
    for (col, spec) in &specs {
        match spec {
            // SQL equality never matches NULL; leave it to the executor.
            ColSpec::EqV(v) if v.is_null() => return Ok(false),
            // A range with no lower endpoint sweeps up NULL keys (they
            // sort below every value) on a nullable column, but SQL
            // comparisons never match NULL — the executor's residual
            // filter must stay in charge.
            ColSpec::Range(Bound::Unbounded, _) => {
                let nullable = table.schema().column(col).is_none_or(|c| !c.not_null);
                if nullable {
                    return Ok(false);
                }
            }
            _ => {}
        }
    }
    let Some(pred) = pred else {
        // A keyed path with no predicate cannot arise, but be safe.
        return Ok(false);
    };
    // Every conjunct must be implied by the path's guarantees.
    for conjunct in pred.conjuncts() {
        let spec_for = |cref: &crate::expr::ColumnRef| {
            if binds_to(cref, binding, table) {
                specs
                    .iter()
                    .find(|(c, _)| *c == cref.column)
                    .map(|(_, s)| s)
            } else {
                None
            }
        };
        if let Some((cref, vexpr)) = conjunct.as_column_eq() {
            let Some(spec) = spec_for(cref) else {
                return Ok(false);
            };
            let v = eval_const(vexpr, params)?;
            match coerce_for_column(table, &cref.column, &v) {
                Some(cv) if spec.implies_cmp(CmpOp::Eq, &cv) => continue,
                _ => return Ok(false),
            }
        }
        if let Some((cref, op, vexpr)) = conjunct.as_column_cmp() {
            if matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge) {
                let Some(spec) = spec_for(cref) else {
                    return Ok(false);
                };
                let v = eval_const(vexpr, params)?;
                match coerce_for_column(table, &cref.column, &v) {
                    Some(cv) if spec.implies_cmp(op, &cv) => continue,
                    _ => return Ok(false),
                }
            }
            return Ok(false);
        }
        let in_pair = conjunct.as_column_in().map(|(c, l)| (c, l.to_vec()));
        let or_pair = || {
            conjunct
                .as_or_column_eqs()
                .map(|(c, l)| (c, l.into_iter().cloned().collect::<Vec<_>>()))
        };
        if let Some((cref, items)) = in_pair.or_else(or_pair) {
            let Some(spec) = spec_for(cref) else {
                return Ok(false);
            };
            let mut values = BTreeSet::new();
            for item in &items {
                let v = eval_const(item, params)?;
                if v.is_null() {
                    continue; // a NULL arm never matches anything
                }
                match coerce_for_column(table, &cref.column, &v) {
                    Some(cv) => {
                        values.insert(cv);
                    }
                    None => return Ok(false),
                }
            }
            if spec.implies_in(&values) {
                continue;
            }
            return Ok(false);
        }
        return Ok(false);
    }
    Ok(true)
}

/// The ORDER BY keys when they all attribute to the FROM table —
/// qualified with its binding, or unqualified and one of its columns (the
/// executor's first match) — the only case an ordered base scan can
/// satisfy; none otherwise.
fn attribute_order<'a>(order_by: &'a [OrderKey], binding: &str, table: &Table) -> &'a [OrderKey] {
    let from_table = |key: &OrderKey| match &key.expr {
        Expr::Column(c) => match &c.table {
            Some(t) => t == binding,
            None => table.schema().column_pos(&c.column).is_some(),
        },
        _ => false,
    };
    if order_by.iter().all(from_table) {
        order_by
    } else {
        &[]
    }
}

/// Plans join `j` onto the tables `joined` so far: its probe key, from
/// the equi-key conjuncts of its own ON clause, and the estimated cost
/// per left row.
fn plan_join_step(j: &Join, table: &Table, joined: &[(&str, &Table)]) -> (JoinPlan, f64) {
    let binding = j.table.binding_name();
    // Equi-key extraction: `table.col = expr(joined)` conjuncts.
    let mut key_cols: Vec<(&str, &Expr)> = Vec::new();
    for conjunct in j.on.conjuncts() {
        let Expr::Cmp(a, CmpOp::Eq, b) = conjunct else {
            continue;
        };
        for (side_t, side_o) in [(a, b), (b, a)] {
            let Expr::Column(c) = side_t.as_ref() else {
                continue;
            };
            // The executor's binder resolves an unqualified column to the
            // *first* layout entry carrying it, so it only names this
            // step's table when no table joined before has the column —
            // probing on a misattributed key would drop matching rows.
            let t_ok = match &c.table {
                Some(t) => t == binding,
                None => joined
                    .iter()
                    .all(|(_, tab)| tab.schema().column_pos(&c.column).is_none()),
            };
            if t_ok
                && table.schema().column_pos(&c.column).is_some()
                && resolvable_in(side_o, joined)
            {
                if !key_cols.iter().any(|(kc, _)| *kc == c.column) {
                    key_cols.push((&c.column, side_o));
                }
                break;
            }
        }
    }

    let key_for = |c: &str| {
        key_cols
            .iter()
            .find(|(kc, _)| *kc == c)
            .map(|&(_, e)| e.clone())
    };
    let rows = table.row_band() as f64;
    // The primary key when the ON covers it; else the index with the
    // longest covered key prefix `p` — ties to a whole-key match, then to
    // the higher band of distinct prefixes, then to the smaller name, so
    // the choice never flip-flops between runs; else no key.
    let (index, keys, single_row, fanout) = if let Some(k) = key_for(table.schema().primary_key()) {
        (None, vec![k], true, 1.0)
    } else {
        let best = table
            .indexes()
            .iter()
            .map(|idx| {
                let keys: Vec<Expr> = idx.def().columns.iter().map_while(|c| key_for(c)).collect();
                (idx, keys)
            })
            .filter(|(_, keys)| !keys.is_empty())
            .max_by_key(|(idx, keys)| {
                let p = keys.len();
                (
                    p,
                    p == idx.def().columns.len(),
                    idx.prefix_band(p),
                    std::cmp::Reverse(idx.def().name.as_str()),
                )
            });
        match best {
            Some((idx, keys)) => {
                let p = keys.len();
                let single = idx.def().unique && p == idx.def().columns.len();
                let fanout = if single {
                    1.0
                } else {
                    rows / idx.prefix_band(p).max(1) as f64
                };
                (Some(idx.def().name.clone()), keys, single, fanout)
            }
            None => (None, Vec::new(), false, rows),
        }
    };
    let probes = if keys.is_empty() { 0.0 } else { 1.0 };
    let per_left_cost = scan_cost(fanout, probes, table.schema().rows_per_page_hint as f64);
    let step = JoinPlan {
        table: j.table.table.clone(),
        binding: binding.to_owned(),
        kind: j.kind,
        on: j.on.clone(),
        index,
        keys,
        single_row,
        fanout,
    };
    (step, per_left_cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_guard_coercibility_matches_the_coerced_key() {
        let values = [
            Value::Null,
            Value::Int(3),
            Value::Float(2.5),
            Value::Text("u".into()),
            Value::Bool(true),
            Value::Timestamp(7),
        ];
        let types = [
            ValueType::Int,
            ValueType::Float,
            ValueType::Text,
            ValueType::Bool,
            ValueType::Timestamp,
        ];
        for v in &values {
            for ty in types {
                assert_eq!(
                    coercible_for_type(ty, v),
                    coerce_for_type(ty, v).is_some(),
                    "{v:?} as {ty}"
                );
            }
        }
    }
}
