//! Django-flavoured query sets.
//!
//! A [`QuerySet`] accumulates filters, ordering, limits, and relation
//! joins, then compiles to a parameterized [`Select`]: filter *values*
//! become positional parameters, so structurally identical queries produce
//! byte-identical SQL templates. That canonicalization is what CacheGenie
//! pattern-matches against (its cached objects are compiled from the same
//! builder), and it mirrors how Django reduces model methods to a small
//! family of SQL shapes.

use crate::model::ModelDef;
use genie_storage::{CmpOp, Expr, OrderKey, QueryResult, Row, Select, SelectItem, TableRef, Value};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A filter operator (Django lookup).
#[derive(Debug, Clone, PartialEq)]
pub enum FilterOp {
    /// `field = value` (`exact`).
    Eq,
    /// `field <> value`.
    Ne,
    /// `field < value` (`lt`).
    Lt,
    /// `field <= value` (`lte`).
    Lte,
    /// `field > value` (`gt`).
    Gt,
    /// `field >= value` (`gte`).
    Gte,
    /// `field IN (...)` (`in`).
    In(Vec<Value>),
    /// `field LIKE pattern` (`contains`/`startswith` family).
    Like(String),
    /// `field IS [NOT] NULL` (`isnull`).
    IsNull(bool),
}

/// A filter's structural part. Its values — one for a comparison, the
/// list for `IN` — live in [`QuerySet::params`], in filter order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Lookup {
    Cmp(CmpOp),
    /// `IN` over this many values (the length is part of the shape).
    In(usize),
    Like(String),
    /// `IS NULL` (true) / `IS NOT NULL` (false).
    IsNull(bool),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Filter {
    /// Binding (table or alias) the field lives on.
    binding: String,
    field: String,
    lookup: Lookup,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RelationJoin {
    /// Table being joined.
    table: String,
    /// Join column on the previous table in the chain.
    base_column: String,
    /// Join column on the joined table.
    target_column: String,
    /// Binding the join hangs off (the previous table in the chain).
    from_binding: String,
}

/// One result row with named access.
#[derive(Debug, Clone, PartialEq)]
pub struct OrmRow {
    columns: Arc<[String]>,
    row: Row,
}

impl OrmRow {
    /// Wraps executor output.
    pub fn new(columns: Arc<[String]>, row: Row) -> Self {
        OrmRow { columns, row }
    }

    /// Converts a whole [`QueryResult`] into rows: the rows move in, and
    /// all of them share the one list of column names.
    pub fn from_result(result: QueryResult) -> Vec<OrmRow> {
        result
            .rows
            .into_iter()
            .map(|r| OrmRow::new(Arc::clone(&result.columns), r))
            .collect()
    }

    /// The first column named `name`, or NULL if absent.
    pub fn get(&self, name: &str) -> &Value {
        static NULL: Value = Value::Null;
        match self.columns.iter().position(|c| c == name) {
            Some(i) => self.row.get(i),
            None => &NULL,
        }
    }

    /// The value at position `i`.
    pub fn get_at(&self, i: usize) -> &Value {
        self.row.get(i)
    }

    /// The `id` column as an integer.
    ///
    /// # Panics
    ///
    /// Panics if there is no integer `id` column — every ORM-built query
    /// on a model includes it, so a panic indicates misuse on a projection.
    pub fn id(&self) -> i64 {
        self.get("id").as_int().expect("row has integer id column")
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The underlying storage row.
    pub fn row(&self) -> &Row {
        &self.row
    }
}

/// A lazily-built query over one model (plus joined relations).
///
/// Build with [`crate::OrmSession::objects`]; execute with the terminal
/// methods there (`all`, `get`, `count`, …) which apply cache
/// interception.
#[derive(Debug, Clone)]
pub struct QuerySet {
    model: Arc<ModelDef>,
    filters: Vec<Filter>,
    /// The filters' values, in `$n` order. Everything else in the query
    /// set is its *shape*.
    params: Vec<Value>,
    joins: Vec<RelationJoin>,
    order: Vec<(String, bool)>,
    limit: Option<u64>,
    offset: Option<u64>,
    /// Projection override: qualified (binding, column) pairs.
    projection: Option<Vec<(String, String)>>,
}

impl QuerySet {
    /// A query over every row of `model`.
    pub fn new(model: impl Into<Arc<ModelDef>>) -> Self {
        QuerySet {
            model: model.into(),
            filters: Vec::new(),
            params: Vec::new(),
            joins: Vec::new(),
            order: Vec::new(),
            limit: None,
            offset: None,
            projection: None,
        }
    }

    /// The base model.
    pub fn model(&self) -> &ModelDef {
        &self.model
    }

    /// The filter values, in the order [`QuerySet::compile`] numbers its
    /// `$n` parameters.
    pub fn params(&self) -> &[Value] {
        &self.params
    }

    /// Feeds the query set's shape — everything but the filter values —
    /// to `state`.
    pub(crate) fn hash_shape<H: Hasher>(&self, state: &mut H) {
        self.model.table().hash(state);
        self.filters.hash(state);
        self.joins.hash(state);
        self.order.hash(state);
        self.limit.hash(state);
        self.offset.hash(state);
        self.projection.hash(state);
    }

    /// True when `other` differs from `self` in filter values at most.
    pub(crate) fn same_shape(&self, other: &QuerySet) -> bool {
        (Arc::ptr_eq(&self.model, &other.model) || self.model == other.model)
            && self.filters == other.filters
            && self.joins == other.joins
            && self.order == other.order
            && self.limit == other.limit
            && self.offset == other.offset
            && self.projection == other.projection
    }

    fn push_filter(&mut self, binding: String, field: String, op: FilterOp, value: Option<Value>) {
        let lookup = match op {
            FilterOp::Eq => Lookup::Cmp(CmpOp::Eq),
            FilterOp::Ne => Lookup::Cmp(CmpOp::Ne),
            FilterOp::Lt => Lookup::Cmp(CmpOp::Lt),
            FilterOp::Lte => Lookup::Cmp(CmpOp::Le),
            FilterOp::Gt => Lookup::Cmp(CmpOp::Gt),
            FilterOp::Gte => Lookup::Cmp(CmpOp::Ge),
            FilterOp::In(values) => {
                // IN lists are structural (length matters); their items
                // are parameters one by one.
                let n = values.len();
                self.params.extend(values);
                Lookup::In(n)
            }
            FilterOp::Like(pattern) => Lookup::Like(pattern),
            FilterOp::IsNull(is_null) => Lookup::IsNull(is_null),
        };
        if matches!(lookup, Lookup::Cmp(_)) {
            self.params
                .push(value.expect("comparison filter carries a value"));
        }
        self.filters.push(Filter {
            binding,
            field,
            lookup,
        });
    }

    fn current_binding(&self) -> String {
        self.joins
            .last()
            .map(|j| j.table.clone())
            .unwrap_or_else(|| self.model.table().to_owned())
    }

    /// Adds `field <op> value` on the base model.
    pub fn filter(
        mut self,
        field: impl Into<String>,
        op: FilterOp,
        value: impl Into<Value>,
    ) -> Self {
        let binding = self.model.table().to_owned();
        self.push_filter(binding, field.into(), op, Some(value.into()));
        self
    }

    /// Shorthand for the ubiquitous equality filter.
    pub fn filter_eq(self, field: impl Into<String>, value: impl Into<Value>) -> Self {
        self.filter(field, FilterOp::Eq, value)
    }

    /// Adds a filter on the most recently joined relation.
    pub fn filter_related(
        mut self,
        field: impl Into<String>,
        op: FilterOp,
        value: impl Into<Value>,
    ) -> Self {
        let binding = self.current_binding();
        self.push_filter(binding, field.into(), op, Some(value.into()));
        self
    }

    /// Adds a valueless filter (IN / LIKE / IS NULL carry their own data).
    pub fn filter_where(mut self, field: impl Into<String>, op: FilterOp) -> Self {
        let binding = self.model.table().to_owned();
        self.push_filter(binding, field.into(), op, None);
        self
    }

    /// Joins `target` on an arbitrary column pair:
    /// `target.<target_column> = current.<base_column>`. The general form
    /// behind [`QuerySet::join_forward`] and [`QuerySet::join_reverse`];
    /// CacheGenie's LinkQuery uses it for non-PK traversals (e.g. joining
    /// bookmark instances on a friendship's `friend_id`).
    pub fn join_on(
        mut self,
        target: &ModelDef,
        base_column: impl Into<String>,
        target_column: impl Into<String>,
    ) -> Self {
        let from = self.current_binding();
        self.joins.push(RelationJoin {
            table: target.table().to_owned(),
            base_column: base_column.into(),
            target_column: target_column.into(),
            from_binding: from,
        });
        self
    }

    /// Follows a forward FK from the current chain tail: joins `target`
    /// where `target.id = current.fk_column`. (Django `select_related`.)
    pub fn join_forward(self, fk_column: impl Into<String>, target: &ModelDef) -> Self {
        self.join_on(target, fk_column, "id")
    }

    /// Follows a reverse FK: joins `target` where
    /// `target.fk_column = current.id` (Django related manager).
    pub fn join_reverse(self, target: &ModelDef, fk_column: impl Into<String>) -> Self {
        self.join_on(target, "id", fk_column)
    }

    /// Django-style ordering: `"-date_posted"` for descending.
    pub fn order_by(mut self, spec: &str) -> Self {
        let (col, desc) = match spec.strip_prefix('-') {
            Some(c) => (c, true),
            None => (spec, false),
        };
        self.order.push((col.to_owned(), desc));
        self
    }

    /// Limits output rows (Django slicing).
    pub fn limit(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// Skips leading rows.
    pub fn offset(mut self, n: u64) -> Self {
        self.offset = Some(n);
        self
    }

    /// Projects qualified columns `(binding, column)` instead of `*`.
    pub fn values(mut self, cols: &[(&str, &str)]) -> Self {
        self.projection = Some(
            cols.iter()
                .map(|(b, c)| ((*b).to_owned(), (*c).to_owned()))
                .collect(),
        );
        self
    }

    /// Compiles to a parameterized SELECT plus its parameter vector.
    ///
    /// Filter values become `$n` parameters in filter order; everything
    /// else is structural. Two query sets with the same shape therefore
    /// produce identical [`Select`]s — the property CacheGenie's
    /// pattern-matcher relies on.
    pub fn compile(&self) -> (Select, Vec<Value>) {
        let mut sel = Select::star(self.model.table());
        // Joins.
        for j in &self.joins {
            let on = Expr::qcol(&j.table, &j.target_column)
                .eq(Expr::qcol(&j.from_binding, &j.base_column));
            sel = sel.join(TableRef::new(&j.table), on);
        }
        // Filters.
        let mut next_param = 0;
        let mut pred: Option<Expr> = None;
        for f in &self.filters {
            let col = Box::new(Expr::qcol(&f.binding, &f.field));
            let e = match &f.lookup {
                Lookup::Cmp(op) => {
                    next_param += 1;
                    Expr::Cmp(col, *op, Box::new(Expr::Param(next_param - 1)))
                }
                Lookup::In(n) => {
                    next_param += n;
                    Expr::InList {
                        expr: col,
                        list: (next_param - n..next_param).map(Expr::Param).collect(),
                    }
                }
                Lookup::Like(pattern) => Expr::Like {
                    expr: col,
                    pattern: pattern.clone(),
                },
                Lookup::IsNull(is_null) => Expr::IsNull {
                    expr: col,
                    negated: !is_null,
                },
            };
            pred = Some(match pred {
                Some(p) => p.and(e),
                None => e,
            });
        }
        if let Some(p) = pred {
            sel = sel.filter(p);
        }
        // Projection.
        if let Some(proj) = &self.projection {
            sel = sel.project(
                proj.iter()
                    .map(|(b, c)| SelectItem::Expr {
                        expr: Expr::qcol(b, c),
                        alias: None,
                    })
                    .collect(),
            );
        }
        // Order / limit / offset. Keys are qualified to the base model's
        // binding: Django orders by base-model fields, and the qualified
        // form is the metadata the whole-query planner needs to attribute
        // the ORDER BY unambiguously once joins are in the statement
        // (an ordered index scan can then survive single-row joins).
        for (col, desc) in &self.order {
            sel.order_by.push(OrderKey {
                expr: Expr::qcol(self.model.table(), col),
                desc: *desc,
            });
        }
        if let Some(l) = self.limit {
            sel = sel.limit(l);
        }
        sel.offset = self.offset;
        (sel, self.params.clone())
    }

    /// Compiles to a `SELECT COUNT(*)` with the same FROM/WHERE.
    pub fn compile_count(&self) -> (Select, Vec<Value>) {
        let (mut sel, params) = self.compile();
        sel.projection = vec![SelectItem::count_star()];
        sel.order_by.clear();
        sel.limit = None;
        sel.offset = None;
        (sel, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FieldDef, ModelDef};
    use genie_storage::ValueType;

    fn wall() -> ModelDef {
        ModelDef::builder("WallPost", "wall")
            .foreign_key("user_id", "User")
            .field(FieldDef::new("content", ValueType::Text))
            .field(FieldDef::new("date_posted", ValueType::Timestamp).indexed())
            .build()
    }

    fn user() -> ModelDef {
        ModelDef::builder("User", "users")
            .field(FieldDef::new("name", ValueType::Text))
            .build()
    }

    #[test]
    fn compile_is_canonical() {
        let (s1, p1) = QuerySet::new(wall())
            .filter_eq("user_id", 42i64)
            .order_by("-date_posted")
            .limit(20)
            .compile();
        let (s2, p2) = QuerySet::new(wall())
            .filter_eq("user_id", 99i64)
            .order_by("-date_posted")
            .limit(20)
            .compile();
        // Same template, different parameters.
        assert_eq!(s1, s2);
        assert_eq!(s1.to_string(), s2.to_string());
        assert_eq!(p1, vec![Value::Int(42)]);
        assert_eq!(p2, vec![Value::Int(99)]);
    }

    #[test]
    fn compile_top_k_shape() {
        let (sel, _) = QuerySet::new(wall())
            .filter_eq("user_id", 42i64)
            .order_by("-date_posted")
            .limit(20)
            .compile();
        assert_eq!(
            sel.to_string(),
            "SELECT * FROM wall WHERE (wall.user_id = $1) ORDER BY wall.date_posted DESC LIMIT 20"
        );
    }

    #[test]
    fn forward_join_compiles() {
        let (sel, _) = QuerySet::new(wall())
            .filter_eq("user_id", 1i64)
            .join_forward("user_id", &user())
            .compile();
        let s = sel.to_string();
        assert!(s.contains("JOIN users ON (users.id = wall.user_id)"), "{s}");
    }

    #[test]
    fn reverse_join_compiles() {
        let (sel, _) = QuerySet::new(user())
            .filter_eq("id", 1i64)
            .join_reverse(&wall(), "user_id")
            .compile();
        let s = sel.to_string();
        assert!(s.contains("JOIN wall ON (wall.user_id = users.id)"), "{s}");
    }

    #[test]
    fn join_chain_binds_to_tail() {
        let m3 = ModelDef::builder("Extra", "extra")
            .foreign_key("wall_id", "WallPost")
            .build();
        let (sel, _) = QuerySet::new(user())
            .join_reverse(&wall(), "user_id")
            .join_reverse(&m3, "wall_id")
            .compile();
        let s = sel.to_string();
        assert!(s.contains("JOIN extra ON (extra.wall_id = wall.id)"), "{s}");
    }

    #[test]
    fn in_filter_inlines_params() {
        let (sel, params) = QuerySet::new(user())
            .filter_where("id", FilterOp::In(vec![Value::Int(1), Value::Int(2)]))
            .compile();
        assert!(sel.to_string().contains("IN ($1, $2)"));
        assert_eq!(params.len(), 2);
    }

    #[test]
    fn isnull_and_like_filters() {
        let (sel, params) = QuerySet::new(user())
            .filter_where("name", FilterOp::IsNull(true))
            .filter_where("name", FilterOp::Like("a%".into()))
            .compile();
        let s = sel.to_string();
        assert!(s.contains("IS NULL"), "{s}");
        assert!(s.contains("LIKE 'a%'"), "{s}");
        assert!(params.is_empty());
    }

    #[test]
    fn count_strips_order_and_limit() {
        let (sel, params) = QuerySet::new(wall())
            .filter_eq("user_id", 7i64)
            .order_by("-date_posted")
            .limit(20)
            .compile_count();
        assert_eq!(
            sel.to_string(),
            "SELECT COUNT(*) FROM wall WHERE (wall.user_id = $1)"
        );
        assert_eq!(params, vec![Value::Int(7)]);
    }

    #[test]
    fn values_projection() {
        let (sel, _) = QuerySet::new(wall())
            .join_forward("user_id", &user())
            .values(&[("wall", "content"), ("users", "name")])
            .compile();
        assert!(sel
            .to_string()
            .starts_with("SELECT wall.content, users.name"));
    }

    #[test]
    fn orm_row_named_access() {
        let cols = ["id".to_owned(), "name".to_owned()].into();
        let r = OrmRow::new(cols, genie_storage::row![7i64, "bob"]);
        assert_eq!(r.id(), 7);
        assert_eq!(r.get("name"), &Value::Text("bob".into()));
        assert!(r.get("missing").is_null());
        assert_eq!(r.get_at(1), &Value::Text("bob".into()));
    }
}
