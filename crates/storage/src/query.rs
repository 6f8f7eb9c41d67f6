//! Logical statement AST: the engine's "prepared statement" form.
//!
//! ORM queries compile to these structures directly; the SQL parser
//! ([`crate::sql`]) produces them from text. `Display` renders canonical
//! SQL, and the parser accepts everything `Display` emits (verified by a
//! round-trip property test), so the AST doubles as a canonical query
//! fingerprint for CacheGenie's pattern matching.

use crate::expr::{ColumnRef, Expr};
use crate::row::Row;
use crate::schema::{IndexDef, TableSchema};
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableRef {
    /// Table name in the catalog.
    pub table: String,
    /// Alias used to qualify columns; defaults to the table name.
    pub alias: Option<String>,
}

impl TableRef {
    /// References `table` without an alias.
    pub fn new(table: impl Into<String>) -> Self {
        TableRef {
            table: table.into(),
            alias: None,
        }
    }

    /// References `table` with `alias`.
    pub fn aliased(table: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef {
            table: table.into(),
            alias: Some(alias.into()),
        }
    }

    /// The name columns qualify against.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.table),
            None => f.write_str(&self.table),
        }
    }
}

/// Join flavour. Only the two the ORM generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    /// INNER JOIN.
    Inner,
    /// LEFT OUTER JOIN.
    Left,
}

/// One join step in a SELECT.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Join {
    /// Join flavour.
    pub kind: JoinKind,
    /// Joined table.
    pub table: TableRef,
    /// ON condition (unbound expression).
    pub on: Expr,
}

/// Aggregate functions supported by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` or `COUNT(col)`.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `AVG(col)`.
    Avg,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// One item of a SELECT projection.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum SelectItem {
    /// `*` — every column of the FROM chain, in join order.
    Wildcard,
    /// A scalar expression with an optional output alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Output column name override.
        alias: Option<String>,
    },
    /// An aggregate over the (grouped) input.
    Aggregate {
        /// Aggregate function.
        func: AggFunc,
        /// Argument; `None` means `COUNT(*)`.
        arg: Option<Expr>,
        /// Output column name override.
        alias: Option<String>,
    },
}

impl SelectItem {
    /// A plain column projection.
    pub fn column(name: impl Into<String>) -> Self {
        SelectItem::Expr {
            expr: Expr::col(name),
            alias: None,
        }
    }

    /// `COUNT(*)` shorthand.
    pub fn count_star() -> Self {
        SelectItem::Aggregate {
            func: AggFunc::Count,
            arg: None,
            alias: None,
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => write!(f, "{expr} AS {a}"),
                None => write!(f, "{expr}"),
            },
            SelectItem::Aggregate { func, arg, alias } => {
                match arg {
                    Some(e) => write!(f, "{func}({e})")?,
                    None => write!(f, "{func}(*)")?,
                }
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
        }
    }
}

/// A sort key.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct OrderKey {
    /// Sort expression (usually a column).
    pub expr: Expr,
    /// True for `DESC`.
    pub desc: bool,
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            self.expr,
            if self.desc { " DESC" } else { " ASC" }
        )
    }
}

/// A SELECT statement. Hashing is structural and consistent with `==`:
/// the engine's statement cache keys prepared statements by it.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Select {
    /// Base table.
    pub from: TableRef,
    /// Join chain, applied left to right.
    pub joins: Vec<Join>,
    /// Projection list (never empty).
    pub projection: Vec<SelectItem>,
    /// WHERE clause.
    pub predicate: Option<Expr>,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnRef>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<u64>,
    /// OFFSET row count.
    pub offset: Option<u64>,
}

impl Select {
    /// A `SELECT * FROM table` starting point.
    pub fn star(table: impl Into<String>) -> Self {
        Select {
            from: TableRef::new(table),
            joins: Vec::new(),
            projection: vec![SelectItem::Wildcard],
            predicate: None,
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        }
    }

    /// Replaces the projection.
    pub fn project(mut self, items: Vec<SelectItem>) -> Self {
        self.projection = items;
        self
    }

    /// Sets the WHERE clause (replacing any previous one).
    pub fn filter(mut self, predicate: Expr) -> Self {
        self.predicate = Some(predicate);
        self
    }

    /// Appends an inner join.
    pub fn join(mut self, table: TableRef, on: Expr) -> Self {
        self.joins.push(Join {
            kind: JoinKind::Inner,
            table,
            on,
        });
        self
    }

    /// Appends an ORDER BY key.
    pub fn order(mut self, column: impl Into<String>, desc: bool) -> Self {
        self.order_by.push(OrderKey {
            expr: Expr::col(column),
            desc,
        });
        self
    }

    /// Sets LIMIT.
    pub fn limit(mut self, n: u64) -> Self {
        self.limit = Some(n);
        self
    }

    /// True if any projection item is an aggregate.
    pub fn is_aggregate(&self) -> bool {
        self.projection
            .iter()
            .any(|i| matches!(i, SelectItem::Aggregate { .. }))
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        for (i, item) in self.projection.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, " FROM {}", self.from)?;
        for j in &self.joins {
            let kw = match j.kind {
                JoinKind::Inner => "JOIN",
                JoinKind::Left => "LEFT JOIN",
            };
            write!(f, " {kw} {} ON {}", j.table, j.on)?;
        }
        if let Some(p) = &self.predicate {
            write!(f, " WHERE {p}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, c) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{c}")?;
            }
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, k) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{k}")?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if let Some(o) = self.offset {
            write!(f, " OFFSET {o}")?;
        }
        Ok(())
    }
}

/// An INSERT statement (multi-row VALUES form).
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    /// Target table.
    pub table: String,
    /// Column list; empty means "all columns in schema order".
    pub columns: Vec<String>,
    /// One expression list per row.
    pub rows: Vec<Vec<Expr>>,
}

impl fmt::Display for Insert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "INSERT INTO {}", self.table)?;
        if !self.columns.is_empty() {
            write!(f, " ({})", self.columns.join(", "))?;
        }
        f.write_str(" VALUES ")?;
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            f.write_str("(")?;
            for (j, e) in r.iter().enumerate() {
                if j > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{e}")?;
            }
            f.write_str(")")?;
        }
        Ok(())
    }
}

/// An UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    /// Target table.
    pub table: String,
    /// `SET col = expr` assignments.
    pub sets: Vec<(String, Expr)>,
    /// WHERE clause; `None` updates every row.
    pub predicate: Option<Expr>,
}

impl fmt::Display for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UPDATE {} SET ", self.table)?;
        for (i, (c, e)) in self.sets.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{c} = {e}")?;
        }
        if let Some(p) = &self.predicate {
            write!(f, " WHERE {p}")?;
        }
        Ok(())
    }
}

/// A DELETE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    /// Target table.
    pub table: String,
    /// WHERE clause; `None` deletes every row.
    pub predicate: Option<Expr>,
}

impl fmt::Display for Delete {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DELETE FROM {}", self.table)?;
        if let Some(p) = &self.predicate {
            write!(f, " WHERE {p}")?;
        }
        Ok(())
    }
}

/// Any executable statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// SELECT.
    Select(Select),
    /// EXPLAIN SELECT — plans the query without executing it, returning
    /// one text row per pipeline stage.
    Explain(Select),
    /// INSERT.
    Insert(Insert),
    /// UPDATE.
    Update(Update),
    /// DELETE.
    Delete(Delete),
    /// CREATE TABLE from a validated schema.
    CreateTable(TableSchema),
    /// CREATE INDEX on `table`.
    CreateIndex {
        /// Table to index.
        table: String,
        /// Index definition.
        def: IndexDef,
    },
    /// BEGIN a transaction.
    Begin,
    /// COMMIT the active transaction.
    Commit,
    /// ROLLBACK the active transaction.
    Rollback,
}

impl Statement {
    /// True for statements that modify table data.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_)
        )
    }
}

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResult {
    /// Output column names (empty for writes), shared with the prepared
    /// statement or cached object that produced the result.
    pub columns: Arc<[String]>,
    /// Output rows (empty for writes).
    pub rows: Vec<Row>,
    /// Rows affected by a write.
    pub rows_affected: u64,
}

impl QueryResult {
    /// A write result affecting `n` rows.
    pub fn affected(n: u64) -> Self {
        QueryResult {
            rows_affected: n,
            ..Default::default()
        }
    }

    /// The single value of a single-row, single-column result (e.g.
    /// `COUNT(*)`), if the shape matches.
    pub fn scalar(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.rows[0].arity() == 1 {
            Some(self.rows[0].get(0))
        } else {
            None
        }
    }

    /// True if no rows were returned.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_display_canonical() {
        let s = Select::star("wall")
            .filter(Expr::col("user_id").eq(Expr::Param(0)))
            .order("date_posted", true)
            .limit(20);
        assert_eq!(
            s.to_string(),
            "SELECT * FROM wall WHERE (user_id = $1) ORDER BY date_posted DESC LIMIT 20"
        );
    }

    #[test]
    fn join_display() {
        let s = Select::star("groups")
            .join(
                TableRef::new("membership"),
                Expr::qcol("membership", "group_id").eq(Expr::qcol("groups", "id")),
            )
            .filter(Expr::qcol("membership", "user_id").eq(Expr::Param(0)));
        let t = s.to_string();
        assert!(t.contains("JOIN membership ON"));
        assert!(t.contains("membership.group_id = groups.id"));
    }

    #[test]
    fn aggregate_display_and_flag() {
        let s = Select::star("friends")
            .project(vec![SelectItem::count_star()])
            .filter(Expr::col("user_id").eq(Expr::Param(0)));
        assert!(s.is_aggregate());
        assert!(s.to_string().starts_with("SELECT COUNT(*) FROM friends"));
    }

    #[test]
    fn insert_display() {
        let i = Insert {
            table: "users".into(),
            columns: vec!["id".into(), "name".into()],
            rows: vec![vec![Expr::lit(1i64), Expr::lit("alice")]],
        };
        assert_eq!(
            i.to_string(),
            "INSERT INTO users (id, name) VALUES (1, 'alice')"
        );
    }

    #[test]
    fn update_delete_display() {
        let u = Update {
            table: "users".into(),
            sets: vec![("name".into(), Expr::lit("bob"))],
            predicate: Some(Expr::col("id").eq(Expr::lit(1i64))),
        };
        assert_eq!(
            u.to_string(),
            "UPDATE users SET name = 'bob' WHERE (id = 1)"
        );
        let d = Delete {
            table: "users".into(),
            predicate: None,
        };
        assert_eq!(d.to_string(), "DELETE FROM users");
    }

    #[test]
    fn scalar_result_shape() {
        let r = QueryResult {
            columns: ["count".to_owned()].into(),
            rows: vec![Row::new(vec![Value::Int(3)])],
            rows_affected: 0,
        };
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
        let empty = QueryResult::default();
        assert_eq!(empty.scalar(), None);
        assert!(empty.is_empty());
    }

    #[test]
    fn statement_is_write() {
        assert!(Statement::Delete(Delete {
            table: "t".into(),
            predicate: None
        })
        .is_write());
        assert!(!Statement::Select(Select::star("t")).is_write());
    }

    #[test]
    fn table_ref_binding_name() {
        assert_eq!(TableRef::new("t").binding_name(), "t");
        assert_eq!(TableRef::aliased("t", "x").binding_name(), "x");
    }
}
