//! Scalar expression AST: predicates, arithmetic, and parameters.
//!
//! Expressions appear in `WHERE` clauses, `UPDATE ... SET` lists, and join
//! conditions. They are built unbound (columns referenced by name), then
//! [bound](Expr::bind) against the statement's column layout before
//! execution, which replaces names with positions so evaluation is a pure
//! function of the row and the parameter vector.
//!
//! Parameters (`Expr::Param`) are the backbone of CacheGenie's *query
//! templates*: a cached object compiles its query once with `$n` holes, and
//! each cache key instantiates the template with concrete values.

use crate::error::{Result, StorageError};
use crate::row::Row;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// A possibly table-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// Qualifying table (or alias); `None` means unqualified.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// An unqualified reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// A table-qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => f.write_str(&self.column),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    pub(crate) fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Expr {
    /// A constant value.
    Literal(Value),
    /// An unbound column reference (pre-binding only).
    Column(ColumnRef),
    /// A bound column: position in the executor's combined row.
    BoundColumn(usize),
    /// A statement parameter, 0-based (`$1` binds position 0).
    Param(usize),
    /// Binary comparison with SQL three-valued semantics.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Logical AND (three-valued).
    And(Box<Expr>, Box<Expr>),
    /// Logical OR (three-valued).
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT (three-valued).
    Not(Box<Expr>),
    /// `expr IS NULL` (negate = `IS NOT NULL`); always two-valued.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr IN (e1, e2, ...)`.
    InList { expr: Box<Expr>, list: Vec<Expr> },
    /// `expr LIKE 'pat%'` with `%` and `_` wildcards.
    Like { expr: Box<Expr>, pattern: String },
    /// Binary arithmetic over numerics.
    Arith(Box<Expr>, ArithOp, Box<Expr>),
}

impl Expr {
    /// Literal convenience constructor.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Unqualified column convenience constructor.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::bare(name))
    }

    /// Qualified column convenience constructor.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::qualified(table, name))
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), CmpOp::Eq, Box::new(other))
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// Binds column references to positions using `resolve`, returning a
    /// copy in which every `Column` became a `BoundColumn`.
    ///
    /// # Errors
    ///
    /// Propagates whatever error `resolve` reports for an unknown column.
    pub fn bind(&self, resolve: &dyn Fn(&ColumnRef) -> Result<usize>) -> Result<Expr> {
        Ok(match self {
            Expr::Literal(v) => Expr::Literal(v.clone()),
            Expr::Column(c) => Expr::BoundColumn(resolve(c)?),
            Expr::BoundColumn(i) => Expr::BoundColumn(*i),
            Expr::Param(i) => Expr::Param(*i),
            Expr::Cmp(a, op, b) => {
                Expr::Cmp(Box::new(a.bind(resolve)?), *op, Box::new(b.bind(resolve)?))
            }
            Expr::And(a, b) => Expr::And(Box::new(a.bind(resolve)?), Box::new(b.bind(resolve)?)),
            Expr::Or(a, b) => Expr::Or(Box::new(a.bind(resolve)?), Box::new(b.bind(resolve)?)),
            Expr::Not(a) => Expr::Not(Box::new(a.bind(resolve)?)),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.bind(resolve)?),
                negated: *negated,
            },
            Expr::InList { expr, list } => Expr::InList {
                expr: Box::new(expr.bind(resolve)?),
                list: list
                    .iter()
                    .map(|e| e.bind(resolve))
                    .collect::<Result<_>>()?,
            },
            Expr::Like { expr, pattern } => Expr::Like {
                expr: Box::new(expr.bind(resolve)?),
                pattern: pattern.clone(),
            },
            Expr::Arith(a, op, b) => {
                Expr::Arith(Box::new(a.bind(resolve)?), *op, Box::new(b.bind(resolve)?))
            }
        })
    }

    /// Substitutes parameters with literal values, producing a closed
    /// expression (used when instantiating query templates for cache keys).
    pub fn substitute_params(&self, params: &[Value]) -> Expr {
        match self {
            Expr::Param(i) => match params.get(*i) {
                Some(v) => Expr::Literal(v.clone()),
                None => Expr::Param(*i),
            },
            Expr::Literal(_) | Expr::Column(_) | Expr::BoundColumn(_) => self.clone(),
            Expr::Cmp(a, op, b) => Expr::Cmp(
                Box::new(a.substitute_params(params)),
                *op,
                Box::new(b.substitute_params(params)),
            ),
            Expr::And(a, b) => Expr::And(
                Box::new(a.substitute_params(params)),
                Box::new(b.substitute_params(params)),
            ),
            Expr::Or(a, b) => Expr::Or(
                Box::new(a.substitute_params(params)),
                Box::new(b.substitute_params(params)),
            ),
            Expr::Not(a) => Expr::Not(Box::new(a.substitute_params(params))),
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(expr.substitute_params(params)),
                negated: *negated,
            },
            Expr::InList { expr, list } => Expr::InList {
                expr: Box::new(expr.substitute_params(params)),
                list: list.iter().map(|e| e.substitute_params(params)).collect(),
            },
            Expr::Like { expr, pattern } => Expr::Like {
                expr: Box::new(expr.substitute_params(params)),
                pattern: pattern.clone(),
            },
            Expr::Arith(a, op, b) => Expr::Arith(
                Box::new(a.substitute_params(params)),
                *op,
                Box::new(b.substitute_params(params)),
            ),
        }
    }

    /// Evaluates a bound expression against `row` and `params`.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Eval`] for unbound columns, out-of-range
    /// parameters, division by zero, or non-numeric arithmetic.
    pub fn eval(&self, row: &Row, params: &[Value]) -> Result<Value> {
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column(c) => Err(StorageError::Eval(format!(
                "unbound column {c} reached evaluation"
            ))),
            Expr::BoundColumn(i) => Ok(row.get(*i).clone()),
            Expr::Param(i) => params
                .get(*i)
                .cloned()
                .ok_or_else(|| StorageError::Eval(format!("missing parameter ${}", i + 1))),
            Expr::Cmp(a, op, b) => {
                let (va, vb) = (a.eval(row, params)?, b.eval(row, params)?);
                Ok(match va.sql_cmp(&vb) {
                    Some(ord) => Value::Bool(op.holds(ord)),
                    None => Value::Null,
                })
            }
            Expr::And(a, b) => {
                let va = a.eval(row, params)?;
                // Short circuit: FALSE AND x = FALSE regardless of x.
                if va == Value::Bool(false) {
                    return Ok(Value::Bool(false));
                }
                let vb = b.eval(row, params)?;
                Ok(match (truth(&va), truth(&vb)) {
                    (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                    (Some(true), Some(true)) => Value::Bool(true),
                    _ => Value::Null,
                })
            }
            Expr::Or(a, b) => {
                let va = a.eval(row, params)?;
                if va == Value::Bool(true) {
                    return Ok(Value::Bool(true));
                }
                let vb = b.eval(row, params)?;
                Ok(match (truth(&va), truth(&vb)) {
                    (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                    (Some(false), Some(false)) => Value::Bool(false),
                    _ => Value::Null,
                })
            }
            Expr::Not(a) => Ok(match truth(&a.eval(row, params)?) {
                Some(b) => Value::Bool(!b),
                None => Value::Null,
            }),
            Expr::IsNull { expr, negated } => {
                let v = expr.eval(row, params)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            Expr::InList { expr, list } => {
                let v = expr.eval(row, params)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let iv = item.eval(row, params)?;
                    match v.sql_eq(&iv) {
                        Some(true) => return Ok(Value::Bool(true)),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                Ok(if saw_null {
                    Value::Null
                } else {
                    Value::Bool(false)
                })
            }
            Expr::Like { expr, pattern } => {
                let v = expr.eval(row, params)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Text(s) => Ok(Value::Bool(like_match(&s, pattern))),
                    other => Err(StorageError::Eval(format!(
                        "LIKE applied to non-text value {other}"
                    ))),
                }
            }
            Expr::Arith(a, op, b) => {
                let (va, vb) = (a.eval(row, params)?, b.eval(row, params)?);
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                arith(&va, *op, &vb)
            }
        }
    }

    /// Evaluates as a predicate: true only when the result is SQL TRUE.
    pub fn matches(&self, row: &Row, params: &[Value]) -> Result<bool> {
        Ok(self.eval(row, params)?.is_sql_true())
    }

    /// Splits a conjunction into its top-level conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::And(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// If this conjunct is `column = <literal or param>`, returns the pair.
    /// Used by the planner for index selection and by CacheGenie for key
    /// extraction.
    pub fn as_column_eq(&self) -> Option<(&ColumnRef, &Expr)> {
        if let Expr::Cmp(a, CmpOp::Eq, b) = self {
            match (a.as_ref(), b.as_ref()) {
                (Expr::Column(c), v @ (Expr::Literal(_) | Expr::Param(_))) => Some((c, v)),
                (v @ (Expr::Literal(_) | Expr::Param(_)), Expr::Column(c)) => Some((c, v)),
                _ => None,
            }
        } else {
            None
        }
    }

    /// If this conjunct is `column <op> <literal or param>` for a
    /// comparison operator, returns `(column, op, rhs)` with the operator
    /// normalized to the column-on-the-left orientation (`5 < col`
    /// becomes `col > 5`).
    pub fn as_column_cmp(&self) -> Option<(&ColumnRef, CmpOp, &Expr)> {
        let Expr::Cmp(a, op, b) = self else {
            return None;
        };
        match (a.as_ref(), b.as_ref()) {
            (Expr::Column(c), v @ (Expr::Literal(_) | Expr::Param(_))) => Some((c, *op, v)),
            (v @ (Expr::Literal(_) | Expr::Param(_)), Expr::Column(c)) => {
                let flipped = match op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    CmpOp::Eq => CmpOp::Eq,
                    CmpOp::Ne => CmpOp::Ne,
                };
                Some((c, flipped, v))
            }
            _ => None,
        }
    }

    /// If this conjunct is `column IN (c1, c2, ...)` with every list item
    /// a literal or parameter, returns the column and the items.
    pub fn as_column_in(&self) -> Option<(&ColumnRef, &[Expr])> {
        let Expr::InList { expr, list } = self else {
            return None;
        };
        let Expr::Column(c) = expr.as_ref() else {
            return None;
        };
        if list
            .iter()
            .all(|e| matches!(e, Expr::Literal(_) | Expr::Param(_)))
        {
            Some((c, list))
        } else {
            None
        }
    }

    /// If this conjunct is a disjunction whose every arm is an equality
    /// on the *same* column (`a = 1 OR a = 2 OR a = $1`), returns the
    /// column and the right-hand sides — the planner turns this into a
    /// multi-key index lookup, exactly like `IN`.
    pub fn as_or_column_eqs(&self) -> Option<(&ColumnRef, Vec<&Expr>)> {
        if !matches!(self, Expr::Or(..)) {
            return None;
        }
        let mut arms = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut arms);
        let mut col: Option<&ColumnRef> = None;
        let mut values = Vec::with_capacity(arms.len());
        for arm in arms {
            let (c, v) = arm.as_column_eq()?;
            match col {
                None => col = Some(c),
                Some(prev) if prev == c => {}
                Some(_) => return None,
            }
            values.push(v);
        }
        col.map(|c| (c, values))
    }

    /// Collects every column referenced by the (unbound) expression.
    pub fn referenced_columns(&self, out: &mut Vec<ColumnRef>) {
        match self {
            Expr::Column(c) => out.push(c.clone()),
            Expr::Literal(_) | Expr::BoundColumn(_) | Expr::Param(_) => {}
            Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) | Expr::Arith(a, _, b) => {
                a.referenced_columns(out);
                b.referenced_columns(out);
            }
            Expr::Not(a) => a.referenced_columns(out),
            Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => expr.referenced_columns(out),
            Expr::InList { expr, list } => {
                expr.referenced_columns(out);
                for e in list {
                    e.referenced_columns(out);
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Column(c) => write!(f, "{c}"),
            Expr::BoundColumn(i) => write!(f, "#{i}"),
            Expr::Param(i) => write!(f, "${}", i + 1),
            Expr::Cmp(a, op, b) => write!(f, "({a} {op} {b})"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(a) => write!(f, "(NOT {a})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList { expr, list } => {
                write!(f, "({expr} IN (")?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("))")
            }
            Expr::Like { expr, pattern } => {
                write!(f, "({expr} LIKE '{}')", pattern.replace('\'', "''"))
            }
            Expr::Arith(a, op, b) => write!(f, "({a} {op} {b})"),
        }
    }
}

fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Null => None,
        // Non-boolean in a logical context: treat as unknown.
        _ => None,
    }
}

fn arith(a: &Value, op: ArithOp, b: &Value) -> Result<Value> {
    // Integer arithmetic stays integral; any float operand promotes.
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => {
            let r = match op {
                ArithOp::Add => x.checked_add(*y),
                ArithOp::Sub => x.checked_sub(*y),
                ArithOp::Mul => x.checked_mul(*y),
                ArithOp::Div => {
                    if *y == 0 {
                        return Err(StorageError::Eval("division by zero".into()));
                    }
                    x.checked_div(*y)
                }
            };
            r.map(Value::Int)
                .ok_or_else(|| StorageError::Eval("integer overflow".into()))
        }
        _ => {
            let (x, y) = match (a.as_float(), b.as_float()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(StorageError::Eval(format!(
                        "arithmetic on non-numeric values {a} and {b}"
                    )))
                }
            };
            if matches!(op, ArithOp::Div) && y == 0.0 {
                return Err(StorageError::Eval("division by zero".into()));
            }
            Ok(Value::Float(match op {
                ArithOp::Add => x + y,
                ArithOp::Sub => x - y,
                ArithOp::Mul => x * y,
                ArithOp::Div => x / y,
            }))
        }
    }
}

/// SQL LIKE matching with `%` (any run) and `_` (any single char).
fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.split_first() {
            None => s.is_empty(),
            Some(('%', rest)) => (0..=s.len()).any(|k| rec(&s[k..], rest)),
            Some(('_', rest)) => !s.is_empty() && rec(&s[1..], rest),
            Some((c, rest)) => s.first() == Some(c) && rec(&s[1..], rest),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    rec(&sc, &pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn b(e: &Expr) -> Expr {
        // Binds bare columns a,b,c to positions 0,1,2.
        e.bind(&|c: &ColumnRef| match c.column.as_str() {
            "a" => Ok(0),
            "b" => Ok(1),
            "c" => Ok(2),
            _ => Err(StorageError::UnknownColumn {
                table: "t".into(),
                column: c.column.clone(),
            }),
        })
        .unwrap()
    }

    #[test]
    fn comparison_and_binding() {
        let e = b(&Expr::col("a").eq(Expr::lit(5i64)));
        let r = row![5i64, 0i64, 0i64];
        assert!(e.matches(&r, &[]).unwrap());
        assert!(!e.matches(&row![4i64, 0i64, 0i64], &[]).unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let null = Expr::lit(Value::Null);
        let t = Expr::lit(true);
        let f_ = Expr::lit(false);
        let r = Row::default();
        // NULL AND FALSE = FALSE; NULL AND TRUE = NULL
        assert_eq!(
            null.clone().and(f_.clone()).eval(&r, &[]).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            null.clone().and(t.clone()).eval(&r, &[]).unwrap(),
            Value::Null
        );
        // NULL OR TRUE = TRUE; NULL OR FALSE = NULL
        assert_eq!(null.clone().or(t).eval(&r, &[]).unwrap(), Value::Bool(true));
        assert_eq!(null.or(f_).eval(&r, &[]).unwrap(), Value::Null);
    }

    #[test]
    fn not_of_null_is_null() {
        let e = Expr::Not(Box::new(Expr::lit(Value::Null)));
        assert_eq!(e.eval(&Row::default(), &[]).unwrap(), Value::Null);
    }

    #[test]
    fn null_comparison_never_matches() {
        let e = b(&Expr::col("a").eq(Expr::lit(Value::Null)));
        assert!(!e.matches(&row![1i64, 0i64, 0i64], &[]).unwrap());
    }

    #[test]
    fn is_null_predicate() {
        let e = b(&Expr::IsNull {
            expr: Box::new(Expr::col("a")),
            negated: false,
        });
        let null_row = Row::new(vec![Value::Null, Value::Int(1), Value::Int(2)]);
        assert!(e.matches(&null_row, &[]).unwrap());
        assert!(!e.matches(&row![3i64, 1i64, 2i64], &[]).unwrap());
        let e_not = b(&Expr::IsNull {
            expr: Box::new(Expr::col("a")),
            negated: true,
        });
        assert!(!e_not.matches(&null_row, &[]).unwrap());
        assert!(e_not.matches(&row![3i64, 1i64, 2i64], &[]).unwrap());
    }

    #[test]
    fn params_resolve() {
        let e = b(&Expr::col("b").eq(Expr::Param(0)));
        let r = row![0i64, 42i64, 0i64];
        assert!(e.matches(&r, &[Value::Int(42)]).unwrap());
        assert!(matches!(e.eval(&r, &[]), Err(StorageError::Eval(_))));
    }

    #[test]
    fn substitute_params_closes_template() {
        let e = Expr::col("a").eq(Expr::Param(0));
        let closed = e.substitute_params(&[Value::Int(7)]);
        assert_eq!(closed, Expr::col("a").eq(Expr::lit(7i64)));
    }

    #[test]
    fn in_list_semantics() {
        let e = b(&Expr::InList {
            expr: Box::new(Expr::col("a")),
            list: vec![Expr::lit(1i64), Expr::lit(2i64)],
        });
        assert!(e.matches(&row![2i64, 0i64, 0i64], &[]).unwrap());
        assert!(!e.matches(&row![3i64, 0i64, 0i64], &[]).unwrap());
        // NULL in the list makes a non-match unknown, not false.
        let e2 = b(&Expr::InList {
            expr: Box::new(Expr::col("a")),
            list: vec![Expr::lit(1i64), Expr::lit(Value::Null)],
        });
        assert_eq!(e2.eval(&row![3i64, 0i64, 0i64], &[]).unwrap(), Value::Null);
    }

    #[test]
    fn like_wildcards() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "h_l"));
        assert!(!like_match("", "_"));
        assert!(like_match("", "%"));
    }

    #[test]
    fn like_on_non_text_errors() {
        let e = b(&Expr::Like {
            expr: Box::new(Expr::col("a")),
            pattern: "x%".into(),
        });
        assert!(e.eval(&row![1i64, 0i64, 0i64], &[]).is_err());
    }

    #[test]
    fn arithmetic() {
        let r = Row::default();
        let add = Expr::Arith(
            Box::new(Expr::lit(2i64)),
            ArithOp::Add,
            Box::new(Expr::lit(3i64)),
        );
        assert_eq!(add.eval(&r, &[]).unwrap(), Value::Int(5));
        let div = Expr::Arith(
            Box::new(Expr::lit(7i64)),
            ArithOp::Div,
            Box::new(Expr::lit(2i64)),
        );
        assert_eq!(div.eval(&r, &[]).unwrap(), Value::Int(3));
        let fdiv = Expr::Arith(
            Box::new(Expr::lit(7.0f64)),
            ArithOp::Div,
            Box::new(Expr::lit(2i64)),
        );
        assert_eq!(fdiv.eval(&r, &[]).unwrap(), Value::Float(3.5));
    }

    #[test]
    fn division_by_zero_errors() {
        let r = Row::default();
        let div = Expr::Arith(
            Box::new(Expr::lit(1i64)),
            ArithOp::Div,
            Box::new(Expr::lit(0i64)),
        );
        assert!(div.eval(&r, &[]).is_err());
    }

    #[test]
    fn arithmetic_with_null_is_null() {
        let r = Row::default();
        let e = Expr::Arith(
            Box::new(Expr::lit(1i64)),
            ArithOp::Add,
            Box::new(Expr::lit(Value::Null)),
        );
        assert_eq!(e.eval(&r, &[]).unwrap(), Value::Null);
    }

    #[test]
    fn integer_overflow_errors() {
        let r = Row::default();
        let e = Expr::Arith(
            Box::new(Expr::lit(i64::MAX)),
            ArithOp::Add,
            Box::new(Expr::lit(1i64)),
        );
        assert!(e.eval(&r, &[]).is_err());
    }

    #[test]
    fn conjuncts_flatten() {
        let e = Expr::col("a").eq(Expr::lit(1i64)).and(
            Expr::col("b")
                .eq(Expr::lit(2i64))
                .and(Expr::col("c").eq(Expr::lit(3i64))),
        );
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn column_eq_extraction() {
        let e = Expr::col("a").eq(Expr::Param(0));
        let (c, v) = e.as_column_eq().unwrap();
        assert_eq!(c.column, "a");
        assert_eq!(v, &Expr::Param(0));
        // Reversed orientation also extracts.
        let e2 = Expr::lit(5i64).eq(Expr::col("b"));
        assert_eq!(e2.as_column_eq().unwrap().0.column, "b");
        // Non-eq does not.
        let e3 = Expr::Cmp(
            Box::new(Expr::col("a")),
            CmpOp::Lt,
            Box::new(Expr::lit(1i64)),
        );
        assert!(e3.as_column_eq().is_none());
    }

    #[test]
    fn referenced_columns_walks_tree() {
        let e = Expr::col("a")
            .eq(Expr::Param(0))
            .and(Expr::qcol("t", "b").eq(Expr::lit(2i64)));
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[1], ColumnRef::qualified("t", "b"));
    }

    #[test]
    fn display_round_readable() {
        let e = Expr::col("a")
            .eq(Expr::Param(0))
            .and(Expr::col("b").eq(Expr::lit("x")));
        assert_eq!(e.to_string(), "((a = $1) AND (b = 'x'))");
    }

    #[test]
    fn unbound_column_eval_errors() {
        let e = Expr::col("a");
        assert!(e.eval(&Row::default(), &[]).is_err());
    }
}
