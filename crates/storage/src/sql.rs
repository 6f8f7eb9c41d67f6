//! SQL-subset lexer and parser.
//!
//! Covers the statement surface an ORM emits plus the DDL the test suite
//! needs: `SELECT` (joins, aggregates, grouping, ordering, limits),
//! `INSERT`/`UPDATE`/`DELETE`, `CREATE TABLE`/`CREATE INDEX`, and
//! transaction control. Positional parameters are written `$1`, `$2`, …
//! and bind 0-based into the params slice.
//!
//! The parser accepts everything the AST's `Display` implementations emit,
//! which is verified by a round-trip property test — so canonical SQL text
//! is a faithful serialization of [`Statement`].

use crate::error::{Result, StorageError};
use crate::expr::{ArithOp, CmpOp, ColumnRef, Expr};
use crate::query::{
    AggFunc, Delete, Insert, Join, JoinKind, OrderKey, Select, SelectItem, Statement, TableRef,
    Update,
};
use crate::schema::{ColumnDef, IndexDef, TableSchema};
use crate::value::{Value, ValueType};

/// Parses one SQL statement.
///
/// # Errors
///
/// [`StorageError::Parse`] with a human-readable message and offset
/// context for any lexical or syntactic problem.
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.expect_end()?;
    Ok(stmt)
}

/// Parses a standalone scalar expression (used by tests and tooling).
///
/// # Errors
///
/// [`StorageError::Parse`] on malformed input.
pub fn parse_expr(text: &str) -> Result<Expr> {
    let tokens = lex(text)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.expr()?;
    p.expect_end()?;
    Ok(e)
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Param(usize),
    Sym(&'static str),
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let b: Vec<char> = input.chars().collect();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                i += 1;
            }
            out.push(Tok::Ident(b[start..i].iter().collect()));
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut is_float = false;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == '.') {
                if b[i] == '.' {
                    // A second dot terminates the number.
                    if is_float {
                        break;
                    }
                    is_float = true;
                }
                i += 1;
            }
            let text: String = b[start..i].iter().collect();
            if is_float {
                let v = text
                    .parse::<f64>()
                    .map_err(|_| StorageError::Parse(format!("bad float literal {text:?}")))?;
                out.push(Tok::Float(v));
            } else {
                let v = text
                    .parse::<i64>()
                    .map_err(|_| StorageError::Parse(format!("bad int literal {text:?}")))?;
                out.push(Tok::Int(v));
            }
            continue;
        }
        if c == '\'' {
            i += 1;
            let mut s = String::new();
            loop {
                if i >= b.len() {
                    return Err(StorageError::Parse("unterminated string literal".into()));
                }
                if b[i] == '\'' {
                    if i + 1 < b.len() && b[i + 1] == '\'' {
                        s.push('\'');
                        i += 2;
                        continue;
                    }
                    i += 1;
                    break;
                }
                s.push(b[i]);
                i += 1;
            }
            out.push(Tok::Str(s));
            continue;
        }
        if c == '$' {
            i += 1;
            let start = i;
            while i < b.len() && b[i].is_ascii_digit() {
                i += 1;
            }
            if start == i {
                return Err(StorageError::Parse("expected digits after '$'".into()));
            }
            let n: usize = b[start..i]
                .iter()
                .collect::<String>()
                .parse()
                .map_err(|_| StorageError::Parse("bad parameter number".into()))?;
            if n == 0 {
                return Err(StorageError::Parse("parameters are 1-based ($1...)".into()));
            }
            out.push(Tok::Param(n - 1));
            continue;
        }
        // Multi-char operators first.
        let two: String = b[i..(i + 2).min(b.len())].iter().collect();
        let sym2 = match two.as_str() {
            "<>" => Some("<>"),
            "!=" => Some("<>"),
            "<=" => Some("<="),
            ">=" => Some(">="),
            _ => None,
        };
        if let Some(s) = sym2 {
            out.push(Tok::Sym(s));
            i += 2;
            continue;
        }
        let sym1 = match c {
            '(' => "(",
            ')' => ")",
            ',' => ",",
            '*' => "*",
            '/' => "/",
            '+' => "+",
            '-' => "-",
            '=' => "=",
            '<' => "<",
            '>' => ">",
            '.' => ".",
            ';' => ";",
            other => {
                return Err(StorageError::Parse(format!(
                    "unexpected character {other:?} at offset {i}"
                )))
            }
        };
        out.push(Tok::Sym(sym1));
        i += 1;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(StorageError::Parse(format!(
            "{} (near token {})",
            msg.into(),
            self.pos
        )))
    }

    /// Case-insensitive keyword check without consuming.
    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consumes `kw` if present.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {kw}"))
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Sym(t)) if *t == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, s: &str) -> Result<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            self.err(format!("expected {s:?}"))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => self.err(format!("expected identifier, got {other:?}")),
        }
    }

    fn expect_end(&mut self) -> Result<()> {
        self.eat_sym(";");
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            self.err("trailing tokens after statement")
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.peek_kw("SELECT") {
            return Ok(Statement::Select(self.select()?));
        }
        if self.eat_kw("EXPLAIN") {
            return Ok(Statement::Explain(self.select()?));
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("CREATE") {
            return self.create();
        }
        if self.eat_kw("BEGIN") {
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            return Ok(Statement::Rollback);
        }
        self.err("expected a statement keyword")
    }

    // ----- SELECT -----

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let mut projection = vec![self.select_item()?];
        while self.eat_sym(",") {
            projection.push(self.select_item()?);
        }
        self.expect_kw("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let kind = if self.eat_kw("LEFT") {
                // Optional OUTER noise word.
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Left
            } else if self.eat_kw("JOIN") || {
                if self.peek_kw("INNER") {
                    self.pos += 1;
                    self.expect_kw("JOIN")?;
                    true
                } else {
                    false
                }
            } {
                JoinKind::Inner
            } else {
                break;
            };
            let table = self.table_ref()?;
            self.expect_kw("ON")?;
            let on = self.expr()?;
            joins.push(Join { kind, table, on });
        }
        let predicate = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.column_ref()?);
            while self.eat_sym(",") {
                group_by.push(self.column_ref()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            Some(self.uint()?)
        } else {
            None
        };
        let offset = if self.eat_kw("OFFSET") {
            Some(self.uint()?)
        } else {
            None
        };
        Ok(Select {
            from,
            joins,
            projection,
            predicate,
            group_by,
            order_by,
            limit,
            offset,
        })
    }

    fn uint(&mut self) -> Result<u64> {
        match self.next() {
            Some(Tok::Int(v)) if v >= 0 => Ok(v as u64),
            other => self.err(format!("expected non-negative integer, got {other:?}")),
        }
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_sym("*") {
            return Ok(SelectItem::Wildcard);
        }
        // Aggregate?
        if let Some(Tok::Ident(name)) = self.peek() {
            let func = match name.to_ascii_uppercase().as_str() {
                "COUNT" => Some(AggFunc::Count),
                "SUM" => Some(AggFunc::Sum),
                "AVG" => Some(AggFunc::Avg),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                _ => None,
            };
            if let Some(func) = func {
                if self.tokens.get(self.pos + 1) == Some(&Tok::Sym("(")) {
                    self.pos += 2; // consume name and '('
                    let arg = if self.eat_sym("*") {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect_sym(")")?;
                    let alias = self.alias()?;
                    return Ok(SelectItem::Aggregate { func, arg, alias });
                }
            }
        }
        let expr = self.expr()?;
        let alias = self.alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.ident()?;
        if self.eat_kw("AS") {
            let alias = self.ident()?;
            Ok(TableRef::aliased(table, alias))
        } else {
            Ok(TableRef::new(table))
        }
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.ident()?;
        if self.eat_sym(".") {
            let second = self.ident()?;
            Ok(ColumnRef::qualified(first, second))
        } else {
            Ok(ColumnRef::bare(first))
        }
    }

    // ----- INSERT / UPDATE / DELETE -----

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.eat_sym("(") {
            columns.push(self.ident()?);
            while self.eat_sym(",") {
                columns.push(self.ident()?);
            }
            self.expect_sym(")")?;
        }
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut vals = vec![self.expr()?];
            while self.eat_sym(",") {
                vals.push(self.expr()?);
            }
            self.expect_sym(")")?;
            rows.push(vals);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(Statement::Insert(Insert {
            table,
            columns,
            rows,
        }))
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym("=")?;
            let e = self.expr()?;
            sets.push((col, e));
            if !self.eat_sym(",") {
                break;
            }
        }
        let predicate = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            sets,
            predicate,
        }))
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let predicate = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(Delete { table, predicate }))
    }

    // ----- CREATE -----

    fn create(&mut self) -> Result<Statement> {
        if self.eat_kw("TABLE") {
            return self.create_table();
        }
        let unique = self.eat_kw("UNIQUE");
        if self.eat_kw("INDEX") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            self.expect_sym("(")?;
            let mut columns = vec![self.ident()?];
            while self.eat_sym(",") {
                columns.push(self.ident()?);
            }
            self.expect_sym(")")?;
            return Ok(Statement::CreateIndex {
                table,
                def: IndexDef {
                    name,
                    columns,
                    unique,
                },
            });
        }
        self.err("expected TABLE or [UNIQUE] INDEX after CREATE")
    }

    fn create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_sym("(")?;
        let mut builder = TableSchema::builder(&name);
        let mut first = true;
        loop {
            if !first && !self.eat_sym(",") {
                break;
            }
            first = false;
            if self.eat_kw("FOREIGN") {
                self.expect_kw("KEY")?;
                self.expect_sym("(")?;
                let col = self.ident()?;
                self.expect_sym(")")?;
                self.expect_kw("REFERENCES")?;
                let ref_table = self.ident()?;
                self.expect_sym("(")?;
                let ref_col = self.ident()?;
                self.expect_sym(")")?;
                builder = builder.foreign_key(col, ref_table, ref_col);
                continue;
            }
            if matches!(self.peek(), Some(Tok::Sym(")"))) {
                break;
            }
            let col_name = self.ident()?;
            let ty = self.type_name()?;
            let mut def = ColumnDef::new(&col_name, ty);
            let mut is_pk = false;
            loop {
                if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    def = def.not_null();
                } else if self.eat_kw("UNIQUE") {
                    def = def.unique();
                } else if self.eat_kw("PRIMARY") {
                    self.expect_kw("KEY")?;
                    is_pk = true;
                    def = def.not_null();
                } else {
                    break;
                }
            }
            builder = builder.column(def);
            if is_pk {
                builder = builder.primary_key(&col_name);
            }
        }
        self.expect_sym(")")?;
        Ok(Statement::CreateTable(builder.build()?))
    }

    fn type_name(&mut self) -> Result<ValueType> {
        let t = self.ident()?;
        match t.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SERIAL" => Ok(ValueType::Int),
            "FLOAT" | "REAL" | "DOUBLE" => Ok(ValueType::Float),
            "TEXT" | "VARCHAR" | "CHAR" => Ok(ValueType::Text),
            "BOOL" | "BOOLEAN" => Ok(ValueType::Bool),
            "TIMESTAMP" | "DATE" | "DATETIME" => Ok(ValueType::Timestamp),
            other => self.err(format!("unknown type {other}")),
        }
    }

    // ----- expressions (precedence climbing) -----

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut e = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            e = e.or(rhs);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut e = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            e = e.and(rhs);
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let lhs = self.additive()?;
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            // Desugars to `lhs >= lo AND lhs <= hi`, which the planner's
            // conjunct extraction turns into one index range scan.
            let lo = self.additive()?;
            self.expect_kw("AND")?;
            let hi = self.additive()?;
            return Ok(
                Expr::Cmp(Box::new(lhs.clone()), CmpOp::Ge, Box::new(lo)).and(Expr::Cmp(
                    Box::new(lhs),
                    CmpOp::Le,
                    Box::new(hi),
                )),
            );
        }
        if self.eat_kw("IN") {
            self.expect_sym("(")?;
            let mut list = vec![self.expr()?];
            while self.eat_sym(",") {
                list.push(self.expr()?);
            }
            self.expect_sym(")")?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
            });
        }
        if self.eat_kw("LIKE") {
            match self.next() {
                Some(Tok::Str(p)) => {
                    return Ok(Expr::Like {
                        expr: Box::new(lhs),
                        pattern: p,
                    })
                }
                other => return self.err(format!("expected string pattern, got {other:?}")),
            }
        }
        let op = if self.eat_sym("=") {
            Some(CmpOp::Eq)
        } else if self.eat_sym("<>") {
            Some(CmpOp::Ne)
        } else if self.eat_sym("<=") {
            Some(CmpOp::Le)
        } else if self.eat_sym(">=") {
            Some(CmpOp::Ge)
        } else if self.eat_sym("<") {
            Some(CmpOp::Lt)
        } else if self.eat_sym(">") {
            Some(CmpOp::Gt)
        } else {
            None
        };
        if let Some(op) = op {
            let rhs = self.additive()?;
            return Ok(Expr::Cmp(Box::new(lhs), op, Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut e = self.term()?;
        loop {
            if self.eat_sym("+") {
                let rhs = self.term()?;
                e = Expr::Arith(Box::new(e), ArithOp::Add, Box::new(rhs));
            } else if self.eat_sym("-") {
                let rhs = self.term()?;
                e = Expr::Arith(Box::new(e), ArithOp::Sub, Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn term(&mut self) -> Result<Expr> {
        let mut e = self.factor()?;
        loop {
            if self.eat_sym("*") {
                let rhs = self.factor()?;
                e = Expr::Arith(Box::new(e), ArithOp::Mul, Box::new(rhs));
            } else if self.eat_sym("/") {
                let rhs = self.factor()?;
                e = Expr::Arith(Box::new(e), ArithOp::Div, Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn factor(&mut self) -> Result<Expr> {
        if self.eat_sym("(") {
            let e = self.expr()?;
            self.expect_sym(")")?;
            return Ok(e);
        }
        if self.eat_sym("-") {
            let inner = self.factor()?;
            return Ok(match inner {
                Expr::Literal(Value::Int(v)) => Expr::Literal(Value::Int(-v)),
                Expr::Literal(Value::Float(v)) => Expr::Literal(Value::Float(-v)),
                other => Expr::Arith(Box::new(Expr::lit(0i64)), ArithOp::Sub, Box::new(other)),
            });
        }
        match self.next() {
            Some(Tok::Int(v)) => Ok(Expr::Literal(Value::Int(v))),
            Some(Tok::Float(v)) => Ok(Expr::Literal(Value::Float(v))),
            Some(Tok::Str(s)) => Ok(Expr::Literal(Value::Text(s))),
            Some(Tok::Param(i)) => Ok(Expr::Param(i)),
            Some(Tok::Ident(name)) => {
                let upper = name.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => Ok(Expr::Literal(Value::Null)),
                    "TRUE" => Ok(Expr::Literal(Value::Bool(true))),
                    "FALSE" => Ok(Expr::Literal(Value::Bool(false))),
                    // TS(<int>) renders Timestamp literals round-trippably;
                    // a bare `ts` is an ordinary column name.
                    "TS" if self.eat_sym("(") => {
                        let v = match self.next() {
                            Some(Tok::Int(v)) => v,
                            other => {
                                return self.err(format!("expected int in TS(), got {other:?}"))
                            }
                        };
                        self.expect_sym(")")?;
                        Ok(Expr::Literal(Value::Timestamp(v)))
                    }
                    _ => {
                        if self.eat_sym(".") {
                            let col = self.ident()?;
                            Ok(Expr::Column(ColumnRef::qualified(name, col)))
                        } else {
                            Ok(Expr::Column(ColumnRef::bare(name)))
                        }
                    }
                }
            }
            other => self.err(format!("expected expression, got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(sql: &str) {
        let stmt = parse(sql).unwrap();
        let rendered = match &stmt {
            Statement::Select(s) => s.to_string(),
            Statement::Insert(s) => s.to_string(),
            Statement::Update(s) => s.to_string(),
            Statement::Delete(s) => s.to_string(),
            other => panic!("no display round-trip for {other:?}"),
        };
        let reparsed = parse(&rendered).unwrap();
        assert_eq!(stmt, reparsed, "display text: {rendered}");
    }

    #[test]
    fn select_basic() {
        let s = parse("SELECT * FROM users WHERE id = $1").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        assert_eq!(sel.from.table, "users");
        assert!(sel.predicate.is_some());
    }

    #[test]
    fn select_full_featured() {
        let sql = "SELECT u.name AS who, COUNT(*) AS n FROM users AS u \
                   JOIN posts ON posts.user_id = u.id \
                   WHERE u.age >= 18 AND posts.score > 0 \
                   GROUP BY u.name";
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!()
        };
        assert_eq!(sel.joins.len(), 1);
        assert_eq!(sel.group_by.len(), 1);
        assert!(sel.is_aggregate());
    }

    #[test]
    fn select_order_limit_offset() {
        let sql = "SELECT * FROM wall WHERE user_id = $1 ORDER BY date_posted DESC, post_id ASC LIMIT 20 OFFSET 5";
        let Statement::Select(sel) = parse(sql).unwrap() else {
            panic!()
        };
        assert_eq!(sel.order_by.len(), 2);
        assert!(sel.order_by[0].desc);
        assert!(!sel.order_by[1].desc);
        assert_eq!(sel.limit, Some(20));
        assert_eq!(sel.offset, Some(5));
    }

    #[test]
    fn left_join_variants() {
        for sql in [
            "SELECT * FROM a LEFT JOIN b ON b.x = a.x",
            "SELECT * FROM a LEFT OUTER JOIN b ON b.x = a.x",
        ] {
            let Statement::Select(sel) = parse(sql).unwrap() else {
                panic!()
            };
            assert_eq!(sel.joins[0].kind, JoinKind::Left);
        }
        let Statement::Select(sel) = parse("SELECT * FROM a INNER JOIN b ON b.x = a.x").unwrap()
        else {
            panic!()
        };
        assert_eq!(sel.joins[0].kind, JoinKind::Inner);
    }

    #[test]
    fn insert_forms() {
        let Statement::Insert(i) = parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap()
        else {
            panic!()
        };
        assert_eq!(i.rows.len(), 2);
        assert_eq!(i.columns, vec!["a".to_string(), "b".to_string()]);
        let Statement::Insert(i2) = parse("INSERT INTO t VALUES ($1, $2)").unwrap() else {
            panic!()
        };
        assert!(i2.columns.is_empty());
    }

    #[test]
    fn update_and_delete() {
        let Statement::Update(u) = parse("UPDATE t SET a = a + 1, b = 'z' WHERE id = 3").unwrap()
        else {
            panic!()
        };
        assert_eq!(u.sets.len(), 2);
        let Statement::Delete(d) = parse("DELETE FROM t").unwrap() else {
            panic!()
        };
        assert!(d.predicate.is_none());
    }

    #[test]
    fn create_table_with_constraints() {
        let sql = "CREATE TABLE users (id INT PRIMARY KEY, email TEXT UNIQUE NOT NULL, \
                   age INT, bio TEXT, FOREIGN KEY (age) REFERENCES ages (id))";
        let Statement::CreateTable(schema) = parse(sql).unwrap() else {
            panic!()
        };
        assert_eq!(schema.primary_key(), "id");
        assert!(schema.column("email").unwrap().unique);
        assert!(schema.column("email").unwrap().not_null);
        assert_eq!(schema.foreign_keys().len(), 1);
    }

    #[test]
    fn create_index_forms() {
        let Statement::CreateIndex { table, def } =
            parse("CREATE UNIQUE INDEX ux ON t (a, b)").unwrap()
        else {
            panic!()
        };
        assert_eq!(table, "t");
        assert!(def.unique);
        assert_eq!(def.columns.len(), 2);
    }

    #[test]
    fn transaction_keywords() {
        assert_eq!(parse("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse("COMMIT;").unwrap(), Statement::Commit);
        assert_eq!(parse("ROLLBACK").unwrap(), Statement::Rollback);
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expr("1 + 2 * 3 = 7 AND NOT FALSE").unwrap();
        // Shape: ((1 + (2*3)) = 7) AND (NOT FALSE)
        assert_eq!(e.to_string(), "(((1 + (2 * 3)) = 7) AND (NOT FALSE))");
    }

    #[test]
    fn string_escapes() {
        let e = parse_expr("'o''brien'").unwrap();
        assert_eq!(e, Expr::lit("o'brien"));
    }

    #[test]
    fn negative_literals() {
        assert_eq!(parse_expr("-5").unwrap(), Expr::lit(-5i64));
        assert_eq!(parse_expr("-1.5").unwrap(), Expr::lit(-1.5f64));
    }

    #[test]
    fn is_null_and_in_and_like() {
        let e = parse_expr("a IS NOT NULL AND b IN (1, 2) AND c LIKE 'x%'").unwrap();
        let s = e.to_string();
        assert!(s.contains("IS NOT NULL"));
        assert!(s.contains("IN (1, 2)"));
        assert!(s.contains("LIKE 'x%'"));
    }

    #[test]
    fn timestamp_literal_roundtrip() {
        let e = parse_expr("TS(12345)").unwrap();
        assert_eq!(e, Expr::lit(Value::Timestamp(12345)));
    }

    #[test]
    fn ts_is_a_column_name_unless_called() {
        assert_eq!(
            parse_expr("ts").unwrap(),
            Expr::Column(ColumnRef::bare("ts"))
        );
        assert_eq!(
            parse_expr("t.ts").unwrap(),
            Expr::Column(ColumnRef::qualified("t", "ts"))
        );
        // The literal constructor still wins when called.
        assert_eq!(
            parse_expr("ts >= TS(7)").unwrap().to_string(),
            "(ts >= TS(7))"
        );
        roundtrip("SELECT ts, t.ts FROM t WHERE ((ts > 5) AND (t.ts < TS(9))) ORDER BY ts DESC");

        let db = crate::Database::default();
        db.execute_sql("CREATE TABLE t (id INT PRIMARY KEY, ts INT NOT NULL)", &[])
            .unwrap();
        db.execute_sql("INSERT INTO t VALUES (1, 3), (2, 9), (3, 7)", &[])
            .unwrap();
        let out = db
            .execute_sql(
                "SELECT ts, t.ts FROM t WHERE ts > 5 AND t.ts < 100 ORDER BY t.ts DESC",
                &[],
            )
            .unwrap();
        let got: Vec<Vec<Value>> = out
            .result
            .rows
            .iter()
            .map(|r| r.values().to_vec())
            .collect();
        assert_eq!(
            got,
            vec![
                vec![Value::Int(9), Value::Int(9)],
                vec![Value::Int(7), Value::Int(7)]
            ]
        );
    }

    #[test]
    fn parameters_are_one_based() {
        assert_eq!(parse_expr("$1").unwrap(), Expr::Param(0));
        assert!(parse_expr("$0").is_err());
        assert!(parse_expr("$").is_err());
    }

    #[test]
    fn lex_errors() {
        assert!(parse("SELECT ~ FROM t").is_err());
        assert!(parse("SELECT 'unterminated FROM t").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse("SELECT * FROM t garbage garbage").is_err());
    }

    #[test]
    fn display_parse_roundtrips() {
        for sql in [
            "SELECT * FROM users WHERE (id = $1)",
            "SELECT name AS n, age FROM users ORDER BY age DESC LIMIT 3",
            "SELECT COUNT(*) FROM friends WHERE (user_id = $1)",
            "SELECT AVG(age) AS a, MIN(age) AS lo, MAX(age) AS hi, SUM(age) AS s FROM users",
            "SELECT * FROM a JOIN b ON (b.x = a.x) LEFT JOIN c ON (c.y = b.y) WHERE ((a.z > 3) OR (b.w IS NULL))",
            "INSERT INTO t (a, b) VALUES (1, 'x''y'), (NULL, TRUE)",
            "UPDATE t SET a = (a + 1) WHERE (id IN (1, 2, 3))",
            "DELETE FROM t WHERE (name LIKE 'bob%')",
        ] {
            roundtrip(sql);
        }
    }

    #[test]
    fn float_literals() {
        assert_eq!(parse_expr("1.5").unwrap(), Expr::lit(1.5f64));
        assert!(parse_expr("1.5.5").is_err());
    }
}
