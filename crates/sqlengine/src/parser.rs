//! Recursive-descent SQL parser.
//!
//! Grammar follows SQLite's with precedence:
//! `OR < AND < NOT < comparison/IS/IN/LIKE/BETWEEN < add < mul < concat <
//! unary < primary`.

use std::sync::Arc;

use crate::ast::*;
use crate::error::{Error, Result};
use crate::lexer::{tokenize, Symbol, Token, TokenKind};
use crate::value::Value;

/// Parse a single SQL statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.accept_symbol(Symbol::Semicolon);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a script of semicolon-separated statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    loop {
        while p.accept_symbol(Symbol::Semicolon) {}
        if p.at_eof() {
            break;
        }
        out.push(p.statement()?);
        if !p.accept_symbol(Symbol::Semicolon) {
            break;
        }
    }
    p.expect_eof()?;
    Ok(out)
}

/// Parse a standalone expression (used in tests and by UDF tooling).
pub fn parse_expression(sql: &str) -> Result<Expr> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    // ---- token plumbing ----------------------------------------------------

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, ahead: usize) -> &TokenKind {
        let idx = (self.pos + ahead).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::parse(self.pos, format!("{} (found {:?})", msg.into(), self.peek()))
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err("expected end of statement"))
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), TokenKind::Keyword(k) if k == kw)
    }

    fn accept_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.accept_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn at_symbol(&self, s: Symbol) -> bool {
        matches!(self.peek(), TokenKind::Symbol(x) if *x == s)
    }

    fn accept_symbol(&mut self, s: Symbol) -> bool {
        if self.at_symbol(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Symbol) -> Result<()> {
        if self.accept_symbol(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}")))
        }
    }

    /// An identifier; keywords that commonly double as names (e.g. column
    /// called `key`) are accepted where unambiguous.
    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok(name)
            }
            TokenKind::Keyword(k) if matches!(k.as_str(), "KEY" | "ALL" | "IF") => {
                self.bump();
                Ok(k)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    // ---- statements --------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            TokenKind::Keyword(k) => match k.as_str() {
                "SELECT" => Ok(Statement::Select(self.select_stmt()?)),
                "CREATE" => self.create_table(),
                "DROP" => self.drop_table(),
                "ALTER" => self.alter_table(),
                "INSERT" => self.insert(),
                "UPDATE" => self.update(),
                "DELETE" => self.delete(),
                "BEGIN" => self.txn_control(Statement::Begin),
                "COMMIT" => self.txn_control(Statement::Commit),
                "ROLLBACK" => self.txn_control(Statement::Rollback),
                other => Err(self.err(format!("unexpected keyword {other}"))),
            },
            _ => Err(self.err("expected a statement")),
        }
    }

    /// `BEGIN | COMMIT | ROLLBACK`, each with an optional `TRANSACTION`
    /// noise word (SQLite style).
    fn txn_control(&mut self, stmt: Statement) -> Result<Statement> {
        self.bump();
        self.accept_keyword("TRANSACTION");
        Ok(stmt)
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_keyword("CREATE")?;
        self.expect_keyword("TABLE")?;
        let if_not_exists = if self.accept_keyword("IF") {
            self.expect_keyword("NOT")?;
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        self.expect_symbol(Symbol::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key = Vec::new();
        loop {
            if self.at_keyword("PRIMARY") {
                self.bump();
                self.expect_keyword("KEY")?;
                self.expect_symbol(Symbol::LParen)?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.accept_symbol(Symbol::Comma) {
                        break;
                    }
                }
                self.expect_symbol(Symbol::RParen)?;
            } else {
                columns.push(self.column_def()?);
            }
            if !self.accept_symbol(Symbol::Comma) {
                break;
            }
        }
        self.expect_symbol(Symbol::RParen)?;
        Ok(Statement::CreateTable(CreateTable { name, if_not_exists, columns, primary_key }))
    }

    fn column_def(&mut self) -> Result<ColumnDef> {
        let name = self.ident()?;
        // Optional declared type: IDENT possibly with (n) or (n, m).
        let decl_type = match self.peek() {
            TokenKind::Ident(t) => {
                let t = t.clone();
                self.bump();
                if self.accept_symbol(Symbol::LParen) {
                    while !self.accept_symbol(Symbol::RParen) {
                        self.bump();
                    }
                }
                Some(t)
            }
            _ => None,
        };
        let mut def =
            ColumnDef { name, decl_type, not_null: false, primary_key: false, unique: false };
        loop {
            if self.accept_keyword("NOT") {
                self.expect_keyword("NULL")?;
                def.not_null = true;
            } else if self.accept_keyword("PRIMARY") {
                self.expect_keyword("KEY")?;
                def.primary_key = true;
            } else if self.accept_keyword("UNIQUE") {
                def.unique = true;
            } else {
                break;
            }
        }
        Ok(def)
    }

    fn drop_table(&mut self) -> Result<Statement> {
        self.expect_keyword("DROP")?;
        self.expect_keyword("TABLE")?;
        let if_exists = if self.accept_keyword("IF") {
            self.expect_keyword("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        Ok(Statement::DropTable { name, if_exists })
    }

    fn alter_table(&mut self) -> Result<Statement> {
        self.expect_keyword("ALTER")?;
        self.expect_keyword("TABLE")?;
        let table = self.ident()?;
        self.expect_keyword("ADD")?;
        self.accept_keyword("COLUMN");
        let column = self.column_def()?;
        Ok(Statement::AlterTableAddColumn { table, column })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.accept_symbol(Symbol::LParen) {
            loop {
                columns.push(self.ident()?);
                if !self.accept_symbol(Symbol::Comma) {
                    break;
                }
            }
            self.expect_symbol(Symbol::RParen)?;
        }
        let source = if self.accept_keyword("VALUES") {
            let mut rows = Vec::new();
            loop {
                self.expect_symbol(Symbol::LParen)?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.accept_symbol(Symbol::Comma) {
                        break;
                    }
                }
                self.expect_symbol(Symbol::RParen)?;
                rows.push(row);
                if !self.accept_symbol(Symbol::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else if self.at_keyword("SELECT") {
            InsertSource::Select(Box::new(self.select_stmt()?))
        } else {
            return Err(self.err("expected VALUES or SELECT"));
        };
        Ok(Statement::Insert(Insert { table, columns, source }))
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_keyword("UPDATE")?;
        let table = self.ident()?;
        self.expect_keyword("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_symbol(Symbol::Eq)?;
            assignments.push((col, self.expr()?));
            if !self.accept_symbol(Symbol::Comma) {
                break;
            }
        }
        let filter = if self.accept_keyword("WHERE") { Some(self.expr()?) } else { None };
        Ok(Statement::Update(Update { table, assignments, filter }))
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let filter = if self.accept_keyword("WHERE") { Some(self.expr()?) } else { None };
        Ok(Statement::Delete(Delete { table, filter }))
    }

    // ---- SELECT ------------------------------------------------------------

    fn select_stmt(&mut self) -> Result<SelectStmt> {
        let body = self.select_body()?;
        let mut order_by = Vec::new();
        if self.accept_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.accept_keyword("DESC") {
                    true
                } else {
                    self.accept_keyword("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.accept_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.accept_keyword("LIMIT") {
            let first = self.expr()?;
            if self.accept_keyword("OFFSET") {
                limit = Some(first);
                offset = Some(self.expr()?);
            } else if self.accept_symbol(Symbol::Comma) {
                // LIMIT offset, count  (SQLite compatibility)
                offset = Some(first);
                limit = Some(self.expr()?);
            } else {
                limit = Some(first);
            }
        }
        Ok(SelectStmt { body, order_by, limit, offset })
    }

    fn select_body(&mut self) -> Result<SelectBody> {
        let mut left = SelectBody::Simple(Box::new(self.select_core()?));
        loop {
            let op = if self.accept_keyword("UNION") {
                if self.accept_keyword("ALL") {
                    CompoundOp::UnionAll
                } else {
                    CompoundOp::Union
                }
            } else if self.accept_keyword("EXCEPT") {
                CompoundOp::Except
            } else if self.accept_keyword("INTERSECT") {
                CompoundOp::Intersect
            } else {
                break;
            };
            let right = SelectBody::Simple(Box::new(self.select_core()?));
            left = SelectBody::Compound { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn select_core(&mut self) -> Result<SelectCore> {
        self.expect_keyword("SELECT")?;
        let distinct = if self.accept_keyword("DISTINCT") {
            true
        } else {
            self.accept_keyword("ALL");
            false
        };
        let mut projection = Vec::new();
        loop {
            projection.push(self.select_item()?);
            if !self.accept_symbol(Symbol::Comma) {
                break;
            }
        }
        let from = if self.accept_keyword("FROM") { Some(self.table_ref()?) } else { None };
        let filter = if self.accept_keyword("WHERE") { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.accept_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.accept_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        let having = if self.accept_keyword("HAVING") { Some(self.expr()?) } else { None };
        Ok(SelectCore { distinct, projection, from, filter, group_by, having })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.accept_symbol(Symbol::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if let TokenKind::Ident(name) = self.peek().clone() {
            if matches!(self.peek_at(1), TokenKind::Symbol(Symbol::Dot))
                && matches!(self.peek_at(2), TokenKind::Symbol(Symbol::Star))
            {
                self.bump();
                self.bump();
                self.bump();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.expr()?;
        let alias = if self.accept_keyword("AS") {
            Some(self.ident()?)
        } else {
            match self.peek() {
                TokenKind::Ident(a) => {
                    let a = a.clone();
                    self.bump();
                    Some(a)
                }
                _ => None,
            }
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_factor()?;
        loop {
            let kind = if self.accept_keyword("JOIN") || self.at_inner_join()? {
                JoinKind::Inner
            } else if self.at_keyword("LEFT") {
                self.bump();
                self.accept_keyword("OUTER");
                self.expect_keyword("JOIN")?;
                JoinKind::Left
            } else if self.at_keyword("RIGHT") {
                self.bump();
                self.accept_keyword("OUTER");
                self.expect_keyword("JOIN")?;
                JoinKind::Right
            } else if self.at_keyword("CROSS") {
                self.bump();
                self.expect_keyword("JOIN")?;
                JoinKind::Cross
            } else if self.accept_symbol(Symbol::Comma) {
                JoinKind::Cross
            } else {
                break;
            };
            let right = self.table_factor()?;
            let on = if self.accept_keyword("ON") { Some(self.expr()?) } else { None };
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, on };
        }
        Ok(left)
    }

    /// Handles `INNER JOIN` (two tokens) without consuming a lone `INNER`.
    fn at_inner_join(&mut self) -> Result<bool> {
        if self.at_keyword("INNER") {
            self.bump();
            self.expect_keyword("JOIN")?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn table_factor(&mut self) -> Result<TableRef> {
        if self.accept_symbol(Symbol::LParen) {
            if self.at_keyword("SELECT") {
                let query = self.select_stmt()?;
                self.expect_symbol(Symbol::RParen)?;
                self.accept_keyword("AS");
                let alias = self.ident()?;
                return Ok(TableRef::Subquery { query: Box::new(query), alias });
            }
            // Parenthesized join tree.
            let inner = self.table_ref()?;
            self.expect_symbol(Symbol::RParen)?;
            return Ok(inner);
        }
        let name = self.ident()?;
        let alias = if self.accept_keyword("AS") {
            Some(self.ident()?)
        } else {
            match self.peek() {
                TokenKind::Ident(a) => {
                    let a = a.clone();
                    self.bump();
                    Some(a)
                }
                _ => None,
            }
        };
        Ok(TableRef::Table { name, alias })
    }

    // ---- expressions -------------------------------------------------------

    pub(crate) fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.accept_keyword("OR") {
            let right = self.and_expr()?;
            left = Expr::Binary { op: BinaryOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.accept_keyword("AND") {
            let right = self.not_expr()?;
            left = Expr::Binary { op: BinaryOp::And, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.accept_keyword("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.accept_keyword("IS") {
            let negated = self.accept_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        // [NOT] LIKE / GLOB / BETWEEN / IN
        let negated = self.accept_keyword("NOT");
        if self.accept_keyword("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
                glob: false,
            });
        }
        if self.accept_keyword("GLOB") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
                glob: true,
            });
        }
        if self.accept_keyword("BETWEEN") {
            let low = self.additive()?;
            self.expect_keyword("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.accept_keyword("IN") {
            self.expect_symbol(Symbol::LParen)?;
            if self.at_keyword("SELECT") {
                let query = self.select_stmt()?;
                self.expect_symbol(Symbol::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Arc::new(query),
                    negated,
                });
            }
            let mut list = Vec::new();
            if !self.at_symbol(Symbol::RParen) {
                loop {
                    list.push(self.expr()?);
                    if !self.accept_symbol(Symbol::Comma) {
                        break;
                    }
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if negated {
            return Err(self.err("expected LIKE, GLOB, BETWEEN or IN after NOT"));
        }
        // Plain comparison operators.
        let op = match self.peek() {
            TokenKind::Symbol(Symbol::Eq) => Some(BinaryOp::Eq),
            TokenKind::Symbol(Symbol::NotEq) => Some(BinaryOp::NotEq),
            TokenKind::Symbol(Symbol::Lt) => Some(BinaryOp::Lt),
            TokenKind::Symbol(Symbol::LtEq) => Some(BinaryOp::LtEq),
            TokenKind::Symbol(Symbol::Gt) => Some(BinaryOp::Gt),
            TokenKind::Symbol(Symbol::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.additive()?;
            return Ok(Expr::Binary { op, left: Box::new(left), right: Box::new(right) });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = if self.accept_symbol(Symbol::Plus) {
                BinaryOp::Add
            } else if self.accept_symbol(Symbol::Minus) {
                BinaryOp::Sub
            } else {
                break;
            };
            let right = self.multiplicative()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.concat_expr()?;
        loop {
            let op = if self.accept_symbol(Symbol::Star) {
                BinaryOp::Mul
            } else if self.accept_symbol(Symbol::Slash) {
                BinaryOp::Div
            } else if self.accept_symbol(Symbol::Percent) {
                BinaryOp::Rem
            } else {
                break;
            };
            let right = self.concat_expr()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn concat_expr(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        while self.accept_symbol(Symbol::Concat) {
            let right = self.unary()?;
            left = Expr::Binary {
                op: BinaryOp::Concat,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.accept_symbol(Symbol::Minus) {
            let inner = self.unary()?;
            // Fold negative numeric literals immediately.
            return Ok(match inner {
                Expr::Literal(Value::Integer(i)) => Expr::Literal(Value::Integer(-i)),
                Expr::Literal(Value::Real(r)) => Expr::Literal(Value::Real(-r)),
                other => Expr::Unary { op: UnaryOp::Neg, expr: Box::new(other) },
            });
        }
        if self.accept_symbol(Symbol::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Integer(i) => {
                self.bump();
                Ok(Expr::Literal(Value::Integer(i)))
            }
            TokenKind::Real(r) => {
                self.bump();
                Ok(Expr::Literal(Value::Real(r)))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::text(s)))
            }
            TokenKind::Keyword(k) => match k.as_str() {
                "NULL" => {
                    self.bump();
                    Ok(Expr::Literal(Value::Null))
                }
                "TRUE" => {
                    self.bump();
                    Ok(Expr::Literal(Value::Integer(1)))
                }
                "FALSE" => {
                    self.bump();
                    Ok(Expr::Literal(Value::Integer(0)))
                }
                "CASE" => self.case_expr(),
                "CAST" => self.cast_expr(),
                "EXISTS" => {
                    self.bump();
                    self.expect_symbol(Symbol::LParen)?;
                    let query = self.select_stmt()?;
                    self.expect_symbol(Symbol::RParen)?;
                    Ok(Expr::Exists { query: Arc::new(query), negated: false })
                }
                "NOT" => {
                    // NOT EXISTS reaches here via primary when written after
                    // an operator; delegate back through not_expr.
                    self.bump();
                    let inner = self.not_expr()?;
                    Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(inner) })
                }
                // Keywords usable as bare identifiers in expressions.
                "KEY" | "ALL" | "IF" => self.name_or_call(),
                other => Err(self.err(format!("unexpected keyword {other} in expression"))),
            },
            TokenKind::Ident(_) => self.name_or_call(),
            TokenKind::Symbol(Symbol::LParen) => {
                self.bump();
                if self.at_keyword("SELECT") {
                    let query = self.select_stmt()?;
                    self.expect_symbol(Symbol::RParen)?;
                    return Ok(Expr::ScalarSubquery(Arc::new(query)));
                }
                let inner = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(inner)
            }
            TokenKind::Symbol(Symbol::Star) => {
                Err(self.err("'*' is only valid in COUNT(*) or the projection list"))
            }
            _ => Err(self.err("expected expression")),
        }
    }

    /// Identifier, qualified column, or function call.
    fn name_or_call(&mut self) -> Result<Expr> {
        let first = self.ident()?;
        if self.accept_symbol(Symbol::Dot) {
            let col = self.ident()?;
            return Ok(Expr::Column { table: Some(first), name: col });
        }
        if self.accept_symbol(Symbol::LParen) {
            // Function call.
            if self.accept_symbol(Symbol::Star) {
                self.expect_symbol(Symbol::RParen)?;
                return Ok(Expr::Function { name: first, args: vec![], distinct: false, star: true });
            }
            let distinct = self.accept_keyword("DISTINCT");
            let mut args = Vec::new();
            if !self.at_symbol(Symbol::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.accept_symbol(Symbol::Comma) {
                        break;
                    }
                }
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::Function { name: first, args, distinct, star: false });
        }
        Ok(Expr::Column { table: None, name: first })
    }

    fn case_expr(&mut self) -> Result<Expr> {
        self.expect_keyword("CASE")?;
        let operand = if self.at_keyword("WHEN") { None } else { Some(Box::new(self.expr()?)) };
        let mut branches = Vec::new();
        while self.accept_keyword("WHEN") {
            let when = self.expr()?;
            self.expect_keyword("THEN")?;
            let then = self.expr()?;
            branches.push((when, then));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        let else_expr =
            if self.accept_keyword("ELSE") { Some(Box::new(self.expr()?)) } else { None };
        self.expect_keyword("END")?;
        Ok(Expr::Case { operand, branches, else_expr })
    }

    fn cast_expr(&mut self) -> Result<Expr> {
        self.expect_keyword("CAST")?;
        self.expect_symbol(Symbol::LParen)?;
        let inner = self.expr()?;
        self.expect_keyword("AS")?;
        let mut type_name = self.ident()?;
        // Allow e.g. CAST(x AS VARCHAR(10)).
        if self.accept_symbol(Symbol::LParen) {
            while !self.accept_symbol(Symbol::RParen) {
                self.bump();
            }
        }
        type_name.make_ascii_uppercase();
        self.expect_symbol(Symbol::RParen)?;
        Ok(Expr::Cast { expr: Box::new(inner), type_name })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn simple_select() {
        let s = sel("SELECT a, b FROM t WHERE a = 1");
        let SelectBody::Simple(core) = &s.body else { panic!() };
        assert_eq!(core.projection.len(), 2);
        assert!(core.filter.is_some());
    }

    #[test]
    fn join_tree_with_aliases() {
        let s = sel(
            "SELECT T1.hero_name FROM superhero AS T1 \
             JOIN publisher T2 ON T1.publisher_id = T2.id \
             LEFT JOIN colour c ON c.id = T1.eye_colour_id",
        );
        let SelectBody::Simple(core) = &s.body else { panic!() };
        let Some(TableRef::Join { kind, left, .. }) = &core.from else { panic!() };
        assert_eq!(*kind, JoinKind::Left);
        let TableRef::Join { kind: inner_kind, .. } = left.as_ref() else { panic!() };
        assert_eq!(*inner_kind, JoinKind::Inner);
    }

    #[test]
    fn group_by_having_order_limit() {
        let s = sel(
            "SELECT publisher, COUNT(*) AS n FROM superhero \
             GROUP BY publisher HAVING COUNT(*) > 3 \
             ORDER BY n DESC, publisher ASC LIMIT 5 OFFSET 2",
        );
        let SelectBody::Simple(core) = &s.body else { panic!() };
        assert_eq!(core.group_by.len(), 1);
        assert!(core.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
        assert_eq!(s.limit, Some(Expr::lit(5)));
        assert_eq!(s.offset, Some(Expr::lit(2)));
    }

    #[test]
    fn sqlite_limit_comma_form() {
        let s = sel("SELECT a FROM t LIMIT 2, 10");
        assert_eq!(s.limit, Some(Expr::lit(10)));
        assert_eq!(s.offset, Some(Expr::lit(2)));
    }

    #[test]
    fn precedence_and_or_not() {
        // a = 1 OR b = 2 AND NOT c = 3  ==  a=1 OR (b=2 AND (NOT c=3))
        let e = parse_expression("a = 1 OR b = 2 AND NOT c = 3").unwrap();
        let Expr::Binary { op: BinaryOp::Or, right, .. } = e else { panic!() };
        let Expr::Binary { op: BinaryOp::And, right: and_rhs, .. } = *right else { panic!() };
        assert!(matches!(*and_rhs, Expr::Unary { op: UnaryOp::Not, .. }));
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3 parses as 1 + (2*3)
        let e = parse_expression("1 + 2 * 3").unwrap();
        let Expr::Binary { op: BinaryOp::Add, right, .. } = e else { panic!() };
        assert!(matches!(*right, Expr::Binary { op: BinaryOp::Mul, .. }));
    }

    #[test]
    fn between_in_like_negated() {
        assert!(matches!(
            parse_expression("x NOT BETWEEN 1 AND 5").unwrap(),
            Expr::Between { negated: true, .. }
        ));
        assert!(matches!(
            parse_expression("x NOT IN (1, 2)").unwrap(),
            Expr::InList { negated: true, .. }
        ));
        assert!(matches!(
            parse_expression("name NOT LIKE '%man%'").unwrap(),
            Expr::Like { negated: true, glob: false, .. }
        ));
    }

    #[test]
    fn subqueries() {
        assert!(matches!(
            parse_expression("x IN (SELECT id FROM t)").unwrap(),
            Expr::InSubquery { .. }
        ));
        assert!(matches!(
            parse_expression("(SELECT MAX(h) FROM t)").unwrap(),
            Expr::ScalarSubquery(_)
        ));
        assert!(matches!(
            parse_expression("EXISTS (SELECT 1 FROM t)").unwrap(),
            Expr::Exists { negated: false, .. }
        ));
    }

    #[test]
    fn case_and_cast() {
        let e = parse_expression(
            "CASE WHEN score > 0.5 THEN 'good' ELSE 'bad' END",
        )
        .unwrap();
        assert!(matches!(e, Expr::Case { operand: None, .. }));
        let e = parse_expression("CAST(height AS REAL)").unwrap();
        let Expr::Cast { type_name, .. } = e else { panic!() };
        assert_eq!(type_name, "REAL");
    }

    #[test]
    fn compound_union() {
        let s = sel("SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY 1 LIMIT 3");
        assert!(matches!(s.body, SelectBody::Compound { op: CompoundOp::UnionAll, .. }));
        assert_eq!(s.order_by.len(), 1);
    }

    #[test]
    fn create_insert_roundtrip() {
        let c = parse_statement(
            "CREATE TABLE IF NOT EXISTS t (id INTEGER PRIMARY KEY, name TEXT NOT NULL, v REAL)",
        )
        .unwrap();
        let Statement::CreateTable(ct) = c else { panic!() };
        assert!(ct.if_not_exists);
        assert_eq!(ct.columns.len(), 3);
        assert!(ct.columns[0].primary_key);
        assert!(ct.columns[1].not_null);

        let i = parse_statement("INSERT INTO t (id, name) VALUES (1, 'x'), (2, 'y')").unwrap();
        let Statement::Insert(ins) = i else { panic!() };
        let InsertSource::Values(rows) = ins.source else { panic!() };
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn insert_from_select() {
        let i = parse_statement("INSERT INTO t SELECT * FROM u WHERE x > 0").unwrap();
        let Statement::Insert(ins) = i else { panic!() };
        assert!(matches!(ins.source, InsertSource::Select(_)));
    }

    #[test]
    fn update_delete_alter_drop() {
        assert!(matches!(
            parse_statement("UPDATE t SET a = 1, b = b + 1 WHERE id = 3").unwrap(),
            Statement::Update(_)
        ));
        assert!(matches!(
            parse_statement("DELETE FROM t WHERE a IS NULL").unwrap(),
            Statement::Delete(_)
        ));
        assert!(matches!(
            parse_statement("ALTER TABLE t ADD COLUMN note TEXT").unwrap(),
            Statement::AlterTableAddColumn { .. }
        ));
        assert!(matches!(
            parse_statement("DROP TABLE IF EXISTS t").unwrap(),
            Statement::DropTable { if_exists: true, .. }
        ));
    }

    #[test]
    fn qualified_wildcard() {
        let s = sel("SELECT T1.* FROM t AS T1");
        let SelectBody::Simple(core) = &s.body else { panic!() };
        assert_eq!(core.projection[0], SelectItem::QualifiedWildcard("T1".into()));
    }

    #[test]
    fn subquery_in_from() {
        let s = sel("SELECT n FROM (SELECT COUNT(*) AS n FROM t) AS sub");
        let SelectBody::Simple(core) = &s.body else { panic!() };
        assert!(matches!(core.from, Some(TableRef::Subquery { .. })));
    }

    #[test]
    fn script_parses_multiple_statements() {
        let stmts = parse_script(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1); SELECT * FROM t;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn txn_control_statements_parse() {
        assert_eq!(parse_statement("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("begin transaction").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("COMMIT").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("COMMIT TRANSACTION;").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("ROLLBACK").unwrap(), Statement::Rollback);
        assert_eq!(parse_statement("ROLLBACK TRANSACTION").unwrap(), Statement::Rollback);
        assert!(parse_statement("BEGIN EXTRA").is_err(), "trailing tokens rejected");
        let script = parse_script("BEGIN; INSERT INTO t VALUES (1); COMMIT;").unwrap();
        assert_eq!(script.len(), 3);
        assert!(script[0].is_txn_control());
        assert_eq!(script[1].write_target(), Some("t"));
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        for bad in ["SELECT FROM", "SELECT * FROM", "CREATE TABLE", "INSERT t", "SELECT (1", "x ="]
        {
            assert!(parse_statement(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse_statement("SELECT 1 garbage garbage").is_err());
    }
}
