//! The JustQL recursive-descent parser (the repository's ANTLR).
//!
//! It pulls tokens from a `Lexer` with one token of lookahead, so a
//! statement's tokens are never held at once. The outcome is the one
//! tokenize-then-parse gave: a lexing error anywhere in the text wins
//! over an earlier parse error (`Parser::finish` lexes the rest of a
//! text whose parse failed).

use crate::ast::*;
use crate::error::QlError;
use crate::json::Json;
use crate::lexer::{Lexer, Token};
use crate::Result;
use just_storage::Value;

/// Parses a standalone expression (used for `LOAD ... CONFIG` mappings
/// and `FILTER` strings).
pub(crate) fn parse_expr(text: &str) -> Result<Expr> {
    let mut p = Parser::new(text);
    let e = p.expr().and_then(|e| match p.cur {
        Some(_) => Err(p.err("trailing tokens after expression")),
        None => Ok(e),
    });
    p.finish(e)
}

/// Parses one JustQL statement.
pub fn parse(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql);
    let stmt = p.statement().and_then(|stmt| {
        p.eat_punct(";").ok();
        match p.cur {
            Some(_) => Err(p.err("trailing tokens after statement")),
            None => Ok(stmt),
        }
    });
    p.finish(stmt)
}

/// A recursive-descent parser over a [`Lexer`] with one token of
/// lookahead.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next token: `None` at the end of the input, and after a
    /// lexing error.
    cur: Option<Token>,
    /// The first lexing error.
    lex_err: Option<QlError>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        let mut p = Parser {
            lexer: Lexer::new(text),
            cur: None,
            lex_err: None,
        };
        p.pull();
        p
    }

    /// Fills the lookahead from the lexer.
    fn pull(&mut self) {
        self.cur = match self.lexer.next() {
            Some(Ok(token)) => Some(token),
            Some(Err(e)) => {
                self.lex_err = Some(e);
                None
            }
            None => None,
        };
    }

    /// The parse's outcome as tokenize-then-parse would give it: a
    /// lexing error anywhere in the text wins over any parse error, so a
    /// failed parse lexes the rest of the text to look for one.
    fn finish<T>(mut self, parsed: Result<T>) -> Result<T> {
        if parsed.is_err() {
            while self.cur.is_some() {
                self.pull();
            }
        }
        match self.lex_err {
            Some(e) => Err(e),
            None => parsed,
        }
    }

    fn err(&self, msg: &str) -> QlError {
        err_at(msg, self.cur.as_ref())
    }

    fn peek(&self) -> Option<&Token> {
        self.cur.as_ref()
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.cur.take();
        if t.is_some() {
            self.pull();
        }
        t
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_kw(kw)).unwrap_or(false)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {kw}")))
        }
    }

    fn peek_punct(&self, p: &str) -> bool {
        matches!(self.peek(), Some(Token::Punct(x)) if *x == p)
    }

    fn eat_punct(&mut self, p: &str) -> Result<()> {
        if self.peek_punct(p) {
            self.advance();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{p}'")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.cur.take() {
            Some(Token::Ident(s)) => {
                self.pull();
                Ok(s)
            }
            other => {
                self.cur = other;
                Err(self.err("expected identifier"))
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        match self.cur.take() {
            Some(Token::Str(s)) => {
                self.pull();
                Ok(s)
            }
            other => {
                self.cur = other;
                Err(self.err("expected string literal"))
            }
        }
    }

    fn region_index(&mut self) -> Result<usize> {
        match self.peek() {
            Some(&Token::Int(v)) if v >= 0 => {
                self.advance();
                Ok(v as usize)
            }
            _ => Err(self.err("expected region index")),
        }
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("create") {
            return self.create();
        }
        if self.eat_kw("drop") {
            let view = if self.eat_kw("view") {
                true
            } else {
                self.expect_kw("table")?;
                false
            };
            let name = self.ident()?;
            return Ok(Statement::Drop { view, name });
        }
        if self.eat_kw("show") {
            let target = if self.eat_kw("views") {
                ShowTarget::Views
            } else if self.eat_kw("tables") {
                ShowTarget::Tables
            } else if self.eat_kw("metrics") {
                ShowTarget::Metrics
            } else if self.eat_kw("queries") {
                ShowTarget::Queries
            } else if self.eat_kw("regions") {
                ShowTarget::Regions
            } else if self.eat_kw("events") {
                let limit = if self.eat_kw("limit") {
                    match self.advance() {
                        Some(Token::Int(v)) if v >= 0 => Some(v as usize),
                        _ => return Err(self.err("expected LIMIT count")),
                    }
                } else {
                    None
                };
                ShowTarget::Events { limit }
            } else {
                return Err(self.err("expected TABLES, VIEWS, METRICS, QUERIES, REGIONS or EVENTS"));
            };
            return Ok(Statement::Show { target });
        }
        if self.eat_kw("kill") {
            self.expect_kw("query")?;
            let id = match self.advance() {
                Some(Token::Int(v)) if v >= 0 => v as u64,
                _ => return Err(self.err("expected query id")),
            };
            return Ok(Statement::KillQuery { id });
        }
        if self.eat_kw("split") {
            self.expect_kw("region")?;
            let table = self.ident()?;
            let region = self.region_index()?;
            return Ok(Statement::SplitRegion { table, region });
        }
        if self.eat_kw("merge") {
            self.expect_kw("regions")?;
            let table = self.ident()?;
            let first = self.region_index()?;
            let second = self.region_index()?;
            if second != first + 1 {
                return Err(self.err("MERGE REGIONS takes two adjacent region indices"));
            }
            return Ok(Statement::MergeRegions {
                table,
                first,
                second,
            });
        }
        if self.eat_kw("desc") || self.eat_kw("describe") {
            // Optional TABLE/VIEW keyword.
            let _ = self.eat_kw("table") || self.eat_kw("view");
            let name = self.ident()?;
            return Ok(Statement::Desc { name });
        }
        if self.eat_kw("insert") {
            self.expect_kw("into")?;
            let table = self.ident()?;
            self.expect_kw("values")?;
            let mut rows = Vec::new();
            loop {
                self.eat_punct("(")?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.peek_punct(",") {
                        break;
                    }
                    self.eat_punct(",")?;
                }
                self.eat_punct(")")?;
                rows.push(row);
                if !self.peek_punct(",") {
                    break;
                }
                self.eat_punct(",")?;
            }
            return Ok(Statement::Insert { table, rows });
        }
        if self.eat_kw("load") {
            // LOAD csv:'path' TO [geomesa:]table CONFIG {...} [FILTER '...']
            let scheme = self.ident()?;
            self.eat_punct(":")?;
            let path = match self.advance() {
                Some(Token::Str(s)) => s,
                Some(Token::Ident(s)) => s,
                _ => return Err(self.err("expected source path")),
            };
            self.expect_kw("to")?;
            let mut table = self.ident()?;
            if self.peek_punct(":") {
                // `geomesa:tableName` — drop the scheme.
                self.eat_punct(":")?;
                table = self.ident()?;
            }
            self.expect_kw("config")?;
            let config = self.json()?;
            let filter = if self.eat_kw("filter") {
                Some(self.string()?)
            } else {
                None
            };
            return Ok(Statement::Load {
                source: format!("{scheme}:{path}"),
                table,
                config,
                filter,
            });
        }
        if self.eat_kw("store") {
            self.expect_kw("view")?;
            let view = self.ident()?;
            self.expect_kw("to")?;
            self.expect_kw("table")?;
            let table = self.ident()?;
            return Ok(Statement::StoreView { view, table });
        }
        if self.eat_kw("explain") {
            let analyze = self.eat_kw("analyze");
            if !self.peek_kw("select") {
                return Err(self.err("expected SELECT after EXPLAIN"));
            }
            let q = self.select()?;
            return Ok(Statement::Explain {
                analyze,
                query: Box::new(q),
            });
        }
        if self.peek_kw("select") {
            let q = self.select()?;
            return Ok(Statement::Query(Box::new(q)));
        }
        Err(self.err("expected a statement"))
    }

    fn create(&mut self) -> Result<Statement> {
        if self.eat_kw("view") {
            let name = self.ident()?;
            self.expect_kw("as")?;
            let query = self.select()?;
            return Ok(Statement::CreateView {
                name,
                query: Box::new(query),
            });
        }
        self.expect_kw("table")?;
        let name = self.ident()?;
        if self.eat_kw("as") {
            let plugin = self.ident()?;
            let userdata = self.opt_userdata()?;
            return Ok(Statement::CreatePluginTable {
                name,
                plugin,
                userdata,
            });
        }
        self.eat_punct("(")?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let type_name = self.ident()?;
            let mut options = Vec::new();
            while self.peek_punct(":") {
                self.eat_punct(":")?;
                let mut opt = self.ident()?;
                // `primary key` is two idents; `srid=4326` is ident=value.
                if opt.eq_ignore_ascii_case("primary") && self.eat_kw("key") {
                    opt = "primary key".to_string();
                } else if self.peek_punct("=") {
                    self.eat_punct("=")?;
                    let value = match self.advance() {
                        Some(Token::Ident(s)) => s,
                        Some(Token::Int(v)) => v.to_string(),
                        Some(Token::Str(s)) => s,
                        _ => return Err(self.err("expected option value")),
                    };
                    opt = format!("{opt}={value}");
                }
                options.push(opt);
            }
            columns.push(ColumnDef {
                name: col_name,
                type_name,
                options,
            });
            if !self.peek_punct(",") {
                break;
            }
            self.eat_punct(",")?;
        }
        self.eat_punct(")")?;
        let userdata = self.opt_userdata()?;
        Ok(Statement::CreateTable {
            name,
            columns,
            userdata,
        })
    }

    fn opt_userdata(&mut self) -> Result<Option<Json>> {
        if self.eat_kw("userdata") {
            Ok(Some(self.json()?))
        } else {
            Ok(None)
        }
    }

    fn json(&mut self) -> Result<Json> {
        self.eat_punct("{")?;
        let mut json = Json::new();
        if !self.peek_punct("}") {
            loop {
                let key = self.string()?;
                self.eat_punct(":")?;
                let value = match self.advance() {
                    Some(Token::Str(s)) => s,
                    Some(Token::Int(v)) => v.to_string(),
                    Some(Token::Float(v)) => v.to_string(),
                    Some(Token::Ident(s)) => s,
                    _ => return Err(self.err("expected hint value")),
                };
                json.set(key, value);
                if !self.peek_punct(",") {
                    break;
                }
                self.eat_punct(",")?;
            }
        }
        self.eat_punct("}")?;
        Ok(json)
    }

    // ------------------------------------------------------------------
    // SELECT
    // ------------------------------------------------------------------

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("select")?;
        let mut items = Vec::new();
        loop {
            let expr = self.expr()?;
            let alias = if self.eat_kw("as") {
                Some(self.ident()?)
            } else if let Some(Token::Ident(s)) = self.peek() {
                // Bare alias, unless it's a clause keyword.
                let lowered = s.to_ascii_lowercase();
                const CLAUSES: &[&str] = &[
                    "from", "where", "group", "order", "limit", "join", "on", "as",
                ];
                if CLAUSES.contains(&lowered.as_str()) {
                    None
                } else {
                    Some(self.ident()?)
                }
            } else {
                None
            };
            items.push(SelectItem { expr, alias });
            if !self.peek_punct(",") {
                break;
            }
            self.eat_punct(",")?;
        }
        let from = if self.eat_kw("from") {
            Some(self.parse_from_item()?)
        } else {
            None
        };
        let join = if self.eat_kw("join") {
            let right = self.parse_from_item()?;
            self.expect_kw("on")?;
            let on = self.expr()?;
            Some((right, on))
        } else {
            None
        };
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.peek_punct(",") {
                    break;
                }
                self.eat_punct(",")?;
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let e = self.expr()?;
                let asc = if self.eat_kw("desc") {
                    false
                } else {
                    self.eat_kw("asc");
                    true
                };
                order_by.push((e, asc));
                if !self.peek_punct(",") {
                    break;
                }
                self.eat_punct(",")?;
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.advance() {
                Some(Token::Int(v)) if v >= 0 => Some(v as usize),
                _ => return Err(self.err("expected LIMIT count")),
            }
        } else {
            None
        };
        Ok(Select {
            items,
            from,
            join,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn parse_from_item(&mut self) -> Result<FromItem> {
        if self.peek_punct("(") {
            self.eat_punct("(")?;
            let query = self.select()?;
            self.eat_punct(")")?;
            let alias = self.opt_alias()?;
            return Ok(FromItem::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.ident()?;
        let alias = self.opt_alias()?;
        Ok(FromItem::Table { name, alias })
    }

    fn opt_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("as") {
            return Ok(Some(self.ident()?));
        }
        if let Some(Token::Ident(s)) = self.peek() {
            let lowered = s.to_ascii_lowercase();
            const CLAUSES: &[&str] = &[
                "where", "group", "order", "limit", "join", "on", "select", "from",
            ];
            if !CLAUSES.contains(&lowered.as_str()) {
                return Ok(Some(self.ident()?));
            }
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            let e = self.not_expr()?;
            return Ok(Expr::Unary {
                not: true,
                expr: Box::new(e),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let lhs = self.additive()?;
        // BETWEEN ... AND ...
        if self.eat_kw("between") {
            let lo = self.additive()?;
            self.expect_kw("and")?;
            let hi = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
            });
        }
        // geom WITHIN mbr
        if self.eat_kw("within") {
            let rhs = self.additive()?;
            return Ok(Expr::Binary {
                op: BinOp::Within,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        // geom IN st_KNN(...)
        if self.eat_kw("in") {
            let func = self.additive()?;
            if !matches!(func, Expr::Func { .. }) {
                return Err(self.err("IN requires a generator function like st_KNN"));
            }
            return Ok(Expr::InFunc {
                expr: Box::new(lhs),
                func: Box::new(func),
            });
        }
        let op = match self.peek() {
            Some(Token::Punct("=")) => Some(BinOp::Eq),
            Some(Token::Punct("!=")) | Some(Token::Punct("<>")) => Some(BinOp::Ne),
            Some(Token::Punct("<")) => Some(BinOp::Lt),
            Some(Token::Punct("<=")) => Some(BinOp::Le),
            Some(Token::Punct(">")) => Some(BinOp::Gt),
            Some(Token::Punct(">=")) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let rhs = self.additive()?;
            return Ok(Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Punct("+")) => BinOp::Add,
                Some(Token::Punct("-")) => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.multiplicative()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Punct("*")) => BinOp::Mul,
                Some(Token::Punct("/")) => BinOp::Div,
                Some(Token::Punct("%")) => BinOp::Mod,
                _ => break,
            };
            self.advance();
            let rhs = self.unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.peek_punct("-") {
            self.advance();
            let e = self.unary()?;
            return Ok(Expr::Unary {
                not: false,
                expr: Box::new(e),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.advance() {
            Some(Token::Int(v)) => Ok(Expr::Literal(Value::Int(v))),
            Some(Token::Float(v)) => Ok(Expr::Literal(Value::Float(v))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Str(s))),
            Some(Token::Punct("*")) => Ok(Expr::Star),
            Some(Token::Punct("(")) => {
                let e = self.expr()?;
                self.eat_punct(")")?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                let lowered = name.to_ascii_lowercase();
                match lowered.as_str() {
                    "true" => return Ok(Expr::Literal(Value::Bool(true))),
                    "false" => return Ok(Expr::Literal(Value::Bool(false))),
                    "null" => return Ok(Expr::Literal(Value::Null)),
                    // Clause keywords can never be bare column references;
                    // catching them here turns `SELECT FROM` into a clean
                    // syntax error instead of a bogus column.
                    "select" | "from" | "where" | "group" | "order" | "limit" | "join" | "on"
                    | "by" | "values" | "insert" | "create" | "drop" | "between" | "within"
                    | "and" | "or" | "not" => {
                        return Err(err_at("expected expression", Some(&Token::Ident(name))));
                    }
                    _ => {}
                }
                if self.peek_punct("(") {
                    self.eat_punct("(")?;
                    let mut args = Vec::new();
                    if !self.peek_punct(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.peek_punct(",") {
                                break;
                            }
                            self.eat_punct(",")?;
                        }
                    }
                    self.eat_punct(")")?;
                    return Ok(Expr::Func {
                        name: lowered,
                        args,
                    });
                }
                if self.peek_punct(".") {
                    self.eat_punct(".")?;
                    if self.peek_punct("*") {
                        self.advance();
                        return Ok(Expr::Star);
                    }
                    let col = self.ident()?;
                    return Ok(Expr::Column(format!("{name}.{col}")));
                }
                Ok(Expr::Column(name))
            }
            other => Err(QlError::Parse(format!(
                "expected expression, found {}",
                other
                    .map(|t| t.describe())
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }
}

/// A parse error located at `token` (the end of the input when `None`).
fn err_at(msg: &str, token: Option<&Token>) -> QlError {
    let at = token
        .map(|t| t.describe())
        .unwrap_or_else(|| "end of input".to_string());
    QlError::Parse(format!("{msg} (at {at})"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    #[test]
    fn parse_create_table_paper_example() {
        let sql = "CREATE TABLE t (
            fid integer:primary key,
            name string,
            time date,
            geom point:srid=4326,
            gpsList st_series:compress=gzip
        ) USERDATA {'geomesa.indices.enabled':'z3'}";
        match parse(sql).unwrap() {
            Statement::CreateTable {
                name,
                columns,
                userdata,
            } => {
                assert_eq!(name, "t");
                assert_eq!(columns.len(), 5);
                assert_eq!(columns[0].options, vec!["primary key"]);
                assert_eq!(columns[3].options, vec!["srid=4326"]);
                assert_eq!(columns[4].options, vec!["compress=gzip"]);
                assert_eq!(userdata.unwrap().get("geomesa.indices.enabled"), Some("z3"));
            }
            other => panic!("wrong statement {other:?}"),
        }
    }

    #[test]
    fn parse_plugin_table() {
        match parse("CREATE TABLE tr AS trajectory").unwrap() {
            Statement::CreatePluginTable { name, plugin, .. } => {
                assert_eq!(name, "tr");
                assert_eq!(plugin, "trajectory");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_paper_select() {
        let sql = "SELECT name, geom FROM (SELECT * FROM t1) t \
                   WHERE fid=52*9 AND geom WITHIN st_makeMBR(1, 2, 3, 4) \
                   ORDER BY time";
        match parse(sql).unwrap() {
            Statement::Query(q) => {
                assert_eq!(q.items.len(), 2);
                assert!(matches!(q.from, Some(FromItem::Subquery { .. })));
                assert!(q.where_clause.is_some());
                assert_eq!(q.order_by.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_st_range_query() {
        let sql = "SELECT fid FROM t WHERE geom WITHIN st_makeMBR(1,2,3,4) \
                   AND time BETWEEN 100 AND 200";
        match parse(sql).unwrap() {
            Statement::Query(q) => {
                let w = q.where_clause.unwrap();
                match w {
                    Expr::Binary {
                        op: BinOp::And,
                        lhs,
                        rhs,
                    } => {
                        assert!(matches!(
                            *lhs,
                            Expr::Binary {
                                op: BinOp::Within,
                                ..
                            }
                        ));
                        assert!(matches!(*rhs, Expr::Between { .. }));
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_knn_query() {
        let sql = "SELECT fid FROM t WHERE geom IN st_KNN(st_makePoint(116.4, 39.9), 50)";
        match parse(sql).unwrap() {
            Statement::Query(q) => {
                assert!(matches!(q.where_clause, Some(Expr::InFunc { .. })));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_insert_multi_row() {
        let sql = "INSERT INTO t VALUES (1, 'a', st_makePoint(1,2)), (2, 'b', null)";
        match parse(sql).unwrap() {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].len(), 3);
                assert_eq!(rows[1][2], Expr::Literal(Value::Null));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_group_order_limit() {
        let sql = "SELECT name, count(*) AS n FROM t GROUP BY name \
                   ORDER BY n DESC, name LIMIT 10";
        match parse(sql).unwrap() {
            Statement::Query(q) => {
                assert_eq!(q.group_by.len(), 1);
                assert_eq!(q.order_by.len(), 2);
                assert!(!q.order_by[0].1, "first key is DESC");
                assert!(q.order_by[1].1);
                assert_eq!(q.limit, Some(10));
                assert_eq!(q.items[1].alias.as_deref(), Some("n"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_join() {
        let sql = "SELECT a.x, b.y FROM ta a JOIN tb b ON a.k = b.k";
        match parse(sql).unwrap() {
            Statement::Query(q) => {
                assert!(q.join.is_some());
                let (item, on) = q.join.unwrap();
                assert!(
                    matches!(item, FromItem::Table { ref alias, .. } if alias.as_deref() == Some("b"))
                );
                assert!(matches!(on, Expr::Binary { op: BinOp::Eq, .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_load() {
        let sql = "LOAD csv:'/data/orders.csv' TO geomesa:orders CONFIG {
            'fid': 'to_int(id)',
            'geom': 'lng_lat_to_point(lng, lat)'
        } FILTER 'city = ''beijing'''";
        match parse(sql).unwrap() {
            Statement::Load {
                source,
                table,
                config,
                filter,
            } => {
                assert_eq!(source, "csv:/data/orders.csv");
                assert_eq!(table, "orders");
                assert_eq!(config.get("fid"), Some("to_int(id)"));
                assert_eq!(filter.as_deref(), Some("city = 'beijing'"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_misc_statements() {
        assert!(matches!(
            parse("SHOW TABLES").unwrap(),
            Statement::Show {
                target: ShowTarget::Tables
            }
        ));
        assert!(matches!(
            parse("SHOW VIEWS").unwrap(),
            Statement::Show {
                target: ShowTarget::Views
            }
        ));
        assert!(matches!(
            parse("DROP VIEW v").unwrap(),
            Statement::Drop { view: true, .. }
        ));
        assert!(matches!(
            parse("DESC TABLE t").unwrap(),
            Statement::Desc { .. }
        ));
        assert!(matches!(
            parse("STORE VIEW v TO TABLE t").unwrap(),
            Statement::StoreView { .. }
        ));
        assert!(matches!(
            parse("CREATE VIEW v AS SELECT 1").unwrap(),
            Statement::CreateView { .. }
        ));
    }

    #[test]
    fn parse_observability_statements() {
        assert!(matches!(
            parse("SHOW METRICS").unwrap(),
            Statement::Show {
                target: ShowTarget::Metrics
            }
        ));
        assert!(matches!(
            parse("show queries;").unwrap(),
            Statement::Show {
                target: ShowTarget::Queries
            }
        ));
        assert!(matches!(
            parse("SHOW REGIONS").unwrap(),
            Statement::Show {
                target: ShowTarget::Regions
            }
        ));
        assert!(matches!(
            parse("SHOW EVENTS").unwrap(),
            Statement::Show {
                target: ShowTarget::Events { limit: None }
            }
        ));
        assert!(matches!(
            parse("SHOW EVENTS LIMIT 25").unwrap(),
            Statement::Show {
                target: ShowTarget::Events { limit: Some(25) }
            }
        ));
        assert!(matches!(
            parse("KILL QUERY 42").unwrap(),
            Statement::KillQuery { id: 42 }
        ));
        assert!(parse("SHOW NONSENSE").is_err());
        assert!(parse("SHOW EVENTS LIMIT").is_err());
        assert!(parse("KILL QUERY").is_err());
        assert!(parse("KILL 7").is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("CREATE TABLE").is_err());
        assert!(parse("SELECT 1 extra garbage, ,").is_err());
        assert!(parse("INSERT INTO t VALUES 1, 2").is_err());
        assert!(parse("SELECT a WHERE geom IN 5").is_err());
    }

    #[test]
    fn operator_precedence() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        match parse("SELECT 1 + 2 * 3").unwrap() {
            Statement::Query(q) => match &q.items[0].expr {
                Expr::Binary {
                    op: BinOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_lexing_error_anywhere_wins_over_an_earlier_parse_error() {
        let lex = |r: Result<_>| matches!(r, Err(QlError::Lex(_)));
        // The parse fails at FROM; the string is unterminated far after.
        assert!(lex(parse("SELECT FROM t WHERE name = 'open")));
        assert!(lex(parse("SELEKT 1 2 3 @")));
        // A statement that parses whole, then trailing text that does not
        // lex.
        assert!(lex(parse("SELECT 1 #")));
        assert!(lex(parse("INSERT INTO t VALUES (1, 2) garbage 1e")));
        assert!(matches!(
            parse_expr("1 + + 9999999999999999999999"),
            Err(QlError::Lex(_))
        ));
        // Without a lexing error the parse error stands, located where
        // the tokens stop fitting.
        match parse("SELECT FROM t") {
            Err(QlError::Parse(m)) => assert_eq!(m, "expected expression (at identifier 'FROM')"),
            other => panic!("{other:?}"),
        }
        match parse("SHOW EVENTS LIMIT x") {
            Err(QlError::Parse(m)) => assert_eq!(m, "expected LIMIT count (at end of input)"),
            other => panic!("{other:?}"),
        }
        match parse("SPLIT REGION t x") {
            Err(QlError::Parse(m)) => assert_eq!(m, "expected region index (at identifier 'x')"),
            other => panic!("{other:?}"),
        }
    }

    /// Statements covering the grammar, and an INSERT shaped like the
    /// benchmark's 1 000-row batches.
    fn corpus() -> Vec<String> {
        let mut golden: Vec<String> = [
            "CREATE TABLE orders (fid integer:primary key, time date, geom point:srid=4326, \
             amount float, district integer) USERDATA {'geomesa.indices.enabled': 'z2t'}",
            "CREATE VIEW v AS SELECT fid, amount * 2 AS a FROM orders WHERE amount > 1.5e2",
            "CREATE TABLE r AS trajectory USERDATA {'k': 3}",
            "SELECT o.district, count(*) AS n, sum(o.amount) FROM orders o JOIN districts d \
             ON o.district = d.fid WHERE o.geom WITHIN st_makeMBR(116.0, 39.0, 117.0, 40.0) \
             AND o.time BETWEEN 1000 AND 2000 GROUP BY o.district ORDER BY n DESC LIMIT 10",
            "SELECT * FROM (SELECT fid FROM t) s WHERE NOT fid <> -3 OR fid % 2 = 0;",
            "SELECT fid FROM orders WHERE geom IN st_KNN(st_makePoint(116.4, 39.9), 5) -- knn",
            "EXPLAIN ANALYZE SELECT name FROM districts WHERE name = 'it''s'",
            "LOAD csv:'/data/x.csv' TO geomesa:t CONFIG {'fid': 'to_int($1)'} FILTER 'fid > 3'",
            "INSERT INTO routes VALUES (1, 5, st_geomFromText('LINESTRING(1 2, 3 4)'), 2.5)",
            "SHOW EVENTS LIMIT 25",
            "SPLIT REGION orders 0",
            "MERGE REGIONS orders 1 2",
            "KILL QUERY 42",
            "DESC TABLE orders",
            "STORE VIEW v TO TABLE t2",
            "DROP VIEW v",
        ]
        .map(String::from)
        .to_vec();
        let rows: Vec<String> = (0..1000)
            .map(|fid| {
                let (x, y) = (116.0 + fid as f64 * 1e-3, 39.5 + fid as f64 * 7e-4);
                format!(
                    "({fid}, {}, st_makePoint({x}, {y}), {}.25, {})",
                    1000 + fid,
                    fid % 97,
                    fid % 16
                )
            })
            .collect();
        golden.push(format!("INSERT INTO orders VALUES {}", rows.join(", ")));
        golden
    }

    /// One seeded edit of ASCII text: a character replaced, a span
    /// deleted or repeated, a fragment inserted, or a truncation.
    fn mutate(rng: &mut just_obs::Rng, text: &str) -> String {
        const FRAGMENTS: &[&str] = &[
            "'",
            "''",
            "--",
            "(",
            ")",
            ",",
            ";",
            "1e",
            ".",
            "9e999",
            "99999999999999999999",
            "SELECT",
            "FROM",
            "@",
            "::",
            "{",
            "}",
            "st_KNN(",
            "POINT (",
            "EMPTY",
            "-",
        ];
        let mut t = text.as_bytes().to_vec();
        let n = t.len();
        if n == 0 {
            return FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())].to_string();
        }
        let at = rng.gen_range(0..n);
        match rng.gen_range(0u32..5) {
            0 => t[at] = rng.gen_range(0x20u32..0x7f) as u8,
            1 => {
                t.drain(at..(at + rng.gen_range(1usize..16)).min(n));
            }
            2 => {
                let span = t[at..(at + rng.gen_range(1usize..32)).min(n)].to_vec();
                t.splice(at..at, span);
            }
            3 => {
                let fragment = FRAGMENTS[rng.gen_range(0..FRAGMENTS.len())];
                t.splice(at..at, fragment.bytes());
            }
            _ => t.truncate(at),
        }
        String::from_utf8(t).expect("ASCII edits of ASCII text")
    }

    #[test]
    fn seeded_mutations_parse_or_fail_typed_never_panic() {
        let corpus = corpus();
        let wkts = [
            "POINT (116.4 39.9)",
            "LINESTRING (1 2, 3 4, 5.5 -6e1)",
            "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 1))",
        ];
        let mut rng = just_obs::Rng::seed_from_u64(0x6a75_7374_716c);
        let (mut parsed, mut lexing) = (0, 0);
        for round in 0..5000 {
            // The long INSERT one round in twenty.
            let golden = if round % 20 == 0 {
                &corpus[corpus.len() - 1]
            } else {
                &corpus[rng.gen_range(0..corpus.len() - 1)]
            };
            let mut text = mutate(&mut rng, golden);
            if rng.gen_bool(0.3) {
                text = mutate(&mut rng, &text);
            }
            let result = parse(&text);
            // Tokenize-then-parse: a text that does not lex fails with
            // exactly the lexing error, whatever the parse found first.
            match (&result, tokenize(&text)) {
                (Err(QlError::Lex(got)), Err(QlError::Lex(want))) => {
                    assert_eq!(got, &want, "{text}");
                    lexing += 1;
                }
                (Err(QlError::Parse(_)), Ok(_)) => {}
                (Ok(_), Ok(_)) => parsed += 1,
                (got, want) => panic!("{text}: parse gave {got:?}, tokenize {want:?}"),
            }
            let _ = parse_expr(&text[text.len() / 2..]);
            let wkt = mutate(&mut rng, wkts[round % wkts.len()]);
            let _ = just_geo::parse_wkt(&wkt);
        }
        // Both outcomes are exercised, not only the failures.
        assert!(
            parsed > 250 && lexing > 250,
            "{parsed} parsed, {lexing} lexing errors"
        );
    }
}
