//! The JustQL abstract syntax tree.

use crate::json::Json;
use just_storage::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `geom WITHIN mbr` (spatial containment)
    Within,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference (possibly `alias.column`; the qualifier is kept
    /// for joins).
    Column(String),
    /// A literal value.
    Literal(Value),
    /// `*` (only valid inside `count(*)` and `SELECT *`).
    Star,
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary negation / NOT.
    Unary {
        /// `true` for `NOT`, `false` for arithmetic `-`.
        not: bool,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Function call `name(args...)`.
    Func {
        /// Lower-cased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `expr BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
    },
    /// `expr IN func(...)` — only used for the paper's
    /// `geom IN st_KNN(...)` form.
    InFunc {
        /// Tested expression (the geometry column).
        expr: Box<Expr>,
        /// The generator call (st_KNN).
        func: Box<Expr>,
    },
}

impl Expr {
    /// Column names referenced anywhere in the expression.
    pub(crate) fn columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c.clone());
            }
        });
        out
    }

    /// Depth-first visitor.
    pub(crate) fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Binary { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Between { expr, lo, hi } => {
                expr.walk(f);
                lo.walk(f);
                hi.walk(f);
            }
            Expr::InFunc { expr, func } => {
                expr.walk(f);
                func.walk(f);
            }
            Expr::Column(_) | Expr::Literal(_) | Expr::Star => {}
        }
    }

    /// Whether the expression references no columns (foldable).
    pub(crate) fn is_constant(&self) -> bool {
        let mut constant = true;
        self.walk(&mut |e| {
            if matches!(e, Expr::Column(_) | Expr::Star) {
                constant = false;
            }
        });
        constant
    }
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression (`Expr::Star` for `*`).
    pub expr: Expr,
    /// Optional `AS` alias.
    pub alias: Option<String>,
}

/// A FROM source.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// A named table or view, with optional alias.
    Table {
        /// Table / view name.
        name: String,
        /// Optional alias.
        alias: Option<String>,
    },
    /// A parenthesised subquery with optional alias.
    Subquery {
        /// The inner query.
        query: Box<Select>,
        /// Optional alias.
        alias: Option<String>,
    },
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Projections.
    pub items: Vec<SelectItem>,
    /// FROM source (optional: `SELECT 1+1`).
    pub from: Option<FromItem>,
    /// Optional `JOIN <from> ON <expr>` (inner join).
    pub join: Option<(FromItem, Expr)>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY keys.
    pub group_by: Vec<Expr>,
    /// ORDER BY keys with ascending flags.
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT.
    pub limit: Option<usize>,
}

/// A column definition in `CREATE TABLE`, e.g.
/// `geom point:srid=4326` or `gpsList st_series:compress=gzip`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Type name (resolved by the analyzer).
    pub type_name: String,
    /// `:`-separated options (`primary key`, `srid=...`, `compress=...`).
    pub options: Vec<String>,
}

/// What a `SHOW` statement lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShowTarget {
    /// `SHOW TABLES` — this session's tables.
    Tables,
    /// `SHOW VIEWS` — this session's views.
    Views,
    /// `SHOW METRICS` — the process-wide `just-obs` registry as rows.
    Metrics,
    /// `SHOW QUERIES` — the live query registry with per-query IO.
    Queries,
    /// `SHOW REGIONS` — per-region traffic/size stats for this
    /// session's tables.
    Regions,
    /// `SHOW EVENTS [LIMIT n]` — newest-first ring-buffer events.
    Events {
        /// Maximum events to return (defaults to 100).
        limit: Option<usize>,
    },
}

/// A complete JustQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (cols...) [USERDATA {...}]`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// Optional GeoMesa-style hints.
        userdata: Option<Json>,
    },
    /// `CREATE TABLE name AS plugin [USERDATA {...}]`
    CreatePluginTable {
        /// Table name.
        name: String,
        /// Plugin name, e.g. `trajectory`.
        plugin: String,
        /// Optional hints.
        userdata: Option<Json>,
    },
    /// `CREATE VIEW name AS SELECT ...`
    CreateView {
        /// View name.
        name: String,
        /// Defining query.
        query: Box<Select>,
    },
    /// `DROP TABLE name` / `DROP VIEW name`
    Drop {
        /// True for views.
        view: bool,
        /// Object name.
        name: String,
    },
    /// `SHOW <target>` — catalog listings and the live-introspection
    /// surface (`SHOW METRICS|QUERIES|REGIONS|EVENTS`).
    Show {
        /// What to list.
        target: ShowTarget,
    },
    /// `KILL QUERY <id>` — request cancellation of a live query.
    KillQuery {
        /// The query id as reported by `SHOW QUERIES`.
        id: u64,
    },
    /// `SPLIT REGION <table> <region>` — online split of one region of
    /// this session's table (indices as reported by `SHOW REGIONS`).
    SplitRegion {
        /// Table name.
        table: String,
        /// Region index to split.
        region: usize,
    },
    /// `MERGE REGIONS <table> <first> <second>` — merge two adjacent
    /// regions (`second` must be `first + 1`) back into one.
    MergeRegions {
        /// Table name.
        table: String,
        /// First (left) region index.
        first: usize,
        /// Second (right) region index; must equal `first + 1`.
        second: usize,
    },
    /// `DESC TABLE name` / `DESC VIEW name`
    Desc {
        /// Object name.
        name: String,
    },
    /// `INSERT INTO name VALUES (...), (...)`
    Insert {
        /// Target table.
        table: String,
        /// Row expressions.
        rows: Vec<Vec<Expr>>,
    },
    /// `LOAD csv:'path' TO table CONFIG {...} [FILTER '...']`
    Load {
        /// Source spec, e.g. `csv:'/data/x.csv'`.
        source: String,
        /// Target table.
        table: String,
        /// Field-mapping expressions.
        config: Json,
        /// Optional SQL filter over source columns.
        filter: Option<String>,
    },
    /// `STORE VIEW v TO TABLE t`
    StoreView {
        /// Source view.
        view: String,
        /// Target table.
        table: String,
    },
    /// A SELECT query.
    Query(Box<Select>),
    /// `EXPLAIN [ANALYZE] SELECT ...`
    Explain {
        /// True for `EXPLAIN ANALYZE`: execute the query and annotate
        /// each operator with measured time, rows and kvstore IO.
        analyze: bool,
        /// The explained query.
        query: Box<Select>,
    },
}
