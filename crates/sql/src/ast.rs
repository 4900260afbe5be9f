//! Abstract syntax tree for the SELECT subset PARINDA workloads use.
//!
//! Explicit `JOIN ... ON` clauses are normalized by the parser into the
//! comma-separated `FROM` list plus `WHERE` conjuncts (inner joins only),
//! matching how the SDSS workload is written and simplifying the planner's
//! query-graph extraction.

use parinda_catalog::Datum;

/// A literal constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
}

impl Literal {
    /// Convert to a runtime [`Datum`].
    pub fn to_datum(&self) -> Datum {
        match self {
            Literal::Null => Datum::Null,
            Literal::Bool(b) => Datum::Bool(*b),
            Literal::Int(i) => Datum::Int(*i),
            Literal::Float(f) => Datum::Float(*f),
            Literal::Str(s) => Datum::Str(s.clone()),
        }
    }
}

/// A possibly-qualified column reference (`t.ra` or `ra`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table name or alias, if qualified.
    pub table: Option<String>,
    /// Column name (lower-cased by the lexer).
    pub column: String,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef { table: None, column: column.into() }
    }

    /// Qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef { table: Some(table.into()), column: column.into() }
    }
}

/// Binary operators, in the precedence groups the parser uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    And,
    Or,
}

impl BinOp {
    /// Is this a comparison operator (yields boolean)?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// Mirror of the comparison when operands are swapped (`a < b` ⇔ `b > a`).
    pub fn commute(self) -> Option<BinOp> {
        Some(match self {
            BinOp::Eq => BinOp::Eq,
            BinOp::NotEq => BinOp::NotEq,
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            _ => return None,
        })
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// Scalar or boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column(ColumnRef),
    Literal(Literal),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    /// `expr [NOT] BETWEEN low AND high`
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, …)`
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr IS [NOT] NULL`
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] LIKE 'pattern'`
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    /// Aggregate call; `arg = None` encodes `COUNT(*)`.
    Agg {
        func: AggFunc,
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
}

impl Expr {
    /// Shorthand for a binary expression.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(left), right: Box::new(right) }
    }

    /// `a AND b`, skipping trivial sides.
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::And, left, right)
    }

    /// Split a conjunction into its top-level conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary { op: BinOp::And, left, right } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Rebuild a conjunction from conjuncts; `None` when empty.
    pub fn conjoin(mut exprs: Vec<Expr>) -> Option<Expr> {
        let first = if exprs.is_empty() { return None } else { exprs.remove(0) };
        Some(exprs.into_iter().fold(first, Expr::and))
    }

    /// All column references mentioned anywhere in the expression.
    pub fn column_refs(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.visit_columns(&mut |c| out.push(c));
        out
    }

    /// Visit every column reference.
    pub fn visit_columns<'a, F: FnMut(&'a ColumnRef)>(&'a self, f: &mut F) {
        match self {
            Expr::Column(c) => f(c),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.visit_columns(f);
                right.visit_columns(f);
            }
            Expr::Not(e) => e.visit_columns(f),
            Expr::Between { expr, low, high, .. } => {
                expr.visit_columns(f);
                low.visit_columns(f);
                high.visit_columns(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.visit_columns(f);
                for e in list {
                    e.visit_columns(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.visit_columns(f),
            Expr::Like { expr, .. } => expr.visit_columns(f),
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.visit_columns(f);
                }
            }
        }
    }

    /// Does the expression contain an aggregate call?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Column(_) | Expr::Literal(_) => false,
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Not(e) => e.contains_aggregate(),
            Expr::Between { expr, low, high, .. } => {
                expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(|e| e.contains_aggregate())
            }
            Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => expr.contains_aggregate(),
        }
    }
}

/// One item of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr { expr: Expr, alias: Option<String> },
}

/// A table in the FROM list with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is referred to by in the rest of the query.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub desc: bool,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(name: &str) -> Expr {
        Expr::Column(ColumnRef::bare(name))
    }

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::and(Expr::and(col("a"), col("b")), col("c"));
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn conjoin_round_trips() {
        let parts = vec![col("a"), col("b"), col("c")];
        let e = Expr::conjoin(parts).unwrap();
        assert_eq!(e.conjuncts().len(), 3);
        assert!(Expr::conjoin(vec![]).is_none());
    }

    #[test]
    fn or_is_a_single_conjunct() {
        let e = Expr::binary(BinOp::Or, col("a"), col("b"));
        assert_eq!(e.conjuncts().len(), 1);
    }

    #[test]
    fn column_refs_are_collected() {
        let e = Expr::Between {
            expr: Box::new(col("ra")),
            low: Box::new(Expr::Literal(Literal::Int(1))),
            high: Box::new(col("dec")),
            negated: false,
        };
        let refs = e.column_refs();
        assert_eq!(refs.len(), 2);
    }

    #[test]
    fn commute_flips_inequalities() {
        assert_eq!(BinOp::Lt.commute(), Some(BinOp::Gt));
        assert_eq!(BinOp::Eq.commute(), Some(BinOp::Eq));
        assert_eq!(BinOp::Add.commute(), None);
    }

    #[test]
    fn contains_aggregate_walks_tree() {
        let agg = Expr::Agg { func: AggFunc::Count, arg: None, distinct: false };
        let e = Expr::binary(BinOp::Add, agg, Expr::Literal(Literal::Int(1)));
        assert!(e.contains_aggregate());
        assert!(!col("x").contains_aggregate());
    }

    #[test]
    fn table_ref_binding_prefers_alias() {
        let t = TableRef { name: "photoobj".into(), alias: Some("p".into()) };
        assert_eq!(t.binding(), "p");
        let t2 = TableRef { name: "photoobj".into(), alias: None };
        assert_eq!(t2.binding(), "photoobj");
    }
}
