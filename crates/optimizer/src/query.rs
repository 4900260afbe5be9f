//! Bound (analyzed) query representation: the planner's view of a SELECT
//! after names are resolved against the catalog.

use parinda_catalog::{Datum, TableId};
use parinda_sql::ast::AggFunc;

/// A column slot: (range-table position, column position in that table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Slot {
    /// Index into [`BoundQuery::rels`].
    pub rel: usize,
    /// Column index within the rel's table.
    pub col: usize,
}

/// One base relation of the FROM list ("range table entry").
#[derive(Debug, Clone, PartialEq)]
pub struct BaseRel {
    /// Name the query uses for this rel (alias or table name).
    pub binding: String,
    /// Underlying catalog table.
    pub table: TableId,
    /// Columns of the table this query touches anywhere, sorted.
    pub needed_columns: Vec<usize>,
}

/// Expression with column references resolved to [`Slot`]s.
///
/// Mirrors `parinda_sql::Expr` minus the parts binding eliminates.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    Column(Slot),
    Literal(Datum),
    Binary {
        op: parinda_sql::BinOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    Not(Box<BoundExpr>),
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: String,
        negated: bool,
    },
}

impl BoundExpr {
    /// The set of rels referenced by this expression (as a bitmask).
    pub fn rel_mask(&self) -> u64 {
        let mut mask = 0u64;
        self.visit_slots(&mut |s| mask |= 1 << s.rel);
        mask
    }

    /// Visit every column slot.
    pub fn visit_slots<F: FnMut(Slot)>(&self, f: &mut F) {
        match self {
            BoundExpr::Column(s) => f(*s),
            BoundExpr::Literal(_) => {}
            BoundExpr::Binary { left, right, .. } => {
                left.visit_slots(f);
                right.visit_slots(f);
            }
            BoundExpr::Not(e) => e.visit_slots(f),
            BoundExpr::Between { expr, low, high, .. } => {
                expr.visit_slots(f);
                low.visit_slots(f);
                high.visit_slots(f);
            }
            BoundExpr::InList { expr, list, .. } => {
                expr.visit_slots(f);
                for e in list {
                    e.visit_slots(f);
                }
            }
            BoundExpr::IsNull { expr, .. } => expr.visit_slots(f),
            BoundExpr::Like { expr, .. } => expr.visit_slots(f),
        }
    }

    /// If this is `slot op literal` (or the commuted form), normalize to
    /// (slot, op, literal). Used by restriction analysis.
    pub fn as_column_op_literal(&self) -> Option<(Slot, parinda_sql::BinOp, &Datum)> {
        let BoundExpr::Binary { op, left, right } = self else { return None };
        if !op.is_comparison() {
            return None;
        }
        match (left.as_ref(), right.as_ref()) {
            (BoundExpr::Column(s), BoundExpr::Literal(d)) => Some((*s, *op, d)),
            (BoundExpr::Literal(d), BoundExpr::Column(s)) => {
                op.commute().map(|o| (*s, o, d))
            }
            _ => None,
        }
    }
}

/// A single-relation restriction clause with its pre-analyzed shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Restriction {
    /// Rel this clause restricts.
    pub rel: usize,
    /// The full predicate, for execution and EXPLAIN.
    pub expr: BoundExpr,
    /// Shape recognized by the selectivity estimator.
    pub shape: RestrictionShape,
}

/// Recognized predicate shapes (what the selectivity module understands).
#[derive(Debug, Clone, PartialEq)]
pub enum RestrictionShape {
    /// `col = literal`
    Eq { col: usize, value: Datum },
    /// `col <,<=,>,>= literal` — op is the original comparison.
    Range { col: usize, op: parinda_sql::BinOp, value: Datum },
    /// `col BETWEEN low AND high`
    Between { col: usize, low: Datum, high: Datum, negated: bool },
    /// `col IN (v1 … vn)`
    InList { col: usize, values: Vec<Datum>, negated: bool },
    /// `col IS [NOT] NULL`
    IsNull { col: usize, negated: bool },
    /// `col LIKE pattern`
    Like { col: usize, prefix: Option<String>, negated: bool },
    /// Anything else (OR trees, expressions over several columns, …).
    Opaque,
}

impl RestrictionShape {
    /// The restricted column for index matching, when the shape names one.
    pub fn column(&self) -> Option<usize> {
        match self {
            RestrictionShape::Eq { col, .. }
            | RestrictionShape::Range { col, .. }
            | RestrictionShape::Between { col, .. }
            | RestrictionShape::InList { col, .. }
            | RestrictionShape::IsNull { col, .. }
            | RestrictionShape::Like { col, .. } => Some(*col),
            RestrictionShape::Opaque => None,
        }
    }

    /// True when the shape pins the column to a single value (usable as an
    /// index equality prefix).
    pub fn is_equality(&self) -> bool {
        matches!(self, RestrictionShape::Eq { .. })
    }

    /// True when the shape bounds the column (usable as the range tail of
    /// an index condition).
    pub fn is_range(&self) -> bool {
        matches!(
            self,
            RestrictionShape::Range { .. } | RestrictionShape::Between { negated: false, .. }
        )
    }
}

/// An equijoin edge between two rels.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPred {
    pub left: Slot,
    pub right: Slot,
    /// Original predicate (for execution / EXPLAIN).
    pub expr: BoundExpr,
}

impl JoinPred {
    /// Bitmask of the two joined rels.
    pub fn rel_mask(&self) -> u64 {
        (1 << self.left.rel) | (1 << self.right.rel)
    }
}

/// An output expression of the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputItem {
    pub expr: BoundOutput,
    pub name: String,
}

/// SELECT-list expression: scalar or aggregate.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundOutput {
    Scalar(BoundExpr),
    Agg {
        func: AggFunc,
        /// `None` = `COUNT(*)`.
        arg: Option<BoundExpr>,
        distinct: bool,
    },
}

impl BoundOutput {
    /// Is this an aggregate?
    pub fn is_agg(&self) -> bool {
        matches!(self, BoundOutput::Agg { .. })
    }
}

/// ORDER BY key over a column slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub slot: Slot,
    pub desc: bool,
}

/// The planner's input: a fully-bound query.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundQuery {
    pub rels: Vec<BaseRel>,
    pub restrictions: Vec<Restriction>,
    pub joins: Vec<JoinPred>,
    /// Join-filter predicates that reference ≥ 2 rels but are not simple
    /// equijoins (applied at the join that first covers their rels).
    pub join_filters: Vec<BoundExpr>,
    pub output: Vec<OutputItem>,
    pub group_by: Vec<Slot>,
    pub order_by: Vec<SortKey>,
    pub limit: Option<u64>,
    pub distinct: bool,
}

impl BoundQuery {
    /// Does the query aggregate (GROUP BY or aggregate outputs)?
    pub fn has_aggregation(&self) -> bool {
        !self.group_by.is_empty() || self.output.iter().any(|o| o.expr.is_agg())
    }

    /// All restrictions on one rel.
    pub fn restrictions_on(&self, rel: usize) -> Vec<&Restriction> {
        self.restrictions.iter().filter(|r| r.rel == rel).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parinda_sql::BinOp;

    fn slot(rel: usize, col: usize) -> Slot {
        Slot { rel, col }
    }

    #[test]
    fn rel_mask_collects_all_rels() {
        let e = BoundExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(BoundExpr::Column(slot(0, 1))),
            right: Box::new(BoundExpr::Column(slot(2, 0))),
        };
        assert_eq!(e.rel_mask(), 0b101);
    }

    #[test]
    fn column_op_literal_normalizes_commuted_form() {
        let e = BoundExpr::Binary {
            op: BinOp::Lt,
            left: Box::new(BoundExpr::Literal(Datum::Int(5))),
            right: Box::new(BoundExpr::Column(slot(0, 3))),
        };
        let (s, op, d) = e.as_column_op_literal().unwrap();
        assert_eq!(s, slot(0, 3));
        assert_eq!(op, BinOp::Gt);
        assert_eq!(d, &Datum::Int(5));
    }

    #[test]
    fn non_comparison_is_not_col_op_literal() {
        let e = BoundExpr::Binary {
            op: BinOp::Add,
            left: Box::new(BoundExpr::Column(slot(0, 0))),
            right: Box::new(BoundExpr::Literal(Datum::Int(1))),
        };
        assert!(e.as_column_op_literal().is_none());
    }

    #[test]
    fn shape_classification_helpers() {
        let eq = RestrictionShape::Eq { col: 2, value: Datum::Int(1) };
        assert!(eq.is_equality());
        assert_eq!(eq.column(), Some(2));
        let rng = RestrictionShape::Range { col: 1, op: BinOp::Lt, value: Datum::Int(9) };
        assert!(rng.is_range());
        assert!(!rng.is_equality());
        assert_eq!(RestrictionShape::Opaque.column(), None);
    }

    #[test]
    fn join_pred_mask() {
        let jp = JoinPred {
            left: slot(0, 0),
            right: slot(3, 1),
            expr: BoundExpr::Literal(Datum::Bool(true)),
        };
        assert_eq!(jp.rel_mask(), 0b1001);
    }
}
