//! Automatic query rewriting for partitioned schemas (paper §3.3: "An
//! automatic query rewriter is used to rewrite the original workload for
//! the composite fragments").
//!
//! A table reference whose table is partitioned is replaced by the minimal
//! set of fragments covering the columns the query uses; fragments are
//! joined on the primary key. The first fragment inherits the original
//! binding name so the rewrite stays local, and every column reference is
//! re-qualified to the fragment that stores it.

use std::collections::{BTreeSet, HashMap};

use parinda_catalog::{MetadataProvider, TableId};
use parinda_sql::ast::{ColumnRef, Expr, Select, SelectItem, TableRef};
use parinda_sql::BinOp;

use crate::fragments::Fragment;

/// A named fragment of a named table — the rewriter/evaluator currency.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedFragment {
    /// Simulated partition table name.
    pub name: String,
    /// The fragment (table id + columns).
    pub fragment: Fragment,
}

/// A partitioning design: named fragments, possibly for several tables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PartitionDesign {
    pub fragments: Vec<NamedFragment>,
}

impl PartitionDesign {
    /// Fragments defined over `table`.
    pub fn fragments_for(&self, table: parinda_catalog::TableId) -> Vec<&NamedFragment> {
        self.fragments.iter().filter(|f| f.fragment.table == table).collect()
    }

    /// Is any table partitioned?
    pub fn is_empty(&self) -> bool {
        self.fragments.is_empty()
    }
}

/// Rewrite errors. Callers typically fall back to the original query.
#[derive(Debug, Clone, PartialEq)]
pub enum RewriteError {
    UnknownTable(String),
    AmbiguousColumn(String),
    UnknownColumn(String),
    /// The design has no fragment set covering a needed column.
    NotCoverable { table: String, column: String },
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::UnknownTable(t) => write!(f, "unknown table {t}"),
            RewriteError::AmbiguousColumn(c) => write!(f, "ambiguous column {c}"),
            RewriteError::UnknownColumn(c) => write!(f, "unknown column {c}"),
            RewriteError::NotCoverable { table, column } => {
                write!(f, "no fragment of {table} covers column {column}")
            }
        }
    }
}

impl std::error::Error for RewriteError {}

/// One FROM entry of a statement, resolved against the base tables: its
/// binding, its table, and the column positions the statement reads of it.
#[derive(Debug)]
pub(crate) struct RelColumns {
    /// Lowercased alias (or table name) the statement refers to it by.
    pub binding: String,
    pub table_name: String,
    pub table: TableId,
    /// Every column position used in any clause (`*` uses them all).
    pub used: BTreeSet<usize>,
}

/// Resolve `select`'s FROM list and gather the columns it reads of each
/// entry. This is the rewriter's first step; it reads only base-table
/// metadata, so a caller can do it once and compute covers for many
/// designs with [`fragment_cover`].
pub(crate) fn used_columns(
    select: &Select,
    meta: &dyn MetadataProvider,
) -> Result<Vec<RelColumns>, RewriteError> {
    let mut rels: Vec<RelColumns> = Vec::new();
    for tr in &select.from {
        let t = meta
            .table_by_name(&tr.name)
            .ok_or_else(|| RewriteError::UnknownTable(tr.name.clone()))?;
        rels.push(RelColumns {
            binding: tr.binding().to_ascii_lowercase(),
            table_name: t.name.clone(),
            table: t.id,
            used: BTreeSet::new(),
        });
    }

    let collect = |e: &Expr, rels: &mut Vec<RelColumns>| -> Result<(), RewriteError> {
        let mut err = None;
        e.visit_columns(&mut |c| {
            if err.is_some() {
                return;
            }
            match resolve_column(c, rels, meta) {
                Ok((ri, ci)) => {
                    rels[ri].used.insert(ci);
                }
                Err(e) => err = Some(e),
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    };
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                for r in &mut rels {
                    let n = meta
                        .table(r.table)
                        .ok_or_else(|| RewriteError::UnknownTable(r.table_name.clone()))?
                        .columns
                        .len();
                    r.used.extend(0..n);
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let ql = q.to_ascii_lowercase();
                let Some(pos) = rels.iter().position(|r| r.binding == ql) else {
                    return Err(RewriteError::UnknownTable(ql));
                };
                let n = meta
                    .table(rels[pos].table)
                    .ok_or_else(|| RewriteError::UnknownTable(rels[pos].table_name.clone()))?
                    .columns
                    .len();
                rels[pos].used.extend(0..n);
            }
            SelectItem::Expr { expr, .. } => collect(expr, &mut rels)?,
        }
    }
    if let Some(w) = &select.where_clause {
        collect(w, &mut rels)?;
    }
    for e in &select.group_by {
        collect(e, &mut rels)?;
    }
    for o in &select.order_by {
        collect(&o.expr, &mut rels)?;
    }
    Ok(rels)
}

/// Resolve a column ref to (rel position, column position).
fn resolve_column(
    c: &ColumnRef,
    rels: &[RelColumns],
    meta: &dyn MetadataProvider,
) -> Result<(usize, usize), RewriteError> {
    match &c.table {
        Some(q) => {
            let ql = q.to_ascii_lowercase();
            let ri = rels
                .iter()
                .position(|r| r.binding == ql)
                .ok_or_else(|| RewriteError::UnknownTable(ql.clone()))?;
            let t = meta
                .table(rels[ri].table)
                .ok_or_else(|| RewriteError::UnknownTable(rels[ri].table_name.clone()))?;
            let ci = t
                .column_index(&c.column)
                .ok_or_else(|| RewriteError::UnknownColumn(c.column.clone()))?;
            Ok((ri, ci))
        }
        None => {
            let mut hit = None;
            for (ri, r) in rels.iter().enumerate() {
                let Some(t) = meta.table(r.table) else { continue };
                if let Some(ci) = t.column_index(&c.column) {
                    if hit.is_some() {
                        return Err(RewriteError::AmbiguousColumn(c.column.clone()));
                    }
                    hit = Some((ri, ci));
                }
            }
            hit.ok_or_else(|| RewriteError::UnknownColumn(c.column.clone()))
        }
    }
}

/// The fragments a rewrite of one relation reads: a greedy set cover of
/// the `used` columns outside the primary key `pk`, over one table's
/// fragments `frags` in design order. Each step takes the fragment that
/// covers the most still-uncovered columns; a tie goes to the last such
/// fragment. A relation that uses only PK columns reads `frags[0]`.
/// Returns positions into `frags` in the order the rewrite joins them, or
/// the smallest column no fragment covers. `frags` must be non-empty.
pub(crate) fn fragment_cover(
    frags: &[&Fragment],
    pk: &[usize],
    used: &BTreeSet<usize>,
) -> Result<Vec<usize>, usize> {
    let mut uncovered: BTreeSet<usize> =
        used.iter().copied().filter(|c| !pk.contains(c)).collect();
    let mut chosen: Vec<usize> = Vec::new();
    while let Some(&first) = uncovered.iter().next() {
        // a chosen fragment covers nothing still uncovered, so it never
        // wins while the maximum is positive
        let gain = |i: usize| frags[i].columns.intersection(&uncovered).count();
        match (0..frags.len()).max_by_key(|&i| gain(i)) {
            Some(i) if gain(i) > 0 => {
                uncovered.retain(|c| !frags[i].columns.contains(c));
                chosen.push(i);
            }
            _ => return Err(first),
        }
    }
    if chosen.is_empty() {
        // query touches only the PK: any fragment will do
        chosen.push(0);
    }
    Ok(chosen)
}

/// Rewrite `select` against a partition design. Returns the rewritten
/// statement (identical to the input when no referenced table is
/// partitioned).
pub fn rewrite_select(
    select: &Select,
    meta: &dyn MetadataProvider,
    design: &PartitionDesign,
) -> Result<Select, RewriteError> {
    if parinda_failpoint::should_fail("advisor::rewrite") {
        // Injected fault: callers fall back to the original statement.
        return Err(RewriteError::UnknownTable("failpoint advisor::rewrite".to_string()));
    }
    let rels = used_columns(select, meta)?;

    // Plan the replacement per rel.
    struct Replacement {
        /// new FROM entries for this rel
        from: Vec<TableRef>,
        /// extra PK-join predicates
        preds: Vec<Expr>,
        /// column position -> binding to qualify with
        col_binding: HashMap<usize, String>,
    }
    let mut replacements: Vec<Option<Replacement>> = Vec::new();
    for r in &rels {
        let frags = design.fragments_for(r.table);
        if frags.is_empty() {
            replacements.push(None);
            continue;
        }
        let parent = meta
            .table(r.table)
            .ok_or_else(|| RewriteError::UnknownTable(r.table_name.clone()))?;
        let pk: Vec<usize> = parent.primary_key.clone();
        let of_table: Vec<&Fragment> = frags.iter().map(|f| &f.fragment).collect();
        let chosen: Vec<&NamedFragment> = match fragment_cover(&of_table, &pk, &r.used) {
            Ok(positions) => positions.into_iter().map(|i| frags[i]).collect(),
            Err(c) => {
                let column = parent.columns.get(c).map_or("?", |c| c.name.as_str()).to_string();
                return Err(RewriteError::NotCoverable { table: r.table_name.clone(), column });
            }
        };

        // FROM entries: first fragment takes the original binding.
        let mut from = Vec::new();
        let mut preds = Vec::new();
        let mut col_binding: HashMap<usize, String> = HashMap::new();
        let first_alias = r.binding.clone();
        for (i, f) in chosen.iter().enumerate() {
            let alias = if i == 0 {
                first_alias.clone()
            } else {
                format!("{}_f{}", r.binding, i + 1)
            };
            from.push(TableRef { name: f.name.clone(), alias: Some(alias.clone()) });
            if i > 0 {
                // join on the PK with the first fragment
                for &pkc in &pk {
                    let Some(col) = parent.columns.get(pkc).map(|c| c.name.clone()) else {
                        continue;
                    };
                    preds.push(Expr::binary(
                        BinOp::Eq,
                        Expr::Column(ColumnRef::qualified(first_alias.clone(), col.clone())),
                        Expr::Column(ColumnRef::qualified(alias.clone(), col)),
                    ));
                }
            }
            for &c in &f.fragment.columns {
                col_binding.entry(c).or_insert_with(|| alias.clone());
            }
        }
        // PK columns resolve to the first fragment.
        for &pkc in &pk {
            col_binding.insert(pkc, first_alias.clone());
        }
        replacements.push(Some(Replacement { from, preds, col_binding }));
    }

    if replacements.iter().all(|r| r.is_none()) {
        return Ok(select.clone());
    }

    // Column mapper: re-qualify refs of partitioned rels.
    let map_ref = |c: &ColumnRef| -> Result<ColumnRef, RewriteError> {
        let (ri, ci) = resolve_column(c, &rels, meta)?;
        match &replacements[ri] {
            None => Ok(c.clone()),
            Some(rep) => {
                // The cover above was computed over every used column, so
                // a miss means the design and the query disagree — report
                // it as not coverable instead of crashing.
                let binding = rep.col_binding.get(&ci).ok_or_else(|| {
                    RewriteError::NotCoverable {
                        table: rels[ri].table_name.clone(),
                        column: c.column.clone(),
                    }
                })?;
                Ok(ColumnRef::qualified(binding.clone(), c.column.clone()))
            }
        }
    };

    // Rebuild the statement.
    let mut from = Vec::new();
    let mut extra_preds = Vec::new();
    for (ri, tr) in select.from.iter().enumerate() {
        match &replacements[ri] {
            None => from.push(tr.clone()),
            Some(rep) => {
                from.extend(rep.from.iter().cloned());
                extra_preds.extend(rep.preds.iter().cloned());
            }
        }
    }

    let items = select
        .items
        .iter()
        .map(|item| -> Result<SelectItem, RewriteError> {
            Ok(match item {
                SelectItem::Wildcard => SelectItem::Wildcard,
                SelectItem::QualifiedWildcard(q) => SelectItem::QualifiedWildcard(q.clone()),
                SelectItem::Expr { expr, alias } => SelectItem::Expr {
                    expr: map_expr(expr, &map_ref)?,
                    alias: alias.clone(),
                },
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    let mut where_clause = match &select.where_clause {
        Some(w) => Some(map_expr(w, &map_ref)?),
        None => None,
    };
    for p in extra_preds {
        where_clause = Some(match where_clause {
            Some(w) => Expr::and(w, p),
            None => p,
        });
    }

    let group_by = select
        .group_by
        .iter()
        .map(|e| map_expr(e, &map_ref))
        .collect::<Result<Vec<_>, _>>()?;
    let order_by = select
        .order_by
        .iter()
        .map(|o| {
            Ok(parinda_sql::ast::OrderByItem { expr: map_expr(&o.expr, &map_ref)?, desc: o.desc })
        })
        .collect::<Result<Vec<_>, RewriteError>>()?;

    Ok(Select {
        distinct: select.distinct,
        items,
        from,
        where_clause,
        group_by,
        order_by,
        limit: select.limit,
    })
}

/// Map every column reference through `f`, rebuilding the expression.
fn map_expr<F>(e: &Expr, f: &F) -> Result<Expr, RewriteError>
where
    F: Fn(&ColumnRef) -> Result<ColumnRef, RewriteError>,
{
    Ok(match e {
        Expr::Column(c) => Expr::Column(f(c)?),
        Expr::Literal(l) => Expr::Literal(l.clone()),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(map_expr(left, f)?),
            right: Box::new(map_expr(right, f)?),
        },
        Expr::Not(inner) => Expr::Not(Box::new(map_expr(inner, f)?)),
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(map_expr(expr, f)?),
            low: Box::new(map_expr(low, f)?),
            high: Box::new(map_expr(high, f)?),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(map_expr(expr, f)?),
            list: list.iter().map(|e| map_expr(e, f)).collect::<Result<_, _>>()?,
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(map_expr(expr, f)?),
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => Expr::Like {
            expr: Box::new(map_expr(expr, f)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::Agg { func, arg, distinct } => Expr::Agg {
            func: *func,
            arg: match arg {
                Some(a) => Some(Box::new(map_expr(a, f)?)),
                None => None,
            },
            distinct: *distinct,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parinda_catalog::{Catalog, Column, SqlType};
    use parinda_sql::parse_select;

    fn catalog() -> (Catalog, TableId) {
        let mut c = Catalog::new();
        let t = c.create_table(
            "obj",
            vec![
                Column::new("id", SqlType::Int8).not_null(),
                Column::new("ra", SqlType::Float8).not_null(),
                Column::new("dec", SqlType::Float8).not_null(),
                Column::new("rmag", SqlType::Float8).not_null(),
                Column::new("gmag", SqlType::Float8).not_null(),
            ],
            100_000,
        );
        c.table_mut(t).unwrap().primary_key = vec![0];
        c.create_table("band", vec![Column::new("name", SqlType::Int4).not_null()], 5);
        (c, t)
    }

    fn design(t: TableId, frags: &[&[usize]]) -> PartitionDesign {
        PartitionDesign {
            fragments: frags
                .iter()
                .enumerate()
                .map(|(i, cols)| NamedFragment {
                    name: format!("obj_p{}", i + 1),
                    fragment: Fragment::new(t, cols.iter().copied()),
                })
                .collect(),
        }
    }

    /// The FROM list `fragment_cover` predicts for a rewrite, or the
    /// column it cannot cover.
    fn covered_from(c: &Catalog, sql: &str, d: &PartitionDesign) -> Result<Vec<String>, usize> {
        let sel = parse_select(sql).unwrap();
        let mut from = Vec::new();
        for (r, tr) in used_columns(&sel, c).unwrap().iter().zip(&sel.from) {
            let frags = d.fragments_for(r.table);
            if frags.is_empty() {
                from.push(tr.name.clone());
                continue;
            }
            let of_table: Vec<&Fragment> = frags.iter().map(|f| &f.fragment).collect();
            let pk = &c.table(r.table).unwrap().primary_key;
            let chosen = fragment_cover(&of_table, pk, &r.used)?;
            from.extend(chosen.into_iter().map(|i| frags[i].name.clone()));
        }
        Ok(from)
    }

    /// The cover and the rewriter agree; returns the FROM list.
    fn agreed_from(c: &Catalog, sql: &str, d: &PartitionDesign) -> Vec<String> {
        let rw = rewrite_select(&parse_select(sql).unwrap(), c, d).unwrap();
        let from: Vec<String> = rw.from.iter().map(|t| t.name.clone()).collect();
        assert_eq!(covered_from(c, sql, d), Ok(from.clone()), "{sql}");
        from
    }

    #[test]
    fn cover_reproduces_the_rewriters_from_list() {
        let (c, t) = catalog();
        let d = design(t, &[&[1, 2], &[3, 4]]);
        assert_eq!(agreed_from(&c, "SELECT ra, dec FROM obj WHERE id = 7", &d), ["obj_p1"]);
        let d = design(t, &[&[1, 2], &[3]]);
        assert_eq!(
            agreed_from(&c, "SELECT ra, rmag FROM obj WHERE dec > 0.0", &d),
            ["obj_p1", "obj_p2"]
        );
        assert_eq!(
            agreed_from(&c, "SELECT o.ra, b.name FROM obj o, band b WHERE o.id = b.name", &d),
            ["obj_p1", "band"]
        );
        let none = PartitionDesign::default();
        assert_eq!(agreed_from(&c, "SELECT ra FROM obj WHERE rmag = 1", &none), ["obj"]);
    }

    #[test]
    fn cover_tie_goes_to_the_last_maximum() {
        let (c, t) = catalog();
        // each fragment covers one of the two columns: the later one leads
        let d = design(t, &[&[1], &[3], &[4]]);
        assert_eq!(agreed_from(&c, "SELECT ra, rmag FROM obj", &d), ["obj_p2", "obj_p1"]);
        // a strictly larger intersection still wins from anywhere
        let d = design(t, &[&[1, 3], &[1], &[3]]);
        assert_eq!(agreed_from(&c, "SELECT ra, rmag FROM obj", &d), ["obj_p1"]);
    }

    #[test]
    fn cover_of_a_pk_only_query_is_the_first_fragment() {
        let (c, t) = catalog();
        let d = design(t, &[&[3], &[1, 2]]);
        assert_eq!(agreed_from(&c, "SELECT id FROM obj WHERE id = 3", &d), ["obj_p1"]);
    }

    #[test]
    fn cover_names_the_uncoverable_column() {
        let (c, t) = catalog();
        let d = design(t, &[&[1], &[2]]);
        let sql = "SELECT ra, gmag, rmag FROM obj";
        assert_eq!(covered_from(&c, sql, &d), Err(3));
        let err = rewrite_select(&parse_select(sql).unwrap(), &c, &d).unwrap_err();
        let expected = RewriteError::NotCoverable { table: "obj".into(), column: "rmag".into() };
        assert_eq!(err, expected);
    }
}
