//! The cost-based planner: access-path generation per base relation,
//! System-R dynamic-programming join enumeration, and top-level
//! sort/aggregate/limit planning.
//!
//! The what-if layer plugs in underneath via [`MetadataProvider`]: planning
//! against a hypothetical catalog overlay yields the plan (and cost) the
//! query *would* have if the simulated features existed (paper §3.1–3.2).

use std::collections::HashMap;

use parinda_catalog::{ColumnStats, MetadataProvider, Table};
use parinda_sql::BinOp;

use crate::cost::{
    agg_cost, hashjoin_cost, index_scan_cost, materialize_cost, materialize_rescan_cost,
    mergejoin_cost, nestloop_cost, seq_scan_cost, sort_cost, IndexScanInputs,
};
use crate::params::{CostParams, PlannerFlags, DISABLE_COST};
use crate::plan::{Cost, IndexRange, JoinKey, PlanKind, PlanNode, PosKey};
use crate::query::{BoundOutput, BoundQuery, Restriction, RestrictionShape, Slot};
use crate::selectivity::{
    eqjoin_selectivity, restriction_selectivity,
};

/// Planning errors (the bound query referenced something the catalog no
/// longer has — can only happen if the catalog changed after binding).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    MissingTable(usize),
    TooManyRels(usize),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::MissingTable(r) => write!(f, "rel {r} vanished from the catalog"),
            PlanError::TooManyRels(n) => {
                write!(f, "query joins {n} relations; the DP planner supports at most 16")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Plan `query` against `meta` with the given parameters and flags.
pub fn plan_query(
    query: &BoundQuery,
    meta: &dyn MetadataProvider,
    params: &CostParams,
    flags: &PlannerFlags,
) -> Result<PlanNode, PlanError> {
    Planner { query, meta, params, flags }.run()
}

/// A candidate plan with the order its output obeys.
#[derive(Debug, Clone)]
struct Path {
    node: PlanNode,
    /// Output sort order (ascending slots); empty = unordered.
    order: Vec<Slot>,
}

/// Paths for one relation set.
struct RelPaths {
    rows: f64,
    paths: Vec<Path>,
}

impl RelPaths {
    fn cheapest(&self) -> &Path {
        self.paths
            .iter()
            .min_by(|a, b| a.node.cost.total.total_cmp(&b.node.cost.total))
            .expect("every rel set has at least one path")
    }

    /// Cheapest path whose order starts with `want`.
    fn cheapest_with_order(&self, want: &[Slot]) -> Option<&Path> {
        self.paths
            .iter()
            .filter(|p| p.order.len() >= want.len() && p.order[..want.len()] == *want)
            .min_by(|a, b| a.node.cost.total.total_cmp(&b.node.cost.total))
    }

    /// Keep only the cheapest path overall plus the cheapest per distinct
    /// order prefix, bounding path explosion.
    fn prune(&mut self) {
        let mut kept: Vec<Path> = Vec::new();
        self.paths
            .sort_by(|a, b| a.node.cost.total.total_cmp(&b.node.cost.total));
        for p in self.paths.drain(..) {
            let dominated = kept
                .iter()
                .any(|k| order_covers(&k.order, &p.order) && k.node.cost.total <= p.node.cost.total);
            if !dominated {
                kept.push(p);
            }
            if kept.len() >= 6 {
                break;
            }
        }
        self.paths = kept;
    }
}

/// Does order `a` cover everything `b` promises (b is a prefix of a)?
fn order_covers(a: &[Slot], b: &[Slot]) -> bool {
    b.len() <= a.len() && a[..b.len()] == *b
}

struct Planner<'a> {
    query: &'a BoundQuery,
    meta: &'a dyn MetadataProvider,
    params: &'a CostParams,
    flags: &'a PlannerFlags,
}

impl<'a> Planner<'a> {
    fn run(self) -> Result<PlanNode, PlanError> {
        let n = self.query.rels.len();
        if n == 0 {
            return Err(PlanError::MissingTable(0));
        }
        if n > 16 {
            return Err(PlanError::TooManyRels(n));
        }

        // Level 1: base relations.
        let mut rel_paths: HashMap<u64, RelPaths> = HashMap::new();
        for rel in 0..n {
            let paths = self.base_rel_paths(rel)?;
            rel_paths.insert(1 << rel, paths);
        }

        // Levels 2..n: DP over subsets ordered by popcount.
        let full: u64 = (1 << n) - 1;
        let mut masks: Vec<u64> = (1..=full).filter(|m| m.count_ones() >= 2).collect();
        masks.sort_by_key(|m| m.count_ones());
        for mask in masks {
            if mask.count_ones() as usize > n {
                continue;
            }
            let mut out: Option<RelPaths> = None;
            // enumerate proper submask splits
            let mut sub = (mask - 1) & mask;
            let mut any_connected = false;
            while sub > 0 {
                let other = mask ^ sub;
                if rel_paths.contains_key(&sub) && rel_paths.contains_key(&other) {
                    let connected = self.connecting_joins(sub, other);
                    if !connected.is_empty() {
                        any_connected = true;
                        self.add_join_paths(&mut out, &rel_paths, sub, other, mask);
                    }
                }
                sub = (sub - 1) & mask;
            }
            if !any_connected {
                // cartesian fallback: split off the lowest rel
                let low = 1u64 << mask.trailing_zeros();
                let rest = mask ^ low;
                if rel_paths.contains_key(&low) && rel_paths.contains_key(&rest) {
                    self.add_join_paths(&mut out, &rel_paths, rest, low, mask);
                }
            }
            if let Some(mut rp) = out {
                rp.prune();
                rel_paths.insert(mask, rp);
            }
        }

        let top = rel_paths
            .remove(&full)
            .ok_or(PlanError::MissingTable(0))?;
        Ok(self.finalize(top))
    }

    // ---------- base relations ----------

    fn table_of(&self, rel: usize) -> Result<&Table, PlanError> {
        self.meta
            .table(self.query.rels[rel].table)
            .ok_or(PlanError::MissingTable(rel))
    }

    fn stats(&self, slot: Slot) -> Option<&ColumnStats> {
        self.meta
            .column_stats(self.query.rels[slot.rel].table, slot.col)
    }

    /// Estimated output rows of a base rel after its restrictions.
    fn base_rows(&self, rel: usize) -> Result<f64, PlanError> {
        let table = self.table_of(rel)?;
        let raw = table.row_count as f64;
        let mut sel = 1.0;
        for r in self.query.restrictions_on(rel) {
            let col_stats = r.shape.column().and_then(|c| self.stats(Slot { rel, col: c }));
            sel *= restriction_selectivity(&r.shape, col_stats, raw);
        }
        Ok((raw * sel).max(1.0).min(raw.max(1.0)))
    }

    /// Output width: sum of the needed columns' stored sizes.
    fn rel_width(&self, rel: usize) -> Result<f64, PlanError> {
        let table = self.table_of(rel)?;
        Ok(self.query.rels[rel]
            .needed_columns
            .iter()
            .map(|&c| table.columns[c].avg_stored_size())
            .sum::<f64>()
            .max(8.0))
    }

    fn output_slots(&self, rel: usize) -> Vec<Slot> {
        self.query.rels[rel]
            .needed_columns
            .iter()
            .map(|&col| Slot { rel, col })
            .collect()
    }

    fn base_rel_paths(&self, rel: usize) -> Result<RelPaths, PlanError> {
        let table = self.table_of(rel)?;
        let rows = self.base_rows(rel)?;
        let width = self.rel_width(rel)?;
        let restrictions = self.query.restrictions_on(rel);
        let filter: Vec<_> = restrictions.iter().map(|r| r.expr.clone()).collect();

        let mut paths = Vec::new();

        // Sequential scan.
        let mut seq = seq_scan_cost(self.params, table.pages, table.row_count as f64, filter.len());
        if !self.flags.enable_seqscan {
            seq.total += DISABLE_COST;
            seq.startup += DISABLE_COST;
        }
        paths.push(Path {
            node: PlanNode {
                kind: PlanKind::SeqScan { rel, table: table.id, filter: filter.clone() },
                cost: seq,
                rows,
                width,
                output: self.output_slots(rel),
            },
            order: vec![],
        });

        // Index scans.
        for idx in self.meta.indexes_on(table.id) {
            if let Some(path) = self.index_path(rel, table, idx, &restrictions, rows, width) {
                paths.push(path);
            }
        }

        Ok(RelPaths { rows, paths })
    }

    /// Build an index-scan path if the index matches restrictions or offers
    /// a useful sort order.
    fn index_path(
        &self,
        rel: usize,
        table: &Table,
        idx: &parinda_catalog::Index,
        restrictions: &[&Restriction],
        rel_rows: f64,
        width: f64,
    ) -> Option<Path> {
        let raw_rows = table.row_count as f64;
        let mut eq_prefix = Vec::new();
        let mut range: Option<IndexRange> = None;
        let mut index_sel = 1.0;
        let mut matched: Vec<usize> = Vec::new(); // positions into `restrictions`

        'keys: for &key_col in &idx.key_columns {
            // equality first
            for (i, r) in restrictions.iter().enumerate() {
                if matched.contains(&i) {
                    continue;
                }
                if let RestrictionShape::Eq { col, value } = &r.shape {
                    if *col == key_col {
                        let st = self.stats(Slot { rel, col: key_col });
                        index_sel *=
                            restriction_selectivity(&r.shape, st, raw_rows);
                        eq_prefix.push(value.clone());
                        matched.push(i);
                        continue 'keys;
                    }
                }
            }
            // otherwise try range on this column, then stop
            let mut low: Option<(parinda_catalog::Datum, bool)> = None;
            let mut high: Option<(parinda_catalog::Datum, bool)> = None;
            for (i, r) in restrictions.iter().enumerate() {
                if matched.contains(&i) {
                    continue;
                }
                match &r.shape {
                    RestrictionShape::Range { col, op, value } if *col == key_col => {
                        let st = self.stats(Slot { rel, col: key_col });
                        index_sel *= restriction_selectivity(&r.shape, st, raw_rows);
                        match op {
                            BinOp::Lt => high = Some((value.clone(), false)),
                            BinOp::LtEq => high = Some((value.clone(), true)),
                            BinOp::Gt => low = Some((value.clone(), false)),
                            BinOp::GtEq => low = Some((value.clone(), true)),
                            _ => {}
                        }
                        matched.push(i);
                    }
                    RestrictionShape::Between { col, low: l, high: h, negated: false }
                        if *col == key_col =>
                    {
                        let st = self.stats(Slot { rel, col: key_col });
                        index_sel *= restriction_selectivity(&r.shape, st, raw_rows);
                        low = Some((l.clone(), true));
                        high = Some((h.clone(), true));
                        matched.push(i);
                    }
                    _ => {}
                }
            }
            if low.is_some() || high.is_some() {
                range = Some(IndexRange { low, high });
            }
            break;
        }

        let order: Vec<Slot> = idx
            .key_columns
            .iter()
            .map(|&col| Slot { rel, col })
            .collect();
        let order_useful = self.order_is_useful(&order);

        if matched.is_empty() && !order_useful {
            return None; // the index can't help this query
        }

        // Residual filter: every restriction not consumed by the index.
        let filter: Vec<_> = restrictions
            .iter()
            .enumerate()
            .filter(|(i, _)| !matched.contains(i))
            .map(|(_, r)| r.expr.clone())
            .collect();

        let corr = self
            .stats(Slot { rel, col: idx.key_columns[0] })
            .map(|s| s.correlation)
            .unwrap_or(0.0);
        let mut cost = index_scan_cost(
            self.params,
            IndexScanInputs {
                index_pages: idx.pages,
                index_height: idx.height,
                table_pages: table.pages,
                table_rows: raw_rows,
                index_selectivity: index_sel,
                correlation: corr,
            },
            filter.len(),
        );
        if !self.flags.enable_indexscan {
            cost.total += DISABLE_COST;
            cost.startup += DISABLE_COST;
        }

        Some(Path {
            node: PlanNode {
                kind: PlanKind::IndexScan {
                    rel,
                    table: table.id,
                    index: idx.id,
                    eq_prefix,
                    param_prefix: vec![],
                    range,
                    filter,
                },
                cost,
                rows: rel_rows,
                width,
                output: self.output_slots(rel),
            },
            order,
        })
    }

    /// Is an ascending order on these slots useful (ORDER BY, GROUP BY, or
    /// a merge-joinable column)?
    fn order_is_useful(&self, order: &[Slot]) -> bool {
        if order.is_empty() {
            return false;
        }
        let first = order[0];
        let order_by_match = self
            .query
            .order_by
            .first()
            .is_some_and(|k| !k.desc && k.slot == first);
        let group_match = self.query.group_by.first() == Some(&first);
        let join_match = self
            .query
            .joins
            .iter()
            .any(|j| j.left == first || j.right == first);
        order_by_match || group_match || join_match
    }

    // ---------- joins ----------

    /// Equijoin preds connecting two disjoint rel sets.
    fn connecting_joins(&self, a: u64, b: u64) -> Vec<&crate::query::JoinPred> {
        self.query
            .joins
            .iter()
            .filter(|j| {
                let lm = 1u64 << j.left.rel;
                let rm = 1u64 << j.right.rel;
                (lm & a != 0 && rm & b != 0) || (lm & b != 0 && rm & a != 0)
            })
            .collect()
    }

    /// Join-filter exprs that become checkable exactly at `mask` (their rel
    /// set is covered by mask but by neither input alone).
    fn filters_for(&self, left: u64, right: u64) -> Vec<crate::query::BoundExpr> {
        let mask = left | right;
        self.query
            .join_filters
            .iter()
            .filter(|f| {
                let fm = f.rel_mask();
                fm & !mask == 0 && fm & left != 0 && fm & right != 0
            })
            .cloned()
            .collect()
    }

    /// Estimated rows of the join of two rel sets.
    fn join_rows(&self, left_mask: u64, left_rows: f64, right_mask: u64, right_rows: f64) -> f64 {
        let mut sel = 1.0;
        for j in self.connecting_joins(left_mask, right_mask) {
            let ls = self.stats(j.left);
            let rs = self.stats(j.right);
            let lr = self.rel_raw_rows(j.left.rel);
            let rr = self.rel_raw_rows(j.right.rel);
            sel *= eqjoin_selectivity(ls, lr, rs, rr);
        }
        // join filters: default selectivity each
        let nfilters = self.filters_for(left_mask, right_mask).len();
        sel *= 0.333f64.powi(nfilters as i32);
        (left_rows * right_rows * sel).max(1.0)
    }

    fn rel_raw_rows(&self, rel: usize) -> f64 {
        self.meta
            .table(self.query.rels[rel].table)
            .map(|t| t.row_count as f64)
            .unwrap_or(1.0)
    }

    #[allow(clippy::too_many_arguments)]
    fn add_join_paths(
        &self,
        out: &mut Option<RelPaths>,
        rel_paths: &HashMap<u64, RelPaths>,
        left: u64,
        right: u64,
        _mask: u64,
    ) {
        let lp = &rel_paths[&left];
        let rp = &rel_paths[&right];
        let rows = self.join_rows(left, lp.rows, right, rp.rows);

        fn ensure(o: &mut Option<RelPaths>, rows: f64) -> &mut RelPaths {
            o.get_or_insert_with(|| RelPaths { rows, paths: Vec::new() })
        }

        // consider both orientations
        for (outer_mask, inner_mask) in [(left, right), (right, left)] {
            let op = &rel_paths[&outer_mask];
            let ip = &rel_paths[&inner_mask];
            let joins = self.connecting_joins(outer_mask, inner_mask);
            let keys: Vec<JoinKey> = joins
                .iter()
                .map(|j| {
                    if (1u64 << j.left.rel) & outer_mask != 0 {
                        JoinKey { outer: j.left, inner: j.right }
                    } else {
                        JoinKey { outer: j.right, inner: j.left }
                    }
                })
                .collect();
            let filter = self.filters_for(outer_mask, inner_mask);

            // Hash join.
            if !keys.is_empty() {
                let o = op.cheapest();
                let i = ip.cheapest();
                let mut cost = hashjoin_cost(
                    self.params,
                    o.node.cost,
                    o.node.rows,
                    i.node.cost,
                    i.node.rows,
                    i.node.width,
                    rows,
                );
                if !self.flags.enable_hashjoin {
                    cost.total += DISABLE_COST;
                    cost.startup += DISABLE_COST;
                }
                let node = self.make_join(
                    PlanKind::HashJoin {
                        outer: Box::new(o.node.clone()),
                        inner: Box::new(i.node.clone()),
                        keys: keys.clone(),
                        filter: filter.clone(),
                    },
                    cost,
                    rows,
                    o,
                    i,
                );
                ensure(out, rows).paths.push(Path { node, order: vec![] });
            }

            // Merge join on the first key.
            if let Some(k0) = keys.first() {
                let want_o = [k0.outer];
                let want_i = [k0.inner];
                let (o_path, o_cost, o_order) = self.sorted_input(op, &want_o);
                let (i_path, i_cost, _) = self.sorted_input(ip, &want_i);
                let mut cost = mergejoin_cost(
                    self.params,
                    o_cost,
                    o_path.rows,
                    i_cost,
                    i_path.rows,
                    rows,
                );
                if !self.flags.enable_mergejoin {
                    cost.total += DISABLE_COST;
                    cost.startup += DISABLE_COST;
                }
                let node = PlanNode {
                    output: join_output(&o_path, &i_path),
                    width: o_path.width + i_path.width,
                    kind: PlanKind::MergeJoin {
                        outer: Box::new(o_path),
                        inner: Box::new(i_path),
                        keys: keys.clone(),
                        filter: filter.clone(),
                    },
                    cost,
                    rows,
                };
                ensure(out, rows).paths.push(Path { node, order: o_order });
            }

            // Nested loop (plain, with materialized inner).
            {
                let o = op.cheapest();
                let i = ip.cheapest();
                let mat_cost = materialize_cost(self.params, i.node.cost.total, i.node.rows);
                let rescan = materialize_rescan_cost(self.params, i.node.rows);
                let mut cost = nestloop_cost(
                    self.params,
                    o.node.cost,
                    o.node.rows,
                    mat_cost,
                    rescan,
                    rows,
                );
                // per-pair qual evaluation
                cost.total +=
                    o.node.rows * i.node.rows * self.params.cpu_operator_cost
                        * (keys.len().max(1)) as f64;
                if !self.flags.enable_nestloop {
                    cost.total += DISABLE_COST;
                    cost.startup += DISABLE_COST;
                }
                let mat = PlanNode {
                    output: i.node.output.clone(),
                    rows: i.node.rows,
                    width: i.node.width,
                    cost: mat_cost,
                    kind: PlanKind::Materialize { input: Box::new(i.node.clone()) },
                };
                let node = self.make_join(
                    PlanKind::NestLoop {
                        outer: Box::new(o.node.clone()),
                        inner: Box::new(mat),
                        keys: keys.clone(),
                        filter: filter.clone(),
                    },
                    cost,
                    rows,
                    o,
                    &Path { node: PlanNode {
                        kind: PlanKind::Materialize {
                            input: Box::new(ip.cheapest().node.clone()),
                        },
                        cost: mat_cost,
                        rows: i.node.rows,
                        width: i.node.width,
                        output: i.node.output.clone(),
                    }, order: vec![] },
                );
                ensure(out, rows).paths.push(Path { node, order: o.order.clone() });
            }

            // Parameterized index nested loop: inner is a single base rel
            // with an index whose leading column is an inner join key.
            if inner_mask.count_ones() == 1 && !keys.is_empty() {
                let inner_rel = inner_mask.trailing_zeros() as usize;
                if let Some(pp) = self.param_index_paths(inner_rel, &keys) {
                    for (probe, per_probe_rows) in pp {
                        let o = op.cheapest();
                        let mut cost = nestloop_cost(
                            self.params,
                            o.node.cost,
                            o.node.rows,
                            Cost::ZERO,
                            probe.cost.total,
                            rows,
                        );
                        // first probe also costs probe.total
                        cost.total += probe.cost.total;
                        let _ = per_probe_rows;
                        if !self.flags.enable_nestloop {
                            cost.total += DISABLE_COST;
                            cost.startup += DISABLE_COST;
                        }
                        let node = self.make_join(
                            PlanKind::NestLoop {
                                outer: Box::new(o.node.clone()),
                                inner: Box::new(probe.clone()),
                                keys: keys.clone(),
                                filter: filter.clone(),
                            },
                            cost,
                            rows,
                            o,
                            &Path { node: probe, order: vec![] },
                        );
                        ensure(out, rows).paths.push(Path { node, order: o.order.clone() });
                    }
                }
            }
        }

        // make sure rows estimate is consistent
        if let Some(rp2) = out.as_mut() {
            rp2.rows = rows;
            for p in &mut rp2.paths {
                p.node.rows = rows;
            }
        }
    }

    fn make_join(
        &self,
        kind: PlanKind,
        cost: Cost,
        rows: f64,
        outer: &Path,
        inner: &Path,
    ) -> PlanNode {
        PlanNode {
            output: outer
                .node
                .output
                .iter()
                .chain(&inner.node.output)
                .copied()
                .collect(),
            width: outer.node.width + inner.node.width,
            kind,
            cost,
            rows,
        }
    }

    /// Get (plan, cost, order) for `rp` sorted on `want` — either an
    /// existing ordered path or the cheapest path plus an explicit Sort.
    fn sorted_input(&self, rp: &RelPaths, want: &[Slot]) -> (PlanNode, Cost, Vec<Slot>) {
        if let Some(p) = rp.cheapest_with_order(want) {
            return (p.node.clone(), p.node.cost, p.order.clone());
        }
        let base = rp.cheapest();
        let mut cost = sort_cost(self.params, base.node.cost.total, base.node.rows, base.node.width);
        if !self.flags.enable_sort {
            cost.total += DISABLE_COST;
            cost.startup += DISABLE_COST;
        }
        let keys: Vec<PosKey> = want
            .iter()
            .filter_map(|s| {
                base.node.output.iter().position(|o| o == s).map(|pos| PosKey { pos, desc: false })
            })
            .collect();
        let node = PlanNode {
            output: base.node.output.clone(),
            rows: base.node.rows,
            width: base.node.width,
            cost,
            kind: PlanKind::Sort { input: Box::new(base.node.clone()), keys },
        };
        (node, cost, want.to_vec())
    }

    /// Parameterized index probes for `rel` driven by join keys.
    /// Returns (probe plan, rows per probe).
    fn param_index_paths(&self, rel: usize, keys: &[JoinKey]) -> Option<Vec<(PlanNode, f64)>> {
        let table = self.table_of(rel).ok()?;
        let raw_rows = table.row_count as f64;
        let restrictions = self.query.restrictions_on(rel);
        let width = self.rel_width(rel).ok()?;
        let mut out = Vec::new();
        for idx in self.meta.indexes_on(table.id) {
            let lead = idx.key_columns[0];
            let Some(k) = keys.iter().find(|k| k.inner.col == lead && k.inner.rel == rel) else {
                continue;
            };
            // per-probe selectivity: one value of the lead column
            let st = self.stats(Slot { rel, col: lead });
            let nd = st.map(|s| s.distinct_count(raw_rows)).unwrap_or(raw_rows * 0.1);
            let probe_sel = (1.0 / nd.max(1.0)).min(1.0);
            // residual restrictions applied after fetch
            let mut rest_sel = 1.0;
            let filter: Vec<_> = restrictions
                .iter()
                .map(|r| {
                    let cs = r.shape.column().and_then(|c| self.stats(Slot { rel, col: c }));
                    rest_sel *= restriction_selectivity(&r.shape, cs, raw_rows);
                    r.expr.clone()
                })
                .collect();
            let corr = st.map(|s| s.correlation).unwrap_or(0.0);
            let cost = index_scan_cost(
                self.params,
                IndexScanInputs {
                    index_pages: idx.pages,
                    index_height: idx.height,
                    table_pages: table.pages,
                    table_rows: raw_rows,
                    index_selectivity: probe_sel,
                    correlation: corr,
                },
                filter.len(),
            );
            let rows = (raw_rows * probe_sel * rest_sel).max(1.0);
            out.push((
                PlanNode {
                    kind: PlanKind::IndexScan {
                        rel,
                        table: table.id,
                        index: idx.id,
                        eq_prefix: vec![],
                        param_prefix: vec![k.outer],
                        range: None,
                        filter,
                    },
                    cost,
                    rows,
                    width,
                    output: self.output_slots(rel),
                },
                rows,
            ));
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    // ---------- top level ----------

    fn finalize(&self, top: RelPaths) -> PlanNode {
        // Prefer a pre-ordered path when it satisfies ORDER BY.
        let want: Vec<Slot> = self
            .query
            .order_by
            .iter()
            .take_while(|k| !k.desc)
            .map(|k| k.slot)
            .collect();
        let has_agg = self.query.has_aggregation();

        let mut node = if !has_agg && !want.is_empty() && want.len() == self.query.order_by.len() {
            match top.cheapest_with_order(&want) {
                Some(p) => p.node.clone(),
                None => top.cheapest().node.clone(),
            }
        } else {
            top.cheapest().node.clone()
        };
        // Recover the order of the chosen node.
        let node_order: Vec<Slot> = top
            .paths
            .iter()
            .find(|p| p.node == node)
            .map(|p| p.order.clone())
            .unwrap_or_default();

        if has_agg {
            node = self.add_aggregate(node);
            node = self.maybe_sort_output(node, OutputSpace::Aggregate);
        } else {
            // ORDER BY in slot space, before projection.
            if !self.order_satisfied(&node_order) {
                node = self.slot_sort(node);
            }
            node = self.add_project(node);
        }

        if self.query.distinct {
            let rows = node.rows * 0.9; // mild dedup estimate
            let cost = Cost {
                startup: node.cost.total,
                total: node.cost.total + node.rows * self.params.cpu_operator_cost,
            };
            node = PlanNode {
                output: node.output.clone(),
                rows,
                width: node.width,
                cost,
                kind: PlanKind::Unique { input: Box::new(node) },
            };
        }

        if let Some(n) = self.query.limit {
            let frac = (n as f64 / node.rows.max(1.0)).min(1.0);
            let cost = Cost {
                startup: node.cost.startup,
                total: node.cost.startup + (node.cost.total - node.cost.startup) * frac,
            };
            node = PlanNode {
                output: node.output.clone(),
                rows: node.rows.min(n as f64),
                width: node.width,
                cost,
                kind: PlanKind::Limit { input: Box::new(node), n },
            };
        }

        node
    }

    fn order_satisfied(&self, order: &[Slot]) -> bool {
        if self.query.order_by.is_empty() {
            return true;
        }
        if self.query.order_by.iter().any(|k| k.desc) {
            return false;
        }
        let want: Vec<Slot> = self.query.order_by.iter().map(|k| k.slot).collect();
        order_covers(order, &want)
    }

    /// Sort in slot space (before projection).
    fn slot_sort(&self, input: PlanNode) -> PlanNode {
        let keys: Vec<PosKey> = self
            .query
            .order_by
            .iter()
            .filter_map(|k| {
                input
                    .output
                    .iter()
                    .position(|s| *s == k.slot)
                    .map(|pos| PosKey { pos, desc: k.desc })
            })
            .collect();
        let mut cost = sort_cost(self.params, input.cost.total, input.rows, input.width);
        if !self.flags.enable_sort {
            cost.total += DISABLE_COST;
        }
        PlanNode {
            output: input.output.clone(),
            rows: input.rows,
            width: input.width,
            cost,
            kind: PlanKind::Sort { input: Box::new(input), keys },
        }
    }

    fn add_aggregate(&self, input: PlanNode) -> PlanNode {
        let groups = self.estimate_groups(input.rows);
        let naggs = self
            .query
            .output
            .iter()
            .filter(|o| o.expr.is_agg())
            .count();
        let cost = agg_cost(self.params, input.cost, input.rows, groups, naggs);
        let width = 8.0 * self.query.output.len() as f64;
        PlanNode {
            output: vec![],
            rows: groups,
            width,
            cost,
            kind: PlanKind::Aggregate {
                input: Box::new(input),
                group_by: self.query.group_by.clone(),
                items: self.query.output.clone(),
            },
        }
    }

    fn estimate_groups(&self, input_rows: f64) -> f64 {
        if self.query.group_by.is_empty() {
            return 1.0;
        }
        let mut groups = 1.0;
        for slot in &self.query.group_by {
            let nd = self
                .stats(*slot)
                .map(|s| s.distinct_count(self.rel_raw_rows(slot.rel)))
                .unwrap_or(input_rows * 0.1);
            groups *= nd.max(1.0);
        }
        groups.min(input_rows.max(1.0))
    }

    fn add_project(&self, input: PlanNode) -> PlanNode {
        let cost = Cost {
            startup: input.cost.startup,
            total: input.cost.total
                + input.rows * self.params.cpu_operator_cost * self.query.output.len() as f64,
        };
        PlanNode {
            output: vec![],
            rows: input.rows,
            width: 8.0 * self.query.output.len() as f64,
            cost,
            kind: PlanKind::Project {
                input: Box::new(input),
                items: self.query.output.clone(),
            },
        }
    }

    /// ORDER BY above an aggregate: sort by output position.
    fn maybe_sort_output(&self, input: PlanNode, _space: OutputSpace) -> PlanNode {
        if self.query.order_by.is_empty() {
            return input;
        }
        let keys: Vec<PosKey> = self
            .query
            .order_by
            .iter()
            .filter_map(|k| {
                self.query.output.iter().position(|o| match &o.expr {
                    BoundOutput::Scalar(crate::query::BoundExpr::Column(s)) => *s == k.slot,
                    _ => false,
                })
                .map(|pos| PosKey { pos, desc: k.desc })
            })
            .collect();
        if keys.is_empty() {
            return input;
        }
        let cost = sort_cost(self.params, input.cost.total, input.rows, input.width);
        PlanNode {
            output: input.output.clone(),
            rows: input.rows,
            width: input.width,
            cost,
            kind: PlanKind::Sort { input: Box::new(input), keys },
        }
    }
}

enum OutputSpace {
    Aggregate,
}

/// Output slots of a join of two plans.
fn join_output(outer: &PlanNode, inner: &PlanNode) -> Vec<Slot> {
    outer.output.iter().chain(&inner.output).copied().collect()
}

/// Public helper for INUM and the advisors: generate all scan paths for a
/// single base relation of `query` under the given metadata, returning
/// `(plan, output order)` pairs. This is exactly what the DP planner uses
/// at level 1, so costs agree with full planning.
pub fn base_scan_paths(
    query: &BoundQuery,
    rel: usize,
    meta: &dyn MetadataProvider,
    params: &CostParams,
    flags: &PlannerFlags,
) -> Result<Vec<(PlanNode, Vec<Slot>)>, PlanError> {
    let planner = Planner { query, meta, params, flags };
    let rp = planner.base_rel_paths(rel)?;
    Ok(rp.paths.into_iter().map(|p| (p.node, p.order)).collect())
}

/// Estimated rows a base rel produces after its restrictions (INUM needs
/// this to scale parameterized-probe access costs).
pub fn base_rel_rows(
    query: &BoundQuery,
    rel: usize,
    meta: &dyn MetadataProvider,
    params: &CostParams,
) -> Result<f64, PlanError> {
    let flags = PlannerFlags::default();
    let planner = Planner { query, meta, params, flags: &flags };
    planner.base_rows(rel)
}
