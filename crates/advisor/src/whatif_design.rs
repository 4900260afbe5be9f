//! The one what-if costing path for hypothetical designs (paper §3.2–3.3,
//! Figure 1): simulate the design on an overlay, rewrite a query for the
//! fragmented schema, and let the optimizer cost the rewrite. Every
//! rewrite-aware caller — the interactive evaluator, `explain`, and
//! AutoPart's candidate loop — goes through [`WhatIfDesign`].

use parinda_catalog::{Catalog, MetadataProvider, TableId};
use parinda_optimizer::{bind, plan_query, BoundQuery, CostParams, PlanNode, PlannerFlags};
use parinda_sql::Select;
use parinda_trace::{Counter, Trace};
use parinda_whatif::{
    simulate_partition, Design, HypotheticalCatalog, WhatIfError, WhatIfPartition,
};

use crate::fragments::Fragment;
use crate::rewrite::{rewrite_select, NamedFragment, PartitionDesign};

/// A simulated design: the overlay the optimizer plans against, plus the
/// rewriter's view of the simulated partitions.
#[derive(Debug, Clone)]
pub struct WhatIfDesign<'a> {
    pub overlay: HypotheticalCatalog<'a>,
    pub partitions: PartitionDesign,
}

impl<'a> WhatIfDesign<'a> {
    /// Simulate a DBA-chosen design with [`Design::apply`], failing where
    /// it fails. A partition keeps its lowercased name and the requested
    /// columns that resolve on its table.
    pub fn from_design(catalog: &'a Catalog, design: &Design) -> Result<Self, WhatIfError> {
        let overlay = design.apply(catalog)?;
        let mut partitions = PartitionDesign::default();
        for p in &design.partitions {
            let parent = catalog
                .table_by_name(&p.table)
                .ok_or_else(|| WhatIfError::UnknownTable(p.table.clone()))?;
            partitions.fragments.push(NamedFragment {
                name: p.name.to_ascii_lowercase(),
                fragment: Fragment::new(
                    parent.id,
                    p.columns.iter().filter_map(|c| parent.column_index(c)),
                ),
            });
        }
        Ok(WhatIfDesign { overlay, partitions })
    }

    /// Simulate an advisor's fragment set, naming fragments `{table}_p{n}`.
    /// A fragment whose parent table vanished from the catalog, whose
    /// column indexes are stale, or whose simulation is rejected is skipped
    /// rather than fatal: the rewriter never references it and the affected
    /// queries keep their original plans — degraded, not crashed.
    pub fn from_fragments(catalog: &'a Catalog, fragments: &[Fragment]) -> Self {
        let mut overlay = HypotheticalCatalog::new(catalog);
        let mut partitions = PartitionDesign::default();
        let mut counters: std::collections::HashMap<TableId, usize> =
            std::collections::HashMap::new();
        for f in fragments {
            let n = counters.entry(f.table).or_insert(0);
            *n += 1;
            let Some(parent) = catalog.table(f.table) else { continue };
            let name = format!("{}_p{n}", parent.name);
            let cols: Vec<&str> = f
                .columns
                .iter()
                .filter_map(|&i| parent.columns.get(i).map(|c| c.name.as_str()))
                .collect();
            if cols.len() != f.columns.len() {
                continue;
            }
            let def = WhatIfPartition::new(name.clone(), parent.name.clone(), &cols);
            if simulate_partition(&mut overlay, &def).is_ok() {
                partitions.fragments.push(NamedFragment { name, fragment: f.clone() });
            }
        }
        WhatIfDesign { overlay, partitions }
    }

    /// Rewrite `sel` for the simulated partitions, bind and plan it under
    /// the overlay, and keep the result only if it costs less than `than`.
    /// `None` when no partition is simulated, when the rewrite, bind or
    /// plan fails, or when the rewrite is not cheaper. The rewritten
    /// statement comes back with its binding and plan. Every plan run is
    /// counted in `trace`.
    pub fn cheaper_rewrite(
        &self,
        sel: &Select,
        params: &CostParams,
        flags: &PlannerFlags,
        than: f64,
        trace: &Trace,
    ) -> Option<(Select, BoundQuery, PlanNode)> {
        if self.partitions.is_empty() {
            return None;
        }
        let rw = rewrite_select(sel, &self.overlay, &self.partitions).ok()?;
        let q = bind(&rw, &self.overlay).ok()?;
        trace.count(Counter::OptimizerInvocations, 1);
        let p = plan_query(&q, &self.overlay, params, flags).ok()?;
        (p.cost.total < than).then_some((rw, q, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parinda_catalog::{Column, SqlType};
    use parinda_whatif::WhatIfIndex;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let t = c.create_table(
            "obj",
            vec![
                Column::new("id", SqlType::Int8).not_null(),
                Column::new("a", SqlType::Float8).not_null(),
                Column::new("b", SqlType::Float8).not_null(),
            ],
            500_000,
        );
        c.table_mut(t).unwrap().primary_key = vec![0];
        c.create_index("i_id", "obj", &["id"]).unwrap();
        c
    }

    #[test]
    fn from_design_simulates_partitions_before_indexes() {
        // an index on a what-if partition needs the partition first
        let c = catalog();
        let design = Design::new()
            .with_drop("i_id")
            .with_partition(WhatIfPartition::new("Obj_P1", "obj", &["a"]))
            .with_index(WhatIfIndex::new("w_p1_a", "Obj_P1", &["a"]));
        let w = WhatIfDesign::from_design(&c, &design).unwrap();
        let obj = c.table_by_name("obj").unwrap().id;
        assert!(w.overlay.indexes_on(obj).is_empty(), "drop masked");
        let frag = w.overlay.table_by_name("obj_p1").unwrap().id;
        assert_eq!(w.overlay.indexes_on(frag).len(), 1);
        assert_eq!(w.partitions.fragments.len(), 1);
        assert_eq!(w.partitions.fragments[0].name, "obj_p1");
        assert_eq!(w.partitions.fragments[0].fragment, Fragment::new(obj, [1]));
    }

    #[test]
    fn from_fragments_skips_stale_fragments_and_numbers_per_table() {
        let c = catalog();
        let obj = c.table_by_name("obj").unwrap().id;
        let frags = [Fragment::new(obj, [1]), Fragment::new(obj, [7]), Fragment::new(obj, [2])];
        let w = WhatIfDesign::from_fragments(&c, &frags);
        let names: Vec<&str> = w.partitions.fragments.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["obj_p1", "obj_p3"]);
        assert_eq!(w.overlay.hypo_tables().len(), 2);
        assert_eq!(w.partitions.fragments[1].fragment, frags[2]);
    }

    #[test]
    fn cheaper_rewrite_needs_partitions_and_a_cheaper_plan() {
        let c = catalog();
        let sel = parinda_sql::parse_select("SELECT a FROM obj WHERE a > 0.5").unwrap();
        let (params, flags) = (CostParams::default(), PlannerFlags::default());
        let trace = Trace::recording();
        let none = WhatIfDesign::from_fragments(&c, &[]);
        assert!(none.cheaper_rewrite(&sel, &params, &flags, f64::INFINITY, &trace).is_none());
        let obj = c.table_by_name("obj").unwrap().id;
        let w = WhatIfDesign::from_fragments(&c, &[Fragment::new(obj, [1]), Fragment::new(obj, [2])]);
        let (rw, _, plan) = w.cheaper_rewrite(&sel, &params, &flags, f64::INFINITY, &trace).unwrap();
        assert_eq!(rw.from[0].name, "obj_p1");
        assert!(w.cheaper_rewrite(&sel, &params, &flags, plan.cost.total, &trace).is_none());
        assert_eq!(trace.snapshot().counter(Counter::OptimizerInvocations), 2);
    }
}
