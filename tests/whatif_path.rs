//! `explain` and `eval` cost a statement under a staged what-if design
//! along the same path: the cheaper of the statement as written and its
//! rewrite for the simulated partitions. `explain`'s what-if total is
//! therefore `eval`'s after-cost, for index, partition and mixed designs,
//! and `eval` counts exactly the optimizer invocations it runs.

use parinda::{Counter, Design, Parinda, Trace, WhatIfIndex, WhatIfPartition};
use parinda_workload::{sdss_catalog, synthesize_stats, SdssScale};

fn paper_session() -> Parinda {
    let (mut cat, tables) = sdss_catalog(SdssScale::paper());
    synthesize_stats(&mut cat, &tables);
    Parinda::new(cat)
}

const COVERED: &str = "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 10 AND 20";
const UNCOVERED: &str = "SELECT ra, dec, type FROM photoobj WHERE objid = 42";

fn astro() -> WhatIfPartition {
    WhatIfPartition::new("photoobj_astro", "photoobj", &["ra", "dec"])
}

/// The `a -> b` figures of `explain`'s `what-if total:` line.
fn whatif_total(explain: &str) -> (String, String) {
    let line = explain
        .lines()
        .find_map(|l| l.strip_prefix("what-if total: "))
        .unwrap_or_else(|| panic!("no what-if total in:\n{explain}"));
    let (before, rest) = line.split_once(" -> ").expect("a -> b");
    let after = rest.split_whitespace().next().expect("after figure");
    (before.to_string(), after.to_string())
}

#[test]
fn explain_whatif_total_equals_eval_cost_after() {
    let session = paper_session();
    let designs = [
        ("index", Design::new().with_index(WhatIfIndex::new("w_ra", "photoobj", &["ra"]))),
        ("partition", Design::new().with_partition(astro())),
        (
            "mixed",
            Design::new()
                .with_partition(astro())
                .with_index(WhatIfIndex::new("w_objid", "photoobj", &["objid"])),
        ),
    ];
    for (label, design) in &designs {
        for sql in [COVERED, UNCOVERED] {
            let sel = parinda::parse_select(sql).expect("parse");
            let (report, rewritten) =
                session.evaluate_design(std::slice::from_ref(&sel), design).expect("eval");
            let q = &report.per_query[0];
            let out = session.explain_sql_breakdown(sql, Some(design)).expect("explain");
            let (before, after) = whatif_total(&out);
            assert_eq!(before, format!("{:.2}", q.cost_before), "{label}: {sql}");
            assert_eq!(after, format!("{:.2}", q.cost_after), "{label}: {sql}\n{out}");
            // the rewritten statement is shown exactly when eval chose it
            let shown = format!("rewritten query:\n  {};", rewritten[0]);
            assert_eq!(out.contains(&shown), rewritten[0] != sel, "{label}: {sql}\n{out}");
            if *label != "index" && sql == COVERED {
                // the witness: only the rewrite makes this query cheaper
                assert_ne!(rewritten[0], sel, "{label}: partition ignored\n{out}");
                assert!(q.cost_after < q.cost_before, "{label}: partition ignored\n{out}");
            }
        }
    }
}

/// Per statement: one plan before, one direct plan under the design, and
/// one more for a rewrite that reaches the planner. The uncovered query's
/// rewrite fails (no fragment stores `type`), so it adds no plan.
#[test]
fn eval_counts_the_plans_it_runs() {
    let mut session = paper_session();
    let wl: Vec<_> = [COVERED, UNCOVERED]
        .iter()
        .map(|s| parinda::parse_select(s).expect("parse"))
        .collect();
    let count = |session: &mut Parinda, design: &Design| {
        session.set_trace(Trace::recording());
        session.evaluate_design(&wl, design).expect("eval");
        session.trace().snapshot().counter(Counter::OptimizerInvocations)
    };
    let index = Design::new().with_index(WhatIfIndex::new("w_ra", "photoobj", &["ra"]));
    assert_eq!(count(&mut session, &index), 4);
    assert_eq!(count(&mut session, &Design::new().with_partition(astro())), 5);
}
