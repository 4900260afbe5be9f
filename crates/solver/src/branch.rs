//! Best-first branch-and-bound for 0/1 integer programs over the LP
//! relaxation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use parinda_parallel::CancelToken;
use parinda_trace::{Counter, Trace};

use crate::lp::{LinearProgram, LpOutcome, LpSolution};
use crate::simplex;

/// Tolerance for calling a relaxation value integral.
const INT_EPS: f64 = 1e-6;

/// A 0/1 integer program: the LP plus the set of binary variables.
#[derive(Debug, Clone)]
pub struct IntegerProgram {
    /// The relaxation (binary variables must have upper bound ≤ 1).
    pub lp: LinearProgram,
    /// Indices of variables constrained to {0, 1}.
    pub binary: Vec<usize>,
}

/// Solver limits. Besides the node cap, a solve can carry a wall-clock
/// deadline (monotonic clock) and a cooperative [`CancelToken`], both
/// checked once per branch-and-bound node; hitting any limit stops the
/// search with `proven_optimal: false` (or [`IlpOutcome::Limit`] when no
/// incumbent was found yet) — never a misreported `Infeasible`.
#[derive(Debug, Clone)]
pub struct SolveLimits {
    /// Maximum branch-and-bound nodes to expand (`None` = unlimited).
    pub max_nodes: Option<usize>,
    /// Stop expanding nodes once this instant passes.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation, polled once per node.
    pub cancel: Option<CancelToken>,
    /// Observability handle (disabled by default): the search records an
    /// `ilp_rounds/bnb` span and the `solver_nodes` /
    /// `bnb_pruned_by_incumbent` counters. Tracing never influences the
    /// search itself.
    pub trace: Trace,
    /// Warm-start point (e.g. the greedy advisor's selection): rounded on
    /// the binaries and, when feasible, installed as the initial
    /// incumbent so the very first bound check can prune. An infeasible
    /// or mis-sized seed is silently ignored — a warm start may only
    /// accelerate the search, never change its answer.
    pub warm_start: Option<Vec<f64>>,
}

impl Default for SolveLimits {
    fn default() -> Self {
        SolveLimits::nodes(SolveLimits::DEFAULT_MAX_NODES)
    }
}

impl SolveLimits {
    /// The default node cap used by the advisors.
    pub const DEFAULT_MAX_NODES: usize = 50_000;

    /// The advisors' default: node cap only.
    pub fn nodes(max_nodes: usize) -> Self {
        SolveLimits {
            max_nodes: Some(max_nodes),
            deadline: None,
            cancel: None,
            trace: Trace::disabled(),
            warm_start: None,
        }
    }

    /// Has any limit (other than the node cap) tripped?
    fn interrupted(&self) -> bool {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return true;
            }
        }
        match self.deadline {
            // parinda-lint: allow(nondeterminism): deadline-expiry check mirrors Budget::expired — results under a deadline are explicitly marked degraded
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }
}

/// Result of an ILP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IlpSolution {
    /// Variable assignment (binaries are exactly 0.0 or 1.0).
    pub x: Vec<f64>,
    /// Objective value.
    pub objective: f64,
    /// True when the search proved optimality (no node limit hit).
    pub proven_optimal: bool,
    /// Nodes expanded.
    pub nodes: usize,
}

/// ILP outcome.
///
/// `Infeasible` is a *proof*: the search exhausted the tree without any
/// limit tripping. A solve that was stopped by a node cap, deadline, or
/// cancellation before finding an integral point reports [`Limit`]
/// instead, so a degraded run is never misreported as infeasible. A
/// limit-stopped solve that *did* find an incumbent reports
/// `Solved` with `proven_optimal: false`.
///
/// [`Limit`]: IlpOutcome::Limit
#[derive(Debug, Clone, PartialEq)]
pub enum IlpOutcome {
    Solved(IlpSolution),
    Infeasible,
    Unbounded,
    /// A node/deadline/cancel limit stopped the search before any
    /// feasible integral point was found; feasibility is unknown.
    Limit,
}

struct Node {
    bound: f64,
    /// (variable, fixed value) pairs along this branch.
    fixings: Vec<(usize, u8)>,
    /// The node's relaxation when it is already known — the root's, which
    /// is solved before the search starts to reject infeasible and
    /// unbounded programs.
    solved: Option<LpSolution>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // max-heap on bound: explore the most promising node first
        self.bound.total_cmp(&other.bound)
    }
}

/// Solve a 0/1 integer program by branch-and-bound (maximization).
pub fn solve_ilp(ip: &IntegerProgram, limits: SolveLimits) -> IlpOutcome {
    let _span = limits.trace.span("ilp_rounds/bnb");
    // Every node's tableau is laid out in this one buffer.
    let mut tableau = Vec::new();
    // Root relaxation.
    let root = match relax(ip, &[], &mut tableau) {
        RelaxResult::Solved(s) => s,
        RelaxResult::Infeasible => return IlpOutcome::Infeasible,
        RelaxResult::Unbounded => return IlpOutcome::Unbounded,
        RelaxResult::Limit => return IlpOutcome::Limit,
    };

    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    // Warm start: round the seed on the binaries and install it as the
    // initial incumbent iff it is genuinely feasible. The failpoint
    // degrades to a cold start — same answer, just more nodes.
    if let Some(seed) = &limits.warm_start {
        if !parinda_failpoint::should_fail("solver::warmstart") && seed.len() == ip.lp.num_vars() {
            let mut xi = seed.clone();
            for &j in &ip.binary {
                xi[j] = xi[j].round();
            }
            if ip.lp.is_feasible(&xi, 1e-6) {
                let obj = ip.lp.objective_value(&xi);
                incumbent = Some((obj, xi));
            }
        }
    }
    let mut heap = BinaryHeap::new();
    heap.push(Node { bound: root.objective, fixings: Vec::new(), solved: Some(root) });
    let mut nodes = 0usize;
    let mut pruned_by_incumbent = 0u64;
    let mut proven = true;

    while let Some(node) = heap.pop() {
        if limits.max_nodes.is_some_and(|max| nodes >= max) || limits.interrupted() {
            proven = false;
            break;
        }
        nodes += 1;

        // Bound check against the incumbent.
        if let Some((best, _)) = &incumbent {
            if node.bound <= *best + INT_EPS {
                pruned_by_incumbent += 1;
                continue;
            }
        }

        let sol = match node.solved.map_or_else(|| relax(ip, &node.fixings, &mut tableau), RelaxResult::Solved) {
            RelaxResult::Solved(s) => s,
            RelaxResult::Infeasible => continue,
            RelaxResult::Unbounded => return IlpOutcome::Unbounded,
            RelaxResult::Limit => {
                // The relaxation hit its simplex iteration cap: we know
                // nothing about this subtree. Pruning it would be wrong
                // ("infeasible"); keep the incumbent search honest by
                // dropping the subtree but marking the result unproven.
                proven = false;
                continue;
            }
        };
        let (bound, x) = (sol.objective, &sol.x);
        if let Some((best, _)) = &incumbent {
            if bound <= *best + INT_EPS {
                pruned_by_incumbent += 1;
                continue;
            }
        }

        // Branch on the fractional binary the LP prices highest
        // (largest |reduced cost|); ties break toward the more
        // fractional value, then the lower index — fully deterministic.
        let frac_var = ip
            .binary
            .iter()
            .copied()
            .map(|j| (j, (x[j] - x[j].round()).abs()))
            .filter(|&(_, f)| f > INT_EPS)
            .max_by(|&(ja, fa), &(jb, fb)| {
                sol.reduced_costs[ja]
                    .abs()
                    .total_cmp(&sol.reduced_costs[jb].abs())
                    .then(fa.total_cmp(&fb))
                    .then(jb.cmp(&ja))
            });

        match frac_var {
            None => {
                // Integral: candidate incumbent (round away dust).
                let mut xi = x.clone();
                for &j in &ip.binary {
                    xi[j] = xi[j].round();
                }
                let obj = ip.lp.objective_value(&xi);
                if ip.lp.is_feasible(&xi, 1e-6)
                    && incumbent.as_ref().map(|(b, _)| obj > *b + INT_EPS).unwrap_or(true)
                {
                    incumbent = Some((obj, xi));
                }
            }
            Some((j, _)) => {
                for v in [1u8, 0u8] {
                    let mut fixings = node.fixings.clone();
                    fixings.push((j, v));
                    heap.push(Node { bound, fixings, solved: None });
                }
            }
        }
    }

    limits.trace.count(Counter::SolverNodes, nodes as u64);
    limits.trace.count(Counter::BnbPrunedByIncumbent, pruned_by_incumbent);
    match incumbent {
        Some((objective, x)) => IlpOutcome::Solved(IlpSolution {
            x,
            objective,
            proven_optimal: proven,
            nodes,
        }),
        None => {
            if proven {
                IlpOutcome::Infeasible
            } else {
                // A limit stopped the search before any integral point
                // was found: feasibility is unknown, not disproven.
                IlpOutcome::Limit
            }
        }
    }
}

enum RelaxResult {
    /// Optimal relaxation: bound, point, and reduced costs (the
    /// branching order) travel together.
    Solved(LpSolution),
    Infeasible,
    Unbounded,
    /// The simplex iteration cap (or an injected fault) stopped the
    /// relaxation: the subtree's status is unknown.
    Limit,
}

/// Solve the LP relaxation with branch fixings applied as bound changes.
fn relax(ip: &IntegerProgram, fixings: &[(usize, u8)], tableau: &mut Vec<f64>) -> RelaxResult {
    if parinda_failpoint::should_fail("solver::relax") {
        return RelaxResult::Limit;
    }
    match simplex::solve_fixed(&ip.lp, fixings, tableau) {
        LpOutcome::Optimal(s) => RelaxResult::Solved(s),
        LpOutcome::Infeasible => RelaxResult::Infeasible,
        LpOutcome::Unbounded => RelaxResult::Unbounded,
        // The iteration cap is a *limit*, not an infeasibility proof;
        // see lp.rs. Callers must not prune this subtree as infeasible.
        LpOutcome::IterationLimit => RelaxResult::Limit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::{LinearProgram, Sense};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// Binary knapsack helper.
    fn knapsack(values: &[f64], weights: &[f64], cap: f64) -> IntegerProgram {
        let n = values.len();
        let mut lp = LinearProgram::new(n);
        for (j, &v) in values.iter().enumerate() {
            lp.set_objective(j, v);
            lp.set_upper(j, 1.0);
        }
        lp.add_constraint(
            weights.iter().enumerate().map(|(j, &w)| (j, w)).collect(),
            Sense::Le,
            cap,
        );
        IntegerProgram { lp, binary: (0..n).collect() }
    }

    fn solved(ip: &IntegerProgram) -> IlpSolution {
        match solve_ilp(ip, SolveLimits::default()) {
            IlpOutcome::Solved(s) => s,
            other => panic!("expected solved, got {other:?}"),
        }
    }

    #[test]
    fn small_knapsack_optimal() {
        // values 10, 6, 5; weights 4, 3, 2; cap 5 -> pick {6,5} = 11
        let ip = knapsack(&[10.0, 6.0, 5.0], &[4.0, 3.0, 2.0], 5.0);
        let s = solved(&ip);
        assert!((s.objective - 11.0).abs() < 1e-6, "{s:?}");
        assert!(s.proven_optimal);
        assert_eq!(s.x[0].round() as i32, 0);
    }

    #[test]
    fn knapsack_vs_bruteforce() {
        // deterministic pseudo-random instances
        let mut seed = 42u64;
        let mut rand = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64)
        };
        for _ in 0..20 {
            let n = 8;
            let values: Vec<f64> = (0..n).map(|_| (rand() * 20.0).round() + 1.0).collect();
            let weights: Vec<f64> = (0..n).map(|_| (rand() * 10.0).round() + 1.0).collect();
            let cap = weights.iter().sum::<f64>() * 0.4;
            let ip = knapsack(&values, &weights, cap);
            let s = solved(&ip);
            // brute force
            let mut best = 0.0f64;
            for mask in 0u32..(1 << n) {
                let w: f64 = (0..n).filter(|&j| mask & (1 << j) != 0).map(|j| weights[j]).sum();
                if w <= cap + 1e-9 {
                    let v: f64 =
                        (0..n).filter(|&j| mask & (1 << j) != 0).map(|j| values[j]).sum();
                    best = best.max(v);
                }
            }
            assert!(
                (s.objective - best).abs() < 1e-6,
                "ilp={} brute={best} values={values:?} weights={weights:?} cap={cap}",
                s.objective
            );
        }
    }

    #[test]
    fn binaries_are_integral() {
        let ip = knapsack(&[7.0, 7.0, 7.0], &[2.0, 2.0, 2.0], 3.0);
        let s = solved(&ip);
        for &j in &ip.binary {
            let v = s.x[j];
            assert!((v - v.round()).abs() < 1e-6, "x[{j}]={v}");
        }
        assert!((s.objective - 7.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_ilp() {
        let mut lp = LinearProgram::new(1);
        lp.set_upper(0, 1.0);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(0, 1.0)], Sense::Ge, 2.0);
        let ip = IntegerProgram { lp, binary: vec![0] };
        assert_eq!(solve_ilp(&ip, SolveLimits::default()), IlpOutcome::Infeasible);
    }

    #[test]
    fn consistency_constraints_respected() {
        // x <= y; maximize 5x - y with both binary -> x=y=1 gives 4
        let mut lp = LinearProgram::new(2);
        lp.set_upper(0, 1.0);
        lp.set_upper(1, 1.0);
        lp.set_objective(0, 5.0);
        lp.set_objective(1, -1.0);
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], Sense::Le, 0.0);
        let ip = IntegerProgram { lp, binary: vec![0, 1] };
        let s = solved(&ip);
        assert!((s.objective - 4.0).abs() < 1e-6);
        assert_eq!(s.x[0].round() as i32, 1);
        assert_eq!(s.x[1].round() as i32, 1);
    }

    #[test]
    fn node_limit_reported() {
        // large enough instance that 1 node can't prove optimality
        let values: Vec<f64> = (0..12).map(|i| 10.0 + (i % 5) as f64).collect();
        let weights: Vec<f64> = (0..12).map(|i| 5.0 + (i % 3) as f64).collect();
        let ip = knapsack(&values, &weights, 30.0);
        match solve_ilp(&ip, SolveLimits::nodes(2)) {
            IlpOutcome::Solved(s) => assert!(!s.proven_optimal),
            // Found nothing integral in 2 nodes: that is a limit, not an
            // infeasibility proof.
            IlpOutcome::Limit => {}
            other => panic!("{other:?}"),
        }
    }

    /// A node-capped solve on a feasible instance must never claim
    /// `Infeasible` — it either has an unproven incumbent or reports
    /// `Limit`.
    #[test]
    fn limit_never_misreported_as_infeasible() {
        let values: Vec<f64> = (0..14).map(|i| 10.0 + (i % 7) as f64).collect();
        let weights: Vec<f64> = (0..14).map(|i| 4.0 + (i % 5) as f64).collect();
        let ip = knapsack(&values, &weights, 25.0);
        for cap in 0..8 {
            match solve_ilp(&ip, SolveLimits::nodes(cap)) {
                IlpOutcome::Solved(_) | IlpOutcome::Limit => {}
                other => panic!("max_nodes={cap}: {other:?}"),
            }
        }
    }

    /// An already-expired deadline stops the search at the first node.
    #[test]
    fn expired_deadline_stops_search() {
        let ip = knapsack(&[10.0, 6.0, 5.0], &[4.0, 3.0, 2.0], 5.0);
        let limits = SolveLimits { deadline: Some(Instant::now()), ..SolveLimits::default() };
        match solve_ilp(&ip, limits) {
            IlpOutcome::Limit => {}
            IlpOutcome::Solved(s) => assert!(!s.proven_optimal),
            other => panic!("{other:?}"),
        }
    }

    /// A feasible warm start never changes the proven optimum, only the
    /// work needed to prove it (nodes expanded), and the prune counter
    /// actually records the incumbent doing its job.
    #[test]
    fn warm_start_preserves_optimum_and_prunes() {
        let values: Vec<f64> = (0..12).map(|i| 10.0 + (i % 5) as f64).collect();
        let weights: Vec<f64> = (0..12).map(|i| 5.0 + (i % 3) as f64).collect();
        let ip = knapsack(&values, &weights, 30.0);
        let cold = solved(&ip);
        assert!(cold.proven_optimal);

        let trace = Trace::recording();
        let limits = SolveLimits {
            warm_start: Some(cold.x.clone()),
            trace: trace.clone(),
            ..SolveLimits::default()
        };
        let warm = match solve_ilp(&ip, limits) {
            IlpOutcome::Solved(s) => s,
            other => panic!("{other:?}"),
        };
        assert!(warm.proven_optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-6);
        assert!(warm.nodes <= cold.nodes, "warm {} > cold {}", warm.nodes, cold.nodes);
        let r = trace.snapshot();
        assert_eq!(r.counter(Counter::SolverNodes), warm.nodes as u64);
        assert!(r.counter(Counter::BnbPrunedByIncumbent) > 0, "incumbent never pruned");
    }

    /// An infeasible or mis-sized seed must be ignored, not trusted.
    #[test]
    fn bad_warm_starts_are_ignored() {
        let ip = knapsack(&[10.0, 6.0, 5.0], &[4.0, 3.0, 2.0], 5.0);
        let cold = solved(&ip);
        for seed in [vec![1.0, 1.0, 1.0], vec![1.0]] {
            let limits = SolveLimits { warm_start: Some(seed), ..SolveLimits::default() };
            match solve_ilp(&ip, limits) {
                IlpOutcome::Solved(s) => {
                    assert!(s.proven_optimal);
                    assert!((s.objective - cold.objective).abs() < 1e-6);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    /// The all-zero point is feasible for a knapsack, so a zero warm
    /// start yields an incumbent even under a 0-node cap: the solve
    /// reports it (unproven) instead of `Limit`.
    #[test]
    fn zero_warm_start_survives_a_zero_node_cap() {
        let ip = knapsack(&[10.0, 6.0, 5.0], &[4.0, 3.0, 2.0], 5.0);
        let limits =
            SolveLimits { warm_start: Some(vec![0.0; 3]), ..SolveLimits::nodes(0) };
        match solve_ilp(&ip, limits) {
            IlpOutcome::Solved(s) => {
                assert!(!s.proven_optimal);
                assert!(s.objective.abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }

    /// The root relaxation is solved before the search starts and handed
    /// to the root node, not solved again when that node is popped.
    #[test]
    fn integral_root_is_solved_exactly_once() {
        // everything fits: the relaxation's optimum is the all-ones point
        let ip = knapsack(&[3.0, 2.0, 1.0], &[1.0, 1.0, 1.0], 10.0);
        let before = simplex::SOLVES.with(|n| n.get());
        let s = solved(&ip);
        assert_eq!(simplex::SOLVES.with(|n| n.get()) - before, 1);
        assert_eq!(s.nodes, 1);
        assert!(s.proven_optimal);
        assert!((s.objective - 6.0).abs() < 1e-9);
    }

    /// An index-selection-shaped program as the advisor builds it: build
    /// variables `y`, one `x` per positive (query, candidate) benefit
    /// with an `x ≤ y` row, one-access-path rows per (query, table) group,
    /// one storage row, and the −1e-9·size penalty on `y`.
    struct IndexSelection {
        ip: IntegerProgram,
        n_y: usize,
        /// Per `x`, in variable order: its (query, table) group, its
        /// benefit, and the candidate it needs built.
        xs: Vec<((usize, u64), f64, usize)>,
    }

    impl IndexSelection {
        fn random(rng: &mut StdRng, n_y: usize) -> IndexSelection {
            let n_tables = 1 + n_y as u64 / 4;
            let tables: Vec<u64> = (0..n_y).map(|_| rng.gen_range(0..n_tables)).collect();
            let sizes: Vec<f64> = (0..n_y).map(|_| rng.gen_range(10..101) as f64).collect();
            let mut xs = Vec::new();
            for q in 0..1 + n_y / 2 {
                for (ci, &table) in tables.iter().enumerate() {
                    if rng.gen_bool(0.3) {
                        xs.push(((q, table), rng.gen_range(1..52) as f64, ci));
                    }
                }
            }
            let mut lp = LinearProgram::new(n_y + xs.len());
            for j in 0..lp.num_vars() {
                lp.set_upper(j, 1.0);
            }
            for (ci, &s) in sizes.iter().enumerate() {
                lp.set_objective(ci, -1e-9 * s);
            }
            let mut groups: BTreeMap<(usize, u64), Vec<(usize, f64)>> = BTreeMap::new();
            for (k, &(group, b, ci)) in xs.iter().enumerate() {
                lp.set_objective(n_y + k, b);
                lp.add_constraint(vec![(n_y + k, 1.0), (ci, -1.0)], Sense::Le, 0.0);
                groups.entry(group).or_default().push((n_y + k, 1.0));
            }
            for members in groups.into_values().filter(|members| members.len() > 1) {
                lp.add_constraint(members, Sense::Le, 1.0);
            }
            let budget = sizes.iter().sum::<f64>() * (0.2 + 0.4 * rng.gen::<f64>());
            lp.add_constraint(sizes.iter().copied().enumerate().collect(), Sense::Le, budget);
            let binary = (0..lp.num_vars()).collect();
            IndexSelection { ip: IntegerProgram { lp, binary }, n_y, xs }
        }

        /// The best point that builds exactly the `y` subset `mask`: each
        /// group takes its most beneficial `x` among the built candidates.
        fn point(&self, mask: u32) -> Vec<f64> {
            let mut p = vec![0.0; self.ip.lp.num_vars()];
            let mut best: BTreeMap<(usize, u64), (f64, usize)> = BTreeMap::new();
            for (k, &(group, b, ci)) in self.xs.iter().enumerate() {
                if mask & (1 << ci) != 0 && best.get(&group).is_none_or(|&(top, _)| b > top) {
                    best.insert(group, (b, k));
                }
            }
            for ci in (0..self.n_y).filter(|ci| mask & (1 << ci) != 0) {
                p[ci] = 1.0;
            }
            for &(_, k) in best.values() {
                p[self.n_y + k] = 1.0;
            }
            p
        }

        /// Objective of `point(mask)`, `None` when it overflows the budget.
        fn value(&self, mask: u32) -> Option<f64> {
            let p = self.point(mask);
            self.ip.lp.is_feasible(&p, 1e-9).then(|| self.ip.lp.objective_value(&p))
        }

        /// Enumerated optimum over the `y` subsets that `keep` admits.
        fn brute_force(&self, keep: impl Fn(u32) -> bool) -> f64 {
            (0u32..1 << self.n_y)
                .filter(|&mask| keep(mask))
                .filter_map(|mask| self.value(mask))
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// ROADMAP 4a: the branch-and-bound against exhaustive enumeration on
    /// index-selection-shaped programs, cold and warm-started, and the
    /// node relaxation's fixings against the enumerated restricted
    /// problems.
    #[test]
    fn index_selection_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..27 {
            let inst = IndexSelection::random(&mut rng, 6 + case % 9);
            let (ip, n_y) = (&inst.ip, inst.n_y);
            let best = inst.brute_force(|_| true);

            // a feasible, usually suboptimal seed: the best single candidate
            let single = (0..n_y)
                .filter_map(|ci| inst.value(1 << ci).map(|v| (v, ci)))
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .map_or(0, |(_, ci)| 1u32 << ci);
            for warm_start in [None, Some(inst.point(single))] {
                let warm = warm_start.is_some();
                match solve_ilp(ip, SolveLimits { warm_start, ..SolveLimits::default() }) {
                    IlpOutcome::Solved(s) => {
                        assert!(s.proven_optimal, "case {case} warm={warm}");
                        assert!(
                            (s.objective - best).abs() < 1e-6,
                            "case {case} warm={warm}: ilp {} vs brute force {best}",
                            s.objective
                        );
                        assert!(ip.lp.is_feasible(&s.x, 1e-6));
                    }
                    other => panic!("case {case} warm={warm}: {other:?}"),
                }
            }

            // One variable fixed either way: the relaxation bounds the
            // enumerated optimum of the restricted problem from above.
            for j in [case % n_y, n_y - 1] {
                for v in [0u8, 1] {
                    let restricted = inst.brute_force(|mask| (mask >> j) & 1 == u32::from(v));
                    match relax(ip, &[(j, v)], &mut Vec::new()) {
                        RelaxResult::Solved(s) => {
                            assert!(s.objective >= restricted - 1e-6, "case {case} y{j}={v}");
                            assert!((s.x[j] - f64::from(v)).abs() < 1e-9, "case {case} y{j}={v}");
                        }
                        RelaxResult::Infeasible => assert_eq!(restricted, f64::NEG_INFINITY),
                        _ => panic!("case {case} y{j}={v}: relaxation hit a limit"),
                    }
                }
            }

            // Every `y` fixed: what is left is one best `x` per group, so
            // the relaxation is integral and equals the enumerated value.
            for _ in 0..6 {
                // (two draws and-ed: a quarter of the candidates, so that
                // about half the subsets fit the budget)
                let mask = (rng.gen::<u32>() & rng.gen::<u32>()) % (1 << n_y);
                let fixings: Vec<(usize, u8)> =
                    (0..n_y).map(|ci| (ci, ((mask >> ci) & 1) as u8)).collect();
                match (relax(ip, &fixings, &mut Vec::new()), inst.value(mask)) {
                    (RelaxResult::Solved(s), Some(value)) => {
                        assert!((s.objective - value).abs() < 1e-6, "case {case} mask {mask:b}")
                    }
                    (RelaxResult::Infeasible, None) => {}
                    _ => panic!("case {case} mask {mask:b}: relaxation and enumeration disagree"),
                }
            }
        }
    }

    /// A fired cancel token stops the search the same way.
    #[test]
    fn cancelled_token_stops_search() {
        let ip = knapsack(&[10.0, 6.0, 5.0], &[4.0, 3.0, 2.0], 5.0);
        let token = CancelToken::new();
        token.cancel();
        let limits = SolveLimits { cancel: Some(token), ..SolveLimits::default() };
        match solve_ilp(&ip, limits) {
            IlpOutcome::Limit => {}
            IlpOutcome::Solved(s) => assert!(!s.proven_optimal),
            other => panic!("{other:?}"),
        }
    }
}
