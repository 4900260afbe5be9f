//! Dense two-phase primal simplex.
//!
//! Finite upper bounds are materialized as explicit `x ≤ u` rows, which
//! keeps the tableau logic textbook-simple; the instances PARINDA produces
//! (hundreds of variables) stay comfortably small. The tableau is one
//! row-major buffer and carries the running phase's reduced-cost row
//! through every pivot, so an iteration costs its pivot plus one O(n)
//! pricing scan.

use crate::lp::{LinearProgram, LpOutcome, LpSolution, Sense};

const EPS: f64 = 1e-9;

/// Solve an LP with the two-phase simplex method.
pub fn solve(lp: &LinearProgram) -> LpOutcome {
    solve_fixed(lp, &[], &mut Vec::new())
}

/// Solve `lp` with branch fixings `(variable, 0 | 1)` applied: the
/// branch-and-bound's node relaxation, built straight from the root
/// program instead of from a modified copy of it. `buffer` holds the
/// tableau; a search passes the same one to every node, so its megabytes
/// are allocated once per search, not once per node.
pub(crate) fn solve_fixed(
    lp: &LinearProgram,
    fixings: &[(usize, u8)],
    buffer: &mut Vec<f64>,
) -> LpOutcome {
    if parinda_failpoint::should_fail("solver::simplex") {
        return LpOutcome::IterationLimit;
    }
    #[cfg(test)]
    SOLVES.with(|n| n.set(n.get() + 1));
    let mut tableau = Tableau::build(lp, fixings, std::mem::take(buffer));
    let outcome = tableau.solve(lp);
    *buffer = tableau.a;
    outcome
}

struct Tableau {
    /// Full tableau, row-major with `stride` entries per row: rows =
    /// constraints, cols = structural + slack/surplus + artificial + rhs.
    a: Vec<f64>,
    stride: usize,
    /// Basis: for each row, the column currently basic in it.
    basis: Vec<usize>,
    /// Per column: is it in `basis`?
    in_basis: Vec<bool>,
    /// Reduced-cost row `r_j = c_j − c_B·a_j` of the running phase's
    /// objective. Computed once when the phase starts, then carried
    /// through every pivot, so pricing is one scan over it. The column
    /// that just entered is exactly 0.0; other basic columns may carry
    /// rounding dust and are masked by `in_basis`.
    r: Vec<f64>,
    n_struct: usize,
    /// First artificial column; artificials fill `[first_art, n_total)`.
    first_art: usize,
    n_total: usize,
    max_iters: usize,
    /// Test-only reference mode: re-derive `r` from scratch before every
    /// pricing scan, as the solver did before the row was maintained.
    #[cfg(test)]
    from_scratch: bool,
}

/// One tableau row before it is laid out, normalized to `rhs >= 0`;
/// `terms` borrows from the program and is scaled by `sign`.
struct Row<'a> {
    terms: &'a [(usize, f64)],
    sign: f64,
    sense: Sense,
    rhs: f64,
}

impl<'a> Row<'a> {
    fn new(terms: &'a [(usize, f64)], sense: Sense, rhs: f64) -> Self {
        let flip = rhs < 0.0;
        let sense = match sense {
            Sense::Le if flip => Sense::Ge,
            Sense::Ge if flip => Sense::Le,
            same => same,
        };
        let sign = if flip { -1.0 } else { 1.0 };
        Row { terms, sign, sense, rhs: sign * rhs }
    }
}

impl Tableau {
    /// Lay out `lp` with `fixings` applied. Rows, in order: the program's
    /// constraints, one `x_j = 1` row per variable fixed to 1 (lower
    /// bounds are not part of the model), then one `x_j ≤ u_j` row per
    /// finite upper bound, where a variable fixed to 0 has `u_j = 0`.
    fn build(lp: &LinearProgram, fixings: &[(usize, u8)], mut a: Vec<f64>) -> Tableau {
        let n = lp.num_vars();
        let mut upper = lp.upper.clone();
        for &(j, v) in fixings {
            if v == 0 {
                upper[j] = 0.0;
            }
        }
        let units: Vec<(usize, f64)> = (0..n).map(|j| (j, 1.0)).collect();
        let unit_row = |j: usize, sense, rhs| Row::new(&units[j..=j], sense, rhs);
        let rows: Vec<Row<'_>> = lp
            .constraints
            .iter()
            .map(|c| Row::new(&c.terms, c.sense, c.rhs))
            .chain(fixings.iter().filter(|f| f.1 != 0).map(|f| unit_row(f.0, Sense::Eq, 1.0)))
            .chain(
                upper
                    .iter()
                    .enumerate()
                    .filter(|(_, u)| u.is_finite())
                    .map(|(j, &u)| unit_row(j, Sense::Le, u)),
            )
            .collect();

        // Column layout: [0, n) structural; then one slack/surplus per
        // inequality; then artificials; last = rhs.
        let m = rows.len();
        let n_slack = rows.iter().filter(|r| r.sense != Sense::Eq).count();
        let n_art = rows.iter().filter(|r| r.sense != Sense::Le).count();
        let first_art = n + n_slack;
        let n_total = first_art + n_art;
        let stride = n_total + 1;

        a.clear();
        a.resize(m * stride, 0.0);
        let mut basis = Vec::with_capacity(m);
        let mut slack_next = n;
        let mut art_next = first_art;
        for (r, row) in rows.iter().zip(a.chunks_exact_mut(stride)) {
            for &(j, coef) in r.terms {
                row[j] += r.sign * coef;
            }
            row[n_total] = r.rhs;
            if r.sense != Sense::Eq {
                row[slack_next] = if r.sense == Sense::Le { 1.0 } else { -1.0 };
                slack_next += 1;
            }
            if r.sense == Sense::Le {
                basis.push(slack_next - 1);
            } else {
                row[art_next] = 1.0;
                basis.push(art_next);
                art_next += 1;
            }
        }
        let mut in_basis = vec![false; n_total];
        for &b in &basis {
            in_basis[b] = true;
        }

        Tableau {
            a,
            stride,
            basis,
            in_basis,
            r: vec![0.0; n_total],
            n_struct: n,
            first_art,
            n_total,
            max_iters: 200 * (m + n_total + 16),
            #[cfg(test)]
            from_scratch: false,
        }
    }

    fn solve(&mut self, lp: &LinearProgram) -> LpOutcome {
        // Phase 1: minimize the sum of artificials (maximize the negated
        // sum) — only needed when artificials exist.
        if self.first_art < self.n_total {
            let mut obj = vec![0.0; self.n_total];
            obj[self.first_art..].fill(-1.0);
            match self.optimize(&obj, self.n_total) {
                Phase::Optimal(v) => {
                    if v < -1e-7 {
                        return LpOutcome::Infeasible;
                    }
                }
                Phase::Unbounded => return LpOutcome::Infeasible, // cannot happen; defensive
                Phase::IterationLimit => return LpOutcome::IterationLimit,
            }
            // Drive any artificial still basic (at zero) out of the basis.
            for i in 0..self.basis.len() {
                if self.basis[i] >= self.first_art {
                    let candidates = &self.row(i)[..self.first_art];
                    if let Some(j) = candidates.iter().position(|v| v.abs() > 1e-7) {
                        self.pivot(i, j);
                    }
                }
            }
        }

        // Phase 2: the real objective (artificials pinned at zero by
        // keeping them out of pricing).
        let mut obj = vec![0.0; self.n_total];
        obj[..self.n_struct].copy_from_slice(&lp.objective);
        match self.optimize(&obj, self.first_art) {
            Phase::Optimal(v) => {
                let mut x = vec![0.0; self.n_struct];
                for (i, &b) in self.basis.iter().enumerate() {
                    if b < self.n_struct {
                        x[b] = self.rhs(i);
                    }
                }
                // Basic columns report exactly 0.0 — the branch-and-bound
                // orders its branching by these.
                let reduced_costs = (0..self.n_struct)
                    .map(|j| if self.in_basis[j] { 0.0 } else { self.r[j] })
                    .collect();
                LpOutcome::Optimal(LpSolution { x, objective: v, reduced_costs })
            }
            Phase::Unbounded => LpOutcome::Unbounded,
            Phase::IterationLimit => LpOutcome::IterationLimit,
        }
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.a[i * self.stride..(i + 1) * self.stride]
    }

    fn rhs(&self, i: usize) -> f64 {
        self.row(i)[self.n_total]
    }

    /// Reduced costs of `obj` at the current basis, from scratch:
    /// `r_j = c_j − Σ_i c_B[i]·a[i][j]`, rows summed in order.
    fn reduced_cost_row(&self, obj: &[f64]) -> Vec<f64> {
        let mut r = obj.to_vec();
        for (&b, row) in self.basis.iter().zip(self.a.chunks_exact(self.stride)) {
            let ci = obj[b];
            if ci != 0.0 {
                for (rj, aij) in r.iter_mut().zip(row) {
                    *rj -= ci * aij;
                }
            }
        }
        r
    }

    /// Primal simplex over the current basis, maximizing `obj`; only
    /// columns below `price_end` may enter. Returns the objective value.
    fn optimize(&mut self, obj: &[f64], price_end: usize) -> Phase {
        self.r = self.reduced_cost_row(obj);
        for iter in 0..self.max_iters {
            #[cfg(test)]
            if self.from_scratch {
                self.r = self.reduced_cost_row(obj);
            }
            // price: the largest reduced cost among the nonbasic columns
            let mut entering: Option<usize> = None;
            let mut best = EPS;
            let bland = iter > self.max_iters / 2;
            for (j, &rj) in self.r[..price_end].iter().enumerate() {
                if rj > best && !self.in_basis[j] {
                    entering = Some(j);
                    if bland {
                        break; // Bland's rule: first improving column
                    }
                    best = rj;
                }
            }
            let Some(j) = entering else {
                #[cfg(test)]
                tests::assert_row_matches_reference(self, obj);
                // optimal: compute objective value
                let v: f64 = self
                    .basis
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| obj[b] * self.rhs(i))
                    .sum();
                return Phase::Optimal(v);
            };

            // ratio test
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for (i, row) in self.a.chunks_exact(self.stride).enumerate() {
                let aij = row[j];
                if aij > EPS {
                    let ratio = row[self.n_total] / aij;
                    if ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave.is_some_and(|l| self.basis[i] < self.basis[l]))
                    {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(i) = leave else {
                return Phase::Unbounded;
            };
            self.pivot(i, j);
        }
        Phase::IterationLimit
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let (above, rest) = self.a.split_at_mut(row * self.stride);
        let (pivot_row, below) = rest.split_at_mut(self.stride);
        let piv = pivot_row[col];
        debug_assert!(piv.abs() > EPS);
        let inv = 1.0 / piv;
        for v in pivot_row.iter_mut() {
            *v *= inv;
        }
        for other in above.chunks_exact_mut(self.stride).chain(below.chunks_exact_mut(self.stride))
        {
            let factor = other[col];
            if factor.abs() > EPS {
                for (v, p) in other.iter_mut().zip(pivot_row.iter()) {
                    *v -= factor * p;
                }
            }
        }
        let rc = self.r[col];
        for (rj, p) in self.r.iter_mut().zip(pivot_row.iter()) {
            *rj -= rc * p;
        }
        self.r[col] = 0.0;
        self.in_basis[self.basis[row]] = false;
        self.in_basis[col] = true;
        self.basis[row] = col;
    }
}

enum Phase {
    Optimal(f64),
    Unbounded,
    IterationLimit,
}

#[cfg(test)]
thread_local! {
    /// LP solves started on this thread, for tests that count them.
    pub(crate) static SOLVES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::{LinearProgram, Sense};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Every phase end of every solve in this crate's unit tests lands
    /// here: the row carried through the pivots must equal the row derived
    /// from scratch at the final basis. A pivot that forgets to update the
    /// row fails this.
    pub(super) fn assert_row_matches_reference(t: &Tableau, obj: &[f64]) {
        let reference = t.reduced_cost_row(obj);
        for (j, (&kept, &fresh)) in t.r.iter().zip(&reference).enumerate() {
            assert!(
                (kept - fresh).abs() <= 1e-9 * (1.0 + fresh.abs()),
                "reduced cost of column {j}: maintained {kept} vs from scratch {fresh}"
            );
        }
    }

    fn optimal(lp: &LinearProgram) -> LpSolution {
        match solve(lp) {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    /// A random LP that is feasible (built around a known point `x0`) and
    /// bounded (a variable without an upper bound has a negative
    /// objective coefficient). `degenerate` puts `x0` on a vertex of the
    /// box and makes every row tight at it, so many bases share one vertex.
    fn random_feasible_lp(rng: &mut StdRng, degenerate: bool) -> LinearProgram {
        let n = rng.gen_range(3..10) as usize;
        let m = rng.gen_range(2..9) as usize;
        let mut lp = LinearProgram::new(n);
        let mut x0 = vec![0.0; n];
        for (j, x) in x0.iter_mut().enumerate() {
            let bounded = rng.gen_bool(0.7);
            let upper = rng.gen_range(1..6) as f64;
            if bounded {
                lp.set_upper(j, upper);
            }
            let c: f64 = rng.gen();
            lp.set_objective(j, if bounded { c * 10.0 - 3.0 } else { -c * 5.0 - 0.1 });
            *x = match (degenerate, bounded) {
                (true, true) if rng.gen() => upper,
                (true, _) => 0.0,
                (false, _) => rng.gen::<f64>() * upper,
            };
        }
        for _ in 0..m {
            let mut terms = Vec::new();
            for j in 0..n {
                let a = rng.gen_range(0..9) as f64 - 3.0;
                if a != 0.0 && rng.gen_bool(0.6) {
                    terms.push((j, a));
                }
            }
            let at_x0: f64 = terms.iter().map(|&(j, a)| a * x0[j]).sum();
            let slack = if degenerate { 0.0 } else { rng.gen::<f64>() * 3.0 };
            match rng.gen_range(0..3) {
                0 => lp.add_constraint(terms, Sense::Le, at_x0 + slack),
                1 => lp.add_constraint(terms, Sense::Ge, at_x0 - slack),
                _ => lp.add_constraint(terms, Sense::Eq, at_x0),
            };
        }
        assert!(lp.is_feasible(&x0, 1e-9));
        lp
    }

    /// The maintained reduced-cost row against the from-scratch reference,
    /// over mixed `Le`/`Ge`/`Eq` rows, finite upper bounds and a
    /// degenerate family. `assert_row_matches_reference` checks the row
    /// at every phase end of both solves; here the solutions are compared
    /// and basic columns must read out as exactly 0.0.
    #[test]
    fn maintained_row_matches_from_scratch_reference() {
        let mut rng = StdRng::seed_from_u64(13);
        for case in 0..400 {
            let lp = random_feasible_lp(&mut rng, case % 2 == 1);

            let mut reference = Tableau::build(&lp, &[], Vec::new());
            reference.from_scratch = true;
            let mut kept = Tableau::build(&lp, &[], Vec::new());
            let (LpOutcome::Optimal(want), LpOutcome::Optimal(got)) =
                (reference.solve(&lp), kept.solve(&lp))
            else {
                panic!("case {case}: a feasible bounded LP must solve to optimality: {lp:?}");
            };

            assert!(lp.is_feasible(&got.x, 1e-6), "case {case}");
            assert!((got.objective - want.objective).abs() < 1e-7, "case {case}");
            for (a, b) in got.x.iter().zip(&want.x) {
                assert!((a - b).abs() < 1e-6, "case {case}: {:?} vs {:?}", got.x, want.x);
            }
            for &b in kept.basis.iter().filter(|&&b| b < lp.num_vars()) {
                assert_eq!(got.reduced_costs[b], 0.0, "case {case}: basic column {b}");
            }
        }
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 3.0);
        lp.set_objective(1, 2.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Sense::Le, 4.0);
        lp.add_constraint(vec![(0, 1.0), (1, 3.0)], Sense::Le, 6.0);
        let s = optimal(&lp);
        assert!((s.objective - 12.0).abs() < 1e-6, "{s:?}");
        assert!((s.x[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn interior_optimum() {
        // max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> x=y=4/3, obj=8/3
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.add_constraint(vec![(0, 2.0), (1, 1.0)], Sense::Le, 4.0);
        lp.add_constraint(vec![(0, 1.0), (1, 2.0)], Sense::Le, 4.0);
        let s = optimal(&lp);
        assert!((s.objective - 8.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn upper_bounds_respected() {
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        lp.set_upper(0, 1.0);
        lp.set_upper(1, 0.5);
        let s = optimal(&lp);
        assert!((s.objective - 1.5).abs() < 1e-6);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        assert_eq!(solve(&lp), LpOutcome::Unbounded);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(0, 1.0)], Sense::Le, 1.0);
        lp.add_constraint(vec![(0, 1.0)], Sense::Ge, 2.0);
        assert_eq!(solve(&lp), LpOutcome::Infeasible);
    }

    #[test]
    fn equality_constraints() {
        // max x + 2y s.t. x + y = 3, y <= 2 -> x=1, y=2, obj=5
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 2.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Sense::Eq, 3.0);
        lp.set_upper(1, 2.0);
        let s = optimal(&lp);
        assert!((s.objective - 5.0).abs() < 1e-6, "{s:?}");
    }

    #[test]
    fn ge_constraints_force_minimum_values() {
        // max -x (i.e. minimize x) s.t. x >= 2.5
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, -1.0);
        lp.add_constraint(vec![(0, 1.0)], Sense::Ge, 2.5);
        let s = optimal(&lp);
        assert!((s.x[0] - 2.5).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_normalized() {
        // -x <= -2  <=>  x >= 2; maximize -x -> x = 2
        let mut lp = LinearProgram::new(1);
        lp.set_objective(0, -1.0);
        lp.add_constraint(vec![(0, -1.0)], Sense::Le, -2.0);
        let s = optimal(&lp);
        assert!((s.x[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // several redundant constraints through the same vertex
        let mut lp = LinearProgram::new(2);
        lp.set_objective(0, 1.0);
        lp.set_objective(1, 1.0);
        for k in 1..=5 {
            lp.add_constraint(vec![(0, k as f64), (1, k as f64)], Sense::Le, 2.0 * k as f64);
        }
        let s = optimal(&lp);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn solution_is_feasible() {
        let mut lp = LinearProgram::new(3);
        lp.set_objective(0, 5.0);
        lp.set_objective(1, 4.0);
        lp.set_objective(2, 3.0);
        lp.add_constraint(vec![(0, 2.0), (1, 3.0), (2, 1.0)], Sense::Le, 5.0);
        lp.add_constraint(vec![(0, 4.0), (1, 1.0), (2, 2.0)], Sense::Le, 11.0);
        lp.add_constraint(vec![(0, 3.0), (1, 4.0), (2, 2.0)], Sense::Le, 8.0);
        let s = optimal(&lp);
        assert!(lp.is_feasible(&s.x, 1e-6));
        assert!((s.objective - 13.0).abs() < 1e-6); // classic Chvátal example
    }
}
