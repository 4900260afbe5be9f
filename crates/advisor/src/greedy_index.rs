//! Greedy index selection — the baseline the paper positions ILP against
//! ("all these commercial tools are based on greedy heuristics").
//!
//! Classic DTA-style loop: at each step add the candidate with the best
//! marginal workload benefit per byte, re-evaluating marginal benefits with
//! the INUM model (so the comparison against ILP is cost-model-fair).

use parinda_inum::{CandId, CandidateIndex, Configuration, InumModel};
use parinda_parallel::{par_map, par_map_indexed, Budget};
use parinda_solver::{greedy_select_batch, GreedyItem};

use crate::ilp_index::{finish_selection, IndexSelection, SolverConstraints};

/// Select indexes greedily under a storage budget (bytes).
///
/// * `constraints` — pinned indexes seed the current configuration (and
///   are charged against `budget_bytes` first), banned ones never enter
///   the candidate pool, so every marginal benefit the loop prices is
///   *relative to the pins*. [`SolverConstraints::none`] starts from the
///   empty design.
/// * `budget` — checked at each selection round (a round cap counts
///   selection rounds); an interrupted run returns the indexes picked so
///   far, flagged `degraded: true`.
///
/// Weights, threads and trace are the model's.
pub fn select_indexes_greedy(
    model: &mut InumModel<'_>,
    candidates: &[CandidateIndex],
    budget_bytes: u64,
    constraints: &SolverConstraints,
    budget: &Budget,
) -> IndexSelection {
    let (base, candidates, budget_bytes) = constraints.apply(model, candidates, budget_bytes);
    let trace = model.trace().clone();
    let _span = trace.span("greedy_rounds");
    let cand_ids: Vec<CandId> =
        candidates.iter().map(|c| model.register_candidate(c.clone())).collect();
    let nq = model.queries().len();
    let par = model.parallelism();
    let base_cfg = Configuration::from_ids(base.iter().copied());
    let model_ref = &*model;
    // Weighted models (compressed workloads) scale everything by the
    // template weight; ×1.0 on unweighted models is bit-identical.
    let base_costs: Vec<f64> =
        par_map_indexed(par, nq, |q| model_ref.cost(q, &base_cfg) * model_ref.weight(q));

    let items: Vec<GreedyItem> = cand_ids
        .iter()
        .enumerate()
        .map(|(pos, &id)| GreedyItem { id: pos, size: model.candidate_size(id) })
        .collect();

    // Each round re-evaluates every still-affordable candidate's marginal
    // benefit; the (candidate × query) probes are independent, so a round
    // fans out over the pool. The current-config cost is hoisted out of
    // the per-candidate closure — it is the same for all of them.
    //
    // Budget hook: once the budget is exceeded, the oracle reports zero
    // benefit for everything, which terminates the selection loop with
    // the picks made so far (best-so-far semantics).
    let rounds = std::cell::Cell::new(0usize);
    let stopped = std::cell::Cell::new(false);
    let picked_pos = greedy_select_batch(&items, budget_bytes, |selected, eligible| {
        if budget.exceeded(rounds.get()) {
            stopped.set(true);
            return vec![0.0; eligible.len()];
        }
        rounds.set(rounds.get() + 1);
        let _round = trace.span("greedy_rounds/round");
        let current: Configuration = Configuration::from_ids(
            base.iter().copied().chain(selected.iter().map(|&p| cand_ids[p])),
        );
        let current_cost = model_ref.workload_cost(&current);
        trace.count(parinda_trace::Counter::CandidatesEvaluated, eligible.len() as u64);
        par_map(par, eligible, |&pos| {
            current_cost - model_ref.workload_cost(&current.with(cand_ids[pos]))
        })
    });

    let mut chosen: Vec<CandId> = base.to_vec();
    chosen.extend(picked_pos.iter().map(|&p| cand_ids[p]));
    let degraded = stopped.get();
    let mut selection = finish_selection(model, chosen, &base_costs, !degraded);
    selection.degraded = degraded;
    selection.budget =
        degraded.then(|| budget.report(rounds.get(), candidates.len().saturating_sub(rounds.get())));
    selection
}

/// Classic single-pass greedy (the "greedy heuristic" of the commercial
/// tools, §1): benefits are computed once per candidate against the base
/// design and never re-evaluated, so interactions between chosen indexes
/// are ignored — redundant candidates look as good as complementary ones.
pub fn select_indexes_greedy_static(
    model: &mut InumModel<'_>,
    candidates: &[CandidateIndex],
    budget_bytes: u64,
) -> IndexSelection {
    let cand_ids: Vec<CandId> =
        candidates.iter().map(|c| model.register_candidate(c.clone())).collect();
    let nq = model.queries().len();
    let empty = Configuration::empty();
    let base_costs: Vec<f64> =
        (0..nq).map(|q| model.cost(q, &empty) * model.weight(q)).collect();
    let base_total: f64 = base_costs.iter().sum();

    // one-shot benefits
    let mut scored: Vec<(usize, f64, u64)> = cand_ids
        .iter()
        .enumerate()
        .map(|(pos, &id)| {
            let with = Configuration::from_ids([id]);
            let benefit = base_total - model.workload_cost(&with);
            (pos, benefit, model.candidate_size(id))
        })
        .filter(|&(_, b, _)| b > 0.0)
        .collect();
    scored.sort_by(|a, b| {
        let da = a.1 / a.2.max(1) as f64;
        let db = b.1 / b.2.max(1) as f64;
        db.total_cmp(&da)
    });

    let mut chosen = Vec::new();
    let mut left = budget_bytes;
    for (pos, _, size) in scored {
        if size <= left {
            left -= size;
            chosen.push(cand_ids[pos]);
        }
    }
    finish_selection(model, chosen, &base_costs, true)
}
