//! Class-aware point-query kernels.
//!
//! The paper's classification pays off at query time: most selected queries
//! never need the full fixpoint. The dispatch table, applied per query
//! against the service's precomputed [`Classification`]:
//!
//! | Condition                                        | Kernel                     |
//! |--------------------------------------------------|----------------------------|
//! | proven rank bound (A2/A4, bounded B, acyclic D)  | [`PointKernelKind::BoundedUnroll`] — evaluate the `rank + 1` non-recursive levels with the query constants pushed in; **no fixpoint loop ever runs** |
//! | one-directional (A1/A3/A5) and ≥ 1 bound argument | [`PointKernelKind::MagicIterate`] — iterate the magic-transformed program from `recurs_core::magic` seeded with the query constants, under the query budget |
//! | class C/E/F, or an all-free query                | [`PointKernelKind::FullSaturation`] — governed full saturation with the engine kernel selected from the classification |
//!
//! Every kernel returns the existing `Complete | Truncated` contract: a
//! truncated answer is always a sound under-approximation of the true
//! answer set.

use crate::error::ServeError;
use recurs_core::{bounded, magic, Classification};
use recurs_datalog::adornment::QueryForm;
use recurs_datalog::database::Database;
use recurs_datalog::eval::answer_query;
use recurs_datalog::govern::{EvalBudget, Outcome};
use recurs_datalog::relation::{Relation, Tuple};
use recurs_datalog::rule::{LinearRecursion, Program};
use recurs_datalog::term::{Atom, Term};
use recurs_engine::{EngineConfig, EngineMode};
use recurs_obs::Obs;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Which point-query kernel the dispatcher selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKernelKind {
    /// Rank-bounded unrolling: the formula is provably bounded, so the
    /// answer is the union of `rank + 1` non-recursive levels. Runs no
    /// fixpoint loop at all.
    BoundedUnroll {
        /// The proven rank bound.
        rank: u64,
    },
    /// Magic-sets iteration seeded with the query's constants: only tuples
    /// reachable from the query's bindings are derived.
    MagicIterate,
    /// Governed full saturation of the recursion, then a select/project of
    /// the query over the fixpoint.
    FullSaturation,
    /// Select/project over the service's incrementally maintained
    /// materialization of the recursion — no evaluation at all. Used when
    /// the view's version matches the query's snapshot.
    MaterializedView,
}

impl PointKernelKind {
    /// Low-cardinality dispatch-family label for metrics: `"bounded"`,
    /// `"magic"`, `"saturate"`, or `"materialized"` (the rank is dropped so
    /// label sets stay bounded regardless of the served program).
    pub fn family(&self) -> &'static str {
        match self {
            PointKernelKind::BoundedUnroll { .. } => "bounded",
            PointKernelKind::MagicIterate => "magic",
            PointKernelKind::FullSaturation => "saturate",
            PointKernelKind::MaterializedView => "materialized",
        }
    }

    /// Short label for reports, e.g. `"bounded(2)"`, `"magic"`, `"saturate"`.
    pub fn label(&self) -> String {
        match self {
            PointKernelKind::BoundedUnroll { rank } => format!("bounded({rank})"),
            PointKernelKind::MagicIterate => "magic".to_string(),
            PointKernelKind::FullSaturation => "saturate".to_string(),
            PointKernelKind::MaterializedView => "materialized".to_string(),
        }
    }
}

impl serde::Serialize for PointKernelKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::string(self.label())
    }
}

/// One answered point query.
#[derive(Debug)]
pub struct PointAnswer {
    /// The answer relation, over the query's distinct variables in
    /// first-occurrence order (arity 0 = boolean query: non-empty means yes).
    pub answers: Relation,
    /// Complete, or soundly truncated by the budget.
    pub outcome: Outcome,
    /// The kernel that produced the answer.
    pub kernel: PointKernelKind,
    /// Fixpoint iterations run (always 0 for the bounded kernel — the
    /// acceptance criterion "iterations ≤ computed rank" holds trivially).
    pub fixpoint_iterations: usize,
    /// Tuples derived while answering.
    pub tuples_derived: usize,
}

/// Precompiled per-program state shared by all queries: the classification,
/// the bounded plan (if the formula is provably bounded), the saturation
/// program, and a lazily-built cache of magic plans keyed by query form.
#[derive(Debug)]
pub struct PointPlans {
    lr: LinearRecursion,
    classification: Classification,
    full_program: Program,
    bounded: Option<bounded::BoundedPlan>,
    magic: Mutex<HashMap<QueryForm, Arc<magic::MagicPlan>>>,
}

impl PointPlans {
    /// Classifies the recursion and precompiles what can be precompiled.
    pub fn new(lr: LinearRecursion) -> PointPlans {
        let classification = Classification::of(&lr.recursive_rule);
        let bounded = bounded::build_plan(&lr);
        let full_program = lr.to_program();
        PointPlans {
            lr,
            classification,
            full_program,
            bounded,
            magic: Mutex::new(HashMap::new()),
        }
    }

    /// The recursion being served.
    pub fn recursion(&self) -> &LinearRecursion {
        &self.lr
    }

    /// The classification driving kernel dispatch.
    pub fn classification(&self) -> &Classification {
        &self.classification
    }

    /// Applies the dispatch table (see module docs) to a query atom.
    pub fn select(&self, query: &Atom) -> PointKernelKind {
        if let Some(plan) = &self.bounded {
            return PointKernelKind::BoundedUnroll { rank: plan.rank };
        }
        let has_bound_arg = query.terms.iter().any(|t| !t.is_var());
        if self.classification.is_transformable_to_stable() && has_bound_arg {
            return PointKernelKind::MagicIterate;
        }
        PointKernelKind::FullSaturation
    }

    /// Answers `query` against `db` under `budget` with the selected kernel.
    /// `db` is never mutated: kernels that saturate clone it first.
    ///
    /// The engine has one execution mode, so `_mode` changes nothing; the
    /// parameter stays because the serving benchmark under `perfbench/`
    /// calls this signature.
    pub fn answer(
        &self,
        db: &Database,
        query: &Atom,
        budget: &EvalBudget,
        _mode: EngineMode,
        obs: &Obs,
    ) -> Result<PointAnswer, ServeError> {
        if query.predicate != self.lr.predicate {
            return Err(ServeError::WrongPredicate {
                got: query.predicate,
                serves: self.lr.predicate,
            });
        }
        let expected = self.lr.recursive_rule.head.arity();
        if query.arity() != expected {
            return Err(ServeError::Datalog(
                recurs_datalog::error::DatalogError::ArityMismatch {
                    predicate: query.predicate,
                    expected,
                    found: query.arity(),
                },
            ));
        }
        match self.select(query) {
            PointKernelKind::BoundedUnroll { rank } => self.answer_bounded(db, query, budget, rank),
            PointKernelKind::MagicIterate => self.answer_magic(db, query, budget, obs),
            // The materialized-view kernel lives in the service (it needs the
            // maintained view); `select` never returns it, and if a caller
            // asks for it without a view the saturating kernel is the answer.
            PointKernelKind::FullSaturation | PointKernelKind::MaterializedView => {
                self.answer_saturate(db, query, budget, obs)
            }
        }
    }

    /// Bounded kernel: evaluate each non-recursive level with the query
    /// constants pushed in, polling the governor between levels. Never runs
    /// a fixpoint loop, so `fixpoint_iterations` is 0 ≤ rank by construction.
    fn answer_bounded(
        &self,
        db: &Database,
        query: &Atom,
        budget: &EvalBudget,
        rank: u64,
    ) -> Result<PointAnswer, ServeError> {
        let plan = self.bounded.as_ref().ok_or(ServeError::Engine(
            recurs_engine::EngineError::Internal("bounded kernel selected without a bounded plan"),
        ))?;
        let governor = budget.start();
        let mut answers = Relation::new(distinct_var_count(query));
        let mut outcome = Outcome::Complete;
        let mut tuples = 0usize;
        for rule in &plan.levels.rules {
            if let Some(reason) = governor.poll() {
                // Sound under-approximation: the levels evaluated so far.
                outcome = Outcome::Truncated(reason);
                break;
            }
            let level = bounded::eval_specialized(db, rule, query)?;
            tuples += level.len();
            answers.union_in_place(&level);
        }
        Ok(PointAnswer {
            answers,
            outcome,
            kernel: PointKernelKind::BoundedUnroll { rank },
            fixpoint_iterations: 0,
            tuples_derived: tuples,
        })
    }

    /// Magic kernel: seed the magic predicate with the query constants and
    /// run the rewritten program to (governed) fixpoint with the engine.
    fn answer_magic(
        &self,
        db: &Database,
        query: &Atom,
        budget: &EvalBudget,
        obs: &Obs,
    ) -> Result<PointAnswer, ServeError> {
        let form = QueryForm::of_atom(query);
        let plan = self.magic_plan(&form);
        let mut db = db.clone();
        if let Some(seed) = plan.seed_predicate {
            let constants: Tuple = query.terms.iter().filter_map(Term::as_const).collect();
            db.declare(seed, constants.len())?;
            db.insert(seed, constants)?;
        }
        // Declare magic predicates that are never derived (e.g. a reachable
        // all-free form has no magic), so rule bodies can always be evaluated.
        for rule in &plan.program.rules {
            for atom in &rule.body {
                if !db.contains(atom.predicate)
                    && plan.program.rules_for(atom.predicate).next().is_none()
                {
                    db.declare(atom.predicate, atom.arity())?;
                }
            }
        }
        let config = EngineConfig {
            budget: budget.clone(),
            obs: obs.clone(),
        };
        let sat = recurs_engine::run_program(&mut db, &plan.program, &config)?;
        let adorned_query = Atom::new(plan.answer_predicate, query.terms.clone());
        let answers = answer_query(&db, &adorned_query)?;
        Ok(PointAnswer {
            answers,
            outcome: sat.outcome,
            kernel: PointKernelKind::MagicIterate,
            fixpoint_iterations: sat.stats.iteration_count(),
            tuples_derived: sat.stats.tuples_derived,
        })
    }

    /// Fallback kernel: saturate a clone of the snapshot under the budget
    /// (with the engine kernel the classification selects), then answer the
    /// query over the (possibly under-approximated) fixpoint.
    fn answer_saturate(
        &self,
        db: &Database,
        query: &Atom,
        budget: &EvalBudget,
        obs: &Obs,
    ) -> Result<PointAnswer, ServeError> {
        let mut db = db.clone();
        let config = EngineConfig {
            budget: budget.clone(),
            obs: obs.clone(),
        };
        let kernel = recurs_engine::select_kernel(&self.classification);
        let sat = recurs_engine::run_with_kernel(&mut db, &self.full_program, kernel, &config)?;
        let answers = answer_query(&db, query)?;
        Ok(PointAnswer {
            answers,
            outcome: sat.outcome,
            kernel: PointKernelKind::FullSaturation,
            fixpoint_iterations: sat.stats.iteration_count(),
            tuples_derived: sat.stats.tuples_derived,
        })
    }

    fn magic_plan(&self, form: &QueryForm) -> Arc<magic::MagicPlan> {
        let mut plans = self.magic.lock().unwrap_or_else(PoisonError::into_inner);
        plans
            .entry(form.clone())
            .or_insert_with(|| Arc::new(magic::build_plan(&self.lr, form)))
            .clone()
    }
}

/// Number of distinct variables in a query atom — the arity of its answer
/// relation.
pub(crate) fn distinct_var_count(query: &Atom) -> usize {
    let mut seen = Vec::new();
    for v in query.variables() {
        if !seen.contains(&v) {
            seen.push(v);
        }
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::eval::semi_naive;
    use recurs_datalog::parser::{parse_atom, parse_program};
    use recurs_datalog::validate::validate_with_generic_exit;

    fn lr(src: &str) -> LinearRecursion {
        validate_with_generic_exit(&parse_program(src).unwrap()).unwrap()
    }

    fn tc() -> LinearRecursion {
        lr("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).")
    }

    fn tc_db(n: u64) -> Database {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db.insert_relation("E", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db
    }

    fn oracle(f: &LinearRecursion, db: &Database, query: &Atom) -> Relation {
        let mut db = db.clone();
        semi_naive(&mut db, &f.to_program(), None).unwrap();
        answer_query(&db, query).unwrap()
    }

    #[test]
    fn tc_bound_query_uses_magic_and_matches_oracle() {
        let f = tc();
        let plans = PointPlans::new(f.clone());
        let db = tc_db(12);
        let q = parse_atom("P(3, y)").unwrap();
        assert_eq!(plans.select(&q), PointKernelKind::MagicIterate);
        let got = plans
            .answer(
                &db,
                &q,
                &EvalBudget::unlimited(),
                EngineMode::Indexed,
                &Obs::noop(),
            )
            .unwrap();
        assert!(got.outcome.is_complete());
        assert_eq!(got.answers, oracle(&f, &db, &q));
    }

    #[test]
    fn tc_all_free_query_falls_back_to_saturation() {
        let f = tc();
        let plans = PointPlans::new(f.clone());
        let db = tc_db(8);
        let q = parse_atom("P(x, y)").unwrap();
        assert_eq!(plans.select(&q), PointKernelKind::FullSaturation);
        let got = plans
            .answer(
                &db,
                &q,
                &EvalBudget::unlimited(),
                EngineMode::Indexed,
                &Obs::noop(),
            )
            .unwrap();
        assert!(got.outcome.is_complete());
        assert_eq!(got.answers, oracle(&f, &db, &q));
    }

    #[test]
    fn bounded_formula_selects_bounded_kernel_with_zero_iterations() {
        // The paper's s5 rotation: pure permutational A2, rank lcm-1 = 2.
        let f = lr("P(x, y, z) :- P(y, z, x).");
        let plans = PointPlans::new(f.clone());
        let mut db = Database::new();
        db.insert_relation(
            "E",
            Relation::from_tuples(
                3,
                [
                    recurs_datalog::relation::tuple_u64([1, 2, 3]),
                    recurs_datalog::relation::tuple_u64([4, 5, 6]),
                ],
            ),
        );
        let q = parse_atom("P(2, y, z)").unwrap();
        let kernel = plans.select(&q);
        assert_eq!(kernel, PointKernelKind::BoundedUnroll { rank: 2 });
        let got = plans
            .answer(
                &db,
                &q,
                &EvalBudget::unlimited(),
                EngineMode::Indexed,
                &Obs::noop(),
            )
            .unwrap();
        assert!(got.outcome.is_complete());
        assert_eq!(got.fixpoint_iterations, 0);
        assert_eq!(got.answers, oracle(&f, &db, &q));
    }

    #[test]
    fn wrong_predicate_is_a_typed_error() {
        let plans = PointPlans::new(tc());
        let db = tc_db(4);
        let q = parse_atom("Q(1, y)").unwrap();
        let err = plans
            .answer(
                &db,
                &q,
                &EvalBudget::unlimited(),
                EngineMode::Indexed,
                &Obs::noop(),
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::WrongPredicate { .. }));
    }

    #[test]
    fn wrong_arity_is_a_typed_error() {
        let plans = PointPlans::new(tc());
        let db = tc_db(4);
        let q = parse_atom("P(1, y, z)").unwrap();
        let err = plans
            .answer(
                &db,
                &q,
                &EvalBudget::unlimited(),
                EngineMode::Indexed,
                &Obs::noop(),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Datalog(recurs_datalog::error::DatalogError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn cancelled_budget_truncates_soundly() {
        let f = tc();
        let plans = PointPlans::new(f.clone());
        let db = tc_db(10);
        let token = recurs_datalog::govern::CancelToken::new();
        token.cancel();
        let budget = EvalBudget::unlimited().with_cancel(token);
        let q = parse_atom("P(1, y)").unwrap();
        let got = plans
            .answer(&db, &q, &budget, EngineMode::Indexed, &Obs::noop())
            .unwrap();
        assert!(!got.outcome.is_complete());
        // Sound under-approximation: a subset of the true answers.
        let want = oracle(&f, &db, &q);
        for t in got.answers.iter() {
            assert!(want.contains(t));
        }
    }
}
