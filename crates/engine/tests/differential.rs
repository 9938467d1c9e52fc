//! Differential property tests: on randomly generated linear recursions and
//! databases, the engine must compute exactly the oracle's fixpoint
//! (`recurs_datalog::eval::semi_naive`).
//!
//! The random rules span the paper's whole classification — one-directional
//! A1–A5, bounded B, unbounded C — so this exercises all three kernels
//! (frontier, bounded unroll, generic) against the same reference. A second
//! group pins down the governance contract: capped runs of the engine and
//! the oracle produce *identical* tuple sets (the unified cap semantics), and budgeted
//! runs are sound under-approximations with truthful `Truncated` reporting.

use proptest::prelude::*;
use recurs_datalog::eval::{semi_naive, semi_naive_governed};
use recurs_datalog::govern::EvalBudget;
use recurs_engine::run_linear;
use recurs_engine::{run_program, EngineConfig, KernelKind};
use recurs_workload::{random_database, random_linear_recursion, RuleConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matches_oracle_on_random_workloads(
        rule_seed in 0u64..10_000,
        db_seed in 0u64..10_000,
        tuples in 1usize..40,
        domain in 2u64..8,
    ) {
        let lr = random_linear_recursion(rule_seed, RuleConfig::default());
        let mut oracle_db = random_database(&lr, tuples, domain, db_seed);
        let edb = oracle_db.clone();
        semi_naive(&mut oracle_db, &lr.to_program(), None)
            .expect("oracle saturates generated workloads");
        let expected = oracle_db.get("P").expect("IDB is materialized");

        let mut db = edb.clone();
        let sat = run_linear(&mut db, &lr, &EngineConfig::default())
            .expect("engine saturates generated workloads");
        let got = db.get("P").expect("IDB is materialized");
        prop_assert_eq!(
            expected, got,
            "rule_seed={} db_seed={} rule={}",
            rule_seed, db_seed, lr.recursive_rule
        );
        prop_assert!(sat.outcome.is_complete(), "uncapped run reported truncation");
        prop_assert!(
            sat.stats.kernel.is_some(),
            "run_linear always classifies and picks a kernel"
        );
    }

    /// Unified cap semantics: under the same iteration cap, the oracle and
    /// the engine stop with *identical* tuple sets. (The generic kernel is forced so the engines detect the
    /// fixpoint the same way the oracle does; rank-bound kernels may
    /// legitimately stop earlier than a cap.)
    #[test]
    fn capped_runs_agree_across_all_engines(
        rule_seed in 0u64..10_000,
        db_seed in 0u64..10_000,
        cap in 1usize..6,
    ) {
        let lr = random_linear_recursion(rule_seed, RuleConfig::default());
        let edb = random_database(&lr, 25, 6, db_seed);
        let program = lr.to_program();

        let mut oracle_db = edb.clone();
        let oracle_stats = semi_naive(&mut oracle_db, &program, Some(cap))
            .expect("oracle runs under cap");
        let expected = oracle_db.get("P").expect("IDB is materialized");

        let mut db = edb.clone();
        let config = EngineConfig {
            budget: EvalBudget::iteration_cap(Some(cap)),
            ..EngineConfig::default()
        };
        let sat = run_program(&mut db, &program, &config)
            .expect("engine runs under cap");
        let got = db.get("P").expect("IDB is materialized");
        prop_assert_eq!(
            expected, got,
            "cap={} rule_seed={} db_seed={} rule={}",
            cap, rule_seed, db_seed, lr.recursive_rule
        );
        prop_assert_eq!(
            sat.stats.kernel, Some(KernelKind::Generic),
            "run_program uses the generic kernel"
        );
        // Both sides agree on *whether* the cap truncated the run.
        prop_assert_eq!(
            sat.outcome.truncation().is_some(), oracle_stats.truncated,
            "cap={}: engine and oracle disagree on truncation",
            cap
        );
    }

    /// Truncation invariants, for every class and a spread of budget
    /// settings: a budgeted run's output is a subset of the fixpoint;
    /// a run reporting `Complete` equals the fixpoint; and a proper subset
    /// is always reported as `Truncated`. (The converse — `Truncated`
    /// implying a proper subset — does not hold at the boundary: proving
    /// the subset complete would cost the very iteration the budget
    /// forbids. See DESIGN.md "Failure semantics".)
    #[test]
    fn budgeted_runs_are_sound_underapproximations(
        rule_seed in 0u64..10_000,
        db_seed in 0u64..10_000,
        budget_kind in 0usize..4,
        knob in 1usize..8,
    ) {
        let lr = random_linear_recursion(rule_seed, RuleConfig::default());
        let edb = random_database(&lr, 25, 6, db_seed);
        let program = lr.to_program();

        let mut oracle_db = edb.clone();
        semi_naive(&mut oracle_db, &program, None).expect("oracle saturates");
        let full = oracle_db.get("P").expect("IDB is materialized");

        let budget = match budget_kind {
            0 => EvalBudget::iteration_cap(Some(knob)),
            1 => EvalBudget::unlimited().with_max_tuples(knob * 8),
            2 => EvalBudget::unlimited().with_max_delta(knob * 4),
            _ => EvalBudget::unlimited().with_max_memory_bytes(knob * 2048),
        };

        // The engine under budget.
        let mut db = edb.clone();
        let config = EngineConfig { budget: budget.clone(), ..EngineConfig::default() };
        let sat = run_program(&mut db, &program, &config).expect("budgeted run succeeds");
        let partial = db.get("P").expect("IDB is materialized");
        for t in partial.iter() {
            prop_assert!(full.contains(t), "budgeted run derived a tuple outside the fixpoint");
        }
        prop_assert!(partial.len() <= full.len());
        if sat.outcome.is_complete() {
            prop_assert_eq!(full, partial, "run claimed Complete but missed tuples");
        }
        if partial.len() < full.len() {
            prop_assert!(
                sat.outcome.truncation().is_some(),
                "proper under-approximation not reported as Truncated (budget={:?})",
                budget
            );
        }

        // The governed oracle honors the same invariants.
        let mut gov_db = edb.clone();
        let stats = semi_naive_governed(&mut gov_db, &program, &budget)
            .expect("governed oracle succeeds");
        let oracle_partial = gov_db.get("P").expect("IDB is materialized");
        for t in oracle_partial.iter() {
            prop_assert!(full.contains(t), "governed oracle derived a tuple outside the fixpoint");
        }
        if stats.truncation.is_none() {
            prop_assert_eq!(full, oracle_partial, "oracle claimed Complete but missed tuples");
        }
        if oracle_partial.len() < full.len() {
            prop_assert!(stats.truncated, "oracle under-approximated without reporting truncation");
        }
    }
}
