//! Fault-injection suite for the serving layer (requires
//! `--features fault-inject`, which forwards to the engine's fault module):
//! a saturating kernel stalled by an injected slow round under a short
//! budget must return a sound truncated reply that is never cached, so the
//! next query with room to finish evaluates afresh and is complete.

#![cfg(feature = "fault-inject")]

use recurs_datalog::database::Database;
use recurs_datalog::eval::{answer_query, semi_naive};
use recurs_datalog::govern::{EvalBudget, Outcome, TruncationReason};
use recurs_datalog::parser::{parse_atom, parse_program};
use recurs_datalog::relation::Relation;
use recurs_datalog::rule::LinearRecursion;
use recurs_engine::fault::{arm, FaultPlan};
use recurs_obs::{CaptureRecorder, Obs};
use recurs_serve::{CacheOutcome, PointKernelKind, QueryService, ServeConfig};
use std::sync::Arc;
use std::time::Duration;

fn tc() -> LinearRecursion {
    recurs_datalog::validate::validate_with_generic_exit(
        &parse_program("P(x, y) :- A(x, z), P(z, y).\nP(x, y) :- E(x, y).").unwrap(),
    )
    .expect("TC validates")
}

fn tc_db(n: u64) -> Database {
    let mut db = Database::new();
    db.insert_relation("A", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
    db.insert_relation("E", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
    db
}

#[test]
fn slow_round_truncation_is_not_cached_and_the_next_query_completes() {
    let _g = arm(FaultPlan {
        slowdown: Some(Duration::from_millis(30)),
        ..FaultPlan::default()
    });
    let mut oracle = tc_db(12);
    semi_naive(&mut oracle, &tc().to_program(), None).expect("oracle saturates");
    let capture = Arc::new(CaptureRecorder::new());
    let service = QueryService::new(
        tc(),
        tc_db(12),
        ServeConfig {
            obs: Obs::new(capture.clone()),
            ..ServeConfig::default()
        },
    );
    let short = EvalBudget::unlimited().with_timeout(Duration::from_millis(10));
    // An all-free query takes the full-saturation kernel, a bound one the
    // magic kernel; both run the engine's fixpoint driver.
    for (text, kernel) in [
        ("P(x, y)", PointKernelKind::FullSaturation),
        ("P(1, y)", PointKernelKind::MagicIterate),
    ] {
        let q = parse_atom(text).expect("query parses");
        let want = answer_query(&oracle, &q).expect("oracle answers");

        let cached = service.cache_len();
        let cut = service
            .query_with_budget(&q, &short)
            .expect("truncation is not an error");
        assert_eq!(cut.stats.kernel, kernel, "{text}");
        assert_eq!(
            cut.outcome,
            Outcome::Truncated(TruncationReason::Deadline),
            "{text}"
        );
        assert!(cut.answers.len() < want.len(), "{text}");
        for t in cut.answers.iter() {
            assert!(want.contains(t), "{text}: truncated reply is not a subset");
        }
        assert_eq!(
            service.cache_len(),
            cached,
            "{text}: a truncated reply was cached"
        );

        let full = service.query(&q).expect("unlimited query succeeds");
        assert!(full.outcome.is_complete(), "{text}");
        assert_eq!(full.stats.cache, CacheOutcome::Miss, "{text}");
        assert_eq!(*full.answers, want, "{text}: diverged from the oracle");
    }

    // The stall travelled through the serving layer's recorder, at the
    // engine's round site.
    let injected = capture.events_of("fault.injected");
    assert!(!injected.is_empty(), "the armed slowdown never fired");
    assert!(injected
        .iter()
        .all(|e| e.text("kind") == Some("slowdown") && e.text("site") == Some("round")));
}
