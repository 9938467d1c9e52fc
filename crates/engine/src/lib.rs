//! `recurs-engine` — an indexed semi-naive execution engine with
//! class-aware kernels.
//!
//! The oracle evaluator in `recurs_datalog::eval` is written for clarity: it
//! re-plans the join order, re-normalizes atoms, and rebuilds hash indexes
//! on every fixpoint iteration. This crate keeps the same semantics (it is
//! differentially tested against the oracle) but moves all of that work out
//! of the loop:
//!
//! * **Storage** ([`storage`]): [`storage::IndexedRelation`] keeps
//!   *persistent* hash indexes on the columns rules join on. Each index is
//!   built once and maintained incrementally as deltas merge, so iteration
//!   cost tracks the delta, not the accumulated relation.
//! * **Compilation** ([`compile`]): each rule (differentiated per delta
//!   position) becomes a fixed [`compile::CompiledRule`] pipeline — seed
//!   selection/projection, then hash-probe join steps with constants folded
//!   into the index keys.
//! * **Kernels** ([`kernel`]): the dispatcher inspects the formula's
//!   [`Classification`](recurs_core::Classification) — one-directional
//!   classes (A1/A3/A5) run the frontier kernel, formulas with a proven rank
//!   bound (A2/A4/B/D) run bounded unrolling that stops at the rank *without
//!   fixpoint detection*, and everything else (C/E/F) takes the generic
//!   semi-naive fallback.
//!
//! All three kernels share one fixpoint driver: each round runs the compiled
//! pipelines single-threaded over the indexed storage.
//!
//! # Failure semantics
//!
//! Every run is governed by the [`EngineConfig::budget`]
//! ([`recurs_datalog::govern::EvalBudget`]): the driver checks the full
//! budget at each iteration boundary and kernels poll cancellation/deadline
//! cooperatively every few hundred rows. A run that stops early returns
//! `Ok(`[`Saturation`]`)` with [`Outcome::Truncated`] and writes back a
//! *sound under-approximation* of the fixpoint — every derived tuple is a
//! true consequence; stopping only omits tuples. The driver writes back only
//! after the loop ends, so a run that errors or panics mid-fixpoint writes no
//! derived tuple into the caller's database.
//!
//! [`EngineStats`] reports per-iteration timings, delta sizes and index hit
//! counts.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// Library paths must surface failures as `Err`, never panic on input; unit
// tests (compiled only under cfg(test)) are exempt. CI runs clippy with
// `-D warnings`, making this a hard gate.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod compile;
pub mod error;
#[cfg(any(test, feature = "fault-inject"))]
pub mod fault;
pub mod kernel;
pub mod stats;
pub mod storage;

pub use error::{EngineError, Saturation};
pub use kernel::select_kernel;
pub use stats::{EngineStats, IterationStats, KernelKind};
pub use storage::{EngineDb, IndexedRelation};

use compile::{CompiledRule, ProbeCounters, Row};
use recurs_datalog::database::Database;
use recurs_datalog::govern::{EvalBudget, Governor, Outcome, Progress, TruncationReason};
use recurs_datalog::relation::Tuple;
use recurs_datalog::rule::{LinearRecursion, Program};
use recurs_datalog::symbol::Symbol;
use recurs_obs::{field, Obs};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// How the engine executes each iteration's joins. The engine has one
/// execution path, so this has one variant; it stays a type because callers
/// outside this workspace (the serving benchmark under `perfbench/`) name it
/// when they call `recurs_serve::PointPlans::answer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Single-threaded execution over persistent indexes.
    #[default]
    Indexed,
}

/// Engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Resource budget. The default is unlimited (run to fixpoint); any
    /// tripped ceiling ends the run with [`Outcome::Truncated`] rather than
    /// an error. Iteration caps count the seeding round — a cap of `k` runs
    /// the seeding round plus at most `k - 1` recursive rounds, the same
    /// definition `recurs_datalog::eval` uses.
    pub budget: EvalBudget,
    /// Observability handle. The default ([`Obs::noop`]) records nothing
    /// and costs one predictable branch per emission site; an active
    /// handle receives `engine.*` provenance events, per-iteration
    /// counters, and iteration-duration histograms.
    pub obs: Obs,
}

/// Saturates `db` with the program's consequences using the kernel selected
/// from the recursion's classification. IDB relations are written back into
/// `db` (EDB relations are untouched) — on [`Outcome::Truncated`] runs too,
/// where they hold a sound under-approximation of the fixpoint.
pub fn run_linear(
    db: &mut Database,
    lr: &LinearRecursion,
    config: &EngineConfig,
) -> Result<Saturation, EngineError> {
    let classification = recurs_core::Classification::of(&lr.recursive_rule);
    let kernel = select_kernel(&classification);
    if config.obs.enabled() {
        // The dispatch decision: which class the formula fell in and which
        // compiled form the engine chose for it.
        config.obs.event(
            "engine.dispatch",
            &[
                ("class", field::s(classification.class.label())),
                ("kernel", field::s(kernel.label())),
            ],
        );
    }
    run_with_kernel(db, &lr.to_program(), kernel, config)
}

/// Saturates `db` with an arbitrary program using the generic semi-naive
/// kernel (no classification needed; handles multi-rule, multi-predicate
/// programs and mutual recursion).
pub fn run_program(
    db: &mut Database,
    program: &Program,
    config: &EngineConfig,
) -> Result<Saturation, EngineError> {
    run_with_kernel(db, program, KernelKind::Generic, config)
}

const UNLOADED_RELATION: &str = "compiled rule references a relation the driver never loaded";

/// Derived tuples of one iteration: one entry per executed rule variant,
/// tagged with the variant's index so per-rule fan-out is attributable.
type Derivations = Vec<(usize, Symbol, Vec<Tuple>)>;

/// Saturates `db` with a specific kernel. [`run_linear`] selects the kernel
/// automatically; this entry point exists for tests and experiments.
pub fn run_with_kernel(
    db: &mut Database,
    program: &Program,
    kernel: KernelKind,
    config: &EngineConfig,
) -> Result<Saturation, EngineError> {
    let governor = config.budget.start();

    // Declare IDB relations up front (arity checks, like the oracle does).
    for rule in &program.rules {
        db.declare(rule.head.predicate, rule.head.arity())?;
    }
    let idb: BTreeSet<Symbol> = program.idb_predicates();

    // Copy the database into indexed storage. Body predicates must exist.
    let mut storage = EngineDb::new();
    for rule in &program.rules {
        for atom in std::iter::once(&rule.head).chain(rule.body.iter()) {
            if storage.get(atom.predicate).is_none() {
                storage.load(atom.predicate, db.require(atom.predicate)?);
            }
        }
    }

    // Compile: non-recursive rules seed iteration 0; rules with IDB body
    // atoms get one differentiated variant per IDB occurrence.
    let mut init: Vec<CompiledRule> = Vec::new();
    let mut variants: Vec<CompiledRule> = Vec::new();
    for rule in &program.rules {
        let idb_positions: Vec<usize> = rule
            .body
            .iter()
            .enumerate()
            .filter(|(_, a)| idb.contains(&a.predicate))
            .map(|(i, _)| i)
            .collect();
        if idb_positions.is_empty() {
            init.push(CompiledRule::compile(rule, None, db)?);
        } else {
            for pos in idb_positions {
                variants.push(CompiledRule::compile(rule, Some(pos), db)?);
            }
        }
    }

    // Build every index the pipelines will probe, once, before the loop.
    for cr in init.iter().chain(variants.iter()) {
        for (pred, cols) in cr.required_indexes() {
            let cols = cols.to_vec();
            storage
                .get_mut(pred)
                .ok_or(EngineError::Internal(UNLOADED_RELATION))?
                .ensure_index(&cols);
        }
    }

    let obs = &config.obs;
    let mut stats = EngineStats {
        kernel: Some(kernel),
        ..EngineStats::default()
    };
    let mut counters = ProbeCounters::default();
    let mut truncation: Option<TruncationReason> = None;

    if obs.enabled() {
        let kernel_label = kernel.label();
        obs.counter("recurs_engine_runs_total", &[("kernel", &kernel_label)], 1);
        obs.event("engine.start", &[("kernel", field::s(kernel_label))]);
    }

    'run: {
        // A budget can trip before any work (cancelled token, zero timeout,
        // zero iteration cap).
        if let Some(reason) = governor.check(Progress {
            iterations: 0,
            tuples: 0,
            delta: 0,
            memory_bytes: approx_memory(&storage),
        }) {
            truncation = Some(reason);
            break 'run;
        }

        // Iteration 0: non-recursive rules against the EDB (a one-off; the
        // loop below is the hot path).
        let t0 = Instant::now();
        let mut candidates: Derivations = Vec::new();
        let mut rule_rows: Vec<(usize, usize)> = Vec::new();
        let mut interrupted: Option<TruncationReason> = None;
        for (i, cr) in init.iter().enumerate() {
            if interrupted.is_some() {
                break;
            }
            let rows = seed_rows_full(cr, &storage)?;
            if obs.enabled() {
                rule_rows.push((i, rows.len()));
            }
            let mut buf = Vec::new();
            interrupted = cr.execute(&storage, rows, &mut counters, Some(&governor), &mut buf)?;
            candidates.push((i, cr.head_pred, buf));
        }
        emit_engine_rules(obs, 1, &init, &rule_rows, &candidates);
        let derived0: usize = candidates.iter().map(|(_, _, ts)| ts.len()).sum();
        let mut ignored = BTreeMap::new();
        let new0 = merge_candidates(&mut storage, candidates, &mut ignored)?;
        stats.tuples_derived += new0;
        let it0 = IterationStats {
            delta_in: 0,
            derived: derived0,
            new_tuples: new0,
            duration: t0.elapsed(),
        };
        emit_engine_iteration(obs, 1, &it0);
        stats.iterations.push(it0);
        if let Some(reason) = interrupted {
            truncation = Some(reason);
            break 'run;
        }

        // The first recursive delta is everything present after iteration 0,
        // including tuples pre-seeded into IDB relations by the caller (e.g.
        // magic seeds) — recursive rules must see those too.
        let mut delta: BTreeMap<Symbol, Vec<Tuple>> = BTreeMap::new();
        for &pred in &idb {
            let rel = storage
                .get(pred)
                .ok_or(EngineError::Internal(UNLOADED_RELATION))?;
            if !rel.is_empty() {
                delta.insert(pred, rel.iter().cloned().collect());
            }
        }

        let rank_cap = match kernel {
            KernelKind::BoundedUnroll { rank } => Some(rank),
            _ => None,
        };
        let mut recursive_rounds: u64 = 0;
        loop {
            if delta.values().all(Vec::is_empty) {
                break; // genuine fixpoint
            }
            if let Some(rank) = rank_cap {
                if recursive_rounds >= rank {
                    // Bounded unrolling: the proven rank is reached; the
                    // theorems guarantee nothing new past this point, so
                    // stop without a fixpoint-detection round (this is
                    // completeness, not truncation).
                    break;
                }
            }
            // An injected slowdown stalls the round before its budget check,
            // so the check that follows sees the stall.
            #[cfg(any(test, feature = "fault-inject"))]
            fault::round_start(obs);
            if let Some(reason) = governor.check(Progress {
                iterations: stats.iterations.len(),
                tuples: stats.tuples_derived,
                delta: delta.values().map(Vec::len).sum(),
                memory_bytes: approx_memory(&storage),
            }) {
                truncation = Some(reason);
                break;
            }
            recursive_rounds += 1;
            let t = Instant::now();
            let delta_in: usize = delta.values().map(Vec::len).sum();
            let iteration = stats.iterations.len() + 1;
            let work = build_work(&variants, &delta);
            let rule_rows: Vec<(usize, usize)> = if obs.enabled() {
                work.iter().map(|(i, rows)| (*i, rows.len())).collect()
            } else {
                Vec::new()
            };
            let (candidates, interrupted) =
                run_indexed(&variants, work, &storage, &mut counters, Some(&governor))?;

            emit_engine_rules(obs, iteration, &variants, &rule_rows, &candidates);
            let derived: usize = candidates.iter().map(|(_, _, ts)| ts.len()).sum();
            let mut next_delta: BTreeMap<Symbol, Vec<Tuple>> = BTreeMap::new();
            let new = merge_candidates(&mut storage, candidates, &mut next_delta)?;
            stats.tuples_derived += new;
            let it = IterationStats {
                delta_in,
                derived,
                new_tuples: new,
                duration: t.elapsed(),
            };
            emit_engine_iteration(obs, iteration, &it);
            stats.iterations.push(it);
            delta = next_delta;
            if let Some(reason) = interrupted {
                truncation = Some(reason);
                break;
            }
        }
    }

    // Write the saturated (or truncated-but-sound) IDB relations back.
    for &pred in &idb {
        let rel = storage
            .get(pred)
            .ok_or(EngineError::Internal(UNLOADED_RELATION))?;
        db.insert_relation(pred, rel.to_relation());
    }
    stats.index = storage.index_counters();
    stats.probes = counters.probes;
    stats.probe_hits = counters.hits;
    let outcome = match truncation {
        None => Outcome::Complete,
        Some(reason) => Outcome::Truncated(reason),
    };
    if obs.enabled() {
        obs.counter("recurs_engine_probes_total", &[], stats.probes);
        obs.counter("recurs_engine_probe_hits_total", &[], stats.probe_hits);
        match truncation {
            Some(reason) => {
                let label = reason.to_string();
                obs.counter("recurs_engine_truncations_total", &[("reason", &label)], 1);
                obs.event(
                    "engine.truncated",
                    &[
                        ("reason", field::s(label)),
                        ("iterations", field::uz(stats.iteration_count())),
                        ("tuples_derived", field::uz(stats.tuples_derived)),
                    ],
                );
            }
            None => obs.event(
                "engine.complete",
                &[
                    ("iterations", field::uz(stats.iteration_count())),
                    ("tuples_derived", field::uz(stats.tuples_derived)),
                    ("probes", field::u(stats.probes)),
                    ("probe_hits", field::u(stats.probe_hits)),
                    ("index_builds", field::u(stats.index.builds)),
                    ("index_updates", field::u(stats.index.updates)),
                    ("total_duration_us", field::us(stats.total_duration())),
                ],
            ),
        }
    }
    Ok(Saturation { outcome, stats })
}

/// Emits the per-iteration provenance event plus iteration counters and
/// the iteration-duration histogram. No-op with a disabled handle.
fn emit_engine_iteration(obs: &Obs, iteration: usize, it: &IterationStats) {
    if !obs.enabled() {
        return;
    }
    obs.counter("recurs_engine_iterations_total", &[], 1);
    obs.counter(
        "recurs_engine_tuples_derived_total",
        &[],
        it.new_tuples as u64,
    );
    obs.observe(
        "recurs_engine_iteration_seconds",
        &[],
        it.duration.as_secs_f64(),
    );
    obs.event(
        "engine.iteration",
        &[
            ("iteration", field::uz(iteration)),
            ("delta_in", field::uz(it.delta_in)),
            ("derived", field::uz(it.derived)),
            ("new_tuples", field::uz(it.new_tuples)),
            ("duration_us", field::us(it.duration)),
        ],
    );
}

/// Emits one `engine.rule` event per executed variant: join fan-in (seed
/// rows from the delta) and fan-out (candidate tuples before dedup), keyed
/// by variant index and head predicate. No-op with a disabled handle.
fn emit_engine_rules(
    obs: &Obs,
    iteration: usize,
    variants: &[CompiledRule],
    rule_rows: &[(usize, usize)],
    candidates: &Derivations,
) {
    if !obs.enabled() {
        return;
    }
    for &(vi, rows_in) in rule_rows {
        let derived: usize = candidates
            .iter()
            .filter(|(ci, _, _)| *ci == vi)
            .map(|(_, _, ts)| ts.len())
            .sum();
        obs.event(
            "engine.rule",
            &[
                ("iteration", field::uz(iteration)),
                ("variant", field::uz(vi)),
                ("head", field::s(variants[vi].head_pred.to_string())),
                ("rows_in", field::uz(rows_in)),
                ("derived", field::uz(derived)),
            ],
        );
    }
}

/// The engine's memory estimate for budget enforcement: indexed storage
/// plus any fault-injected ballast.
fn approx_memory(storage: &EngineDb) -> usize {
    #[cfg(any(test, feature = "fault-inject"))]
    let ballast = fault::ballast_bytes();
    #[cfg(not(any(test, feature = "fault-inject")))]
    let ballast = 0;
    storage.approx_bytes() + ballast
}

/// Per-variant seed rows from the current delta.
fn build_work(
    variants: &[CompiledRule],
    delta: &BTreeMap<Symbol, Vec<Tuple>>,
) -> Vec<(usize, Vec<Row>)> {
    variants
        .iter()
        .enumerate()
        .filter_map(|(i, cr)| {
            let seed = cr.seed.as_ref()?;
            let tuples = delta.get(&seed.pred)?;
            if tuples.is_empty() {
                return None;
            }
            let rows = seed.rows(tuples.iter());
            (!rows.is_empty()).then_some((i, rows))
        })
        .collect()
}

/// Seed rows for a non-differentiated rule: the full stored relation of the
/// seed atom (or the unit row for an empty body).
fn seed_rows_full(cr: &CompiledRule, storage: &EngineDb) -> Result<Vec<Row>, EngineError> {
    match &cr.seed {
        None => Ok(vec![Vec::new()]),
        Some(seed) => {
            let rel = storage
                .get(seed.pred)
                .ok_or(EngineError::Internal(UNLOADED_RELATION))?;
            Ok(seed.rows(rel.iter()))
        }
    }
}

/// Inserts candidate tuples, returning the number genuinely new; new tuples
/// are also appended to `next_delta` keyed by predicate.
fn merge_candidates(
    storage: &mut EngineDb,
    candidates: Derivations,
    next_delta: &mut BTreeMap<Symbol, Vec<Tuple>>,
) -> Result<usize, EngineError> {
    let mut new = 0usize;
    for (_variant, pred, tuples) in candidates {
        let rel = storage
            .get_mut(pred)
            .ok_or(EngineError::Internal(UNLOADED_RELATION))?;
        for t in tuples {
            if rel.insert(t.clone()) {
                new += 1;
                next_delta.entry(pred).or_default().push(t);
            }
        }
    }
    Ok(new)
}

/// Executes the iteration's work items over the indexed storage.
fn run_indexed(
    variants: &[CompiledRule],
    work: Vec<(usize, Vec<Row>)>,
    storage: &EngineDb,
    counters: &mut ProbeCounters,
    governor: Option<&Governor>,
) -> Result<(Derivations, Option<TruncationReason>), EngineError> {
    let mut out = Vec::new();
    let mut stop = None;
    for (i, rows) in work {
        let mut buf = Vec::new();
        let interrupted = variants[i].execute(storage, rows, counters, governor, &mut buf)?;
        out.push((i, variants[i].head_pred, buf));
        if let Some(reason) = interrupted {
            stop = Some(reason);
            break;
        }
    }
    Ok((out, stop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::eval::semi_naive;
    use recurs_datalog::govern::CancelToken;
    use recurs_datalog::parser::parse_program;
    use recurs_datalog::relation::Relation;
    use recurs_datalog::validate::validate_with_generic_exit;

    fn tc_db(n: u64) -> Database {
        let mut db = Database::new();
        db.insert_relation("A", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db.insert_relation("E", Relation::from_pairs((1..n).map(|i| (i, i + 1))));
        db
    }

    fn tc_program() -> Program {
        parse_program("P(x, y) :- E(x, y).\nP(x, y) :- A(x, z), P(z, y).").unwrap()
    }

    #[test]
    fn generic_engine_matches_oracle_on_chain() {
        let mut db1 = tc_db(9);
        let mut db2 = tc_db(9);
        semi_naive(&mut db1, &tc_program(), None).unwrap();
        let sat = run_program(&mut db2, &tc_program(), &EngineConfig::default()).unwrap();
        assert!(sat.outcome.is_complete());
        assert_eq!(db1.get("P").unwrap(), db2.get("P").unwrap());
        assert_eq!(sat.stats.tuples_derived, db2.get("P").unwrap().len());
        assert!(sat.stats.probes > 0);
        assert!(sat.stats.index.builds > 0);
    }

    #[test]
    fn engine_matches_oracle_on_cycle() {
        let mut db1 = Database::new();
        db1.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3), (3, 1)]));
        db1.insert_relation("E", Relation::from_pairs([(1, 2), (2, 3), (3, 1)]));
        let mut db2 = db1.clone();
        semi_naive(&mut db1, &tc_program(), None).unwrap();
        let sat = run_program(&mut db2, &tc_program(), &EngineConfig::default()).unwrap();
        assert!(sat.outcome.is_complete());
        assert_eq!(db1.get("P").unwrap(), db2.get("P").unwrap());
        assert_eq!(db2.get("P").unwrap().len(), 9);
    }

    #[test]
    fn class_kernel_path_matches_oracle() {
        let lr = validate_with_generic_exit(&tc_program()).unwrap();
        let mut db1 = tc_db(7);
        let mut db2 = tc_db(7);
        semi_naive(&mut db1, &lr.to_program(), None).unwrap();
        let sat = run_linear(&mut db2, &lr, &EngineConfig::default()).unwrap();
        // TC is class A5 (one-directional): frontier kernel.
        assert_eq!(sat.stats.kernel, Some(KernelKind::Frontier));
        assert_eq!(db1.get("P").unwrap(), db2.get("P").unwrap());
    }

    #[test]
    fn truncation_respects_iteration_cap() {
        let mut db = tc_db(40);
        let cfg = EngineConfig {
            budget: EvalBudget::iteration_cap(Some(3)),
            ..EngineConfig::default()
        };
        let sat = run_program(&mut db, &tc_program(), &cfg).unwrap();
        assert_eq!(
            sat.outcome,
            Outcome::Truncated(TruncationReason::IterationCap)
        );
        assert_eq!(sat.stats.iteration_count(), 3);
        assert!(db.get("P").unwrap().len() < 39 * 40 / 2);
    }

    #[test]
    fn tuple_ceiling_truncates_with_sound_subset() {
        let mut db = tc_db(40);
        let cfg = EngineConfig {
            budget: EvalBudget::unlimited().with_max_tuples(50),
            ..EngineConfig::default()
        };
        let sat = run_program(&mut db, &tc_program(), &cfg).unwrap();
        assert_eq!(
            sat.outcome,
            Outcome::Truncated(TruncationReason::TupleCeiling)
        );
        let mut full = tc_db(40);
        semi_naive(&mut full, &tc_program(), None).unwrap();
        let fixpoint = full.get("P").unwrap();
        for t in db.get("P").unwrap().iter() {
            assert!(fixpoint.contains(t));
        }
        assert!(db.get("P").unwrap().len() < fixpoint.len());
    }

    #[test]
    fn cancelled_token_truncates_before_work() {
        let mut db = tc_db(10);
        let token = CancelToken::new();
        token.cancel();
        let cfg = EngineConfig {
            budget: EvalBudget::unlimited().with_cancel(token),
            ..EngineConfig::default()
        };
        let sat = run_program(&mut db, &tc_program(), &cfg).unwrap();
        assert_eq!(sat.outcome, Outcome::Truncated(TruncationReason::Cancelled));
        assert_eq!(sat.stats.iteration_count(), 0);
        // Write-back still happened (with nothing derived).
        assert!(db.get("P").unwrap().is_empty());
    }

    #[test]
    fn memory_ceiling_truncates() {
        let mut db = tc_db(40);
        let cfg = EngineConfig {
            budget: EvalBudget::unlimited().with_max_memory_bytes(1),
            ..EngineConfig::default()
        };
        let sat = run_program(&mut db, &tc_program(), &cfg).unwrap();
        assert_eq!(
            sat.outcome,
            Outcome::Truncated(TruncationReason::MemoryCeiling)
        );
    }

    #[test]
    fn preseeded_idb_tuples_reach_recursive_rules() {
        // Matches the oracle's magic-seed semantics: tuples already in P
        // participate in the first recursive round.
        let mut db1 = Database::new();
        db1.insert_relation("A", Relation::from_pairs([(1, 2), (2, 3)]));
        db1.insert_relation("E", Relation::new(2));
        db1.insert_relation("P", Relation::from_pairs([(3, 9)]));
        let mut db2 = db1.clone();
        semi_naive(&mut db1, &tc_program(), None).unwrap();
        run_program(&mut db2, &tc_program(), &EngineConfig::default()).unwrap();
        assert_eq!(db1.get("P").unwrap(), db2.get("P").unwrap());
        assert_eq!(db2.get("P").unwrap().len(), 3); // (3,9) (2,9) (1,9)
    }

    #[test]
    fn missing_edb_relation_is_an_error() {
        let mut db = Database::new();
        let program = parse_program("Q(x) :- Missing(x, x).").unwrap();
        assert!(run_program(&mut db, &program, &EngineConfig::default()).is_err());
    }

    #[test]
    fn stats_record_per_iteration_deltas() {
        let mut db = tc_db(5);
        let sat = run_program(&mut db, &tc_program(), &EngineConfig::default()).unwrap();
        // Chain of 4 edges: the seed round derives 4 tuples, the recursive
        // rounds 3, 2, 1, and a final round finds nothing new.
        let deltas: Vec<usize> = sat.stats.iterations.iter().map(|i| i.new_tuples).collect();
        assert_eq!(deltas, vec![4, 3, 2, 1, 0]);
    }

    /// A recorder that panics on the `n`-th `engine.iteration` event, so a
    /// panic fires inside the fixpoint loop, after rounds have already
    /// derived tuples into the engine's storage.
    #[derive(Debug)]
    struct PanicOnIteration(usize, std::sync::atomic::AtomicUsize);

    impl recurs_obs::Recorder for PanicOnIteration {
        fn event(&self, kind: &'static str, _fields: &[(&'static str, recurs_obs::Value)]) {
            use std::sync::atomic::Ordering;
            if kind == "engine.iteration" && self.1.fetch_add(1, Ordering::SeqCst) + 1 == self.0 {
                panic!("panic in iteration {}", self.0);
            }
        }
    }

    #[test]
    fn mid_fixpoint_panic_writes_nothing_back() {
        let before = tc_db(8);
        let mut db = before.clone();
        let cfg = EngineConfig {
            obs: Obs::new(std::sync::Arc::new(PanicOnIteration(
                3,
                std::sync::atomic::AtomicUsize::new(0),
            ))),
            ..EngineConfig::default()
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_program(&mut db, &tc_program(), &cfg)
        }));
        assert!(caught.is_err(), "the recorder's panic must unwind the run");
        // Earlier rounds had derived tuples, but the write-back never ran:
        // the EDB is unchanged and the IDB was only declared.
        assert_eq!(db.get("A").unwrap(), before.get("A").unwrap());
        assert_eq!(db.get("E").unwrap(), before.get("E").unwrap());
        assert!(db.get("P").unwrap().is_empty());
    }
}
