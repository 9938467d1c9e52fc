//! Rule compilation: a conjunctive body becomes a fixed join pipeline whose
//! steps probe the persistent indexes of [`crate::storage::EngineDb`].
//!
//! Compilation happens once per (rule, delta position) pair, before the
//! fixpoint loop starts. The pipeline fixes the atom order (via the
//! selection-first heuristic of `recurs_datalog::order`), the index each
//! step probes, and the columns each step appends — so the per-iteration
//! work is pure hash probing with no planning, cloning, or re-indexing.

use crate::error::EngineError;
use crate::storage::EngineDb;
use recurs_datalog::database::Database;
use recurs_datalog::error::DatalogError;
use recurs_datalog::govern::{Governor, TruncationReason};
use recurs_datalog::order::order_atoms;
use recurs_datalog::relation::Tuple;
use recurs_datalog::rule::Rule;
use recurs_datalog::symbol::Symbol;
use recurs_datalog::term::{Term, Value};
use std::collections::HashMap;

/// A partial binding row flowing through the pipeline: one value per
/// distinct variable bound so far, in first-occurrence order.
pub type Row = Vec<Value>;

/// Probe/hit counters for pipeline executions (copied into
/// [`crate::EngineStats`] by the driver once the run ends).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbeCounters {
    /// Index probes issued.
    pub probes: u64,
    /// Tuples the probes returned.
    pub hits: u64,
}

/// Where a join-key component comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyPart {
    /// A column of the accumulated row (a variable bound earlier).
    Acc(usize),
    /// A constant from the rule text.
    Const(Value),
}

/// One join step: probe `pred`'s index on `index_cols` with a key assembled
/// from the accumulated row and the rule's constants, filter by
/// within-atom equalities, and append the new-variable columns.
#[derive(Debug, Clone)]
struct JoinStep {
    pred: Symbol,
    /// Columns of the stored tuple forming the index key. Empty means no
    /// variable is shared with the prefix and no constant restricts the
    /// atom: a full scan (Cartesian extension).
    index_cols: Vec<usize>,
    /// Key component per index column.
    key: Vec<KeyPart>,
    /// Within-atom repeated-variable checks `tuple[a] == tuple[b]` not
    /// already enforced by the key.
    eq_checks: Vec<(usize, usize)>,
    /// Tuple columns appended to the row (first occurrences of new vars).
    append_cols: Vec<usize>,
}

/// How the seed atom (the first atom of the pipeline) turns tuples into
/// initial rows.
#[derive(Debug, Clone)]
pub struct SeedSpec {
    /// The seed atom's predicate.
    pub pred: Symbol,
    /// True if the seed rows come from the current delta batch rather than
    /// the stored relation (semi-naive differentiation).
    pub from_delta: bool,
    /// Constant selections `tuple[col] == value`.
    const_checks: Vec<(usize, Value)>,
    /// Repeated-variable selections `tuple[a] == tuple[b]`.
    eq_checks: Vec<(usize, usize)>,
    /// Columns kept (first occurrence of each variable).
    keep_cols: Vec<usize>,
}

impl SeedSpec {
    /// Filters and projects raw tuples into pipeline rows.
    pub fn rows<'a>(&self, tuples: impl Iterator<Item = &'a Tuple>) -> Vec<Row> {
        tuples
            .filter(|t| {
                self.const_checks.iter().all(|&(c, v)| t[c] == v)
                    && self.eq_checks.iter().all(|&(a, b)| t[a] == t[b])
            })
            .map(|t| self.keep_cols.iter().map(|&c| t[c]).collect())
            .collect()
    }
}

/// One head column: either copied from the row or a constant.
#[derive(Debug, Clone, Copy)]
enum HeadCol {
    Bound(usize),
    Fixed(Value),
}

/// A rule compiled into a seed + join-step pipeline producing head tuples.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// The head predicate tuples are derived into.
    pub head_pred: Symbol,
    /// The head arity.
    pub head_arity: usize,
    /// The seed specification; `None` for an empty body (a ground head).
    pub seed: Option<SeedSpec>,
    steps: Vec<JoinStep>,
    head: Vec<HeadCol>,
}

impl CompiledRule {
    /// Compiles `rule` with an optional differentiated delta position. The
    /// delta atom (if any) is pinned first in the join order; `db` supplies
    /// relation sizes for the ordering heuristic only.
    pub fn compile(
        rule: &Rule,
        delta_pos: Option<usize>,
        db: &Database,
    ) -> Result<CompiledRule, DatalogError> {
        let order = order_atoms(&rule.body, db, delta_pos);
        let mut acc_col: HashMap<Symbol, usize> = HashMap::new();
        let mut acc_len = 0usize;

        let mut seed: Option<SeedSpec> = None;
        let mut steps: Vec<JoinStep> = Vec::new();

        for (rank, &pos) in order.iter().enumerate() {
            let atom = &rule.body[pos];
            if rank == 0 {
                // Seed atom: selection + projection, no probing.
                let mut const_checks = Vec::new();
                let mut eq_checks = Vec::new();
                let mut keep_cols = Vec::new();
                let mut first: HashMap<Symbol, usize> = HashMap::new();
                for (i, term) in atom.terms.iter().enumerate() {
                    match term {
                        Term::Const(c) => const_checks.push((i, *c)),
                        Term::Var(v) => match first.get(v) {
                            Some(&j) => eq_checks.push((j, i)),
                            None => {
                                first.insert(*v, i);
                                keep_cols.push(i);
                                acc_col.insert(*v, acc_len);
                                acc_len += 1;
                            }
                        },
                    }
                }
                seed = Some(SeedSpec {
                    pred: atom.predicate,
                    from_delta: delta_pos == Some(pos),
                    const_checks,
                    eq_checks,
                    keep_cols,
                });
                continue;
            }
            // Join step: shared variables and constants become the index
            // key; repeated new variables become residual equality checks;
            // new variables extend the row.
            let mut index_cols = Vec::new();
            let mut key = Vec::new();
            let mut eq_checks = Vec::new();
            let mut append_cols = Vec::new();
            let mut first: HashMap<Symbol, usize> = HashMap::new();
            let mut pending_new: Vec<Symbol> = Vec::new();
            for (i, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(c) => {
                        index_cols.push(i);
                        key.push(KeyPart::Const(*c));
                    }
                    Term::Var(v) => {
                        if let Some(&j) = first.get(v) {
                            eq_checks.push((j, i));
                            continue;
                        }
                        first.insert(*v, i);
                        if let Some(&a) = acc_col.get(v) {
                            index_cols.push(i);
                            key.push(KeyPart::Acc(a));
                        } else {
                            append_cols.push(i);
                            pending_new.push(*v);
                        }
                    }
                }
            }
            for v in pending_new {
                acc_col.insert(v, acc_len);
                acc_len += 1;
            }
            steps.push(JoinStep {
                pred: atom.predicate,
                index_cols,
                key,
                eq_checks,
                append_cols,
            });
        }

        let head = rule
            .head
            .terms
            .iter()
            .map(|t| match t {
                Term::Var(v) => acc_col
                    .get(v)
                    .copied()
                    .map(HeadCol::Bound)
                    .ok_or(DatalogError::UnboundVariable(*v)),
                Term::Const(c) => Ok(HeadCol::Fixed(*c)),
            })
            .collect::<Result<Vec<_>, _>>()?;

        Ok(CompiledRule {
            head_pred: rule.head.predicate,
            head_arity: rule.head.arity(),
            seed,
            steps,
            head,
        })
    }

    /// The `(predicate, key columns)` indexes the pipeline probes. The
    /// driver ensures each exists before the fixpoint starts.
    pub fn required_indexes(&self) -> impl Iterator<Item = (Symbol, &[usize])> {
        self.steps
            .iter()
            .filter(|s| !s.index_cols.is_empty())
            .map(|s| (s.pred, s.index_cols.as_slice()))
    }

    /// Runs the pipeline over the given seed rows, appending derived head
    /// tuples to `out` (with duplicates; the driver dedupes on insert).
    ///
    /// If a `governor` is given, its cheap trip conditions (cancellation,
    /// deadline) are polled every few hundred rows; a trip stops the
    /// pipeline and returns the reason. Head tuples already appended to
    /// `out` by earlier pipelines remain valid (every derived tuple is a
    /// true consequence — an early stop only omits tuples).
    pub fn execute(
        &self,
        db: &EngineDb,
        seed_rows: Vec<Row>,
        counters: &mut ProbeCounters,
        governor: Option<&Governor>,
        out: &mut Vec<Tuple>,
    ) -> Result<Option<TruncationReason>, EngineError> {
        // Polling cadence: cheap enough to keep probe throughput, frequent
        // enough to stop a blown-up iteration promptly.
        const POLL_STRIDE: usize = 512;
        let mut poll_countdown = POLL_STRIDE;
        let mut poll = move || -> Option<TruncationReason> {
            let gov = governor?;
            poll_countdown -= 1;
            if poll_countdown == 0 {
                poll_countdown = POLL_STRIDE;
                gov.poll()
            } else {
                None
            }
        };
        let mut rows = seed_rows;
        for step in &self.steps {
            let Some(rel) = db.get(step.pred) else {
                return Err(EngineError::Internal(
                    "compiled rule references a relation the driver never loaded",
                ));
            };
            let mut next: Vec<Row> = Vec::new();
            if step.index_cols.is_empty() {
                // Cartesian extension: no shared variable, no constant.
                for row in &rows {
                    if let Some(reason) = poll() {
                        return Ok(Some(reason));
                    }
                    for t in rel.iter() {
                        if step.eq_checks.iter().all(|&(a, b)| t[a] == t[b]) {
                            let mut r = row.clone();
                            r.extend(step.append_cols.iter().map(|&c| t[c]));
                            next.push(r);
                        }
                    }
                }
            } else {
                let mut key: Vec<Value> = Vec::with_capacity(step.key.len());
                for row in &rows {
                    if let Some(reason) = poll() {
                        return Ok(Some(reason));
                    }
                    key.clear();
                    key.extend(step.key.iter().map(|k| match k {
                        KeyPart::Acc(a) => row[*a],
                        KeyPart::Const(c) => *c,
                    }));
                    counters.probes += 1;
                    let Some(ids) = rel.probe(&step.index_cols, &key) else {
                        return Err(EngineError::Internal(
                            "compiled rule probed an index the driver never ensured",
                        ));
                    };
                    counters.hits += ids.len() as u64;
                    for &id in ids {
                        let t = rel.tuple(id);
                        if step.eq_checks.iter().all(|&(a, b)| t[a] == t[b]) {
                            let mut r = row.clone();
                            r.extend(step.append_cols.iter().map(|&c| t[c]));
                            next.push(r);
                        }
                    }
                }
            }
            rows = next;
            if rows.is_empty() {
                return Ok(None);
            }
        }
        out.extend(rows.iter().map(|row| {
            self.head
                .iter()
                .map(|c| match c {
                    HeadCol::Bound(i) => row[*i],
                    HeadCol::Fixed(v) => *v,
                })
                .collect::<Tuple>()
        }));
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recurs_datalog::parser::parse_rule;
    use recurs_datalog::relation::Relation;

    fn db_with(rels: &[(&str, Relation)]) -> Database {
        let mut db = Database::new();
        for (name, rel) in rels {
            db.insert_relation(*name, rel.clone());
        }
        db
    }

    fn engine_db(db: &Database) -> EngineDb {
        let mut e = EngineDb::new();
        for (name, rel) in db.iter() {
            e.load(name, rel);
        }
        e
    }

    fn run(cr: &CompiledRule, edb: &EngineDb) -> Vec<Tuple> {
        let seed = cr.seed.as_ref().unwrap();
        let rows = seed.rows(edb.get(seed.pred).unwrap().iter());
        let mut out = Vec::new();
        let mut counters = ProbeCounters::default();
        cr.execute(edb, rows, &mut counters, None, &mut out)
            .unwrap();
        out
    }

    #[test]
    fn two_atom_join_produces_composition() {
        let rule = parse_rule("Q(x, z) :- A(x, y), B(y, z).").unwrap();
        let db = db_with(&[
            ("A", Relation::from_pairs([(1, 2), (2, 3)])),
            ("B", Relation::from_pairs([(2, 5), (3, 6)])),
        ]);
        let cr = CompiledRule::compile(&rule, None, &db).unwrap();
        let mut edb = engine_db(&db);
        for (pred, cols) in cr.required_indexes() {
            let cols = cols.to_vec();
            edb.get_mut(pred).unwrap().ensure_index(&cols);
        }
        let mut out = run(&cr, &edb);
        out.sort();
        let got: Vec<Vec<&str>> = out
            .iter()
            .map(|t| t.iter().map(|v| v.as_str()).collect())
            .collect();
        assert_eq!(got, vec![vec!["1", "5"], vec!["2", "6"]]);
    }

    #[test]
    fn constants_fold_into_the_index_key() {
        let rule = parse_rule("Q(y) :- A(x, y), B('7', x).").unwrap();
        let db = db_with(&[
            ("A", Relation::from_pairs([(1, 10), (2, 20)])),
            ("B", Relation::from_pairs([(7, 1), (8, 2)])),
        ]);
        let cr = CompiledRule::compile(&rule, None, &db).unwrap();
        // The ordering heuristic leads with the constant-bearing B atom, so
        // the A step probes an index that includes no constant; either way
        // every required index must be declared.
        let mut edb = engine_db(&db);
        for (pred, cols) in cr.required_indexes() {
            let cols = cols.to_vec();
            edb.get_mut(pred).unwrap().ensure_index(&cols);
        }
        let out = run(&cr, &edb);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0].as_str(), "10");
    }

    #[test]
    fn repeated_variables_filter_within_atom() {
        let rule = parse_rule("Q(x) :- A(x, x).").unwrap();
        let db = db_with(&[("A", Relation::from_pairs([(1, 1), (1, 2), (3, 3)]))]);
        let cr = CompiledRule::compile(&rule, None, &db).unwrap();
        let edb = engine_db(&db);
        let mut out = run(&cr, &edb);
        out.sort();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn cartesian_step_scans() {
        let rule = parse_rule("R(x, y) :- A(x, u), B(y, v).").unwrap();
        let db = db_with(&[
            ("A", Relation::from_pairs([(1, 10), (2, 20)])),
            ("B", Relation::from_pairs([(7, 70)])),
        ]);
        let cr = CompiledRule::compile(&rule, None, &db).unwrap();
        let edb = engine_db(&db);
        let out = run(&cr, &edb);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn unbound_head_variable_is_an_error() {
        let rule = parse_rule("Q(w) :- A(x, y).").unwrap();
        let db = db_with(&[("A", Relation::from_pairs([(1, 2)]))]);
        assert!(matches!(
            CompiledRule::compile(&rule, None, &db),
            Err(DatalogError::UnboundVariable(_))
        ));
    }

    #[test]
    fn delta_position_pins_the_seed() {
        let rule = parse_rule("P(x, y) :- A(x, z), P(z, y).").unwrap();
        let db = db_with(&[("A", Relation::from_pairs([(1, 2)]))]);
        let cr = CompiledRule::compile(&rule, Some(1), &db).unwrap();
        let seed = cr.seed.as_ref().unwrap();
        assert_eq!(seed.pred, Symbol::intern("P"));
        assert!(seed.from_delta);
        // The single join step probes A on its second column (z).
        let idx: Vec<_> = cr.required_indexes().collect();
        assert_eq!(idx, vec![(Symbol::intern("A"), &[1usize][..])]);
    }
}
